package ml

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/tabular"
)

// KNNParams configure k-nearest-neighbour classification.
type KNNParams struct {
	// K is the neighbourhood size.
	K int
	// DistanceWeighted weights votes by inverse distance.
	DistanceWeighted bool
}

func (p KNNParams) normalized() KNNParams {
	if p.K < 1 {
		p.K = 5
	}
	return p
}

// KNN is a k-nearest-neighbour classifier. Fitting is (almost) free —
// it memorizes the training set — while prediction scans all stored rows,
// the cost profile that makes lazy learners expensive at inference.
type KNN struct {
	Params KNNParams
	// cols memorizes the training set in column order: aliases of the
	// training frame's columns for identity views (zero-copy), gathered
	// copies for subset views.
	cols    [][]float64
	y       []int
	classes int
}

// NewKNN constructs a kNN classifier.
func NewKNN(p KNNParams) *KNN {
	return &KNN{Params: p}
}

// Fit implements Classifier.
func (k *KNN) Fit(ds tabular.View, _ *rand.Rand) (Cost, error) {
	k.Params = k.Params.normalized()
	d := ds.Features()
	k.cols = make([][]float64, d) //greenlint:allow rowmajor columnar training-column table, one slice per feature
	for j := 0; j < d; j++ {
		k.cols[j] = ds.ColInto(j, nil)
	}
	k.y = ds.LabelsInto(nil)
	k.classes = ds.Classes()
	return Cost{Generic: float64(ds.Rows())}, nil
}

// knnQBlock is the query-block width of the distance kernel: one pass
// over the memorized columns serves knnQBlock queries, cutting column
// traffic by that factor while each (query, train) pair still sums its
// squared distance in ascending feature order.
const knnQBlock = 8

// knnWorker is one worker's private query scratch.
type knnWorker struct {
	dist  []float64 // knnQBlock stacked distance rows
	q     []float64 // gathered query-column block
	cands []sortKey // (distance, training row) selection scratch
}

// PredictProba implements Classifier. The scan is feature-major over
// the memorized columns, blocked two ways: query blocks share one pass
// over the training columns, and blocks of queries run in parallel
// under the package Parallelism knob (disjoint output rows, Cost from
// a closed formula) — bit-identical to the historical per-query scan.
func (k *KNN) PredictProba(x tabular.View) ([][]float64, Cost) {
	m := x.Rows()
	if len(k.cols) == 0 || len(k.y) == 0 {
		return uniformProba(m, max(k.classes, 2)), Cost{}
	}
	n := len(k.y)
	d := len(k.cols)
	kk := k.Params.K
	if kk > n {
		kk = n
	}
	out := make([][]float64, m) //greenlint:allow rowmajor proba output rows, class-wide not feature-wide
	workers := make([]*knnWorker, Parallelism())
	runRowBlocks(m, func(w, _, lo, hi int) {
		ws := workers[w]
		if ws == nil {
			ws = &knnWorker{
				dist:  make([]float64, knnQBlock*n),
				q:     make([]float64, knnQBlock),
				cands: make([]sortKey, n),
			}
			workers[w] = ws
		}
		for i := lo; i < hi; i += knnQBlock {
			qn := hi - i
			if qn > knnQBlock {
				qn = knnQBlock
			}
			k.scanQueries(x, ws, i, qn, n, d)
			for s := 0; s < qn; s++ {
				dist := ws.dist[s*n : s*n+n]
				cands := ws.cands
				for t := range cands {
					cands[t] = sortKey{key: dist[t], idx: int32(t)}
				}
				// sortKeys leaves the permutation sort.Sort leaves, so
				// ties between equal distances resolve exactly as the
				// historical sort.Slice call resolved them.
				sortKeys(cands)
				votes := make([]float64, k.classes)
				for _, c := range cands[:kk] {
					w := 1.0
					if k.Params.DistanceWeighted {
						w = 1 / (1e-9 + c.key)
					}
					votes[k.y[c.idx]] += w
				}
				normalizeInPlace(votes)
				out[i+s] = votes
			}
		}
	})
	scanCost := float64(m) * float64(n) * (3*float64(d) + 15)
	return out, Cost{Generic: scanCost}
}

// scanQueries accumulates squared distances from queries [i, i+qn) to
// every memorized row into ws.dist (one stacked row per query). The
// feature loop is outermost, so every (query, train) pair adds its
// per-feature terms in ascending feature order — the bit-identity
// invariant — while each training value is loaded once per query block
// instead of once per query.
//
//greenlint:hotpath distance accumulation over every query-row pair; scratch is per-worker
func (k *KNN) scanQueries(x tabular.View, ws *knnWorker, i, qn, n, d int) {
	clear(ws.dist[:qn*n])
	for j := 0; j < d; j++ {
		col := k.cols[j]
		for s := 0; s < qn; s++ {
			ws.q[s] = x.At(i+s, j)
		}
		switch qn {
		case knnQBlock:
			// Full block: one pass over the column feeds eight
			// independent accumulation streams (no cross-iteration
			// dependency chains), with full-capacity sub-slices lifting
			// the bounds checks out of the inner loop.
			d0 := ws.dist[0*n : 0*n+n : 0*n+n]
			d1 := ws.dist[1*n : 1*n+n : 1*n+n]
			d2 := ws.dist[2*n : 2*n+n : 2*n+n]
			d3 := ws.dist[3*n : 3*n+n : 3*n+n]
			d4 := ws.dist[4*n : 4*n+n : 4*n+n]
			d5 := ws.dist[5*n : 5*n+n : 5*n+n]
			d6 := ws.dist[6*n : 6*n+n : 6*n+n]
			d7 := ws.dist[7*n : 7*n+n : 7*n+n]
			q0, q1, q2, q3 := ws.q[0], ws.q[1], ws.q[2], ws.q[3]
			q4, q5, q6, q7 := ws.q[4], ws.q[5], ws.q[6], ws.q[7]
			for t, v := range col {
				f0, f1, f2, f3 := v-q0, v-q1, v-q2, v-q3
				f4, f5, f6, f7 := v-q4, v-q5, v-q6, v-q7
				d0[t] += f0 * f0
				d1[t] += f1 * f1
				d2[t] += f2 * f2
				d3[t] += f3 * f3
				d4[t] += f4 * f4
				d5[t] += f5 * f5
				d6[t] += f6 * f6
				d7[t] += f7 * f7
			}
		default:
			for s := 0; s < qn; s++ {
				q := ws.q[s]
				dist := ws.dist[s*n : s*n+n : s*n+n]
				for t, v := range col {
					diff := v - q
					dist[t] += diff * diff
				}
			}
		}
	}
}

// Clone implements Classifier.
func (k *KNN) Clone() Classifier { return NewKNN(k.Params) }

// Name implements Classifier.
func (k *KNN) Name() string {
	return fmt.Sprintf("knn(k=%d)", k.Params.normalized().K)
}

// ParallelFrac implements Classifier: queries parallelize trivially, but
// Fit (memorization) does not matter either way.
func (k *KNN) ParallelFrac() float64 { return 0.8 }

// StoredRows reports the memorized training-set size.
func (k *KNN) StoredRows() int { return len(k.y) }
