package ml

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/tabular"
)

// ForestParams configure random forests and extremely randomized trees.
type ForestParams struct {
	// Trees is the ensemble size.
	Trees int
	// Tree holds the per-tree parameters. A zero MaxFeatures defaults to
	// sqrt(d)/d, the random-forest convention.
	Tree TreeParams
	// Bootstrap resamples the training set per tree (random forests do,
	// extra-trees by convention do not).
	Bootstrap bool
	// ExtraTrees switches to random-threshold splitting.
	ExtraTrees bool
}

func (p ForestParams) normalized(features int) ForestParams {
	if p.Trees < 1 {
		p.Trees = 10
	}
	if p.Tree.MaxFeatures <= 0 {
		p.Tree.MaxFeatures = math.Sqrt(float64(features)) / float64(features)
	}
	p.Tree.RandomThreshold = p.ExtraTrees
	return p
}

// ForestClassifier is a random forest (or extra-trees) classifier.
type ForestClassifier struct {
	Params  ForestParams
	trees   []*TreeClassifier
	classes int
}

// NewForestClassifier constructs a forest with the given parameters.
func NewForestClassifier(p ForestParams) *ForestClassifier {
	return &ForestClassifier{Params: p}
}

// Fit implements Classifier with fitTrees.
func (f *ForestClassifier) Fit(ds tabular.View, rng *rand.Rand) (cost Cost, err error) {
	p := f.Params.normalized(ds.Features())
	f.classes = ds.Classes()
	f.trees, cost, err = fitTrees(p, ds, nil, rng, "forest", func(xs tabular.View, _ []float64, trng *rand.Rand) (*TreeClassifier, Cost, error) {
		tree := NewTreeClassifier(p.Tree)
		c, err := tree.Fit(xs, trng)
		return tree, c, err
	})
	return cost, err
}

// fitTrees is the forest fit loop. Trees fit in parallel under the
// package Parallelism knob with pre-split RNG streams: the parent stream
// is consumed sequentially up front — one PCG seed pair per tree, in
// tree order — so each tree owns an independent deterministic stream
// regardless of which worker fits it when, and results reduce from
// tree-indexed slots in tree order. Outputs are therefore bit-identical
// at every parallelism level. Under p.Bootstrap each tree fits a
// resample of x's rows, and of y when y is non-nil, drawn from its own
// stream. The first error wins: fitTrees returns the trees before it,
// their cost, and the error wrapped under kind.
func fitTrees[T any](p ForestParams, x tabular.View, y []float64, rng *rand.Rand, kind string,
	fit func(x tabular.View, y []float64, trng *rand.Rand) (T, Cost, error)) ([]T, Cost, error) {
	n := x.Rows()
	seeds := make([][2]uint64, p.Trees)
	for i := range seeds {
		seeds[i] = [2]uint64{rng.Uint64(), rng.Uint64()}
	}
	trees := make([]T, p.Trees)
	costs := make([]Cost, p.Trees)
	errs := make([]error, p.Trees)
	// Per-worker scratch: a tree's stream (a Rand over a PCG reseeded
	// per tree, which draws exactly as a fresh one) and its bootstrap
	// resample buffers. A fitted tree keeps neither, since the kernel
	// gathers what it needs into its column cache, so a worker can
	// overwrite its scratch for its next tree.
	type scratch struct {
		pcg rand.PCG
		rng *rand.Rand
		idx []int
		y   []float64
	}
	work := make([]scratch, Parallelism())
	runIndexed(p.Trees, func(w, i int) {
		ws := &work[w]
		if ws.rng == nil {
			ws.rng = rand.New(&ws.pcg)
		}
		ws.pcg.Seed(seeds[i][0], seeds[i][1])
		xs, ys := x, y
		if p.Bootstrap {
			if ws.idx == nil {
				ws.idx, ws.y = make([]int, n), make([]float64, len(y))
			}
			for j := range ws.idx {
				r := ws.rng.IntN(n)
				ws.idx[j] = x.RowIndex(r)
				if y != nil {
					ws.y[j] = y[r]
				}
			}
			costs[i].Generic += float64(n)
			xs, ys = tabular.NewView(x.Frame(), ws.idx), ws.y
		}
		tree, c, err := fit(xs, ys, ws.rng)
		costs[i].Add(c)
		trees[i], errs[i] = tree, err
	})
	var cost Cost
	for i, err := range errs {
		if err != nil {
			return trees[:i], cost, fmt.Errorf("ml: %s tree %d: %w", kind, i, err)
		}
		cost.Add(costs[i])
	}
	return trees, cost, nil
}

// PredictProba implements Classifier by averaging tree leaf
// distributions. One fused walk (walkRows) adds every tree's leaf
// straight into one rows×classes slab, tree by tree in slice order
// within each row block, so each output element sums its terms in the
// order the sequential per-tree loop did.
func (f *ForestClassifier) PredictProba(x tabular.View) ([][]float64, Cost) {
	n := x.Rows()
	if len(f.trees) == 0 {
		return uniformProba(n, max(f.classes, 2)), Cost{}
	}
	out := probaSlab(n, f.classes)
	visits := walkRows(f.trees, x, probaSums(out))
	inv := 1 / float64(len(f.trees))
	for _, row := range out {
		for j := range row {
			row[j] *= inv
		}
	}
	return out, Cost{Generic: float64(n * f.classes * len(f.trees)), Tree: 2 * visits}
}

// probaSums is the forest classifier's adder: it sums each tree's leaf
// distribution into row i.
type probaSums [][]float64

func (o probaSums) add(_, i int, leaf []float64) {
	row := o[i]
	for j, p := range leaf {
		row[j] += p
	}
}

// Clone implements Classifier.
func (f *ForestClassifier) Clone() Classifier { return NewForestClassifier(f.Params) }

// Name implements Classifier.
func (f *ForestClassifier) Name() string {
	kind := "rf"
	if f.Params.ExtraTrees {
		kind = "xt"
	}
	trees := f.Params.Trees
	if trees < 1 {
		trees = 10
	}
	return fmt.Sprintf("%s(trees=%d,depth=%d)", kind, trees, f.Params.Tree.normalized().MaxDepth)
}

// ParallelFrac implements Classifier: tree fits are embarrassingly
// parallel.
func (f *ForestClassifier) ParallelFrac() float64 { return 0.9 }

// ForestRegressor is a random-forest regressor. It additionally exposes the
// across-tree prediction variance, which the Bayesian-optimization
// surrogate needs for expected improvement.
type ForestRegressor struct {
	Params ForestParams
	trees  []*TreeRegressor
}

// NewForestRegressor constructs a forest regressor.
func NewForestRegressor(p ForestParams) *ForestRegressor {
	return &ForestRegressor{Params: p}
}

// FitReg implements Regressor with fitTrees.
func (f *ForestRegressor) FitReg(x tabular.View, y []float64, rng *rand.Rand) (cost Cost, err error) {
	if x.Rows() == 0 {
		return Cost{}, fmt.Errorf("ml: forest regressor fit on empty data")
	}
	p := f.Params.normalized(x.Features())
	f.trees, cost, err = fitTrees(p, x, y, rng, "forest regressor", func(xs tabular.View, ys []float64, trng *rand.Rand) (*TreeRegressor, Cost, error) {
		tree := NewTreeRegressor(p.Tree)
		c, err := tree.FitReg(xs, ys, trng)
		return tree, c, err
	})
	return cost, err
}

// PredictReg implements Regressor by averaging tree predictions.
func (f *ForestRegressor) PredictReg(x tabular.View) ([]float64, Cost) {
	mean, _, cost := f.PredictWithStd(x)
	return mean, cost
}

// PredictWithStd returns the per-row mean and standard deviation of the
// tree predictions. One fused walk accumulates each row's sum and sum of
// squares in place in mean and std, tree by tree in slice order.
func (f *ForestRegressor) PredictWithStd(x tabular.View) (mean, std []float64, cost Cost) {
	mean = make([]float64, x.Rows())
	std = make([]float64, x.Rows())
	if len(f.trees) == 0 {
		return mean, std, cost
	}
	visits := walkRows(f.trees, x, valueMoments{sum: mean, sumSq: std})
	n := float64(len(f.trees))
	for i, sum := range mean {
		m := sum / n
		variance := std[i]/n - m*m
		mean[i], std[i] = m, 0
		if variance > 0 {
			std[i] = math.Sqrt(variance)
		}
	}
	return mean, std, Cost{Generic: float64(x.Rows()) * n, Tree: 2 * visits}
}

// valueMoments is the forest regressor's adder: it sums each tree's leaf
// value and its square into row i.
type valueMoments struct{ sum, sumSq []float64 }

func (o valueMoments) add(_, i int, leaf []float64) {
	v := leaf[0]
	o.sum[i] += v
	o.sumSq[i] += v * v
}
