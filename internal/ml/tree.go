package ml

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/tabular"
)

// Criterion selects the impurity measure for classification trees.
type Criterion int

const (
	// Gini impurity (CART default).
	Gini Criterion = iota
	// Entropy (information gain).
	Entropy
)

// TreeParams are the shared hyperparameters of all tree learners.
type TreeParams struct {
	// MaxDepth limits tree depth; 0 means unlimited (hard cap 32).
	MaxDepth int
	// MinSamplesLeaf is the minimum number of samples per leaf.
	MinSamplesLeaf int
	// MinSamplesSplit is the minimum number of samples to attempt a
	// split.
	MinSamplesSplit int
	// MaxFeatures is the fraction of features tried per split in (0,1];
	// 0 means all features.
	MaxFeatures float64
	// RandomThreshold enables extremely-randomized splitting: one
	// uniform random threshold per tried feature instead of an exhaustive
	// scan.
	RandomThreshold bool
	// Criterion selects the impurity measure (classification only).
	Criterion Criterion
}

func (p TreeParams) normalized() TreeParams {
	if p.MaxDepth <= 0 || p.MaxDepth > 32 {
		p.MaxDepth = 32
	}
	if p.MinSamplesLeaf < 1 {
		p.MinSamplesLeaf = 1
	}
	if p.MinSamplesSplit < 2 {
		p.MinSamplesSplit = 2
	}
	if p.MaxFeatures <= 0 || p.MaxFeatures > 1 {
		p.MaxFeatures = 1
	}
	return p
}

// tryCount is the number of features each split scores out of d:
// ceil(MaxFeatures·d) clamped to [1,d].
func (p TreeParams) tryCount(d int) int {
	return min(max(int(math.Ceil(p.MaxFeatures*float64(d))), 1), d)
}

// treeNode is one node of a fitted tree. Leaves have feature == -1.
type treeNode struct {
	feature     int
	threshold   float64
	left, right int32
	proba       []float64 // classification leaf distribution
	value       float64   // regression leaf value
	depth       int
}

// treeCore is the shared CART engine for classification and regression.
//
// The fit path is allocation-free on a per-node basis: features live in a
// pooled column-major cache, node sample indices occupy ranges of one
// shared buffer that split partitioning rearranges in place, and split
// scoring reads each candidate feature's node keys in sorted order from
// one of two sources (see orderByFeature): a presorted key segment that
// each split partitions stably into its children, kept when every node
// scores every feature, or a per-node sortKeys. The kernel is
// bit-compatible with the original per-split sort.Slice kernel:
// identical trees, identical RNG consumption and identical Cost, so the
// virtual-clock energy accounting of every consumer (forests, AdaBoost,
// gradient boosting, TPOT pipelines, the BO surrogate) is unchanged.
type treeCore struct {
	params  TreeParams
	classes int // 0 for regression
	nodes   []treeNode
	cost    Cost
	scratch *treeScratch // non-nil only while fit runs
	// probaArena is the unhanded tail of the current leaf-probability
	// block; see leafProba.
	probaArena []float64
}

// leafProba returns a zeroed class-count vector carved from the proba
// arena, starting a fresh block when the tail runs out. Leaf vectors
// are retained by the fitted tree, so they can never come from pooled
// scratch; block carving turns the one remaining per-node allocation
// of a fit into one allocation per 64 nodes. Each vector is handed out
// exactly once (full-capacity slice), so aliasing between nodes is
// impossible.
func (tc *treeCore) leafProba() []float64 {
	k := tc.classes
	if len(tc.probaArena) < k {
		tc.probaArena = make([]float64, 64*k)
	}
	p := tc.probaArena[:k:k]
	tc.probaArena = tc.probaArena[k:]
	return p
}

type treeTask struct {
	v tabular.View
	y []int     // classification labels, view-local; gathered lazily if nil
	t []float64 // regression targets, view-local
	// presort is v's shared root presort (regression only); nil makes
	// a fit that keeps segments build its own.
	presort *keyPresort
}

func (tc *treeCore) fit(task treeTask, rng *rand.Rand) error {
	p := tc.params.normalized()
	tc.params = p
	n := task.v.Rows()
	if n == 0 {
		return errors.New("ml: tree fit on empty data")
	}
	d := task.v.Features()
	if d == 0 {
		return errors.New("ml: tree fit with zero features")
	}
	tc.nodes = tc.nodes[:0]
	tc.cost = Cost{}

	// Only a fit whose every node scores every feature keeps the segment
	// store: a feature subset reads a few columns per node, and
	// presorting and partitioning all d of them costs more than sorting
	// the few.
	segments := !p.RandomThreshold && p.tryCount(d) == d
	s := getTreeScratch(n, d, max(tc.classes, 1), !task.v.Contiguous(), segments)
	tc.scratch = s
	defer func() {
		tc.scratch = nil
		putTreeScratch(s)
	}()

	// Columnar input: an identity view aliases the frame's columns
	// directly — the historical per-fit row-major transpose is gone. A
	// subset view (bootstrap, fold) gathers each column into the pooled
	// arena with sequential writes; either way s.col(f) yields exactly
	// the values the transpose used to produce, so everything downstream
	// is bit-identical.
	frameCols := task.v.Frame().Cols
	if task.v.Contiguous() {
		copy(s.colref, frameCols)
	} else {
		vidx := task.v.Indices()
		for f := 0; f < d; f++ {
			dst := s.cols[f*n : (f+1)*n]
			col := frameCols[f]
			for i, r := range vidx {
				dst[i] = col[r]
			}
			s.colref[f] = dst
		}
	}
	if tc.classes > 0 && task.y == nil {
		if task.v.Contiguous() {
			task.y = task.v.Frame().Y
		} else {
			s.ylab = sizedInt(s.ylab, n)
			vidx := task.v.Indices()
			fy := task.v.Frame().Y
			for i, r := range vidx {
				s.ylab[i] = fy[r]
			}
			task.y = s.ylab
		}
	}
	for i := range s.idx {
		s.idx[i] = int32(i)
	}
	if segments {
		tc.presortSegments(task)
	}
	tc.build(task, 0, n, 0, rng)
	return nil
}

// presortSegments sets up the key-segment store: the root presort is
// the task's shared presort when it has one, else it is built here into
// seg from the working columns, with each column's exactness judged
// under the task's rule. The root's index range is the identity order
// presortColumn sorts from, so each column's root presort is exactly
// the keys the root's own sort would leave.
func (tc *treeCore) presortSegments(task treeTask) {
	s := tc.scratch
	if ps := task.presort; ps != nil {
		s.root = ps.keys
		copy(s.exact, ps.exact)
		return
	}
	for f := range s.exact {
		s.exact[f] = presortColumn(s.seg[f*s.n:(f+1)*s.n], s.col(f), nil, tc.classes > 0)
	}
	s.root = s.seg
}

// build grows the subtree over the index range scratch.idx[lo:hi) and
// returns the node index.
func (tc *treeCore) build(task treeTask, lo, hi, depth int, rng *rand.Rand) int32 {
	s := tc.scratch
	idx := s.idx[lo:hi]
	m := hi - lo
	p := tc.params

	node := treeNode{feature: -1, depth: depth}
	pure := false
	if tc.classes > 0 {
		counts := tc.leafProba()
		for _, i := range idx {
			counts[task.y[i]]++
		}
		nonzero := 0
		for _, c := range counts {
			if c > 0 {
				nonzero++
			}
		}
		pure = nonzero <= 1
		for i := range counts {
			counts[i] /= float64(m)
		}
		node.proba = counts
	} else {
		var sum float64
		for _, i := range idx {
			sum += task.t[i]
		}
		node.value = sum / float64(m)
		pure = m <= 1
	}
	tc.cost.Tree += float64(m)

	if pure || depth >= p.MaxDepth || m < p.MinSamplesSplit || m < 2*p.MinSamplesLeaf {
		return tc.push(node)
	}

	feature, threshold, ok := tc.findSplit(task, lo, hi, rng)
	if !ok {
		return tc.push(node)
	}

	// Stable in-place partition of the shared index buffer: left-going
	// samples compact forward, right-going ones spill to scratch and are
	// copied back behind them. Stability keeps every node's index order
	// equal to the historical append-based partition, which leaf
	// statistics' floating-point accumulation order depends on. Each
	// row's side is also recorded for partitionSegments.
	col := s.col(feature)
	nl := lo
	nr := 0
	for k := lo; k < hi; k++ {
		i := s.idx[k]
		left := col[i] <= threshold
		if left {
			s.idx[nl] = i
			nl++
		} else {
			s.part[nr] = i
			nr++
		}
		if s.root != nil {
			s.side[i] = left
		}
	}
	copy(s.idx[nl:hi], s.part[:nr])
	tc.cost.Tree += float64(m)
	if nl-lo < p.MinSamplesLeaf || nr < p.MinSamplesLeaf {
		return tc.push(node)
	}
	// Children that cannot split never read their segments.
	minSplit := max(p.MinSamplesSplit, 2*p.MinSamplesLeaf)
	if s.root != nil && depth+1 < p.MaxDepth && (nl-lo >= minSplit || nr >= minSplit) {
		tc.partitionSegments(lo, nl, hi)
	}

	node.feature = feature
	node.threshold = threshold
	self := tc.push(node)
	left := tc.build(task, lo, nl, depth+1, rng)
	right := tc.build(task, nl, hi, depth+1, rng)
	tc.nodes[self].left = left
	tc.nodes[self].right = right
	return self
}

// partitionSegments splits each exact column's key segment of node
// [lo,hi) into its children [lo,mid) and [mid,hi), stably, by the side
// the index partition recorded for each row. A stable partition of a
// sorted segment leaves both halves sorted, so each child's segment is
// again exactly the keys its own sort would leave: O(m) per column
// instead of O(m log m). The root reads the (possibly shared) root
// presort and writes seg; every other node partitions seg in place.
//
//greenlint:hotpath per-node segment partition; spills into the treeScratch keys buffer
func (tc *treeCore) partitionSegments(lo, mid, hi int) {
	s := tc.scratch
	spill := s.keys[:hi-mid]
	for f, exact := range s.exact {
		if !exact {
			continue
		}
		dst := s.seg[f*s.n+lo : f*s.n+hi]
		nl, nr := 0, 0
		for _, e := range s.segment(f, lo, hi) {
			if s.side[e.idx] {
				dst[nl] = e
				nl++
			} else {
				spill[nr] = e
				nr++
			}
		}
		copy(dst[nl:], spill[:nr])
	}
}

func (tc *treeCore) push(n treeNode) int32 {
	tc.nodes = append(tc.nodes, n)
	return int32(len(tc.nodes) - 1)
}

// findSplit searches for the best (feature, threshold) over a random subset
// of features.
func (tc *treeCore) findSplit(task treeTask, lo, hi int, rng *rand.Rand) (feature int, threshold float64, ok bool) {
	s := tc.scratch
	d := s.d
	tryCount := tc.params.tryCount(d)
	features := s.perm[:d]
	for j := range features {
		features[j] = j
	}
	if tryCount < d {
		// Fisher-Yates over the scratch permutation, drawing exactly as
		// math/rand/v2's Perm does, so the tried feature subsets — and
		// therefore the fitted trees — match the historical
		// rng.Perm(d)[:tryCount] draw for draw without its allocation.
		for i := d - 1; i > 0; i-- {
			j := int(rng.Uint64N(uint64(i + 1)))
			features[i], features[j] = features[j], features[i]
		}
		features = features[:tryCount]
	}

	m := hi - lo
	// The modeled cost of one exhaustive candidate depends on the node
	// size alone, so it is computed once per node, not once per feature.
	fm := float64(m)
	exhaustiveCost := fm * (math.Log2(fm+2) + float64(max(tc.classes, 1)))
	bestGain := 0.0
	ok = false
	for _, f := range features {
		var gain, thr float64
		var found bool
		if tc.params.RandomThreshold {
			gain, thr, found = tc.evalRandomThreshold(task, lo, hi, f, rng)
			tc.cost.Tree += 3 * fm
		} else {
			gain, thr, found = tc.evalExhaustive(task, lo, hi, f)
			tc.cost.Tree += exhaustiveCost
		}
		if found && gain > bestGain {
			bestGain, threshold, feature, ok = gain, thr, f, true
		}
	}
	return feature, threshold, ok
}

// orderByFeature returns the node's (value, index) pairs ordered by
// feature f. It returns ok = false without ordering anything when f is
// constant over the node: the split scan skips every position whose
// neighbouring values are equal, so a constant feature can never yield
// a split, and findSplit has already charged its Cost. Two paths
// produce the order:
//
//   - Key segment: an exact column's segment at any node (presortColumn
//     gives each task's verdict), and any column's segment at the root
//     (only the root spans all n rows), which the root presort sorted
//     from the root's own start order. A regression segment is exactly
//     what sortKeys leaves on the node's keys, so the float prefix sums
//     keep their bits. A classification segment may order ties
//     differently, which the scan cannot see: class counts are
//     integer-valued and gains are evaluated only at boundaries between
//     distinct feature values, where the cumulative counts depend on
//     the sample set alone (a tied −0/+0 run meets a nonzero neighbour
//     there, and x ± 0 is x, so the threshold keeps its bits too).
//     Endpoints that differ prove the column
//     varies; any other segment is checked by the same loop as the
//     direct path, which is what decides NaN and constant columns.
//
//   - Direct sortKeys on the node's keys in the scratch. sortKeys is
//     pdqsort specialised to sortKey, and leaves exactly the permutation
//     sort.Sort (and the historical sort.Slice call) leaves, ties
//     included. Fits that score a feature subset take this path at
//     every node, the others for inexact columns below the root.
//
//greenlint:hotpath per-node candidate ordering; both paths reuse treeScratch buffers
func (tc *treeCore) orderByFeature(lo, hi, f int) (keys []sortKey, ok bool) {
	s := tc.scratch
	m := hi - lo
	col := s.col(f)
	idx := s.idx[lo:hi]
	first := col[idx[0]]
	if s.root != nil && (m == s.n || s.exact[f]) {
		keys = s.segment(f, lo, hi)
		if keys[0].key != keys[m-1].key {
			return keys, true
		}
		for _, i := range idx {
			if col[i] != first {
				return keys, true
			}
		}
		return nil, false
	}
	keys = s.keys[:m]
	varies := false
	for k, i := range idx {
		v := col[i]
		keys[k] = sortKey{key: v, idx: i}
		varies = varies || v != first
	}
	if !varies {
		return nil, false
	}
	sortKeys(keys)
	return keys, true
}

// evalExhaustive sorts the samples by feature f and scans every split
// point, returning the best impurity decrease.
func (tc *treeCore) evalExhaustive(task treeTask, lo, hi, f int) (gain, threshold float64, ok bool) {
	s := tc.scratch
	m := hi - lo
	keys, ok := tc.orderByFeature(lo, hi, f)
	if !ok {
		return 0, 0, false
	}

	if tc.classes > 0 {
		left := s.left[:tc.classes]
		right := s.right[:tc.classes]
		for c := range left {
			left[c], right[c] = 0, 0
		}
		for _, e := range keys {
			right[task.y[e.idx]]++
		}
		parent := tc.impurity(right, float64(m))
		bestGain := 0.0
		var bestThr float64
		found := false
		for pos := 1; pos < m; pos++ {
			c := task.y[keys[pos-1].idx]
			left[c]++
			right[c]--
			v0, v1 := keys[pos-1].key, keys[pos].key
			if v0 == v1 {
				continue
			}
			nl, nr := float64(pos), float64(m-pos)
			g := parent - (nl*tc.impurity(left, nl)+nr*tc.impurity(right, nr))/float64(m)
			if g > bestGain {
				bestGain = g
				bestThr = (v0 + v1) / 2
				found = true
			}
		}
		return bestGain, bestThr, found
	}

	// Regression: incremental sums for MSE decrease.
	var sumR, sumSqR float64
	for _, e := range keys {
		t := task.t[e.idx]
		sumR += t
		sumSqR += t * t
	}
	totalVar := sumSqR - sumR*sumR/float64(m)
	var sumL, sumSqL float64
	bestGain := 0.0
	var bestThr float64
	found := false
	for pos := 1; pos < m; pos++ {
		t := task.t[keys[pos-1].idx]
		sumL += t
		sumSqL += t * t
		sumRpos := sumR - sumL
		sumSqRpos := sumSqR - sumSqL
		v0, v1 := keys[pos-1].key, keys[pos].key
		if v0 == v1 {
			continue
		}
		nl, nr := float64(pos), float64(m-pos)
		sseL := sumSqL - sumL*sumL/nl
		sseR := sumSqRpos - sumRpos*sumRpos/nr
		g := totalVar - sseL - sseR
		if g > bestGain {
			bestGain = g
			bestThr = (v0 + v1) / 2
			found = true
		}
	}
	return bestGain, bestThr, found
}

// evalRandomThreshold draws a uniform threshold between the column's min
// and max (extra-trees style) and scores that single split.
func (tc *treeCore) evalRandomThreshold(task treeTask, lo, hi, f int, rng *rand.Rand) (gain, threshold float64, ok bool) {
	s := tc.scratch
	col := s.col(f)
	idx := s.idx[lo:hi]
	vlo, vhi := math.Inf(1), math.Inf(-1)
	for _, i := range idx {
		v := col[i]
		if v < vlo {
			vlo = v
		}
		if v > vhi {
			vhi = v
		}
	}
	if vhi <= vlo {
		return 0, 0, false
	}
	thr := vlo + rng.Float64()*(vhi-vlo)
	m := float64(len(idx))

	if tc.classes > 0 {
		left := s.left[:tc.classes]
		right := s.right[:tc.classes]
		for c := range left {
			left[c], right[c] = 0, 0
		}
		var nl float64
		for _, i := range idx {
			if col[i] <= thr {
				left[task.y[i]]++
				nl++
			} else {
				right[task.y[i]]++
			}
		}
		nr := m - nl
		if nl == 0 || nr == 0 {
			return 0, 0, false
		}
		all := s.all[:tc.classes]
		for c := range all {
			all[c] = left[c] + right[c]
		}
		g := tc.impurity(all, m) - (nl*tc.impurity(left, nl)+nr*tc.impurity(right, nr))/m
		return g, thr, g > 0
	}

	var sumL, sumSqL, sumR, sumSqR, nl float64
	for _, i := range idx {
		t := task.t[i]
		if col[i] <= thr {
			sumL += t
			sumSqL += t * t
			nl++
		} else {
			sumR += t
			sumSqR += t * t
		}
	}
	nr := m - nl
	if nl == 0 || nr == 0 {
		return 0, 0, false
	}
	total := sumSqL + sumSqR - (sumL+sumR)*(sumL+sumR)/m
	sseL := sumSqL - sumL*sumL/nl
	sseR := sumSqR - sumR*sumR/nr
	g := total - sseL - sseR
	return g, thr, g > 0
}

// impurity computes Gini or entropy from class counts summing to total.
func (tc *treeCore) impurity(counts []float64, total float64) float64 {
	if total <= 0 {
		return 0
	}
	if tc.params.Criterion == Entropy {
		var h float64
		for _, c := range counts {
			if c > 0 {
				p := c / total
				h -= p * math.Log2(p)
			}
		}
		return h
	}
	var sumSq float64
	for _, c := range counts {
		p := c / total
		sumSq += p * p
	}
	return 1 - sumSq
}

// traverse walks view row i to its leaf and returns the leaf node plus
// the traversal cost in node visits. Each node reads a single cell from
// the feature's column — no row materialization.
func (tc *treeCore) traverse(v tabular.View, i int) (*treeNode, float64) {
	if len(tc.nodes) == 0 {
		return nil, 0
	}
	cur := int32(0)
	visits := 1.0
	for {
		n := &tc.nodes[cur]
		if n.feature < 0 {
			return n, visits
		}
		if v.At(i, n.feature) <= n.threshold {
			cur = n.left
		} else {
			cur = n.right
		}
		visits++
	}
}

// NodeCount reports the number of nodes in the fitted tree.
func (tc *treeCore) NodeCount() int { return len(tc.nodes) }

// TreeClassifier is a CART decision-tree classifier.
type TreeClassifier struct {
	Params TreeParams
	core   treeCore
	fitted bool
}

// NewTreeClassifier constructs a tree classifier with the given parameters.
func NewTreeClassifier(p TreeParams) *TreeClassifier {
	return &TreeClassifier{Params: p}
}

// Fit implements Classifier.
func (t *TreeClassifier) Fit(ds tabular.View, rng *rand.Rand) (Cost, error) {
	t.core = treeCore{params: t.Params, classes: ds.Classes()}
	if err := t.core.fit(treeTask{v: ds}, rng); err != nil {
		return Cost{}, err
	}
	t.fitted = true
	return t.core.cost, nil
}

// PredictProba implements Classifier. Rows traverse independently, so
// row blocks run in parallel under the package Parallelism knob:
// output rows are disjoint slots, and the per-block visit counts are
// integer-valued floats whose block-order reduction is exact — the
// Cost matches the sequential walk bit for bit.
func (t *TreeClassifier) PredictProba(x tabular.View) ([][]float64, Cost) {
	n := x.Rows()
	if !t.fitted {
		return uniformProba(n, max(t.core.classes, 2)), Cost{}
	}
	out := make([][]float64, n) //greenlint:allow rowmajor proba output rows, class-wide not feature-wide
	blockVisits := make([]float64, rowBlockCount(n))
	runRowBlocks(n, func(_, b, lo, hi int) {
		var visits float64
		for i := lo; i < hi; i++ {
			leaf, v := t.core.traverse(x, i)
			visits += v
			out[i] = leaf.proba
		}
		blockVisits[b] = visits
	})
	var visits float64
	for _, v := range blockVisits {
		visits += v
	}
	return out, Cost{Tree: 2 * visits}
}

// Clone implements Classifier.
func (t *TreeClassifier) Clone() Classifier { return NewTreeClassifier(t.Params) }

// Name implements Classifier.
func (t *TreeClassifier) Name() string {
	p := t.Params.normalized()
	return fmt.Sprintf("tree(depth=%d,leaf=%d)", p.MaxDepth, p.MinSamplesLeaf)
}

// ParallelFrac implements Classifier: a single tree fit is largely
// sequential.
func (t *TreeClassifier) ParallelFrac() float64 { return 0.3 }

// NodeCount reports the number of nodes in the fitted tree.
func (t *TreeClassifier) NodeCount() int { return t.core.NodeCount() }

// TreeRegressor is a CART regression tree.
type TreeRegressor struct {
	Params TreeParams
	core   treeCore
	fitted bool
	// presort, when set, is the fit view's shared root presort; the
	// owner (gradient boosting) sets it for one FitReg call.
	presort *keyPresort
}

// NewTreeRegressor constructs a regression tree with the given parameters.
func NewTreeRegressor(p TreeParams) *TreeRegressor {
	return &TreeRegressor{Params: p}
}

// FitReg implements Regressor.
func (t *TreeRegressor) FitReg(x tabular.View, y []float64, rng *rand.Rand) (Cost, error) {
	if x.Rows() != len(y) {
		return Cost{}, fmt.Errorf("ml: regression tree: %d rows but %d targets", x.Rows(), len(y))
	}
	t.core = treeCore{params: t.Params}
	if err := t.core.fit(treeTask{v: x, t: y, presort: t.presort}, rng); err != nil {
		return Cost{}, err
	}
	t.fitted = true
	return t.core.cost, nil
}

// PredictReg implements Regressor. Row blocks run in parallel with
// block-slot visit counts, exactly like TreeClassifier.PredictProba.
func (t *TreeRegressor) PredictReg(x tabular.View) ([]float64, Cost) {
	n := x.Rows()
	out := make([]float64, n)
	if !t.fitted {
		return out, Cost{}
	}
	blockVisits := make([]float64, rowBlockCount(n))
	runRowBlocks(n, func(_, b, lo, hi int) {
		var visits float64
		for i := lo; i < hi; i++ {
			leaf, v := t.core.traverse(x, i)
			visits += v
			out[i] = leaf.value
		}
		blockVisits[b] = visits
	})
	var visits float64
	for _, v := range blockVisits {
		visits += v
	}
	return out, Cost{Tree: 2 * visits}
}

// NodeCount reports the number of nodes in the fitted tree.
func (t *TreeRegressor) NodeCount() int { return t.core.NodeCount() }
