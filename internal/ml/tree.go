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

// treeNode is one node of a growing tree: build pushes them in
// preorder into the pooled build buffer, and layout turns the finished
// buffer into the fitted flatNode form. Leaves have feature == -1 and
// keep their payload at offset leaf of the pooled leaf slab.
type treeNode struct {
	threshold   float64
	feature     int32
	left, right int32
	leaf        int32
	depth       int32
}

// flatNode is one node of a fitted tree, 16 bytes, laid out breadth
// first with siblings adjacent: an internal node sends x to
// nodes[next] when x[feature] <= threshold and to nodes[next+1]
// otherwise, NaN included. A leaf's threshold is a quiet NaN that
// carries its payload offset and visit count (see leafThreshold), its
// feature is 0 and its next is its own index minus one, so the
// branch-free step next + b2i(!(x <= threshold)) leaves a finished walk
// where it is. No internal node has a NaN threshold: every row of its
// node would go right, and an empty left child is never split off.
type flatNode struct {
	threshold float64
	feature   int32
	next      int32
}

// leafNaN is the quiet-NaN pattern of a leaf threshold. Its low 32 bits
// hold the leaf's payload offset and bits 32–39 its visit count: depth
// + 1, at most 33.
const leafNaN = 0x7ff8_0000_0000_0000

func leafThreshold(off, visits int32) float64 {
	return math.Float64frombits(leafNaN | uint64(visits)<<32 | uint64(uint32(off)))
}

// leaf decodes a leaf node's payload offset and visit count.
func (n *flatNode) leaf() (off, visits int) {
	b := math.Float64bits(n.threshold)
	return int(uint32(b)), int(b >> 32 & 0xff)
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
// virtual-clock energy accounting of every consumer (forests, gradient
// boosting, TPOT pipelines, the BO surrogate) is unchanged.
type treeCore struct {
	params  TreeParams
	classes int // 0 for regression
	// nodes is the fitted tree (see flatNode) and leaves its leaf
	// payloads: each leaf's class distribution (classes values) or its
	// regression value, in preorder.
	nodes   []flatNode
	leaves  []float64
	cost    Cost
	scratch *treeScratch // non-nil only while fit runs
}

// stride is the width of one leaf payload.
func (tc *treeCore) stride() int { return max(tc.classes, 1) }

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
	tc.layout()
	return nil
}

// layout lays the tree grown in the pooled build buffer out breadth
// first into its fitted form, at exact size: the queue of preorder
// indices is the output order, and each internal node's children are
// queued together, so they land side by side. The leaf slab keeps the
// build order.
func (tc *treeCore) layout() {
	s := tc.scratch
	src := s.nodes
	order := sizedI32(s.order, len(src))
	s.order = order
	nodes := make([]flatNode, len(src))
	order[0] = 0
	tail := int32(1)
	for p := range nodes {
		u := &src[order[p]]
		if u.feature < 0 {
			nodes[p] = flatNode{threshold: leafThreshold(u.leaf, u.depth+1), next: int32(p) - 1}
			continue
		}
		nodes[p] = flatNode{threshold: u.threshold, feature: u.feature, next: tail}
		order[tail], order[tail+1] = u.left, u.right
		tail += 2
	}
	tc.nodes = nodes
	tc.leaves = make([]float64, len(s.leaves))
	copy(tc.leaves, s.leaves)
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

	node := treeNode{feature: -1, depth: int32(depth)}
	pure := false
	var value float64
	if tc.classes > 0 {
		counts := s.counts
		clear(counts)
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
	} else {
		var sum float64
		for _, i := range idx {
			sum += task.t[i]
		}
		value = sum / float64(m)
		pure = m <= 1
	}
	tc.cost.Tree += float64(m)

	if pure || depth >= p.MaxDepth || m < p.MinSamplesSplit || m < 2*p.MinSamplesLeaf {
		return tc.pushLeaf(node, value)
	}

	feature, threshold, ok := tc.findSplit(task, lo, hi, rng)
	if !ok {
		return tc.pushLeaf(node, value)
	}

	// Stable in-place partition of the shared index buffer: left-going
	// samples compact forward, right-going ones spill to scratch and are
	// copied back behind them. Stability keeps every node's index order
	// equal to the historical append-based partition, which leaf
	// statistics' floating-point accumulation order depends on. Each
	// row's side is also recorded for partitionSegments. The select is
	// branch-free: every row is written to both destinations and only
	// its own side's cursor advances. The other write is overwritten by
	// a later row or the final copy, or lies past the spill's count; the
	// left cursor never passes the row being read.
	col := s.col(feature)
	part := s.part[:m]
	nl, nr := 0, 0
	for _, i := range idx {
		left := col[i] <= threshold
		b := int(b2i(left))
		idx[nl] = i
		part[nr] = i
		nl += b
		nr += 1 - b
		if s.root != nil {
			s.side[i] = left
		}
	}
	copy(idx[nl:], part[:nr])
	tc.cost.Tree += float64(m)
	if nl < p.MinSamplesLeaf || nr < p.MinSamplesLeaf {
		return tc.pushLeaf(node, value)
	}
	mid := lo + nl
	// Children that cannot split never read their segments.
	minSplit := max(p.MinSamplesSplit, 2*p.MinSamplesLeaf)
	if s.root != nil && depth+1 < p.MaxDepth && (nl >= minSplit || nr >= minSplit) {
		tc.partitionSegments(lo, mid, hi)
	}

	node.feature = int32(feature)
	node.threshold = threshold
	self := tc.push(node)
	left := tc.build(task, lo, mid, depth+1, rng)
	right := tc.build(task, mid, hi, depth+1, rng)
	s.nodes[self].left = left
	s.nodes[self].right = right
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
// The select is the index partition's: each key goes to both dst and
// the spill, and only its side's cursor advances. A left key written
// after the last right one lands one past the right count, so the spill
// takes hi-mid+1 slots, within n because the left child is never empty.
//
//greenlint:hotpath per-node segment partition; spills into the treeScratch keys buffer
func (tc *treeCore) partitionSegments(lo, mid, hi int) {
	s := tc.scratch
	spill := s.keys[:hi-mid+1]
	side := s.side
	for f, exact := range s.exact {
		if !exact {
			continue
		}
		dst := s.seg[f*s.n+lo : f*s.n+hi]
		nl, nr := 0, 0
		for _, e := range s.segment(f, lo, hi) {
			b := int(b2i(side[e.idx]))
			dst[nl] = e
			spill[nr] = e
			nl += b
			nr += 1 - b
		}
		copy(dst[nl:], spill[:nr])
	}
}

// pushLeaf appends leaf n to the pooled node buffer, with its payload
// — the class distribution in the counts scratch, or value — appended to
// the pooled leaf slab, and returns its index. Only leaves keep a
// payload: an internal node's distribution dies with its build call.
func (tc *treeCore) pushLeaf(n treeNode, value float64) int32 {
	s := tc.scratch
	n.leaf = int32(len(s.leaves))
	if tc.classes > 0 {
		s.leaves = append(s.leaves, s.counts...)
	} else {
		s.leaves = append(s.leaves, value)
	}
	return tc.push(n)
}

// push appends n to the pooled node buffer and returns its index.
func (tc *treeCore) push(n treeNode) int32 {
	s := tc.scratch
	s.nodes = append(s.nodes, n)
	return int32(len(s.nodes) - 1)
}

// findSplit searches for the best (feature, threshold) over a random subset
// of features.
func (tc *treeCore) findSplit(task treeTask, lo, hi int, rng *rand.Rand) (feature int, threshold float64, ok bool) {
	s := tc.scratch
	d := s.d
	tryCount := tc.params.tryCount(d)
	features := s.perm[:d]
	if tryCount < d {
		// The tried feature subsets, and therefore the fitted trees,
		// match the historical rng.Perm(d)[:tryCount] draw for draw.
		permInto(rng, features)
		features = features[:tryCount]
	} else {
		for j := range features {
			features[j] = j
		}
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
// and max (extra-trees style) and scores that single split. The class
// counts take a branch-free select: each row adds l (1 or 0) to its
// class's left count and 1-l to its right count. Counts are
// integer-valued floats and x + 0 is x, so every count keeps the bits
// of the branching loop's increments; NaN, never <= thr, goes right.
//
//greenlint:hotpath per-feature ExtraTrees scan; reads only treeScratch buffers
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
			l := float64(b2i(col[i] <= thr))
			y := task.y[i]
			left[y] += l
			right[y] += 1 - l
			nl += l
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

// leafTree is a fitted tree the fused predict walk can traverse.
type leafTree interface{ leafCore() *treeCore }

func (t *TreeClassifier) leafCore() *treeCore { return &t.core }
func (t *TreeRegressor) leafCore() *treeCore  { return &t.core }

// leafAdder accumulates the leaf payload that view row i reaches in
// trees[t] — a class distribution, or a one-value regression payload —
// straight into the caller's output, writing only row i's slots. The
// adders are small value types over heap-owned outputs rather than
// closures: walkRows runs them without a closure at parallelism 1, so a
// predict allocates nothing beyond its output.
type leafAdder interface {
	add(t, i int, leaf []float64)
}

// walkRows is the one predict walk of every tree model — single trees,
// both forests, and gradient boosting at predict and at fit. It hands
// the leaf that view row i reaches in trees[t] to add.add(t, i, leaf).
// Row blocks run in parallel under the package Parallelism knob; inside
// a block walkBlock hands each row its leaves in tree order, so every
// output element receives its per-tree terms in tree order — the same
// += sequence as a loop of per-tree predictions, with one output instead
// of one per tree. It returns the total node visits, summed over the
// blocks in block order: visit counts are integer-valued floats, so any
// grouping of them sums exactly.
func walkRows[T leafTree, A leafAdder](trees []T, x tabular.View, add A) float64 {
	n := x.Rows()
	var visits float64
	if !parallelBlocks(n) {
		for b := range rowBlockCount(n) {
			lo, hi := blockRows(b, n)
			visits += walkBlock(trees, x, lo, hi, add)
		}
		return visits
	}
	blockVisits := make([]float64, rowBlockCount(n))
	runRowBlocks(n, func(_, b, lo, hi int) {
		blockVisits[b] = walkBlock(trees, x, lo, hi, add)
	})
	for _, v := range blockVisits {
		visits += v
	}
	return visits
}

// gatherCells is the size of walkBlock's stack buffer of gathered rows.
const gatherCells = 1024

// walkBlock walks rows [lo,hi) through every tree and returns the
// block's node visits. It gathers as many rows as its stack buffer
// holds into row-major order, then walks them four trees at a time in
// lockstep (walk4) and the last len(trees)%4 trees one by one (walk1),
// handing each row its leaves in tree order. A row wider than the
// buffer goes through a heap row of its own.
//
//greenlint:hotpath per-block tree walk under every ensemble predict; add writes caller-owned output
func walkBlock[T leafTree, A leafAdder](trees []T, x tabular.View, lo, hi int, add A) float64 {
	d := max(x.Features(), 1)
	var stack [gatherCells]float64
	buf := stack[:]
	chunk := len(buf) / d
	if chunk == 0 {
		buf = make([]float64, d) //greenlint:allow hotalloc rows wider than the stack buffer; one row per call, beyond any served model's width
		chunk = 1
	}
	visits := 0
	for clo := lo; clo < hi; clo += chunk {
		chi := min(clo+chunk, hi)
		rows := gatherRows(x, clo, chi, d, buf)
		t := 0
		for ; t+4 <= len(trees); t += 4 {
			a, b, c, e := trees[t].leafCore(), trees[t+1].leafCore(), trees[t+2].leafCore(), trees[t+3].leafCore()
			for r := 0; r < chi-clo; r++ {
				la, lb, lc, le := walk4(a.nodes, b.nodes, c.nodes, e.nodes, rows[r*d:(r+1)*d])
				visits += addLeaf(a, la, t, clo+r, add) + addLeaf(b, lb, t+1, clo+r, add) +
					addLeaf(c, lc, t+2, clo+r, add) + addLeaf(e, le, t+3, clo+r, add)
			}
		}
		for ; t < len(trees); t++ {
			tc := trees[t].leafCore()
			for r := 0; r < chi-clo; r++ {
				visits += addLeaf(tc, walk1(tc.nodes, rows[r*d:(r+1)*d]), t, clo+r, add)
			}
		}
	}
	return float64(visits)
}

// gatherRows copies view rows [lo,hi) into buf in row-major order,
// stride d, column by column, and returns the filled part.
func gatherRows(x tabular.View, lo, hi, d int, buf []float64) []float64 {
	rows := buf[:(hi-lo)*d]
	idx := x.Indices()
	for f, col := range x.Frame().Cols {
		if idx == nil {
			for r, v := range col[lo:hi] {
				rows[r*d+f] = v
			}
			continue
		}
		for r, i := range idx[lo:hi] {
			rows[r*d+f] = col[i]
		}
	}
	return rows
}

// addLeaf hands leaf node c of tc, reached by view row i in trees[t],
// to add and returns its visit count.
func addLeaf[A leafAdder](tc *treeCore, c int32, t, i int, add A) int {
	off, visits := tc.nodes[c].leaf()
	k := tc.stride()
	add.add(t, i, tc.leaves[off:off+k:off+k])
	return visits
}

// step is one branch-free move: to next when x <= threshold, else to
// next+1, NaN included. A leaf steps onto itself.
func step(n *flatNode, row []float64) int32 {
	return n.next + b2i(!(row[n.feature] <= n.threshold))
}

func b2i(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

// walk1 walks row through one tree and returns its leaf's index.
func walk1(nodes []flatNode, row []float64) int32 {
	var c int32
	for {
		next := step(&nodes[c], row)
		if next == c {
			return c
		}
		c = next
	}
}

// walk4 walks row through four trees in lockstep and returns their
// leaves' indices. The four dependency chains overlap in the pipeline,
// and a tree that reaches its leaf first steps in place until the last
// one does; the only branch is the loop exit.
func walk4(n0, n1, n2, n3 []flatNode, row []float64) (c0, c1, c2, c3 int32) {
	for {
		x0, x1, x2, x3 := step(&n0[c0], row), step(&n1[c1], row), step(&n2[c2], row), step(&n3[c3], row)
		if (x0^c0)|(x1^c1)|(x2^c2)|(x3^c3) == 0 {
			return c0, c1, c2, c3
		}
		c0, c1, c2, c3 = x0, x1, x2, x3
	}
}

// leafProbas is a single classification tree's adder: row i's answer is
// its leaf's own distribution, shared read-only with the fitted tree.
type leafProbas [][]float64

func (o leafProbas) add(_, i int, leaf []float64) { o[i] = leaf }

// leafValues is a single regression tree's adder.
type leafValues []float64

func (o leafValues) add(_, i int, leaf []float64) { o[i] = leaf[0] }

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

// PredictProba implements Classifier. Each output row is the leaf's own
// distribution, shared read-only with the fitted tree.
func (t *TreeClassifier) PredictProba(x tabular.View) ([][]float64, Cost) {
	n := x.Rows()
	if !t.fitted {
		return uniformProba(n, max(t.core.classes, 2)), Cost{}
	}
	out := make([][]float64, n) //greenlint:allow rowmajor proba output rows, class-wide not feature-wide
	visits := walkRows([]*TreeClassifier{t}, x, leafProbas(out))
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

// PredictReg implements Regressor.
func (t *TreeRegressor) PredictReg(x tabular.View) ([]float64, Cost) {
	out := make([]float64, x.Rows())
	if !t.fitted {
		return out, Cost{}
	}
	visits := walkRows([]*TreeRegressor{t}, x, leafValues(out))
	return out, Cost{Tree: 2 * visits}
}

// NodeCount reports the number of nodes in the fitted tree.
func (t *TreeRegressor) NodeCount() int { return t.core.NodeCount() }
