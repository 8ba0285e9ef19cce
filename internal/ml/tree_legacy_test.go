package ml

// This file preserves the pre-optimization CART kernel verbatim (modulo
// renames) as a test oracle. The rewritten treeCore must produce
// bit-identical trees — same node order, same split features and
// thresholds, same leaf distributions, same Cost — because the virtual
// clock turns tree shape into measured energy, and grid records must not
// move when the kernel gets faster.

import (
	"errors"
	"math"
	"math/rand/v2"
	"sort"
)

// legacyTreeTask is the kernel input in its historical row-major form.
type legacyTreeTask struct {
	x [][]float64
	y []int
	t []float64
}

// legacyNode is the historical fitted node: every node, internal or
// not, keeps its own class distribution or mean.
type legacyNode struct {
	feature     int
	threshold   float64
	left, right int32
	proba       []float64 // classification leaf distribution
	value       float64   // regression leaf value
}

type legacyTreeCore struct {
	params  TreeParams
	classes int
	nodes   []legacyNode
	cost    Cost
}

func (tc *legacyTreeCore) fit(task legacyTreeTask, rng *rand.Rand) error {
	p := tc.params.normalized()
	tc.params = p
	n := len(task.x)
	if n == 0 {
		return errors.New("ml: tree fit on empty data")
	}
	d := len(task.x[0])
	if d == 0 {
		return errors.New("ml: tree fit with zero features")
	}
	tc.nodes = tc.nodes[:0]
	tc.cost = Cost{}

	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	tc.build(task, idx, 0, rng)
	return nil
}

// compact converts the legacy preorder tree into the fitted flatNode
// form, written out independently of treeCore.layout: a breadth-first
// queue assigns positions, each split's children take the next two,
// and leaves carry their visit count and the offset of their payload,
// appended to the slab in preorder.
func (tc *legacyTreeCore) compact() *treeCore {
	out := &treeCore{classes: tc.classes, nodes: make([]flatNode, len(tc.nodes))}
	offsets := map[int32]int32{}
	var preorder func(i int32)
	preorder = func(i int32) {
		n := tc.nodes[i]
		if n.feature < 0 {
			offsets[i] = int32(len(out.leaves))
			if tc.classes > 0 {
				out.leaves = append(out.leaves, n.proba...)
			} else {
				out.leaves = append(out.leaves, n.value)
			}
			return
		}
		preorder(n.left)
		preorder(n.right)
	}
	if len(tc.nodes) > 0 {
		preorder(0)
	}
	type item struct{ src, depth int32 }
	queue := []item{{0, 0}}
	for p := 0; p < len(queue); p++ {
		it := queue[p]
		n := tc.nodes[it.src]
		if n.feature < 0 {
			out.nodes[p] = flatNode{threshold: leafThreshold(offsets[it.src], it.depth+1), next: int32(p - 1)}
			continue
		}
		out.nodes[p] = flatNode{threshold: n.threshold, feature: int32(n.feature), next: int32(len(queue))}
		queue = append(queue, item{n.left, it.depth + 1}, item{n.right, it.depth + 1})
	}
	return out
}

func (tc *legacyTreeCore) build(task legacyTreeTask, idx []int, depth int, rng *rand.Rand) int32 {
	m := len(idx)
	p := tc.params

	node := legacyNode{feature: -1}
	pure := false
	if tc.classes > 0 {
		counts := make([]float64, tc.classes)
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

	feature, threshold, ok := tc.findSplit(task, idx, rng)
	if !ok {
		return tc.push(node)
	}

	var leftIdx, rightIdx []int
	for _, i := range idx {
		if task.x[i][feature] <= threshold {
			leftIdx = append(leftIdx, i)
		} else {
			rightIdx = append(rightIdx, i)
		}
	}
	tc.cost.Tree += float64(m)
	if len(leftIdx) < p.MinSamplesLeaf || len(rightIdx) < p.MinSamplesLeaf {
		return tc.push(node)
	}

	node.feature = feature
	node.threshold = threshold
	self := tc.push(node)
	left := tc.build(task, leftIdx, depth+1, rng)
	right := tc.build(task, rightIdx, depth+1, rng)
	tc.nodes[self].left = left
	tc.nodes[self].right = right
	return self
}

func (tc *legacyTreeCore) push(n legacyNode) int32 {
	tc.nodes = append(tc.nodes, n)
	return int32(len(tc.nodes) - 1)
}

func (tc *legacyTreeCore) findSplit(task legacyTreeTask, idx []int, rng *rand.Rand) (feature int, threshold float64, ok bool) {
	d := len(task.x[0])
	tryCount := int(math.Ceil(tc.params.MaxFeatures * float64(d)))
	if tryCount < 1 {
		tryCount = 1
	}
	if tryCount > d {
		tryCount = d
	}
	var features []int
	if tryCount == d {
		features = make([]int, d)
		for j := range features {
			features[j] = j
		}
	} else {
		features = rng.Perm(d)[:tryCount]
	}

	bestGain := 0.0
	ok = false
	for _, f := range features {
		var gain, thr float64
		var found bool
		if tc.params.RandomThreshold {
			gain, thr, found = tc.evalRandomThreshold(task, idx, f, rng)
			tc.cost.Tree += 3 * float64(len(idx))
		} else {
			gain, thr, found = tc.evalExhaustive(task, idx, f)
			m := float64(len(idx))
			tc.cost.Tree += m * (math.Log2(m+2) + float64(max(tc.classes, 1)))
		}
		if found && gain > bestGain {
			bestGain, threshold, feature, ok = gain, thr, f, true
		}
	}
	return feature, threshold, ok
}

func (tc *legacyTreeCore) evalExhaustive(task legacyTreeTask, idx []int, f int) (gain, threshold float64, ok bool) {
	m := len(idx)
	order := append([]int(nil), idx...)
	sort.Slice(order, func(a, b int) bool { return task.x[order[a]][f] < task.x[order[b]][f] })

	if tc.classes > 0 {
		left := make([]float64, tc.classes)
		right := make([]float64, tc.classes)
		for _, i := range order {
			right[task.y[i]]++
		}
		parent := tc.impurity(right, float64(m))
		bestGain := 0.0
		var bestThr float64
		found := false
		for pos := 1; pos < m; pos++ {
			c := task.y[order[pos-1]]
			left[c]++
			right[c]--
			v0, v1 := task.x[order[pos-1]][f], task.x[order[pos]][f]
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

	var sumR, sumSqR float64
	for _, i := range order {
		t := task.t[i]
		sumR += t
		sumSqR += t * t
	}
	totalVar := sumSqR - sumR*sumR/float64(m)
	var sumL, sumSqL float64
	bestGain := 0.0
	var bestThr float64
	found := false
	for pos := 1; pos < m; pos++ {
		t := task.t[order[pos-1]]
		sumL += t
		sumSqL += t * t
		sumRpos := sumR - sumL
		sumSqRpos := sumSqR - sumSqL
		v0, v1 := task.x[order[pos-1]][f], task.x[order[pos]][f]
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

func (tc *legacyTreeCore) evalRandomThreshold(task legacyTreeTask, idx []int, f int, rng *rand.Rand) (gain, threshold float64, ok bool) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, i := range idx {
		v := task.x[i][f]
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi <= lo {
		return 0, 0, false
	}
	thr := lo + rng.Float64()*(hi-lo)
	m := float64(len(idx))

	if tc.classes > 0 {
		left := make([]float64, tc.classes)
		right := make([]float64, tc.classes)
		var nl float64
		for _, i := range idx {
			if task.x[i][f] <= thr {
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
		all := make([]float64, tc.classes)
		for c := range all {
			all[c] = left[c] + right[c]
		}
		g := tc.impurity(all, m) - (nl*tc.impurity(left, nl)+nr*tc.impurity(right, nr))/m
		return g, thr, g > 0
	}

	var sumL, sumSqL, sumR, sumSqR, nl float64
	for _, i := range idx {
		t := task.t[i]
		if task.x[i][f] <= thr {
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

func (tc *legacyTreeCore) impurity(counts []float64, total float64) float64 {
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
