package ml

import (
	"sync"

	"repro/internal/tabular"
)

// treeScratch is the reusable working memory of one treeCore.fit: the
// column-major feature cache, the presorted key segments that nodes
// partition down to their children, the shared node index buffer that
// split partitioning rearranges in place, and assorted per-split
// scratch. Instances are pooled so forests, boosting rounds and
// surrogate fits reuse the same memory instead of re-allocating per
// tree.
type treeScratch struct {
	n, d int
	// colref[f] is the working column of feature f: an alias of the
	// frame's own column for contiguous (identity) views, or a slice of
	// the gather arena below for subset views.
	colref [][]float64
	// cols is the column-major gather arena used only for subset views:
	// cols[f*n+i] = frame.Cols[f][view.Idx[i]]. Contiguous fits never
	// touch it (the historical per-fit transpose is gone).
	cols []float64
	// ylab is the gathered view-local label scratch for subset views.
	ylab []int
	// root, seg, exact and side are the key-segment store, live while
	// root is non-nil. root[f*n:(f+1)*n] is feature f's root presort:
	// seg itself, or a shared keyPresort's keys, read-only. Below the
	// root, seg[f*n+lo : f*n+hi] holds node [lo,hi)'s keys of an exact
	// feature f in sorted order: each split partitions the parent's
	// segments into the children, steered by side[row] (true = left),
	// which the index partition records. Other columns are read at the
	// root only.
	root  []sortKey
	seg   []sortKey
	exact []bool
	side  []bool
	// idx is the shared node index buffer: each tree node owns a
	// contiguous [lo, hi) range, split in place by partitioning.
	idx []int32
	// keys is the per-split (value, index) sort scratch and the segment
	// partition's spill buffer, part the index partition's spill buffer.
	keys []sortKey
	part []int32
	// perm is the feature-subset permutation scratch.
	perm []int
	// left/right/all are class-count scratch for split scoring.
	left, right, all []float64
}

var treeScratchPool = sync.Pool{New: func() any { return new(treeScratch) }}

// getTreeScratch returns pooled scratch sized for n samples, d features
// and the given class count (1 for regression). The gather arena is
// sized only when the fit reads a subset view (needGather); identity
// views alias frame columns and skip it entirely. The segment store is
// sized only when the fit may use it (segments).
func getTreeScratch(n, d, classes int, needGather, segments bool) *treeScratch {
	s := treeScratchPool.Get().(*treeScratch)
	s.n, s.d = n, d
	s.colref = sizedCols(s.colref, d)
	if needGather {
		s.cols = sizedF64(s.cols, n*d)
	}
	if segments {
		s.seg = sizedKeys(s.seg, n*d)
		s.exact = sizedBool(s.exact, d)
		s.side = sizedBool(s.side, n)
	}
	s.idx = sizedI32(s.idx, n)
	s.keys = sizedKeys(s.keys, n)
	s.part = sizedI32(s.part, n)
	s.perm = sizedInt(s.perm, d)
	s.left = sizedF64(s.left, classes)
	s.right = sizedF64(s.right, classes)
	s.all = sizedF64(s.all, classes)
	return s
}

func putTreeScratch(s *treeScratch) {
	for f := range s.colref {
		s.colref[f] = nil // drop frame-column aliases
	}
	s.root = nil // drop a shared presort
	treeScratchPool.Put(s)
}

// col returns the working column of feature f.
func (s *treeScratch) col(f int) []float64 { return s.colref[f] }

// segment returns feature f's key segment of node [lo,hi): the root
// presort at the root (the only node spanning all n rows), the
// partitioned store below it.
func (s *treeScratch) segment(f, lo, hi int) []sortKey {
	if hi-lo == s.n {
		return s.root[f*s.n : (f+1)*s.n]
	}
	return s.seg[f*s.n+lo : f*s.n+hi]
}

// presortColumn fills keys with one column's root keys — (col[i], i) for
// an identity view, (col[vidx[i]], i) for a subset view — sorts them
// with sortKeys and reports whether the column is exact: whether any
// node's keys, taken in presort order, scan to the split the node's own
// sortKeys order does. The verdict follows the task:
//
//   - Regression (classification false): the sorted keys increase
//     strictly under <, which rules out ties, NaNs, a −0/+0 pair and
//     repeated rows. Distinct keys have exactly one ascending order, so
//     any subset sorts to the subsequence of the presort, whatever the
//     start order.
//   - Classification: the sorted keys never decrease under <=, which
//     rules out NaN alone. Any subsequence is then ascending and differs
//     from the node's own sort in tie order at most, which the
//     classification scan cannot see (see orderByFeature).
func presortColumn(keys []sortKey, col []float64, vidx []int, classification bool) (exact bool) {
	if vidx == nil {
		for i := range keys {
			keys[i] = sortKey{key: col[i], idx: int32(i)}
		}
	} else {
		for i, r := range vidx {
			keys[i] = sortKey{key: col[r], idx: int32(i)}
		}
	}
	sortKeys(keys)
	for k := 1; k < len(keys); k++ {
		a, b := keys[k-1].key, keys[k].key
		if !(a < b || classification && a == b) {
			return false
		}
	}
	return true
}

// keyPresort is the root presort of one fit view, shared read-only by
// every regression tree fitted on that view: keys[f*n:(f+1)*n] is
// feature f's presortColumn output and exact[f] its verdict. Gradient
// boosting fits one tree per class per round on the same view, so one
// presort replaces a root sort per tree. Instances are pooled: a
// presort is n*d keys, too large to allocate per fit.
type keyPresort struct {
	keys  []sortKey
	exact []bool
}

var keyPresortPool = sync.Pool{New: func() any { return new(keyPresort) }}

// newKeyPresort returns a pooled regression presort of view v.
func newKeyPresort(v tabular.View) *keyPresort {
	ps := keyPresortPool.Get().(*keyPresort)
	n, d := v.Rows(), v.Features()
	ps.keys = sizedKeys(ps.keys, n*d)
	ps.exact = sizedBool(ps.exact, d)
	cols := v.Frame().Cols
	for f := 0; f < d; f++ {
		ps.exact[f] = presortColumn(ps.keys[f*n:(f+1)*n], cols[f], v.Indices(), false)
	}
	return ps
}

// release returns the presort to its pool; a nil presort is a no-op.
func (ps *keyPresort) release() {
	if ps != nil {
		keyPresortPool.Put(ps)
	}
}

func sizedF64(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

func sizedI32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

func sizedKeys(buf []sortKey, n int) []sortKey {
	if cap(buf) < n {
		return make([]sortKey, n)
	}
	return buf[:n]
}

func sizedBool(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n)
	}
	return buf[:n]
}

func sizedInt(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

func sizedCols(buf [][]float64, n int) [][]float64 {
	if cap(buf) < n {
		return make([][]float64, n) //greenlint:allow rowmajor pooled column-reference table; entries alias frame columns
	}
	return buf[:n]
}
