package ml

import (
	"math"
	"math/bits"
	"sync"

	"repro/internal/tabular"
)

// treeScratch is the reusable working memory of one treeCore.fit: the
// column-major feature cache, lazily presorted per-feature index lists
// (classification), the presorted key segments that regression nodes
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
	// sorted[f*n:(f+1)*n] lists all n sample indices ordered by feature
	// f, built lazily on first profitable use; sortedBuilt[f] tracks it
	// and sortedNaN[f] records whether the column holds a NaN.
	sorted      []int32
	sortedBuilt []bool
	sortedNaN   []bool
	// root, seg, tieFree and side are the regression key-segment store,
	// live while root is non-nil. root[f*n:(f+1)*n] is feature f's root
	// presort: seg itself, or a shared keyPresort's keys, read-only.
	// Below the root, seg[f*n+lo : f*n+hi] holds node [lo,hi)'s keys of
	// a tieFree feature f in sorted order: each split partitions the
	// parent's segments into the children, steered by side[row] (true =
	// left), which the index partition records. Tied columns are read at
	// the root only.
	root    []sortKey
	seg     []sortKey
	tieFree []bool
	side    []bool
	// seen is the repeated-row check's mask over frame rows.
	seen rowMask
	// idx is the shared node index buffer: each tree node owns a
	// contiguous [lo, hi) range, split in place by partitioning.
	idx []int32
	// keys is the per-split (value, index) sort/filter scratch (and the
	// build scratch of presorted lists), part the partition spill buffer.
	// nodeStamp is the epoch-stamped membership mask for presorted
	// filtering: rows of the current node carry the current
	// stamp, so each filter pass needs one store per member instead of a
	// set-and-clear round trip over the node (stale stamps from earlier
	// nodes or earlier pooled fits can never equal a fresh stamp).
	keys      []sortKey
	part      []int32
	nodeStamp []int32
	stamp     int32
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
	s.sorted = sizedI32(s.sorted, n*d)
	s.sortedBuilt = sizedBool(s.sortedBuilt, d)
	for f := range s.sortedBuilt {
		s.sortedBuilt[f] = false
	}
	s.sortedNaN = sizedBool(s.sortedNaN, d)
	if segments {
		s.seg = sizedKeys(s.seg, n*d)
		s.tieFree = sizedBool(s.tieFree, d)
		s.side = sizedBool(s.side, n)
	}
	s.idx = sizedI32(s.idx, n)
	s.keys = sizedKeys(s.keys, n)
	s.part = sizedI32(s.part, n)
	s.nodeStamp = sizedI32(s.nodeStamp, n)
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

// nextStamp advances the membership epoch, recycling the stamp space on
// the (practically unreachable) int32 wrap.
func (s *treeScratch) nextStamp() int32 {
	if s.stamp == math.MaxInt32 {
		clear(s.nodeStamp)
		s.stamp = 0
	}
	s.stamp++
	return s.stamp
}

// ensureSorted builds the presorted index list of feature f on first use,
// sorting (value, index) keys with sortKeys and keeping the indices. The
// sort is deterministic (pdqsort on a fixed input), so the presorted
// order — and everything derived from it — replays identically across
// runs. It returns nil for a column holding a NaN: NaN compares false
// both ways, so a filtered full-column order need not scan like the
// node's own sort, and such columns take the direct sort instead.
func (s *treeScratch) ensureSorted(f int) []int32 {
	sorted := s.sorted[f*s.n : (f+1)*s.n]
	if !s.sortedBuilt[f] {
		keys := s.keys[:s.n]
		col := s.col(f)
		nan := false
		for i := range keys {
			keys[i] = sortKey{key: col[i], idx: int32(i)}
			nan = nan || math.IsNaN(col[i])
		}
		sortKeys(keys)
		for k, e := range keys {
			sorted[k] = e.idx
		}
		s.sortedBuilt[f] = true
		s.sortedNaN[f] = nan
	}
	if s.sortedNaN[f] {
		return nil
	}
	return sorted
}

// presortColumn fills keys with one column's root keys — (col[i], i) for
// an identity view, (col[vidx[i]], i) for a subset view — sorts them
// with sortKeys and reports whether the column is tie-free: its sorted
// keys increase strictly under <, which rules out ties, NaNs and a
// −0/+0 pair. Distinct keys have exactly one ascending order, so any
// subset of a tie-free column sorts to the subsequence of its presort,
// whatever the start order.
func presortColumn(keys []sortKey, col []float64, vidx []int) (tieFree bool) {
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
		if !(keys[k-1].key < keys[k].key) {
			return false
		}
	}
	return true
}

// rowMask is an all-false mask over frame rows, grown on demand.
type rowMask []bool

// repeats reports whether view v lists some frame row more than once, as
// a bootstrap resample does. Such a view has no tie-free column: every
// repeated row ties with itself in each feature. The mask is all false
// again on return.
func (m *rowMask) repeats(v tabular.View) bool {
	vidx := v.Indices()
	if vidx == nil {
		return false
	}
	*m = sizedBool(*m, v.Frame().Rows())
	seen := *m
	k := 0
	for ; k < len(vidx) && !seen[vidx[k]]; k++ {
		seen[vidx[k]] = true
	}
	for _, r := range vidx[:k] {
		seen[r] = false
	}
	return k < len(vidx)
}

// keyPresort is the root presort of one fit view, shared read-only by
// every regression tree fitted on that view: keys[f*n:(f+1)*n] is
// feature f's presortColumn output and tieFree[f] its verdict. Gradient
// boosting fits one tree per class per round on the same view, so one
// presort replaces a root sort per tree. Instances are pooled: a
// presort is n*d keys, too large to allocate per fit.
type keyPresort struct {
	keys    []sortKey
	tieFree []bool
	seen    rowMask
}

var keyPresortPool = sync.Pool{New: func() any { return new(keyPresort) }}

// newKeyPresort returns a pooled presort of view v, or nil when v
// repeats rows: trees on such a view keep no segment store.
func newKeyPresort(v tabular.View) *keyPresort {
	ps := keyPresortPool.Get().(*keyPresort)
	if ps.seen.repeats(v) {
		keyPresortPool.Put(ps)
		return nil
	}
	n, d := v.Rows(), v.Features()
	ps.keys = sizedKeys(ps.keys, n*d)
	ps.tieFree = sizedBool(ps.tieFree, d)
	cols := v.Frame().Cols
	for f := 0; f < d; f++ {
		ps.tieFree[f] = presortColumn(ps.keys[f*n:(f+1)*n], cols[f], v.Indices())
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

// ceilLog2 returns ⌈log₂ m⌉ for m ≥ 1; it prices a comparison sort when
// choosing between sorting a node directly and filtering the presorted
// full column.
func ceilLog2(m int) int {
	if m <= 1 {
		return 0
	}
	return bits.Len(uint(m - 1))
}
