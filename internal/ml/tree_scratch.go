package ml

import (
	"math"
	"math/bits"
	"sync"
)

// treeScratch is the reusable working memory of one treeCore.fit: the
// column-major feature cache, lazily presorted per-feature index lists,
// the shared node index buffer that split partitioning rearranges in
// place, and assorted per-split scratch. Instances are pooled so forests,
// boosting rounds and surrogate fits reuse the same memory instead of
// re-allocating per tree.
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
	// f, built lazily on first profitable use; sortedBuilt[f] tracks it.
	sorted      []int32
	sortedBuilt []bool
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
// views alias frame columns and skip it entirely.
func getTreeScratch(n, d, classes int, needGather bool) *treeScratch {
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
	treeScratchPool.Put(s)
}

// col returns the working column of feature f.
func (s *treeScratch) col(f int) []float64 { return s.colref[f] }

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
// runs.
func (s *treeScratch) ensureSorted(f int) []int32 {
	sorted := s.sorted[f*s.n : (f+1)*s.n]
	if !s.sortedBuilt[f] {
		keys := s.keys[:s.n]
		col := s.col(f)
		for i := range keys {
			keys[i] = sortKey{key: col[i], idx: int32(i)}
		}
		sortKeys(keys)
		for k, e := range keys {
			sorted[k] = e.idx
		}
		s.sortedBuilt[f] = true
	}
	return sorted
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
