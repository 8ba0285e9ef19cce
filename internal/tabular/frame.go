package tabular

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
)

// Frame is the columnar dataset storage shared by every layer of the
// repository: one contiguous []float64 per feature, integer class labels,
// and per-feature kind metadata. Frames are the single owner of feature
// memory; all subsetting (train/test splits, folds, subsamples,
// bootstraps) happens through zero-copy Views that reference a Frame plus
// a row-index list. Code holding a View must treat the Frame's columns as
// immutable — transforms that change cell values materialize a fresh
// Frame instead of mutating in place.
type Frame struct {
	// Name identifies the dataset (e.g. the OpenML task name).
	Name string
	// Cols holds one column per feature; all columns have equal length.
	Cols [][]float64
	// Y holds one class label in [0, Classes) per row. May be nil for
	// unlabeled frames (prediction inputs).
	Y []int
	// Kinds gives the kind of each feature column. A nil Kinds means
	// all-numeric.
	Kinds []FeatureKind
	// Classes is the number of distinct class labels (0 when unlabeled).
	Classes int

	// slab, when non-nil, is the pooled backing array the columns were
	// carved from; Release returns it to the frame pool.
	slab []float64
}

// NewFrame allocates an all-zero frame with the given shape.
func NewFrame(name string, rows, features int) *Frame {
	f := &Frame{Name: name, Cols: make([][]float64, features)}
	backing := make([]float64, rows*features)
	for j := range f.Cols {
		f.Cols[j] = backing[j*rows : (j+1)*rows : (j+1)*rows]
	}
	return f
}

// Rows reports the number of instances.
func (f *Frame) Rows() int {
	if len(f.Cols) == 0 {
		return 0
	}
	return len(f.Cols[0])
}

// Features reports the number of attribute columns.
func (f *Frame) Features() int { return len(f.Cols) }

// All returns the zero-copy identity view over the whole frame.
func (f *Frame) All() View { return View{f: f} }

// Validate checks the frame's invariants through its identity view.
func (f *Frame) Validate() error { return f.All().Validate() }

// ClassCounts tallies labels per class over the whole frame.
func (f *Frame) ClassCounts() []int { return f.All().ClassCounts() }

// Kind reports the kind of feature j (Numeric when Kinds is nil).
func (f *Frame) Kind(j int) FeatureKind { return f.All().Kind(j) }

// NumCategorical counts categorical feature columns.
func (f *Frame) NumCategorical() int { return f.All().NumCategorical() }

// frameSlab pools the contiguous backing arrays of transform-output
// frames so per-call transform outputs stop churning the allocator.
var frameSlabPool = sync.Pool{New: func() any { return []float64(nil) }}

// NewPooledFrame returns a frame whose column memory comes from the
// frame pool. The caller owns it until Release; see DESIGN.md "Data
// layout" for the ownership discipline.
func NewPooledFrame(name string, rows, features int) *Frame {
	need := rows * features
	slab := frameSlabPool.Get().([]float64)
	if cap(slab) < need {
		slab = make([]float64, need)
	}
	slab = slab[:need]
	clear(slab) // recycled slabs carry old values; columns must start zero
	f := &Frame{Name: name, Cols: make([][]float64, features), slab: slab}
	for j := range f.Cols {
		f.Cols[j] = slab[j*rows : (j+1)*rows : (j+1)*rows]
	}
	return f
}

// Release returns a pooled frame's backing memory to the frame pool.
// The frame and every view of it become invalid. Releasing a non-pooled
// frame is a no-op, so callers can release unconditionally under the
// pipeline's ownership rules.
func (f *Frame) Release() {
	if f.slab == nil {
		return
	}
	frameSlabPool.Put(f.slab)
	f.slab = nil
	f.Cols = nil
}

// FromRows builds an unlabeled frame from row-major data. It is the one
// row-to-column adapter, for inputs that arrive as rows: Bayesian
// optimization's config vectors and the serving engine's request batches.
// Every row must be as wide as row 0.
func FromRows(x [][]float64) View {
	if len(x) == 0 {
		return (&Frame{}).All()
	}
	f := NewFrame("", len(x), len(x[0]))
	for i, row := range x {
		for j, v := range row {
			f.Cols[j][i] = v
		}
	}
	return f.All()
}

// View is a zero-copy subset of a Frame: the frame pointer plus a shared
// row-index list. A nil index list is the identity view (all frame rows
// in storage order). Views are values — two words — and are passed by
// value throughout fit/predict paths. The index list is shared, never
// copied; callers must not mutate it after handing out a view.
type View struct {
	f   *Frame
	idx []int
}

// NewView builds a view of f restricted to the given frame-row indices.
// A nil idx yields the identity view.
func NewView(f *Frame, idx []int) View { return View{f: f, idx: idx} }

// Frame returns the backing frame.
func (v View) Frame() *Frame { return v.f }

// Indices returns the frame-row index list (nil for an identity view).
func (v View) Indices() []int { return v.idx }

// Contiguous reports whether the view is the identity view, i.e. column
// slices of the frame can be aliased directly in view order.
func (v View) Contiguous() bool { return v.idx == nil }

// Rows reports the number of instances in the view.
func (v View) Rows() int {
	if v.idx != nil {
		return len(v.idx)
	}
	if v.f == nil {
		return 0
	}
	return v.f.Rows()
}

// Features reports the number of attribute columns.
func (v View) Features() int {
	if v.f == nil {
		return 0
	}
	return v.f.Features()
}

// Classes reports the task's class count.
func (v View) Classes() int {
	if v.f == nil {
		return 0
	}
	return v.f.Classes
}

// Name reports the backing frame's dataset name.
func (v View) Name() string {
	if v.f == nil {
		return ""
	}
	return v.f.Name
}

// Kind reports the kind of feature j, defaulting to Numeric.
func (v View) Kind(j int) FeatureKind {
	if v.f == nil || v.f.Kinds == nil || j < 0 || j >= len(v.f.Kinds) {
		return Numeric
	}
	return v.f.Kinds[j]
}

// Kinds returns the frame's kind slice (nil means all-numeric).
func (v View) Kinds() []FeatureKind {
	if v.f == nil {
		return nil
	}
	return v.f.Kinds
}

// NumCategorical reports how many features are categorical.
func (v View) NumCategorical() int {
	n := 0
	for _, k := range v.Kinds() {
		if k == Categorical {
			n++
		}
	}
	return n
}

// RowIndex maps a view-local row to its frame row.
//
//greenlint:hotpath per-row indirection inside every ml kernel loop
func (v View) RowIndex(i int) int {
	if v.idx != nil {
		return v.idx[i]
	}
	return i
}

// At returns the value of feature j at view row i.
//
//greenlint:hotpath per-cell accessor inside every ml kernel loop
func (v View) At(i, j int) float64 {
	if v.idx != nil {
		return v.f.Cols[j][v.idx[i]]
	}
	return v.f.Cols[j][i]
}

// Label returns the class label of view row i.
//
//greenlint:hotpath per-row label fetch inside fit loops
func (v View) Label(i int) int {
	if v.idx != nil {
		return v.f.Y[v.idx[i]]
	}
	return v.f.Y[i]
}

// BlockSize is the row-block width the unrolled ml kernels consume:
// hot loops process rows eight at a time with an explicit remainder
// tail, matching the 8-wide unrolled accumulation in internal/ml.
const BlockSize = 8

// Blocks invokes fn(lo, hi) over consecutive row ranges of the view, at
// most size rows each, in ascending order; the final block carries the
// remainder. An empty view yields no calls. Block boundaries depend
// only on the row count, so per-block accumulations reduce in the same
// order no matter who executes the blocks.
//
//greenlint:hotpath block driver for the unrolled kernels; must not allocate per block
func (v View) Blocks(size int, fn func(lo, hi int)) {
	if size < 1 {
		size = BlockSize
	}
	n := v.Rows()
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		fn(lo, hi)
	}
}

// ColRange returns feature j's values for view rows [lo, hi) in view
// order. An identity view aliases the frame column's subslice without
// copying; a subset view gathers the range into dst (grown if needed).
// Callers must not mutate the result. This is the block-granular
// sibling of ColInto, sized for the unrolled kernels' working sets.
//
//greenlint:hotpath per-block column gather inside the unrolled kernels
func (v View) ColRange(j, lo, hi int, dst []float64) []float64 {
	col := v.f.Cols[j]
	if v.idx == nil {
		return col[lo:hi]
	}
	m := hi - lo
	if cap(dst) < m {
		//greenlint:allow hotalloc first-call grow of caller-owned scratch; amortized to zero across blocks
		dst = make([]float64, m)
	}
	dst = dst[:m]
	for i, r := range v.idx[lo:hi] {
		dst[i] = col[r]
	}
	return dst
}

// ColInto returns feature j's values in view order. An identity view
// aliases the frame column without copying; a subset view gathers into
// dst (grown if needed). Callers must not mutate the result.
func (v View) ColInto(j int, dst []float64) []float64 {
	col := v.f.Cols[j]
	if v.idx == nil {
		return col
	}
	if cap(dst) < len(v.idx) {
		dst = make([]float64, len(v.idx))
	}
	dst = dst[:len(v.idx)]
	for i, r := range v.idx {
		dst[i] = col[r]
	}
	return dst
}

// Col copies feature j's values in view order into a fresh slice.
func (v View) Col(j int) []float64 {
	if v.idx == nil {
		return append([]float64(nil), v.f.Cols[j]...)
	}
	return v.ColInto(j, make([]float64, len(v.idx)))
}

// LabelsInto returns the labels in view order. An identity view aliases
// the frame's label slice; a subset view gathers into dst. Callers must
// not mutate the result.
func (v View) LabelsInto(dst []int) []int {
	if v.idx == nil {
		return v.f.Y
	}
	if cap(dst) < len(v.idx) {
		dst = make([]int, len(v.idx))
	}
	dst = dst[:len(v.idx)]
	for i, r := range v.idx {
		dst[i] = v.f.Y[r]
	}
	return dst
}

// Row gathers view row i into dst (grown if needed) and returns it.
func (v View) Row(i int, dst []float64) []float64 {
	d := v.Features()
	if cap(dst) < d {
		dst = make([]float64, d)
	}
	dst = dst[:d]
	r := v.RowIndex(i)
	for j := 0; j < d; j++ {
		dst[j] = v.f.Cols[j][r]
	}
	return dst
}

// Head returns the view of the first n view rows (the view itself when
// n covers it). Used for probe batches.
func (v View) Head(n int) View {
	if n >= v.Rows() {
		return v
	}
	if v.idx != nil {
		return View{f: v.f, idx: v.idx[:n]}
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return View{f: v.f, idx: idx}
}

// Select returns the view of the given view-local rows. The returned
// view shares (and for subset views composes) index memory; idx must not
// be mutated afterwards.
func (v View) Select(idx []int) View {
	if v.idx == nil {
		return View{f: v.f, idx: idx}
	}
	out := make([]int, len(idx))
	for i, r := range idx {
		out[i] = v.idx[r]
	}
	return View{f: v.f, idx: out}
}

// Materialize gathers the view into a fresh contiguous frame. Used when
// code needs long-lived storage decoupled from the parent frame.
func (v View) Materialize() *Frame {
	n, d := v.Rows(), v.Features()
	f := NewFrame(v.Name(), n, d)
	f.Classes = v.Classes()
	f.Kinds = v.Kinds()
	for j := 0; j < d; j++ {
		col := v.f.Cols[j]
		dst := f.Cols[j]
		if v.idx == nil {
			copy(dst, col)
		} else {
			for i, r := range v.idx {
				dst[i] = col[r]
			}
		}
	}
	if v.f.Y != nil {
		f.Y = v.LabelsInto(make([]int, n))
	}
	return f
}

// Validate reports a descriptive error if the viewed data is malformed.
func (v View) Validate() error {
	if v.f == nil || v.Rows() == 0 {
		return errors.New("tabular: view has no rows")
	}
	if v.Features() == 0 {
		return errors.New("tabular: view has no features")
	}
	if len(v.f.Y) != v.f.Rows() {
		return fmt.Errorf("tabular: %d rows but %d labels", v.f.Rows(), len(v.f.Y))
	}
	if v.Classes() < 2 {
		return fmt.Errorf("tabular: need >= 2 classes, got %d", v.Classes())
	}
	if v.f.Kinds != nil && len(v.f.Kinds) != v.Features() {
		return fmt.Errorf("tabular: %d features but %d kinds", v.Features(), len(v.f.Kinds))
	}
	for j, col := range v.f.Cols {
		if len(col) != v.f.Rows() {
			return fmt.Errorf("tabular: column %d has %d rows, want %d", j, len(col), v.f.Rows())
		}
	}
	for i := 0; i < v.Rows(); i++ {
		if y := v.Label(i); y < 0 || y >= v.Classes() {
			return fmt.Errorf("tabular: label %d of row %d outside [0,%d)", y, i, v.Classes())
		}
	}
	return nil
}

// ClassCounts returns the number of viewed instances per class.
func (v View) ClassCounts() []int {
	counts := make([]int, v.Classes())
	for i, n := 0, v.Rows(); i < n; i++ {
		if y := v.Label(i); y >= 0 && y < len(counts) {
			counts[y]++
		}
	}
	return counts
}

// StratifiedSplit partitions the view into two parts where the first
// receives approximately `frac` of each class. The split is an index
// permutation — no feature data moves — and consumes the rng exactly as
// the historical matrix-copying split did, so fitted models and grid
// records replay bit-identically.
func (v View) StratifiedSplit(frac float64, rng *rand.Rand) (first, second View) {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	byClass := make([][]int, v.Classes())
	for i, n := 0, v.Rows(); i < n; i++ {
		y := v.Label(i)
		byClass[y] = append(byClass[y], i)
	}
	var firstIdx, secondIdx []int
	for _, members := range byClass {
		if len(members) == 0 {
			continue
		}
		perm := rng.Perm(len(members))
		n := int(math.Round(frac * float64(len(members))))
		if len(members) >= 2 {
			if n == 0 {
				n = 1
			}
			if n == len(members) {
				n = len(members) - 1
			}
		}
		for i, p := range perm {
			if i < n {
				firstIdx = append(firstIdx, members[p])
			} else {
				secondIdx = append(secondIdx, members[p])
			}
		}
	}
	shuffleInts(firstIdx, rng)
	shuffleInts(secondIdx, rng)
	return v.Select(firstIdx), v.Select(secondIdx)
}

// TrainTestSplit applies the paper's 66/34 split (§3.1).
func (v View) TrainTestSplit(rng *rand.Rand) (train, test View) {
	return v.StratifiedSplit(0.66, rng)
}

// Subsample returns a stratified sample of up to n rows. If n >= Rows
// the view itself is returned.
func (v View) Subsample(n int, rng *rand.Rand) View {
	if n >= v.Rows() {
		return v
	}
	if n < v.Classes() {
		n = v.Classes()
	}
	frac := float64(n) / float64(v.Rows())
	sample, _ := v.StratifiedSplit(frac, rng)
	return sample
}

// SubsamplePerClass returns a stratified sample with up to perClass rows
// of each class, preserving at least one row per present class.
func (v View) SubsamplePerClass(perClass int, rng *rand.Rand) View {
	if perClass < 1 {
		perClass = 1
	}
	byClass := make([][]int, v.Classes())
	for i, n := 0, v.Rows(); i < n; i++ {
		y := v.Label(i)
		byClass[y] = append(byClass[y], i)
	}
	var idx []int
	for _, members := range byClass {
		if len(members) == 0 {
			continue
		}
		perm := rng.Perm(len(members))
		n := perClass
		if n > len(members) {
			n = len(members)
		}
		for _, p := range perm[:n] {
			idx = append(idx, members[p])
		}
	}
	shuffleInts(idx, rng)
	return v.Select(idx)
}

// KFoldIndices returns k stratified folds as view-local row-index
// slices. k is clamped to [2, Rows].
func (v View) KFoldIndices(k int, rng *rand.Rand) [][]int {
	if k < 2 {
		k = 2
	}
	if k > v.Rows() {
		k = v.Rows()
	}
	folds := make([][]int, k)
	byClass := make([][]int, v.Classes())
	for i, n := 0, v.Rows(); i < n; i++ {
		y := v.Label(i)
		byClass[y] = append(byClass[y], i)
	}
	next := 0
	for _, members := range byClass {
		perm := rng.Perm(len(members))
		for _, p := range perm {
			folds[next%k] = append(folds[next%k], members[p])
			next++
		}
	}
	return folds
}

// KFold returns k stratified (train, validation) views for
// cross-validation (used by TPOT, paper §3.2 footnote 1). Folds are pure
// index permutations: no feature row is copied. k is clamped to
// [2, Rows].
func (v View) KFold(k int, rng *rand.Rand) (trains, vals []View) {
	folds := v.KFoldIndices(k, rng)
	k = len(folds)
	trains = make([]View, k)
	vals = make([]View, k)
	for f := 0; f < k; f++ {
		var trainIdx []int
		for g := 0; g < k; g++ {
			if g != f {
				trainIdx = append(trainIdx, folds[g]...)
			}
		}
		shuffleInts(trainIdx, rng)
		trains[f] = v.Select(trainIdx)
		vals[f] = v.Select(folds[f])
	}
	return trains, vals
}

// Bootstrap returns a view of Rows() instances sampled with replacement,
// as used by bagging.
func (v View) Bootstrap(rng *rand.Rand) View {
	idx := make([]int, v.Rows())
	for i := range idx {
		idx[i] = rng.IntN(v.Rows())
	}
	return v.Select(idx)
}

// Meta computes the viewed dataset's meta-features.
func (v View) Meta() MetaFeatures {
	m := MetaFeatures{
		LogRows:     math.Log(float64(max(v.Rows(), 1))),
		LogFeatures: math.Log(float64(max(v.Features(), 1))),
		LogClasses:  math.Log(float64(max(v.Classes(), 2))),
	}
	counts := v.ClassCounts()
	total := float64(v.Rows())
	minority := math.Inf(1)
	entropy := 0.0
	present := 0
	for _, c := range counts {
		if c == 0 {
			continue
		}
		present++
		p := float64(c) / total
		entropy -= p * math.Log(p)
		if float64(c) < minority {
			minority = float64(c)
		}
	}
	if present > 1 {
		m.ClassEntropy = entropy / math.Log(float64(present))
	}
	if total > 0 && !math.IsInf(minority, 1) {
		m.MinorityFrac = minority / total
	}
	if v.Features() > 0 {
		m.CategoricalFrac = float64(v.NumCategorical()) / float64(v.Features())
	}
	numNumeric := 0
	skewSum := 0.0
	for j := 0; j < v.Features(); j++ {
		if v.Kind(j) != Numeric {
			continue
		}
		numNumeric++
		skewSum += math.Abs(v.columnSkew(j))
	}
	if numNumeric > 0 {
		m.MeanAbsSkew = skewSum / float64(numNumeric)
	}
	return m
}

// columnSkew computes the skewness of feature j over the view's rows in
// view order — the same accumulation order as the historical row-major
// implementation, so meta-features (and the warm starts keyed on them)
// are bit-identical.
func (v View) columnSkew(j int) float64 {
	n := float64(v.Rows())
	if n < 3 {
		return 0
	}
	col := v.f.Cols[j]
	var mean float64
	for i, rows := 0, v.Rows(); i < rows; i++ {
		mean += col[v.RowIndex(i)]
	}
	mean /= n
	var m2, m3 float64
	for i, rows := 0, v.Rows(); i < rows; i++ {
		diff := col[v.RowIndex(i)] - mean
		m2 += diff * diff
		m3 += diff * diff * diff
	}
	m2 /= n
	m3 /= n
	if m2 < 1e-12 {
		return 0
	}
	return m3 / math.Pow(m2, 1.5)
}
