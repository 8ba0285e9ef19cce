// Package preprocess implements the data and feature preprocessors the
// AutoML search spaces contain.
//
// The paper's systems (Table 1) search over scikit-learn-style data
// preprocessors (imputation, scaling, encoding) and feature preprocessors
// (selection, projection). Transformers here follow the fit/transform
// contract: FitTransform learns statistics on training data and returns the
// transformed view; Transform applies the learned statistics to new data
// (validation/test), never re-fitting — the split hygiene the paper's
// systems rely on. Like the models, every operation reports its FLOP cost.
//
// Transforms are column-wise over the input view and write into pooled
// output frames (tabular.NewPooledFrame), so per-call outputs recycle
// memory instead of churning the allocator. The returned view is the
// identity view of a frame the CALLER owns. The ownership rule has no
// exceptions: the pipeline releases every frame it creates, each one as
// soon as the next stage or the model has consumed it, and no model
// keeps a reference into its training frame's float columns, the only
// pooled part of a frame (see DESIGN.md "Data layout"). Identity passes
// its input through unchanged, so callers must never release a stage
// output that is the stage input.
package preprocess

import (
	"errors"
	"math"
	"math/rand/v2"
	"sort"

	"repro/internal/ml"
	"repro/internal/tabular"
)

// Transformer is a fitted-statistics feature transformer.
type Transformer interface {
	// FitTransform learns from ds and returns the transformed view
	// (always all-numeric) plus the compute cost.
	FitTransform(ds tabular.View, rng *rand.Rand) (tabular.View, ml.Cost, error)
	// Transform applies learned statistics to new data.
	Transform(x tabular.View) (tabular.View, ml.Cost)
	// Name identifies the transformer.
	Name() string
}

// outputFrame allocates a pooled all-numeric output frame shaped
// rows(src) × features, carrying over the source's name, class count and
// (when present) labels in view order.
func outputFrame(src tabular.View, features int) *tabular.Frame {
	f := tabular.NewPooledFrame(src.Name(), src.Rows(), features)
	f.Classes = src.Classes()
	if sf := src.Frame(); sf != nil && sf.Y != nil {
		f.Y = src.LabelsInto(nil)
	}
	return f
}

// gatherCol copies feature j of x into dst in view order. Unlike ColInto,
// the result is always dst (never an alias of the frame column), so it is
// safe to transform in place.
func gatherCol(x tabular.View, j int, dst []float64) {
	col := x.ColInto(j, dst)
	if x.Contiguous() {
		copy(dst, col)
	}
}

// Identity passes data through unchanged (the "no preprocessor" choice in
// a search space).
type Identity struct{}

// FitTransform implements Transformer.
func (Identity) FitTransform(ds tabular.View, _ *rand.Rand) (tabular.View, ml.Cost, error) {
	return ds, ml.Cost{}, nil
}

// Transform implements Transformer.
func (Identity) Transform(x tabular.View) (tabular.View, ml.Cost) { return x, ml.Cost{} }

// Name implements Transformer.
func (Identity) Name() string { return "identity" }

// Imputer replaces NaN cells with the column mean (or median) learned on
// the training data.
type Imputer struct {
	// Median selects median imputation instead of mean.
	Median bool
	fill   []float64
}

// FitTransform implements Transformer.
func (im *Imputer) FitTransform(ds tabular.View, _ *rand.Rand) (tabular.View, ml.Cost, error) {
	n, d := ds.Rows(), ds.Features()
	im.fill = make([]float64, d)
	var colBuf []float64
	if !ds.Contiguous() {
		colBuf = make([]float64, n)
	}
	// One buffer holds each column's non-NaN values in turn.
	values := make([]float64, 0, n)
	for j := 0; j < d; j++ {
		col := ds.ColInto(j, colBuf)
		values = values[:0]
		for _, v := range col {
			if !math.IsNaN(v) {
				values = append(values, v)
			}
		}
		if len(values) == 0 {
			im.fill[j] = 0
			continue
		}
		if im.Median {
			sort.Float64s(values)
			im.fill[j] = values[len(values)/2]
		} else {
			var sum float64
			for _, v := range values {
				sum += v
			}
			im.fill[j] = sum / float64(len(values))
		}
	}
	out, cost := im.Transform(ds)
	cost.Generic += float64(n * d)
	return out, cost, nil
}

// Transform implements Transformer.
func (im *Imputer) Transform(x tabular.View) (tabular.View, ml.Cost) {
	n, d := x.Rows(), x.Features()
	out := outputFrame(x, d)
	for j := 0; j < d; j++ {
		dst := out.Cols[j]
		gatherCol(x, j, dst)
		if j < len(im.fill) {
			for i, v := range dst {
				if math.IsNaN(v) {
					dst[i] = im.fill[j]
				}
			}
		}
	}
	return out.All(), ml.Cost{Generic: float64(n * d)}
}

// Name implements Transformer.
func (im *Imputer) Name() string {
	if im.Median {
		return "imputer(median)"
	}
	return "imputer(mean)"
}

// affine is the scalers' learned per-column map v ↦ (v − center[j]) /
// scale[j]. Each scaler embeds it for its Transform and learns only the
// two vectors in its FitTransform.
type affine struct {
	center, scale []float64
}

// Transform implements Transformer. Columns beyond the fitted width pass
// through unchanged.
func (a *affine) Transform(x tabular.View) (tabular.View, ml.Cost) {
	n, d := x.Rows(), x.Features()
	out := outputFrame(x, d)
	for j := 0; j < d; j++ {
		dst := out.Cols[j]
		gatherCol(x, j, dst)
		if j < len(a.center) {
			center, scale := a.center[j], a.scale[j]
			for i, v := range dst {
				dst[i] = (v - center) / scale
			}
		}
	}
	return out.All(), ml.Cost{Generic: float64(2 * n * d)}
}

// StandardScaler standardizes numeric columns to zero mean and unit
// variance. Categorical code columns are scaled too; encoders should run
// first when that matters.
type StandardScaler struct {
	affine // center is the mean, scale the standard deviation
}

// FitTransform implements Transformer. Moments accumulate column by
// column; each column still sums its rows in ascending view order, so the
// learned statistics match the historical row-major pass bit for bit.
func (s *StandardScaler) FitTransform(ds tabular.View, _ *rand.Rand) (tabular.View, ml.Cost, error) {
	n, d := ds.Rows(), ds.Features()
	mean, std := make([]float64, d), make([]float64, d)
	var colBuf []float64
	if !ds.Contiguous() {
		colBuf = make([]float64, n)
	}
	for j := 0; j < d; j++ {
		col := ds.ColInto(j, colBuf)
		for _, v := range col {
			mean[j] += v
		}
		mean[j] /= float64(n)
		for _, v := range col {
			diff := v - mean[j]
			std[j] += diff * diff
		}
		std[j] = math.Sqrt(std[j] / float64(n))
		if std[j] < 1e-9 {
			std[j] = 1
		}
	}
	s.affine = affine{center: mean, scale: std}
	out, cost := s.Transform(ds)
	cost.Generic += float64(2 * n * d)
	return out, cost, nil
}

// Name implements Transformer.
func (s *StandardScaler) Name() string { return "standard_scaler" }

// MinMaxScaler rescales each column to [0, 1] using training min/max.
type MinMaxScaler struct {
	affine // center is the minimum, scale the span
}

// FitTransform implements Transformer.
func (s *MinMaxScaler) FitTransform(ds tabular.View, _ *rand.Rand) (tabular.View, ml.Cost, error) {
	n, d := ds.Rows(), ds.Features()
	lows, spans := make([]float64, d), make([]float64, d)
	var colBuf []float64
	if !ds.Contiguous() {
		colBuf = make([]float64, n)
	}
	for j := 0; j < d; j++ {
		col := ds.ColInto(j, colBuf)
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range col {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		lows[j] = lo
		spans[j] = hi - lo
		if spans[j] < 1e-12 {
			spans[j] = 1
		}
	}
	s.affine = affine{center: lows, scale: spans}
	out, cost := s.Transform(ds)
	cost.Generic += float64(n * d)
	return out, cost, nil
}

// Name implements Transformer.
func (s *MinMaxScaler) Name() string { return "minmax_scaler" }

// RobustScaler centers by the median and scales by the interquartile range,
// learned on training data.
type RobustScaler struct {
	affine
}

// FitTransform implements Transformer.
func (s *RobustScaler) FitTransform(ds tabular.View, _ *rand.Rand) (tabular.View, ml.Cost, error) {
	n, d := ds.Rows(), ds.Features()
	s.center = make([]float64, d)
	s.scale = make([]float64, d)
	col := make([]float64, n)
	for j := 0; j < d; j++ {
		gatherCol(ds, j, col)
		sort.Float64s(col)
		s.center[j] = col[n/2]
		iqr := col[(3*n)/4] - col[n/4]
		if iqr < 1e-12 {
			iqr = 1
		}
		s.scale[j] = iqr
	}
	out, cost := s.Transform(ds)
	cost.Generic += float64(n*d) * math.Log2(float64(n)+2)
	return out, cost, nil
}

// Name implements Transformer.
func (s *RobustScaler) Name() string { return "robust_scaler" }

// OneHotEncoder expands categorical columns into indicator columns; numeric
// columns pass through. Categories unseen at fit time map to all-zeros.
type OneHotEncoder struct {
	// MaxCategories caps the expansion per column (0 means 16); columns
	// above the cap are passed through as ordinal codes.
	MaxCategories int
	catCols       []int
	categories    [][]float64 // sorted distinct codes per encoded column
	inputWidth    int
}

// FitTransform implements Transformer.
func (e *OneHotEncoder) FitTransform(ds tabular.View, _ *rand.Rand) (tabular.View, ml.Cost, error) {
	cap := e.MaxCategories
	if cap <= 0 {
		cap = 16
	}
	n, d := ds.Rows(), ds.Features()
	e.inputWidth = d
	e.catCols = e.catCols[:0]
	e.categories = e.categories[:0]
	var colBuf []float64
	if !ds.Contiguous() {
		colBuf = make([]float64, n)
	}
	for j := 0; j < d; j++ {
		if ds.Kind(j) != tabular.Categorical {
			continue
		}
		col := ds.ColInto(j, colBuf)
		seen := map[float64]bool{}
		for _, v := range col {
			seen[v] = true
		}
		if len(seen) > cap {
			continue
		}
		cats := make([]float64, 0, len(seen))
		for v := range seen {
			cats = append(cats, v)
		}
		sort.Float64s(cats)
		e.catCols = append(e.catCols, j)
		e.categories = append(e.categories, cats)
	}
	out, cost := e.Transform(ds)
	cost.Generic += float64(n * d)
	return out, cost, nil
}

// Transform implements Transformer.
func (e *OneHotEncoder) Transform(x tabular.View) (tabular.View, ml.Cost) {
	isCat := make(map[int]int, len(e.catCols)) // column -> index into categories
	for idx, j := range e.catCols {
		isCat[j] = idx
	}
	n, d := x.Rows(), x.Features()
	width := 0
	for j := 0; j < d; j++ {
		if idx, ok := isCat[j]; ok && j < e.inputWidth {
			width += len(e.categories[idx])
		} else {
			width++
		}
	}
	out := outputFrame(x, width)
	var colBuf []float64
	if !x.Contiguous() {
		colBuf = make([]float64, n)
	}
	at := 0
	for j := 0; j < d; j++ {
		col := x.ColInto(j, colBuf)
		if idx, ok := isCat[j]; ok && j < e.inputWidth {
			cats := e.categories[idx]
			// Indicator columns start all-zero; set the matching one.
			for i, v := range col {
				pos := sort.SearchFloat64s(cats, v)
				if pos < len(cats) && cats[pos] == v {
					out.Cols[at+pos][i] = 1
				}
			}
			at += len(cats)
		} else {
			copy(out.Cols[at], col)
			at++
		}
	}
	return out.All(), ml.Cost{Generic: float64(n * (width + 4))}
}

// Name implements Transformer.
func (e *OneHotEncoder) Name() string { return "one_hot" }

// VarianceThreshold drops columns whose training variance falls below the
// threshold.
type VarianceThreshold struct {
	// Threshold is the minimum variance to keep a column.
	Threshold float64
	keep      []int
	width     int
}

// FitTransform implements Transformer.
func (v *VarianceThreshold) FitTransform(ds tabular.View, _ *rand.Rand) (tabular.View, ml.Cost, error) {
	n, d := ds.Rows(), ds.Features()
	v.width = d
	v.keep = v.keep[:0]
	var colBuf []float64
	if !ds.Contiguous() {
		colBuf = make([]float64, n)
	}
	for j := 0; j < d; j++ {
		col := ds.ColInto(j, colBuf)
		var sum, sumSq float64
		for _, val := range col {
			sum += val
			sumSq += val * val
		}
		mean := sum / float64(n)
		variance := sumSq/float64(n) - mean*mean
		if variance > v.Threshold {
			v.keep = append(v.keep, j)
		}
	}
	if len(v.keep) == 0 {
		// Keep at least one column so downstream models stay valid.
		v.keep = []int{0}
	}
	out, cost := v.Transform(ds)
	cost.Generic += float64(2 * n * d)
	return out, cost, nil
}

// Transform implements Transformer.
func (v *VarianceThreshold) Transform(x tabular.View) (tabular.View, ml.Cost) {
	n, d := x.Rows(), x.Features()
	out := outputFrame(x, len(v.keep))
	for t, j := range v.keep {
		if j < d {
			gatherCol(x, j, out.Cols[t])
		}
	}
	return out.All(), ml.Cost{Generic: float64(n * len(v.keep))}
}

// Name implements Transformer.
func (v *VarianceThreshold) Name() string { return "variance_threshold" }

// SelectKBest keeps the K columns with the highest ANOVA F-score against
// the class label.
type SelectKBest struct {
	// K is the number of columns kept; 0 keeps half.
	K    int
	keep []int
}

// FitTransform implements Transformer.
func (s *SelectKBest) FitTransform(ds tabular.View, _ *rand.Rand) (tabular.View, ml.Cost, error) {
	n, d := ds.Rows(), ds.Features()
	if n == 0 || d == 0 {
		return tabular.View{}, ml.Cost{}, errors.New("preprocess: select_k_best on empty data")
	}
	k := s.K
	if k <= 0 {
		k = (d + 1) / 2
	}
	if k > d {
		k = d
	}
	type scored struct {
		j     int
		score float64
	}
	labels := ds.LabelsInto(nil)
	var colBuf []float64
	if !ds.Contiguous() {
		colBuf = make([]float64, n)
	}
	scores := make([]scored, d)
	for j := 0; j < d; j++ {
		col := ds.ColInto(j, colBuf)
		scores[j] = scored{j: j, score: fScore(col, labels, ds.Classes())}
	}
	sort.Slice(scores, func(a, b int) bool { return scores[a].score > scores[b].score })
	s.keep = make([]int, k)
	for t := 0; t < k; t++ {
		s.keep[t] = scores[t].j
	}
	sort.Ints(s.keep)
	out, cost := s.Transform(ds)
	cost.Generic += float64(3*n*d) + float64(d)*math.Log2(float64(d)+2)
	return out, cost, nil
}

// fScore computes the one-way ANOVA F statistic of one feature column
// against the class labels.
func fScore(col []float64, labels []int, k int) float64 {
	n := float64(len(col))
	sums := make([]float64, k)
	sumSqs := make([]float64, k)
	counts := make([]float64, k)
	var total float64
	for i, v := range col {
		c := labels[i]
		sums[c] += v
		sumSqs[c] += v * v
		counts[c]++
		total += v
	}
	grand := total / n
	var between, within float64
	groups := 0
	for c := 0; c < k; c++ {
		if counts[c] == 0 {
			continue
		}
		groups++
		mean := sums[c] / counts[c]
		between += counts[c] * (mean - grand) * (mean - grand)
		within += sumSqs[c] - counts[c]*mean*mean
	}
	if groups < 2 || within < 1e-12 || n <= float64(groups) {
		return 0
	}
	return (between / float64(groups-1)) / (within / (n - float64(groups)))
}

// Transform implements Transformer.
func (s *SelectKBest) Transform(x tabular.View) (tabular.View, ml.Cost) {
	n, d := x.Rows(), x.Features()
	out := outputFrame(x, len(s.keep))
	for t, j := range s.keep {
		if j < d {
			gatherCol(x, j, out.Cols[t])
		}
	}
	return out.All(), ml.Cost{Generic: float64(n * len(s.keep))}
}

// Name implements Transformer.
func (s *SelectKBest) Name() string { return "select_k_best" }

// PCA projects onto the top-K principal components, computed by power
// iteration with deflation on the training covariance.
type PCA struct {
	// K is the number of components; 0 keeps min(8, d).
	K          int
	components [][]float64
	mean       []float64
}

// FitTransform implements Transformer. The covariance accumulates column
// pair by column pair, each cell summing rows in ascending view order, so
// the learned components — and the RNG draws seeding the power iteration —
// match the historical row-major pass exactly.
func (p *PCA) FitTransform(ds tabular.View, rng *rand.Rand) (tabular.View, ml.Cost, error) {
	n, d := ds.Rows(), ds.Features()
	k := p.K
	if k <= 0 {
		k = 8
	}
	if k > d {
		k = d
	}
	// Resolve working columns once: frame aliases for identity views,
	// one arena gather for subset views.
	cols := make([][]float64, d)
	var arena []float64
	if !ds.Contiguous() {
		arena = make([]float64, n*d)
	}
	for j := 0; j < d; j++ {
		var dst []float64
		if arena != nil {
			dst = arena[j*n : (j+1)*n : (j+1)*n]
		}
		cols[j] = ds.ColInto(j, dst)
	}
	p.mean = make([]float64, d)
	for j := 0; j < d; j++ {
		for _, v := range cols[j] {
			p.mean[j] += v
		}
		p.mean[j] /= float64(n)
	}
	// Covariance matrix.
	cov := make([][]float64, d)
	for a := range cov {
		cov[a] = make([]float64, d)
	}
	for a := 0; a < d; a++ {
		colA, meanA := cols[a], p.mean[a]
		for b := a; b < d; b++ {
			colB, meanB := cols[b], p.mean[b]
			var sum float64
			for i := 0; i < n; i++ {
				sum += (colA[i] - meanA) * (colB[i] - meanB)
			}
			cov[a][b] = sum
		}
	}
	for a := 0; a < d; a++ {
		for b := a; b < d; b++ {
			cov[a][b] /= float64(n)
			cov[b][a] = cov[a][b]
		}
	}
	const iters = 30
	p.components = make([][]float64, 0, k)
	// The power iteration double-buffers vec with spare. Each component
	// keeps the buffer vec holds when it ends, and spare is never one of
	// them.
	spare := make([]float64, d)
	for c := 0; c < k; c++ {
		vec := make([]float64, d)
		for j := range vec {
			vec[j] = rng.NormFloat64()
		}
		for it := 0; it < iters; it++ {
			next := spare
			for a := 0; a < d; a++ {
				var sum float64
				for b := 0; b < d; b++ {
					sum += cov[a][b] * vec[b]
				}
				next[a] = sum
			}
			norm := vecNorm(next)
			if norm < 1e-12 {
				break
			}
			for j := range next {
				next[j] /= norm
			}
			vec, spare = next, vec
		}
		// Deflate.
		lambda := rayleigh(cov, vec)
		for a := 0; a < d; a++ {
			for b := 0; b < d; b++ {
				cov[a][b] -= lambda * vec[a] * vec[b]
			}
		}
		p.components = append(p.components, vec)
	}
	out, cost := p.Transform(ds)
	cost.Matrix += float64(n*d*d) + float64(k*iters*d*d)
	return out, cost, nil
}

func vecNorm(v []float64) float64 {
	var sum float64
	for _, x := range v {
		sum += x * x
	}
	return math.Sqrt(sum)
}

func rayleigh(m [][]float64, v []float64) float64 {
	var num float64
	for a := range m {
		var sum float64
		for b := range m[a] {
			sum += m[a][b] * v[b]
		}
		num += v[a] * sum
	}
	return num
}

// Transform implements Transformer. Projections accumulate feature by
// feature into the output columns; each output cell still sums features in
// ascending order, bit-identical to the historical per-row dot products.
func (p *PCA) Transform(x tabular.View) (tabular.View, ml.Cost) {
	n, d := x.Rows(), x.Features()
	out := outputFrame(x, len(p.components))
	var colBuf []float64
	if !x.Contiguous() {
		colBuf = make([]float64, n)
	}
	for j := 0; j < d; j++ {
		if j >= len(p.mean) {
			break
		}
		col := x.ColInto(j, colBuf)
		mj := p.mean[j]
		for c, comp := range p.components {
			dst := out.Cols[c]
			coeff := comp[j]
			for i, v := range col {
				dst[i] += (v - mj) * coeff
			}
		}
	}
	return out.All(), ml.Cost{Matrix: float64(2 * n * len(p.components) * d)}
}

// Name implements Transformer.
func (p *PCA) Name() string { return "pca" }
