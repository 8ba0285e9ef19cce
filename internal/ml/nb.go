package ml

import (
	"math"
	"math/rand/v2"

	"repro/internal/tabular"
)

// GaussianNB is a Gaussian naive-Bayes classifier: per class and feature a
// univariate normal, combined under conditional independence. It is the
// cheapest model in the zoo for both stages, which is why cost-frugal
// searches start near it.
type GaussianNB struct {
	classes  int
	logPrior []float64
	mean     [][]float64 // [class][feature]
	variance [][]float64
	logNorm  []float64 // [class*features+feature]: 0.5*log(2π·variance)
}

// NewGaussianNB constructs a Gaussian naive-Bayes classifier.
func NewGaussianNB() *GaussianNB { return &GaussianNB{} }

// Fit implements Classifier. Moments are accumulated column-by-column
// over the view; each (class, feature) cell still sums its members in
// ascending row order, so the fitted parameters are bit-identical to the
// historical row-major pass.
func (g *GaussianNB) Fit(ds tabular.View, _ *rand.Rand) (Cost, error) {
	n, d, k := ds.Rows(), ds.Features(), ds.Classes()
	g.classes = k
	g.logPrior = make([]float64, k)
	g.mean = make([][]float64, k)     //greenlint:allow rowmajor per-class mean vectors - model parameters
	g.variance = make([][]float64, k) //greenlint:allow rowmajor per-class variance vectors - model parameters
	counts := make([]float64, k)
	for c := 0; c < k; c++ {
		g.mean[c] = make([]float64, d)
		g.variance[c] = make([]float64, d)
	}
	labels := ds.LabelsInto(nil)
	for _, c := range labels {
		counts[c]++
	}
	var colBuf []float64
	if !ds.Contiguous() {
		colBuf = make([]float64, n)
	}
	for j := 0; j < d; j++ {
		col := ds.ColInto(j, colBuf)
		for i, v := range col {
			g.mean[labels[i]][j] += v
		}
	}
	for c := 0; c < k; c++ {
		g.logPrior[c] = math.Log((counts[c] + 1) / (float64(n) + float64(k)))
		if counts[c] == 0 {
			continue
		}
		for j := range g.mean[c] {
			g.mean[c][j] /= counts[c]
		}
	}
	for j := 0; j < d; j++ {
		col := ds.ColInto(j, colBuf)
		for i, v := range col {
			c := labels[i]
			diff := v - g.mean[c][j]
			g.variance[c][j] += diff * diff
		}
	}
	for c := 0; c < k; c++ {
		for j := range g.variance[c] {
			if counts[c] > 0 {
				g.variance[c][j] /= counts[c]
			}
			if g.variance[c][j] < 1e-9 {
				g.variance[c][j] = 1e-9
			}
		}
	}
	g.logNorm = make([]float64, k*d)
	for c := 0; c < k; c++ {
		for j, v := range g.variance[c] {
			g.logNorm[c*d+j] = 0.5 * math.Log(2*math.Pi*v)
		}
	}
	return Cost{Generic: float64(n) * float64(d) * 4}, nil
}

// PredictProba implements Classifier.
func (g *GaussianNB) PredictProba(x tabular.View) ([][]float64, Cost) {
	m := x.Rows()
	if g.mean == nil {
		return uniformProba(m, max(g.classes, 2)), Cost{}
	}
	out := predictRows(x, g.classes, func(row, logp []float64) {
		for c := range logp {
			lp := g.logPrior[c]
			mean := g.mean[c]
			logNorm := g.logNorm[c*len(mean):]
			for j, v := range row {
				diff := v - mean[j]
				lp -= logNorm[j] + diff*diff/(2*g.variance[c][j])
			}
			logp[c] = lp
		}
		softmaxInPlace(logp)
	})
	return out, Cost{Generic: float64(m) * float64(x.Features()) * float64(g.classes) * 5}
}

// Clone implements Classifier.
func (g *GaussianNB) Clone() Classifier { return NewGaussianNB() }

// Name implements Classifier.
func (g *GaussianNB) Name() string { return "gaussian_nb" }

// ParallelFrac implements Classifier.
func (g *GaussianNB) ParallelFrac() float64 { return 0.5 }

// BernoulliNB is a Bernoulli naive-Bayes classifier over features binarized
// at their training means — the natural fit for one-hot and low-cardinality
// categorical inputs.
type BernoulliNB struct {
	// Alpha is the Laplace smoothing constant; 0 defaults to 1.
	Alpha      float64
	classes    int
	logPrior   []float64
	thresholds []float64
	logP       [][]float64 // log P(x_j=1 | class)
	logQ       [][]float64 // log P(x_j=0 | class)
}

// NewBernoulliNB constructs a Bernoulli naive-Bayes classifier.
func NewBernoulliNB(alpha float64) *BernoulliNB { return &BernoulliNB{Alpha: alpha} }

// Fit implements Classifier.
func (b *BernoulliNB) Fit(ds tabular.View, _ *rand.Rand) (Cost, error) {
	alpha := b.Alpha
	if alpha <= 0 {
		alpha = 1
	}
	n, d, k := ds.Rows(), ds.Features(), ds.Classes()
	b.classes = k
	b.thresholds = make([]float64, d)
	labels := ds.LabelsInto(nil)
	counts := make([]float64, k)
	for _, c := range labels {
		counts[c]++
	}
	ones := make([][]float64, k) //greenlint:allow rowmajor per-class feature-count vectors - model parameters
	for c := range ones {
		ones[c] = make([]float64, d)
	}
	var colBuf []float64
	if !ds.Contiguous() {
		colBuf = make([]float64, n)
	}
	for j := 0; j < d; j++ {
		col := ds.ColInto(j, colBuf)
		var sum float64
		for _, v := range col {
			sum += v
		}
		b.thresholds[j] = sum / float64(n)
		for i, v := range col {
			if v > b.thresholds[j] {
				ones[labels[i]][j]++
			}
		}
	}
	b.logPrior = make([]float64, k)
	b.logP = make([][]float64, k) //greenlint:allow rowmajor per-class log-probability table - model parameters
	b.logQ = make([][]float64, k) //greenlint:allow rowmajor per-class log-probability table - model parameters
	for c := 0; c < k; c++ {
		b.logPrior[c] = math.Log((counts[c] + 1) / (float64(n) + float64(k)))
		b.logP[c] = make([]float64, d)
		b.logQ[c] = make([]float64, d)
		for j := 0; j < d; j++ {
			p := (ones[c][j] + alpha) / (counts[c] + 2*alpha)
			b.logP[c][j] = math.Log(p)
			b.logQ[c][j] = math.Log(1 - p)
		}
	}
	return Cost{Generic: float64(n) * float64(d) * 3}, nil
}

// PredictProba implements Classifier.
func (b *BernoulliNB) PredictProba(x tabular.View) ([][]float64, Cost) {
	m := x.Rows()
	if b.logP == nil {
		return uniformProba(m, max(b.classes, 2)), Cost{}
	}
	d := len(b.thresholds)
	out := predictRows(x, b.classes, func(row, logp []float64) {
		for c := range logp {
			lp := b.logPrior[c]
			for j, v := range row {
				if j >= d {
					break
				}
				if v > b.thresholds[j] {
					lp += b.logP[c][j]
				} else {
					lp += b.logQ[c][j]
				}
			}
			logp[c] = lp
		}
		softmaxInPlace(logp)
	})
	return out, Cost{Generic: float64(m) * float64(d) * float64(b.classes) * 2}
}

// Clone implements Classifier.
func (b *BernoulliNB) Clone() Classifier { return NewBernoulliNB(b.Alpha) }

// Name implements Classifier.
func (b *BernoulliNB) Name() string { return "bernoulli_nb" }

// ParallelFrac implements Classifier.
func (b *BernoulliNB) ParallelFrac() float64 { return 0.5 }
