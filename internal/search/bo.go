// Package search implements the search strategies of the paper's AutoML
// systems: Bayesian optimization with a random-forest surrogate (ASKL,
// CAML), successive halving (CAML), NSGA-II genetic programming (TPOT),
// median pruning (the development-stage optimizer, §2.5), and k-means
// clustering (representative-dataset selection, §2.5).
package search

import (
	"math"
	"math/rand/v2"

	"repro/internal/ml"
	"repro/internal/pipeline"
	"repro/internal/tabular"
)

// Observation is one evaluated configuration with its score (higher is
// better).
type Observation struct {
	Config pipeline.Config
	Score  float64
}

// BO is Bayesian optimization over a pipeline configuration space using a
// random-forest surrogate and expected improvement — the strategy of
// auto-sklearn (SMAC-style) and CAML. The surrogate's own compute is
// returned from Suggest so callers can charge it to the energy meter: BO
// overhead is part of execution energy.
//
// BO works in encoded vector space: Observe encodes each configuration
// once into per-parameter history columns, and Suggest scores its
// candidate pool as raw value rows in buffers the BO owns and reuses
// across calls. Only the winning candidate becomes a Config. A BO is not
// safe for concurrent use.
type BO struct {
	// Space is the configuration space searched. It must not change
	// once the first configuration is observed.
	Space *pipeline.Space
	// Candidates is the number of random/mutated candidates scored per
	// suggestion (default 64).
	Candidates int
	// Xi is the expected-improvement exploration margin.
	Xi float64
	// MinObservations is the number of observations before the
	// surrogate takes over from random sampling (default 3).
	MinObservations int

	obs []Observation
	rng *rand.Rand

	// hist holds every observed configuration encoded, one column per
	// parameter, and scores their scores: the surrogate's training set.
	hist   *tabular.Frame
	scores []float64
	// The candidate pool, one row of len(Space.Params) per candidate:
	// raw values and which of them are set, as Space.Values reads them,
	// and pool, the same rows encoded column-major for the surrogate.
	raw  []float64
	set  []bool
	pool *tabular.Frame
}

// NewBO constructs a Bayesian optimizer over the space.
func NewBO(space *pipeline.Space, rng *rand.Rand) *BO {
	return &BO{
		Space: space, Candidates: 64, Xi: 0.01, MinObservations: 3, rng: rng,
		hist: &tabular.Frame{Cols: make([][]float64, len(space.Params))},
	}
}

// Observe records an evaluated configuration. It encodes cfg when it is
// called, so the caller must not mutate cfg afterwards.
func (b *BO) Observe(cfg pipeline.Config, score float64) {
	for j, p := range b.Space.Params {
		b.hist.Cols[j] = append(b.hist.Cols[j], p.Encode(cfg.Float(p.Name, p.Default)))
	}
	b.scores = append(b.scores, score)
	b.obs = append(b.obs, Observation{Config: cfg, Score: score})
}

// Observations returns the recorded history.
func (b *BO) Observations() []Observation { return b.obs }

// Best returns the best observation so far.
func (b *BO) Best() (Observation, bool) {
	if len(b.obs) == 0 {
		return Observation{}, false
	}
	best := b.obs[0]
	for _, o := range b.obs[1:] {
		if o.Score > best.Score {
			best = o
		}
	}
	return best, true
}

// Suggest proposes the next configuration to evaluate and reports the
// surrogate compute cost incurred. The returned config is always a fresh
// map the caller owns.
func (b *BO) Suggest() (pipeline.Config, ml.Cost) {
	if len(b.obs) < b.MinObservations {
		return b.Space.Sample(b.rng), ml.Cost{}
	}

	// Fit the surrogate on the history.
	surrogate := ml.NewForestRegressor(ml.ForestParams{
		Trees:     20,
		Bootstrap: true,
		Tree:      ml.TreeParams{MaxDepth: 12, MinSamplesLeaf: 1, MaxFeatures: 0.8},
	})
	cost, err := surrogate.FitReg(b.hist.All(), b.scores, b.rng)
	if err != nil {
		return b.Space.Sample(b.rng), cost
	}

	// Candidate pool: random samples plus local mutations of the best.
	n := max(b.Candidates, 4)
	best, _ := b.Best()
	b.drawPool(n, best.Config)
	mean, std, predCost := surrogate.PredictWithStd(b.pool.All())
	cost.Add(predCost)

	bestEI := math.Inf(-1)
	pick := 0
	for i := range n {
		ei := expectedImprovement(mean[i], std[i], best.Score, b.Xi)
		if ei > bestEI {
			bestEI = ei
			pick = i
		}
	}
	var base pipeline.Config
	if isMutation(pick) {
		base = best.Config
	}
	d := len(b.Space.Params)
	return b.Space.WithValues(base, b.raw[pick*d:(pick+1)*d], b.set[pick*d:(pick+1)*d]), cost
}

// isMutation reports whether pool candidate i mutates the best
// observation rather than sampling the space.
func isMutation(i int) bool { return i%3 == 0 }

// drawPool draws n candidates into the pool buffers, in candidate order:
// candidate i mutates best with strength 0.3 when isMutation(i) and
// samples the space otherwise. It then encodes the pool into b.pool.
func (b *BO) drawPool(n int, best pipeline.Config) {
	s := b.Space
	d := len(s.Params)
	if cap(b.raw) < (n+1)*d {
		b.raw, b.set = make([]float64, (n+1)*d), make([]bool, (n+1)*d)
	}
	raw, set := b.raw[:n*d], b.set[:n*d]
	// The row past the pool holds best's raw values, the base of every
	// mutated candidate.
	bestVals, bestSet := b.raw[n*d:(n+1)*d], b.set[n*d:(n+1)*d]
	s.Values(best, bestVals, bestSet)
	for i := range n {
		vals, vset := raw[i*d:(i+1)*d], set[i*d:(i+1)*d]
		if isMutation(i) {
			copy(vals, bestVals)
			copy(vset, bestSet)
			s.MutateInto(vals, vset, 0.3, b.rng)
		} else {
			s.SampleInto(vals, b.rng)
			for j := range vset {
				vset[j] = true
			}
		}
	}

	if b.pool == nil || b.pool.Rows() != n || b.pool.Features() != d {
		b.pool = tabular.NewFrame("", n, d)
	}
	for j, p := range s.Params {
		col := b.pool.Cols[j]
		for i := range col {
			v := p.Default
			if set[i*d+j] {
				v = raw[i*d+j]
			}
			col[i] = p.Encode(v)
		}
	}
}

// expectedImprovement computes EI for maximization.
func expectedImprovement(mu, sigma, best, xi float64) float64 {
	improvement := mu - best - xi
	if sigma < 1e-12 {
		if improvement > 0 {
			return improvement
		}
		return 0
	}
	z := improvement / sigma
	return improvement*stdNormCDF(z) + sigma*stdNormPDF(z)
}

func stdNormCDF(z float64) float64 { return 0.5 * math.Erfc(-z/math.Sqrt2) }

func stdNormPDF(z float64) float64 {
	return math.Exp(-0.5*z*z) / math.Sqrt(2*math.Pi)
}
