package search

import (
	"bytes"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/ml"
	"repro/internal/pipeline"
	"repro/internal/tabular"
)

// referenceBO is the map-based BO that BO replaced, kept as a test
// oracle: every call re-encodes the whole history and builds every
// candidate as a Config. Its Sample, Vector and Mutate are the map-based
// Space methods of the same era, so the oracle shares no draw or encode
// code with the implementation it checks.
type referenceBO struct {
	space           *pipeline.Space
	candidates      int
	xi              float64
	minObservations int
	obs             []Observation
	rng             *rand.Rand
}

func (b *referenceBO) observe(cfg pipeline.Config, score float64) {
	b.obs = append(b.obs, Observation{Config: cfg, Score: score})
}

func (b *referenceBO) best() Observation {
	best := b.obs[0]
	for _, o := range b.obs[1:] {
		if o.Score > best.Score {
			best = o
		}
	}
	return best
}

func (b *referenceBO) suggest() (pipeline.Config, ml.Cost) {
	if len(b.obs) < b.minObservations {
		return referenceSample(b.space, b.rng), ml.Cost{}
	}
	xs := make([][]float64, len(b.obs))
	ys := make([]float64, len(b.obs))
	for i, o := range b.obs {
		xs[i] = referenceVector(b.space, o.Config)
		ys[i] = o.Score
	}
	surrogate := ml.NewForestRegressor(ml.ForestParams{
		Trees:     20,
		Bootstrap: true,
		Tree:      ml.TreeParams{MaxDepth: 12, MinSamplesLeaf: 1, MaxFeatures: 0.8},
	})
	cost, err := surrogate.FitReg(tabular.FromRows(xs), ys, b.rng)
	if err != nil {
		return referenceSample(b.space, b.rng), cost
	}
	n := b.candidates
	if n < 4 {
		n = 4
	}
	candidates := make([]pipeline.Config, 0, n)
	best := b.best()
	for i := 0; i < n; i++ {
		if i%3 == 0 {
			candidates = append(candidates, referenceMutate(b.space, best.Config, 0.3, b.rng))
		} else {
			candidates = append(candidates, referenceSample(b.space, b.rng))
		}
	}
	vecs := make([][]float64, len(candidates))
	for i, c := range candidates {
		vecs[i] = referenceVector(b.space, c)
	}
	mean, std, predCost := surrogate.PredictWithStd(tabular.FromRows(vecs))
	cost.Add(predCost)
	bestEI := math.Inf(-1)
	pick := 0
	for i := range candidates {
		ei := expectedImprovement(mean[i], std[i], best.Score, b.xi)
		if ei > bestEI {
			bestEI = ei
			pick = i
		}
	}
	return candidates[pick], cost
}

func referenceSample(s *pipeline.Space, rng *rand.Rand) pipeline.Config {
	cfg := make(pipeline.Config, len(s.Params))
	for _, p := range s.Params {
		cfg[p.Name] = referenceSampleParam(p, rng)
	}
	return cfg
}

func referenceSampleParam(p pipeline.Param, rng *rand.Rand) float64 {
	switch p.Kind {
	case pipeline.Float:
		return referenceSampleRange(p, rng)
	case pipeline.Int:
		return math.Round(referenceSampleRange(p, rng))
	case pipeline.Bool:
		return float64(rng.IntN(2))
	case pipeline.Choice:
		if len(p.Choices) == 0 {
			return 0
		}
		return float64(rng.IntN(len(p.Choices)))
	default:
		return p.Default
	}
}

func referenceSampleRange(p pipeline.Param, rng *rand.Rand) float64 {
	if p.Max <= p.Min {
		return p.Min
	}
	if p.Log && p.Min > 0 {
		lo, hi := math.Log(p.Min), math.Log(p.Max)
		return math.Exp(lo + rng.Float64()*(hi-lo))
	}
	return p.Min + rng.Float64()*(p.Max-p.Min)
}

func referenceVector(s *pipeline.Space, cfg pipeline.Config) []float64 {
	vec := make([]float64, len(s.Params))
	for i, p := range s.Params {
		v, ok := cfg[p.Name]
		if !ok {
			v = p.Default
		}
		switch p.Kind {
		case pipeline.Float, pipeline.Int:
			if p.Max <= p.Min {
				vec[i] = 0
			} else if p.Log && p.Min > 0 {
				vec[i] = (math.Log(referenceClamp(v, p.Min, p.Max)) - math.Log(p.Min)) / (math.Log(p.Max) - math.Log(p.Min))
			} else {
				vec[i] = (referenceClamp(v, p.Min, p.Max) - p.Min) / (p.Max - p.Min)
			}
		case pipeline.Bool:
			if v >= 0.5 {
				vec[i] = 1
			}
		case pipeline.Choice:
			if len(p.Choices) > 1 {
				vec[i] = referenceClamp(v, 0, float64(len(p.Choices)-1)) / float64(len(p.Choices)-1)
			}
		}
	}
	return vec
}

func referenceMutate(s *pipeline.Space, cfg pipeline.Config, strength float64, rng *rand.Rand) pipeline.Config {
	out := cfg.Clone()
	changed := false
	for _, p := range s.Params {
		if rng.Float64() > strength {
			continue
		}
		v := referencePerturbParam(p, out[p.Name], rng)
		if v != out[p.Name] {
			changed = true
		}
		out[p.Name] = v
	}
	for attempts := 0; !changed && len(s.Params) > 0 && attempts < 32; attempts++ {
		p := s.Params[rng.IntN(len(s.Params))]
		v := referencePerturbParam(p, out[p.Name], rng)
		if v != out[p.Name] {
			out[p.Name] = v
			changed = true
		}
	}
	return out
}

func referencePerturbParam(p pipeline.Param, cur float64, rng *rand.Rand) float64 {
	switch p.Kind {
	case pipeline.Float, pipeline.Int:
		if p.Max <= p.Min {
			return p.Min
		}
		var v float64
		if p.Log && p.Min > 0 {
			span := math.Log(p.Max) - math.Log(p.Min)
			v = math.Exp(math.Log(referenceClamp(cur, p.Min, p.Max)) + 0.2*span*rng.NormFloat64())
		} else {
			span := p.Max - p.Min
			v = cur + 0.2*span*rng.NormFloat64()
		}
		v = referenceClamp(v, p.Min, p.Max)
		if p.Kind == pipeline.Int {
			v = math.Round(v)
		}
		return v
	case pipeline.Bool:
		return float64(rng.IntN(2))
	case pipeline.Choice:
		if len(p.Choices) == 0 {
			return 0
		}
		return float64(rng.IntN(len(p.Choices)))
	default:
		return cur
	}
}

func referenceClamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// referenceSpaces are the spaces the equivalence rail drives: ASKL's full
// space, CAML's default space and the two-parameter test space.
func referenceSpaces(t *testing.T) []namedSpace {
	t.Helper()
	full, err := pipeline.FullSpec().Space()
	if err != nil {
		t.Fatal(err)
	}
	caml, err := pipeline.SpaceSpec{Models: pipeline.AllModels(), DataPreprocessors: true}.Space()
	if err != nil {
		t.Fatal(err)
	}
	return []namedSpace{{"full", full}, {"caml", caml}, {"quad", quadSpace()}}
}

type namedSpace struct {
	name  string
	space *pipeline.Space
}

// historyConfig draws one observed configuration of the kinds the AutoML
// systems feed BO: a full sample, a sample lacking some parameters, a
// Preset whose overrides carry keys outside the space and values outside
// the ranges, an empty config, and a mutation.
func historyConfig(s *pipeline.Space, r *rand.Rand) pipeline.Config {
	switch r.IntN(5) {
	case 0:
		return referenceSample(s, r)
	case 1:
		cfg := referenceSample(s, r)
		for _, p := range s.Params {
			if r.IntN(3) == 0 {
				delete(cfg, p.Name)
			}
		}
		return cfg
	case 2:
		overrides := pipeline.Config{"extra.knob": r.NormFloat64(), "extra.flag": 1}
		for _, p := range s.Params {
			if r.IntN(4) == 0 {
				overrides[p.Name] = p.Min - 1 + (p.Max-p.Min+2)*r.Float64()
			}
		}
		return s.Preset("rf", overrides)
	case 3:
		return pipeline.Config{}
	default:
		return referenceMutate(s, referenceSample(s, r), 0.3, r)
	}
}

// TestBOSuggestMatchesReference drives BO and the map-based reference
// over seeded histories on three spaces and checks, after every Suggest,
// that both return the same config (same keys, bit-equal values), the
// same Cost and leave the RNG in the same state.
func TestBOSuggestMatchesReference(t *testing.T) {
	histories := 0
	for _, ns := range referenceSpaces(t) {
		name, space := ns.name, ns.space
		for seed := uint64(0); seed < 70; seed++ {
			histories++
			r := rand.New(rand.NewPCG(seed, 0xb0))
			pa, pb := rand.NewPCG(seed, 0xb1), rand.NewPCG(seed, 0xb1)
			bo := NewBO(space, rand.New(pa))
			bo.Candidates = []int{1, 7, 64}[seed%3]
			bo.MinObservations = int(seed % 4)
			ref := &referenceBO{space: space, candidates: bo.Candidates, xi: bo.Xi,
				minObservations: bo.MinObservations, rng: rand.New(pb)}
			for range r.IntN(12) {
				cfg, score := historyConfig(space, r), float64(r.IntN(6))/5
				bo.Observe(cfg, score)
				ref.observe(cfg, score)
			}
			for step := 0; step < 4; step++ {
				got, gotCost := bo.Suggest()
				want, wantCost := ref.suggest()
				if len(got) != len(want) {
					t.Fatalf("%s seed %d step %d: %d keys, reference has %d", name, seed, step, len(got), len(want))
				}
				for k, w := range want {
					g, ok := got[k]
					if !ok || math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("%s seed %d step %d: %s = %v (set %v), reference %v", name, seed, step, k, g, ok, w)
					}
				}
				if gotCost != wantCost {
					t.Fatalf("%s seed %d step %d: Cost %+v, reference %+v", name, seed, step, gotCost, wantCost)
				}
				sa, _ := pa.MarshalBinary()
				sb, _ := pb.MarshalBinary()
				if !bytes.Equal(sa, sb) {
					t.Fatalf("%s seed %d step %d: RNG state differs from the reference's", name, seed, step)
				}
				score := float64(r.IntN(6)) / 5
				bo.Observe(got, score)
				ref.observe(want, score)
			}
		}
	}
	if histories < 200 {
		t.Fatalf("only %d histories", histories)
	}
}
