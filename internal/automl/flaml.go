package automl

import (
	"fmt"
	"time"

	"repro/internal/pipeline"
	"repro/internal/tabular"
)

// FLAML reproduces the cost-frugal AutoML architecture of Wang et al.
// (MLSys 2021, paper Table 1): the search space contains models only (no
// preprocessor search), initialization starts from the lowest-complexity
// configuration of the cheapest families on a very small training sample,
// and the search enforces a prior of cost — complexity and sample size
// grow only when cheaper options stop improving. FLAML returns a single
// low-cost model and never ensembles, which is why it has the lowest
// inference energy in the study. Budget fidelity: the evaluation running
// when the budget expires is finished, producing a small, roughly
// constant overrun (paper Table 7).
type FLAML struct{}

// NewFLAML returns the FLAML system.
func NewFLAML() *FLAML { return &FLAML{} }

// Name implements System.
func (f *FLAML) Name() string { return "FLAML" }

// MinBudget implements System.
func (f *FLAML) MinBudget() time.Duration { return 0 }

// flamlState tracks the local search of one model family.
type flamlState struct {
	family     string
	spec       pipeline.SpaceSpec
	space      *pipeline.Space
	best       pipeline.Config
	bestScore  float64
	complexity float64 // current complexity rung in [0,1]
	stall      int     // evaluations since last improvement
	lastCost   time.Duration
}

// lowComplexityConfig returns the cheapest configuration of a family: the
// paper's example is "a random forest with 5 trees with at most 10 leaves
// each".
func lowComplexityConfig(space *pipeline.Space, complexity float64) pipeline.Config {
	cfg := space.Default()
	for _, p := range space.Params {
		switch p.Kind {
		case pipeline.Int, pipeline.Float:
			// Interpolate from Min toward the default as complexity
			// grows; complexity 1 unlocks the full default scale.
			v := p.Min + complexity*(p.Max-p.Min)*0.6
			if p.Kind == pipeline.Int {
				v = float64(int(v + 0.5))
			}
			cfg[p.Name] = v
		}
	}
	return cfg
}

// Fit implements System.
func (f *FLAML) Fit(train tabular.View, opts Options) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, fmt.Errorf("flaml: %w", err)
	}
	rng := opts.rng()
	meter := opts.Meter
	tracker := startRun(meter)
	budget := meter.NewBudget(opts.Budget)

	fitTrain, val := holdoutSplit(train, 0.25, rng)

	// Families in ascending cost order; each gets its own local search
	// state.
	var states []*flamlState
	for _, family := range pipeline.ModelsByCost() {
		spec := pipeline.SpaceSpec{Models: []string{family}}
		space, err := spec.Space()
		if err != nil {
			continue
		}
		states = append(states, &flamlState{
			family: family,
			spec:   spec,
			space:  space,
			best:   lowComplexityConfig(space, 0),
		})
	}

	// Sample-size schedule: start tiny, double when progress stalls.
	sampleRows := 10 * train.Classes()
	if sampleRows > fitTrain.Rows() {
		sampleRows = fitTrain.Rows()
	}
	sample := fitTrain.Subsample(sampleRows, rng)

	var best evaluation
	var bestState *flamlState
	var bestCfg pipeline.Config
	evaluated := 0
	stallGlobal := 0
	active := 0 // index of the family currently searched

	for !budget.Exceeded() && len(states) > 0 {
		st := states[active]

		// Candidate: perturb the family's best within its current
		// complexity rung, biased toward slightly higher complexity.
		cfg := st.space.Mutate(st.best, 0.4, rng)
		cfg = blendComplexity(st.space, cfg, st.complexity)

		p, err := st.spec.Build(cfg, sample.Features())
		if err != nil {
			advanceFamily(&active, len(states))
			continue
		}
		ev, ok := evaluatePipeline(p, sample, val, meter, noCap, rng)
		evaluated++
		if ok {
			st.lastCost = ev.fitTime
			if ev.score > st.bestScore {
				st.bestScore = ev.score
				st.best = cfg
				st.stall = 0
			} else {
				st.stall++
			}
			if best.pipe == nil || ev.score > best.score {
				best = ev
				bestState = st
				bestCfg = cfg
				stallGlobal = 0
			} else {
				stallGlobal++
			}
		} else {
			st.stall++
			stallGlobal++
		}

		// Cost-frugal escalation: if the family stalls, raise its
		// complexity rung; if complexity is maxed, move to the next
		// (more expensive) family; if everything stalls, grow the
		// sample (paper §2.2: "once increasing model complexity does
		// not yield more accuracy gains, they increase the training
		// set size and repeat").
		if st.stall >= 3 {
			st.stall = 0
			if st.complexity < 1 {
				st.complexity += 0.25
			} else {
				advanceFamily(&active, len(states))
			}
		}
		if stallGlobal >= 8 && sample.Rows() < fitTrain.Rows() {
			stallGlobal = 0
			sampleRows *= 2
			if sampleRows > fitTrain.Rows() {
				sampleRows = fitTrain.Rows()
			}
			sample = fitTrain.Subsample(sampleRows, rng)
		}
	}

	if best.pipe == nil {
		return tracker.finish(MajorityResult(f.Name(), train)), nil
	}
	return tracker.finish(&Result{
		System:     f.Name(),
		Predictor:  best.pipe,
		Classes:    train.Classes(),
		Evaluated:  evaluated,
		ValScore:   best.score,
		BestSpec:   &bestState.spec,
		BestConfig: bestCfg,
	}), nil
}

func advanceFamily(active *int, n int) {
	if n == 0 {
		return
	}
	*active = (*active + 1) % n
}

// blendComplexity pulls numeric parameters toward the complexity rung's
// scale, implementing FLAML's low-to-high complexity prior.
func blendComplexity(space *pipeline.Space, cfg pipeline.Config, complexity float64) pipeline.Config {
	out := cfg.Clone()
	anchor := lowComplexityConfig(space, complexity)
	for _, p := range space.Params {
		if p.Kind != pipeline.Int && p.Kind != pipeline.Float {
			continue
		}
		// Blend 70% toward the rung anchor with a little jitter.
		v := 0.3*out[p.Name] + 0.7*anchor[p.Name]
		if p.Kind == pipeline.Int {
			v = float64(int(v + 0.5))
		}
		out[p.Name] = v
	}
	return out
}
