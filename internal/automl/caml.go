package automl

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"repro/internal/energy"
	"repro/internal/pipeline"
	"repro/internal/search"
	"repro/internal/tabular"
	"repro/internal/vclock"
)

// CAMLParams are the AutoML system parameters of CAML — exactly the knobs
// the paper's development-stage optimizer tunes (§3.7): the ML
// hyperparameter search space plus six scalar system parameters (hold-out
// validation fraction, evaluation fraction, sampling, refit, random
// validation splitting, incremental training), and the user-facing
// inference-time constraint (§3.4).
type CAMLParams struct {
	// Spec prunes the ML search space (models and preprocessor groups).
	Spec pipeline.SpaceSpec
	// HoldoutFrac is the validation fraction (default 0.33).
	HoldoutFrac float64
	// EvalFraction caps a single evaluation at this fraction of the
	// total budget (default 0.1); estimated-to-overrun evaluations are
	// pruned early.
	EvalFraction float64
	// SampleRows subsamples the training data upfront to at most this
	// many rows (0 disables — no state-of-the-art system implements
	// this knob; the paper's tuning always turns it on).
	SampleRows int
	// Refit retrains the final pipeline on train+validation.
	Refit bool
	// RandomValSplit reshuffles the validation split before each BO
	// iteration to avoid overfitting the validation set.
	RandomValSplit bool
	// Incremental enables successive-halving incremental training:
	// evaluations start at 10 instances per class and grow stepwise.
	Incremental bool
	// InitRandom is the number of random configurations evaluated
	// before BO takes over (default 10, paper §2.3).
	InitRandom int
	// InferenceLimit is the per-instance inference-time constraint;
	// zero disables the constraint.
	InferenceLimit time.Duration
	// CVFolds switches candidate evaluation from hold-out to k-fold
	// cross-validation (0 or 1 keeps hold-out, the CAML default). The
	// validation strategy is one of the development-stage parameters
	// the paper names (§2.5); TPOT's 5-fold CV shows its cost profile.
	CVFolds int
	// EarlyStopPatience stops the search once this many consecutive BO
	// iterations bring no validation improvement (0 disables). The
	// paper's §3.8 analysis motivates it: on small datasets AutoML
	// systems overfit with longer budgets, so stopping at the plateau
	// saves energy without costing accuracy.
	EarlyStopPatience int
	// EnergyWeight folds inference energy into the search objective
	// (paper §1: "we can incorporate this constraint in the objective
	// function"): candidates are ranked by
	// score - EnergyWeight * log10(1 + inference mJ/instance). Zero
	// disables the penalty.
	EnergyWeight float64
}

// DefaultCAMLParams returns CAML's out-of-the-box configuration: the full
// model zoo with data preprocessors (no feature preprocessors, paper
// Table 1), 0.33 hold-out, incremental training, no constraint.
func DefaultCAMLParams() CAMLParams {
	return CAMLParams{
		Spec:           pipeline.SpaceSpec{Models: pipeline.AllModels(), DataPreprocessors: true},
		HoldoutFrac:    0.33,
		EvalFraction:   0.1,
		Refit:          false,
		RandomValSplit: false,
		Incremental:    true,
		InitRandom:     10,
	}
}

func (p CAMLParams) normalized() CAMLParams {
	if p.HoldoutFrac <= 0 || p.HoldoutFrac >= 0.9 {
		p.HoldoutFrac = 0.33
	}
	if p.EvalFraction <= 0 || p.EvalFraction > 1 {
		p.EvalFraction = 0.1
	}
	if p.InitRandom < 1 {
		p.InitRandom = 10
	}
	if len(p.Spec.Models) == 0 {
		p.Spec.Models = pipeline.AllModels()
	}
	return p
}

// CAML is the constraint-aware AutoML system (Neutatz et al., VLDB J.
// 2023) in its static mode: Bayesian optimization with successive-halving
// incremental training, strict budget adherence, and first-class ML
// application constraints such as inference time.
type CAML struct {
	// Params are the system parameters; zero value uses the defaults.
	Params CAMLParams
	// Label overrides the reported system name (used by CAML(tuned)).
	Label string
}

// NewCAML returns CAML with default parameters.
func NewCAML() *CAML { return &CAML{Params: DefaultCAMLParams()} }

// Name implements System.
func (c *CAML) Name() string {
	if c.Label != "" {
		return c.Label
	}
	return "CAML"
}

// MinBudget implements System: CAML supports arbitrarily small budgets
// thanks to incremental training.
func (c *CAML) MinBudget() time.Duration { return 0 }

// Fit implements System.
func (c *CAML) Fit(train tabular.View, opts Options) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, fmt.Errorf("caml: %w", err)
	}
	params := c.Params.normalized()
	rng := opts.rng()
	meter := opts.Meter
	tracker := startRun(meter)
	budget := meter.NewBudget(opts.Budget)

	// Upfront sampling (the search-time-specific step the paper's tuning
	// always selects, §3.7).
	working := train
	if params.SampleRows > 0 && working.Rows() > params.SampleRows {
		working = working.Subsample(params.SampleRows, rng)
	}

	space, err := params.Spec.Space()
	if err != nil {
		return nil, fmt.Errorf("caml: %w", err)
	}
	fitTrain, val := holdoutSplit(working, params.HoldoutFrac, rng)

	bo := search.NewBO(space, rng)
	bo.MinObservations = params.InitRandom

	var best evaluation
	var bestConfig pipeline.Config
	bestObjective := math.Inf(-1)
	evaluated := 0
	sinceImprovement := 0
	evalCap := time.Duration(params.EvalFraction * float64(opts.Budget))

	for !budget.Exceeded() {
		cfg, boCost := bo.Suggest()
		chargeCost(meter, energy.Execution, boCost, 0.3)
		if budget.Exceeded() {
			break
		}
		var ev evaluation
		var ok bool
		if params.CVFolds >= 2 {
			ev, ok = c.evaluateCV(cfg, working, params, opts, budget, evalCap, rng)
		} else {
			ev, ok = c.evaluateIncremental(cfg, fitTrain, val, params, opts, budget, evalCap, rng)
		}
		if ok {
			evaluated++
			objective := c.objective(&ev, val, params, opts.Meter)
			bo.Observe(cfg, objective)
			if best.pipe == nil || objective > bestObjective {
				best = ev
				bestConfig = cfg
				bestObjective = objective
				sinceImprovement = 0
			} else {
				sinceImprovement++
			}
		} else {
			bo.Observe(cfg, 0)
			sinceImprovement++
		}
		// Early stopping at the validation plateau (paper §3.8).
		if params.EarlyStopPatience > 0 && sinceImprovement >= params.EarlyStopPatience {
			break
		}
		if params.RandomValSplit {
			fitTrain, val = holdoutSplit(working, params.HoldoutFrac, rng)
		}
	}

	if best.pipe == nil {
		// Nothing evaluated successfully within the budget: fall back
		// to the majority class (any-time property, paper §3.10).
		return tracker.finish(MajorityResult(c.Name(), train)), nil
	}

	final := best.pipe
	if params.Refit {
		refit, err := params.Spec.Build(bestConfig, working.Features())
		if err == nil {
			cost, fitErr := refit.Fit(working, rng)
			// The refit is part of the budgeted run; past the deadline
			// it is cut off and the search-time model kept.
			_, truncated := chargeCostCapped(meter, energy.Execution, cost, refit.ParallelFrac(), maxDuration(budget.Remaining(), opts.Budget/20))
			if fitErr == nil && !truncated {
				final = refit
			}
		}
	}

	return tracker.finish(&Result{
		System:     c.Name(),
		Predictor:  final,
		Classes:    train.Classes(),
		Evaluated:  evaluated,
		ValScore:   best.score,
		BestSpec:   &params.Spec,
		BestConfig: bestConfig,
	}), nil
}

// evaluateIncremental trains one configuration, either directly or through
// successive-halving incremental training, pruning on budget, estimated
// overrun, and constraint violation.
func (c *CAML) evaluateIncremental(cfg pipeline.Config, fitTrain, val tabular.View, params CAMLParams, opts Options, budget *vclock.Budget, evalCap time.Duration, rng *rand.Rand) (evaluation, bool) {
	build := func() (*pipeline.Pipeline, bool) {
		p, err := params.Spec.Build(cfg, fitTrain.Features())
		return p, err == nil
	}
	deadline := capFor(budget, evalCap)

	if !params.Incremental {
		p, ok := build()
		if !ok {
			return evaluation{}, false
		}
		ev, ok := evaluatePipeline(p, fitTrain, val, opts.Meter, deadline(0), rng)
		if !ok || !c.satisfiesConstraint(&ev, val, params, opts.Meter) {
			return evaluation{}, false
		}
		return ev, true
	}

	// Incremental training: 10 instances per class, growing by eta=2 per
	// rung until the full training set. Each rung's cost predicts the
	// next; a predicted budget or evaluation-cap overrun stops the
	// evaluation early with the last completed rung's result.
	perClass := 10
	var lastEval evaluation
	have := false
	var lastDuration time.Duration
	var spent time.Duration
	for {
		sub := fitTrain.SubsamplePerClass(perClass, rng)
		fullData := sub.Rows() >= fitTrain.Rows()
		if fullData {
			sub = fitTrain
		}
		// Predict the rung's duration from the last rung (supra-linear
		// growth factor 2.2 is conservative for sort-based tree fits).
		if have {
			predicted := time.Duration(float64(lastDuration) * 2.2)
			if predicted > budget.Remaining() {
				return lastEval, true
			}
			if evalCap > 0 && spent+predicted > evalCap {
				return lastEval, true
			}
		}
		p, ok := build()
		if !ok {
			return evaluation{}, false
		}
		ev, ok := evaluatePipeline(p, sub, val, opts.Meter, deadline(spent), rng)
		spent += ev.fitTime
		if !ok {
			// Truncated or failed rung: the partial work is paid, the
			// result discarded.
			return lastEval, have
		}
		if !c.satisfiesConstraint(&ev, val, params, opts.Meter) {
			// Constraint violations are pruned as early as possible
			// (paper §2.2) — the whole configuration is rejected.
			return evaluation{}, false
		}
		lastDuration = ev.fitTime
		lastEval = ev
		have = true
		if fullData || budget.Exceeded() {
			return lastEval, true
		}
		perClass *= 2
	}
}

// evaluateCV scores one configuration by k-fold cross-validation under the
// same capped-deadline regime as hold-out evaluation, then applies the
// inference constraint.
func (c *CAML) evaluateCV(cfg pipeline.Config, working tabular.View, params CAMLParams, opts Options, budget *vclock.Budget, evalCap time.Duration, rng *rand.Rand) (evaluation, bool) {
	ev, ok := crossValidate(params.Spec, cfg, working, params.CVFolds, opts.Meter, capFor(budget, evalCap), rng)
	if !ok || !c.satisfiesConstraint(&ev, working, params, opts.Meter) {
		return evaluation{}, false
	}
	return ev, true
}

// capFor returns the deadline of one evaluation step given what the
// evaluation has spent so far: the budget's remainder, tightened to the
// per-evaluation cap when one is set.
func capFor(budget *vclock.Budget, evalCap time.Duration) func(spent time.Duration) time.Duration {
	return func(spent time.Duration) time.Duration {
		cap := budget.Remaining()
		if evalCap > 0 && evalCap-spent < cap {
			cap = evalCap - spent
		}
		return cap
	}
}

// objective scores an evaluation for model selection: validation balanced
// accuracy, optionally penalized by the candidate's per-instance inference
// energy (paper §1's energy-aware objective).
func (c *CAML) objective(ev *evaluation, val tabular.View, params CAMLParams, meter *energy.Meter) float64 {
	if params.EnergyWeight <= 0 {
		return ev.score
	}
	millijoules := 1000 * c.inferenceJoulesPerInstance(ev, val, meter)
	return ev.score - params.EnergyWeight*math.Log10(1+millijoules)
}

// inferenceJoulesPerInstance dry-runs a small probe batch through the
// candidate and converts the cost to joules per instance on the meter's
// machine (not billed — an estimate, like the constraint check).
func (c *CAML) inferenceJoulesPerInstance(ev *evaluation, val tabular.View, meter *energy.Meter) float64 {
	probe := val.Head(32)
	if probe.Rows() == 0 {
		return 0
	}
	_, cost := ev.pipe.PredictProba(probe)
	var joules float64
	works, n := cost.Works(0)
	for _, w := range works[:n] {
		d := meter.Machine().Duration(w, 1)
		joules += meter.Machine().Energy(d, 1, false, false)
	}
	return joules / float64(probe.Rows())
}

// satisfiesConstraint checks the per-instance inference-time constraint by
// measuring the candidate's actual per-row inference duration on the
// validation pass.
func (c *CAML) satisfiesConstraint(ev *evaluation, val tabular.View, params CAMLParams, meter *energy.Meter) bool {
	if params.InferenceLimit <= 0 {
		return true
	}
	probe := val.Head(32)
	_, cost := ev.pipe.PredictProba(probe)
	// Constraint checks use the machine model directly (a dry-run
	// estimate), not the meter: the real CAML estimates inference time
	// without billing the user for a full extra pass.
	var perInstance time.Duration
	works, n := cost.Works(0)
	for _, w := range works[:n] {
		perInstance += meter.Machine().Duration(w, 1)
	}
	perInstance = time.Duration(float64(perInstance) / math.Max(float64(probe.Rows()), 1))
	return perInstance <= params.InferenceLimit
}

func maxDuration(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}
