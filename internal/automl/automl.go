// Package automl implements the seven AutoML systems the paper evaluates,
// each reproducing its published search architecture (paper Table 1),
// plus a zero-shot portfolio system:
//
//   - AutoGluon: predefined pipelines, k-fold bagging, stacking, Caruana
//     ensemble weighting; optional inference-optimized refit preset.
//   - AutoSklearn 1: Bayesian optimization over the full space with random
//     initialization, Caruana ensembling of the top evaluated pipelines.
//   - AutoSklearn 2: the same with a meta-learned warm-start portfolio.
//   - FLAML: cost-frugal search from low-complexity models on small
//     samples toward complex models, single best model, no ensembling.
//   - TabPFN: a prior-fitted network — zero search, in-context inference.
//   - TPOT: NSGA-II genetic programming with 5-fold cross-validation.
//   - CAML: Bayesian optimization with successive halving, constraint
//     support (inference time), strict budget adherence.
//   - ZeroShot: TabRepo-style zero-shot selection — trains a fixed or
//     meta-learned portfolio in order and keeps the best member.
//
// Each system schedules against the virtual clock through an energy meter;
// budget-fidelity behaviour (paper Table 7) emerges from the systems'
// control flow, not from scripted timings. The systems share one
// evaluation (evaluatePipeline, under a deadline or noCap), one k-fold
// loop (crossValidate), one curated-configuration builder
// (pipeline.Space.Preset) and one majority-class fallback
// (MajorityResult).
package automl

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"repro/internal/energy"
	"repro/internal/ensemble"
	"repro/internal/metrics"
	"repro/internal/ml"
	"repro/internal/pipeline"
	"repro/internal/tabular"
)

// Options configure one AutoML execution.
type Options struct {
	// Budget is the search-time budget. Systems treat it with their own
	// fidelity (paper §3.10); TabPFN ignores it.
	Budget time.Duration
	// Meter receives the execution-stage energy and provides the
	// virtual clock. Required.
	Meter *energy.Meter
	// Seed makes the run reproducible.
	Seed uint64
}

func (o Options) validate() error {
	if o.Meter == nil {
		return errors.New("automl: options require a meter")
	}
	return nil
}

func (o Options) rng() *rand.Rand {
	return rand.New(rand.NewPCG(o.Seed, 0x5eed))
}

// System is one AutoML system under study.
type System interface {
	// Name identifies the system in reports.
	Name() string
	// MinBudget is the smallest supported search budget (0 = any; the
	// paper benchmarks ASKL only from 30s and TPOT from 1 minute).
	MinBudget() time.Duration
	// Fit searches for a pipeline (or ensemble) on the training data.
	Fit(train tabular.View, opts Options) (*Result, error)
}

// Result is the outcome of one AutoML execution.
type Result struct {
	// System is the producing system's name.
	System string
	// Predictor is the final model or ensemble.
	Predictor ensemble.Predictor
	// Classes is the task's class count.
	Classes int
	// ExecTime is the virtual wall-clock the execution consumed —
	// compare with the requested budget for paper Table 7.
	ExecTime time.Duration
	// ExecKWh is the execution-stage energy consumed.
	ExecKWh float64
	// Evaluated counts the pipelines trained during search.
	Evaluated int
	// ValScore is the internal validation balanced accuracy of the
	// returned predictor.
	ValScore float64
	// GPUInference reports whether the predictor's inference can be
	// offloaded to a GPU. Only TabPFN's transformer can; the
	// scikit-learn-style systems predict on CPU even on a GPU machine,
	// leaving the GPU drawing idle power (paper Table 3).
	GPUInference bool
	// BestSpec and BestConfig, when set, describe the best single
	// evaluated pipeline as a deterministic recipe: BestSpec.Build
	// followed by a deterministic refit reconstructs a deployable
	// model. For ensemble systems this is the top-scoring member, not
	// the ensemble; `greenrun -save-artifact` persists the recipe via
	// internal/artifact. Systems with no per-config search (TabPFN's
	// pretrained transformer) leave them empty.
	BestSpec   *pipeline.SpaceSpec
	BestConfig pipeline.Config
}

// Predict classifies the viewed rows, charging the inference cost to the
// meter's inference stage.
func (r *Result) Predict(x tabular.View, meter *energy.Meter) ([]int, error) {
	proba, err := r.PredictProba(x, meter)
	if err != nil {
		return nil, err
	}
	return metrics.ArgmaxRows(proba), nil
}

// PredictProba returns class probabilities, charging inference energy.
func (r *Result) PredictProba(x tabular.View, meter *energy.Meter) ([][]float64, error) {
	proba, _, err := r.PredictProbaCost(x, meter) //greenlint:allow meteredcost PredictProbaCost charges the cost to the meter itself; the copy is for callers that also persist it
	return proba, err
}

// PredictProbaCost is PredictProba plus the raw inference ml.Cost, for
// callers that persist the cost alongside the predictions (the
// evaluation repository) in addition to charging it to the meter.
func (r *Result) PredictProbaCost(x tabular.View, meter *energy.Meter) ([][]float64, ml.Cost, error) {
	if r.Predictor == nil {
		return nil, ml.Cost{}, fmt.Errorf("automl: %s produced no predictor", r.System)
	}
	proba, cost := r.Predictor.PredictProba(x)
	// Charge before the nil check: the predictor spent the compute
	// whether or not it produced usable probabilities.
	chargeCost(meter, energy.Inference, cost, 0)
	if proba == nil {
		return nil, cost, fmt.Errorf("automl: %s predictor returned no probabilities", r.System)
	}
	return proba, cost, nil
}

// chargeCost runs a model cost through the meter at the given stage.
func chargeCost(meter *energy.Meter, stage energy.Stage, cost ml.Cost, parallelFrac float64) time.Duration {
	total, _ := chargeCostCapped(meter, stage, cost, parallelFrac, noCap)
	return total
}

// noCap is the deadline of work nothing cuts off: systems that let a
// started evaluation finish pass it as their cap.
const noCap = time.Duration(math.MaxInt64)

// chargeCostCapped charges at most `cap` of virtual time for the cost and
// reports whether the work was cut off. This models a system that kills a
// running evaluation at a hard deadline (CAML's strict budget adherence,
// paper §3.10): the energy up to the deadline is spent, the result is
// discarded by the caller.
func chargeCostCapped(meter *energy.Meter, stage energy.Stage, cost ml.Cost, parallelFrac float64, cap time.Duration) (time.Duration, bool) {
	if cap <= 0 {
		return 0, true
	}
	var total time.Duration
	works, n := cost.Works(parallelFrac)
	for _, w := range works[:n] {
		est := meter.Machine().Duration(w, meter.Cores())
		if total+est > cap {
			remaining := cap - total
			if est > 0 && remaining > 0 {
				w.FLOPs *= float64(remaining) / float64(est)
				meter.Run(stage, w)
			}
			return cap, true
		}
		total += meter.Run(stage, w)
	}
	return total, false
}

// run wraps a system execution with bookkeeping shared by all systems:
// clock and energy deltas.
type run struct {
	meter     *energy.Meter
	startTime time.Duration
	startKWh  float64
}

func startRun(meter *energy.Meter) run {
	return run{
		meter:     meter,
		startTime: meter.Clock().Now(),
		startKWh:  meter.Tracker().KWh(energy.Execution),
	}
}

func (r run) finish(res *Result) *Result {
	res.ExecTime = r.meter.Clock().Now() - r.startTime
	res.ExecKWh = r.meter.Tracker().KWh(energy.Execution) - r.startKWh
	return res
}

// holdoutSplit produces the system's internal train/validation split as
// index views over the shared frame — no matrix copies.
func holdoutSplit(ds tabular.View, valFrac float64, rng *rand.Rand) (train, val tabular.View) {
	val, train = ds.StratifiedSplit(valFrac, rng)
	return train, val
}

// evaluation is the outcome of training one pipeline candidate.
type evaluation struct {
	pipe     *pipeline.Pipeline
	config   pipeline.Config
	score    float64
	valProba [][]float64
	fitTime  time.Duration
}

// evaluatePipeline fits a pipeline on train, scores it on val and charges
// all compute to the meter's execution stage, under a hard virtual
// deadline: work beyond cap is charged only up to the cap and the
// evaluation fails, mirroring CAML killing the evaluation process at the
// deadline (systems that never kill one pass noCap). A training failure
// also returns ok == false (the candidate is discarded, mirroring
// pipelines that crash or exceed memory in the real systems); fitTime
// still reports the time spent.
func evaluatePipeline(p *pipeline.Pipeline, train, val tabular.View, meter *energy.Meter, cap time.Duration, rng *rand.Rand) (evaluation, bool) {
	fitCost, err := p.Fit(train, rng)
	fitTime, truncated := chargeCostCapped(meter, energy.Execution, fitCost, p.ParallelFrac(), cap)
	if err != nil || truncated {
		return evaluation{fitTime: fitTime}, false
	}
	proba, predCost := p.PredictProba(val)
	predTime, truncated := chargeCostCapped(meter, energy.Execution, predCost, p.ParallelFrac(), cap-fitTime)
	fitTime += predTime
	if truncated {
		return evaluation{fitTime: fitTime}, false
	}
	labels := metrics.ArgmaxRows(proba)
	score := metrics.BalancedAccuracy(val.LabelsInto(nil), labels, val.Classes())
	return evaluation{pipe: p, score: score, valProba: proba, fitTime: fitTime}, true
}

// crossValidate scores cfg by k-fold cross-validation on x. Each fold's
// pipeline is built and evaluated under the deadline cap returns for the
// time the evaluation has spent so far (nil: no deadline); any failed
// fold fails the whole evaluation. The result carries the last fold's
// pipeline, the mean fold score and the total time spent.
func crossValidate(spec pipeline.SpaceSpec, cfg pipeline.Config, x tabular.View, k int, meter *energy.Meter, cap func(spent time.Duration) time.Duration, rng *rand.Rand) (evaluation, bool) {
	trains, vals := x.KFold(k, rng)
	if len(trains) == 0 {
		return evaluation{}, false
	}
	var scoreSum float64
	var spent time.Duration
	var last evaluation
	for f := range trains {
		p, err := spec.Build(cfg, x.Features())
		if err != nil {
			return evaluation{}, false
		}
		limit := noCap
		if cap != nil {
			limit = cap(spent)
		}
		ev, ok := evaluatePipeline(p, trains[f], vals[f], meter, limit, rng)
		spent += ev.fitTime
		if !ok {
			return evaluation{}, false
		}
		scoreSum += ev.score
		last = ev
	}
	last.score = scoreSum / float64(len(trains))
	last.fitTime = spent
	return last, true
}

// MajorityResult builds the harness's graceful-degradation fallback: a
// constant majority-class predictor standing in for a system whose run
// produced no usable model (AMLB's constant-predictor semantics). The
// result carries the failing system's name so reports attribute the
// fallback correctly.
func MajorityResult(system string, train tabular.View) *Result {
	return &Result{
		System:    system,
		Predictor: newMajorityPredictor(train),
		Classes:   train.Classes(),
	}
}

// majorityPredictor predicts the constant majority class — the fallback
// when a system cannot produce anything better (e.g. TabPFN beyond its
// class limit).
type majorityPredictor struct {
	classes int
	label   int
}

func newMajorityPredictor(ds tabular.View) *majorityPredictor {
	counts := ds.ClassCounts()
	best := 0
	for c, n := range counts {
		if n > counts[best] {
			best = c
		}
	}
	return &majorityPredictor{classes: ds.Classes(), label: best}
}

// PredictProba implements ensemble.Predictor.
func (m *majorityPredictor) PredictProba(x tabular.View) ([][]float64, ml.Cost) {
	n := x.Rows()
	out := make([][]float64, n)
	for i := range out {
		row := make([]float64, m.classes)
		row[m.label] = 1
		out[i] = row
	}
	return out, ml.Cost{Generic: float64(n)}
}
