// Package faults is the harness's deterministic fault-injection
// subsystem.
//
// The paper's evaluation depends on AutoML systems that crash, overrun
// budgets and degrade under pressure; AMLB-style benchmark harnesses
// survive framework crashes by falling back to a constant predictor, and
// the green-AutoML framing counts the energy of failed and retried runs
// as real cost. This package injects those failures on purpose so the
// harness's resilience machinery (panic recovery, retries, fallback
// predictors, the run journal) is exercised deterministically: every
// injection decision is a pure function of the injector seed and a
// stable site key, so replays and resumed runs inject byte-identically
// regardless of cell execution order.
//
// Fault sites:
//
//   - trainer panic or transient error partway through System.Fit, after
//     a site-keyed fraction of the budget has been burned (crashed
//     trainers still consumed energy);
//   - corrupt-model predictor faults that panic during prediction;
//   - hang faults: Fit burns part of the budget and then stops making
//     virtual progress, which it reports as a typed stall;
//   - meter dropout: the energy sampler dies mid-run, losing readings
//     while virtual time keeps advancing (CodeCarbon's sampler is a
//     separate process in the paper's setup);
//   - simulated OOM when a cell's working-set estimate exceeds a
//     configurable machine memory model (deterministic, not random);
//   - transient dataset-generation errors.
package faults

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"time"

	"repro/internal/automl"
	"repro/internal/energy"
	"repro/internal/ml"
	"repro/internal/tabular"
)

// Kind classifies a harness failure. It is the taxonomy recorded on
// bench.Record: empty means a clean run.
type Kind string

const (
	// None is a clean run.
	None Kind = ""
	// FitError is a system returning an error from Fit.
	FitError Kind = "fit-error"
	// FitPanic is a system panicking during Fit, recovered by the
	// harness.
	FitPanic Kind = "fit-panic"
	// OOM is a simulated out-of-memory kill: the cell's working-set
	// estimate exceeded the machine memory model.
	OOM Kind = "oom"
	// PredictError is a failure (error or panic) during prediction.
	PredictError Kind = "predict-error"
	// MeterDropout means energy readings were lost mid-run; the score is
	// valid but the energy measurements are partial.
	MeterDropout Kind = "meter-dropout"
	// Stall is a cell whose virtual clock stopped advancing: the trainer
	// wedged without failing, the cell degraded to the fallback without a
	// retry, and the budget it burned before stalling stays charged.
	Stall Kind = "stall"
	// DatasetError is a dataset-generation failure.
	DatasetError Kind = "dataset-error"
	// ShardFailure marks a cell whose owning shard subprocess died and
	// exhausted its restart budget: the cell never executed, but the
	// sweep degrades to reporting it here instead of aborting.
	ShardFailure Kind = "shard-failure"
	// FallbackUsed labels records whose score came from the
	// majority-class fallback predictor after retries were exhausted
	// (AMLB semantics); the record's Failure field keeps the root cause.
	FallbackUsed Kind = "fallback-used"
)

// Error is a typed fault: an injected failure, or a recovered panic
// converted into an error by the harness.
type Error struct {
	// Kind classifies the fault.
	Kind Kind
	// Site names where it fired (e.g. "fit/CAML").
	Site string
	// Err is the underlying cause, if any.
	Err error
}

// Error implements error.
func (e *Error) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("faults: %s at %s: %v", e.Kind, e.Site, e.Err)
	}
	return fmt.Sprintf("faults: %s at %s", e.Kind, e.Site)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *Error) Unwrap() error { return e.Err }

// KindOf extracts the failure kind from err, or returns fallback for
// plain errors.
func KindOf(err error, fallback Kind) Kind {
	var fe *Error
	if errors.As(err, &fe) {
		return fe.Kind
	}
	return fallback
}

// Config enables fault injection. The zero value disables everything.
type Config struct {
	// Rate is the per-attempt probability in [0, 1] that a random fault
	// (crash, transient error, corrupt model, meter dropout) fires.
	Rate float64
	// HangRate is the per-attempt probability in [0, 1] that a Fit hangs
	// instead: it burns a site-keyed fraction of the budget and then stops
	// advancing the virtual clock, returning a typed Stall error in place
	// of the result a hung trainer never delivers.
	HangRate float64
	// Seed seeds the injection stream. Decisions depend only on (Seed,
	// site key), never on execution order.
	Seed uint64
	// MemoryBytes models the machine's usable RAM. When positive, cells
	// whose working-set estimate exceeds it fail with a simulated OOM.
	// Zero disables the memory model.
	MemoryBytes int64
}

// Enabled reports whether any fault source is active.
func (c Config) Enabled() bool { return c.Rate > 0 || c.HangRate > 0 || c.MemoryBytes > 0 }

// Injector draws deterministic fault decisions. A nil *Injector is valid
// and injects nothing, so callers need no branching when injection is
// off.
type Injector struct {
	cfg Config
}

// New returns an injector for the config, or nil when injection is
// disabled.
func New(cfg Config) *Injector {
	if !cfg.Enabled() {
		return nil
	}
	if cfg.Rate < 0 {
		cfg.Rate = 0
	}
	if cfg.Rate > 1 {
		cfg.Rate = 1
	}
	if cfg.HangRate < 0 {
		cfg.HangRate = 0
	}
	if cfg.HangRate > 1 {
		cfg.HangRate = 1
	}
	return &Injector{cfg: cfg}
}

// roll returns a uniform draw in [0, 1) keyed purely by the injector
// seed and the site string.
func (in *Injector) roll(site string) float64 {
	h := fnv.New64a()
	h.Write([]byte(site))
	return rand.New(rand.NewPCG(in.cfg.Seed^0xfa0175, h.Sum64())).Float64()
}

// Plan is the set of faults injected into one cell attempt.
type Plan struct {
	// FitPanic makes the system panic partway through Fit.
	FitPanic bool
	// FitError makes Fit return a transient typed error partway through.
	FitError bool
	// PredictError corrupts the returned predictor so it panics on use.
	PredictError bool
	// Hang makes Fit burn WasteFrac of the budget and then return a
	// typed Stall error without advancing the virtual clock further.
	Hang bool
	// DropoutFrac > 0 arranges for the execution meter to lose energy
	// readings after this fraction of the budget.
	DropoutFrac float64
	// WasteFrac is the fraction of the budget a crashing or hanging Fit
	// burns before it fails — energy that is spent even though no result
	// survives.
	WasteFrac float64
}

// Empty reports whether the plan injects nothing.
func (p Plan) Empty() bool {
	return !p.FitPanic && !p.FitError && !p.PredictError && !p.Hang && p.DropoutFrac <= 0
}

// CellPlan decides the faults for one (system, dataset, budget, seed)
// cell attempt. The decision is order-independent: it depends only on
// the injector seed and the cell identity.
func (in *Injector) CellPlan(system, dataset string, budget time.Duration, seed, attempt uint64) Plan {
	if in == nil || (in.cfg.Rate <= 0 && in.cfg.HangRate <= 0) {
		return Plan{}
	}
	site := fmt.Sprintf("cell/%s/%s/%d/%d/%d", system, dataset, budget, seed, attempt)
	// Hangs draw from their own site key so enabling them never perturbs
	// the crash/error/dropout decisions an existing fault seed produces.
	if in.cfg.HangRate > 0 && in.roll(site+"/hang") < in.cfg.HangRate {
		return Plan{Hang: true, WasteFrac: 0.1 + 0.5*in.roll(site+"/hangwaste")}
	}
	if in.cfg.Rate <= 0 || in.roll(site) >= in.cfg.Rate {
		return Plan{}
	}
	waste := 0.2 + 0.6*in.roll(site+"/waste")
	switch pick := in.roll(site + "/kind"); {
	case pick < 0.30:
		return Plan{FitPanic: true, WasteFrac: waste}
	case pick < 0.60:
		return Plan{FitError: true, WasteFrac: waste}
	case pick < 0.80:
		return Plan{PredictError: true}
	default:
		return Plan{DropoutFrac: waste}
	}
}

// DatasetFault reports a transient dataset-generation error for the
// given attempt, or nil. Retrying with the next attempt index redraws
// the decision, so transient faults clear on retry with high
// probability.
func (in *Injector) DatasetFault(dataset string, seed uint64, attempt int) error {
	if in == nil || in.cfg.Rate <= 0 {
		return nil
	}
	site := fmt.Sprintf("dataset/%s/%d/%d", dataset, seed, attempt)
	if in.roll(site) < in.cfg.Rate {
		return &Error{Kind: DatasetError, Site: site, Err: errors.New("transient generation failure")}
	}
	return nil
}

// WorkingSetBytes estimates a training cell's peak working set: the
// design matrix in float64 times a copy factor covering train/val
// splits, preprocessed views, fold buffers and ensemble members.
func WorkingSetBytes(rows, features int) int64 {
	if rows < 0 {
		rows = 0
	}
	if features < 1 {
		features = 1
	}
	const bytesPerValue = 8
	const copies = 24
	return int64(rows) * int64(features) * bytesPerValue * copies
}

// CheckOOM returns a simulated OOM fault when the cell's working-set
// estimate exceeds the configured memory model. The decision is
// deterministic in the dataset shape — retries cannot clear it.
func (in *Injector) CheckOOM(dataset string, rows, features int) *Error {
	if in == nil || in.cfg.MemoryBytes <= 0 {
		return nil
	}
	if ws := WorkingSetBytes(rows, features); ws > in.cfg.MemoryBytes {
		return &Error{
			Kind: OOM,
			Site: "fit/" + dataset,
			Err:  fmt.Errorf("working set ~%d B exceeds %d B memory model", ws, in.cfg.MemoryBytes),
		}
	}
	return nil
}

// Wrap returns a System that injects the plan's faults around inner.
// With an empty plan it returns inner unchanged.
func Wrap(inner automl.System, plan Plan) automl.System {
	if plan.Empty() {
		return inner
	}
	return &faultySystem{inner: inner, plan: plan}
}

type faultySystem struct {
	inner automl.System
	plan  Plan
}

// Name implements automl.System.
func (f *faultySystem) Name() string { return f.inner.Name() }

// MinBudget implements automl.System.
func (f *faultySystem) MinBudget() time.Duration { return f.inner.MinBudget() }

// Fit implements automl.System, firing the plan's fit-stage faults.
// Crash faults burn WasteFrac of the budget first: a trainer that dies
// mid-run consumed real energy, which the meter must keep.
func (f *faultySystem) Fit(train tabular.View, opts automl.Options) (*automl.Result, error) {
	if f.plan.DropoutFrac > 0 && opts.Meter != nil {
		opts.Meter.DropoutAfter(time.Duration(f.plan.DropoutFrac * float64(opts.Budget)))
	}
	if f.plan.Hang || f.plan.FitPanic || f.plan.FitError {
		if opts.Meter != nil {
			if waste := time.Duration(f.plan.WasteFrac * float64(opts.Budget)); waste > 0 {
				opts.Meter.Idle(energy.Execution, waste)
			}
		}
		site := "fit/" + f.inner.Name()
		switch {
		case f.plan.Hang:
			// The hung trainer would make no further virtual progress, so
			// the stall is reported as soon as the waste is burned.
			return nil, &Error{Kind: Stall, Site: site, Err: errors.New("injected hang")}
		case f.plan.FitPanic:
			panic(&Error{Kind: FitPanic, Site: site, Err: errors.New("injected trainer crash")})
		}
		return nil, &Error{Kind: FitError, Site: site, Err: errors.New("injected trainer failure")}
	}
	res, err := f.inner.Fit(train, opts)
	if err != nil {
		return nil, err
	}
	if f.plan.PredictError {
		res.Predictor = corruptPredictor{}
	}
	return res, nil
}

// corruptPredictor models a predictor whose serialized model is broken:
// any use panics, which the harness must recover and classify.
type corruptPredictor struct{}

// PredictProba implements ensemble.Predictor by panicking.
func (corruptPredictor) PredictProba(x tabular.View) ([][]float64, ml.Cost) {
	panic(&Error{Kind: PredictError, Site: "predict", Err: errors.New("injected corrupt model")})
}
