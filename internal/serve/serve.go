// Package serve is the inference-serving layer: the paper's third
// lifecycle stage (inference, Table 6) run as a long-lived,
// energy-metered daemon rather than offline scoring.
//
// The package is built in two layers mirroring the repository's
// determinism discipline:
//
//   - Engine is a single-threaded discrete-event core on virtual time.
//     The driver feeds it absolute instants (Submit(at, …),
//     AdvanceTo(t)); batching, deadlines, the circuit breaker and energy
//     attribution all run against those instants, so every robustness
//     behavior is deterministically testable on the virtual clock.
//   - Server wraps an Engine for concurrent callers in wall time: a
//     mutex serializes access, a real timer fires the batch window, and
//     blocking Predict calls are parked until the engine resolves them.
//
// Robustness rails, end to end: a bounded admission queue with load
// shedding (never unbounded memory), deadline-aware micro-batching into
// columnar blocks (deadline-infeasible requests are shed at admission;
// deadlines propagate into predict so work that expires mid-batch is
// abandoned), a per-model circuit breaker (consecutive predict failures
// or timeouts trip to the majority-class fallback tier with half-open
// probing), and graceful drain on shutdown.
//
// Every request resolves to exactly one Outcome and is charged through
// energy.Tracker at resolution time, in resolution order. The ledger of
// per-response Joules therefore sums bit-exactly to the tracker total —
// the conservation invariant the chaos suite pins.
package serve

import (
	"fmt"

	"repro/internal/artifact"
	"repro/internal/ml"
	"repro/internal/tabular"
)

// Outcome is the exhaustive resolution taxonomy: every admitted or
// refused request ends in exactly one of these.
type Outcome uint8

const (
	// Served is a successful prediction by the primary model.
	Served Outcome = iota
	// Shed is a refusal at admission: the queue is full, the daemon is
	// draining, or the deadline cannot survive the batch window.
	Shed
	// Expired is an admitted request whose deadline passed before its
	// prediction completed; the result, if any, is discarded.
	Expired
	// Degraded is a response from the fallback tier (majority class)
	// while the circuit breaker holds the primary model open.
	Degraded
	// Failed is an admitted request whose predict batch panicked or
	// timed out, or whose row is not as wide as the served model's.
	Failed
	numOutcomes
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case Served:
		return "served"
	case Shed:
		return "shed"
	case Expired:
		return "expired"
	case Degraded:
		return "degraded"
	case Failed:
		return "failed"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Predictor is the model surface the engine serves: the subset of
// pipeline.Pipeline it needs, small enough for chaos tests to substitute
// stalling, panicking or erroring implementations.
type Predictor interface {
	PredictProba(x tabular.View) ([][]float64, ml.Cost)
}

// Model is a servable model: the predictor plus the fallback-tier
// metadata and a per-row cost estimate for admission control.
type Model struct {
	// Name labels the model in stats and journal lines.
	Name string
	// Pred is the primary predictor.
	Pred Predictor
	// Features is the row width the model was trained on; rows of any
	// other width fail before predict.
	Features int
	// Classes is the task's class count.
	Classes int
	// Majority is the fallback tier's answer.
	Majority int
	// Priors is the fallback tier's probability vector (training class
	// distribution).
	Priors []float64
	// RowCost estimates the predict cost of one row — the basis for
	// deadline-feasibility checks and for charging batches that panic
	// before reporting their true cost.
	RowCost ml.Cost
}

// NewModel adapts a loaded artifact into a servable model, measuring
// RowCost on the artifact's fingerprint probe so admission control uses
// the fitted pipeline's real per-row cost.
func NewModel(a *artifact.Model) *Model {
	n := min(a.Spec.Train.Rows(), 64)
	probe := a.Spec.Train.All().Head(n)
	_, cost := a.Pipe.PredictProba(probe)
	return &Model{
		Name:     a.Spec.Dataset,
		Pred:     a.Pipe,
		Features: a.Spec.Train.Features(),
		Classes:  a.Classes,
		Majority: a.Majority,
		Priors:   a.Priors,
		RowCost:  cost.Scale(1 / float64(max(n, 1))),
	}
}
