package serve

// The chaos suite: serving under injected failure. Each test drives the
// deterministic engine through a failure scenario — predict panics and
// stalls from the faults taxonomy, artifact corruption on reload,
// kill-and-restart mid-batch — and pins the two invariants the package
// doc promises: every request resolves to exactly one outcome, and the
// per-response energy ledger sums bit-exactly to the tracker total.

import (
	"errors"
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/atomicio"
	"repro/internal/energy"
	"repro/internal/faults"
	"repro/internal/ml"
	"repro/internal/pipeline"
	"repro/internal/tabular"
)

// chaosFrame builds a small deterministic two-class training frame.
func chaosFrame(rows int) *tabular.Frame {
	rng := rand.New(rand.NewPCG(13, 13))
	f := tabular.NewFrame("chaos", rows, 3)
	f.Classes = 2
	f.Y = make([]int, rows)
	f.Kinds = []tabular.FeatureKind{tabular.Numeric, tabular.Numeric, tabular.Categorical}
	for i := 0; i < rows; i++ {
		y := i % 2
		f.Y[i] = y
		f.Cols[0][i] = float64(y) + 0.3*rng.NormFloat64()
		f.Cols[1][i] = -float64(y) + 0.3*rng.NormFloat64()
		f.Cols[2][i] = float64(i % 3)
	}
	return f
}

func chaosSpec() artifact.Spec {
	return artifact.Spec{
		Dataset:           "chaos",
		Models:            []string{"tree"},
		DataPreprocessors: true,
		ComplexityCaps:    map[string]float64{"tree": 0.8},
		Params:            pipeline.Config{"model": 0, "tree.max_depth": 4},
		Seed:              42,
		Train:             chaosFrame(80),
	}
}

// TestChaosRealArtifactEndToEnd serves a genuinely fitted pipeline from
// a saved artifact under heavy-tailed load with deadlines, then corrupts
// the artifact on disk and confirms the reload path refuses it while the
// running model keeps serving.
func TestChaosRealArtifactEndToEnd(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chaos.model")
	built, _, err := artifact.Build(chaosSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := artifact.Save(path, built); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := artifact.Load(path)
	if err != nil {
		t.Fatal(err)
	}

	e := testEngine(t, nil, Config{BatchWindow: time.Millisecond, BatchMax: 16, QueueCap: 64})
	e.Swap(NewModel(loaded))
	rep := LoadGen{
		Rate: 4000, Requests: 300, Seed: 21,
		DeadlineFrac: 0.3, Deadline: 10 * time.Millisecond,
	}.Run(e, loaded.Spec.Train.All())

	if got := sumOutcomes(rep.Outcomes); got != 300 {
		t.Fatalf("outcomes sum to %d, want 300: %v", got, rep.Outcomes)
	}
	if rep.Outcomes[Served] == 0 {
		t.Fatalf("artifact-backed model served nothing: %v", rep.Outcomes)
	}
	if got := e.Tracker().Joules(energy.Inference); got != rep.LedgerJoules {
		t.Fatalf("ledger %v J, tracker %v J", rep.LedgerJoules, got)
	}

	// Corrupt the artifact on disk; the hot-reload path must refuse it
	// with the checksum taxonomy, and the engine keeps the old model.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := artifact.Load(path); !errors.Is(err, atomicio.ErrChecksum) {
		t.Fatalf("corrupt artifact load: %v, want checksum refusal", err)
	}
	// The refused reload leaves the in-memory model untouched: a fresh
	// engine epoch serving it still answers.
	e2 := testEngine(t, nil, Config{BatchWindow: time.Millisecond, BatchMax: 16, QueueCap: 64})
	e2.Swap(NewModel(loaded))
	resps := e2.Submit(Request{ID: 9000, Row: loaded.Spec.Train.All().Row(0, nil), Arrival: 0})
	resps = append(resps, e2.Drain(time.Second)...)
	if len(resps) != 1 || resps[0].Outcome != Served {
		t.Fatalf("old model stopped serving after refused reload: %v", resps)
	}
}

// faultyPredictor panics with the faults taxonomy for a window of
// predict calls, then recovers — a transient corrupt-model episode.
type faultyPredictor struct {
	inner    *scriptedPredictor
	badFrom  int
	badUntil int
	calls    int
}

func (p *faultyPredictor) PredictProba(x tabular.View) ([][]float64, ml.Cost) {
	call := p.calls
	p.calls++
	if call >= p.badFrom && call < p.badUntil {
		panic(&faults.Error{Kind: faults.PredictError, Site: "serve/chaos", Err: errors.New("injected corrupt model")})
	}
	return p.inner.PredictProba(x)
}

// TestChaosPanicStormBreakerRecovery runs load through a model whose
// predictor goes bad for a window of batches: the breaker trips, the
// fallback tier answers degraded, the half-open probe re-closes once the
// episode passes, and the ledger still conserves.
func TestChaosPanicStormBreakerRecovery(t *testing.T) {
	p := &faultyPredictor{inner: &scriptedPredictor{classes: 2}, badFrom: 2, badUntil: 10}
	e := testEngine(t, nil, Config{
		BatchWindow: time.Millisecond, BatchMax: 4, QueueCap: 64,
		BreakerThreshold: 3, BreakerCooldown: 5 * time.Millisecond,
	})
	e.Swap(&Model{Name: "flaky", Pred: p, Features: 1, Classes: 2, Majority: 1,
		Priors: []float64{0.25, 0.75}, RowCost: ml.Cost{Generic: rowFLOPs}})

	rep := LoadGen{Rate: 2000, Requests: 400, Seed: 17}.Run(e, loadSource())

	if got := sumOutcomes(rep.Outcomes); got != 400 {
		t.Fatalf("outcomes sum to %d, want 400: %v", got, rep.Outcomes)
	}
	if rep.Outcomes[Failed] == 0 {
		t.Fatalf("no failures during the bad window: %v", rep.Outcomes)
	}
	if rep.Outcomes[Degraded] == 0 {
		t.Fatalf("breaker never degraded: %v", rep.Outcomes)
	}
	if rep.Outcomes[Served] == 0 {
		t.Fatalf("breaker never recovered to serve: %v", rep.Outcomes)
	}
	st := e.Stats()
	if st.BreakerTrips == 0 {
		t.Fatal("breaker trip count is zero")
	}
	if st.Breaker != BreakerClosed {
		t.Fatalf("breaker ended %s, want closed after recovery", st.Breaker)
	}
	if got := e.Tracker().Joules(energy.Inference); got != rep.LedgerJoules {
		t.Fatalf("ledger %v J, tracker %v J", rep.LedgerJoules, got)
	}
}

// TestChaosStallStormBreakerTrips drives a model that wedges (the
// faults.Stall signature: enormous cost, no answer in time) and checks
// timeouts are charged, the breaker opens, and everything resolves.
func TestChaosStallStormBreakerTrips(t *testing.T) {
	p := &scriptedPredictor{classes: 2, failAt: func(int) string { return "stall" }}
	e := testEngine(t, p, Config{
		BatchWindow: time.Millisecond, BatchMax: 4, QueueCap: 32,
		PredictTimeout:   10 * time.Millisecond,
		BreakerThreshold: 2, BreakerCooldown: time.Second,
	})
	rep := LoadGen{Rate: 1000, Requests: 100, Seed: 23}.Run(e, loadSource())

	if got := sumOutcomes(rep.Outcomes); got != 100 {
		t.Fatalf("outcomes sum to %d, want 100: %v", got, rep.Outcomes)
	}
	if rep.Outcomes[Served] != 0 {
		t.Fatalf("a wedged model served %d requests", rep.Outcomes[Served])
	}
	if rep.Outcomes[Failed] == 0 || rep.Outcomes[Degraded] == 0 {
		t.Fatalf("want timeouts then degradation: %v", rep.Outcomes)
	}
	// Timeout batches are charged for the time they burned before being
	// abandoned — stalls are not free.
	if rep.LedgerJoules <= 0 {
		t.Fatal("stall storm charged no energy")
	}
	if got := e.Tracker().Joules(energy.Inference); got != rep.LedgerJoules {
		t.Fatalf("ledger %v J, tracker %v J", rep.LedgerJoules, got)
	}
}

// TestChaosKillRestartMidBatch simulates a daemon crash between batch
// flushes: the journal's tail line is torn, replay recovers the resolved
// prefix, and a restarted engine finishes the unresolved requests so
// every request still ends with exactly one durable outcome.
func TestChaosKillRestartMidBatch(t *testing.T) {
	dir := t.TempDir()
	path1 := filepath.Join(dir, "epoch1.journal")
	e1 := testEngine(t, &scriptedPredictor{classes: 2}, Config{BatchWindow: time.Millisecond, BatchMax: 4})
	j1, err := NewJournal(path1, "scripted")
	if err != nil {
		t.Fatal(err)
	}
	e1.SetJournal(j1)

	rows := make([][]float64, 10)
	for i := range rows {
		rows[i] = []float64{float64(i % 2)}
		e1.Submit(Request{ID: uint64(i), Row: rows[i], Arrival: time.Duration(i) * 100 * time.Microsecond})
	}
	// First two batches flush; the rest are still queued at the kill.
	e1.AdvanceTo(2 * time.Millisecond)
	j1.Flush()
	// Kill mid-write: the last journal line is torn.
	data, err := os.ReadFile(path1)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path1, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	// Restart: replay the journal to learn what already resolved.
	rep1, err := ReplayJournal(path1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep1.Torn {
		t.Fatal("kill mid-write did not tear the journal tail")
	}
	resolved := make(map[uint64]bool, len(rep1.Records))
	for _, r := range rep1.Records {
		resolved[r.ID] = true
	}
	if len(resolved) == 0 || len(resolved) >= 10 {
		t.Fatalf("replay recovered %d resolutions, want a strict prefix", len(resolved))
	}

	// A fresh engine epoch re-serves everything the journal cannot
	// prove resolved (at-least-once across the crash; the torn record
	// is re-served because its durable write never completed).
	path2 := filepath.Join(dir, "epoch2.journal")
	e2 := testEngine(t, &scriptedPredictor{classes: 2}, Config{BatchWindow: time.Millisecond, BatchMax: 4})
	j2, err := NewJournal(path2, "scripted")
	if err != nil {
		t.Fatal(err)
	}
	e2.SetJournal(j2)
	var redone []Response
	for i := range rows {
		if resolved[uint64(i)] {
			continue
		}
		redone = append(redone, e2.Submit(Request{ID: uint64(i), Row: rows[i], Arrival: 0})...)
	}
	redone = append(redone, e2.Drain(time.Second)...)
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}

	if got := len(resolved) + len(redone); got != 10 {
		t.Fatalf("resolved %d + redone %d != 10 requests", len(resolved), len(redone))
	}
	for _, r := range redone {
		if r.Outcome != Served {
			t.Fatalf("restarted request %d: %s", r.ID, r.Outcome)
		}
	}
	// Epoch 2's durable ledger conserves on its own tracker.
	rep2, err := ReplayJournal(path2)
	if err != nil {
		t.Fatal(err)
	}
	if got := e2.Tracker().Joules(energy.Inference); got != rep2.TotalJoules() {
		t.Fatalf("epoch2 ledger %v J, tracker %v J", rep2.TotalJoules(), got)
	}
}
