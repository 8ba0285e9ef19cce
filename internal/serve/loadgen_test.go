package serve

import (
	"testing"
	"time"

	"repro/internal/energy"
	"repro/internal/tabular"
)

// loadSource is a tiny unlabeled frame the generator samples rows from,
// one feature wide like testModel.
func loadSource() tabular.View {
	return tabular.FromRows([][]float64{{0}, {1}, {0}, {1}, {1}})
}

func sumOutcomes(o [numOutcomes]int) int {
	n := 0
	for _, c := range o {
		n += c
	}
	return n
}

func TestLoadGenOpenLoop(t *testing.T) {
	e := testEngine(t, &scriptedPredictor{classes: 2}, Config{
		BatchWindow: time.Millisecond, BatchMax: 16, QueueCap: 64,
	})
	g := LoadGen{Rate: 2000, Requests: 500, Seed: 11}
	rep := g.Run(e, loadSource())

	if rep.Requests != 500 {
		t.Fatalf("issued %d requests, want 500", rep.Requests)
	}
	if got := sumOutcomes(rep.Outcomes); got != 500 {
		t.Fatalf("outcomes sum to %d, want 500 (exactly one outcome per request): %v", got, rep.Outcomes)
	}
	if rep.Outcomes[Served] == 0 {
		t.Fatal("open loop served nothing")
	}
	// Conservation: the per-response ledger, summed in resolution order,
	// bit-equals the tracker total.
	if got := e.Tracker().Joules(energy.Inference); got != rep.LedgerJoules {
		t.Fatalf("ledger %v J, tracker %v J", rep.LedgerJoules, got)
	}
	if rep.P50 <= 0 || rep.P99 < rep.P50 {
		t.Fatalf("latency percentiles p50=%v p99=%v", rep.P50, rep.P99)
	}
	if rep.AvgWatts <= 0 || rep.KWh <= 0 {
		t.Fatalf("power report kwh=%v watts=%v", rep.KWh, rep.AvgWatts)
	}
}

func TestLoadGenClosedLoop(t *testing.T) {
	e := testEngine(t, &scriptedPredictor{classes: 2}, Config{
		BatchWindow: time.Millisecond, BatchMax: 8, QueueCap: 64,
	})
	g := LoadGen{Users: 50, Rate: 1000, Requests: 400, Seed: 3}
	rep := g.Run(e, loadSource())

	if rep.Requests != 400 {
		t.Fatalf("issued %d requests, want 400", rep.Requests)
	}
	if got := sumOutcomes(rep.Outcomes); got != 400 {
		t.Fatalf("outcomes sum to %d, want 400: %v", got, rep.Outcomes)
	}
	if got := e.Tracker().Joules(energy.Inference); got != rep.LedgerJoules {
		t.Fatalf("ledger %v J, tracker %v J", rep.LedgerJoules, got)
	}
}

func TestLoadGenOverloadShedsNotDeadlocks(t *testing.T) {
	// Tiny queue, slow model, deadlines on every request: a large
	// fraction must shed or expire, but every request still resolves.
	e := testEngine(t, &scriptedPredictor{classes: 2}, Config{
		BatchWindow: 5 * time.Millisecond, BatchMax: 4, QueueCap: 4,
	})
	g := LoadGen{
		Rate: 50000, Requests: 2000, Seed: 7,
		DeadlineFrac: 1.0, Deadline: 3 * time.Millisecond,
	}
	rep := g.Run(e, loadSource())

	if got := sumOutcomes(rep.Outcomes); got != 2000 {
		t.Fatalf("outcomes sum to %d, want 2000: %v", got, rep.Outcomes)
	}
	if rep.Outcomes[Shed]+rep.Outcomes[Expired] == 0 {
		t.Fatalf("overload shed nothing: %v", rep.Outcomes)
	}
	if got := e.Tracker().Joules(energy.Inference); got != rep.LedgerJoules {
		t.Fatalf("ledger %v J, tracker %v J", rep.LedgerJoules, got)
	}
	if e.Stats().QueueLen != 0 {
		t.Fatalf("queue not empty after drain: %d", e.Stats().QueueLen)
	}
}

func TestLoadGenDeterministicInSeed(t *testing.T) {
	run := func() Report {
		e := testEngine(t, &scriptedPredictor{classes: 2}, Config{
			BatchWindow: time.Millisecond, BatchMax: 8, QueueCap: 32,
		})
		return LoadGen{Users: 20, Rate: 4000, Requests: 300, Seed: 99,
			DeadlineFrac: 0.5, Deadline: 20 * time.Millisecond}.Run(e, loadSource())
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different reports:\n%v\n%v", a, b)
	}
	e := testEngine(t, &scriptedPredictor{classes: 2}, Config{
		BatchWindow: time.Millisecond, BatchMax: 8, QueueCap: 32,
	})
	c := LoadGen{Users: 20, Rate: 4000, Requests: 300, Seed: 100,
		DeadlineFrac: 0.5, Deadline: 20 * time.Millisecond}.Run(e, loadSource())
	if a == c {
		t.Fatal("different seeds produced identical reports")
	}
}

func TestLoadGenMillionUserScale(t *testing.T) {
	// The closed loop holds one instant per pending user, so a large
	// population with a bounded request count stays cheap.
	if testing.Short() {
		t.Skip("population-scale test")
	}
	e := testEngine(t, &scriptedPredictor{classes: 2}, Config{
		BatchWindow: time.Millisecond, BatchMax: 64, QueueCap: 4096,
	})
	g := LoadGen{Users: 1_000_000, Rate: 1e6, Requests: 5000, Seed: 5}
	rep := g.Run(e, loadSource())
	if got := sumOutcomes(rep.Outcomes); got != rep.Requests {
		t.Fatalf("outcomes sum to %d, want %d", got, rep.Requests)
	}
}
