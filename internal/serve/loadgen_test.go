package serve

import (
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/energy"
	"repro/internal/hw"
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

// TestLoadGenReportsUnchanged pins two runs over a three-feature source,
// with deadlines, to the reports of the generator as it was before it
// served rows as windows of one gather and sorted latencies once: the
// outcome counts, the percentiles, the ledger and the span must all come
// out as they did when every request copied its row and each percentile
// sorted its own copy.
func TestLoadGenReportsUnchanged(t *testing.T) {
	src := tabular.FromRows([][]float64{{0, 5, 2}, {1, 4, 3}, {0, 3, 1}, {1, 2, 9}, {1, 1, 7}, {0, 8, 8}, {1, 6, 0}})
	for _, c := range []struct {
		gen      LoadGen
		outcomes [numOutcomes]int
		p50, p99 time.Duration
		ledger   float64
		simTime  time.Duration
	}{
		{
			gen:      LoadGen{Rate: 900, Requests: 3000, Seed: 5, DeadlineFrac: 0.3, Deadline: 4 * time.Millisecond},
			outcomes: [numOutcomes]int{2299, 525, 176, 0, 0},
			p50:      5223452, p99: 14642386,
			ledger: 186.38550000000143, simTime: 2872683541,
		},
		{
			gen:      LoadGen{Users: 40, Rate: 2000, Requests: 3000, Seed: 9, DeadlineFrac: 0.3, Deadline: 4 * time.Millisecond},
			outcomes: [numOutcomes]int{2054, 939, 7, 0, 0},
			p50:      13189695, p99: 22612062,
			ledger: 209.16378000000063, simTime: 2065181801,
		},
	} {
		m := testModel(&scriptedPredictor{classes: 2})
		m.Features = 3
		e := NewEngine(m, hw.XeonGold6132(), Config{BatchWindow: time.Millisecond, BatchMax: 8, QueueCap: 32})
		rep := c.gen.Run(e, src)
		if rep.Outcomes != c.outcomes || rep.P50 != c.p50 || rep.P99 != c.p99 ||
			rep.LedgerJoules != c.ledger || rep.SimTime != c.simTime {
			t.Errorf("users %d seed %d: outcomes %v p50 %d p99 %d ledger %v span %d; want %v %d %d %v %d",
				c.gen.Users, c.gen.Seed, rep.Outcomes, rep.P50, rep.P99, rep.LedgerJoules, rep.SimTime,
				c.outcomes, c.p50, c.p99, c.ledger, c.simTime)
		}
	}
}

// TestPercentileMatchesPerQuantileSort checks the sort-once percentile
// against the per-quantile computation it replaced: copy the latencies,
// sort the copy, index q·(len-1).
func TestPercentileMatchesPerQuantileSort(t *testing.T) {
	old := func(d []time.Duration, q float64) time.Duration {
		if len(d) == 0 {
			return 0
		}
		s := append([]time.Duration(nil), d...)
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		return s[int(q*float64(len(s)-1))]
	}
	rng := rand.New(rand.NewPCG(4, 2))
	for _, n := range []int{0, 1, 2, 3, 99, 100, 101, 1000} {
		d := make([]time.Duration, n)
		for i := range d {
			d[i] = time.Duration(rng.IntN(50)) * time.Microsecond // ties included
		}
		want50, want99 := old(d, 0.50), old(d, 0.99)
		slices.Sort(d)
		if got50, got99 := percentile(d, 0.50), percentile(d, 0.99); got50 != want50 || got99 != want99 {
			t.Errorf("n=%d: p50 %v p99 %v, want %v %v", n, got50, got99, want50, want99)
		}
	}
}
