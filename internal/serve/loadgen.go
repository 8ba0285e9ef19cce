package serve

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"time"

	"repro/internal/energy"
	"repro/internal/tabular"
)

// LoadGen drives an engine with a synthetic request stream on the
// virtual clock — the serving counterpart of the batch harness's grid.
// Two modes:
//
//   - open loop (Users == 0): arrivals are an independent process at
//     Rate requests/second with bounded-Pareto inter-arrival times, the
//     heavy-tailed traffic that stresses admission control;
//   - closed loop (Users > 0): a population of simulated users, each
//     submitting, waiting for its response, thinking (Pareto), and
//     submitting again — the mode that scales to millions of users
//     because per-user state is one instant.
//
// Everything is deterministic in Seed; wall time is never consulted.
type LoadGen struct {
	// Users is the closed-loop population; 0 selects open loop.
	Users int
	// Rate is the open-loop mean arrival rate (requests/second); in
	// closed loop it sets the mean think time as Users/Rate.
	Rate float64
	// Requests is the total number of requests to issue.
	Requests int
	// ParetoAlpha is the tail index of inter-arrival and think times
	// (smaller = heavier tail). Default 1.5.
	ParetoAlpha float64
	// DeadlineFrac is the fraction of requests carrying a deadline.
	DeadlineFrac float64
	// Deadline is the relative deadline those requests carry.
	Deadline time.Duration
	// Seed feeds the generator's rng.
	Seed uint64
}

// Report summarizes one load-generation run: the latency-vs-watts view
// of paper Table 6, plus the conservation cross-check.
type Report struct {
	Requests int
	Outcomes [numOutcomes]int
	// P50 and P99 are latency percentiles over served (and degraded)
	// responses.
	P50, P99 time.Duration
	// SimTime is the virtual span from first arrival to last resolution.
	SimTime time.Duration
	// KWh is the tracker's total at the end of the run; AvgWatts is
	// the mean draw over SimTime.
	KWh      float64
	AvgWatts float64
	// LedgerJoules sums per-response charges in resolution order; the
	// conservation invariant makes it bit-equal to KWh's joules.
	LedgerJoules float64
}

// String implements fmt.Stringer.
func (r Report) String() string {
	s := fmt.Sprintf("%d requests in %v: p50 %v p99 %v, %.6f kWh (%.1f W avg)",
		r.Requests, r.SimTime.Round(time.Millisecond), r.P50, r.P99, r.KWh, r.AvgWatts)
	for o := Outcome(0); o < numOutcomes; o++ {
		s += fmt.Sprintf(" %s=%d", o, r.Outcomes[o])
	}
	return s
}

// Run drives the engine to completion: every issued request resolves
// (the engine is drained at the end), so the report's outcome counts sum
// to Requests.
func (g LoadGen) Run(e *Engine, source tabular.View) Report {
	if g.ParetoAlpha <= 1 {
		g.ParetoAlpha = 1.5
	}
	if g.Rate <= 0 {
		g.Rate = 1000
	}
	if g.Requests <= 0 {
		g.Requests = 1000
	}
	rng := rand.New(rand.NewPCG(g.Seed, 0x10adbeef))
	rows, width := source.Rows(), source.Features()
	// One row-major gather of the source, taken once: each request's Row
	// is a read-only window of it (the engine copies features out at
	// flush and never writes them), so issuing a request copies nothing.
	gathered := make([]float64, rows*width)
	for i := 0; i < rows; i++ {
		source.Row(i, gathered[i*width:(i+1)*width])
	}

	var (
		issued    int
		latencies = make([]time.Duration, 0, g.Requests)
		rep       Report
		lastDone  time.Duration
	)
	absorb := func(resps []Response) {
		for _, r := range resps {
			rep.Outcomes[r.Outcome]++
			rep.LedgerJoules += r.Joules
			if r.Outcome == Served || r.Outcome == Degraded {
				latencies = append(latencies, r.Latency)
			}
			if r.Done > lastDone {
				lastDone = r.Done
			}
		}
	}
	makeRequest := func(at time.Duration) Request {
		i := rng.IntN(rows)
		req := Request{
			ID:      uint64(issued),
			Row:     gathered[i*width : (i+1)*width : (i+1)*width],
			Arrival: at,
		}
		if g.DeadlineFrac > 0 && g.Deadline > 0 && rng.Float64() < g.DeadlineFrac {
			req.Deadline = at + g.Deadline
		}
		issued++
		return req
	}

	if g.Users <= 0 {
		// Open loop: arrivals march forward regardless of responses.
		meanGap := time.Duration(float64(time.Second) / g.Rate)
		at := time.Duration(0)
		for issued < g.Requests {
			absorb(e.Submit(makeRequest(at)))
			at += g.pareto(rng, meanGap)
		}
	} else {
		// Closed loop: each user waits for its response, then thinks.
		meanThink := time.Duration(float64(g.Users) / g.Rate * float64(time.Second))
		ready := newEventHeap(g.Users)
		for u := 0; u < g.Users && u < g.Requests; u++ {
			ready.push(g.pareto(rng, meanThink/2))
		}
		inflight := 0
		for ready.len() > 0 || inflight > 0 {
			var resps []Response
			if issued >= g.Requests {
				ready.at = ready.at[:0]
			}
			if next, ok := ready.peek(); ok {
				due, dueOK := e.nextEventAt()
				if !dueOK || next <= due {
					ready.pop()
					inflight++
					resps = e.Submit(makeRequest(next))
				} else {
					resps = e.AdvanceTo(due)
				}
			} else {
				due, ok := e.nextEventAt()
				if !ok {
					break
				}
				resps = e.AdvanceTo(due)
			}
			for _, r := range resps {
				inflight--
				if issued < g.Requests {
					ready.push(maxT(r.Done, e.Now()) + g.pareto(rng, meanThink))
				}
			}
			absorb(resps)
		}
	}

	absorb(e.Drain(e.Now()))
	rep.Requests = issued
	rep.SimTime = maxT(lastDone, e.Now())
	rep.KWh = e.Tracker().TotalKWh()
	if rep.SimTime > 0 {
		rep.AvgWatts = rep.KWh * energy.JoulesPerKWh / rep.SimTime.Seconds()
	}
	// The run is over, so latencies can be sorted in place; both
	// quantiles index the one sorted slice.
	slices.Sort(latencies)
	rep.P50 = percentile(latencies, 0.50)
	rep.P99 = percentile(latencies, 0.99)
	return rep
}

// pareto samples a bounded Pareto holding time with the given mean: the
// heavy tail produces arrival bursts, the bound (100× mean) keeps a
// single sample from freezing the simulation.
func (g LoadGen) pareto(rng *rand.Rand, mean time.Duration) time.Duration {
	if mean <= 0 {
		return 0
	}
	alpha := g.ParetoAlpha
	xm := float64(mean) * (alpha - 1) / alpha
	u := rng.Float64()
	if u < 1e-12 {
		u = 1e-12
	}
	x := xm / math.Pow(u, 1/alpha)
	if bound := 100 * float64(mean); x > bound {
		x = bound
	}
	return time.Duration(x)
}

// percentile reports the q-quantile of sorted: the element at
// q·(len-1), rounded down.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1))]
}

func maxT(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

// eventHeap is a minimal binary min-heap of instants, sized for
// million-user populations (one time.Duration per pending user).
type eventHeap struct {
	at []time.Duration
}

func newEventHeap(capHint int) *eventHeap {
	return &eventHeap{at: make([]time.Duration, 0, capHint)}
}

func (h *eventHeap) len() int { return len(h.at) }

func (h *eventHeap) peek() (time.Duration, bool) {
	if len(h.at) == 0 {
		return 0, false
	}
	return h.at[0], true
}

func (h *eventHeap) push(t time.Duration) {
	h.at = append(h.at, t)
	i := len(h.at) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.at[p] <= h.at[i] {
			break
		}
		h.at[p], h.at[i] = h.at[i], h.at[p]
		i = p
	}
}

func (h *eventHeap) pop() time.Duration {
	top := h.at[0]
	last := len(h.at) - 1
	h.at[0] = h.at[last]
	h.at = h.at[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h.at) && h.at[l] < h.at[small] {
			small = l
		}
		if r < len(h.at) && h.at[r] < h.at[small] {
			small = r
		}
		if small == i {
			break
		}
		h.at[i], h.at[small] = h.at[small], h.at[i]
		i = small
	}
	return top
}
