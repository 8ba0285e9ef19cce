package serve

import (
	"fmt"
	"time"

	"repro/internal/energy"
	"repro/internal/hw"
	"repro/internal/ml"
	"repro/internal/tabular"
)

// Config tunes the engine's robustness rails. The zero value is usable:
// every field has a serving-shaped default.
type Config struct {
	// QueueCap bounds the admission queue; requests arriving beyond it
	// are shed. Default 256.
	QueueCap int
	// BatchMax caps rows per predict batch. Default 32.
	BatchMax int
	// BatchWindow is how long the first queued request waits for
	// companions before its batch flushes. Default 2ms.
	BatchWindow time.Duration
	// PredictTimeout cuts off a predict batch whose virtual duration
	// exceeds it: the batch fails, the breaker counts it, and only the
	// truncated duration is charged. Default 250ms; negative disables.
	PredictTimeout time.Duration
	// BreakerThreshold is the consecutive-failure count that trips the
	// circuit breaker. Default 4.
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker stays open before
	// half-open probing. Default 1s.
	BreakerCooldown time.Duration
	// Cores is the allotted CPU core count for predict work. Default 1.
	Cores int
}

func (c *Config) setDefaults() {
	if c.QueueCap <= 0 {
		c.QueueCap = 256
	}
	if c.BatchMax <= 0 {
		c.BatchMax = 32
	}
	if c.BatchWindow <= 0 {
		c.BatchWindow = 2 * time.Millisecond
	}
	if c.PredictTimeout == 0 {
		c.PredictTimeout = 250 * time.Millisecond
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 4
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = time.Second
	}
	if c.Cores <= 0 {
		c.Cores = 1
	}
}

// Request is one prediction request on the virtual timeline.
type Request struct {
	// ID is the caller's correlation key, echoed on the response.
	ID uint64
	// Row is the feature vector to classify.
	Row []float64
	// Arrival is the absolute virtual instant the request arrives.
	Arrival time.Duration
	// Deadline is the absolute virtual instant after which the answer
	// is worthless; zero means none.
	Deadline time.Duration
}

// Response is the resolution of one request: exactly one Outcome, the
// prediction when there is one, and the energy charged for it.
type Response struct {
	ID      uint64
	Outcome Outcome
	// Class is the predicted class, or -1 when no prediction was made.
	Class int
	// Proba is the class distribution (the fallback tier answers with
	// the training priors); nil when no prediction was made.
	Proba []float64
	// Done is the virtual resolution instant; Latency is Done - Arrival.
	Done    time.Duration
	Latency time.Duration
	// Joules is the energy attributed to this request. Summing Joules
	// over every response in resolution order reproduces the tracker
	// total bit-exactly.
	Joules float64
	// Err describes the failure or refusal, empty for Served.
	Err string
}

// Stats is a point-in-time engine summary.
type Stats struct {
	Model        string
	Outcomes     [numOutcomes]int
	Batches      int
	BreakerTrips int
	Breaker      BreakerState
	QueueLen     int
	Now          time.Duration
	KWh          float64
	// JournalDropped counts failed journal operations (see
	// Journal.Dropped); 0 when no journal is attached.
	JournalDropped int
}

// Submitted reports the total requests resolved so far.
func (s Stats) Submitted() int {
	n := 0
	for _, c := range s.Outcomes {
		n += c
	}
	return n
}

// Count reports the resolved-request count for one outcome.
func (s Stats) Count(o Outcome) int {
	if o >= numOutcomes {
		return 0
	}
	return s.Outcomes[o]
}

// admissionCost is the bookkeeping FLOPs charged to a request that is
// resolved without predict work (shed, or expired before its batch ran):
// parsing, queue accounting, the refusal itself.
const admissionFLOPs = 4096

// Engine is the deterministic discrete-event serving core. It is NOT
// safe for concurrent use — Server provides the locked wall-time
// wrapper — and time only moves when the driver calls Submit, AdvanceTo
// or Drain with monotonically non-decreasing instants.
type Engine struct {
	cfg     Config
	machine *hw.Machine
	tracker *energy.Tracker
	journal *Journal

	model     *Model
	perRowDur time.Duration
	breaker   *Breaker

	now       time.Duration
	busyUntil time.Duration
	flushAt   time.Duration
	queue     []Request
	draining  bool

	batches int
	trips   int // accumulated across swapped-out breakers
	stats   Stats
}

// NewEngine builds an engine serving model m on the given machine model.
func NewEngine(m *Model, machine *hw.Machine, cfg Config) *Engine {
	cfg.setDefaults()
	e := &Engine{
		cfg:     cfg,
		machine: machine,
		tracker: &energy.Tracker{},
	}
	e.install(m)
	return e
}

// Tracker exposes the engine's energy tracker (the conservation ledger's
// other half).
func (e *Engine) Tracker() *energy.Tracker { return e.tracker }

// Now reports the engine's current virtual instant.
func (e *Engine) Now() time.Duration { return e.now }

// SetJournal attaches a metering journal; every resolution is appended.
func (e *Engine) SetJournal(j *Journal) { e.journal = j }

// Swap atomically replaces the served model. Queued requests are not
// dropped: they predict with the new model when their batch flushes. The
// new model starts with a fresh, closed breaker.
func (e *Engine) Swap(m *Model) {
	e.install(m)
}

func (e *Engine) install(m *Model) {
	if e.breaker != nil {
		e.trips += e.breaker.Trips()
	}
	e.model = m
	e.perRowDur = e.costDuration(m.RowCost)
	e.breaker = newBreaker(e.cfg.BreakerThreshold, e.cfg.BreakerCooldown)
}

// Stats summarizes the engine at its current instant.
func (e *Engine) Stats() Stats {
	s := e.stats
	s.Model = e.model.Name
	s.Batches = e.batches
	s.BreakerTrips = e.trips + e.breaker.Trips()
	s.Breaker = e.breaker.State(e.now)
	s.QueueLen = len(e.queue)
	s.Now = e.now
	s.KWh = e.tracker.TotalKWh()
	if e.journal != nil {
		s.JournalDropped = e.journal.Dropped()
	}
	return s
}

// Submit advances the engine to the request's arrival instant and admits
// or refuses it. The returned responses are every request resolved by
// this call — batches that became due, plus this request if it was
// refused or short-circuited; admitted requests resolve in a later call.
func (e *Engine) Submit(req Request) []Response {
	out := e.AdvanceTo(req.Arrival)

	switch {
	case e.draining:
		out = append(out, e.resolveCheap(req, Shed, "draining"))
		return out
	case len(e.queue) >= e.cfg.QueueCap:
		out = append(out, e.resolveCheap(req, Shed, "queue full"))
		return out
	case e.breaker.State(e.now) == BreakerOpen:
		out = append(out, e.fallback(req, e.now))
		return out
	}
	if req.Deadline > 0 && req.Deadline < e.estimateDone(len(e.queue)+1) {
		out = append(out, e.resolveCheap(req, Shed, "deadline cannot survive the batch window"))
		return out
	}

	e.queue = append(e.queue, req)
	if len(e.queue) == 1 {
		e.flushAt = e.now + e.cfg.BatchWindow
	}
	if len(e.queue) >= e.cfg.BatchMax {
		// A full batch does not wait out the window.
		e.flushAt = e.now
		out = append(out, e.AdvanceTo(e.now)...)
	}
	return out
}

// AdvanceTo moves virtual time forward to t, flushing every batch that
// becomes due on the way, and returns the resolutions in order.
func (e *Engine) AdvanceTo(t time.Duration) []Response {
	var out []Response
	for len(e.queue) > 0 {
		ft := max(e.flushAt, e.busyUntil)
		if ft > t {
			break
		}
		out = append(out, e.flush(ft)...)
	}
	if t > e.now {
		e.now = t
	}
	return out
}

// Drain stops admission at instant t and flushes everything still
// queued, ignoring batch windows: the graceful-shutdown path. The
// journal, if any, is flushed afterwards.
func (e *Engine) Drain(t time.Duration) []Response {
	out := e.AdvanceTo(t)
	e.draining = true
	for len(e.queue) > 0 {
		out = append(out, e.flush(max(e.now, e.busyUntil))...)
	}
	if e.journal != nil {
		e.journal.Flush()
	}
	return out
}

// nextEventAt reports the instant the next queued batch becomes due;
// false when nothing is queued. The load generator uses it to interleave
// arrivals with resolutions deterministically.
func (e *Engine) nextEventAt() (time.Duration, bool) {
	if len(e.queue) == 0 {
		return 0, false
	}
	return max(e.flushAt, e.busyUntil), true
}

// estimateDone predicts when a request joining the queue now would
// resolve: the batch's flush instant (or the server freeing up) plus the
// per-row cost of everyone ahead of it.
func (e *Engine) estimateDone(batchRows int) time.Duration {
	start := e.flushAt
	if len(e.queue) == 0 {
		start = e.now + e.cfg.BatchWindow
	}
	start = max(start, e.busyUntil)
	return start + time.Duration(batchRows)*e.perRowDur
}

// flush runs one batch at instant ft and resolves its requests.
func (e *Engine) flush(ft time.Duration) []Response {
	e.now = ft
	n := min(len(e.queue), e.cfg.BatchMax)
	batch := e.queue[:n:n]
	e.queue = append([]Request(nil), e.queue[n:]...)
	if len(e.queue) > 0 {
		// The next batch starts as soon as the server frees up; it has
		// already waited its window.
		e.flushAt = ft
	}

	var out []Response
	alive := make([]Request, 0, len(batch))
	for _, r := range batch {
		switch {
		case r.Deadline > 0 && r.Deadline < ft:
			// The deadline passed while queued: abandon before
			// spending predict work.
			out = append(out, e.resolveCheap(r, Expired, "deadline passed in queue"))
		case len(r.Row) != e.model.Features:
			// Checked at flush, against the model that will predict
			// (a reload may have swapped it since admission). The
			// request's own fault: no predict, no breaker failure.
			msg := fmt.Sprintf("row has %d features, model %q takes %d", len(r.Row), e.model.Name, e.model.Features)
			out = append(out, e.resolveCheap(r, Failed, msg))
		default:
			alive = append(alive, r)
		}
	}
	if len(alive) == 0 {
		return out
	}

	if e.breaker.State(ft) == BreakerOpen {
		// Tripped while these requests queued: the fallback tier
		// answers them.
		for _, r := range alive {
			out = append(out, e.fallback(r, ft))
		}
		return out
	}

	model := e.model
	rows := make([][]float64, len(alive))
	for i, r := range alive {
		rows[i] = r.Row
	}
	proba, cost, err := e.predict(model, tabular.FromRows(rows))
	e.batches++

	var d time.Duration
	if err != nil {
		// A panic usually destroys the cost report (the zero Cost);
		// the work still happened, so charge whichever is larger: the
		// partial report or the model's estimated spend for the batch.
		d = max(e.costDuration(cost), time.Duration(len(alive))*e.perRowDur)
	} else {
		d = e.costDuration(cost)
	}
	timedOut := e.cfg.PredictTimeout > 0 && d > e.cfg.PredictTimeout
	if timedOut {
		// The deadline guard killed the batch mid-predict; only the
		// truncated duration was spent.
		d = e.cfg.PredictTimeout
	}
	done := ft + d
	e.busyUntil = done
	joules := e.machine.Energy(d, e.cfg.Cores, false, false)
	share := joules / float64(len(alive))
	e.tracker.AddBusy(energy.Inference, d)

	switch {
	case err != nil:
		e.breaker.Fail(done)
		for _, r := range alive {
			out = append(out, e.resolve(r, Failed, err.Error(), share, -1, nil, done))
		}
	case timedOut:
		e.breaker.Fail(done)
		msg := fmt.Sprintf("predict exceeded the %v timeout", e.cfg.PredictTimeout)
		for _, r := range alive {
			out = append(out, e.resolve(r, Failed, msg, share, -1, nil, done))
		}
	default:
		e.breaker.OK(done)
		for i, r := range alive {
			if r.Deadline > 0 && r.Deadline < done {
				// The work was spent; the answer arrived too late
				// to be worth anything. Still charged.
				out = append(out, e.resolve(r, Expired, "deadline passed during predict", share, -1, nil, done))
				continue
			}
			p := proba[i]
			out = append(out, e.resolve(r, Served, "", share, argmax(p), p, done))
		}
	}
	return out
}

// predict runs the model over a columnar block, converting a predictor
// panic (the faults package's corruption model) into an error.
func (e *Engine) predict(m *Model, x tabular.View) (proba [][]float64, cost ml.Cost, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("predict panic: %v", r)
		}
	}()
	proba, cost = m.Pred.PredictProba(x)
	if len(proba) != x.Rows() {
		return nil, cost, fmt.Errorf("predict returned %d rows for %d inputs", len(proba), x.Rows())
	}
	return proba, cost, nil
}

// fallback resolves a request from the degraded tier: the majority class
// with the training priors, at the cost of a prior lookup.
func (e *Engine) fallback(r Request, at time.Duration) Response {
	m := e.model
	cost := ml.Cost{Generic: float64(admissionFLOPs + m.Classes)}
	joules := e.machine.Energy(e.costDuration(cost), e.cfg.Cores, false, false)
	return e.resolve(r, Degraded, "circuit breaker open; majority-class fallback", joules, m.Majority, m.Priors, at)
}

// resolveCheap resolves a request that consumed only admission
// bookkeeping, at the current instant.
func (e *Engine) resolveCheap(r Request, o Outcome, msg string) Response {
	cost := ml.Cost{Generic: admissionFLOPs}
	joules := e.machine.Energy(e.costDuration(cost), e.cfg.Cores, false, false)
	return e.resolve(r, o, msg, joules, -1, nil, e.now)
}

// resolve is the single exit point of the taxonomy: it charges the
// request's joules to the tracker (resolution order IS ledger order —
// the conservation invariant depends on it), counts the outcome, and
// journals the resolution.
func (e *Engine) resolve(r Request, o Outcome, msg string, joules float64, class int, proba []float64, done time.Duration) Response {
	e.tracker.AddJoules(energy.Inference, joules)
	e.stats.Outcomes[o]++
	resp := Response{
		ID:      r.ID,
		Outcome: o,
		Class:   class,
		Proba:   proba,
		Done:    done,
		Latency: done - r.Arrival,
		Joules:  joules,
		Err:     msg,
	}
	if e.journal != nil {
		e.journal.Append(&resp)
	}
	return resp
}

// costDuration converts predict FLOPs to virtual duration on the
// engine's machine and core allotment.
func (e *Engine) costDuration(c ml.Cost) time.Duration {
	var d time.Duration
	for _, w := range c.Works(0) {
		d += e.machine.Duration(w, e.cfg.Cores)
	}
	return d
}

func argmax(p []float64) int {
	best := 0
	for i, v := range p {
		if v > p[best] {
			best = i
		}
	}
	return best
}
