package serve

import (
	"sync"
	"time"
)

// Server adapts the deterministic Engine to concurrent callers in wall
// time: a mutex serializes engine access, a single real timer fires the
// batch window, and Predict blocks its caller until the engine resolves
// the request. This file is the serving layer's only bridge to the wall
// clock — the engine underneath never consults it, which is what keeps
// every robustness behavior testable on virtual time.
type Server struct {
	mu       sync.Mutex
	eng      *Engine
	start    time.Time
	waiters  map[uint64]chan Response
	nextID   uint64
	timer    *time.Timer
	timerGen uint64
	closed   bool
}

// NewServer wraps an engine for concurrent wall-time serving.
func NewServer(eng *Engine) *Server {
	s := &Server{eng: eng, waiters: make(map[uint64]chan Response)}
	//greenlint:allow wallclock the serving daemon maps real arrivals onto the engine's virtual timeline; this anchor is that mapping
	s.start = time.Now()
	return s
}

// now is the wall instant on the engine's timeline.
func (s *Server) now() time.Duration {
	//greenlint:allow wallclock the serving daemon maps real arrivals onto the engine's virtual timeline
	return time.Since(s.start)
}

// Predict submits one request and blocks until it resolves. Every call
// returns a response with exactly one Outcome — shed and degraded
// refusals return immediately, admitted requests wait for their batch.
func (s *Server) Predict(row []float64, deadline time.Duration) Response {
	s.mu.Lock()
	id := s.nextID
	s.nextID++
	ch := make(chan Response, 1)
	s.waiters[id] = ch
	req := Request{ID: id, Row: row, Arrival: s.now()}
	if deadline > 0 {
		req.Deadline = req.Arrival + deadline
	}
	s.route(s.eng.Submit(req))
	s.armLocked()
	s.mu.Unlock()
	return <-ch
}

// Reload atomically swaps the served model. In-flight requests keep
// their place in the queue and predict with the new model when their
// batch flushes; no request is dropped.
func (s *Server) Reload(m *Model) {
	s.mu.Lock()
	s.eng.Swap(m)
	s.mu.Unlock()
}

// Stats snapshots the engine.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng.Stats()
}

// Drain stops admission, flushes every queued batch and resolves every
// blocked caller — the SIGTERM path. Predict calls arriving after Drain
// resolve immediately as shed.
func (s *Server) Drain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	s.timerGen++ // invalidate any in-flight timer callback
	if s.timer != nil {
		s.timer.Stop()
	}
	s.route(s.eng.Drain(s.now()))
}

// route delivers resolutions to their blocked callers. Responses whose
// caller is unknown (load-generator traffic submitted directly to the
// engine) are dropped; the engine has already journaled and charged
// them.
func (s *Server) route(resps []Response) {
	for _, r := range resps {
		if ch, ok := s.waiters[r.ID]; ok {
			delete(s.waiters, r.ID)
			ch <- r
		}
	}
}

// armLocked schedules the wall timer for the engine's next due instant.
// Called with the mutex held after every engine interaction.
func (s *Server) armLocked() {
	if s.closed {
		return
	}
	for {
		due, ok := s.eng.nextEventAt()
		if !ok {
			return
		}
		delay := due - s.now()
		if delay > 0 {
			gen := s.timerGen + 1
			s.timerGen = gen
			if s.timer != nil {
				s.timer.Stop()
			}
			//greenlint:allow wallclock the batch-window timer is the one real-time trigger of the serving daemon, mirroring the coordinator deadline's pinned pattern
			s.timer = time.AfterFunc(delay, func() { s.onTimer(gen) })
			return
		}
		// Already due: flush inline and look again.
		s.route(s.eng.AdvanceTo(s.now()))
	}
}

// onTimer is the batch-window expiry: advance the engine to the current
// wall instant and hand out whatever resolved.
func (s *Server) onTimer(gen uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if gen != s.timerGen || s.closed {
		return
	}
	s.route(s.eng.AdvanceTo(s.now()))
	s.armLocked()
}
