package main

import (
	"sort"
	"sync"
	"time"
)

// Span is one timed interval at a layer boundary. Start and End are
// offsets from the tracer's epoch; Parent is the ID of the span that
// caused it, or -1 for a root.
type Span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Duration is the span's wall time.
func (s Span) Duration() time.Duration { return s.End - s.Start }

// Tracer keeps spans and counters in memory until the run ends. A nil
// *Tracer is the untraced mode: every method is a no-op, so workload code
// calls it unconditionally and pays nothing when tracing is off. It is
// safe for concurrent use, because grid workers open spans in parallel.
type Tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []Span
	counts map[string]float64
	phase  int
}

// NewTracer starts an empty trace whose epoch is now.
func NewTracer() *Tracer {
	return &Tracer{epoch: time.Now(), counts: make(map[string]float64), phase: -1}
}

// Begin opens a span under parent and returns its ID; -1 on a nil tracer.
func (t *Tracer) Begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Start: now, End: -1})
	return id
}

// End closes span id.
func (t *Tracer) End(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// BeginPhase opens a root span and makes it the parent of every span
// BeginChild opens until EndPhase.
func (t *Tracer) BeginPhase(name string) int {
	if t == nil {
		return -1
	}
	id := t.Begin(name, -1)
	t.mu.Lock()
	t.phase = id
	t.mu.Unlock()
	return id
}

// EndPhase closes the current phase span.
func (t *Tracer) EndPhase(id int) {
	if t == nil {
		return
	}
	t.End(id)
	t.mu.Lock()
	t.phase = -1
	t.mu.Unlock()
}

// BeginChild opens a span under the current phase.
func (t *Tracer) BeginChild(name string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	parent := t.phase
	t.mu.Unlock()
	return t.Begin(name, parent)
}

// Add bumps a counter recorded at a layer boundary.
func (t *Tracer) Add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// Count reads a counter.
func (t *Tracer) Count(name string) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// Spans returns a copy of every closed span.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// Named returns the spans called name.
func Named(spans []Span, name string) []Span {
	var out []Span
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// Children returns the spans whose parent is id.
func Children(spans []Span, id int) []Span {
	var out []Span
	for _, s := range spans {
		if s.Parent == id && s.ID != id {
			out = append(out, s)
		}
	}
	return out
}

// Total sums the spans' durations.
func Total(spans []Span) time.Duration {
	var d time.Duration
	for _, s := range spans {
		d += s.Duration()
	}
	return d
}

// SelfTime is the part of s's interval that none of its children cover.
// Children may overlap each other — parallel grid workers open sibling
// spans at once — so the covered part is the union of their intervals,
// clipped to s, not the sum of their durations.
func SelfTime(s Span, spans []Span) time.Duration {
	return s.Duration() - covered(Children(spans, s.ID), s.Start, s.End)
}

// covered measures the union of the spans' intervals within [lo, hi).
func covered(spans []Span, lo, hi time.Duration) time.Duration {
	type interval struct{ a, b time.Duration }
	ivs := make([]interval, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			ivs = append(ivs, interval{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	end := lo
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		total += v.b - max(v.a, end)
		end = v.b
	}
	return total
}

// TailIdle is how long before end fewer than workers of the spans were
// open at once: the time after the last instant every worker was busy.
// When that never happened, everything from the first span's start
// counts as tail.
func TailIdle(spans []Span, workers int, end time.Duration) time.Duration {
	if len(spans) == 0 {
		return 0
	}
	type event struct {
		at    time.Duration
		delta int
	}
	events := make([]event, 0, 2*len(spans))
	first := spans[0].Start
	for _, s := range spans {
		events = append(events, event{s.Start, +1}, event{s.End, -1})
		first = min(first, s.Start)
	}
	// Ends sort before starts at the same instant, so back-to-back cells
	// on one worker never count as two open at once.
	sort.Slice(events, func(i, j int) bool {
		if events[i].at != events[j].at {
			return events[i].at < events[j].at
		}
		return events[i].delta < events[j].delta
	})
	open, lastFull := 0, first
	for _, e := range events {
		if open >= workers {
			lastFull = e.at
		}
		open += e.delta
	}
	return max(0, end-lastFull)
}
