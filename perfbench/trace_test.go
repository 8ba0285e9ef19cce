package main

import (
	"sync"
	"testing"
	"time"
)

func span(id, parent int, start, end time.Duration) Span {
	return Span{ID: id, Parent: parent, Name: "s", Start: start, End: end}
}

func TestSelfTime(t *testing.T) {
	cases := []struct {
		name  string
		spans []Span
		want  []time.Duration // self time of each span, indexed by ID
	}{
		{
			// Only direct children count against a span; a grandchild
			// counts against its own parent.
			name:  "nested",
			spans: []Span{span(0, -1, 0, 100), span(1, 0, 10, 40), span(2, 1, 20, 30)},
			want:  []time.Duration{70, 20, 10},
		},
		{
			// Two workers' children overlap each other and one outlives
			// the parent: the parent loses the union they cover inside
			// it, 60+10, not the sum of their durations.
			name:  "overlapping workers",
			spans: []Span{span(0, -1, 0, 100), span(1, 0, 10, 50), span(2, 0, 30, 70), span(3, 0, 90, 120)},
			want:  []time.Duration{30, 40, 40, 30},
		},
		{
			name:  "empty",
			spans: []Span{span(0, -1, 5, 5), span(1, -1, 0, 10), span(2, 1, 4, 4)},
			want:  []time.Duration{0, 10, 0},
		},
	}
	for _, c := range cases {
		for _, s := range c.spans {
			if got := SelfTime(s, c.spans); got != c.want[s.ID] {
				t.Errorf("%s: self time of span %d = %v, want %v", c.name, s.ID, got, c.want[s.ID])
			}
		}
	}
}

func TestTailIdle(t *testing.T) {
	cases := []struct {
		name    string
		spans   []Span
		workers int
		end     time.Duration
		want    time.Duration
	}{
		{"straggler", []Span{span(0, -1, 0, 50), span(1, -1, 0, 80)}, 2, 100, 50},
		{"back to back", []Span{span(0, -1, 0, 30), span(1, -1, 30, 60), span(2, -1, 0, 60)}, 2, 60, 0},
		{"never full", []Span{span(0, -1, 10, 20)}, 2, 30, 20},
		{"no spans", nil, 2, 30, 0},
	}
	for _, c := range cases {
		if got := TailIdle(c.spans, c.workers, c.end); got != c.want {
			t.Errorf("%s: tail idle %v, want %v", c.name, got, c.want)
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *Tracer
	phase := tr.BeginPhase("p")
	tr.End(tr.BeginChild("c"))
	tr.EndPhase(phase)
	tr.Add("n", 1)
	if phase != -1 || tr.Count("n") != 0 || tr.Spans() != nil {
		t.Errorf("nil tracer recorded: phase %d, count %v, spans %v", phase, tr.Count("n"), tr.Spans())
	}
}

// Grid workers open child spans and bump counters from several goroutines
// at once.
func TestTracerConcurrentChildren(t *testing.T) {
	tr := NewTracer()
	phase := tr.BeginPhase("grid")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.Add("calls", 1)
				tr.End(tr.BeginChild("cell"))
			}
		}()
	}
	wg.Wait()
	tr.EndPhase(phase)
	spans := tr.Spans()
	if got := len(Children(spans, phase)); got != 400 {
		t.Errorf("%d child spans, want 400", got)
	}
	if got := tr.Count("calls"); got != 400 {
		t.Errorf("counted %v calls, want 400", got)
	}
	if self := SelfTime(spans[phase], spans); self < 0 || self > spans[phase].Duration() {
		t.Errorf("self time %v outside [0, %v]", self, spans[phase].Duration())
	}
}
