package vclock

import (
	"math/rand" //greenlint:allow globalrand testing/quick needs a v1 *rand.Rand; the source is explicitly seeded
	"testing"
	"testing/quick"
	"time"
)

func TestClockAdvance(t *testing.T) {
	c := New()
	if c.Now() != 0 {
		t.Fatalf("new clock at %v, want 0", c.Now())
	}
	c.Advance(3 * time.Second)
	c.Advance(2 * time.Second)
	if got := c.Now(); got != 5*time.Second {
		t.Errorf("Now() = %v, want 5s", got)
	}
	c.Advance(-time.Hour)
	if got := c.Now(); got != 5*time.Second {
		t.Errorf("negative advance moved the clock to %v", got)
	}
	c.Advance(0)
	if got := c.Now(); got != 5*time.Second {
		t.Errorf("zero advance moved the clock to %v", got)
	}
}

func TestMakespanSingleWorkerIsSum(t *testing.T) {
	tasks := []time.Duration{time.Second, 2 * time.Second, 3 * time.Second}
	if got := Makespan(tasks, 1); got != 6*time.Second {
		t.Errorf("Makespan(1 worker) = %v, want 6s", got)
	}
	if got := Makespan(tasks, 0); got != 6*time.Second {
		t.Errorf("Makespan(0 workers) = %v, want 6s (clamped)", got)
	}
}

func TestMakespanManyWorkersIsMax(t *testing.T) {
	tasks := []time.Duration{time.Second, 2 * time.Second, 3 * time.Second}
	if got := Makespan(tasks, 10); got != 3*time.Second {
		t.Errorf("Makespan(10 workers) = %v, want 3s (the longest task)", got)
	}
}

func TestMakespanIgnoresNonPositive(t *testing.T) {
	tasks := []time.Duration{-time.Second, 0, 2 * time.Second}
	if got := Makespan(tasks, 1); got != 2*time.Second {
		t.Errorf("Makespan = %v, want 2s", got)
	}
}

// TestMakespanBounds property-checks the classic scheduling bounds:
// max(task) <= makespan <= sum(task), and more workers never increase the
// makespan.
func TestMakespanBounds(t *testing.T) {
	property := func(raw []uint16, workers uint8) bool {
		tasks := make([]time.Duration, len(raw))
		var sum, max time.Duration
		for i, r := range raw {
			tasks[i] = time.Duration(r) * time.Millisecond
			sum += tasks[i]
			if tasks[i] > max {
				max = tasks[i]
			}
		}
		w := int(workers%8) + 1
		m := Makespan(tasks, w)
		if m < max || m > sum {
			return false
		}
		return Makespan(tasks, w+1) <= m
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(12))}); err != nil {
		t.Error(err)
	}
}

func TestClockAdvanceParallel(t *testing.T) {
	c := New()
	tasks := []time.Duration{4 * time.Second, time.Second, time.Second, time.Second, time.Second}
	got := c.AdvanceParallel(tasks, 2)
	// Greedy: worker A takes 4s; worker B takes 1+1+1+1 = 4s.
	if got != 4*time.Second {
		t.Errorf("AdvanceParallel makespan = %v, want 4s", got)
	}
	if c.Now() != got {
		t.Errorf("clock at %v after makespan %v", c.Now(), got)
	}
}

func TestBudgetLifecycle(t *testing.T) {
	c := New()
	c.Advance(time.Minute)
	b := NewBudget(c, 10*time.Second)
	if b.Exceeded() {
		t.Fatal("fresh budget already exceeded")
	}
	if got := b.Remaining(); got != 10*time.Second {
		t.Errorf("Remaining = %v, want 10s", got)
	}
	c.Advance(4 * time.Second)
	if got := b.Elapsed(); got != 4*time.Second {
		t.Errorf("Elapsed = %v, want 4s", got)
	}
	c.Advance(7 * time.Second)
	if !b.Exceeded() {
		t.Error("budget not exceeded after 11s of 10s")
	}
	if got := b.Remaining(); got != -time.Second {
		t.Errorf("Remaining = %v, want -1s", got)
	}
	if b.Duration() != 10*time.Second {
		t.Errorf("Duration = %v, want 10s", b.Duration())
	}
}

func TestBudgetString(t *testing.T) {
	b := NewBudget(New(), time.Second)
	if b.String() == "" {
		t.Error("empty budget string")
	}
}

func TestMakespanNonPositiveWorkers(t *testing.T) {
	durations := []time.Duration{2 * time.Second, 3 * time.Second}
	// Zero or negative workers degrade to serial execution rather than
	// dividing by zero or returning nothing.
	for _, workers := range []int{0, -1, -100} {
		if got := Makespan(durations, workers); got != 5*time.Second {
			t.Errorf("workers=%d: makespan %v, want serial 5s", workers, got)
		}
	}
}

func TestMakespanAllNonPositiveDurations(t *testing.T) {
	durations := []time.Duration{0, -time.Second, -time.Minute}
	for _, workers := range []int{1, 4} {
		if got := Makespan(durations, workers); got != 0 {
			t.Errorf("workers=%d: makespan %v for all-nonpositive tasks, want 0", workers, got)
		}
	}
	if got := Makespan(nil, 4); got != 0 {
		t.Errorf("makespan of no tasks = %v, want 0", got)
	}
}
