// Package wallclock is a greenlint golden-file fixture.
package wallclock

import (
	"time"

	stdtime "time"
)

func bad() time.Duration {
	start := time.Now()              // want "\\[wallclock\\] call to time\\.Now"
	time.Sleep(5 * time.Millisecond) // want "\\[wallclock\\] call to time\\.Sleep"
	return time.Since(start)         // want "\\[wallclock\\] call to time\\.Since"
}

func aliased() stdtime.Time {
	return stdtime.Now() // want "\\[wallclock\\] call to time\\.Now"
}

func fine() time.Duration {
	t := time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC)
	_ = t.Add(time.Hour)
	return 3 * time.Second
}

func allowed() time.Time {
	//greenlint:allow wallclock operator-facing progress line, not a measured quantity
	return time.Now()
}

func timers() {
	<-time.After(time.Millisecond)           // want "\\[wallclock\\] call to time\\.After arms a wall-clock timer"
	_ = time.NewTimer(time.Millisecond)      // want "\\[wallclock\\] call to time\\.NewTimer arms a wall-clock timer"
	_ = time.NewTicker(time.Millisecond)     // want "\\[wallclock\\] call to time\\.NewTicker arms a wall-clock timer"
	_ = time.Tick(time.Millisecond)          // want "\\[wallclock\\] call to time\\.Tick arms a wall-clock timer"
	_ = time.AfterFunc(time.Hour, func() {}) // want "\\[wallclock\\] call to time\\.AfterFunc arms a wall-clock timer"
}

// watchdogTimer pins the sanctioned timer idiom: the coordinator's
// process deadline probes real time to notice shards whose journal
// stopped growing. The annotation below has the shape the deadline
// timer in internal/bench/coordinator.go uses; keep them in sync.
func watchdogTimer(probe time.Duration) {
	//greenlint:allow wallclock watchdog probe timer is operator-facing real time; stall decisions depend only on virtual progress
	ticker := time.NewTicker(probe)
	defer ticker.Stop()
	<-ticker.C
}
