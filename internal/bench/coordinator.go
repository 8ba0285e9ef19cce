package bench

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/vclock"
)

// CoordinatorConfig drives a multi-process sharded sweep: the
// coordinator spawns one subprocess per shard, each running its
// content-addressed slice of the grid against its own journal, and
// babysits them — crashed shards restart and resume from their partial
// journal, wedged shards are reclaimed by a process-level deadline, and
// a shard that exhausts its restart budget degrades the sweep instead
// of aborting it.
type CoordinatorConfig struct {
	// Shards is the number of grid slices (and subprocesses). Must be
	// positive.
	Shards int
	// MaxRestarts bounds how many times one shard is relaunched after
	// its first attempt (crashes and deadline kills both count). Zero
	// means a shard gets exactly one attempt.
	MaxRestarts int
	// Deadline is the process-level straggler policy: a shard whose
	// journal stops growing across Probes consecutive Interval-long
	// real-time windows is presumed wedged (hung runtime, stopped
	// process) and is SIGKILLed, then restarted under the normal
	// restart budget. The zero value disables deadline kills. The probe
	// cadence is operator real time, but the verdict depends only on
	// whether durable progress happened.
	Deadline WatchdogPolicy
	// Dir is where the shard journals live (created if missing). Each
	// shard i of N journals to Dir/shard-i-of-N.jsonl.
	Dir string
	// Command builds the subprocess for one shard: typically the
	// running binary re-invoked with -shard i/N and -journal path. The
	// coordinator starts, kills, and restarts what this returns; each
	// call must return a fresh unstarted Cmd. Restarted shards resume
	// from their journal, so the command must be idempotent under
	// re-execution.
	Command func(shard ShardSpec, journalPath string) *exec.Cmd
}

// WatchdogPolicy is the coordinator's straggler deadline: a shard
// whose journal stops growing across Probes consecutive real-time
// probe intervals is killed and restarted. Kill, restart and resume
// are byte-identity-safe, so the policy only decides how quickly a
// wedged shard is reclaimed, never what the merged records are.
type WatchdogPolicy struct {
	// Probes is how many consecutive probe intervals without journal
	// growth kill the shard. Zero disables the deadline.
	Probes int
	// Interval is the real-time probe period. It must be positive
	// when Probes is.
	Interval time.Duration
}

// Enabled reports whether the deadline is armed.
func (w WatchdogPolicy) Enabled() bool { return w.Probes > 0 }

// ShardStatus is the coordinator's account of one shard.
type ShardStatus struct {
	// Shard is the slice this status describes.
	Shard ShardSpec
	// Journal is the shard's journal path.
	Journal string
	// Launches counts subprocess launches, including restarts.
	Launches int
	// DeadlineKills counts launches the straggler deadline reclaimed.
	DeadlineKills int
	// Completed reports whether the shard eventually exited cleanly.
	Completed bool
	// Err describes the final failure of a shard that exhausted its
	// restart budget; empty for completed shards.
	Err string
}

// CoordinatorResult summarizes a coordinated sweep.
type CoordinatorResult struct {
	// Shards holds one status per shard, indexed by shard number.
	Shards []ShardStatus
	// JournalPaths lists every shard journal in shard order, the input
	// set for MergeJournals.
	JournalPaths []string
}

// Failed returns the shard specs that never completed. An empty result
// means the whole grid is covered by the journals.
func (r *CoordinatorResult) Failed() []ShardSpec {
	var failed []ShardSpec
	for _, s := range r.Shards {
		if !s.Completed {
			failed = append(failed, s.Shard)
		}
	}
	return failed
}

// ShardJournalPath names shard i-of-n's journal inside dir.
func ShardJournalPath(dir string, shard ShardSpec) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%d-of-%d.jsonl", shard.Index, shard.Count))
}

// RunCoordinator executes a sharded sweep across subprocesses. It
// returns once every shard has either completed or exhausted its
// restart budget; per-shard failure is reported in the result, not as
// an error — a dead shard costs its cells (reported as shard failures
// downstream), never the sweep. The error return covers coordinator-
// level failures only (unusable configuration or journal directory).
func RunCoordinator(cfg CoordinatorConfig) (*CoordinatorResult, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("bench: coordinator needs a positive shard count, got %d", cfg.Shards)
	}
	if cfg.Command == nil {
		return nil, fmt.Errorf("bench: coordinator needs a shard command builder")
	}
	if cfg.MaxRestarts < 0 {
		return nil, fmt.Errorf("bench: coordinator restart budget %d must not be negative", cfg.MaxRestarts)
	}
	if cfg.Deadline.Enabled() && cfg.Deadline.Interval <= 0 {
		return nil, fmt.Errorf("bench: coordinator deadline interval %v must be positive", cfg.Deadline.Interval)
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("bench: creating shard journal directory: %w", err)
	}

	res := &CoordinatorResult{Shards: make([]ShardStatus, cfg.Shards)}
	var wg sync.WaitGroup
	for i := 0; i < cfg.Shards; i++ {
		shard := ShardSpec{Index: i, Count: cfg.Shards}
		res.Shards[i] = ShardStatus{Shard: shard, Journal: ShardJournalPath(cfg.Dir, shard)}
		res.JournalPaths = append(res.JournalPaths, res.Shards[i].Journal)
		wg.Add(1)
		go func(st *ShardStatus) {
			defer wg.Done()
			runShardProcess(cfg, st)
		}(&res.Shards[i])
	}
	wg.Wait()
	return res, nil
}

// runShardProcess babysits one shard: launch, watch, restart. Each
// launch resumes from the shard's journal, so the cells lost to a kill
// are only those in flight at the instant of death — the same contract
// the single-process journal has, lifted to process granularity.
func runShardProcess(cfg CoordinatorConfig, st *ShardStatus) {
	for attempt := 0; attempt <= cfg.MaxRestarts; attempt++ {
		st.Launches++
		killed, err := launchAndWatch(cfg, st)
		if err == nil {
			st.Completed = true
			st.Err = ""
			return
		}
		if killed {
			st.DeadlineKills++
		}
		st.Err = err.Error()
	}
}

// launchAndWatch runs one shard subprocess attempt to completion,
// SIGKILLing it if the straggler deadline fires. killed reports a
// deadline kill (as opposed to the process dying on its own).
func launchAndWatch(cfg CoordinatorConfig, st *ShardStatus) (killed bool, err error) {
	cmd := cfg.Command(st.Shard, st.Journal)
	if cmd == nil {
		return false, fmt.Errorf("bench: shard %s: command builder returned nil", st.Shard)
	}
	if err := cmd.Start(); err != nil {
		return false, fmt.Errorf("bench: shard %s: starting subprocess: %w", st.Shard, err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()

	if !cfg.Deadline.Enabled() {
		if werr := <-done; werr != nil {
			return false, fmt.Errorf("bench: shard %s: subprocess failed: %w", st.Shard, werr)
		}
		return false, nil
	}

	// The process-level deadline probes the shard's journal size: a
	// shard making progress checkpoints cells, and each checkpoint grows
	// the journal, so a shard whose journal stops growing is a hung
	// *process* — a wedged runtime, a livelocked pool.
	//greenlint:allow wallclock coordinator process-deadline probe timer is operator-facing real time; kill/restart/resume is byte-identity-safe, so the verdict never reaches a measured quantity
	ticker := time.NewTicker(cfg.Deadline.Interval)
	defer ticker.Stop()
	stall := vclock.NewStallCounter(cfg.Deadline.Probes)
	stall.Observe(journalSize(st.Journal))
	for {
		select {
		case werr := <-done:
			if werr != nil {
				return false, fmt.Errorf("bench: shard %s: subprocess failed: %w", st.Shard, werr)
			}
			return false, nil
		case <-ticker.C:
			if !stall.Observe(journalSize(st.Journal)) {
				continue
			}
			// No durable progress across the deadline window: reclaim the
			// process. SIGKILL, not SIGTERM — a wedged process may not
			// service signals, and the journal makes abrupt death safe.
			cmd.Process.Kill()
			<-done
			return true, fmt.Errorf("bench: shard %s: no journal progress across %d probes — straggler killed", st.Shard, cfg.Deadline.Probes)
		}
	}
}

// journalSize probes a shard journal's size; a missing file (the shard
// has not created it yet) probes as zero.
func journalSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}
