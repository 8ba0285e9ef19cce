package bench

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/openml"
)

// withWorkers returns cfg pinned to a worker count.
func withWorkers(cfg Config, n int) Config {
	cfg.Workers = n
	return cfg
}

// TestParallelGridIsByteIdentical is the scheduler's determinism
// contract: the records — and therefore the CSV and JSON exports built
// from them — must be byte-identical at every worker count, for clean
// and fault-injected grids alike.
func TestParallelGridIsByteIdentical(t *testing.T) {
	configs := map[string]Config{
		"clean": {
			Datasets: openml.Suite()[:3],
			Budgets:  []time.Duration{10 * time.Second, time.Minute},
			Seeds:    2,
		},
		"faults": faultCfg(0.3, 4),
	}
	counts := []int{1, 4, runtime.NumCPU()}
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			var wantCSV, wantJSON []byte
			var want []Record
			for _, n := range counts {
				records := RunGrid(DefaultSystems(), withWorkers(cfg, n))
				var csv, js bytes.Buffer
				if err := WriteCSV(&csv, records); err != nil {
					t.Fatal(err)
				}
				if err := WriteJSON(&js, records); err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want, wantCSV, wantJSON = records, csv.Bytes(), js.Bytes()
					continue
				}
				if !reflect.DeepEqual(records, want) {
					t.Fatalf("workers=%d records differ from workers=%d", n, counts[0])
				}
				if !bytes.Equal(csv.Bytes(), wantCSV) {
					t.Fatalf("workers=%d CSV export differs from workers=%d", n, counts[0])
				}
				if !bytes.Equal(js.Bytes(), wantJSON) {
					t.Fatalf("workers=%d JSON export differs from workers=%d", n, counts[0])
				}
			}
		})
	}
}

// TestParallelResumeAfterKill kills a parallel run mid-grid (the journal
// is cut to a few intact records plus a torn line) and resumes it with a
// different worker count. The resumed records must match an
// uninterrupted serial run exactly: the journal's out-of-order appends
// replay by cell identity, not by line position.
func TestParallelResumeAfterKill(t *testing.T) {
	cfg := faultCfg(0.3, 4)
	path := filepath.Join(t.TempDir(), "run.jsonl")
	want, err := RunGridResumable(DefaultSystems(), withWorkers(cfg, 1), path)
	if err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if len(lines) < 6 {
		t.Fatalf("journal has only %d lines", len(lines))
	}
	torn := strings.Join(lines[:5], "") + lines[5][:len(lines[5])/2]
	if err := os.WriteFile(path, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}

	got, err := RunGridResumable(DefaultSystems(), withWorkers(cfg, 4), path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("parallel resume differs from the uninterrupted serial run")
	}

	// The journal now checkpoints every cell; a fresh resume at yet
	// another worker count replays it without executing anything.
	again, err := RunGridResumable(DefaultSystems(), withWorkers(cfg, 3), path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, want) {
		t.Error("fully-journaled parallel rerun differs from the original records")
	}
}

// TestWorkersNotInFingerprint pins the design decision that the worker
// count is a throughput knob, not part of the grid's identity: a journal
// written at one count must resume at any other.
func TestWorkersNotInFingerprint(t *testing.T) {
	cfg := faultCfg(0.3, 4)
	base := Fingerprint(DefaultSystems(), withWorkers(cfg, 1))
	for _, n := range []int{2, 8, 0} {
		if Fingerprint(DefaultSystems(), withWorkers(cfg, n)) != base {
			t.Fatalf("workers=%d changed the journal fingerprint", n)
		}
	}
}

// withCellParallelism returns cfg pinned to a within-cell parallelism.
func withCellParallelism(cfg Config, n int) Config {
	cfg.Parallelism = n
	return cfg
}

// TestGridParallelismInvariance is the within-cell counterpart of
// TestParallelGridIsByteIdentical: records and exports must be
// byte-identical at every kernel parallelism level, for clean and
// fault-injected grids alike. Together with the ml package's
// parallelism-equivalence suite this closes the determinism chain from
// kernel float ops up to exported bytes.
func TestGridParallelismInvariance(t *testing.T) {
	configs := map[string]Config{
		"clean": {
			Datasets: openml.Suite()[:3],
			Budgets:  []time.Duration{10 * time.Second, time.Minute},
			Seeds:    2,
		},
		"faults": faultCfg(0.3, 4),
	}
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			var wantCSV, wantJSON []byte
			var want []Record
			for _, p := range []int{1, 2, 4} {
				records := RunGrid(DefaultSystems(), withCellParallelism(cfg, p))
				var csv, js bytes.Buffer
				if err := WriteCSV(&csv, records); err != nil {
					t.Fatal(err)
				}
				if err := WriteJSON(&js, records); err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want, wantCSV, wantJSON = records, csv.Bytes(), js.Bytes()
					continue
				}
				if !reflect.DeepEqual(records, want) {
					t.Fatalf("parallelism=%d records differ from parallelism=1", p)
				}
				if !bytes.Equal(csv.Bytes(), wantCSV) {
					t.Fatalf("parallelism=%d CSV export differs from parallelism=1", p)
				}
				if !bytes.Equal(js.Bytes(), wantJSON) {
					t.Fatalf("parallelism=%d JSON export differs from parallelism=1", p)
				}
			}
		})
	}
}

// TestParallelismNotInFingerprint pins the design decision that the
// within-cell parallelism level, like Workers, is a throughput knob and
// not part of the grid's identity: a journal written at one level must
// resume at any other.
func TestParallelismNotInFingerprint(t *testing.T) {
	cfg := faultCfg(0.3, 4)
	base := Fingerprint(DefaultSystems(), withCellParallelism(cfg, 1))
	for _, p := range []int{2, 8, 0} {
		if Fingerprint(DefaultSystems(), withCellParallelism(cfg, p)) != base {
			t.Fatalf("parallelism=%d changed the journal fingerprint", p)
		}
	}
}

// TestCellParallelismAuto checks the automatic budget: explicit values
// win, saturated grids stay sequential per cell, and idle workers are
// split across the cells that remain.
func TestCellParallelismAuto(t *testing.T) {
	mkCells := func(uncached, cached int) []gridCell {
		cells := make([]gridCell, 0, uncached+cached)
		for i := 0; i < uncached; i++ {
			cells = append(cells, gridCell{})
		}
		for i := 0; i < cached; i++ {
			cells = append(cells, gridCell{cached: &Record{}})
		}
		return cells
	}
	cases := []struct {
		name             string
		parallelism      int
		workers          int
		uncached, cached int
		want             int
	}{
		{name: "explicit wins", parallelism: 3, workers: 8, uncached: 100, want: 3},
		{name: "saturated grid stays sequential", workers: 4, uncached: 16, want: 1},
		{name: "idle workers split across tail", workers: 8, uncached: 2, cached: 30, want: 4},
		{name: "single live cell gets everything", workers: 8, uncached: 1, cached: 63, want: 8},
		{name: "fully cached grid is moot", workers: 8, cached: 10, want: 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Parallelism: tc.parallelism, Workers: tc.workers}
			if got := cellParallelism(cfg, mkCells(tc.uncached, tc.cached)); got != tc.want {
				t.Fatalf("cellParallelism = %d, want %d", got, tc.want)
			}
		})
	}
}

// TestJournalAppendFailureDrainsWorkers kills the journal (every append
// past the third fails, as a dying disk would) at one worker and at
// four: the run must surface the error, every worker goroutine must
// drain rather than leak, and the checkpoints that landed before the
// failure must still resume to the full grid.
func TestJournalAppendFailureDrainsWorkers(t *testing.T) {
	cfg := faultCfg(0.3, 4)
	want := RunGrid(DefaultSystems(), cfg)
	for _, workers := range []int{1, 4} {
		before := runtime.NumGoroutine()
		path := filepath.Join(t.TempDir(), "run.jsonl")
		j, err := openJournal(path, Fingerprint(DefaultSystems(), cfg), ShardSpec{})
		if err != nil {
			t.Fatal(err)
		}
		j.crash = func(point string, seq int, _ *os.File, _ []byte) error {
			if point == crashAppendStart && seq >= 3 {
				return errors.New("injected journal device failure")
			}
			return nil
		}
		_, _, err = runGrid(DefaultSystems(), withWorkers(cfg, workers), j)
		j.Close()
		if err == nil || !strings.Contains(err.Error(), "journal device failure") {
			t.Fatalf("workers=%d: journal failure returned %v, want the injected device error", workers, err)
		}

		// The worker pool must have drained: give lingering goroutines a
		// moment to unwind, then require the count to settle near where
		// it started.
		settled := false
		for i := 0; i < 200 && !settled; i++ {
			settled = runtime.NumGoroutine() <= before+2
			if !settled {
				//greenlint:allow wallclock test-only settle poll while goroutines unwind; nothing measured
				time.Sleep(5 * time.Millisecond)
			}
		}
		if n := runtime.NumGoroutine(); !settled {
			t.Fatalf("workers=%d: worker goroutines leaked after journal failure: %d before the run, %d after", workers, before, n)
		}

		// The partial journal holds the three checkpoints that beat the
		// failure; resuming from it must reproduce the uninterrupted grid.
		got, err := RunGridResumable(DefaultSystems(), withWorkers(cfg, workers), path)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: resume from the partial journal differs from an uninterrupted run", workers)
		}
	}
}
