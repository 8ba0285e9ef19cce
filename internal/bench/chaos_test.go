package bench

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/automl"
	"repro/internal/faults"
	"repro/internal/openml"
)

// chaosSystems keeps the chaos grids small enough to rerun dozens of
// times per test: two systems, two datasets, one budget, two seeds.
func chaosSystems() []automl.System { return DefaultSystems()[:2] }

// chaosCfg is the crash-chaos grid: crash/error faults plus injected
// hangs, on deliberately tiny datasets. The fault
// seed is pinned so the baseline grid contains at least one stalled
// cell (asserted by the tests that rely on it).
func chaosCfg() Config {
	return Config{
		Datasets: openml.Suite()[:2],
		Budgets:  []time.Duration{10 * time.Second},
		Seeds:    2,
		Scale: openml.ScaleProfile{
			RowExponent: 0.3, MinRows: 60, MaxRows: 90,
			FeatureExponent: 0.3, MinFeatures: 4, MaxFeatures: 8,
			MaxClasses: 4,
		},
		Faults: faults.Config{Rate: 0.25, HangRate: 0.2, Seed: 11},
	}
}

// chaosKill simulates the process dying at one deterministic journal
// crash point: before the fatal append nothing is affected, and every
// append after it fails immediately — a dead process writes nothing
// more. Mode "torn" additionally tears the fatal line in half before
// dying, the on-disk state a real kill mid-write leaves behind.
type chaosKill struct {
	mode  string // crashAppendStart, crashAppendWritten, crashAppendSynced, or "torn"
	at    int    // zero-based append sequence to die at
	dead  bool
	fired bool
}

func (k *chaosKill) hook(point string, seq int, f *os.File, line []byte) error {
	if k.dead {
		return errors.New("chaos: journal belongs to a dead process")
	}
	target, torn := k.mode, false
	if k.mode == "torn" {
		target, torn = crashAppendWritten, true
	}
	if point != target || seq != k.at {
		return nil
	}
	k.dead, k.fired = true, true
	if torn {
		fi, err := f.Stat()
		if err != nil {
			return err
		}
		if err := f.Truncate(fi.Size() - int64(len(line)/2)); err != nil {
			return err
		}
	}
	return errors.New("chaos: killed at " + point)
}

// chaosExports renders the artifacts greenbench would write from the
// records: CSV, JSON, and the fig3 SVG chart.
func chaosExports(t *testing.T, records []Record) (csv, js, svg []byte) {
	t.Helper()
	var csvBuf, jsBuf, svgBuf bytes.Buffer
	if err := WriteCSV(&csvBuf, records); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&jsBuf, records); err != nil {
		t.Fatal(err)
	}
	stats := Aggregate(records, rand.New(rand.NewPCG(9, 9)))
	if err := WriteFig3SVG(&svgBuf, stats, false); err != nil {
		t.Fatal(err)
	}
	return csvBuf.Bytes(), jsBuf.Bytes(), svgBuf.Bytes()
}

// TestChaosKillResumeByteIdentical is the crash-chaos contract: a run
// killed at every deterministic journal crash point — before the write,
// mid-write with a torn line, after the write, and after the sync — and
// then resumed must yield records and CSV/JSON/SVG exports
// byte-identical to an uninterrupted run, at worker counts 1 and 4.
func TestChaosKillResumeByteIdentical(t *testing.T) {
	cfg := chaosCfg()
	want := RunGrid(chaosSystems(), withWorkers(cfg, 1))
	stalls := 0
	for _, r := range want {
		if r.Failure == faults.Stall {
			stalls++
			if !r.Fallback || !r.Scored() {
				t.Fatalf("%s/%s: stalled cell must degrade to a scored fallback: %+v", r.System, r.Dataset, r)
			}
		}
	}
	if stalls == 0 {
		t.Fatal("chaos baseline has no stalled cells — retune chaosCfg's hang rate or fault seed")
	}
	wantCSV, wantJSON, wantSVG := chaosExports(t, want)
	appends := len(want) // every cell journals exactly once in an uninterrupted run

	fingerprint := Fingerprint(chaosSystems(), cfg)
	modes := []string{crashAppendStart, "torn", crashAppendWritten, crashAppendSynced}
	for _, workers := range []int{1, 4} {
		for _, mode := range modes {
			// The torn-write mode — the trickiest recovery — is swept at
			// every append; the cleaner kills sample first/middle/last to
			// keep the matrix affordable under -race.
			seqs := []int{0, appends / 2, appends - 1}
			if mode == "torn" {
				seqs = seqs[:0]
				for at := 0; at < appends; at++ {
					seqs = append(seqs, at)
				}
			}
			for _, at := range seqs {
				name := fmt.Sprintf("workers=%d/%s/append=%d", workers, mode, at)
				path := filepath.Join(t.TempDir(), "run.jsonl")

				j, err := openJournal(path, fingerprint, ShardSpec{})
				if err != nil {
					t.Fatal(err)
				}
				kill := &chaosKill{mode: mode, at: at}
				j.crash = kill.hook
				_, _, err = runGrid(chaosSystems(), withWorkers(cfg, workers), j)
				j.Close()
				if err == nil || !kill.fired {
					t.Fatalf("%s: kill did not abort the run (err=%v, fired=%v)", name, err, kill.fired)
				}

				got, err := RunGridResumable(chaosSystems(), withWorkers(cfg, workers), path)
				if err != nil {
					t.Fatalf("%s: resume: %v", name, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: resumed records differ from the uninterrupted run", name)
				}
				csv, js, svg := chaosExports(t, got)
				if !bytes.Equal(csv, wantCSV) || !bytes.Equal(js, wantJSON) || !bytes.Equal(svg, wantSVG) {
					t.Fatalf("%s: resumed exports are not byte-identical", name)
				}
			}
		}
	}
}

// TestHangCellsDegradeToStall injects a hang into every Fit attempt:
// each cell must degrade (recorded as a stall, charged the budget it
// burned, scored by the fallback) without wedging the worker pool, and
// identically at worker counts 1 and 4.
func TestHangCellsDegradeToStall(t *testing.T) {
	cfg := chaosCfg()
	cfg.Faults = faults.Config{HangRate: 1, Seed: 3}
	want := RunGrid(chaosSystems(), withWorkers(cfg, 1))
	if n := expectedCells(chaosSystems(), cfg); len(want) != n {
		t.Fatalf("got %d records, want %d — stalled cells must not shrink the grid", len(want), n)
	}
	for _, r := range want {
		if r.Failure != faults.Stall {
			t.Fatalf("%s/%s: failure %q, want stall", r.System, r.Dataset, r.Failure)
		}
		if !r.Fallback || !r.Scored() || r.TestScore <= 0 {
			t.Fatalf("%s/%s: stalled cell must yield a scored fallback: %+v", r.System, r.Dataset, r)
		}
		if r.ExecKWh <= 0 || r.ExecTime <= 0 {
			t.Errorf("%s/%s: the budget a hang burned before stalling must stay charged: %v kWh, %v",
				r.System, r.Dataset, r.ExecKWh, r.ExecTime)
		}
		if r.Attempts != 1 {
			t.Errorf("%s/%s: stalled cell retried (%d attempts); a wedged trainer must degrade, not retry",
				r.System, r.Dataset, r.Attempts)
		}
	}
	got := RunGrid(chaosSystems(), withWorkers(cfg, 4))
	if !reflect.DeepEqual(got, want) {
		t.Error("stall records differ between worker counts")
	}
}

// TestChaosExportCrashLeavesOldArtifact covers the export-boundary
// crash point: a re-render that dies partway through must leave the
// previous artifact byte-intact under the final name and no temp
// litter behind.
func TestChaosExportCrashLeavesOldArtifact(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fig3.svg")
	records := []Record{{System: "S", Dataset: "d", Budget: time.Second, TestScore: 0.5}}
	stats := Aggregate(records, rand.New(rand.NewPCG(1, 2)))
	if err := WriteSVGFile(path, func(w io.Writer) error { return WriteFig3SVG(w, stats, false) }); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	boom := errors.New("chaos: render killed mid-export")
	err = WriteSVGFile(path, func(w io.Writer) error {
		if _, werr := w.Write([]byte("<svg>torn")); werr != nil {
			return werr
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("failed render returned %v, want the render error", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("failed re-render corrupted the previous artifact")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("failed export left temp litter: %d directory entries", len(entries))
	}
}
