package bench

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/automl"
	"repro/internal/repo"
)

// repoLineup is the lineup the repository property tests run: two cheap
// searchers plus the zero-shot portfolio system the store enables.
func repoLineup() []automl.System {
	return []automl.System{automl.NewCAML(), automl.NewTabPFN(), automl.NewZeroShot()}
}

// openTestRepo opens a read-write repository in a fresh temp dir.
func openTestRepo(t *testing.T, opts repo.Options) *repo.Repository {
	t.Helper()
	rp, err := repo.Open(filepath.Join(t.TempDir(), "store"), opts)
	if err != nil {
		t.Fatal(err)
	}
	return rp
}

// exportBytes renders the records through both exporters; byte equality
// of these buffers is the property every warm replay must preserve.
func exportBytes(t *testing.T, records []Record) (csv, jsn []byte) {
	t.Helper()
	var cb, jb bytes.Buffer
	if err := WriteCSV(&cb, records); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&jb, records); err != nil {
		t.Fatal(err)
	}
	return cb.Bytes(), jb.Bytes()
}

// TestRepoWarmRunByteIdentical is the store's core property: a cold run
// populates the repository, and every subsequent warm run — at any
// worker count — replays entirely from it, performing zero fits while
// producing byte-identical CSV and JSON exports.
func TestRepoWarmRunByteIdentical(t *testing.T) {
	rp := openTestRepo(t, repo.Options{})
	cfg := tinyConfig()
	cfg.Repo = rp
	systems := repoLineup()

	cold, coldStats, err := runGrid(systems, withWorkers(cfg, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cold) == 0 {
		t.Fatal("empty grid")
	}
	if coldStats.Hits != 0 || coldStats.Misses != len(cold) || coldStats.Stored != len(cold) {
		t.Fatalf("cold stats %+v, want 0 hits, %d misses, %d stored", coldStats, len(cold), len(cold))
	}
	coldCSV, coldJSON := exportBytes(t, cold)

	for _, workers := range []int{1, 4} {
		ResetFitProbe()
		warm, stats, err := runGrid(systems, withWorkers(cfg, workers), nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if n := FitProbeCount(); n != 0 {
			t.Errorf("workers=%d: warm run performed %d fit(s), want 0", workers, n)
		}
		if stats.Hits != len(cold) || stats.Misses != 0 || stats.Damaged != 0 || stats.Stored != 0 {
			t.Errorf("workers=%d: warm stats %+v, want %d pure hits", workers, stats, len(cold))
		}
		warmCSV, warmJSON := exportBytes(t, warm)
		if !bytes.Equal(coldCSV, warmCSV) {
			t.Errorf("workers=%d: warm CSV differs from cold", workers)
		}
		if !bytes.Equal(coldJSON, warmJSON) {
			t.Errorf("workers=%d: warm JSON differs from cold", workers)
		}
	}
}

// TestRepoWarmShardMergeByteIdentical runs the warm grid as journaled
// shards — 1-shard and 2-shard partitions — and requires the merged
// journals to reproduce the cold run's exports byte for byte, still
// with zero fits: repository hits flow through shard journals into the
// merge unchanged.
func TestRepoWarmShardMergeByteIdentical(t *testing.T) {
	rp := openTestRepo(t, repo.Options{})
	cfg := tinyConfig()
	cfg.Repo = rp
	systems := repoLineup()

	cold, _, err := runGrid(systems, withWorkers(cfg, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	coldCSV, coldJSON := exportBytes(t, cold)
	fingerprint := Fingerprint(systems, cfg)
	refs := EnumerateCellRefs(systems, cfg)

	for _, shards := range []int{1, 2} {
		ResetFitProbe()
		var paths []string
		dir := t.TempDir()
		for idx := 0; idx < shards; idx++ {
			scfg := cfg
			scfg.Shard = ShardSpec{Index: idx, Count: shards}
			path := filepath.Join(dir, fmt.Sprintf("shard-%d-of-%d.jsonl", idx, shards))
			run, err := RunShard(systems, scfg, path)
			if err != nil {
				t.Fatalf("shards=%d idx=%d: %v", shards, idx, err)
			}
			if run.Repo.Hits != len(run.Records) {
				t.Errorf("shards=%d idx=%d: %d hits for %d records", shards, idx, run.Repo.Hits, len(run.Records))
			}
			paths = append(paths, path)
		}
		if n := FitProbeCount(); n != 0 {
			t.Errorf("shards=%d: warm shard runs performed %d fit(s), want 0", shards, n)
		}
		merged, err := MergeJournals(paths, fingerprint, refs)
		if err != nil {
			t.Fatalf("shards=%d: merge: %v", shards, err)
		}
		if len(merged.Missing) != 0 {
			t.Fatalf("shards=%d: merge missing %d cells", shards, len(merged.Missing))
		}
		csv, jsn := exportBytes(t, merged.Records)
		if !bytes.Equal(coldCSV, csv) {
			t.Errorf("shards=%d: merged CSV differs from cold", shards)
		}
		if !bytes.Equal(coldJSON, jsn) {
			t.Errorf("shards=%d: merged JSON differs from cold", shards)
		}
	}
}

// corruptOneCell flips a byte deep inside the first stored cell file,
// past the atomicio header so the damage is interior payload damage.
func corruptOneCell(t *testing.T, dir string) string {
	t.Helper()
	var target string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if target == "" && !d.IsDir() && strings.HasSuffix(path, ".cell") {
			target = path
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if target == "" {
		t.Fatal("no cell files in store")
	}
	data, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-9] ^= 0x40
	if err := os.WriteFile(target, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return target
}

// TestRepoDamagePolicy corrupts one stored cell and checks both halves
// of the damage contract: the default refuses the store outright, and
// -repo-allow-damage degrades the cell to a counted, re-executed,
// re-stored miss whose records still match the cold run byte for byte.
func TestRepoDamagePolicy(t *testing.T) {
	rp := openTestRepo(t, repo.Options{})
	cfg := tinyConfig()
	cfg.Repo = rp
	systems := repoLineup()

	cold, _, err := runGrid(systems, withWorkers(cfg, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	coldCSV, coldJSON := exportBytes(t, cold)
	corruptOneCell(t, rp.Dir())

	if _, _, err := runGrid(systems, withWorkers(cfg, 1), nil); !errors.Is(err, repo.ErrDamaged) {
		t.Fatalf("damaged store returned %v, want repo.ErrDamaged", err)
	}

	tolerant, err := repo.Open(rp.Dir(), repo.Options{AllowDamage: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Repo = tolerant
	warm, stats, err := runGrid(systems, withWorkers(cfg, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Damaged != 1 || stats.Misses != 1 || stats.Hits != len(cold)-1 || stats.Stored != 1 {
		t.Errorf("tolerant stats %+v, want 1 damaged, 1 miss, %d hits, 1 stored", stats, len(cold)-1)
	}
	csv, jsn := exportBytes(t, warm)
	if !bytes.Equal(coldCSV, csv) || !bytes.Equal(coldJSON, jsn) {
		t.Error("damage-tolerant rerun diverged from cold exports")
	}

	// The rerun re-stored the damaged cell, so the store is whole again.
	cfg.Repo = rp
	if _, stats, err := runGrid(systems, withWorkers(cfg, 1), nil); err != nil || stats.Hits != len(cold) {
		t.Errorf("healed store: err=%v stats=%+v, want %d pure hits", err, stats, len(cold))
	}
}

// TestRepoRunGridSurfacesDamage pins that RunGrid never returns a short
// grid: when the repository refuses a damaged cell, RunGrid panics with
// the repository's error, at one worker and at two, instead of silently
// returning fewer records.
func TestRepoRunGridSurfacesDamage(t *testing.T) {
	rp := openTestRepo(t, repo.Options{})
	cfg := tinyConfig()
	cfg.Repo = rp
	systems := repoLineup()
	if cold := RunGrid(systems, cfg); len(cold) == 0 {
		t.Fatal("empty grid")
	}
	corruptOneCell(t, rp.Dir())

	for _, workers := range []int{1, 2} {
		func() {
			defer func() {
				r := recover()
				if err, _ := r.(error); !errors.Is(err, repo.ErrDamaged) {
					t.Errorf("workers=%d: RunGrid over a damaged store panicked with %v, want repo.ErrDamaged", workers, r)
				}
			}()
			records := RunGrid(systems, withWorkers(cfg, workers))
			t.Errorf("workers=%d: RunGrid over a damaged store returned %d record(s) and no error", workers, len(records))
		}()
	}
}

// TestRepoMergeFusesMissingShard loses one shard's journal entirely and
// lets MergeJournalsRepo fill the hole from the repository: the merge
// reports repository hits instead of missing cells, and its records
// match the cold run exactly.
func TestRepoMergeFusesMissingShard(t *testing.T) {
	rp := openTestRepo(t, repo.Options{})
	cfg := tinyConfig()
	cfg.Repo = rp
	systems := repoLineup()

	cold, _, err := runGrid(systems, withWorkers(cfg, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	fingerprint := Fingerprint(systems, cfg)
	refs := EnumerateCellRefs(systems, cfg)

	// Run only shard 0 of 2 with a journal; shard 1's journal never exists.
	scfg := cfg
	scfg.Shard = ShardSpec{Index: 0, Count: 2}
	path := filepath.Join(t.TempDir(), "shard0.jsonl")
	if _, err := RunShard(systems, scfg, path); err != nil {
		t.Fatal(err)
	}

	// Without the store the merge degrades the lost shard's cells.
	plain, err := MergeJournals([]string{path}, fingerprint, refs)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Missing) == 0 {
		t.Fatal("both shards covered by one journal; shard split produced no hole to fuse")
	}

	fused, err := MergeJournalsRepo([]string{path}, fingerprint, refs, rp)
	if err != nil {
		t.Fatal(err)
	}
	if len(fused.Missing) != 0 {
		t.Fatalf("merge with store still missing %d cells", len(fused.Missing))
	}
	if fused.RepoHits != len(plain.Missing) {
		t.Errorf("repo hits %d, want %d (one per journal hole)", fused.RepoHits, len(plain.Missing))
	}
	coldCSV, coldJSON := exportBytes(t, cold)
	csv, jsn := exportBytes(t, fused.Records)
	if !bytes.Equal(coldCSV, csv) || !bytes.Equal(coldJSON, jsn) {
		t.Error("store-fused merge diverged from cold exports")
	}
}

// TestRepoReadOnlyStoresNothing runs a cold grid against a read-only
// store: everything misses, nothing is written.
func TestRepoReadOnlyStoresNothing(t *testing.T) {
	rw := openTestRepo(t, repo.Options{})
	cfg := tinyConfig()
	systems := []automl.System{automl.NewTabPFN()}
	cfg.Repo = rw
	if _, _, err := runGrid(systems, withWorkers(cfg, 1), nil); err != nil {
		t.Fatal(err)
	}

	ro, err := repo.Open(rw.Dir(), repo.Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Repo = ro
	// Warm pass still hits read-only.
	_, stats, err := runGrid(systems, withWorkers(cfg, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Hits == 0 || stats.Stored != 0 {
		t.Errorf("read-only warm stats %+v, want hits > 0 and 0 stored", stats)
	}

	// A different grid (new seed) misses and must not write back.
	cfg.Seed = 99
	_, stats, err = runGrid(systems, withWorkers(cfg, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Misses == 0 || stats.Stored != 0 {
		t.Errorf("read-only cold stats %+v, want misses > 0 and 0 stored", stats)
	}
}

// TestRepoSimulateEnsembles populates a store and simulates greedy
// ensembling over it: no fits, per-cell ensembles at least as good as
// chance, and a positive (tiny) simulated energy bill.
func TestRepoSimulateEnsembles(t *testing.T) {
	rp := openTestRepo(t, repo.Options{})
	cfg := tinyConfig()
	cfg.Repo = rp
	systems := repoLineup()
	if _, _, err := runGrid(systems, withWorkers(cfg, 1), nil); err != nil {
		t.Fatal(err)
	}

	ResetFitProbe()
	res, err := SimulateEnsembles(systems, cfg, rp)
	if err != nil {
		t.Fatal(err)
	}
	if n := FitProbeCount(); n != 0 {
		t.Errorf("simulation performed %d fit(s), want 0", n)
	}
	if len(res.Cells) == 0 {
		t.Fatal("no cells simulated")
	}
	if res.Missing != 0 || res.Damaged != 0 {
		t.Errorf("missing=%d damaged=%d on a fully populated store", res.Missing, res.Damaged)
	}
	if res.TotalKWh <= 0 {
		t.Error("simulation charged no energy — lookup+blend cost went unmetered")
	}
	for _, c := range res.Cells {
		if c.Members < 2 || c.Active < 1 {
			t.Errorf("cell %s/%s: members=%d active=%d", c.Dataset, FormatBudget(c.Budget), c.Members, c.Active)
		}
		if c.Ensemble < c.BestSingle-1e-9 {
			t.Errorf("cell %s/%s: ensemble %.4f below best single %.4f", c.Dataset, FormatBudget(c.Budget), c.Ensemble, c.BestSingle)
		}
		if c.KWh <= 0 {
			t.Errorf("cell %s/%s charged no energy", c.Dataset, FormatBudget(c.Budget))
		}
	}
	if out := res.Render(); !strings.Contains(out, "no refits") || !strings.Contains(out, "kWh") {
		t.Errorf("render missing expected framing:\n%s", out)
	}

	// Determinism: the same store simulates to the same result.
	again, err := SimulateEnsembles(systems, cfg, rp)
	if err != nil {
		t.Fatal(err)
	}
	if again.Render() != res.Render() {
		t.Error("simulation is not deterministic over an unchanged store")
	}
}

// TestRepoPortfolioFromRepo meta-learns a portfolio from stored winning
// configurations and checks it is non-empty and deterministic.
func TestRepoPortfolioFromRepo(t *testing.T) {
	rp := openTestRepo(t, repo.Options{})
	cfg := tinyConfig()
	cfg.Repo = rp
	if _, _, err := runGrid(repoLineup(), withWorkers(cfg, 1), nil); err != nil {
		t.Fatal(err)
	}
	portfolio, damaged, err := PortfolioFromRepo(rp, 4)
	if err != nil {
		t.Fatal(err)
	}
	if damaged != 0 {
		t.Errorf("%d damaged entries in a clean store", damaged)
	}
	if len(portfolio) == 0 || len(portfolio) > 4 {
		t.Fatalf("portfolio size %d, want 1..4", len(portfolio))
	}
	again, _, err := PortfolioFromRepo(rp, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(portfolio) {
		t.Fatalf("portfolio size changed across walks: %d vs %d", len(again), len(portfolio))
	}
	for i := range portfolio {
		if portfolio[i].Key() != again[i].Key() {
			t.Errorf("portfolio member %d differs across walks", i)
		}
	}
}

// TestRepoZeroShotInRoster pins the roster contract: the default lineup
// ends with the zero-shot portfolio system, so grid exports carry it.
func TestRepoZeroShotInRoster(t *testing.T) {
	systems := DefaultSystems()
	found := false
	for _, s := range systems {
		if s.Name() == "ZeroShot" {
			found = true
		}
	}
	if !found {
		t.Fatal("ZeroShot missing from DefaultSystems")
	}
	if len(systems) != 8 {
		t.Fatalf("%d default systems, want 8", len(systems))
	}
}

// TestRepoReplayAndResumeGenerateOnlyNeededDatasets checks that the
// zero-fit paths skip the work their outputs never read: a replay from
// a full read-only store and a resume from a complete journal generate
// no dataset, and a half-journaled resume generates only the datasets
// its executing cells need. Each run's records and exports equal the
// cold run's.
func TestRepoReplayAndResumeGenerateOnlyNeededDatasets(t *testing.T) {
	dir := t.TempDir()
	systems := []automl.System{automl.NewCAML(), automl.NewTabPFN()}
	cfg := withWorkers(tinyConfig(), 1)
	first := cfg.Datasets[0].Name
	rw, err := repo.Open(filepath.Join(dir, "store"), repo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Repo = rw
	journal := filepath.Join(dir, "cold.jsonl")
	datasetProbe.Store(0)
	cold, err := RunGridResumable(systems, cfg, journal)
	if err != nil {
		t.Fatal(err)
	}
	if n := datasetProbe.Load(); n != int64(len(cfg.Datasets)) {
		t.Fatalf("cold run generated %d datasets, want %d", n, len(cfg.Datasets))
	}
	coldCSV, coldJSON := exportBytes(t, cold)

	// The half journal keeps every cell of the first dataset and one of
	// the second, so only the second dataset's other cells execute.
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	half := lines[0]
	keptOther := false
	for _, line := range lines[1:] {
		if strings.Contains(line, `"Dataset":"`+first+`"`) {
			half += line
		} else if line != "" && !keptOther {
			half += line
			keptOther = true
		}
	}
	executing := len(cold) - (strings.Count(half, "\n") - 1)
	if executing < 1 || !keptOther {
		t.Fatalf("half journal leaves %d of %d cells to execute", executing, len(cold))
	}
	halfJournal := filepath.Join(dir, "half.jsonl")
	if err := os.WriteFile(halfJournal, []byte(half), 0o644); err != nil {
		t.Fatal(err)
	}
	ro, err := repo.Open(filepath.Join(dir, "store"), repo.Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	plain := cfg
	plain.Repo = nil
	readOnly := cfg
	readOnly.Repo = ro

	for _, tc := range []struct {
		name     string
		run      func() ([]Record, error)
		datasets int64
		fits     int64
	}{
		{"replay from a full read-only store", func() ([]Record, error) {
			records, _, err := runGrid(systems, readOnly, nil)
			return records, err
		}, 0, 0},
		{"resume from a complete journal", func() ([]Record, error) {
			return RunGridResumable(systems, plain, journal)
		}, 0, 0},
		{"half-journaled resume", func() ([]Record, error) {
			return RunGridResumable(systems, plain, halfJournal)
		}, 1, int64(executing)},
	} {
		datasetProbe.Store(0)
		ResetFitProbe()
		records, err := tc.run()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if n := datasetProbe.Load(); n != tc.datasets {
			t.Errorf("%s generated %d datasets, want %d", tc.name, n, tc.datasets)
		}
		if n := FitProbeCount(); n != tc.fits {
			t.Errorf("%s performed %d fits, want %d", tc.name, n, tc.fits)
		}
		csv, jsn := exportBytes(t, records)
		if !bytes.Equal(csv, coldCSV) || !bytes.Equal(jsn, coldJSON) {
			t.Errorf("%s: exports differ from the cold run's", tc.name)
		}
	}
}
