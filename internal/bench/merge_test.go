package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/atomicio"
	"repro/internal/faults"
)

// mergeCfg is the merge tests' grid: the chaos grid without hang
// faults, so the dozens of shard runs the property test performs do not
// each pay the watchdog's real-time probe intervals.
func mergeCfg() Config {
	cfg := chaosCfg()
	cfg.Faults.HangRate = 0
	cfg.Watchdog = WatchdogPolicy{}
	return cfg
}

// runShardJournals executes every shard of an n-way split in the given
// completion order and returns the journal paths in that order.
func runShardJournals(t *testing.T, dir string, cfg Config, n int, order []int, workers int) []string {
	t.Helper()
	var paths []string
	for _, i := range order {
		scfg := withWorkers(cfg, workers)
		scfg.Shard = ShardSpec{Index: i, Count: n}
		path := filepath.Join(dir, fmt.Sprintf("s%d-of-%d.jsonl", i, n))
		if _, err := RunShard(chaosSystems(), scfg, path); err != nil {
			t.Fatalf("shard %d/%d: %v", i, n, err)
		}
		paths = append(paths, path)
	}
	return paths
}

// TestMergeDeterminismProperty fuzzes the merge invariant: for random
// shard counts, worker counts, shard completion orders, and journal
// argument orders, the merged records and exports must equal the
// unsharded single-worker oracle byte for byte.
func TestMergeDeterminismProperty(t *testing.T) {
	cfg := mergeCfg()
	systems := chaosSystems()
	want := RunGrid(systems, withWorkers(cfg, 1))
	wantCSV, wantJSON, wantSVG := chaosExports(t, want)
	fingerprint := Fingerprint(systems, cfg)
	refs := EnumerateCellRefs(systems, cfg)

	trials := 10
	if testing.Short() {
		trials = 3
	}
	rng := rand.New(rand.NewPCG(0x6d65, 0x7267))
	for trial := 0; trial < trials; trial++ {
		n := 1 + rng.IntN(5)
		workers := 1 + rng.IntN(4)
		order := rng.Perm(n)
		paths := runShardJournals(t, t.TempDir(), cfg, n, order, workers)
		rng.Shuffle(len(paths), func(i, j int) { paths[i], paths[j] = paths[j], paths[i] })

		res, err := MergeJournals(paths, fingerprint, refs)
		if err != nil {
			t.Fatalf("trial %d (n=%d workers=%d order=%v): %v", trial, n, workers, order, err)
		}
		if len(res.Missing) != 0 || res.Damaged != 0 {
			t.Fatalf("trial %d: clean merge reports %d missing, %d damaged", trial, len(res.Missing), res.Damaged)
		}
		if !reflect.DeepEqual(res.Records, want) {
			t.Fatalf("trial %d (n=%d workers=%d order=%v): merged records differ from oracle", trial, n, workers, order)
		}
		csv, js, svg := chaosExports(t, res.Records)
		if !bytes.Equal(csv, wantCSV) || !bytes.Equal(js, wantJSON) || !bytes.Equal(svg, wantSVG) {
			t.Fatalf("trial %d: merged exports differ from oracle", trial)
		}
	}
}

// TestMergeToleratesOverlapAcrossShardCounts: journals from a 2-way and
// a 4-way split of the same grid overlap heavily; the merge must accept
// the agreement and still reproduce the oracle.
func TestMergeToleratesOverlapAcrossShardCounts(t *testing.T) {
	cfg := mergeCfg()
	systems := chaosSystems()
	want := RunGrid(systems, withWorkers(cfg, 1))
	fingerprint := Fingerprint(systems, cfg)
	refs := EnumerateCellRefs(systems, cfg)

	dir := t.TempDir()
	paths := runShardJournals(t, dir, cfg, 2, []int{0, 1}, 1)
	paths = append(paths, runShardJournals(t, dir, cfg, 4, []int{3, 1, 0, 2}, 2)...)

	res, err := MergeJournals(paths, fingerprint, refs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Records, want) {
		t.Error("overlapping merge differs from oracle")
	}
	if len(res.PerJournal) != 6 {
		t.Errorf("PerJournal reports %d journals, want 6", len(res.PerJournal))
	}
}

// TestMergeRejectsConflictingRecords: two journals disagreeing about
// the same cell is a determinism violation and must refuse to merge,
// never silently pick a side.
func TestMergeRejectsConflictingRecords(t *testing.T) {
	cfg := mergeCfg()
	systems := chaosSystems()
	fingerprint := Fingerprint(systems, cfg)
	refs := EnumerateCellRefs(systems, cfg)

	dir := t.TempDir()
	paths := runShardJournals(t, dir, cfg, 1, []int{0}, 1)

	// Rerun the same whole grid under a journal, then corrupt one record
	// by rewriting a score — with a valid CRC, so only the merge's
	// conflict detection can catch it.
	forged := filepath.Join(dir, "forged.jsonl")
	if _, err := RunShard(systems, withWorkers(cfg, 1), forged); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(forged)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	tampered := false
	for i, line := range lines[1:] {
		if strings.Contains(line, `"TestScore"`) {
			var rec Record
			_, payload, _ := strings.Cut(line, " ")
			if err := json.Unmarshal([]byte(payload), &rec); err != nil {
				continue
			}
			rec.TestScore += 0.125
			forgedPayload, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			reline := atomicio.AppendJournalLine(nil, forgedPayload)
			lines[i+1] = strings.TrimSuffix(string(reline), "\n")
			tampered = true
			break
		}
	}
	if !tampered {
		t.Fatal("no scored record found to tamper with")
	}
	if err := os.WriteFile(forged, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = MergeJournals(append(paths, forged), fingerprint, refs)
	if err == nil || !strings.Contains(err.Error(), "disagree") {
		t.Errorf("conflicting journals merged (err=%v)", err)
	}
}

// TestMergeRejectsForeignFingerprint: a journal from a different grid
// configuration must refuse to merge.
func TestMergeRejectsForeignFingerprint(t *testing.T) {
	cfg := mergeCfg()
	systems := chaosSystems()
	refs := EnumerateCellRefs(systems, cfg)
	paths := runShardJournals(t, t.TempDir(), cfg, 1, []int{0}, 1)
	_, err := MergeJournals(paths, "feedfacefeedface", refs)
	if err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("foreign journal merged (err=%v)", err)
	}
}

// TestMergeReportsMissingCellsAsShardFailures: merging an incomplete
// journal set keeps the grid full-size — the uncovered cells appear in
// Missing and as shard-failure records in the taxonomy, exactly where a
// dead shard's cells land.
func TestMergeReportsMissingCellsAsShardFailures(t *testing.T) {
	cfg := mergeCfg()
	systems := chaosSystems()
	fingerprint := Fingerprint(systems, cfg)
	refs := EnumerateCellRefs(systems, cfg)

	// Run only shard 0 of 2; shard 1's cells are missing.
	paths := runShardJournals(t, t.TempDir(), cfg, 2, []int{0}, 1)
	res, err := MergeJournals(paths, fingerprint, refs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Missing) == 0 {
		t.Fatal("half the grid is absent but Missing is empty")
	}
	if len(res.Records) != len(refs) {
		t.Fatalf("merge returned %d records for a %d-cell grid — missing cells shrank the grid", len(res.Records), len(refs))
	}
	missing := make(map[string]bool, len(res.Missing))
	dead := ShardSpec{Index: 1, Count: 2}
	for _, ref := range res.Missing {
		missing[ref.ID()] = true
		if !dead.Owns(fingerprint, ref.ID()) {
			t.Errorf("missing cell %s is not owned by the absent shard", ref.ID())
		}
	}
	for i, rec := range res.Records {
		id := refs[i].ID()
		if missing[id] {
			if rec.Failure != faults.ShardFailure {
				t.Errorf("missing cell %s recorded as %q, want %q", id, rec.Failure, faults.ShardFailure)
			}
			if rec.Scored() {
				t.Errorf("missing cell %s carries a score", id)
			}
		} else if rec.Failure == faults.ShardFailure {
			t.Errorf("covered cell %s recorded as a shard failure", id)
		}
	}

	// The coordinator's completeness check: the holes are fine if the
	// absent shard is a known casualty, an error otherwise.
	if err := res.VerifyMissingOwnedBy(fingerprint, []ShardSpec{dead}); err != nil {
		t.Errorf("VerifyMissingOwnedBy rejected the dead shard's cells: %v", err)
	}
	if err := res.VerifyMissingOwnedBy(fingerprint, nil); err == nil {
		t.Error("VerifyMissingOwnedBy accepted missing cells with no failed shard to blame")
	}
	if err := res.VerifyMissingOwnedBy(fingerprint, []ShardSpec{{Index: 0, Count: 2}}); err == nil {
		t.Error("VerifyMissingOwnedBy accepted missing cells owned by a *completed* shard")
	}
}

// TestMergeCountsDamage: CRC-damaged interior lines in a shard journal
// surface in the merge result (per journal and in total), and the cells
// stay covered when another journal holds them.
func TestMergeCountsDamage(t *testing.T) {
	cfg := mergeCfg()
	systems := chaosSystems()
	want := RunGrid(systems, withWorkers(cfg, 1))
	fingerprint := Fingerprint(systems, cfg)
	refs := EnumerateCellRefs(systems, cfg)

	dir := t.TempDir()
	paths := runShardJournals(t, dir, cfg, 2, []int{0, 1}, 1)

	// Flip a payload byte in the first record line of shard 0's journal:
	// the CRC no longer matches, so the line reads as damaged.
	data, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	if len(lines) < 3 {
		t.Fatalf("shard journal has %d lines, want header plus at least one record", len(lines))
	}
	record := lines[1]
	record[bytes.IndexByte(record, '{')+1] ^= 0x20
	if err := os.WriteFile(paths[0], bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}

	// The damaged cell is now covered by no journal (shard journals do
	// not overlap), so it must surface as missing and damaged.
	res, err := MergeJournals(paths, fingerprint, refs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Damaged != 1 {
		t.Errorf("Damaged = %d, want 1", res.Damaged)
	}
	if res.PerJournal[0].Damaged != 1 || res.PerJournal[1].Damaged != 0 {
		t.Errorf("per-journal damage = %d/%d, want 1/0", res.PerJournal[0].Damaged, res.PerJournal[1].Damaged)
	}
	if len(res.Missing) != 1 {
		t.Errorf("Missing = %d cells, want exactly the damaged one", len(res.Missing))
	}

	// A whole-grid journal added to the mix re-covers the damaged cell:
	// damage stays reported, but nothing is missing and the records match
	// the oracle again.
	full := filepath.Join(dir, "full.jsonl")
	if _, err := RunShard(systems, withWorkers(cfg, 1), full); err != nil {
		t.Fatal(err)
	}
	res, err = MergeJournals(append(paths, full), fingerprint, refs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Damaged != 1 {
		t.Errorf("healed merge Damaged = %d, want 1 (damage stays visible)", res.Damaged)
	}
	if len(res.Missing) != 0 {
		t.Errorf("healed merge still missing %d cells", len(res.Missing))
	}
	if !reflect.DeepEqual(res.Records, want) {
		t.Error("healed merge differs from oracle")
	}
}

// TestMergeRejectsEmptyAndAbsentJournals: empty input sets and
// unreadable journals are configuration errors.
func TestMergeRejectsEmptyAndAbsentJournals(t *testing.T) {
	cfg := mergeCfg()
	refs := EnumerateCellRefs(chaosSystems(), cfg)
	if _, err := MergeJournals(nil, "x", refs); err == nil {
		t.Error("empty journal set merged")
	}
	if _, err := MergeJournals([]string{filepath.Join(t.TempDir(), "absent.jsonl")}, "x", refs); err == nil {
		t.Error("absent journal merged")
	}
	empty := filepath.Join(t.TempDir(), "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := MergeJournals([]string{empty}, "x", refs); err == nil {
		t.Error("zero-byte journal merged")
	}
}
