package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/faults"
)

func TestResumableMatchesPlainRun(t *testing.T) {
	cfg := faultCfg(0.3, 4)
	path := filepath.Join(t.TempDir(), "run.jsonl")
	got, err := RunGridResumable(DefaultSystems(), cfg, path)
	if err != nil {
		t.Fatal(err)
	}
	want := RunGrid(DefaultSystems(), cfg)
	if !reflect.DeepEqual(got, want) {
		t.Error("journaled run differs from a plain run")
	}
	// A second invocation replays entirely from the journal.
	again, err := RunGridResumable(DefaultSystems(), cfg, path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, want) {
		t.Error("fully-journaled rerun differs from the original records")
	}
}

// TestResumeAfterKill simulates a run killed mid-grid: the journal is cut
// down to its header plus a few intact records and a torn partial line.
// Resuming must reproduce the uninterrupted run's records exactly.
func TestResumeAfterKill(t *testing.T) {
	cfg := faultCfg(0.3, 4)
	path := filepath.Join(t.TempDir(), "run.jsonl")
	want, err := RunGridResumable(DefaultSystems(), cfg, path)
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
	// Keep the header and the first four records, then tear the next line
	// mid-write.
	torn := strings.Join(lines[:5], "") + lines[5][:len(lines[5])/2]
	if err := os.WriteFile(path, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}

	got, err := RunGridResumable(DefaultSystems(), cfg, path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("killed-then-resumed run differs from the uninterrupted run")
	}
}

func TestJournalRefusesOtherGrid(t *testing.T) {
	cfg := faultCfg(0.3, 4)
	path := filepath.Join(t.TempDir(), "run.jsonl")
	if _, err := RunGridResumable(DefaultSystems(), cfg, path); err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.Seeds = 3
	_, err := RunGridResumable(DefaultSystems(), other, path)
	if err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("resuming a different grid returned %v, want fingerprint mismatch", err)
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	cfg := faultCfg(0.3, 4)
	base := Fingerprint(DefaultSystems(), cfg)
	if base != Fingerprint(DefaultSystems(), cfg) {
		t.Error("fingerprint is not deterministic")
	}
	altered := cfg
	altered.Faults.Seed++
	if Fingerprint(DefaultSystems(), altered) == base {
		t.Error("fault seed change did not alter the fingerprint")
	}
	altered = cfg
	altered.Retry.MaxAttempts = 7
	if Fingerprint(DefaultSystems(), altered) == base {
		t.Error("retry policy change did not alter the fingerprint")
	}
	if Fingerprint(DefaultSystems()[:3], cfg) == base {
		t.Error("system lineup change did not alter the fingerprint")
	}
}

// tinyCfg is the smallest clean grid the journal format tests rerun:
// two systems, two tiny datasets, one budget, one seed.
func tinyCfg() Config {
	cfg := chaosCfg()
	cfg.Seeds = 1
	cfg.Faults = faults.Config{}
	return cfg
}

// TestJournalRefusesV1: the pre-CRC version-1 format is no longer
// read. Opening such a journal is refused by the version check, and the
// refusal leaves the file's bytes untouched.
func TestJournalRefusesV1(t *testing.T) {
	cfg := tinyCfg()
	want := RunGrid(chaosSystems(), cfg)
	path := filepath.Join(t.TempDir(), "run.jsonl")
	fingerprint := Fingerprint(chaosSystems(), cfg)
	var sb strings.Builder
	fmt.Fprintf(&sb, `{"version":1,"fingerprint":%q}`+"\n", fingerprint)
	for _, rec := range want[:2] {
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		sb.Write(line)
		sb.WriteByte('\n')
	}
	v1 := []byte(sb.String())
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}

	j, err := openJournal(path, fingerprint, ShardSpec{})
	if err == nil {
		j.Close()
		t.Fatal("a version-1 journal opened")
	}
	if !strings.Contains(err.Error(), "version 1") {
		t.Errorf("refusal %q does not name version 1", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, v1) {
		t.Error("refusing a version-1 journal changed its bytes")
	}
}

// TestJournalV2SkipsDamagedLine: the CRC tells mid-file corruption from
// a format break, so a damaged checkpoint is skipped and counted while
// every intact line — before and after it — survives, and the resumed
// grid is still byte-identical.
func TestJournalV2SkipsDamagedLine(t *testing.T) {
	cfg := tinyCfg()
	path := filepath.Join(t.TempDir(), "run.jsonl")
	want, err := RunGridResumable(chaosSystems(), cfg, path)
	if err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if len(lines) < 4 {
		t.Fatalf("journal has only %d lines", len(lines))
	}
	// Corrupt the payload of the second record; its CRC no longer
	// matches.
	damaged := []byte(lines[2])
	damaged[len(damaged)/2] ^= 0xff
	lines[2] = string(damaged)
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}

	fingerprint := Fingerprint(chaosSystems(), cfg)
	j, err := openJournal(path, fingerprint, ShardSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if j.Discarded() != 1 || j.Len() != len(want)-1 {
		t.Fatalf("kept %d records and discarded %d, want %d and 1 — intact lines after the damage must survive",
			j.Len(), j.Discarded(), len(want)-1)
	}
	j.Close()

	got, err := RunGridResumable(chaosSystems(), cfg, path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("resume after skipping a damaged v2 line differs from the original run")
	}
}
