package serve

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/energy"
)

func writeTestJournal(t *testing.T, path string, n int) float64 {
	t.Helper()
	j, err := NewJournal(path, "unit")
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for i := 0; i < n; i++ {
		r := Response{
			ID:      uint64(i),
			Outcome: Outcome(i % int(numOutcomes)),
			Class:   i % 3,
			Done:    time.Duration(i) * time.Millisecond,
			Latency: time.Duration(i) * 100 * time.Microsecond,
			Joules:  float64(i) * 0.125,
		}
		sum += r.Joules
		j.Append(&r)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return sum
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "serve.journal")
	sum := writeTestJournal(t, path, 20)
	rep, err := ReplayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Model != "unit" || len(rep.Records) != 20 || rep.Torn || rep.Damaged != 0 {
		t.Fatalf("replay: model %q, %d records, torn %v, damaged %d",
			rep.Model, len(rep.Records), rep.Torn, rep.Damaged)
	}
	// JSON float64 round-trips exactly (shortest-representation
	// encoding), so the durable ledger conserves bit-for-bit.
	if rep.TotalJoules() != sum {
		t.Fatalf("journal ledger %v J, wrote %v J", rep.TotalJoules(), sum)
	}
	if rep.Records[5].Outcome != Outcome(5%int(numOutcomes)).String() {
		t.Fatalf("record 5 outcome %q", rep.Records[5].Outcome)
	}
}

func TestJournalTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "serve.journal")
	writeTestJournal(t, path, 10)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Kill mid-write: the trailing line loses its last 7 bytes.
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := ReplayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Torn || rep.Damaged != 0 || len(rep.Records) != 9 {
		t.Fatalf("torn tail: torn %v damaged %d records %d, want true/0/9", rep.Torn, rep.Damaged, len(rep.Records))
	}
}

func TestJournalInteriorDamageSkippedAndCounted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "serve.journal")
	writeTestJournal(t, path, 10)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one byte in the middle of the file (not the last line).
	data[len(data)/2] ^= 0x20
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := ReplayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Damaged != 1 || rep.Torn || len(rep.Records) != 9 {
		t.Fatalf("interior damage: torn %v damaged %d records %d, want false/1/9", rep.Torn, rep.Damaged, len(rep.Records))
	}
}

// TestJournalLastLineDamageCounted: a complete final line that fails its
// CRC is corruption, not a kill mid-write, so it is counted as damage
// rather than reported as a torn tail.
func TestJournalLastLineDamageCounted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "serve.journal")
	writeTestJournal(t, path, 10)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	last := bytes.LastIndexByte(data[:len(data)-1], '\n') + 1
	data[(last+len(data))/2] ^= 0x20
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := ReplayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Torn || rep.Damaged != 1 || len(rep.Records) != 9 {
		t.Fatalf("last-line damage: torn %v damaged %d records %d, want false/1/9", rep.Torn, rep.Damaged, len(rep.Records))
	}
}

// TestJournalMissingFinalNewlineIsTorn: a final line whose '\n' never
// reached the disk is a torn write even though its payload verifies, so
// its request does not count as resolved and is re-served.
func TestJournalMissingFinalNewlineIsTorn(t *testing.T) {
	path := filepath.Join(t.TempDir(), "serve.journal")
	writeTestJournal(t, path, 10)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := ReplayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Torn || rep.Damaged != 0 || len(rep.Records) != 9 {
		t.Fatalf("missing final newline: torn %v damaged %d records %d, want true/0/9", rep.Torn, rep.Damaged, len(rep.Records))
	}
}

func TestJournalEngineIntegration(t *testing.T) {
	path := filepath.Join(t.TempDir(), "serve.journal")
	e := testEngine(t, &scriptedPredictor{classes: 2}, Config{BatchWindow: time.Millisecond})
	j, err := NewJournal(path, "scripted")
	if err != nil {
		t.Fatal(err)
	}
	e.SetJournal(j)
	for i := 0; i < 8; i++ {
		e.Submit(Request{ID: uint64(i), Row: []float64{float64(i % 2)}, Arrival: time.Duration(i) * 100 * time.Microsecond})
	}
	e.Drain(time.Second)
	if got := e.Stats().JournalDropped; got != 0 {
		t.Fatalf("healthy journal reports %d dropped operations", got)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := ReplayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) != 8 {
		t.Fatalf("journal holds %d records for 8 requests", len(rep.Records))
	}
	// The durable ledger IS the conservation ledger: journal order is
	// resolution order, so the sum matches the tracker bit-exactly.
	if got := e.Tracker().Joules(energy.Inference); got != rep.TotalJoules() {
		t.Fatalf("journal ledger %v J, tracker %v J", rep.TotalJoules(), got)
	}
}

// failingFile is a journal backing store whose every write and sync fails,
// like a full or yanked disk.
type failingFile struct{ writes, syncs int }

var errDiskGone = errors.New("disk gone")

func (f *failingFile) Write([]byte) (int, error) { f.writes++; return 0, errDiskGone }
func (f *failingFile) Sync() error               { f.syncs++; return errDiskGone }
func (f *failingFile) Close() error              { return nil }

func TestJournalCountsWriteAndSyncErrors(t *testing.T) {
	f := &failingFile{}
	j := newJournal(f)
	r := Response{ID: 1, Outcome: Served, Joules: 0.5}
	// One short line fits the write buffer, so nothing has failed yet.
	j.Append(&r)
	if got := j.Dropped(); got != 0 {
		t.Fatalf("buffered append counted %d drops", got)
	}
	// The flush reaches the failing file, and so does the sync.
	j.Flush()
	if got := j.Dropped(); got != 2 || f.writes == 0 || f.syncs != 1 {
		t.Fatalf("after flush: dropped %d (want 2), %d writes, %d syncs", got, f.writes, f.syncs)
	}
	// The buffer keeps its write error, so every later append fails too.
	j.Append(&r)
	if got := j.Dropped(); got != 3 {
		t.Fatalf("append after a failed flush: dropped %d, want 3", got)
	}
}

func TestJournalCountsMarshalErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "serve.journal")
	j, err := NewJournal(path, "unit")
	if err != nil {
		t.Fatal(err)
	}
	// JSON has no NaN, so this record cannot be marshalled.
	j.Append(&Response{ID: 1, Outcome: Failed, Joules: math.NaN()})
	j.Append(&Response{ID: 2, Outcome: Served, Joules: 0.25})
	if got := j.Dropped(); got != 1 {
		t.Fatalf("dropped %d, want 1", got)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := ReplayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Records) != 1 || rep.Records[0].ID != 2 {
		t.Fatalf("replayed %+v, want only record 2", rep.Records)
	}
}

// TestEngineSurfacesJournalDrops checks that a failing journal neither
// stops serving nor moves the tracker, and that Stats reports its drops.
func TestEngineSurfacesJournalDrops(t *testing.T) {
	e := testEngine(t, &scriptedPredictor{classes: 2}, Config{BatchWindow: time.Millisecond})
	e.SetJournal(newJournal(&failingFile{}))
	var resps []Response
	for i := 0; i < 8; i++ {
		resps = append(resps, e.Submit(Request{ID: uint64(i), Row: []float64{float64(i % 2)}, Arrival: time.Duration(i) * 100 * time.Microsecond})...)
	}
	resps = append(resps, e.Drain(time.Second)...)
	st := e.Stats()
	if st.Count(Served) != 8 {
		t.Fatalf("served %d of 8 requests", st.Count(Served))
	}
	if st.JournalDropped == 0 {
		t.Fatal("failing journal reported no dropped operations")
	}
	checkConservation(t, e, resps)
}
