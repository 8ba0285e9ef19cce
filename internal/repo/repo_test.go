package repo

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/atomicio"
	"repro/internal/ml"
)

func testEntry(key string) *Entry {
	return &Entry{
		Fingerprint: "fp01",
		Key:         key,
		System:      "CAML",
		Dataset:     "credit-g",
		Score:       0.8125,
		Record:      []byte(`{"system":"CAML","score":0.8125}`),
		Config:      []byte(`{"model":1}`),
		Rows:        3,
		Classes:     2,
		Proba:       []float64{0.9, 0.1, 0.25, 0.75, math.Copysign(0, -1), 1},
		InferCost:   ml.Cost{Generic: 12, Tree: 3, Matrix: 0.5},
	}
}

func mustOpen(t *testing.T, dir string, opts Options) *Repository {
	t.Helper()
	r, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRoundTrip(t *testing.T) {
	r := mustOpen(t, t.TempDir(), Options{})
	want := testEntry("CAML|credit-g|30000000000|1")
	if err := r.Put(want); err != nil {
		t.Fatal(err)
	}
	got, damaged, err := r.Get(want.Fingerprint, want.Key)
	if err != nil || damaged {
		t.Fatalf("Get: damaged=%v err=%v", damaged, err)
	}
	if got == nil {
		t.Fatal("stored cell not found")
	}
	if !sameEntry(got, want) {
		t.Fatalf("round trip: got %+v, want %+v", got, want)
	}
}

// sameEntry compares two entries field by field, floats by their bits,
// so NaN payloads and −0 count. An empty Record or Config equals a nil
// one: decodeEntry normalises empty blobs to nil.
func sameEntry(a, b *Entry) bool {
	sameBits := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if a.Fingerprint != b.Fingerprint || a.Key != b.Key || a.System != b.System || a.Dataset != b.Dataset ||
		!sameBits(a.Score, b.Score) || !bytes.Equal(a.Record, b.Record) || !bytes.Equal(a.Config, b.Config) ||
		a.Rows != b.Rows || a.Classes != b.Classes || len(a.Proba) != len(b.Proba) ||
		!sameBits(a.InferCost.Generic, b.InferCost.Generic) || !sameBits(a.InferCost.Tree, b.InferCost.Tree) ||
		!sameBits(a.InferCost.Matrix, b.InferCost.Matrix) {
		return false
	}
	for i := range a.Proba {
		if !sameBits(a.Proba[i], b.Proba[i]) {
			return false
		}
	}
	return true
}

func TestGetMiss(t *testing.T) {
	r := mustOpen(t, t.TempDir(), Options{})
	e, damaged, err := r.Get("fp01", "nope")
	if e != nil || damaged || err != nil {
		t.Fatalf("miss: got (%v, %v, %v), want (nil, false, nil)", e, damaged, err)
	}
}

func TestPutValidation(t *testing.T) {
	r := mustOpen(t, t.TempDir(), Options{})
	e := testEntry("k")
	e.Proba = e.Proba[:4]
	if err := r.Put(e); err == nil || !strings.Contains(err.Error(), "proba") {
		t.Fatalf("mis-sized proba accepted: %v", err)
	}
	e = testEntry("k")
	e.Fingerprint = ""
	if err := r.Put(e); err == nil {
		t.Fatal("empty fingerprint accepted")
	}
}

func TestReadOnly(t *testing.T) {
	dir := t.TempDir()
	rw := mustOpen(t, dir, Options{})
	if err := rw.Put(testEntry("k")); err != nil {
		t.Fatal(err)
	}
	ro := mustOpen(t, dir, Options{ReadOnly: true})
	if err := ro.Put(testEntry("k2")); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("read-only Put: %v, want ErrReadOnly", err)
	}
	if e, _, err := ro.Get("fp01", "k"); err != nil || e == nil {
		t.Fatalf("read-only Get: %v, %v", e, err)
	}
	// Read-only open of a missing store is an error, not an empty store.
	if _, err := Open(filepath.Join(dir, "absent"), Options{ReadOnly: true}); err == nil {
		t.Fatal("read-only open of missing dir accepted")
	}
}

// corrupt locates the single cell file under dir and mutates it.
func corrupt(t *testing.T, dir string, mutate func([]byte) []byte) {
	t.Helper()
	var path string
	err := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(p, cellExt) {
			path = p
		}
		return err
	})
	if err != nil || path == "" {
		t.Fatalf("locating cell file: %v (path %q)", err, path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, mutate(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

// corruptions are the envelope mutations TestCorruptionRefused applies
// to a stored cell; FuzzCellPayload seeds its corpus with them.
var corruptions = []struct {
	name   string
	mutate func([]byte) []byte
}{
	{"torn tail below header", func(b []byte) []byte { return b[:7] }},
	{"torn tail mid payload", func(b []byte) []byte { return b[:len(b)-9] }},
	{"interior bit flip", func(b []byte) []byte {
		b[len(b)/2] ^= 0x40
		return b
	}},
	{"foreign file", func(b []byte) []byte { return []byte("not an envelope") }},
}

func TestCorruptionRefused(t *testing.T) {
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			r := mustOpen(t, dir, Options{})
			if err := r.Put(testEntry("k")); err != nil {
				t.Fatal(err)
			}
			corrupt(t, dir, tc.mutate)
			checkDamaged(t, dir)
		})
	}
}

// checkDamaged requires the single cell fp01/k under dir to be refused
// with ErrDamaged by Get and Walk, and to be a counted miss under
// AllowDamage.
func checkDamaged(t *testing.T, dir string) {
	t.Helper()
	r := mustOpen(t, dir, Options{})
	e, damaged, err := r.Get("fp01", "k")
	if e != nil || !damaged || !errors.Is(err, ErrDamaged) {
		t.Fatalf("refusing repo: got (%v, %v, %v), want (nil, true, ErrDamaged)", e, damaged, err)
	}
	if _, err := r.Walk(func(*Entry) error { return nil }); !errors.Is(err, ErrDamaged) {
		t.Fatalf("refusing walk: %v, want ErrDamaged", err)
	}

	tolerant := mustOpen(t, dir, Options{AllowDamage: true})
	e, damaged, err = tolerant.Get("fp01", "k")
	if e != nil || !damaged || err != nil {
		t.Fatalf("tolerant repo: got (%v, %v, %v), want (nil, true, nil)", e, damaged, err)
	}
	n, werr := tolerant.Walk(func(*Entry) error { return nil })
	if werr != nil || n != 1 {
		t.Fatalf("tolerant walk: damaged=%d err=%v", n, werr)
	}
}

// overflowPayload is a well-formed cell payload whose header promises
// 2^31 rows × 2^30 classes with no slab bytes: 8·rows·classes wraps to
// 0, the length of the (empty) slab.
func overflowPayload() []byte {
	e := testEntry("k")
	e.Rows, e.Classes, e.Proba = 1<<31, 1<<30, nil
	return encodeEntry(e)
}

// TestOverflowingSlabHeaderIsDamage stores a CRC-valid cell whose slab
// shape overflows: it must be damage, never a panic.
func TestOverflowingSlabHeaderIsDamage(t *testing.T) {
	dir := t.TempDir()
	r := mustOpen(t, dir, Options{})
	path := r.cellPath("fp01", "k")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := atomicio.WriteFileChecksummedBytes(path, overflowPayload()); err != nil {
		t.Fatal(err)
	}
	checkDamaged(t, dir)
}

// FuzzCellPayload checks the cell codec on arbitrary bytes: decodeEntry
// never panics, a payload it accepts re-encodes to the same bytes (the
// encoding is canonical), and an entry derived from the bytes survives
// encodeEntry → decodeEntry bit for bit. The seeds are a valid payload,
// TestCorruptionRefused's mutations of it and the overflowing header.
func FuzzCellPayload(f *testing.F) {
	f.Add(encodeEntry(testEntry("k")))
	for _, c := range corruptions {
		f.Add(c.mutate(encodeEntry(testEntry("k"))))
	}
	f.Add(overflowPayload())
	f.Fuzz(func(t *testing.T, data []byte) {
		if e, err := decodeEntry(data); err == nil && !bytes.Equal(encodeEntry(e), data) {
			t.Fatalf("accepted payload re-encodes differently: %+v", e)
		}
		want := fuzzEntry(data)
		got, err := decodeEntry(encodeEntry(want))
		if err != nil {
			t.Fatalf("decoding an encoded entry: %v", err)
		}
		if !sameEntry(got, want) {
			t.Fatalf("round trip: got %+v, want %+v", got, want)
		}
	})
}

// fuzzEntry derives an entry from raw bytes: strings and blobs of up to
// 8 bytes, a slab of up to 8 × 3 values, and every float taken bit for
// bit from the next 8 bytes, so NaN payloads and −0 occur.
func fuzzEntry(raw []byte) *Entry {
	next := func(n int) []byte {
		n = min(n, len(raw))
		b := raw[:n]
		raw = raw[n:]
		return b
	}
	size := func() int {
		if b := next(1); len(b) == 1 {
			return int(b[0] % 9)
		}
		return 0
	}
	float := func() float64 {
		var b [8]byte
		copy(b[:], next(8))
		return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
	}
	e := &Entry{
		Fingerprint: string(next(size())),
		Key:         string(next(size())),
		System:      string(next(size())),
		Dataset:     string(next(size())),
		Score:       float(),
		Record:      next(size()),
		Config:      next(size()),
		Rows:        size(),
		Classes:     size() % 4,
	}
	for range e.Rows * e.Classes {
		e.Proba = append(e.Proba, float())
	}
	e.InferCost = ml.Cost{Generic: float(), Tree: float(), Matrix: float()}
	return e
}

func TestKeyAliasingDetected(t *testing.T) {
	dir := t.TempDir()
	r := mustOpen(t, dir, Options{})
	if err := r.Put(testEntry("k")); err != nil {
		t.Fatal(err)
	}
	// Move the intact cell to the path of a different key: the envelope
	// still verifies, but the payload's key no longer matches the path's
	// promise — the hash-collision case.
	orig := r.cellPath("fp01", "k")
	alias := r.cellPath("fp01", "other")
	if err := os.Rename(orig, alias); err != nil {
		t.Fatal(err)
	}
	e, damaged, err := r.Get("fp01", "other")
	if e != nil || !damaged || !errors.Is(err, ErrDamaged) {
		t.Fatalf("aliased cell: got (%v, %v, %v), want (nil, true, ErrDamaged)", e, damaged, err)
	}
}

func TestWalkSorted(t *testing.T) {
	r := mustOpen(t, t.TempDir(), Options{})
	keys := []string{"z|d|1|1", "a|d|1|1", "m|d|1|1"}
	for _, k := range keys {
		e := testEntry(k)
		if err := r.Put(e); err != nil {
			t.Fatal(err)
		}
		e2 := testEntry(k)
		e2.Fingerprint = "fp00"
		if err := r.Put(e2); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	damaged, err := r.Walk(func(e *Entry) error {
		got = append(got, e.Fingerprint+"/"+e.Key)
		return nil
	})
	if err != nil || damaged != 0 {
		t.Fatalf("walk: damaged=%d err=%v", damaged, err)
	}
	want := []string{
		"fp00/a|d|1|1", "fp00/m|d|1|1", "fp00/z|d|1|1",
		"fp01/a|d|1|1", "fp01/m|d|1|1", "fp01/z|d|1|1",
	}
	if len(got) != len(want) {
		t.Fatalf("walked %d entries, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("walk order[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestPutOverwrites(t *testing.T) {
	r := mustOpen(t, t.TempDir(), Options{})
	e := testEntry("k")
	if err := r.Put(e); err != nil {
		t.Fatal(err)
	}
	e2 := testEntry("k")
	e2.Score = 0.99
	if err := r.Put(e2); err != nil {
		t.Fatal(err)
	}
	got, _, err := r.Get("fp01", "k")
	if err != nil || got == nil || got.Score != 0.99 {
		t.Fatalf("overwrite not visible: %+v err=%v", got, err)
	}
}

func TestEmptyRecordConfigRoundTripNil(t *testing.T) {
	r := mustOpen(t, t.TempDir(), Options{})
	e := testEntry("k")
	e.Record = nil
	e.Config = nil
	if err := r.Put(e); err != nil {
		t.Fatal(err)
	}
	got, _, err := r.Get("fp01", "k")
	if err != nil {
		t.Fatal(err)
	}
	if got.Record != nil || got.Config != nil {
		t.Fatalf("empty blobs decoded non-nil: %v / %v", got.Record, got.Config)
	}
}

// cellPinSHA256 is the SHA-256 of encodeEntry(testEntry("k")).
const cellPinSHA256 = "3cb819d05dcddf8a7f56541a31a51c6de3d39e4685b1ce27edc7403573d0b2de"

// TestEncodeEntryBytesPinned pins the cell payload bytes: a codec change
// that moves one byte on disk fails here, even if it round-trips.
func TestEncodeEntryBytesPinned(t *testing.T) {
	if got := fmt.Sprintf("%x", sha256.Sum256(encodeEntry(testEntry("k")))); got != cellPinSHA256 {
		t.Fatalf("cell payload SHA-256 %s, pinned %s", got, cellPinSHA256)
	}
}

// TestDecodedEntryOwnsItsBytes checks that decodeEntry copies every blob
// out of the payload: an entry a walk keeps must not alias, and so pin,
// the cell file it was read from.
func TestDecodedEntryOwnsItsBytes(t *testing.T) {
	payload := encodeEntry(testEntry("k"))
	e, err := decodeEntry(payload)
	if err != nil {
		t.Fatal(err)
	}
	clear(payload)
	if !sameEntry(e, testEntry("k")) {
		t.Fatalf("clearing the payload changed the decoded entry: %+v", e)
	}
}

// aliasEntry is cell i of TestRepoPooledReadsDoNotAlias: every field
// differs between cells, and the cells differ in size, so a reused read
// buffer holds another cell's bytes at every offset.
func aliasEntry(i int) *Entry {
	rows, classes := 3+5*i, 2+i%3
	proba := make([]float64, rows*classes)
	for j := range proba {
		proba[j] = float64(i*1000+j) / 7
	}
	return &Entry{
		Fingerprint: "fp01",
		Key:         fmt.Sprintf("sys%d|dataset-%d|%d|%d", i, i, 10*(i+1), i),
		System:      fmt.Sprintf("sys%d", i),
		Dataset:     fmt.Sprintf("dataset-%d", i),
		Score:       float64(i) / 9,
		Record:      []byte(fmt.Sprintf(`{"System":"sys%d","Pad":"%s"}`, i, strings.Repeat("r", 40*i))),
		Config:      []byte(fmt.Sprintf(`{"model":%d,"pad":"%s"}`, i, strings.Repeat("c", 17*i))),
		Rows:        rows,
		Classes:     classes,
		Proba:       proba,
		InferCost:   ml.Cost{Generic: float64(i), Tree: 2, Matrix: 0.5},
	}
}

// TestRepoPooledReadsDoNotAlias checks that cell reads, which share
// pooled file buffers, hand out entries that own their bytes: every
// entry a Get or a Walk returns stays equal to what was stored after
// later reads of other cells, one after another and from two
// goroutines at once.
func TestRepoPooledReadsDoNotAlias(t *testing.T) {
	r := mustOpen(t, t.TempDir(), Options{})
	const cells = 6
	for i := 0; i < cells; i++ {
		if err := r.Put(aliasEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	// reads gets every cell in the given order, then walks the store,
	// and returns each entry it was handed, with the cell it holds.
	reads := func(order []int) (map[*Entry]int, error) {
		got := make(map[*Entry]int)
		for _, i := range order {
			e, damaged, err := r.Get("fp01", aliasEntry(i).Key)
			if err != nil || damaged || e == nil {
				return nil, fmt.Errorf("get cell %d: entry %v, damaged %v: %w", i, e != nil, damaged, err)
			}
			got[e] = i
		}
		i := 0
		_, err := r.Walk(func(e *Entry) error {
			got[e] = i // the walk visits keys in order, and key order is cell order
			i++
			return nil
		})
		return got, err
	}
	check := func(what string, got map[*Entry]int) {
		t.Helper()
		if len(got) != 2*cells {
			t.Fatalf("%s: %d entries, want %d", what, len(got), 2*cells)
		}
		for e, i := range got {
			if !sameEntry(e, aliasEntry(i)) {
				t.Fatalf("%s: cell %d changed after later reads: %+v", what, i, e)
			}
		}
	}

	got, err := reads([]int{0, 5, 1, 4, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	check("sequential", got)

	var (
		wg      sync.WaitGroup
		results [2]map[*Entry]int
		errs    [2]error
	)
	for g, order := range [2][]int{{5, 4, 3, 2, 1, 0}, {0, 2, 4, 1, 3, 5}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20 && errs[g] == nil; round++ {
				results[g], errs[g] = reads(order)
			}
		}()
	}
	wg.Wait()
	for g := range results {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		check(fmt.Sprintf("goroutine %d", g), results[g])
	}
}
