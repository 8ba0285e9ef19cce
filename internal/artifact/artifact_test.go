package artifact

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/atomicio"
	"repro/internal/pipeline"
	"repro/internal/tabular"
)

// testFrame builds a small deterministic two-class frame with one
// categorical column, exercising the kinds path of the codec.
func testFrame(rows int) *tabular.Frame {
	rng := rand.New(rand.NewPCG(7, 7))
	f := tabular.NewFrame("unit", rows, 3)
	f.Classes = 2
	f.Y = make([]int, rows)
	f.Kinds = []tabular.FeatureKind{tabular.Numeric, tabular.Numeric, tabular.Categorical}
	for i := 0; i < rows; i++ {
		y := i % 2
		f.Y[i] = y
		f.Cols[0][i] = float64(y) + 0.3*rng.NormFloat64()
		f.Cols[1][i] = -float64(y) + 0.3*rng.NormFloat64()
		f.Cols[2][i] = float64(i % 3)
	}
	return f
}

func testSpec(tb testing.TB) Spec {
	tb.Helper()
	return Spec{
		Dataset:           "unit",
		Models:            []string{"tree"},
		DataPreprocessors: true,
		ComplexityCaps:    map[string]float64{"tree": 0.8},
		Params:            pipeline.Config{"model": 0, "tree.max_depth": 4},
		Seed:              42,
		Train:             testFrame(80),
	}
}

func TestBuildDeterministic(t *testing.T) {
	spec := testSpec(t)
	a, _, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint != b.Fingerprint {
		t.Fatalf("two builds of the same spec fingerprint differently: %016x vs %016x",
			a.Fingerprint, b.Fingerprint)
	}
	if a.Classes != 2 || len(a.Priors) != 2 {
		t.Fatalf("classes/priors: got %d classes, %d priors", a.Classes, len(a.Priors))
	}
	if got := a.Priors[0] + a.Priors[1]; math.Abs(got-1) > 1e-12 {
		t.Fatalf("priors sum to %v", got)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	spec := testSpec(t)
	m, _, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.gart")
	if err := Save(path, m); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Fingerprint != m.Fingerprint {
		t.Fatalf("fingerprint changed through save/load: %016x vs %016x", loaded.Fingerprint, m.Fingerprint)
	}
	if loaded.Majority != m.Majority || loaded.Classes != m.Classes {
		t.Fatalf("fallback metadata changed: majority %d/%d classes %d/%d",
			loaded.Majority, m.Majority, loaded.Classes, m.Classes)
	}
	// The loaded pipeline must predict bit-identically to the saved one.
	test := testFrame(24)
	wantProba, _ := m.Pipe.PredictProba(test.All())
	gotProba, _ := loaded.Pipe.PredictProba(test.All())
	for i := range wantProba {
		for c := range wantProba[i] {
			if wantProba[i][c] != gotProba[i][c] {
				t.Fatalf("prediction drift at row %d class %d: %v vs %v",
					i, c, gotProba[i][c], wantProba[i][c])
			}
		}
	}
	if loaded.Spec.Params.Key() != spec.Params.Key() {
		t.Fatalf("params changed through save/load: %s vs %s", loaded.Spec.Params.Key(), spec.Params.Key())
	}
}

func saveTestArtifact(t *testing.T) (path string, m *Model) {
	t.Helper()
	m, _, err := Build(testSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	path = filepath.Join(t.TempDir(), "model.gart")
	if err := Save(path, m); err != nil {
		t.Fatal(err)
	}
	return path, m
}

func TestLoadRefusesCorruption(t *testing.T) {
	path, _ := saveTestArtifact(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte (past the 16-byte envelope header); the
	// envelope CRC must catch it before the artifact decoder runs.
	data[16+len(data[16:])/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = Load(path)
	if !errors.Is(err, atomicio.ErrChecksum) {
		t.Fatalf("corrupt payload: err = %v, want atomicio.ErrChecksum", err)
	}
}

// rewrap replaces an artifact's payload, recomputing the envelope CRC so
// the tampering survives the checksum layer — the taxonomy layer under
// test is the artifact decoder itself.
func rewrap(t *testing.T, path string, mutate func(payload []byte) []byte) {
	t.Helper()
	payload, err := atomicio.ReadFileChecksummed(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := atomicio.WriteFileChecksummedBytes(path, mutate(append([]byte(nil), payload...))); err != nil {
		t.Fatal(err)
	}
}

func TestLoadRefusesVersionMismatch(t *testing.T) {
	path, _ := saveTestArtifact(t)
	rewrap(t, path, func(p []byte) []byte {
		binary.LittleEndian.PutUint16(p[4:6], Version+1)
		return p
	})
	_, _, err := Load(path)
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("future version: err = %v, want ErrVersion", err)
	}
}

func TestLoadRefusesForeignPayload(t *testing.T) {
	path, _ := saveTestArtifact(t)
	rewrap(t, path, func(p []byte) []byte {
		return []byte("a valid envelope holding something that is not an artifact")
	})
	_, _, err := Load(path)
	if !errors.Is(err, ErrMalformed) {
		t.Fatalf("foreign payload: err = %v, want ErrMalformed", err)
	}
}

func TestLoadRefusesTruncatedPayload(t *testing.T) {
	path, _ := saveTestArtifact(t)
	rewrap(t, path, func(p []byte) []byte { return p[:len(p)-9] })
	_, _, err := Load(path)
	if !errors.Is(err, ErrMalformed) {
		t.Fatalf("truncated payload: err = %v, want ErrMalformed", err)
	}
}

func TestLoadRefusesFingerprintMismatch(t *testing.T) {
	path, _ := saveTestArtifact(t)
	// Flip the stored fingerprint (the final 8 payload bytes) and
	// recompute the CRC: the refit must disagree and be refused.
	rewrap(t, path, func(p []byte) []byte {
		fp := binary.LittleEndian.Uint64(p[len(p)-8:])
		binary.LittleEndian.PutUint64(p[len(p)-8:], fp^0xdeadbeef)
		return p
	})
	_, _, err := Load(path)
	if !errors.Is(err, ErrFingerprint) {
		t.Fatalf("tampered fingerprint: err = %v, want ErrFingerprint", err)
	}
}

// TestLoadRefusesTamperedTrainingData pins the fingerprint's purpose: a
// tampered training cell (with a recomputed CRC) yields a different
// refit, which the stored fingerprint catches.
func TestLoadRefusesTamperedTrainingData(t *testing.T) {
	path, _ := saveTestArtifact(t)
	rewrap(t, path, func(p []byte) []byte {
		// Poison row 10 of feature column 0 (columns are the 3×80×8
		// bytes just before the trailing fingerprint). The pipeline
		// standard-scales this column, so one 1e9 cell shifts every
		// standardized value and the refit must predict differently.
		off := len(p) - 8 - 3*80*8 + 10*8
		binary.LittleEndian.PutUint64(p[off:], math.Float64bits(1e9))
		return p
	})
	_, _, err := Load(path)
	if err == nil {
		t.Fatal("tampered training data was accepted")
	}
	if !errors.Is(err, ErrFingerprint) && !errors.Is(err, ErrMalformed) {
		t.Fatalf("tampered training data: error %v is outside the refusal taxonomy", err)
	}
}

// TestLoadRefusesUnresolvableSpec pins the taxonomy for payloads that
// parse but describe no buildable pipeline: an out-of-range label or a
// model family the registry does not know is ErrMalformed, not an
// unclassified refit failure.
func TestLoadRefusesUnresolvableSpec(t *testing.T) {
	cases := map[string]func(*Spec){
		"label_out_of_range": func(s *Spec) { s.Train.Y[0] = 7 },
		"no_such_family":     func(s *Spec) { s.Models = []string{"no_such_family"} },
	}
	for _, family := range []string{"adaboost", "qda", "hist_gradient_boosting"} {
		cases[family] = func(s *Spec) { s.Models = []string{family} }
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			path, m := saveTestArtifact(t)
			spec := testSpec(t)
			mutate(&spec)
			if err := Save(path, &Model{Spec: spec, Fingerprint: m.Fingerprint}); err != nil {
				t.Fatal(err)
			}
			_, _, err := Load(path)
			if !errors.Is(err, ErrMalformed) {
				t.Fatalf("unresolvable spec: err = %v, want ErrMalformed", err)
			}
		})
	}
}

func TestLoadMissingFile(t *testing.T) {
	_, _, err := Load(filepath.Join(t.TempDir(), "absent.gart"))
	if err == nil {
		t.Fatal("loading a missing file succeeded")
	}
	for _, sentinel := range []error{atomicio.ErrChecksum, atomicio.ErrMalformed, ErrMalformed, ErrVersion, ErrFingerprint} {
		if errors.Is(err, sentinel) {
			t.Fatalf("missing file misclassified as %v", sentinel)
		}
	}
}

// TestEnvelopeCRCMatchesSpec double-checks the envelope is the atomicio
// one (CRC32-IEEE over the payload) so external tooling can verify
// artifacts without this package.
func TestEnvelopeCRCMatchesSpec(t *testing.T) {
	path, _ := saveTestArtifact(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := binary.LittleEndian.Uint32(data[4:8])
	if got := crc32.ChecksumIEEE(data[16:]); got != want {
		t.Fatalf("envelope CRC %08x, header says %08x", got, want)
	}
}

// artifactPinSHA256 is the SHA-256 of encode's payload for testSpec with
// a fixed fingerprint. The fingerprint is a constant rather than a refit
// so the pin covers the GART format alone, not the kernels behind Build.
const artifactPinSHA256 = "c2d1fce65c22feb47fe0101a477bd4b369ca5e261ce2097a44ebd3990986dd44"

// TestEncodeBytesPinned pins the artifact payload bytes: a codec change
// that moves one byte on disk fails here, even if it round-trips.
func TestEncodeBytesPinned(t *testing.T) {
	payload, err := encode(&Model{Spec: testSpec(t), Fingerprint: 0x0123_4567_89ab_cdef})
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(payload)); got != artifactPinSHA256 {
		t.Fatalf("artifact payload SHA-256 %s, pinned %s", got, artifactPinSHA256)
	}
}

// FuzzArtifactPayload checks the artifact decoder, the decode that runs
// before the refit, on arbitrary payloads: it never panics, every
// refusal is ErrMalformed or ErrVersion, and the spec and fingerprint of
// an accepted payload survive encode → decode bit for bit. The seeds are
// a valid payload and the payload mutations of the TestLoadRefuses*
// cases.
func FuzzArtifactPayload(f *testing.F) {
	// An 8-row frame keeps the seeds small, and with them the time the
	// fuzzer spends minimising each new input.
	spec := testSpec(f)
	spec.Train = testFrame(8)
	valid, err := encode(&Model{Spec: spec, Fingerprint: 0x0123_4567_89ab_cdef})
	if err != nil {
		f.Fatal(err)
	}
	mutate := func(m func(p []byte)) []byte {
		p := append([]byte(nil), valid...)
		m(p)
		return p
	}
	f.Add(valid)
	f.Add(mutate(func(p []byte) { binary.LittleEndian.PutUint16(p[4:6], Version+1) }))
	f.Add([]byte("a valid envelope holding something that is not an artifact"))
	f.Add(valid[:len(valid)-9])
	f.Add(mutate(func(p []byte) {
		fp := binary.LittleEndian.Uint64(p[len(p)-8:])
		binary.LittleEndian.PutUint64(p[len(p)-8:], fp^0xdeadbeef)
	}))
	f.Add(mutate(func(p []byte) { binary.LittleEndian.PutUint64(p[len(p)-8-3*8*8+2*8:], math.Float64bits(1e9)) }))
	unresolvable := []func(*Spec){func(s *Spec) { s.Train.Y[0] = 7 }}
	for _, family := range []string{"no_such_family", "adaboost", "qda", "hist_gradient_boosting"} {
		unresolvable = append(unresolvable, func(s *Spec) { s.Models = []string{family} })
	}
	for _, m := range unresolvable {
		s := spec
		s.Train = testFrame(8)
		m(&s)
		payload, err := encode(&Model{Spec: s})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		spec, fp, err := decode(payload)
		if err != nil {
			if !errors.Is(err, ErrMalformed) && !errors.Is(err, ErrVersion) {
				t.Fatalf("refusal %v wraps neither ErrMalformed nor ErrVersion", err)
			}
			return
		}
		again, err := encode(&Model{Spec: spec, Fingerprint: fp})
		if err != nil {
			t.Fatalf("accepted spec does not re-encode: %v", err)
		}
		spec2, fp2, err := decode(again)
		if err != nil {
			t.Fatalf("decoding a re-encoded spec: %v", err)
		}
		if fp2 != fp || !sameSpec(spec2, spec) {
			t.Fatalf("round trip: got %+v/%016x, want %+v/%016x", spec2, fp2, spec, fp)
		}
	})
}

// sameSpec compares two specs field by field, floats by their bits, so
// NaN payloads and −0 count.
func sameSpec(a, b Spec) bool {
	sameBits := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	sameMap := func(x, y map[string]float64) bool {
		return maps.EqualFunc(x, y, sameBits) && (x == nil) == (y == nil)
	}
	if a.Dataset != b.Dataset || !slices.Equal(a.Models, b.Models) || (a.Models == nil) != (b.Models == nil) ||
		a.DataPreprocessors != b.DataPreprocessors || a.FeaturePreprocessors != b.FeaturePreprocessors ||
		!sameMap(a.ComplexityCaps, b.ComplexityCaps) || !sameMap(a.Params, b.Params) || a.Seed != b.Seed {
		return false
	}
	x, y := a.Train, b.Train
	if x.Name != y.Name || x.Classes != y.Classes || !slices.Equal(x.Y, y.Y) ||
		!slices.Equal(x.Kinds, y.Kinds) || (x.Kinds == nil) != (y.Kinds == nil) || len(x.Cols) != len(y.Cols) {
		return false
	}
	for j := range x.Cols {
		if !slices.EqualFunc(x.Cols[j], y.Cols[j], sameBits) {
			return false
		}
	}
	return true
}
