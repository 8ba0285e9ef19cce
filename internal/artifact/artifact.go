// Package artifact persists fitted pipelines as versioned, checksummed
// files the serving daemon can load, verify and hot-reload.
//
// The repository's core invariant — experiments replay bit-identically —
// makes serialization radically simpler than pickling model internals:
// a fitted pipeline is fully determined by (space spec, configuration,
// seed, training frame), because SpaceSpec.Build reconstructs the same
// pipeline object and Pipeline.Fit is deterministic given the same view
// and rng stream. An artifact therefore stores exactly that tuple, plus
// a fingerprint over the fitted model's predictions on a fixed probe of
// the training rows. Load refits deterministically and refuses the
// artifact if the fingerprint disagrees — catching a registry drift, a
// changed kernel, or tampering that survived the CRC (a payload rewritten
// wholesale with a recomputed checksum).
//
// Refusal taxonomy, coarsest to finest:
//
//   - atomicio.ErrMalformed / ErrMalformed: not an envelope, the
//     payload does not parse as an artifact, or the parsed spec cannot
//     be built (an invalid training frame, an unknown model family).
//   - atomicio.ErrChecksum: the envelope is damaged (bit rot, truncation).
//   - ErrVersion: a well-formed artifact from an incompatible format
//     revision; never guessed at.
//   - ErrFingerprint: the artifact decoded and refit, but the fitted
//     model predicts differently than the one that was saved.
//
// Damage is always refused, never repaired. All errors identify the path.
package artifact

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"sort"

	"repro/internal/atomicio"
	"repro/internal/ml"
	"repro/internal/pipeline"
	"repro/internal/tabular"
)

var (
	// ErrMalformed marks a payload that is not an artifact: wrong inner
	// magic, a structure that does not parse, or a spec that parses but
	// names an invalid training frame or an unknown model family.
	ErrMalformed = errors.New("artifact: malformed payload")
	// ErrVersion marks an artifact written by an incompatible format
	// revision.
	ErrVersion = errors.New("artifact: unsupported format version")
	// ErrFingerprint marks an artifact whose deterministic refit predicts
	// differently than the model that was saved.
	ErrFingerprint = errors.New("artifact: fingerprint mismatch after refit")
)

// Version is the current artifact format revision. Readers refuse any
// other value with ErrVersion.
const Version = 1

// artifactMagic brands the payload inside the checksummed envelope, so a
// valid envelope holding some other format is ErrMalformed here rather
// than a garbage decode.
var artifactMagic = [4]byte{'G', 'A', 'R', 'T'}

// probeRows caps how many training rows feed the prediction fingerprint.
const probeRows = 64

// rngStream is the fixed PCG stream constant paired with Spec.Seed, kept
// distinct from the automl harness stream so an artifact refit never
// aliases a search-time rng sequence.
const rngStream = 0xa27f_ac75

// Spec is the deterministic recipe for a fitted pipeline: everything
// Build needs to reconstruct it bit-identically.
type Spec struct {
	// Dataset names the training data (Frame.Name).
	Dataset string
	// Models, DataPreprocessors, FeaturePreprocessors and ComplexityCaps
	// mirror pipeline.SpaceSpec for the space the config was drawn from.
	Models               []string
	DataPreprocessors    bool
	FeaturePreprocessors bool
	ComplexityCaps       map[string]float64
	// Params is the winning hyperparameter configuration.
	Params pipeline.Config
	// Seed feeds the refit rng (paired with the package's fixed stream).
	Seed uint64
	// Train is the labeled training frame the pipeline was fitted on.
	Train *tabular.Frame
}

// spaceSpec converts the stored space fields back to a pipeline.SpaceSpec.
func (s *Spec) spaceSpec() pipeline.SpaceSpec {
	return pipeline.SpaceSpec{
		Models:               s.Models,
		DataPreprocessors:    s.DataPreprocessors,
		FeaturePreprocessors: s.FeaturePreprocessors,
		ComplexityCaps:       s.ComplexityCaps,
	}
}

// Model is a loaded artifact: the refitted pipeline plus the metadata the
// serving layer needs for its fallback tier.
type Model struct {
	Spec Spec
	// Pipe is the fitted pipeline.
	Pipe *pipeline.Pipeline
	// Classes is the class count of the training frame.
	Classes int
	// Majority is the training majority class — the circuit breaker's
	// cheap fallback answer.
	Majority int
	// Priors is the training class distribution, the fallback tier's
	// probability vector.
	Priors []float64
	// Fingerprint hashes the fitted model's predictions on the probe
	// rows; Load verifies it against the stored value.
	Fingerprint uint64
}

// Build fits the pipeline a spec describes, deterministically. The
// returned cost is the FLOPs of the fit plus the fingerprint probe; the
// caller is responsible for charging it to a meter.
func Build(spec Spec) (*Model, ml.Cost, error) {
	var zero ml.Cost
	if spec.Train == nil {
		return nil, zero, fmt.Errorf("artifact: spec has no training frame")
	}
	if err := spec.Train.Validate(); err != nil {
		return nil, zero, fmt.Errorf("artifact: invalid training frame: %w: %w", ErrMalformed, err)
	}
	pipe, err := spec.spaceSpec().Build(spec.Params, spec.Train.Features())
	if err != nil {
		return nil, zero, fmt.Errorf("artifact: building pipeline: %w: %w", ErrMalformed, err)
	}
	rng := rand.New(rand.NewPCG(spec.Seed, rngStream))
	cost, err := pipe.Fit(spec.Train.All(), rng)
	if err != nil {
		return nil, cost, fmt.Errorf("artifact: fitting pipeline: %w", err)
	}
	fp, probeCost := fingerprint(pipe, spec.Train)
	cost.Add(probeCost)

	counts := spec.Train.ClassCounts()
	majority, total := 0, 0
	priors := make([]float64, len(counts))
	for _, n := range counts {
		total += n
	}
	for c, n := range counts {
		priors[c] = float64(n) / float64(total)
		if n > counts[majority] {
			majority = c
		}
	}
	return &Model{
		Spec:        spec,
		Pipe:        pipe,
		Classes:     spec.Train.Classes,
		Majority:    majority,
		Priors:      priors,
		Fingerprint: fp,
	}, cost, nil
}

// fingerprint hashes the pipeline's probability outputs on a fixed probe
// of the training rows (FNV-64a over the raw float64 bits, so any
// numeric drift — not just argmax flips — changes the hash).
func fingerprint(pipe *pipeline.Pipeline, train *tabular.Frame) (uint64, ml.Cost) {
	probe := train.All().Head(min(train.Rows(), probeRows))
	proba, cost := pipe.PredictProba(probe)
	h := fnv.New64a()
	var buf [8]byte
	for _, row := range proba {
		for _, p := range row {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(p))
			h.Write(buf[:])
		}
	}
	return h.Sum64(), cost
}

// Save writes the model's spec and fingerprint to path as a versioned
// artifact inside atomicio's checksummed envelope, atomically.
func Save(path string, m *Model) error {
	if m == nil || m.Spec.Train == nil {
		return fmt.Errorf("artifact: nothing to save")
	}
	payload, err := encode(m)
	if err != nil {
		return err
	}
	if err := atomicio.WriteFileChecksummedBytes(path, payload); err != nil {
		return fmt.Errorf("artifact: writing %s: %w", path, err)
	}
	return nil
}

// Load reads, verifies and refits an artifact. Every refusal carries the
// path and wraps one of the taxonomy sentinels (atomicio.ErrMalformed,
// atomicio.ErrChecksum, ErrMalformed, ErrVersion, ErrFingerprint). The
// returned cost is the refit plus fingerprint work; the caller charges it.
func Load(path string) (*Model, ml.Cost, error) {
	var zero ml.Cost
	payload, err := atomicio.ReadFileChecksummed(path)
	if err != nil {
		return nil, zero, err
	}
	spec, storedFP, err := decode(payload)
	if err != nil {
		return nil, zero, fmt.Errorf("artifact: %s: %w", path, err)
	}
	m, cost, err := Build(spec)
	if err != nil {
		return nil, cost, fmt.Errorf("artifact: %s: refit failed: %w", path, err)
	}
	if m.Fingerprint != storedFP {
		return nil, cost, fmt.Errorf("artifact: %s: refit fingerprint %016x, artifact promises %016x: %w",
			path, m.Fingerprint, storedFP, ErrFingerprint)
	}
	return m, cost, nil
}

// encode renders the artifact payload (the bytes inside the envelope):
//
//	"GART" | uint16 version | dataset | models | flags byte |
//	caps | params | uint64 seed | frame | uint64 fingerprint
//
// Strings are uint16-length-prefixed; caps and params are count-prefixed
// name/float64 lists in sorted name order (map iteration must not leak
// into the bytes); the frame is rows/features/classes counts, a kinds
// presence byte plus one byte per feature, int32 labels, then the columns
// as little-endian float64 in column-major order. All integers are
// little-endian.
func encode(m *Model) ([]byte, error) {
	spec := &m.Spec
	var b bytes.Buffer
	b.Write(artifactMagic[:])
	writeU16(&b, Version)
	if err := writeString(&b, spec.Dataset); err != nil {
		return nil, err
	}
	if len(spec.Models) > math.MaxUint16 {
		return nil, fmt.Errorf("artifact: %d model names overflow the format", len(spec.Models))
	}
	writeU16(&b, uint16(len(spec.Models)))
	for _, name := range spec.Models {
		if err := writeString(&b, name); err != nil {
			return nil, err
		}
	}
	var flags byte
	if spec.DataPreprocessors {
		flags |= 1
	}
	if spec.FeaturePreprocessors {
		flags |= 2
	}
	b.WriteByte(flags)
	if err := writeFloatMap(&b, spec.ComplexityCaps); err != nil {
		return nil, err
	}
	if err := writeFloatMap(&b, map[string]float64(spec.Params)); err != nil {
		return nil, err
	}
	writeU64(&b, spec.Seed)
	if err := encodeFrame(&b, spec.Train); err != nil {
		return nil, err
	}
	writeU64(&b, m.Fingerprint)
	return b.Bytes(), nil
}

// decode parses an artifact payload back into a spec and its stored
// fingerprint. Parse failures are ErrMalformed; a foreign version is
// ErrVersion.
func decode(payload []byte) (Spec, uint64, error) {
	var spec Spec
	r := &reader{data: payload}
	magic := r.bytes(4)
	if r.err != nil || !bytes.Equal(magic, artifactMagic[:]) {
		return spec, 0, fmt.Errorf("payload magic is not %q: %w", artifactMagic[:], ErrMalformed)
	}
	version := r.u16()
	if r.err != nil {
		return spec, 0, fmt.Errorf("truncated version field: %w", ErrMalformed)
	}
	if version != Version {
		return spec, 0, fmt.Errorf("format version %d, this reader handles %d: %w", version, Version, ErrVersion)
	}
	spec.Dataset = r.str()
	nModels := int(r.u16())
	for i := 0; i < nModels && r.err == nil; i++ {
		spec.Models = append(spec.Models, r.str())
	}
	flags := r.byte()
	spec.DataPreprocessors = flags&1 != 0
	spec.FeaturePreprocessors = flags&2 != 0
	spec.ComplexityCaps = r.floatMap()
	spec.Params = pipeline.Config(r.floatMap())
	spec.Seed = r.u64()
	spec.Train = r.frame(spec.Dataset)
	fp := r.u64()
	if r.err != nil {
		return spec, 0, fmt.Errorf("%w: %w", ErrMalformed, r.err)
	}
	if r.pos != len(r.data) {
		return spec, 0, fmt.Errorf("%d trailing bytes after artifact: %w", len(r.data)-r.pos, ErrMalformed)
	}
	return spec, fp, nil
}

func encodeFrame(b *bytes.Buffer, f *tabular.Frame) error {
	rows, features := f.Rows(), f.Features()
	if rows > math.MaxInt32 || features > math.MaxUint16 {
		return fmt.Errorf("artifact: frame %dx%d overflows the format", rows, features)
	}
	writeU32(b, uint32(rows))
	writeU16(b, uint16(features))
	writeU16(b, uint16(f.Classes))
	if f.Kinds == nil {
		b.WriteByte(0)
	} else {
		b.WriteByte(1)
		for _, k := range f.Kinds {
			b.WriteByte(byte(k))
		}
	}
	if len(f.Y) != rows {
		return fmt.Errorf("artifact: frame has %d labels for %d rows; artifacts need labeled training data", len(f.Y), rows)
	}
	for _, y := range f.Y {
		writeU32(b, uint32(int32(y)))
	}
	var buf [8]byte
	for _, col := range f.Cols {
		for _, v := range col {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			b.Write(buf[:])
		}
	}
	return nil
}

// frame decodes the training frame. Shape and label sanity are checked
// here so a parse error, not a panic, reaches the caller; full invariant
// checking happens in Build via Frame.Validate.
func (r *reader) frame(name string) *tabular.Frame {
	rows := int(r.u32())
	features := int(r.u16())
	classes := int(r.u16())
	if r.err != nil {
		return nil
	}
	// Reject shapes whose payload cannot possibly be present before
	// allocating: 4 bytes per label plus 8 per cell must still fit in
	// the remaining payload (int64 math so huge counts cannot wrap).
	need := int64(rows)*4 + int64(rows)*int64(features)*8
	if need > int64(len(r.data)-r.pos) {
		r.fail(fmt.Errorf("frame shape %dx%d promises %d bytes, %d remain", rows, features, need, len(r.data)-r.pos))
		return nil
	}
	f := &tabular.Frame{Name: name, Classes: classes}
	if kindsPresent := r.byte(); kindsPresent == 1 {
		f.Kinds = make([]tabular.FeatureKind, features)
		for j := range f.Kinds {
			f.Kinds[j] = tabular.FeatureKind(r.byte())
		}
	} else if kindsPresent != 0 && r.err == nil {
		r.fail(fmt.Errorf("kinds presence byte %d", kindsPresent))
		return nil
	}
	f.Y = make([]int, 0, rows)
	for i := 0; i < rows && r.err == nil; i++ {
		f.Y = append(f.Y, int(int32(r.u32())))
	}
	f.Cols = make([][]float64, features)
	backing := make([]float64, 0, rows*features)
	for j := 0; j < features && r.err == nil; j++ {
		start := len(backing)
		for i := 0; i < rows && r.err == nil; i++ {
			backing = append(backing, math.Float64frombits(r.u64()))
		}
		f.Cols[j] = backing[start : start+rows : start+rows]
	}
	if r.err != nil {
		return nil
	}
	return f
}

func writeU16(b *bytes.Buffer, v uint16) {
	var buf [2]byte
	binary.LittleEndian.PutUint16(buf[:], v)
	b.Write(buf[:])
}

func writeU32(b *bytes.Buffer, v uint32) {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	b.Write(buf[:])
}

func writeU64(b *bytes.Buffer, v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	b.Write(buf[:])
}

func writeString(b *bytes.Buffer, s string) error {
	if len(s) > math.MaxUint16 {
		return fmt.Errorf("artifact: %d-byte string overflows the format", len(s))
	}
	writeU16(b, uint16(len(s)))
	b.WriteString(s)
	return nil
}

func writeFloatMap(b *bytes.Buffer, m map[string]float64) error {
	if len(m) > math.MaxUint16 {
		return fmt.Errorf("artifact: %d-entry map overflows the format", len(m))
	}
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	writeU16(b, uint16(len(names)))
	for _, name := range names {
		if err := writeString(b, name); err != nil {
			return err
		}
		writeU64(b, math.Float64bits(m[name]))
	}
	return nil
}

// reader is a cursor over the payload that latches its first error, so
// decode reads linearly and checks once.
type reader struct {
	data []byte
	pos  int
	err  error
}

func (r *reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *reader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.pos+n > len(r.data) {
		r.fail(fmt.Errorf("truncated at byte %d (want %d more)", r.pos, n))
		return nil
	}
	out := r.data[r.pos : r.pos+n]
	r.pos += n
	return out
}

func (r *reader) byte() byte {
	b := r.bytes(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u16() uint16 {
	b := r.bytes(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *reader) u32() uint32 {
	b := r.bytes(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *reader) u64() uint64 {
	b := r.bytes(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *reader) str() string {
	n := int(r.u16())
	return string(r.bytes(n))
}

func (r *reader) floatMap() map[string]float64 {
	n := int(r.u16())
	if r.err != nil || n == 0 {
		return nil
	}
	m := make(map[string]float64, n)
	for i := 0; i < n && r.err == nil; i++ {
		name := r.str()
		m[name] = math.Float64frombits(r.u64())
	}
	return m
}
