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
	caps, params := sortedNames(spec.ComplexityCaps), sortedNames(spec.Params)
	// The format's uint16 count and length fields bound every list and
	// string.
	for _, list := range [...][]string{{spec.Dataset}, spec.Models, caps, params} {
		if len(list) > math.MaxUint16 {
			return nil, fmt.Errorf("artifact: %d-entry list overflows the format", len(list))
		}
		for _, s := range list {
			if len(s) > math.MaxUint16 {
				return nil, fmt.Errorf("artifact: %d-byte string overflows the format", len(s))
			}
		}
	}
	le := binary.LittleEndian
	b := le.AppendUint16(append([]byte(nil), artifactMagic[:]...), Version)
	b = append(le.AppendUint16(b, uint16(len(spec.Dataset))), spec.Dataset...)
	b = le.AppendUint16(b, uint16(len(spec.Models)))
	for _, name := range spec.Models {
		b = append(le.AppendUint16(b, uint16(len(name))), name...)
	}
	var flags byte
	if spec.DataPreprocessors {
		flags |= 1
	}
	if spec.FeaturePreprocessors {
		flags |= 2
	}
	b = append(b, flags)
	for _, list := range [...]struct {
		names []string
		vals  map[string]float64
	}{{caps, spec.ComplexityCaps}, {params, spec.Params}} {
		b = le.AppendUint16(b, uint16(len(list.names)))
		for _, name := range list.names {
			b = append(le.AppendUint16(b, uint16(len(name))), name...)
			b = le.AppendUint64(b, math.Float64bits(list.vals[name]))
		}
	}
	b = le.AppendUint64(b, spec.Seed)
	b, err := appendFrame(b, spec.Train)
	if err != nil {
		return nil, err
	}
	return le.AppendUint64(b, m.Fingerprint), nil
}

// sortedNames returns m's keys in sorted order, the order encode writes
// a name/float64 list in.
func sortedNames(m map[string]float64) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// decode parses an artifact payload back into a spec and its stored
// fingerprint. Parse failures are ErrMalformed; a foreign version is
// ErrVersion.
func decode(payload []byte) (Spec, uint64, error) {
	var spec Spec
	d := atomicio.NewDecoder(payload)
	if magic := d.Bytes(4); !bytes.Equal(magic, artifactMagic[:]) {
		return spec, 0, fmt.Errorf("payload magic is not %q: %w", artifactMagic[:], ErrMalformed)
	}
	version := d.U16()
	if d.Err() != nil {
		return spec, 0, fmt.Errorf("truncated version field: %w", ErrMalformed)
	}
	if version != Version {
		return spec, 0, fmt.Errorf("format version %d, this reader handles %d: %w", version, Version, ErrVersion)
	}
	spec.Dataset = string(d.Blob16())
	nModels := int(d.U16())
	for i := 0; i < nModels && d.Err() == nil; i++ {
		spec.Models = append(spec.Models, string(d.Blob16()))
	}
	flags := d.Byte()
	spec.DataPreprocessors = flags&1 != 0
	spec.FeaturePreprocessors = flags&2 != 0
	spec.ComplexityCaps = decodeFloatMap(&d)
	spec.Params = pipeline.Config(decodeFloatMap(&d))
	spec.Seed = d.U64()
	spec.Train = decodeFrame(&d, spec.Dataset)
	fp := d.U64()
	if err := d.Err(); err != nil {
		return spec, 0, fmt.Errorf("%w: %w", ErrMalformed, err)
	}
	if n := d.Remaining(); n != 0 {
		return spec, 0, fmt.Errorf("%d trailing bytes after artifact: %w", n, ErrMalformed)
	}
	return spec, fp, nil
}

// decodeFloatMap reads a count-prefixed name/float64 list; an empty
// list is a nil map.
func decodeFloatMap(d *atomicio.Decoder) map[string]float64 {
	n := int(d.U16())
	if d.Err() != nil || n == 0 {
		return nil
	}
	m := make(map[string]float64, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		name := string(d.Blob16())
		m[name] = math.Float64frombits(d.U64())
	}
	return m
}

func appendFrame(b []byte, f *tabular.Frame) ([]byte, error) {
	rows, features := f.Rows(), f.Features()
	if rows > math.MaxInt32 || features > math.MaxUint16 {
		return nil, fmt.Errorf("artifact: frame %dx%d overflows the format", rows, features)
	}
	if len(f.Y) != rows {
		return nil, fmt.Errorf("artifact: frame has %d labels for %d rows; artifacts need labeled training data", len(f.Y), rows)
	}
	le := binary.LittleEndian
	b = le.AppendUint32(b, uint32(rows))
	b = le.AppendUint16(b, uint16(features))
	b = le.AppendUint16(b, uint16(f.Classes))
	if f.Kinds == nil {
		b = append(b, 0)
	} else {
		b = append(b, 1)
		for _, k := range f.Kinds {
			b = append(b, byte(k))
		}
	}
	for _, y := range f.Y {
		b = le.AppendUint32(b, uint32(int32(y)))
	}
	for _, col := range f.Cols {
		b = atomicio.AppendFloat64s(b, col)
	}
	return b, nil
}

// decodeFrame decodes the training frame. Shape and label sanity are
// checked here so a parse error, not a panic, reaches the caller; full
// invariant checking happens in Build via Frame.Validate.
func decodeFrame(d *atomicio.Decoder, name string) *tabular.Frame {
	rows := int(d.U32())
	features := int(d.U16())
	classes := int(d.U16())
	if d.Err() != nil {
		return nil
	}
	// A frame's row count is its columns' length, so labels without
	// columns could never be encoded again.
	if features == 0 && rows > 0 {
		d.Fail(fmt.Errorf("frame has %d rows but no feature columns", rows))
		return nil
	}
	// Reject shapes whose payload cannot possibly be present before
	// allocating: 4 bytes per label plus 8 per cell must still fit in
	// the remaining payload (int64 math so huge counts cannot wrap).
	need := int64(rows)*4 + int64(rows)*int64(features)*8
	if need > int64(d.Remaining()) {
		d.Fail(fmt.Errorf("frame shape %dx%d promises %d bytes, %d remain", rows, features, need, d.Remaining()))
		return nil
	}
	f := &tabular.Frame{Name: name, Classes: classes}
	if kindsPresent := d.Byte(); kindsPresent == 1 {
		f.Kinds = make([]tabular.FeatureKind, features)
		for j := range f.Kinds {
			f.Kinds[j] = tabular.FeatureKind(d.Byte())
		}
	} else if kindsPresent != 0 {
		d.Fail(fmt.Errorf("kinds presence byte %d", kindsPresent))
	}
	f.Y = make([]int, 0, rows)
	for i := 0; i < rows && d.Err() == nil; i++ {
		f.Y = append(f.Y, int(int32(d.U32())))
	}
	// The columns are one column-major slab: decode it whole and cut it
	// into capacity-capped columns.
	backing := d.Float64s(rows * features)
	if d.Err() != nil {
		return nil
	}
	f.Cols = make([][]float64, features)
	for j := range f.Cols {
		f.Cols[j] = backing[j*rows : (j+1)*rows : (j+1)*rows]
	}
	return f
}
