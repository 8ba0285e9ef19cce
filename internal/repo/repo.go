// Package repo implements the content-addressed evaluation repository:
// a columnar, CRC-checksummed on-disk store of every benchmark grid
// cell's per-row prediction probabilities, score, record and inference
// cost, keyed by the grid's config fingerprint plus the cell's journal
// identity (TabRepo's central idea, see PAPERS.md).
//
// Once a cell's predictions are persisted, three things become cheap:
//
//   - Reruns: an unchanged grid consults the store and replays every
//     cell as a cache hit — zero fits, byte-identical records and
//     exports (internal/bench wires the consultation into the
//     scheduler and the shard merge).
//   - Ensemble simulation: greedy ensemble selection runs over the
//     cached probabilities without refitting anything; the only energy
//     charged is lookup + blend (internal/ensemble.SimulateSelection).
//   - Zero-shot portfolios: the per-cell winning configurations over
//     the meta-train datasets are the training data for the
//     zero-shot portfolio system (internal/automl.MetaLearnPortfolio).
//
// Layout: one file per cell under <dir>/<fingerprint>/<hash>.cell,
// where hash is a 64-bit digest of the cell key — the path is a pure
// function of (fingerprint, key), so lookups never scan. Each file is
// an atomicio checksummed envelope (magic + CRC32 + length) wrapping a
// versioned binary payload whose probability block is one contiguous
// little-endian float64 slab: a read verifies the CRC and performs a
// single slab copy. Writes go through atomicio's temp+fsync+rename, so
// a kill mid-write can never leave a torn cell under the final name.
//
// Damage is refused, never repaired: a torn tail (truncation below the
// envelope header or a length mismatch), interior CRC damage, a foreign
// payload, or a hash-colliding key all surface as ErrDamaged. A
// repository opened with AllowDamage instead reports such cells as
// damaged misses, which callers must count and surface.
package repo

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/atomicio"
	"repro/internal/ml"
)

var (
	// ErrDamaged marks a cell file that exists but does not verify:
	// torn tail, interior CRC damage, malformed payload, or a key
	// collision. The cell's data must not be used.
	ErrDamaged = errors.New("repo: damaged cell")
	// ErrReadOnly marks a write refused by a read-only repository.
	ErrReadOnly = errors.New("repo: repository is read-only")
)

// cellMagic brands the versioned payload inside the checksummed
// envelope; the trailing byte is the format version.
var cellMagic = [4]byte{'G', 'R', 'C', 1}

// cellExt is the per-cell file extension.
const cellExt = ".cell"

// Entry is one stored evaluation cell: the opaque caller record, the
// fields the repository's own consumers (ensemble simulation, portfolio
// meta-learning) need without decoding it, and the prediction slab.
type Entry struct {
	// Fingerprint is the grid config fingerprint the cell belongs to
	// (bench.Fingerprint); entries of different grids never alias.
	Fingerprint string
	// Key is the cell identity — the journal's cellID string.
	Key string
	// System and Dataset denormalize the key's first two components so
	// store-wide consumers can group entries without parsing keys.
	System  string
	Dataset string
	// Score is the cell's test score (balanced accuracy), duplicated
	// out of Record so portfolio meta-learning reads it directly.
	Score float64
	// Record is the caller's canonical record encoding (bench stores
	// the journal's JSON), replayed verbatim on a cache hit — which is
	// what makes warm reruns byte-identical.
	Record []byte
	// Config is the winning pipeline configuration's JSON, when the
	// system exposed one; nil otherwise. Meta-learning input.
	Config []byte
	// Rows and Classes shape the probability slab.
	Rows    int
	Classes int
	// Proba is the per-row prediction probabilities as one contiguous
	// rows×classes slab (row i, class j at i*classes+j).
	Proba []float64
	// InferCost is the inference compute the predictions cost when they
	// were produced — kept so simulated inference can re-charge it.
	InferCost ml.Cost
}

// Options configure a repository handle.
type Options struct {
	// ReadOnly refuses Put, so a warm verification rerun can never
	// mutate the store it is checking against.
	ReadOnly bool
	// AllowDamage turns damaged cells into counted misses instead of
	// hard errors. Default is to refuse: damage means the store is
	// rotting and the operator should know.
	AllowDamage bool
}

// Repository is a handle on one evaluation store directory. Handles are
// safe for concurrent use: every operation is a pure function of the
// filesystem plus the immutable options, and writes are atomic.
type Repository struct {
	dir  string
	opts Options
}

// Open opens (or, unless read-only, creates) the repository rooted at
// dir. A read-only open of a missing directory is an error — there is
// nothing to consult, and silently treating it as empty would make a
// "warm" verification run vacuous.
func Open(dir string, opts Options) (*Repository, error) {
	if dir == "" {
		return nil, fmt.Errorf("repo: empty repository directory")
	}
	if opts.ReadOnly {
		fi, err := os.Stat(dir)
		if err != nil {
			return nil, fmt.Errorf("repo: opening read-only repository: %w", err)
		}
		if !fi.IsDir() {
			return nil, fmt.Errorf("repo: %s is not a directory", dir)
		}
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("repo: creating repository: %w", err)
	}
	return &Repository{dir: dir, opts: opts}, nil
}

// Dir returns the repository root.
func (r *Repository) Dir() string { return r.dir }

// ReadOnly reports whether Put is refused.
func (r *Repository) ReadOnly() bool { return r.opts.ReadOnly }

// AllowsDamage reports whether damaged cells degrade to counted misses.
func (r *Repository) AllowsDamage() bool { return r.opts.AllowDamage }

// cellPath is the content address of a cell: a pure function of
// (fingerprint, key). The key hash only locates the file; the key
// stored inside the payload is verified on read, so a 64-bit collision
// is detected as damage rather than silently aliasing two cells.
func (r *Repository) cellPath(fingerprint, key string) string {
	h := fnv.New64a()
	h.Write([]byte(key))
	return filepath.Join(r.dir, fingerprint, fmt.Sprintf("%016x%s", h.Sum64(), cellExt))
}

// Get returns the stored entry for (fingerprint, key), or (nil, false,
// nil) when the cell is absent. A cell that exists but fails
// verification returns damaged == true: with AllowDamage the error is
// nil (a counted miss), otherwise the error wraps ErrDamaged.
func (r *Repository) Get(fingerprint, key string) (e *Entry, damaged bool, err error) {
	e, damaged, err = r.readCell(r.cellPath(fingerprint, key), fingerprint, key)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	return e, damaged, err
}

// readCell reads, verifies and decodes the cell file at path, which
// must hold a cell of fingerprint and, unless key is empty, of key (a
// walk learns its keys from the cells). A read failure is an error
// wrapping its cause (fs.ErrNotExist for a missing file). A cell that
// does not verify is damaged: with AllowDamage the error is nil (a
// counted miss), otherwise it wraps ErrDamaged.
//
// The file is read into a pooled buffer that goes back to the pool when
// readCell returns. That is safe because decodeEntry copies every blob
// out of the payload, and every error formats the bytes it quotes, so
// nothing readCell returns aliases the buffer.
func (r *Repository) readCell(path, fingerprint, key string) (e *Entry, damaged bool, err error) {
	buf := readBufs.Get().(*[]byte)
	defer readBufs.Put(buf)
	data, err := readFileInto((*buf)[:0], path)
	*buf = data
	if err != nil {
		return nil, false, fmt.Errorf("repo: reading %s: %w", path, err)
	}
	payload, verr := atomicio.VerifyChecksummed(path, data)
	if verr == nil {
		e, verr = decodeEntry(payload)
	}
	if verr == nil && (e.Fingerprint != fingerprint || key != "" && e.Key != key) {
		verr = fmt.Errorf("cell holds %s/%s, path promises %s/%s (hash collision or foreign file)",
			e.Fingerprint, e.Key, fingerprint, key)
	}
	if verr == nil {
		return e, false, nil
	}
	if r.opts.AllowDamage {
		return nil, true, nil
	}
	return nil, true, fmt.Errorf("repo: %s: %w: %w (rerun the cell, or pass -repo-allow-damage to count it as a miss)", path, ErrDamaged, verr)
}

// readBufs recycles readCell's file buffers, so a warm replay reads
// each cell without allocating its size in fresh bytes.
var readBufs = sync.Pool{New: func() any { return new([]byte) }}

// readFileInto reads the whole file at path into buf, reusing its
// capacity, and returns the filled slice. Like os.ReadFile it reads to
// EOF rather than trusting the size Stat reports (which only sizes the
// buffer), so a file that grows or shrinks under the read yields
// exactly the bytes the read saw, and it returns the same errors.
func readFileInto(buf []byte, path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return buf, err
	}
	defer f.Close()
	if fi, err := f.Stat(); err == nil && fi.Size() > 0 {
		buf = slices.Grow(buf, int(fi.Size())+1)
	}
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, 512)
		}
		n, err := f.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err != nil {
			if errors.Is(err, io.EOF) {
				err = nil
			}
			return buf, err
		}
	}
}

// Put stores one cell, replacing any previous version atomically. The
// entry must be internally consistent: Proba sized Rows×Classes and a
// key/fingerprint present.
func (r *Repository) Put(e *Entry) error {
	if r.opts.ReadOnly {
		return fmt.Errorf("repo: storing cell %s: %w", e.Key, ErrReadOnly)
	}
	if e.Fingerprint == "" || e.Key == "" {
		return fmt.Errorf("repo: cell needs a fingerprint and a key")
	}
	if len(e.Proba) != e.Rows*e.Classes {
		return fmt.Errorf("repo: cell %s: %d proba values cannot hold %d rows × %d classes", e.Key, len(e.Proba), e.Rows, e.Classes)
	}
	path := r.cellPath(e.Fingerprint, e.Key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("repo: creating fingerprint directory: %w", err)
	}
	if err := atomicio.WriteFileChecksummedBytes(path, encodeEntry(e)); err != nil {
		return fmt.Errorf("repo: storing cell %s: %w", e.Key, err)
	}
	return nil
}

// Fingerprints lists the grid fingerprints present in the store, sorted.
func (r *Repository) Fingerprints() ([]string, error) {
	ents, err := os.ReadDir(r.dir)
	if err != nil {
		return nil, fmt.Errorf("repo: listing repository: %w", err)
	}
	var fps []string
	for _, de := range ents {
		if de.IsDir() {
			fps = append(fps, de.Name())
		}
	}
	sort.Strings(fps)
	return fps, nil
}

// Walk visits every intact entry in the store in deterministic order:
// fingerprints sorted, then entries sorted by cell key. Damaged cells
// are counted (and, without AllowDamage, abort the walk with
// ErrDamaged). A non-nil error from fn stops the walk.
func (r *Repository) Walk(fn func(*Entry) error) (damaged int, err error) {
	fps, err := r.Fingerprints()
	if err != nil {
		return 0, err
	}
	for _, fp := range fps {
		d, err := r.walkFingerprint(fp, fn)
		damaged += d
		if err != nil {
			return damaged, err
		}
	}
	return damaged, nil
}

// walkFingerprint is Walk restricted to one grid fingerprint. A missing
// fingerprint directory is an empty walk, not an error — a cold store
// simply has no entries yet.
func (r *Repository) walkFingerprint(fingerprint string, fn func(*Entry) error) (damaged int, err error) {
	dir := filepath.Join(r.dir, fingerprint)
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, fmt.Errorf("repo: listing fingerprint %s: %w", fingerprint, err)
	}
	// Decode every cell first, then visit sorted by key: directory
	// order is filename (hash) order, which is deterministic but
	// meaningless — consumers get the canonical key order instead.
	var entries []*Entry
	for _, de := range ents {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, cellExt) {
			continue
		}
		e, bad, err := r.readCell(filepath.Join(dir, name), fingerprint, "")
		if bad {
			damaged++
		}
		if err != nil {
			return damaged, err
		}
		if e != nil {
			entries = append(entries, e)
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Key < entries[j].Key })
	for _, e := range entries {
		if err := fn(e); err != nil {
			return damaged, err
		}
	}
	return damaged, nil
}

// ---------------------------------------------------------------------------
// Binary cell codec
// ---------------------------------------------------------------------------

// encodeEntry renders the versioned payload the checksummed envelope
// wraps. Layout (all integers little-endian):
//
//	magic "GRC" + version byte
//	fingerprint, key, system, dataset   (u32-length-prefixed strings)
//	score                               (float64 bits)
//	record, config                      (u32-length-prefixed bytes)
//	rows, classes                       (u32 each)
//	inferCost generic, tree, matrix     (float64 bits each)
//	proba                               (rows×classes contiguous f64 slab)
func encodeEntry(e *Entry) []byte {
	n := 4 + // magic
		4 + len(e.Fingerprint) + 4 + len(e.Key) + 4 + len(e.System) + 4 + len(e.Dataset) +
		8 + // score
		4 + len(e.Record) + 4 + len(e.Config) +
		4 + 4 + // rows, classes
		3*8 + // cost
		8*len(e.Proba)
	le := binary.LittleEndian
	buf := append(make([]byte, 0, n), cellMagic[:]...)
	for _, s := range [...]string{e.Fingerprint, e.Key, e.System, e.Dataset} {
		buf = append(le.AppendUint32(buf, uint32(len(s))), s...)
	}
	buf = le.AppendUint64(buf, math.Float64bits(e.Score))
	for _, b := range [...][]byte{e.Record, e.Config} {
		buf = append(le.AppendUint32(buf, uint32(len(b))), b...)
	}
	buf = le.AppendUint32(buf, uint32(e.Rows))
	buf = le.AppendUint32(buf, uint32(e.Classes))
	for _, v := range [...]float64{e.InferCost.Generic, e.InferCost.Tree, e.InferCost.Matrix} {
		buf = le.AppendUint64(buf, math.Float64bits(v))
	}
	return atomicio.AppendFloat64s(buf, e.Proba)
}

// decodeEntry parses an envelope payload back into an Entry. Any
// structural inconsistency is an error the caller classifies as damage.
// Every blob is copied out of the payload, so an entry a walk keeps
// does not pin its whole cell file in memory.
func decodeEntry(payload []byte) (*Entry, error) {
	d := atomicio.NewDecoder(payload)
	if magic := d.Bytes(4); !bytes.Equal(magic, cellMagic[:]) {
		return nil, fmt.Errorf("cell magic %q is not %q", magic, cellMagic[:])
	}
	e := &Entry{}
	e.Fingerprint = string(d.Blob32())
	e.Key = string(d.Blob32())
	e.System = string(d.Blob32())
	e.Dataset = string(d.Blob32())
	e.Score = math.Float64frombits(d.U64())
	// Empty blobs decode as nil.
	if b := d.Blob32(); len(b) > 0 {
		e.Record = bytes.Clone(b)
	}
	if b := d.Blob32(); len(b) > 0 {
		e.Config = bytes.Clone(b)
	}
	e.Rows = int(d.U32())
	e.Classes = int(d.U32())
	e.InferCost.Generic = math.Float64frombits(d.U64())
	e.InferCost.Tree = math.Float64frombits(d.U64())
	e.InferCost.Matrix = math.Float64frombits(d.U64())
	if err := d.Err(); err != nil {
		return nil, err
	}
	// rows·classes is checked against the remaining bytes by division
	// first: a header promising 2^31 × 2^30 would wrap 8·rows·classes to
	// 0 and pass a plain length comparison.
	rest := d.Remaining()
	if e.Rows < 0 || e.Classes < 0 || e.Classes > 0 && e.Rows > rest/8/e.Classes ||
		rest != 8*e.Rows*e.Classes {
		return nil, fmt.Errorf("cell slab holds %d bytes, header promises %d rows × %d classes", rest, e.Rows, e.Classes)
	}
	e.Proba = d.Float64s(e.Rows * e.Classes)
	return e, d.Err()
}
