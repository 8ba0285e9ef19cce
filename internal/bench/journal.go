package bench

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"sync"
	"time"

	"repro/internal/atomicio"
	"repro/internal/automl"
)

// Journal checkpoints completed grid cells as JSON lines so an
// interrupted run resumes instead of restarting. The first line is a
// header binding the journal to a grid fingerprint and a format
// version; every following line is one Record, framed by the atomicio
// line-journal codec and synced as soon as its cell completes. The
// per-line CRC lets replay tell mid-file corruption apart from the torn
// trailing line of a kill mid-write: a torn tail is truncated and its
// cell rerun, while a damaged line is skipped and counted instead of
// silently costing every later checkpoint.
// Appends and lookups are safe for concurrent use: parallel grid
// workers checkpoint cells as they finish, so the on-disk line order may
// differ from grid order — replay keys records by cell identity, not
// position, which keeps resume exact regardless of who finished first.
type Journal struct {
	mu        sync.Mutex
	f         *os.File
	done      map[string]Record
	line      []byte // Append's encode buffer, reused under mu
	appends   int
	discarded int
	// crash, when set, is consulted at the deterministic crash points of
	// every append; a non-nil return simulates the process dying there
	// (the hook may first tear the write itself). Chaos tests only.
	crash crashFn
}

// crashFn is the chaos-test hook signature: point names the crash
// point, seq is the zero-based append index, and f/line expose the
// journal file and encoded line so a hook can simulate a torn write.
type crashFn func(point string, seq int, f *os.File, line []byte) error

// The deterministic crash points every Append passes through.
const (
	// crashAppendStart fires before any byte of the record is written.
	crashAppendStart = "append-start"
	// crashAppendWritten fires after the line is written but before it
	// is synced — the record may or may not survive a real kill here.
	crashAppendWritten = "append-written"
	// crashAppendSynced fires after the record is durable; a kill here
	// loses nothing but the acknowledgement.
	crashAppendSynced = "append-synced"
)

type journalHeader struct {
	Version     int    `json:"version"`
	Fingerprint string `json:"fingerprint"`
	// Shard is the "index/count" shard assignment the journal's cells
	// belong to; empty for a whole-grid journal. A shard journal can
	// only be resumed with the exact same assignment — the cells a
	// different ShardSpec owns would silently diverge from the file's
	// contents — while merging only requires matching fingerprints.
	Shard string `json:"shard,omitempty"`
}

const journalVersion = 2

// cellID is the journal key of one grid cell.
func cellID(system, dataset string, budget time.Duration, seed uint64) string {
	return fmt.Sprintf("%s|%s|%d|%d", system, dataset, budget, seed)
}

// Fingerprint digests everything that determines a grid's records —
// system lineup, datasets, budgets, seeds, scale, machine, fault and
// retry configuration — so a journal is only ever resumed against the
// exact grid that produced it. Pure throughput knobs (Workers,
// Parallelism) are deliberately excluded: the kernels are bit-identical
// at every within-cell parallelism level, so neither can change a
// record.
func Fingerprint(systems []automl.System, cfg Config) string {
	cfg = cfg.normalized()
	h := fnv.New64a()
	for _, sys := range systems {
		fmt.Fprintf(h, "sys:%s;", sys.Name())
	}
	for _, spec := range cfg.Datasets {
		fmt.Fprintf(h, "ds:%d/%s;", spec.ID, spec.Name)
	}
	for _, b := range cfg.Budgets {
		fmt.Fprintf(h, "b:%d;", b)
	}
	fmt.Fprintf(h, "machine:%s;cores:%d;gpu:%d;", cfg.Machine.Name, cfg.Cores, cfg.GPUMode)
	fmt.Fprintf(h, "scale:%+v;seeds:%d;seed:%d;", cfg.Scale, cfg.Seeds, cfg.Seed)
	fmt.Fprintf(h, "faults:%+v;retry:%+v;", cfg.Faults, cfg.Retry)
	return fmt.Sprintf("%016x", h.Sum64())
}

// openJournal opens (or creates) a journal bound to a grid fingerprint
// and a shard assignment. Both must match an existing journal exactly:
// the fingerprint guards against resuming a different grid, the shard
// spec against resuming a shard journal under a different assignment
// (whose cell set would silently diverge from the file's contents).
// Damaged checkpoint lines are reported to stderr (their cells simply
// rerun).
func openJournal(path, fingerprint string, shard ShardSpec) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("bench: opening journal: %w", err)
	}
	j := &Journal{f: f, done: make(map[string]Record)}
	if err := j.replay(fingerprint, shard); err != nil {
		f.Close()
		return nil, err
	}
	if j.discarded > 0 {
		fmt.Fprintf(os.Stderr, "bench: journal %s: skipped %d damaged checkpoint line(s); their cells will rerun\n", path, j.discarded)
	}
	return j, nil
}

// journalState is a parsed journal: its header plus the codec's intact
// records, damage count and append offset. parseJournal produces it
// without touching the file, so both resume (replay) and merge
// (LoadJournal) decode the format exactly once.
type journalState struct {
	header journalHeader
	atomicio.JournalImage[Record]
}

// parseJournal decodes a journal image with the atomicio line-journal
// codec and checks its header version.
func parseJournal(data []byte) (*journalState, error) {
	img, err := atomicio.ParseJournal[Record](data)
	if err != nil {
		return nil, fmt.Errorf("bench: corrupt journal header: %w", err)
	}
	st := &journalState{JournalImage: img}
	if err := json.Unmarshal(img.Header, &st.header); err != nil {
		return nil, fmt.Errorf("bench: corrupt journal header: %w", err)
	}
	if st.header.Version != journalVersion {
		return nil, fmt.Errorf("bench: journal version %d, want %d", st.header.Version, journalVersion)
	}
	return st, nil
}

// replay loads the header and completed records, truncates a torn
// trailing line, and positions the write offset at the end of the last
// complete line.
func (j *Journal) replay(fingerprint string, shard ShardSpec) error {
	data, err := io.ReadAll(j.f)
	if err != nil {
		return fmt.Errorf("bench: reading journal: %w", err)
	}
	if len(data) == 0 {
		// Fresh journal: write the header.
		hdr, err := json.Marshal(journalHeader{Version: journalVersion, Fingerprint: fingerprint, Shard: shard.String()})
		if err != nil {
			return fmt.Errorf("bench: encoding journal header: %w", err)
		}
		if _, err := j.f.Write(append(hdr, '\n')); err != nil {
			return fmt.Errorf("bench: writing journal header: %w", err)
		}
		return j.f.Sync()
	}

	st, err := parseJournal(data)
	if err != nil {
		return err
	}
	if st.header.Fingerprint != fingerprint {
		return fmt.Errorf("bench: journal fingerprint %s does not match grid %s — refusing to resume a different configuration", st.header.Fingerprint, fingerprint)
	}
	if st.header.Shard != shard.String() {
		return fmt.Errorf("bench: journal shard %q does not match requested shard %q — refusing to resume a different shard assignment", st.header.Shard, shard.String())
	}
	j.discarded = st.Damaged
	for _, rec := range st.Records {
		j.done[cellID(rec.System, rec.Dataset, rec.Budget, rec.Seed)] = rec
	}
	if err := j.f.Truncate(st.End); err != nil {
		return fmt.Errorf("bench: truncating damaged journal tail: %w", err)
	}
	if _, err := j.f.Seek(st.End, io.SeekStart); err != nil {
		return fmt.Errorf("bench: seeking journal: %w", err)
	}
	return nil
}

// Lookup returns the checkpointed record for a cell, if present.
func (j *Journal) Lookup(id string) (Record, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	rec, ok := j.done[id]
	return rec, ok
}

// Len reports the number of checkpointed cells.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.done)
}

// Discarded reports how many damaged checkpoint lines replay skipped.
// The affected cells rerun. A nil journal has discarded none.
func (j *Journal) Discarded() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.discarded
}

// Append checkpoints one completed cell, synced to disk so a kill at
// any instant loses at most the cells in flight.
func (j *Journal) Append(rec Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("bench: encoding journal record: %w", err)
	}
	j.line = atomicio.AppendJournalLine(j.line[:0], payload)
	line := j.line
	seq := j.appends
	if j.crash != nil {
		if err := j.crash(crashAppendStart, seq, j.f, line); err != nil {
			return fmt.Errorf("bench: appending journal record: %w", err)
		}
	}
	if _, err := j.f.Write(line); err != nil {
		return fmt.Errorf("bench: appending journal record: %w", err)
	}
	if j.crash != nil {
		if err := j.crash(crashAppendWritten, seq, j.f, line); err != nil {
			return fmt.Errorf("bench: appending journal record: %w", err)
		}
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("bench: syncing journal: %w", err)
	}
	j.appends++
	j.done[cellID(rec.System, rec.Dataset, rec.Budget, rec.Seed)] = rec
	if j.crash != nil {
		if err := j.crash(crashAppendSynced, seq, j.f, nil); err != nil {
			return fmt.Errorf("bench: journal checkpoint acknowledgement: %w", err)
		}
	}
	return nil
}

// Close releases the journal file.
func (j *Journal) Close() error { return j.f.Close() }

// RunGridResumable is RunGrid with a JSONL journal at path: completed
// cells are loaded from the journal instead of rerun, and each newly
// completed cell is checkpointed immediately. A killed run resumed with
// the same path and configuration produces the same records as an
// uninterrupted one. It returns RunShard's records.
func RunGridResumable(systems []automl.System, cfg Config, path string) ([]Record, error) {
	run, err := RunShard(systems, cfg, path)
	return run.Records, err
}
