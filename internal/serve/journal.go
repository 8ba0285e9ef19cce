package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/atomicio"
)

// Journal is the serving layer's metering ledger on disk: one JSON line
// per resolved request, framed by the atomicio line-journal codec that
// the bench journal uses too. A kill mid-write tears at most the
// trailing line; Replay drops a torn tail and skips-and-counts damaged
// lines, so a restarted daemon can account for everything the previous
// incarnation durably resolved.
//
// Like the Engine that appends to it, a Journal is not safe for
// concurrent use.
type Journal struct {
	f journalFile
	w *bufio.Writer
	// line is Append's encode buffer; w.Write copies out of it.
	line []byte
	// dropped counts failed journal operations; see Dropped.
	dropped int
}

// journalFile is the journal's backing store: an *os.File in production.
type journalFile interface {
	io.Writer
	Sync() error
	Close() error
}

// journalHeader is the first line, binding the file to its format
// version and the model it metered.
type journalHeader struct {
	Version int    `json:"version"`
	Model   string `json:"model"`
}

const journalVersion = 1

// JournalRecord is one resolved request as journaled.
type JournalRecord struct {
	ID        uint64  `json:"id"`
	Outcome   string  `json:"outcome"`
	Class     int     `json:"class"`
	DoneUS    int64   `json:"done_us"`
	LatencyUS int64   `json:"latency_us"`
	Joules    float64 `json:"joules"`
	Err       string  `json:"err,omitempty"`
}

// NewJournal creates (truncating) a journal for the named model.
func NewJournal(path, model string) (*Journal, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("serve: creating journal: %w", err)
	}
	j := newJournal(f)
	hdr, err := json.Marshal(journalHeader{Version: journalVersion, Model: model})
	if err != nil {
		f.Close()
		return nil, err
	}
	if _, err := j.w.Write(append(hdr, '\n')); err != nil {
		f.Close()
		return nil, fmt.Errorf("serve: writing journal header: %w", err)
	}
	return j, nil
}

func newJournal(f journalFile) *Journal {
	return &Journal{f: f, w: bufio.NewWriter(f)}
}

// Append journals one resolution. Marshal and write errors are
// deliberately not fatal to serving — a full disk must not take the
// daemon down — but they are counted (see Dropped), and the line is
// either fully framed or torn, never silently mangled.
func (j *Journal) Append(r *Response) {
	rec := JournalRecord{
		ID:        r.ID,
		Outcome:   r.Outcome.String(),
		Class:     r.Class,
		DoneUS:    r.Done.Microseconds(),
		LatencyUS: r.Latency.Microseconds(),
		Joules:    r.Joules,
		Err:       r.Err,
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		j.dropped++
		return
	}
	j.line = atomicio.AppendJournalLine(j.line[:0], payload)
	if _, err := j.w.Write(j.line); err != nil {
		j.dropped++
	}
}

// Flush pushes buffered lines to the OS and syncs the file. A failed
// flush or sync is counted in Dropped.
func (j *Journal) Flush() {
	if err := j.w.Flush(); err != nil {
		j.dropped++
	}
	if err := j.f.Sync(); err != nil {
		j.dropped++
	}
}

// Dropped reports how many journal operations have failed: a record that
// could not be marshalled or written, or a flush or sync that failed.
// Buffered lines lost to one failed flush count once, as that flush. A
// nonzero count means the on-disk ledger may be short of the tracker's.
func (j *Journal) Dropped() int { return j.dropped }

// Close flushes and closes the journal.
func (j *Journal) Close() error {
	j.Flush()
	return j.f.Close()
}

// Replayed is the result of reading a journal back.
type Replayed struct {
	Model   string
	Records []JournalRecord
	// Torn reports a trailing segment without '\n' — the signature of a
	// kill mid-write; it is dropped, not an error, and its request is
	// not counted as resolved.
	Torn bool
	// Damaged counts complete lines that failed their framing, CRC or
	// JSON decode — real corruption, skipped and counted.
	Damaged int
}

// TotalJoules sums the journaled per-request charges — the durable half
// of the conservation ledger.
func (r *Replayed) TotalJoules() float64 {
	var sum float64
	for _, rec := range r.Records {
		sum += rec.Joules
	}
	return sum
}

// ReplayJournal reads a journal back, tolerating a torn tail and
// counting damaged lines.
func ReplayJournal(path string) (*Replayed, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("serve: reading journal: %w", err)
	}
	img, err := atomicio.ParseJournal[JournalRecord](data)
	if err != nil {
		return nil, fmt.Errorf("serve: journal %s: %w", path, err)
	}
	var hdr journalHeader
	if err := json.Unmarshal(img.Header, &hdr); err != nil {
		return nil, fmt.Errorf("serve: journal %s header: %w", path, err)
	}
	if hdr.Version != journalVersion {
		return nil, fmt.Errorf("serve: journal %s is version %d, this reader handles %d", path, hdr.Version, journalVersion)
	}
	return &Replayed{Model: hdr.Model, Records: img.Records, Torn: img.Torn, Damaged: img.Damaged}, nil
}

// Done converts the record's resolution instant back to a duration.
func (r JournalRecord) Done() time.Duration {
	return time.Duration(r.DoneUS) * time.Microsecond
}
