package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strconv"
	"time"
)

// Journal is the serving layer's metering ledger on disk: one JSON line
// per resolved request, CRC32-prefixed in the bench journal's v2 framing
// ("<crc32-hex8> <json>"). A kill mid-write tears at most the trailing
// line; Replay truncates a torn tail and skips-and-counts interior
// damage, so a restarted daemon can account for everything the previous
// incarnation durably resolved.
//
// Like the Engine that appends to it, a Journal is not safe for
// concurrent use.
type Journal struct {
	f journalFile
	w *bufio.Writer
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
	line := fmt.Appendf(nil, "%08x ", crc32.ChecksumIEEE(payload))
	line = append(line, payload...)
	line = append(line, '\n')
	if _, err := j.w.Write(line); err != nil {
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
	// Torn reports a damaged or incomplete trailing line — the
	// signature of a kill mid-write; it is truncated, not an error.
	Torn bool
	// Damaged counts interior lines that failed their CRC but have
	// intact lines after them — real corruption, skipped and counted.
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
// counting interior damage.
func ReplayJournal(path string) (*Replayed, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("serve: reading journal: %w", err)
	}
	lines := bytes.Split(data, []byte("\n"))
	// A well-formed file ends in '\n', so the final split element is
	// empty; anything else is a torn tail candidate handled below.
	if len(lines) == 0 || len(lines[0]) == 0 {
		return nil, fmt.Errorf("serve: journal %s has no header", path)
	}
	var hdr journalHeader
	if err := json.Unmarshal(lines[0], &hdr); err != nil {
		return nil, fmt.Errorf("serve: journal %s header: %w", path, err)
	}
	if hdr.Version != journalVersion {
		return nil, fmt.Errorf("serve: journal %s is version %d, this reader handles %d", path, hdr.Version, journalVersion)
	}
	out := &Replayed{Model: hdr.Model}
	body := lines[1:]
	for i, line := range body {
		if len(line) == 0 {
			continue
		}
		rec, ok := parseRecordLine(line)
		if !ok {
			if i == len(body)-1 || (i == len(body)-2 && len(body[len(body)-1]) == 0) {
				out.Torn = true
			} else {
				out.Damaged++
			}
			continue
		}
		out.Records = append(out.Records, rec)
	}
	return out, nil
}

func parseRecordLine(line []byte) (JournalRecord, bool) {
	var rec JournalRecord
	if len(line) < 10 || line[8] != ' ' {
		return rec, false
	}
	want, err := strconv.ParseUint(string(line[:8]), 16, 32)
	if err != nil {
		return rec, false
	}
	payload := line[9:]
	if crc32.ChecksumIEEE(payload) != uint32(want) {
		return rec, false
	}
	if err := json.Unmarshal(payload, &rec); err != nil {
		return rec, false
	}
	return rec, true
}

// Done converts the record's resolution instant back to a duration.
func (r JournalRecord) Done() time.Duration {
	return time.Duration(r.DoneUS) * time.Microsecond
}
