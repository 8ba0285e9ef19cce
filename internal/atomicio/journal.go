package atomicio

import (
	"bytes"
	"encoding/json"
	"errors"
	"hash/crc32"
	"strconv"
)

// Line journal: an append-only file that survives a kill at any instant.
// The first line is a caller-defined header (its own JSON, versioned by
// the caller); every following line frames one JSON payload as
//
//	<crc32 IEEE of payload as 8 hex digits> <payload>\n
//
// Readers apply one rule. A trailing segment without '\n' is the torn
// tail of an interrupted append: it is never decoded, and a resuming
// writer truncates it. A complete line that fails its framing, its CRC
// or its JSON decode is damage: it is skipped and counted, and every
// intact line before and after it is kept.

// ErrNoJournalHeader marks a journal image without a complete header line.
var ErrNoJournalHeader = errors.New("no complete journal header line")

// AppendJournalLine appends the framed line for payload, trailing '\n'
// included, to dst and returns the extended slice. The payload must not
// contain '\n'; encoding/json's output never does.
func AppendJournalLine(dst, payload []byte) []byte {
	const hexDigits = "0123456789abcdef"
	sum := crc32.ChecksumIEEE(payload)
	for shift := 28; shift >= 0; shift -= 4 {
		dst = append(dst, hexDigits[sum>>shift&0xf])
	}
	dst = append(dst, ' ')
	dst = append(dst, payload...)
	return append(dst, '\n')
}

// JournalImage is a parsed line journal.
type JournalImage[R any] struct {
	// Header is the first line, without its '\n', for the caller to
	// decode and version-check.
	Header []byte
	// Records holds every verified, decoded record line in file order.
	Records []R
	// Damaged counts complete record lines that failed their framing,
	// CRC or JSON decode.
	Damaged int
	// Torn reports a trailing segment without '\n'.
	Torn bool
	// End is the offset just past the last complete line: the length a
	// resuming writer truncates the file to before appending.
	End int64
}

// ParseJournal reads a whole journal image in one pass, decoding each
// verified payload into an R. It fails only when data holds no complete
// header line; damage after the header is counted, never an error.
func ParseJournal[R any](data []byte) (JournalImage[R], error) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return JournalImage[R]{}, ErrNoJournalHeader
	}
	img := JournalImage[R]{Header: data[:nl], End: int64(nl + 1)}
	for rest := data[nl+1:]; len(rest) > 0; {
		n := bytes.IndexByte(rest, '\n')
		if n < 0 {
			img.Torn = true
			break
		}
		var rec R
		if payload, ok := verifyJournalLine(rest[:n]); ok && json.Unmarshal(payload, &rec) == nil {
			img.Records = append(img.Records, rec)
		} else {
			img.Damaged++
		}
		img.End += int64(n + 1)
		rest = rest[n+1:]
	}
	return img, nil
}

// verifyJournalLine checks one complete line's framing and CRC and
// returns its payload. The CRC digits parse in either case.
func verifyJournalLine(line []byte) ([]byte, bool) {
	if len(line) < 10 || line[8] != ' ' {
		return nil, false
	}
	want, err := strconv.ParseUint(string(line[:8]), 16, 32)
	if err != nil {
		return nil, false
	}
	payload := line[9:]
	return payload, crc32.ChecksumIEEE(payload) == uint32(want)
}
