package atomicio

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// journalEntry is the record type the codec tests decode into, so a
// line that verifies but does not decode as one counts as damage.
type journalEntry struct {
	N int    `json:"n"`
	S string `json:"s"`
}

// TestJournalLineFixedVectors pins the frame bytes: the literals are
// fmt.Appendf(nil, "%08x ", crc32.ChecksumIEEE(payload)) followed by the
// payload and '\n', the framing both journals have always written.
// Uppercase CRC digits must still verify.
func TestJournalLineFixedVectors(t *testing.T) {
	for _, tc := range []struct{ payload, frame string }{
		{`{}`, "a3a6bf43 {}\n"},
		{`"x"`, "f60ef986 \"x\"\n"},
		{`{"n":90}`, "001b95fc {\"n\":90}\n"}, // leading zero digits
		{
			`{"id":7,"outcome":"served","class":1,"done_us":1500,"latency_us":250,"joules":0.125}`,
			"494013e1 {\"id\":7,\"outcome\":\"served\",\"class\":1,\"done_us\":1500,\"latency_us\":250,\"joules\":0.125}\n",
		},
	} {
		got := AppendJournalLine([]byte("hdr\n"), []byte(tc.payload))
		if string(got) != "hdr\n"+tc.frame {
			t.Errorf("frame of %s = %q, want %q", tc.payload, got[4:], tc.frame)
		}
		for _, frame := range []string{tc.frame, strings.ToUpper(tc.frame[:8]) + tc.frame[8:]} {
			img, err := ParseJournal[json.RawMessage]([]byte("hdr\n" + frame))
			if err != nil {
				t.Fatal(err)
			}
			if img.Damaged != 0 || len(img.Records) != 1 || string(img.Records[0]) != tc.payload {
				t.Errorf("%q parsed to %d damaged, records %q", frame, img.Damaged, img.Records)
			}
		}
	}
}

// TestParseJournalDamageRule: every complete line that fails framing,
// CRC or decode is damage; only a segment without '\n' is torn.
func TestParseJournalDamageRule(t *testing.T) {
	good := func(n int) string {
		return string(AppendJournalLine(nil, []byte(fmt.Sprintf(`{"n":%d}`, n))))
	}
	badCRC := []byte(good(3))
	badCRC[len(badCRC)-3] ^= 1
	body := []string{
		good(1),
		string(AppendJournalLine(nil, []byte("not json"))),
		string(AppendJournalLine(nil, []byte(`"a string"`))),
		string(badCRC),
		"\n",
		"{\"n\":4}\n", // an unframed JSON line
		good(5),
	}
	data := []byte(`{"version":1}` + "\n" + strings.Join(body, "") + good(6)[:7])
	img, err := ParseJournal[journalEntry](data)
	if err != nil {
		t.Fatal(err)
	}
	if string(img.Header) != `{"version":1}` {
		t.Errorf("header %q", img.Header)
	}
	if want := []journalEntry{{N: 1}, {N: 5}}; !slices.Equal(img.Records, want) {
		t.Errorf("records %+v, want %+v", img.Records, want)
	}
	if img.Damaged != 5 || !img.Torn || img.End != int64(len(data)-7) {
		t.Errorf("damaged %d torn %v end %d, want 5 true %d", img.Damaged, img.Torn, img.End, len(data)-7)
	}

	for _, bad := range []string{"", "no newline at all"} {
		if _, err := ParseJournal[journalEntry]([]byte(bad)); !errors.Is(err, ErrNoJournalHeader) {
			t.Errorf("%q parsed with %v, want ErrNoJournalHeader", bad, err)
		}
	}
}

// threeRecordImage is a header and three framed records; ends[k] is the
// offset just past line k (the header is line 0).
func threeRecordImage() (data []byte, ends []int, recs []journalEntry) {
	data = []byte(`{"version":2,"fingerprint":"0123456789abcdef"}` + "\n")
	ends = []int{len(data)}
	recs = []journalEntry{{1, "alpha"}, {22, "beta"}, {333, "gamma"}}
	for _, rec := range recs {
		payload, _ := json.Marshal(rec)
		data = AppendJournalLine(data, payload)
		ends = append(ends, len(data))
	}
	return data, ends, recs
}

// TestJournalEveryTruncation: cutting the image at any offset yields a
// strict prefix of its records, torn exactly when the cut falls mid-line.
func TestJournalEveryTruncation(t *testing.T) {
	data, ends, recs := threeRecordImage()
	for cut := 0; cut <= len(data); cut++ {
		img, err := ParseJournal[journalEntry](data[:cut])
		if cut < ends[0] {
			if !errors.Is(err, ErrNoJournalHeader) {
				t.Fatalf("cut %d inside the header: %v", cut, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		complete := 0
		for complete < len(recs) && ends[complete+1] <= cut {
			complete++
		}
		end := ends[complete]
		if !slices.Equal(img.Records, recs[:complete]) {
			t.Fatalf("cut %d: records %+v, want %+v", cut, img.Records, recs[:complete])
		}
		if img.Damaged != 0 || img.Torn != (cut != end) || img.End != int64(end) {
			t.Fatalf("cut %d: damaged %d torn %v end %d, want 0 %v %d", cut, img.Damaged, img.Torn, img.End, cut != end, end)
		}
	}
}

// TestJournalEveryByteFlip: flipping any one byte damages at most one
// line and keeps every record whose line it did not touch. A flipped
// '\n' merges two lines; at the end of the image it tears the last one.
func TestJournalEveryByteFlip(t *testing.T) {
	data, ends, recs := threeRecordImage()
	for i := range data {
		flipped := bytes.Clone(data)
		flipped[i] ^= 0xff
		img, err := ParseJournal[journalEntry](flipped)
		if err != nil {
			t.Fatalf("flip %d: %v", i, err)
		}
		line := 0
		for i >= ends[line] {
			line++
		}
		// lost marks the record lines the flip may cost: its own line,
		// and the next one too when it merged them.
		lost := map[int]bool{line: true}
		wantDamaged, wantTorn, wantEnd := 1, false, len(data)
		switch {
		case data[i] == '\n' && line == len(recs):
			wantDamaged, wantTorn, wantEnd = 0, true, ends[line-1]
		case data[i] == '\n' && line == 0:
			wantDamaged = 0 // the header swallows record line 1
			lost[1] = true
		case data[i] == '\n':
			lost[line+1] = true
		case line == 0:
			wantDamaged = 0 // only the header's bytes changed
		}
		var want []journalEntry
		for k, rec := range recs {
			if !lost[k+1] {
				want = append(want, rec)
			}
		}
		if img.Damaged > 1 || img.Damaged != wantDamaged || img.Torn != wantTorn || img.End != int64(wantEnd) {
			t.Fatalf("flip %d (line %d): damaged %d torn %v end %d, want %d %v %d",
				i, line, img.Damaged, img.Torn, img.End, wantDamaged, wantTorn, wantEnd)
		}
		if !slices.Equal(img.Records, want) {
			t.Fatalf("flip %d (line %d): records %+v, want %+v", i, line, img.Records, want)
		}
	}
}

// journalSeeds are the corruption cases of the bench and serve journal
// tests, rebuilt as raw images: torn tails, interior and last-line bit
// flips, a lost final '\n', a legacy unframed journal with a garbage
// line, and headers without records or without a newline.
func journalSeeds() [][]byte {
	serve := []byte(`{"version":1,"model":"unit"}` + "\n")
	for i := 0; i < 4; i++ {
		serve = AppendJournalLine(serve, []byte(fmt.Sprintf(
			`{"id":%d,"outcome":"served","class":%d,"done_us":%d,"latency_us":%d,"joules":%v}`,
			i, i%3, i*1000, i*100, float64(i)*0.125)))
	}
	bench := []byte(`{"version":2,"fingerprint":"0123456789abcdef","shard":"0/2"}` + "\n")
	for i, sys := range []string{"CAML", "FLAML", "TPOT"} {
		bench = AppendJournalLine(bench, []byte(fmt.Sprintf(
			`{"System":%q,"Dataset":"credit-g","Budget":10000000000,"Seed":%d,"TestScore":0.75}`, sys, i)))
	}
	flip := func(data []byte, at int, mask byte) []byte {
		out := bytes.Clone(data)
		out[at] ^= mask
		return out
	}
	lastLine := bytes.LastIndexByte(serve[:len(serve)-1], '\n') + 1
	secondRecord := bytes.IndexByte(bench, '\n') + 1
	secondRecord += bytes.IndexByte(bench[secondRecord:], '\n') + 1
	return [][]byte{
		serve,
		serve[:len(serve)-7],
		serve[:len(serve)-5],
		serve[:len(serve)-1],
		flip(serve, len(serve)/2, 0x20),
		flip(serve, (lastLine+len(serve))/2, 0x20),
		bench,
		bench[:len(bench)-20],
		flip(bench, secondRecord+20, 0xff),
		[]byte(`{"version":1,"fingerprint":"0123456789abcdef"}` + "\n" + `{"System":"CAML"}` + "\ngarbage not json\n"),
		[]byte(`{"version":2}` + "\n"),
		[]byte(`{"version":2}`),
		{},
	}
}

// FuzzJournalImage: on arbitrary bytes the parser never panics and its
// End falls just past a '\n' it accounted for; encoding payloads derived
// from the input and parsing them back returns them unchanged.
func FuzzJournalImage(f *testing.F) {
	for _, seed := range journalSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		img, err := ParseJournal[json.RawMessage](data)
		if nl := bytes.IndexByte(data, '\n'); nl < 0 {
			if !errors.Is(err, ErrNoJournalHeader) {
				t.Fatalf("headerless image parsed with %v", err)
			}
		} else {
			if err != nil {
				t.Fatal(err)
			}
			if img.End > int64(len(data)) || data[img.End-1] != '\n' {
				t.Fatalf("End %d does not follow a newline in %d bytes", img.End, len(data))
			}
			if lines := bytes.Count(data[nl+1:img.End], []byte("\n")); len(img.Records)+img.Damaged != lines {
				t.Fatalf("%d records + %d damaged for %d complete lines", len(img.Records), img.Damaged, lines)
			}
			if img.Torn != (img.End < int64(len(data))) {
				t.Fatalf("torn %v with End %d of %d bytes", img.Torn, img.End, len(data))
			}
		}

		var want []json.RawMessage
		image := []byte(`{"version":1}` + "\n")
		for _, chunk := range bytes.Split(data, []byte("\n")) {
			payload, err := json.Marshal(string(chunk))
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, payload)
			image = AppendJournalLine(image, payload)
		}
		back, err := ParseJournal[json.RawMessage](image)
		if err != nil {
			t.Fatal(err)
		}
		if back.Damaged != 0 || back.Torn || back.End != int64(len(image)) || !reflect.DeepEqual(back.Records, want) {
			t.Fatalf("round trip: damaged %d torn %v end %d of %d, records %q, want %q",
				back.Damaged, back.Torn, back.End, len(image), back.Records, want)
		}
	})
}
