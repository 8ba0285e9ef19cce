package bench

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"

	"repro/internal/faults"
)

// encoderJSON is the reference WriteJSON must reproduce: json.Encoder
// with a two-space indent.
func encoderJSON(records []Record) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(records)
	return buf.Bytes(), err
}

// FuzzRecordsJSON checks the reflection-free records encoder against
// encoding/json: for any records, WriteJSON writes exactly the bytes a
// json.Encoder with SetIndent("", "  ") writes, or both refuse them (a
// NaN or infinite float) and neither writes a byte. shape picks a nil
// slice, an empty one, the fuzzed record alone, or the fuzzed record
// followed by a copy with its omitempty fields flipped, so the
// separators and both sides of every omitempty edge are covered.
func FuzzRecordsJSON(f *testing.F) {
	bits := math.Float64bits
	f.Add(uint8(2), "CAML", "credit-g", int64(10*time.Second), uint64(1009), bits(0.8125), bits(1.25e-5), int64(7*time.Second), bits(3.5e-12), int64(1500), 12, "", false, 1)
	f.Add(uint8(0), "", "", int64(0), uint64(0), bits(0), bits(0), int64(0), bits(0), int64(0), 0, "", false, 0)
	f.Add(uint8(1), "", "", int64(0), uint64(0), bits(0), bits(0), int64(0), bits(0), int64(0), 0, "", false, 0)
	f.Add(uint8(3), "ASKL1", "kr-vs-kp", int64(time.Minute), uint64(math.MaxUint64), bits(math.Copysign(0, -1)), bits(1e21), int64(math.MinInt64), bits(1e-7), int64(-1), -3, string(faults.FitError), true, 3)
	f.Add(uint8(3), "<b>&amp;</b>", "a\"b\\c", int64(-5), uint64(2), bits(5e-324), bits(math.MaxFloat64), int64(math.MaxInt64), bits(-2.2250738585072014e-308), int64(1), 1, string(faults.Stall), false, 0)
	f.Add(uint8(2), "line\u2028sep\u2029", "tab\tnl\n\x00\x1f\x7f", int64(1), uint64(1), bits(9.999999999999999e20), bits(1e-6), int64(1), bits(0.000001), int64(1), 1, "é", true, -1)
	f.Add(uint8(2), "bad \xff\xfe utf-8", "\xc3", int64(1), uint64(1), bits(123456.789), bits(-1.5e-300), int64(1), bits(1), int64(1), 1, "\xed\xa0\x80", false, 2)
	f.Add(uint8(2), "CAML", "credit-g", int64(1), uint64(1), bits(math.NaN()), bits(1), int64(1), bits(1), int64(1), 1, "", false, 1)
	f.Add(uint8(3), "CAML", "credit-g", int64(1), uint64(1), bits(1), bits(math.Inf(1)), int64(1), bits(1), int64(1), 1, "", false, 1)
	f.Add(uint8(3), "CAML", "credit-g", int64(1), uint64(1), bits(1), bits(1), int64(1), bits(math.Inf(-1)), int64(1), 1, "", false, 1)
	f.Add(uint8(2), "CAML", "credit-g", int64(1), uint64(1), bits(math.Float64frombits(0x7ff8000000000bad)), bits(1), int64(1), bits(1), int64(1), 1, "", false, 1)
	f.Fuzz(func(t *testing.T, shape uint8, system, dataset string, budget int64, seed, scoreBits, execBits uint64, execTime int64, inferBits uint64, inferTime int64, evaluated int, failure string, fallback bool, attempts int) {
		rec := Record{
			System:           system,
			Dataset:          dataset,
			Budget:           time.Duration(budget),
			Seed:             seed,
			TestScore:        math.Float64frombits(scoreBits),
			ExecKWh:          math.Float64frombits(execBits),
			ExecTime:         time.Duration(execTime),
			InferKWhPerInst:  math.Float64frombits(inferBits),
			InferTimePerInst: time.Duration(inferTime),
			Evaluated:        evaluated,
			Failure:          faults.Kind(failure),
			Fallback:         fallback,
			Attempts:         attempts,
		}
		var records []Record
		switch shape % 4 {
		case 1:
			records = []Record{}
		case 2:
			records = []Record{rec}
		case 3:
			flipped := rec
			flipped.Fallback = !rec.Fallback
			flipped.Attempts = 0
			flipped.Failure = ""
			if rec.Attempts == 0 {
				flipped.Attempts = 2
				flipped.Failure = faults.OOM
			}
			records = []Record{rec, flipped}
		}
		want, wantErr := encoderJSON(records)
		var got bytes.Buffer
		gotErr := WriteJSON(&got, records)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%+v: WriteJSON error %v, json.Encoder error %v", records, gotErr, wantErr)
		}
		if gotErr != nil {
			if got.Len() != 0 || len(want) != 0 {
				t.Fatalf("%+v: a refused export wrote %d bytes (encoder %d)", records, got.Len(), len(want))
			}
			return
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("%+v:\nWriteJSON    %s\njson.Encoder %s", records, got.Bytes(), want)
		}
	})
}

// TestWriteJSONMatchesEncoderOnFaultGrid compares WriteJSON with
// json.Encoder on real grids' records: one with injected faults, where
// retries appear, and one that runs out of memory, where every cell
// falls back without a counted attempt.
func TestWriteJSONMatchesEncoderOnFaultGrid(t *testing.T) {
	oom := faultCfg(0, 0)
	oom.Faults.MemoryBytes = 1
	records := append(RunGrid(chaosSystems(), faultCfg(0.3, 4)), RunGrid(chaosSystems(), oom)...)
	var fallbacks, failures, retried int
	for _, r := range records {
		if r.Fallback {
			fallbacks++
		}
		if r.Failure != "" {
			failures++
		}
		if r.Attempts > 1 {
			retried++
		}
	}
	if fallbacks == 0 || failures == 0 || retried == 0 {
		t.Fatalf("grid lacks an omitempty edge: %d fallbacks, %d failures, %d retried records", fallbacks, failures, retried)
	}
	want, err := encoderJSON(records)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := WriteJSON(&got, records); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("WriteJSON differs from json.Encoder:\n%s\nwant\n%s", got.Bytes(), want)
	}
}
