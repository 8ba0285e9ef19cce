package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/ml"
	"repro/internal/tabular"
)

// FuzzJournalRecordEncoding checks the journal's encoder against
// encoding/json: for any record, appendRecord writes exactly the bytes
// json.Marshal writes, or both refuse it (NaN and infinite joules).
func FuzzJournalRecordEncoding(f *testing.F) {
	f.Add(uint64(7), uint8(Served), 1, int64(13_000), int64(2_500), math.Float64bits(0.0275), "")
	f.Add(uint64(0), uint8(Failed), -1, int64(-1), int64(0), math.Float64bits(math.NaN()), "predict panic: boom")
	f.Add(uint64(math.MaxUint64), uint8(Shed), -1, int64(math.MaxInt64), int64(math.MinInt64), math.Float64bits(math.Inf(1)), "queue full")
	f.Add(uint64(3), uint8(Expired), 0, int64(5), int64(5), math.Float64bits(math.Inf(-1)), "deadline passed in queue")
	f.Add(uint64(4), uint8(Degraded), 1, int64(0), int64(0), math.Float64bits(math.Copysign(0, -1)), "")
	f.Add(uint64(5), uint8(Served), 0, int64(1), int64(1), math.Float64bits(1e-7), "")
	f.Add(uint64(6), uint8(Served), 0, int64(1), int64(1), math.Float64bits(1e21), "")
	f.Add(uint64(8), uint8(Served), 0, int64(1), int64(1), math.Float64bits(-1.5e-300), "<>&")
	f.Add(uint64(9), uint8(Failed), 2, int64(1), int64(1), math.Float64bits(123456.789), `row has 3 features, model "a\b" takes 1`)
	f.Add(uint64(10), uint8(Failed), 2, int64(1), int64(1), math.Float64bits(1), "bad \xff\xfe utf-8")
	f.Add(uint64(11), uint8(Failed), 2, int64(1), int64(1), math.Float64bits(1), "line\u2028separator\u2029 \t\n\x00\x7f é")
	f.Add(uint64(12), uint8(200), 0, int64(1), int64(1), math.Float64bits(9.999999999999999e20), "")
	f.Fuzz(func(t *testing.T, id uint64, outcome uint8, class int, doneUS, latencyUS int64, joulesBits uint64, msg string) {
		rec := JournalRecord{
			ID:        id,
			Outcome:   Outcome(outcome).String(),
			Class:     class,
			DoneUS:    doneUS,
			LatencyUS: latencyUS,
			Joules:    math.Float64frombits(joulesBits),
			Err:       msg,
		}
		want, err := json.Marshal(rec)
		got, ok := appendRecord([]byte("prefix"), &rec)
		if ok != (err == nil) {
			t.Fatalf("%+v: encoder ok=%v, json.Marshal error %v", rec, ok, err)
		}
		if !bytes.HasPrefix(got, []byte("prefix")) {
			t.Fatalf("%+v: encoder clobbered dst: %q", rec, got)
		}
		if ok && !bytes.Equal(got[len("prefix"):], want) {
			t.Fatalf("%+v:\nencoder      %s\njson.Marshal %s", rec, got[len("prefix"):], want)
		}
	})
}

// discardFile is a journal backing store that accepts and forgets.
type discardFile struct{}

func (discardFile) Write(p []byte) (int, error) { return len(p), nil }
func (discardFile) Sync() error                 { return nil }
func (discardFile) Close() error                { return nil }

// slabPredictor answers every row with the same distribution from one
// preallocated slab, so a predict call itself allocates nothing and what
// a serving-loop measurement counts is the engine and the journal alone.
type slabPredictor struct{ out [][]float64 }

func newSlabPredictor(rows int) *slabPredictor {
	p := &slabPredictor{out: make([][]float64, rows)}
	for i := range p.out {
		p.out[i] = []float64{0.25, 0.75}
	}
	return p
}

func (p *slabPredictor) PredictProba(x tabular.View) ([][]float64, ml.Cost) {
	return p.out[:x.Rows()], ml.Cost{Generic: rowFLOPs * float64(x.Rows())}
}

// closedLoop drives an engine with a closed population on the virtual
// clock: each step, every user submits one request, and the engine then
// advances past the batch window and the batch's predict, so every user
// has its answer before it asks again.
type closedLoop struct {
	e     *Engine
	users int
	rows  [][]float64
	at    time.Duration
	id    uint64
}

func newClosedLoop(tb testing.TB, users int) *closedLoop {
	tb.Helper()
	m := testModel(newSlabPredictor(users))
	m.Features = 3
	e := NewEngine(m, hw.XeonGold6132(), Config{BatchWindow: time.Millisecond, BatchMax: users})
	e.SetJournal(newJournal(discardFile{}))
	return &closedLoop{e: e, users: users, rows: [][]float64{{0, 1, 2}, {3, 4, 5}, {6, 7, 8}}}
}

// step runs one round and reports how many requests resolved in it.
func (c *closedLoop) step() int {
	resolved := 0
	for u := 0; u < c.users; u++ {
		resolved += len(c.e.Submit(Request{ID: c.id, Row: c.rows[c.id%3], Arrival: c.at}))
		c.id++
	}
	c.at += 50 * time.Millisecond
	return resolved + len(c.e.AdvanceTo(c.at))
}

// TestServingLoopAllocationFree pins the serving loop's steady state:
// once its buffers have grown, a closed-loop round of admit, batch,
// predict and journal allocates nothing in the engine or the journal.
func TestServingLoopAllocationFree(t *testing.T) {
	const users = 8
	c := newClosedLoop(t, users)
	for i := 0; i < 16; i++ {
		if got := c.step(); got != users {
			t.Fatalf("round %d resolved %d of %d requests", i, got, users)
		}
	}
	if got := testing.AllocsPerRun(200, func() { c.step() }); got != 0 {
		t.Errorf("a round of %d requests allocates %v times, want 0", users, got)
	}
	if st := c.e.Stats(); st.Count(Served) != int(c.id) || st.JournalDropped != 0 {
		t.Fatalf("served %d of %d requests, %d journal drops", st.Count(Served), c.id, st.JournalDropped)
	}
}

// TestJournalAppendAllocationFree pins the encoder at zero allocations
// per line, the engine messages' escape-free strings included.
func TestJournalAppendAllocationFree(t *testing.T) {
	j := newJournal(discardFile{})
	r := Response{ID: 1, Outcome: Expired, Class: -1, Done: 3 * time.Millisecond, Latency: time.Millisecond,
		Joules: 1.25e-7, Err: "deadline passed during predict"}
	if got := testing.AllocsPerRun(200, func() { j.Append(&r) }); got != 0 {
		t.Errorf("Append allocates %v times per line", got)
	}
}

// BenchmarkJournalAppend measures one journal line: encode, frame and
// buffer a served request's record.
func BenchmarkJournalAppend(b *testing.B) {
	j := newJournal(discardFile{})
	r := Response{ID: 123456, Outcome: Served, Class: 1, Done: 1234567 * time.Microsecond,
		Latency: 2345 * time.Microsecond, Joules: 0.031712500000000004}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.ID++
		j.Append(&r)
	}
}

// BenchmarkEngineClosedLoop measures the serving loop without the load
// generator: one op is one closed-loop round of 8 requests admitted,
// batched, predicted by an allocation-free predictor and journaled.
func BenchmarkEngineClosedLoop(b *testing.B) {
	c := newClosedLoop(b, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.step()
	}
}
