package serve

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/energy"
	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/ml"
	"repro/internal/tabular"
)

// The test machine runs 2e6 virtual FLOPs/s per core, so a row costing
// rowFLOPs=2000 predicts in 1ms of virtual time.
const rowFLOPs = 2000

// scriptedPredictor is the chaos stand-in for a fitted pipeline: it
// predicts class int(row[0]) deterministically, and failAt can make any
// given call panic (the faults package's corruption model) or stall
// (report hours of cost, hitting the predict timeout).
type scriptedPredictor struct {
	classes int
	calls   int
	failAt  func(call int) string // "", "panic", "stall"
}

func (p *scriptedPredictor) PredictProba(x tabular.View) ([][]float64, ml.Cost) {
	call := p.calls
	p.calls++
	mode := ""
	if p.failAt != nil {
		mode = p.failAt(call)
	}
	if mode == "panic" {
		panic(&faults.Error{Kind: faults.PredictError, Site: "serve/test"})
	}
	cost := ml.Cost{Generic: rowFLOPs * float64(x.Rows())}
	if mode == "stall" {
		cost.Generic = 2e12 // ~11.5 virtual days: guaranteed past any timeout
	}
	proba := make([][]float64, x.Rows())
	for i := range proba {
		row := make([]float64, p.classes)
		c := int(x.At(i, 0)) % p.classes
		if c < 0 {
			c = 0
		}
		for j := range row {
			row[j] = 0.1 / float64(p.classes)
		}
		row[c] = 1 - 0.1/float64(p.classes)*float64(p.classes-1)
		proba[i] = row
	}
	return proba, cost
}

func testModel(p Predictor) *Model {
	return &Model{
		Name:     "scripted",
		Pred:     p,
		Features: 1,
		Classes:  2,
		Majority: 1,
		Priors:   []float64{0.25, 0.75},
		RowCost:  ml.Cost{Generic: rowFLOPs},
	}
}

func testEngine(t *testing.T, p Predictor, cfg Config) *Engine {
	t.Helper()
	return NewEngine(testModel(p), hw.XeonGold6132(), cfg)
}

// checkConservation sums the per-response ledger in resolution order and
// requires bit-equality with the tracker — the invariant every serving
// test rides on.
func checkConservation(t *testing.T, e *Engine, resps []Response) {
	t.Helper()
	var ledger float64
	for _, r := range resps {
		ledger += r.Joules
	}
	if got := e.Tracker().Joules(energy.Inference); got != ledger {
		t.Fatalf("conservation violated: tracker %v J, response ledger %v J", got, ledger)
	}
}

func TestServedHappyPath(t *testing.T) {
	e := testEngine(t, &scriptedPredictor{classes: 2}, Config{BatchWindow: 10 * time.Millisecond})
	var resps []Response
	for i := 0; i < 3; i++ {
		resps = append(resps, e.Submit(Request{ID: uint64(i), Row: []float64{float64(i % 2)}, Arrival: time.Duration(i) * time.Millisecond})...)
	}
	if len(resps) != 0 {
		t.Fatalf("requests resolved before the batch window: %v", resps)
	}
	resps = e.AdvanceTo(time.Second)
	if len(resps) != 3 {
		t.Fatalf("got %d responses, want 3", len(resps))
	}
	// Flush at 0+10ms, 3 rows at 1ms each: done at 13ms.
	wantDone := 13 * time.Millisecond
	for i, r := range resps {
		if r.Outcome != Served {
			t.Fatalf("response %d outcome %v, want served (%s)", i, r.Outcome, r.Err)
		}
		if r.Class != i%2 {
			t.Fatalf("response %d class %d, want %d", i, r.Class, i%2)
		}
		if r.Done != wantDone {
			t.Fatalf("response %d done at %v, want %v", i, r.Done, wantDone)
		}
		if want := wantDone - time.Duration(i)*time.Millisecond; r.Latency != want {
			t.Fatalf("response %d latency %v, want %v", i, r.Latency, want)
		}
		if r.Joules <= 0 {
			t.Fatalf("response %d charged %v J", i, r.Joules)
		}
	}
	checkConservation(t, e, resps)
}

func TestFullBatchFlushesEarly(t *testing.T) {
	e := testEngine(t, &scriptedPredictor{classes: 2}, Config{BatchMax: 4, BatchWindow: time.Hour})
	var resps []Response
	for i := 0; i < 4; i++ {
		resps = append(resps, e.Submit(Request{ID: uint64(i), Row: []float64{0}, Arrival: time.Millisecond})...)
	}
	if len(resps) != 4 {
		t.Fatalf("full batch did not flush before the window: %d responses", len(resps))
	}
	if resps[0].Done != time.Millisecond+4*time.Millisecond {
		t.Fatalf("batch done at %v", resps[0].Done)
	}
}

func TestQueueBoundedUnderFlood(t *testing.T) {
	const cap = 8
	e := testEngine(t, &scriptedPredictor{classes: 2}, Config{QueueCap: cap, BatchMax: 4, BatchWindow: time.Millisecond})
	var all []Response
	const flood = 200
	for i := 0; i < flood; i++ {
		all = append(all, e.Submit(Request{ID: uint64(i), Row: []float64{1}, Arrival: 0})...)
		if got := e.Stats().QueueLen; got > cap {
			t.Fatalf("queue grew to %d, cap is %d", got, cap)
		}
	}
	all = append(all, e.Drain(time.Hour)...)
	if len(all) != flood {
		t.Fatalf("%d requests resolved to %d responses", flood, len(all))
	}
	st := e.Stats()
	if st.Count(Shed) == 0 {
		t.Fatal("a 200-request flood into an 8-slot queue shed nothing")
	}
	if st.Count(Served)+st.Count(Shed) != flood {
		t.Fatalf("outcomes %v do not partition the flood", st.Outcomes)
	}
	for _, r := range all {
		if r.Outcome == Shed && !strings.Contains(r.Err, "queue full") && !strings.Contains(r.Err, "draining") {
			t.Fatalf("unexpected shed reason %q", r.Err)
		}
	}
	checkConservation(t, e, all)
}

func TestDeadlineShedAtAdmission(t *testing.T) {
	e := testEngine(t, &scriptedPredictor{classes: 2}, Config{BatchWindow: 10 * time.Millisecond})
	// The batch window alone outruns this deadline: shed, don't queue.
	resps := e.Submit(Request{ID: 1, Row: []float64{0}, Arrival: 0, Deadline: 5 * time.Millisecond})
	if len(resps) != 1 || resps[0].Outcome != Shed {
		t.Fatalf("infeasible deadline not shed: %+v", resps)
	}
	if !strings.Contains(resps[0].Err, "deadline") {
		t.Fatalf("shed reason %q does not name the deadline", resps[0].Err)
	}
	if e.Stats().QueueLen != 0 {
		t.Fatal("shed request was queued anyway")
	}
	// A comfortable deadline is admitted and served.
	resps = e.Submit(Request{ID: 2, Row: []float64{0}, Arrival: 0, Deadline: time.Second})
	if len(resps) != 0 {
		t.Fatalf("feasible request refused: %+v", resps)
	}
	resps = e.AdvanceTo(time.Second)
	if len(resps) != 1 || resps[0].Outcome != Served {
		t.Fatalf("feasible request not served: %+v", resps)
	}
}

// underestimated wraps the scripted predictor so every row really costs
// 10x the RowCost advertised to admission control — the surprise that
// lets a deadline die in the queue despite a fully-informed estimator.
type underestimated struct{ inner *scriptedPredictor }

func (u underestimated) PredictProba(x tabular.View) ([][]float64, ml.Cost) {
	proba, cost := u.inner.PredictProba(x)
	return proba, cost.Scale(10)
}

func TestDeadlineExpiresInQueue(t *testing.T) {
	// Rows really cost 10ms against a 1ms estimate. Request 4 is
	// admitted behind three underestimated rows (estimate ~14ms, its
	// deadline allows 20ms), lands in the leftover batch, and by the
	// time the server frees up its deadline is gone — it must be
	// abandoned before predict spends anything on it.
	e := testEngine(t, underestimated{&scriptedPredictor{classes: 2}}, Config{BatchWindow: time.Millisecond, BatchMax: 2})
	var all []Response
	all = append(all, e.Submit(Request{ID: 1, Row: []float64{0}, Arrival: 0})...)
	all = append(all, e.AdvanceTo(2*time.Millisecond)...) // batch 1 runs: busy until 11ms
	all = append(all, e.Submit(Request{ID: 2, Row: []float64{0}, Arrival: 2 * time.Millisecond})...)
	all = append(all, e.Submit(Request{ID: 3, Row: []float64{0}, Arrival: 2 * time.Millisecond})...)
	resps := e.Submit(Request{ID: 4, Row: []float64{0}, Arrival: 2 * time.Millisecond, Deadline: 22 * time.Millisecond})
	if len(resps) != 0 {
		t.Fatalf("request 4 refused at admission: %+v", resps)
	}
	all = append(all, e.AdvanceTo(time.Hour)...)
	byID := map[uint64]Response{}
	for _, r := range all {
		byID[r.ID] = r
	}
	if len(all) != 4 {
		t.Fatalf("got %d responses, want 4", len(all))
	}
	for _, id := range []uint64{2, 3} {
		if byID[id].Outcome != Served {
			t.Fatalf("request %d outcome %v, want served", id, byID[id].Outcome)
		}
	}
	r4 := byID[4]
	if r4.Outcome != Expired || !strings.Contains(r4.Err, "queue") {
		t.Fatalf("request 4: %v %q, want expired in queue", r4.Outcome, r4.Err)
	}
	checkConservation(t, e, all)
}

func TestDeadlineExpiresDuringPredict(t *testing.T) {
	// The predictor reports 10x the advertised RowCost, so admission
	// thinks the deadline fits but the batch finishes too late. The
	// work was spent: the expired request is still charged its share.
	slow := &scriptedPredictor{classes: 2}
	e := NewEngine(&Model{
		Name: "slow", Pred: slow, Features: 1, Classes: 2, Majority: 0, Priors: []float64{0.5, 0.5},
		RowCost: ml.Cost{Generic: rowFLOPs / 10},
	}, hw.XeonGold6132(), Config{BatchWindow: time.Millisecond})
	resps := e.Submit(Request{ID: 1, Row: []float64{0}, Arrival: 0, Deadline: 1200 * time.Microsecond})
	if len(resps) != 0 {
		t.Fatalf("refused at admission: %+v", resps)
	}
	all := e.AdvanceTo(time.Second)
	if len(all) != 1 || all[0].Outcome != Expired {
		t.Fatalf("got %+v, want one expired response", all)
	}
	if !strings.Contains(all[0].Err, "during predict") {
		t.Fatalf("expiry reason %q", all[0].Err)
	}
	if all[0].Joules <= 0 {
		t.Fatal("expired-during-predict request was not charged for the spent work")
	}
	checkConservation(t, e, all)
}

func TestBreakerTripHalfOpenClose(t *testing.T) {
	const threshold = 3
	pred := &scriptedPredictor{classes: 2, failAt: func(call int) string {
		if call < threshold {
			return "panic"
		}
		return ""
	}}
	cfg := Config{BatchWindow: time.Millisecond, BreakerThreshold: threshold, BreakerCooldown: time.Second}
	e := testEngine(t, pred, cfg)

	var all []Response
	at := time.Duration(0)
	submitAndSettle := func(id uint64) Response {
		rs := slices.Clone(e.Submit(Request{ID: id, Row: []float64{0}, Arrival: at}))
		rs = append(rs, e.AdvanceTo(at+500*time.Millisecond)...)
		at += 500 * time.Millisecond
		all = append(all, rs...)
		if len(rs) != 1 {
			t.Fatalf("request %d resolved to %d responses", id, len(rs))
		}
		return rs[0]
	}

	// Three panicking batches trip the breaker.
	for i := uint64(0); i < threshold; i++ {
		if r := submitAndSettle(i); r.Outcome != Failed {
			t.Fatalf("failure %d outcome %v, want failed", i, r.Outcome)
		}
	}
	if st := e.Stats(); st.Breaker != BreakerOpen || st.BreakerTrips != 1 {
		t.Fatalf("breaker %v after %d failures (trips %d), want open/1", st.Breaker, threshold, st.BreakerTrips)
	}

	// While open: instant degraded fallback, labeled as such.
	r := submitAndSettle(10)
	if r.Outcome != Degraded || r.Class != 1 {
		t.Fatalf("open-breaker response %v class %d, want degraded majority class 1", r.Outcome, r.Class)
	}
	if r.Proba[1] != 0.75 {
		t.Fatalf("degraded proba %v, want the training priors", r.Proba)
	}

	// Past the cooldown the next request probes the primary (half-open)
	// and, with the fault cleared, closes the breaker.
	at += cfg.BreakerCooldown
	if r := submitAndSettle(11); r.Outcome != Served {
		t.Fatalf("half-open probe outcome %v (%s), want served", r.Outcome, r.Err)
	}
	if st := e.Stats(); st.Breaker != BreakerClosed {
		t.Fatalf("breaker %v after successful probe, want closed", st.Breaker)
	}
	if r := submitAndSettle(12); r.Outcome != Served {
		t.Fatalf("post-recovery outcome %v, want served", r.Outcome)
	}
	checkConservation(t, e, all)
}

func TestBreakerReopensOnFailedProbe(t *testing.T) {
	pred := &scriptedPredictor{classes: 2, failAt: func(call int) string { return "panic" }}
	cfg := Config{BatchWindow: time.Millisecond, BreakerThreshold: 2, BreakerCooldown: time.Second}
	e := testEngine(t, pred, cfg)
	at := time.Duration(0)
	step := func(id uint64) Response {
		rs := slices.Clone(e.Submit(Request{ID: id, Row: []float64{0}, Arrival: at}))
		rs = append(rs, e.AdvanceTo(at+100*time.Millisecond)...)
		at += 100 * time.Millisecond
		if len(rs) != 1 {
			t.Fatalf("request %d resolved to %d responses", id, len(rs))
		}
		return rs[0]
	}
	step(0)
	step(1) // trips
	if e.Stats().Breaker != BreakerOpen {
		t.Fatal("breaker not open after threshold failures")
	}
	at += cfg.BreakerCooldown
	if r := step(2); r.Outcome != Failed {
		t.Fatalf("half-open probe outcome %v, want failed", r.Outcome)
	}
	st := e.Stats()
	if st.Breaker != BreakerOpen || st.BreakerTrips != 2 {
		t.Fatalf("failed probe left breaker %v with %d trips, want open/2", st.Breaker, st.BreakerTrips)
	}
}

func TestPredictTimeoutCharged(t *testing.T) {
	pred := &scriptedPredictor{classes: 2, failAt: func(call int) string { return "stall" }}
	cfg := Config{BatchWindow: time.Millisecond, PredictTimeout: 50 * time.Millisecond}
	e := testEngine(t, pred, cfg)
	e.Submit(Request{ID: 1, Row: []float64{0}, Arrival: 0})
	all := e.AdvanceTo(time.Minute)
	if len(all) != 1 || all[0].Outcome != Failed || !strings.Contains(all[0].Err, "timeout") {
		t.Fatalf("stalled batch: %+v, want failed with timeout", all)
	}
	// Only the truncated duration is charged, and the server frees up
	// at flush + timeout, not flush + stall.
	if want := time.Millisecond + cfg.PredictTimeout; all[0].Done != want {
		t.Fatalf("timed-out batch done at %v, want %v", all[0].Done, want)
	}
	wantJ := hw.XeonGold6132().Energy(cfg.PredictTimeout, 1, false, false)
	if all[0].Joules != wantJ {
		t.Fatalf("timed-out batch charged %v J, want %v J", all[0].Joules, wantJ)
	}
	checkConservation(t, e, all)
}

func TestSwapKeepsInFlightRequests(t *testing.T) {
	e := testEngine(t, &scriptedPredictor{classes: 2}, Config{BatchWindow: 10 * time.Millisecond})
	e.Submit(Request{ID: 1, Row: []float64{1}, Arrival: 0})
	e.Submit(Request{ID: 2, Row: []float64{0}, Arrival: time.Millisecond})

	// Hot reload mid-window: a "model" that always answers class 0.
	always0 := &scriptedPredictor{classes: 2, failAt: nil}
	e.Swap(&Model{Name: "v2", Pred: alwaysClass0{always0}, Features: 1, Classes: 2, Majority: 0,
		Priors: []float64{0.9, 0.1}, RowCost: ml.Cost{Generic: rowFLOPs}})

	all := e.AdvanceTo(time.Second)
	if len(all) != 2 {
		t.Fatalf("swap dropped in-flight requests: %d of 2 resolved", len(all))
	}
	for _, r := range all {
		if r.Outcome != Served || r.Class != 0 {
			t.Fatalf("response %d: %v class %d, want served class 0 from the new model", r.ID, r.Outcome, r.Class)
		}
	}
	if e.Stats().Model != "v2" {
		t.Fatalf("stats report model %q after swap", e.Stats().Model)
	}
}

// TestEngineFailsRowsOfAnotherWidth batches rows wider and narrower than
// the model's one feature with rows that fit. A batch used to take its
// width from its first row: a wider row after it panicked outside
// predict's recover, and a narrower one was zero-filled and served. Each
// misfit now fails on its own, the fitting rows are served, the breaker
// stays closed (the model did nothing wrong), and the ledger conserves.
// A swap to a wider model moves the check with it.
func TestEngineFailsRowsOfAnotherWidth(t *testing.T) {
	for _, tc := range []struct {
		name       string
		rows       [][]float64
		wantFailed []bool
	}{
		{"wider after fitting", [][]float64{{1}, {0, 5, 6}}, []bool{false, true}},
		{"fitting after wider", [][]float64{{1, 9, 9}, {1}}, []bool{true, false}},
		{"empty row", [][]float64{{}, {0}}, []bool{true, false}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := testEngine(t, &scriptedPredictor{classes: 2}, Config{BatchWindow: time.Millisecond})
			for i, row := range tc.rows {
				e.Submit(Request{ID: uint64(i), Row: row, Arrival: 0})
			}
			all := e.AdvanceTo(time.Second)
			if len(all) != len(tc.rows) {
				t.Fatalf("%d of %d requests resolved", len(all), len(tc.rows))
			}
			for _, r := range all {
				row := tc.rows[r.ID]
				if !tc.wantFailed[r.ID] {
					if r.Outcome != Served || r.Class != int(row[0]) {
						t.Fatalf("fitting row %v: %v class %d (%s), want served class %d", row, r.Outcome, r.Class, r.Err, int(row[0]))
					}
					continue
				}
				want := fmt.Sprintf("row has %d features, model %q takes 1", len(row), "scripted")
				if r.Outcome != Failed || r.Err != want || r.Class != -1 || r.Proba != nil {
					t.Fatalf("row %v: %v class %d %q, want failed %q", row, r.Outcome, r.Class, r.Err, want)
				}
			}
			if st := e.Stats(); st.Breaker != BreakerClosed || st.BreakerTrips != 0 {
				t.Fatalf("width misfits moved the breaker: %v, %d trips", st.Breaker, st.BreakerTrips)
			}
			checkConservation(t, e, all)
		})
	}

	t.Run("swap", func(t *testing.T) {
		e := testEngine(t, &scriptedPredictor{classes: 2}, Config{BatchWindow: time.Millisecond})
		e.Submit(Request{ID: 1, Row: []float64{1}, Arrival: 0})
		e.Swap(&Model{Name: "wide", Pred: &scriptedPredictor{classes: 2}, Features: 3, Classes: 2,
			Priors: []float64{0.5, 0.5}, RowCost: ml.Cost{Generic: rowFLOPs}})
		e.Submit(Request{ID: 2, Row: []float64{1, 0, 0}, Arrival: 0})
		all := e.AdvanceTo(time.Second)
		if len(all) != 2 || all[0].Outcome != Failed || all[1].Outcome != Served {
			t.Fatalf("after a swap to a 3-feature model: %+v, want the 1-feature row failed and the 3-feature row served", all)
		}
		if !strings.Contains(all[0].Err, `model "wide" takes 3`) {
			t.Fatalf("error %q does not name the swapped model's width", all[0].Err)
		}
		checkConservation(t, e, all)
	})
}

// alwaysClass0 wraps a predictor and forces class 0 — the "new version"
// in hot-reload tests.
type alwaysClass0 struct{ inner *scriptedPredictor }

func (a alwaysClass0) PredictProba(x tabular.View) ([][]float64, ml.Cost) {
	proba, cost := a.inner.PredictProba(x)
	for i := range proba {
		for j := range proba[i] {
			proba[i][j] = 0
		}
		proba[i][0] = 1
	}
	return proba, cost
}

func TestDrainResolvesEverythingThenSheds(t *testing.T) {
	e := testEngine(t, &scriptedPredictor{classes: 2}, Config{BatchWindow: time.Hour})
	for i := 0; i < 5; i++ {
		e.Submit(Request{ID: uint64(i), Row: []float64{0}, Arrival: 0})
	}
	all := slices.Clone(e.Drain(time.Millisecond))
	if len(all) != 5 {
		t.Fatalf("drain resolved %d of 5 queued requests", len(all))
	}
	for _, r := range all {
		if r.Outcome != Served {
			t.Fatalf("drained request %d outcome %v", r.ID, r.Outcome)
		}
	}
	if e.Stats().QueueLen != 0 {
		t.Fatal("drain left requests queued")
	}
	post := e.Submit(Request{ID: 99, Row: []float64{0}, Arrival: time.Second})
	if len(post) != 1 || post[0].Outcome != Shed || !strings.Contains(post[0].Err, "draining") {
		t.Fatalf("post-drain submit: %+v, want shed (draining)", post)
	}
	checkConservation(t, e, append(all, post...))
}
