package faults

import (
	"errors"
	"testing"
	"time"

	"repro/internal/automl"
	"repro/internal/energy"
	"repro/internal/hw"
	"repro/internal/openml"
	"repro/internal/tabular"
)

func TestNilInjectorInjectsNothing(t *testing.T) {
	var in *Injector
	if in != New(Config{}) {
		t.Error("disabled config should yield a nil injector")
	}
	if !in.CellPlan("S", "d", time.Second, 0, 0).Empty() {
		t.Error("nil injector produced a plan")
	}
	if in.DatasetFault("d", 1, 0) != nil {
		t.Error("nil injector produced a dataset fault")
	}
	if in.CheckOOM("d", 1<<20, 1<<20) != nil {
		t.Error("nil injector produced an OOM")
	}
}

func TestCellPlanDeterministicAndOrderIndependent(t *testing.T) {
	a := New(Config{Rate: 0.5, Seed: 42})
	b := New(Config{Rate: 0.5, Seed: 42})
	// Drain unrelated sites on b first: decisions must not depend on
	// call order.
	for i := uint64(0); i < 20; i++ {
		b.CellPlan("other", "other", time.Minute, i, 0)
	}
	for seed := uint64(0); seed < 50; seed++ {
		pa := a.CellPlan("CAML", "adult", 10*time.Second, seed, 0)
		pb := b.CellPlan("CAML", "adult", 10*time.Second, seed, 0)
		if pa != pb {
			t.Fatalf("seed %d: plans diverge: %+v vs %+v", seed, pa, pb)
		}
	}
}

func TestCellPlanRateBounds(t *testing.T) {
	always := New(Config{Rate: 1, Seed: 1})
	hits := 0
	for seed := uint64(0); seed < 40; seed++ {
		if !always.CellPlan("S", "d", time.Second, seed, 0).Empty() {
			hits++
		}
	}
	if hits != 40 {
		t.Errorf("rate 1 fired %d/40 times", hits)
	}
	// A fired plan carries exactly one fault kind.
	p := always.CellPlan("S", "d", time.Second, 0, 0)
	kinds := 0
	for _, b := range []bool{p.FitPanic, p.FitError, p.PredictError, p.DropoutFrac > 0} {
		if b {
			kinds++
		}
	}
	if kinds != 1 {
		t.Errorf("plan %+v carries %d kinds, want 1", p, kinds)
	}
}

func TestDatasetFaultClearsOnRetry(t *testing.T) {
	in := New(Config{Rate: 0.3, Seed: 9})
	// With per-attempt redraws, some attempt within a small horizon must
	// succeed for every dataset.
	for _, name := range []string{"adult", "credit-g", "dionis"} {
		ok := false
		for attempt := 0; attempt < 8; attempt++ {
			if in.DatasetFault(name, 1, attempt) == nil {
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("dataset %s never generated in 8 attempts at rate 0.3", name)
		}
	}
	err := New(Config{Rate: 1, Seed: 9}).DatasetFault("adult", 1, 0)
	if KindOf(err, None) != DatasetError {
		t.Errorf("kind %q, want dataset-error", KindOf(err, None))
	}
}

func TestCheckOOM(t *testing.T) {
	in := New(Config{MemoryBytes: WorkingSetBytes(1000, 10)})
	if err := in.CheckOOM("small", 1000, 10); err != nil {
		t.Errorf("working set at the limit OOMed: %v", err)
	}
	err := in.CheckOOM("big", 2000, 10)
	if err == nil || err.Kind != OOM {
		t.Fatalf("oversized working set not killed: %v", err)
	}
}

func TestKindOf(t *testing.T) {
	if k := KindOf(errors.New("plain"), FitError); k != FitError {
		t.Errorf("plain error kind %q", k)
	}
	wrapped := &Error{Kind: FitPanic, Site: "fit/X", Err: errors.New("boom")}
	if k := KindOf(wrapped, FitError); k != FitPanic {
		t.Errorf("typed error kind %q", k)
	}
	if !errors.Is(wrapped, wrapped.Err) {
		t.Error("Unwrap broken")
	}
}

// testMeter builds a small execution meter for wrapper tests.
func testMeter() *energy.Meter { return energy.NewMeter(hw.XeonGold6132(), 1) }

// testTrain generates a small deterministic training view.
func testTrain(t *testing.T) tabular.View {
	t.Helper()
	spec, ok := openml.ByName("credit-g")
	if !ok {
		t.Fatal("credit-g spec missing")
	}
	return openml.Generate(spec, openml.SmallScale(), 1).All()
}

func TestWrapFitError(t *testing.T) {
	inner := automl.NewTabPFN()
	meter := testMeter()
	train := testTrain(t)

	sys := Wrap(inner, Plan{FitError: true, WasteFrac: 0.5})
	_, err := sys.Fit(train, automl.Options{Budget: 10 * time.Second, Meter: meter})
	if KindOf(err, None) != FitError {
		t.Fatalf("err %v, want injected fit-error", err)
	}
	if meter.Tracker().KWh(energy.Execution) <= 0 {
		t.Error("crash burned no energy — wasted compute must be charged")
	}
	if got := meter.Clock().Now(); got != 5*time.Second {
		t.Errorf("waste advanced clock by %s, want 5s", got)
	}
}

func TestWrapFitPanic(t *testing.T) {
	train := testTrain(t)
	sys := Wrap(automl.NewTabPFN(), Plan{FitPanic: true, WasteFrac: 0.1})
	defer func() {
		r := recover()
		fe, ok := r.(*Error)
		if !ok || fe.Kind != FitPanic {
			t.Errorf("panic value %v, want typed fit-panic", r)
		}
	}()
	sys.Fit(train, automl.Options{Budget: time.Second, Meter: testMeter()})
	t.Error("injected panic did not fire")
}

func TestWrapPredictErrorCorruptsPredictor(t *testing.T) {
	train := testTrain(t)
	sys := Wrap(automl.NewTabPFN(), Plan{PredictError: true})
	res, err := sys.Fit(train, automl.Options{Budget: time.Second, Meter: testMeter()})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		fe, ok := r.(*Error)
		if !ok || fe.Kind != PredictError {
			t.Errorf("panic value %v, want typed predict-error", r)
		}
	}()
	res.Predictor.PredictProba(train)
	t.Error("corrupt predictor did not fire")
}

func TestWrapEmptyPlanIsTransparent(t *testing.T) {
	inner := automl.NewTabPFN()
	if Wrap(inner, Plan{}) != automl.System(inner) {
		t.Error("empty plan should return the inner system unchanged")
	}
	wrapped := Wrap(inner, Plan{FitError: true})
	if wrapped.Name() != inner.Name() || wrapped.MinBudget() != inner.MinBudget() {
		t.Error("wrapper must preserve identity")
	}
}

func TestHangPlanDeterministicAndIndependent(t *testing.T) {
	always := New(Config{HangRate: 1, Seed: 3})
	for seed := uint64(0); seed < 20; seed++ {
		p := always.CellPlan("S", "d", time.Second, seed, 0)
		if !p.Hang {
			t.Fatalf("seed %d: hang rate 1 produced %+v", seed, p)
		}
		if p.WasteFrac < 0.1 || p.WasteFrac > 0.6 {
			t.Fatalf("seed %d: hang waste %v outside [0.1, 0.6]", seed, p.WasteFrac)
		}
	}
	// Enabling hangs must not perturb the crash/error/dropout decisions
	// an existing fault seed produces on the sites hangs skip.
	plain := New(Config{Rate: 0.5, Seed: 42})
	mixed := New(Config{Rate: 0.5, HangRate: 0.25, Seed: 42})
	for seed := uint64(0); seed < 60; seed++ {
		pm := mixed.CellPlan("CAML", "adult", 10*time.Second, seed, 0)
		if pm.Hang {
			continue
		}
		if pp := plain.CellPlan("CAML", "adult", 10*time.Second, seed, 0); pm != pp {
			t.Fatalf("seed %d: hang stream leaked into fault decisions: %+v vs %+v", seed, pm, pp)
		}
	}
}

// TestWrapHangReportsStall pins the hang fault's contract: it burns
// WasteFrac of the budget, stops advancing the virtual clock, and
// returns a typed stall error instead of a result.
func TestWrapHangReportsStall(t *testing.T) {
	meter := testMeter()
	sys := Wrap(automl.NewTabPFN(), Plan{Hang: true, WasteFrac: 0.25})
	res, err := sys.Fit(testTrain(t), automl.Options{Budget: 8 * time.Second, Meter: meter})
	if res != nil || KindOf(err, None) != Stall {
		t.Fatalf("hang returned (%+v, %v), want typed stall", res, err)
	}
	if got := meter.Clock().Now(); got != 2*time.Second {
		t.Errorf("hang advanced clock by %s, want the 2s waste and nothing after", got)
	}
	if meter.Tracker().KWh(energy.Execution) <= 0 {
		t.Error("hang burned no energy — the budget consumed before the stall must stay charged")
	}
}
