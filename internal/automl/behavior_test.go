package automl

import (
	"math"
	"testing"
	"time"

	"repro/internal/energy"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/ml"
	"repro/internal/openml"
	"repro/internal/pipeline"
	"repro/internal/tabular"
)

func loadTrainTest(t *testing.T, name string, seed uint64) (tabular.View, tabular.View) {
	t.Helper()
	spec, ok := openml.ByName(name)
	if !ok {
		t.Fatalf("dataset %s missing", name)
	}
	ds := openml.Generate(spec, openml.SmallScale(), seed)
	rng := newTestRNG(seed)
	return ds.All().TrainTestSplit(rng)
}

func fitOn(t *testing.T, sys System, train tabular.View, budget time.Duration, seed uint64) (*Result, *energy.Meter) {
	t.Helper()
	meter := energy.NewMeter(hw.XeonGold6132(), 1)
	res, err := sys.Fit(train, Options{Budget: budget, Meter: meter, Seed: seed})
	if err != nil {
		t.Fatalf("%s: %v", sys.Name(), err)
	}
	return res, meter
}

// TestCAMLStrictBudget reproduces paper Table 7's defining CAML property:
// actual execution time stays within a few percent of the budget.
func TestCAMLStrictBudget(t *testing.T) {
	train, _ := loadTrainTest(t, "segment", 1)
	for _, budget := range []time.Duration{10 * time.Second, 30 * time.Second} {
		res, _ := fitOn(t, NewCAML(), train, budget, 3)
		overrun := float64(res.ExecTime-budget) / float64(budget)
		if overrun > 0.08 {
			t.Errorf("budget %s: CAML ran %s (%.0f%% overrun) — paper: strict adherence",
				budget, res.ExecTime, 100*overrun)
		}
		if res.ExecTime < budget/2 {
			t.Errorf("budget %s: CAML quit early at %s", budget, res.ExecTime)
		}
	}
}

// TestTabPFNConstantExecution: TabPFN's execution time is independent of
// the budget (paper Table 7: 0.29±0.01s everywhere).
func TestTabPFNConstantExecution(t *testing.T) {
	train, _ := loadTrainTest(t, "credit-g", 2)
	var times []time.Duration
	for _, budget := range []time.Duration{time.Second, time.Minute, 5 * time.Minute} {
		res, _ := fitOn(t, NewTabPFN(), train, budget, 4)
		times = append(times, res.ExecTime)
	}
	for i := 1; i < len(times); i++ {
		if times[i] != times[0] {
			t.Errorf("TabPFN execution time varies with budget: %v", times)
		}
	}
	if times[0] > time.Second {
		t.Errorf("TabPFN execution %v, want well below a second", times[0])
	}
}

// TestTabPFNClassLimit: beyond 10 classes the released TabPFN cannot
// predict usefully (paper §3.2).
func TestTabPFNClassLimit(t *testing.T) {
	rng := newTestRNG(5)
	var x [][]float64
	var y []int
	for i := 0; i < 360; i++ {
		c := i % 12
		x = append(x, []float64{6*float64(c) + rng.NormFloat64()})
		y = append(y, c)
	}
	many := tabular.FromRows(x).Frame()
	many.Name, many.Y, many.Classes = "many", y, 12
	res, meter := fitOn(t, NewTabPFN(), many.All(), time.Second, 6)
	pred, err := res.Predict(many.All(), meter)
	if err != nil {
		t.Fatal(err)
	}
	acc := metrics.BalancedAccuracy(many.Y, pred, many.Classes)
	if acc > 0.15 {
		t.Errorf("TabPFN scored %.3f on a 12-class task — the 10-class limit must bind", acc)
	}
}

// TestTabPFNInferenceDominates: the zero-shot system's per-instance
// inference energy must exceed a single-model system's by orders of
// magnitude (paper Fig. 3 right, Observation O2).
func TestTabPFNInferenceEnergyProfile(t *testing.T) {
	train, test := loadTrainTest(t, "phoneme", 7)
	pfnRes, pfnMeter := fitOn(t, NewTabPFN(), train, time.Second, 8)
	if _, err := pfnRes.Predict(test, pfnMeter); err != nil {
		t.Fatal(err)
	}
	camlRes, camlMeter := fitOn(t, NewCAML(), train, 30*time.Second, 8)
	if _, err := camlRes.Predict(test, camlMeter); err != nil {
		t.Fatal(err)
	}
	pfnInfer := pfnMeter.Tracker().KWh(energy.Inference)
	camlInfer := camlMeter.Tracker().KWh(energy.Inference)
	if pfnInfer < 20*camlInfer {
		t.Errorf("TabPFN inference %.3g kWh not ≫ CAML %.3g kWh", pfnInfer, camlInfer)
	}
	pfnExec := pfnMeter.Tracker().KWh(energy.Execution)
	camlExec := camlMeter.Tracker().KWh(energy.Execution)
	if pfnExec > camlExec/10 {
		t.Errorf("TabPFN execution %.3g kWh not ≪ CAML %.3g kWh", pfnExec, camlExec)
	}
	if !pfnRes.GPUInference {
		t.Error("TabPFN not marked GPU-capable at inference")
	}
	if camlRes.GPUInference {
		t.Error("CAML (scikit-learn stack) marked GPU-capable")
	}
}

// TestEnsembleInferenceCost is Observation O1: systems that ensemble need
// at least an order of magnitude more inference energy than systems that
// ship one model.
func TestEnsembleInferenceCost(t *testing.T) {
	train, test := loadTrainTest(t, "sylvine", 9)
	agRes, agMeter := fitOn(t, NewAutoGluon(), train, 30*time.Second, 10)
	if _, err := agRes.Predict(test, agMeter); err != nil {
		t.Fatal(err)
	}
	flamlRes, flamlMeter := fitOn(t, NewFLAML(), train, 30*time.Second, 10)
	if _, err := flamlRes.Predict(test, flamlMeter); err != nil {
		t.Fatal(err)
	}
	agInfer := agMeter.Tracker().KWh(energy.Inference)
	flamlInfer := flamlMeter.Tracker().KWh(energy.Inference)
	if agInfer < 10*flamlInfer {
		t.Errorf("O1 violated: AutoGluon inference %.3g kWh < 10x FLAML %.3g kWh", agInfer, flamlInfer)
	}
}

// TestAutoGluonRefitPresetSavesInference: the inference-optimized preset
// must cut inference energy versus the quality preset (paper §3.4: up to
// 79%).
func TestAutoGluonRefitPresetSavesInference(t *testing.T) {
	train, test := loadTrainTest(t, "vehicle", 11)
	quality, qMeter := fitOn(t, NewAutoGluon(), train, 30*time.Second, 12)
	if _, err := quality.Predict(test, qMeter); err != nil {
		t.Fatal(err)
	}
	fast, fMeter := fitOn(t, NewAutoGluonFastInference(), train, 30*time.Second, 12)
	if _, err := fast.Predict(test, fMeter); err != nil {
		t.Fatal(err)
	}
	qInfer := qMeter.Tracker().KWh(energy.Inference)
	fInfer := fMeter.Tracker().KWh(energy.Inference)
	if fInfer >= qInfer {
		t.Errorf("refit preset inference %.3g kWh not below quality preset %.3g kWh", fInfer, qInfer)
	}
}

// TestCAMLInferenceConstraint: a binding constraint must reduce the
// selected pipeline's inference cost (paper §3.4, Observation O3).
func TestCAMLInferenceConstraint(t *testing.T) {
	train, test := loadTrainTest(t, "mfeat-factors", 13)
	free, freeMeter := fitOn(t, NewCAML(), train, 30*time.Second, 14)
	if _, err := free.Predict(test, freeMeter); err != nil {
		t.Fatal(err)
	}
	params := DefaultCAMLParams()
	params.InferenceLimit = 100 * time.Microsecond
	constrained, conMeter := fitOn(t, &CAML{Params: params, Label: "CAML(c)"}, train, 30*time.Second, 14)
	if _, err := constrained.Predict(test, conMeter); err != nil {
		t.Fatal(err)
	}
	freeInfer := freeMeter.Tracker().KWh(energy.Inference)
	conInfer := conMeter.Tracker().KWh(energy.Inference)
	if conInfer > freeInfer {
		t.Errorf("constrained inference %.3g kWh above unconstrained %.3g kWh", conInfer, freeInfer)
	}
	// The constraint must actually hold on the returned pipeline.
	machine := hw.XeonGold6132()
	if p, ok := constrained.Predictor.(*pipeline.Pipeline); ok {
		_, cost := p.PredictProba(test.Head(8))
		var perInst time.Duration
		for _, w := range cost.Works(0) {
			perInst += machine.Duration(w, 1)
		}
		perInst /= 8
		if perInst > 2*params.InferenceLimit {
			t.Errorf("returned pipeline's per-instance inference %v violates the %v constraint", perInst, params.InferenceLimit)
		}
	}
}

// TestDeterminism: identical options must reproduce identical results —
// the property that makes the whole study replayable.
func TestDeterminism(t *testing.T) {
	train, test := loadTrainTest(t, "credit-g", 15)
	for _, build := range []func() System{
		func() System { return NewCAML() },
		func() System { return NewAutoGluon() },
		func() System { return NewFLAML() },
		func() System { return NewTabPFN() },
	} {
		runOnce := func() (float64, float64) {
			meter := energy.NewMeter(hw.XeonGold6132(), 1)
			res, err := build().Fit(train, Options{Budget: 10 * time.Second, Meter: meter, Seed: 99})
			if err != nil {
				t.Fatal(err)
			}
			pred, err := res.Predict(test, meter)
			if err != nil {
				t.Fatal(err)
			}
			return metrics.BalancedAccuracy(test.LabelsInto(nil), pred, test.Classes()), meter.Tracker().TotalKWh()
		}
		acc1, kwh1 := runOnce()
		acc2, kwh2 := runOnce()
		if acc1 != acc2 || kwh1 != kwh2 {
			t.Errorf("%s: non-deterministic: acc %v/%v, kWh %v/%v", build().Name(), acc1, acc2, kwh1, kwh2)
		}
	}
}

// TestWarmStartPortfolio: auto-sklearn 2's portfolio must order
// configurations by the dataset's meta-features.
func TestWarmStartPortfolio(t *testing.T) {
	space, err := pipeline.FullSpec().Space()
	if err != nil {
		t.Fatal(err)
	}
	small := tabular.MetaFeatures{LogRows: math.Log(200), LogFeatures: math.Log(5), LogClasses: math.Log(2)}
	wide := tabular.MetaFeatures{LogRows: math.Log(5000), LogFeatures: math.Log(4000), LogClasses: math.Log(2)}
	smallPortfolio := WarmStartPortfolio(small, space, 5*time.Minute)
	widePortfolio := WarmStartPortfolio(wide, space, 5*time.Minute)
	if len(smallPortfolio) == 0 || len(widePortfolio) == 0 {
		t.Fatal("empty portfolio")
	}
	// Orders must differ: the warm start is dataset-aware.
	same := true
	for i := range smallPortfolio {
		if i < len(widePortfolio) && smallPortfolio[i].Key() != widePortfolio[i].Key() {
			same = false
			break
		}
	}
	if same {
		t.Error("portfolio ordering ignores meta-features")
	}
	// Every portfolio entry must build.
	for i, cfg := range smallPortfolio {
		if _, err := pipeline.FullSpec().Build(cfg, 10); err != nil {
			t.Errorf("portfolio entry %d does not build: %v", i, err)
		}
	}
	// At short budgets the selector is cost-aware: the first entry must
	// be a cheap family.
	shortPortfolio := WarmStartPortfolio(wide, space, 30*time.Second)
	first, err := pipeline.FullSpec().Build(shortPortfolio[0], 10)
	if err != nil {
		t.Fatal(err)
	}
	switch first.ModelFamily {
	case "tree", "gaussian_nb", "logreg", "svm", "knn", "bernoulli_nb":
	default:
		t.Errorf("30s portfolio starts with expensive family %q", first.ModelFamily)
	}
}

// TestMinBudgets encodes the paper's benchmarked minimum budgets.
func TestMinBudgets(t *testing.T) {
	if got := NewAutoSklearn1().MinBudget(); got != 30*time.Second {
		t.Errorf("ASKL min budget %v, want 30s", got)
	}
	if got := NewTPOT().MinBudget(); got != time.Minute {
		t.Errorf("TPOT min budget %v, want 1m", got)
	}
	for _, sys := range []System{NewCAML(), NewFLAML(), NewTabPFN(), NewAutoGluon()} {
		if sys.MinBudget() != 0 {
			t.Errorf("%s min budget %v, want 0", sys.Name(), sys.MinBudget())
		}
	}
}

// TestOptionsValidation: a nil meter must be rejected by every system.
func TestOptionsValidation(t *testing.T) {
	train, _ := loadTrainTest(t, "credit-g", 16)
	for _, sys := range []System{NewCAML(), NewAutoGluon(), NewFLAML(), NewTabPFN(), NewTPOT(), NewAutoSklearn1()} {
		if _, err := sys.Fit(train, Options{Budget: time.Second}); err == nil {
			t.Errorf("%s accepted a nil meter", sys.Name())
		}
	}
}

// TestTunedParamsReflectTable5 checks the published qualitative structure
// of the tuned parameters.
func TestTunedParamsReflectTable5(t *testing.T) {
	short := DefaultTunedParams(10 * time.Second)
	long := DefaultTunedParams(5 * time.Minute)
	if len(short.Spec.Models) >= len(long.Spec.Models) {
		t.Errorf("search space must grow with budget: %d vs %d families",
			len(short.Spec.Models), len(long.Spec.Models))
	}
	hasTree := func(models []string) bool {
		for _, m := range models {
			if m == "tree" {
				return true
			}
		}
		return false
	}
	if !hasTree(short.Spec.Models) || !hasTree(long.Spec.Models) {
		t.Error("decision trees must appear at every budget (paper Table 5)")
	}
	for _, p := range []CAMLParams{short, long} {
		if p.SampleRows == 0 {
			t.Error("upfront sampling must always be selected (paper §3.7)")
		}
		if !p.Incremental {
			t.Error("incremental training must always be selected (paper §3.7)")
		}
		if !p.RandomValSplit {
			t.Error("random validation splitting must be preferred (paper §3.7)")
		}
	}
	// Refit at 1 minute but not at 5 (the paper's explanation for the
	// 5-minute models' lower inference energy).
	if !DefaultTunedParams(time.Minute).Refit {
		t.Error("1-minute preset should refit")
	}
	if DefaultTunedParams(5 * time.Minute).Refit {
		t.Error("5-minute preset should not refit")
	}
	if long.EvalFraction != 0.17 {
		t.Errorf("5-minute evaluation fraction %v, want 0.17 (paper Table 5)", long.EvalFraction)
	}
}

// TestChargeCostCapped verifies the deadline-kill accounting used by CAML.
func TestChargeCostCapped(t *testing.T) {
	meter := energy.NewMeter(hw.XeonGold6132(), 1)
	// 2e6 generic FLOPs = 1 virtual second on the Xeon model.
	cost := mlCost(4e6)
	d, truncated := chargeCostCapped(meter, energy.Execution, cost, 0, 10*time.Second)
	if truncated {
		t.Error("under-cap work truncated")
	}
	if math.Abs(d.Seconds()-2) > 0.01 {
		t.Errorf("duration %v, want ~2s", d)
	}
	before := meter.Clock().Now()
	d, truncated = chargeCostCapped(meter, energy.Execution, mlCost(40e6), 0, time.Second)
	if !truncated {
		t.Error("over-cap work not truncated")
	}
	if d != time.Second {
		t.Errorf("charged %v, want exactly the 1s cap", d)
	}
	if got := meter.Clock().Now() - before; math.Abs(got.Seconds()-1) > 0.01 {
		t.Errorf("clock advanced %v, want ~1s", got)
	}
	if _, truncated := chargeCostCapped(meter, energy.Execution, mlCost(1), 0, 0); !truncated {
		t.Error("zero cap did not truncate")
	}
}

func mlCost(flops float64) ml.Cost {
	return ml.Cost{Generic: flops}
}

// TestChargeCostCappedEdgeCases pins the deadline-kill boundary behaviour:
// non-positive caps charge nothing, and work whose estimate lands exactly
// on the cap completes uncut.
func TestChargeCostCappedEdgeCases(t *testing.T) {
	meter := energy.NewMeter(hw.XeonGold6132(), 1)

	for _, cap := range []time.Duration{0, -time.Second} {
		d, truncated := chargeCostCapped(meter, energy.Execution, mlCost(2e6), 0, cap)
		if !truncated {
			t.Errorf("cap %v did not truncate", cap)
		}
		if d != 0 {
			t.Errorf("cap %v charged %v, want 0", cap, d)
		}
	}
	if meter.Clock().Now() != 0 {
		t.Errorf("non-positive caps advanced the clock to %v", meter.Clock().Now())
	}
	if meter.Tracker().KWh(energy.Execution) != 0 {
		t.Error("non-positive caps charged energy")
	}

	// 2e6 generic FLOPs = 1 virtual second on the Xeon model: a cost whose
	// estimate equals the cap exactly is not cut off.
	d, truncated := chargeCostCapped(meter, energy.Execution, mlCost(2e6), 0, time.Second)
	if truncated {
		t.Error("cost exactly at the cap was truncated")
	}
	if d != time.Second {
		t.Errorf("charged %v, want exactly 1s", d)
	}
	if got := meter.Clock().Now(); got != time.Second {
		t.Errorf("clock at %v, want 1s", got)
	}
}

// nilProbaPredictor spends inference compute but returns no
// probabilities — the failure mode whose energy must still be metered.
type nilProbaPredictor struct{}

func (nilProbaPredictor) PredictProba(tabular.View) ([][]float64, ml.Cost) {
	return nil, ml.Cost{Generic: 1e6}
}

func TestPredictProbaChargesInferenceOnNilProba(t *testing.T) {
	r := &Result{System: "stub", Predictor: nilProbaPredictor{}}
	meter := energy.NewMeter(hw.XeonGold6132(), 1)
	spec, ok := openml.ByName("phoneme")
	if !ok {
		t.Fatal("dataset phoneme missing")
	}
	x := openml.Generate(spec, openml.SmallScale(), 4).All()
	if _, err := r.PredictProba(x, meter); err == nil {
		t.Fatal("nil probabilities did not surface an error")
	}
	if kwh := meter.Tracker().KWh(energy.Inference); kwh <= 0 {
		t.Errorf("inference energy %v on the nil-proba error path, want > 0", kwh)
	}
}
