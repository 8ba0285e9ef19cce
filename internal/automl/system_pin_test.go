package automl

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"sort"
	"testing"
	"time"

	"repro/internal/energy"
	"repro/internal/hw"
	"repro/internal/ml"
	"repro/internal/pipeline"
	"repro/internal/tabular"
)

// systemPinDigest is the SHA-256 of every pinned run's Result fields,
// test-view probabilities and inference Cost, per-stage joules and clock,
// plus every warm-start and default zero-shot portfolio entry, recorded
// before the search layer's duplicated evaluation, k-fold, preset, bag
// and fallback code was folded into one implementation each.
const systemPinDigest = "9c624ed0b607c4fda6839a94fe2bf0a579a2728d41e418a98ecec0fe0ffa1759"

// pinnedSystem is one system run of the pin, with its search budget.
type pinnedSystem struct {
	sys    System
	budget time.Duration
}

// pinnedSystems lists every system the search layer implements, in the
// configurations that reach each of its code paths: TabPFN past its class
// limit; CAML through incremental, one-shot and k-fold evaluation, its
// energy objective, inference constraint and early stop, and with too
// little budget to evaluate anything; CAML(tuned) with and without refit; both AutoGluon presets,
// also at a budget long enough to escalate; ZeroShot with the default
// and with a custom portfolio.
func pinnedSystems() []pinnedSystem {
	const short = 10 * time.Second
	cv := DefaultCAMLParams()
	cv.CVFolds = 3
	constrained := DefaultCAMLParams()
	constrained.EnergyWeight = 0.05
	constrained.InferenceLimit = 50 * time.Microsecond
	constrained.EarlyStopPatience = 4
	oneShot := DefaultCAMLParams()
	oneShot.Incremental = false
	custom := DefaultZeroShotPortfolio()
	custom = []pipeline.Config{custom[4], custom[1], custom[6]}
	return []pinnedSystem{
		{NewTabPFN(), short},
		{&TabPFN{MaxClasses: 1}, short},
		{NewCAML(), short},
		{NewCAML(), time.Millisecond},
		{&CAML{Params: oneShot}, short},
		{&CAML{Params: cv}, short},
		{&CAML{Params: constrained}, short},
		{NewTunedCAML(DefaultTunedParams(time.Minute)), short},
		{NewTunedCAML(DefaultTunedParams(5 * time.Minute)), short},
		{NewFLAML(), short},
		{NewAutoGluon(), short},
		{NewAutoGluonFastInference(), short},
		{NewAutoGluon(), time.Minute},
		{NewAutoGluonFastInference(), time.Minute},
		{NewAutoSklearn1(), short},
		{NewAutoSklearn2(), short},
		{NewTPOT(), short},
		{NewZeroShot(), short},
		{NewZeroShotPortfolio(custom), short},
	}
}

// pinnedMeters are the machines every system runs on: the Xeon testbed
// at one and four cores, and the T4 machine with the GPU active.
func pinnedMeters() []func() *energy.Meter {
	return []func() *energy.Meter{
		func() *energy.Meter { return energy.NewMeter(hw.XeonGold6132(), 1) },
		func() *energy.Meter { return energy.NewMeter(hw.XeonGold6132(), 4) },
		func() *energy.Meter {
			m := energy.NewMeter(hw.T4Machine(), 4)
			m.SetGPUMode(energy.GPUActive)
			return m
		},
	}
}

// TestSystemsAreExact pins every system end to end on credit-g: the
// Result, the predictions and inference Cost on the test view, the
// joules each stage was charged and the virtual clock. The portfolios
// are hashed whole, since short runs reach only their heads. The pin
// runs at kernel parallelism 1 and 4 against one digest.
func TestSystemsAreExact(t *testing.T) {
	train, test := loadTrainTest(t, "credit-g", 1)
	for _, par := range []int{1, 4} {
		prev := ml.SetParallelism(par)
		got := systemsDigest(t, train, test)
		ml.SetParallelism(prev)
		if got != systemPinDigest {
			t.Fatalf("parallelism %d: system outputs moved: digest %s, pinned %s", par, got, systemPinDigest)
		}
	}
}

func systemsDigest(t *testing.T, train, test tabular.View) string {
	t.Helper()
	h := sha256.New()
	for mi, newMeter := range pinnedMeters() {
		for _, ps := range pinnedSystems() {
			meter := newMeter()
			res, err := ps.sys.Fit(train, Options{Budget: ps.budget, Meter: meter, Seed: 2})
			if err != nil {
				t.Fatalf("meter %d %s: %v", mi, ps.sys.Name(), err)
			}
			fmt.Fprintf(h, "%s|%d|%d|%d|%v|", res.System, res.Classes, res.ExecTime, res.Evaluated, res.GPUInference)
			pinFloat(h, res.ExecKWh)
			pinFloat(h, res.ValScore)
			if res.BestSpec != nil {
				fmt.Fprintf(h, "%+v|", *res.BestSpec)
			}
			pinConfig(h, res.BestConfig)
			proba, cost, err := res.PredictProbaCost(test, meter)
			if err != nil {
				t.Fatalf("meter %d %s: predict: %v", mi, ps.sys.Name(), err)
			}
			for _, row := range proba {
				for _, p := range row {
					pinFloat(h, p)
				}
			}
			pinFloat(h, cost.Generic)
			pinFloat(h, cost.Tree)
			pinFloat(h, cost.Matrix)
			for _, s := range []energy.Stage{energy.Development, energy.Execution, energy.Inference} {
				pinFloat(h, meter.Tracker().Joules(s))
			}
			fmt.Fprintf(h, "%d;", meter.Clock().Now())
		}
	}
	space, err := pipeline.FullSpec().Space()
	if err != nil {
		t.Fatal(err)
	}
	metas := []tabular.MetaFeatures{
		{LogRows: math.Log(200), LogFeatures: math.Log(5), LogClasses: math.Log(2)},
		{LogRows: math.Log(5000), LogFeatures: math.Log(4000), LogClasses: math.Log(7)},
	}
	for _, meta := range metas {
		for _, budget := range []time.Duration{30 * time.Second, 5 * time.Minute} {
			for _, cfg := range WarmStartPortfolio(meta, space, budget) {
				pinConfig(h, cfg)
			}
		}
	}
	for _, cfg := range DefaultZeroShotPortfolio() {
		pinConfig(h, cfg)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// pinConfig hashes a config's names and exact value bits in name order
// (Config.Key rounds values to six digits).
func pinConfig(h hash.Hash, cfg pipeline.Config) {
	names := make([]string, 0, len(cfg))
	for k := range cfg {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		h.Write([]byte(k))
		pinFloat(h, cfg[k])
	}
	h.Write([]byte{'|'})
}

func pinFloat(h hash.Hash, v float64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
	h.Write(buf[:])
}
