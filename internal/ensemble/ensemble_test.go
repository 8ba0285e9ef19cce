package ensemble

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/metrics"
	"repro/internal/ml"
	"repro/internal/pipeline"
	"repro/internal/tabular"
)

func testRNG(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 0xe5)) }

func blob(n int, rng *rand.Rand) *tabular.Frame {
	var x [][]float64
	var y []int
	for i := 0; i < n; i++ {
		c := i % 2
		x = append(x, []float64{3*float64(c) + rng.NormFloat64(), rng.NormFloat64()})
		y = append(y, c)
	}
	f := tabular.FromRows(x).Frame()
	f.Name, f.Y, f.Classes = "blob", y, 2
	return f
}

// constPredictor always returns fixed probability rows at a fixed cost.
type constPredictor struct {
	proba [][]float64
	cost  float64
}

func (c *constPredictor) PredictProba(x tabular.View) ([][]float64, ml.Cost) {
	out := make([][]float64, x.Rows())
	for i := range out {
		out[i] = c.proba[i%len(c.proba)]
	}
	return out, ml.Cost{Generic: c.cost}
}

func TestWeightedSkipsZeroWeightMembers(t *testing.T) {
	expensive := &constPredictor{proba: [][]float64{{1, 0}}, cost: 1e9}
	cheap := &constPredictor{proba: [][]float64{{0, 1}}, cost: 1}
	w := &Weighted{Members: []Predictor{expensive, cheap}, Weights: []float64{0, 1}}
	proba, cost := w.PredictProba(tabular.FromRows([][]float64{{0}}))
	if cost.Generic >= 1e9 {
		t.Error("zero-weight member was evaluated at inference — it must cost nothing")
	}
	if proba[0][1] != 1 {
		t.Errorf("proba %v, want the cheap member's output", proba[0])
	}
	if w.ActiveMembers() != 1 {
		t.Errorf("active members %d, want 1", w.ActiveMembers())
	}
}

func TestWeightedAveraging(t *testing.T) {
	a := &constPredictor{proba: [][]float64{{1, 0}}}
	b := &constPredictor{proba: [][]float64{{0, 1}}}
	w := &Weighted{Members: []Predictor{a, b}, Weights: []float64{3, 1}}
	proba, _ := w.PredictProba(tabular.FromRows([][]float64{{0}}))
	if math.Abs(proba[0][0]-0.75) > 1e-9 || math.Abs(proba[0][1]-0.25) > 1e-9 {
		t.Errorf("weighted average %v, want [0.75 0.25]", proba[0])
	}
	// All-zero weights yield nil output.
	empty := &Weighted{Members: []Predictor{a}, Weights: []float64{0}}
	if out, _ := empty.PredictProba(tabular.FromRows([][]float64{{0}})); out != nil {
		t.Error("zero-weight ensemble produced output")
	}
}

func TestCaruanaPicksPerfectModel(t *testing.T) {
	yVal := []int{0, 1, 0, 1}
	perfect := [][]float64{{0.9, 0.1}, {0.1, 0.9}, {0.8, 0.2}, {0.2, 0.8}}
	inverted := [][]float64{{0.1, 0.9}, {0.9, 0.1}, {0.2, 0.8}, {0.8, 0.2}}
	res, err := CaruanaSelect([][][]float64{inverted, perfect}, yVal, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Weights[1] == 0 {
		t.Errorf("perfect model unselected: weights %v", res.Weights)
	}
	if res.Score != 1 {
		t.Errorf("ensemble score %v, want 1", res.Score)
	}
	if res.Cost.Total() <= 0 {
		t.Error("selection reported no cost")
	}
}

func TestCaruanaEnsembleBeatsAverageMember(t *testing.T) {
	rng := testRNG(1)
	yVal := make([]int, 60)
	for i := range yVal {
		yVal[i] = i % 2
	}
	// Three noisy-but-informative members with independent noise: the
	// selected ensemble must score at least as well as the best member.
	var members [][][]float64
	bestSingle := 0.0
	for m := 0; m < 3; m++ {
		proba := make([][]float64, len(yVal))
		labels := make([]int, len(yVal))
		for i := range proba {
			p := 0.65
			if rng.Float64() > 0.8 {
				p = 0.35 // noise
			}
			if yVal[i] == 1 {
				proba[i] = []float64{1 - p, p}
			} else {
				proba[i] = []float64{p, 1 - p}
			}
			labels[i] = metrics.Argmax(proba[i])
		}
		if s := metrics.BalancedAccuracy(yVal, labels, 2); s > bestSingle {
			bestSingle = s
		}
		members = append(members, proba)
	}
	res, err := CaruanaSelect(members, yVal, 2, 15)
	if err != nil {
		t.Fatal(err)
	}
	if res.Score < bestSingle {
		t.Errorf("ensemble score %v below best member %v", res.Score, bestSingle)
	}
}

func TestCaruanaSpreadsWeightOverMultipleMembers(t *testing.T) {
	// Several equally strong members: the tie-breaking rule must build a
	// multi-member ensemble (auto-sklearn ensembles dozens of models —
	// the degenerate single-member outcome would break Observation O1).
	yVal := make([]int, 40)
	for i := range yVal {
		yVal[i] = i % 2
	}
	proba := make([][]float64, len(yVal))
	for i := range proba {
		if yVal[i] == 1 {
			proba[i] = []float64{0.3, 0.7}
		} else {
			proba[i] = []float64{0.7, 0.3}
		}
	}
	members := [][][]float64{proba, proba, proba, proba}
	res, err := CaruanaSelect(members, yVal, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	active := 0
	for _, w := range res.Weights {
		if w > 0 {
			active++
		}
	}
	if active < 2 {
		t.Errorf("only %d member(s) selected from four equal candidates", active)
	}
}

func TestCaruanaInputValidation(t *testing.T) {
	if _, err := CaruanaSelect(nil, []int{0}, 2, 5); err == nil {
		t.Error("no candidates accepted")
	}
	if _, err := CaruanaSelect([][][]float64{{{1, 0}}}, nil, 2, 5); err == nil {
		t.Error("empty validation set accepted")
	}
	if _, err := CaruanaSelect([][][]float64{{{1, 0}}}, []int{0, 1}, 2, 5); err == nil {
		t.Error("row-count mismatch accepted")
	}
}

func newPipelineProto() func() *pipeline.Pipeline {
	spec := pipeline.SpaceSpec{Models: []string{"tree"}}
	space, err := spec.Space()
	if err != nil {
		panic(err)
	}
	return func() *pipeline.Pipeline {
		p, err := spec.Build(space.Default(), 2)
		if err != nil {
			panic(err)
		}
		return p
	}
}

func TestFitBaggedOOFCoverage(t *testing.T) {
	ds := blob(90, testRNG(2))
	bag, costs, err := FitBagged(newPipelineProto(), ds.All(), 3, 7, testRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(bag.Folds) != 3 || len(costs) != 3 {
		t.Fatalf("%d folds, %d costs", len(bag.Folds), len(costs))
	}
	for i, c := range costs {
		if c.Total() <= 0 {
			t.Errorf("fold %d reported no cost", i)
		}
	}
	// OOF rows cover each training row exactly once.
	if len(bag.OOFProba) != ds.Rows() || len(bag.OOFIndex) != ds.Rows() {
		t.Fatalf("OOF sizes %d/%d, want %d", len(bag.OOFProba), len(bag.OOFIndex), ds.Rows())
	}
	seen := map[int]bool{}
	for pos, idx := range bag.OOFIndex {
		if seen[idx] {
			t.Fatalf("row %d appears twice in OOF", idx)
		}
		seen[idx] = true
		if bag.OOFLabels[pos] != ds.Y[idx] {
			t.Fatalf("OOF label misaligned at %d", pos)
		}
	}
}

func TestFitBaggedSharedFoldSeedAligns(t *testing.T) {
	ds := blob(60, testRNG(4))
	a, _, err := FitBagged(newPipelineProto(), ds.All(), 3, 42, testRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := FitBagged(newPipelineProto(), ds.All(), 3, 42, testRNG(6))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.OOFIndex {
		if a.OOFIndex[i] != b.OOFIndex[i] {
			t.Fatal("same fold seed produced different OOF order — stacking would misalign")
		}
	}
}

func TestBaggedPredictAndRefit(t *testing.T) {
	ds := blob(90, testRNG(7))
	bag, _, err := FitBagged(newPipelineProto(), ds.All(), 3, 1, testRNG(8))
	if err != nil {
		t.Fatal(err)
	}
	probaBag, costBag := bag.PredictProba(ds.All())
	labels := metrics.ArgmaxRows(probaBag)
	if acc := metrics.Accuracy(ds.Y, labels); acc < 0.9 {
		t.Errorf("bagged accuracy %.3f", acc)
	}
	if bag.Refitted() {
		t.Error("bag marked refit before Refit")
	}
	refitCost, err := bag.Refit(newPipelineProto(), ds.All(), testRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	if refitCost.Total() <= 0 {
		t.Error("refit reported no cost")
	}
	if !bag.Refitted() {
		t.Error("bag not marked refit")
	}
	// The refit single model must be cheaper at inference than the
	// 3-fold average — that is AutoGluon's inference-optimized preset
	// (paper §3.4).
	_, costRefit := bag.PredictProba(ds.All())
	if costRefit.Total() >= costBag.Total() {
		t.Errorf("refit inference cost %.0f not below bagged %.0f", costRefit.Total(), costBag.Total())
	}
}

func TestStackFeatures(t *testing.T) {
	in := tabular.FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}}).Frame()
	in.Kinds = []tabular.FeatureKind{tabular.Categorical, tabular.Numeric}
	in.Y, in.Classes = []int{0, 1, 0}, 2
	before := in.All().Materialize()
	x := in.All().Select([]int{2, 0}) // non-contiguous, out of storage order
	probas := [][][]float64{
		{{0.9, 0.1}, {0.2, 0.8}},
		{{0.5, 0.5}, {0.6, 0.4}},
	}
	stacked := StackFeatures(x, probas)
	if stacked.Rows() != 2 || stacked.Features() != 6 {
		t.Fatalf("stacked shape %dx%d, want 2x6", stacked.Rows(), stacked.Features())
	}
	want := [][]float64{{5, 6, 0.9, 0.1, 0.5, 0.5}, {1, 2, 0.2, 0.8, 0.6, 0.4}}
	for i, row := range want {
		for j, v := range row {
			if got := stacked.Cols[j][i]; got != v {
				t.Errorf("stacked row %d col %d = %v, want %v", i, j, got, v)
			}
		}
	}
	// Stacked inputs are unlabeled and all-numeric: the input's
	// categorical kind must not reach layer 2.
	if stacked.Kinds != nil || stacked.Y != nil || stacked.Classes != 0 || stacked.Name != "" {
		t.Errorf("stacked frame kinds %v, labels %v, classes %d, name %q; want nil, nil, 0, empty",
			stacked.Kinds, stacked.Y, stacked.Classes, stacked.Name)
	}
	for j := range in.Cols {
		for i, v := range in.Cols[j] {
			if v != before.Cols[j][i] {
				t.Fatal("StackFeatures mutated its input")
			}
		}
	}
}

// costlyFailingModel spends compute and then fails — the shape of a fit
// that dies mid-training after burning real energy.
type costlyFailingModel struct{}

func (costlyFailingModel) Fit(tabular.View, *rand.Rand) (ml.Cost, error) {
	return ml.Cost{Generic: 42}, errors.New("fit boom")
}
func (costlyFailingModel) PredictProba(tabular.View) ([][]float64, ml.Cost) { return nil, ml.Cost{} }
func (costlyFailingModel) Clone() ml.Classifier                             { return costlyFailingModel{} }
func (costlyFailingModel) Name() string                                     { return "costly_failing" }
func (costlyFailingModel) ParallelFrac() float64                            { return 0 }

func TestFitBaggedReturnsPartialCostOnFoldFailure(t *testing.T) {
	ds := blob(30, testRNG(11))
	proto := func() *pipeline.Pipeline {
		return &pipeline.Pipeline{Model: costlyFailingModel{}}
	}
	bag, costs, err := FitBagged(proto, ds.All(), 3, 7, testRNG(12))
	if err == nil {
		t.Fatal("failing fold did not surface an error")
	}
	if bag != nil {
		t.Error("failed bagging returned a bag")
	}
	if len(costs) != 1 {
		t.Fatalf("got %d fold costs, want the failed fold's partial cost", len(costs))
	}
	if costs[0].Generic != 42 {
		t.Errorf("partial cost %v, want the compute the failed fit spent (42)", costs[0].Generic)
	}
}
