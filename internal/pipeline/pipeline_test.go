package pipeline

import (
	"errors"
	"math"
	mathrand "math/rand" //greenlint:allow globalrand testing/quick needs a v1 *rand.Rand; the source is explicitly seeded
	"math/rand/v2"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/metrics"
	"repro/internal/ml"
	"repro/internal/preprocess"
	"repro/internal/tabular"
)

func testRNG(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 0x91)) }

func blob(n int, rng *rand.Rand) *tabular.Frame {
	var x [][]float64
	var y []int
	for i := 0; i < n; i++ {
		c := i % 2
		x = append(x, []float64{4*float64(c) + rng.NormFloat64(), rng.NormFloat64()})
		y = append(y, c)
	}
	f := tabular.FromRows(x).Frame()
	f.Name, f.Y, f.Classes = "blob", y, 2
	return f
}

func TestSpaceSampleWithinBounds(t *testing.T) {
	space, err := FullSpec().Space()
	if err != nil {
		t.Fatal(err)
	}
	rng := testRNG(1)
	for i := 0; i < 200; i++ {
		cfg := space.Sample(rng)
		for _, p := range space.Params {
			v, ok := cfg[p.Name]
			if !ok {
				t.Fatalf("sample missing %s", p.Name)
			}
			switch p.Kind {
			case Float, Int:
				if v < p.Min-1e-9 || v > p.Max+1e-9 {
					t.Fatalf("%s = %v outside [%v,%v]", p.Name, v, p.Min, p.Max)
				}
			case Bool:
				if v != 0 && v != 1 {
					t.Fatalf("%s = %v not boolean", p.Name, v)
				}
			case Choice:
				if int(v) < 0 || int(v) >= len(p.Choices) {
					t.Fatalf("%s = %v outside choices", p.Name, v)
				}
			}
		}
	}
}

func TestSpaceVectorNormalized(t *testing.T) {
	space, _ := FullSpec().Space()
	rng := testRNG(2)
	for i := 0; i < 100; i++ {
		vec := space.Vector(space.Sample(rng))
		if len(vec) != len(space.Params) {
			t.Fatalf("vector length %d, want %d", len(vec), len(space.Params))
		}
		for j, v := range vec {
			if v < -1e-9 || v > 1+1e-9 || math.IsNaN(v) {
				t.Fatalf("component %d (%s) = %v outside [0,1]", j, space.Params[j].Name, v)
			}
		}
	}
}

func TestMutateChangesSomethingAndStaysInBounds(t *testing.T) {
	space, _ := FullSpec().Space()
	rng := testRNG(3)
	cfg := space.Sample(rng)
	property := func(strengthRaw uint8) bool {
		strength := float64(strengthRaw%100) / 100
		mutated := space.Mutate(cfg, strength, rng)
		changed := false
		for _, p := range space.Params {
			v := mutated[p.Name]
			if v != cfg[p.Name] {
				changed = true
			}
			if p.Kind == Float || p.Kind == Int {
				if v < p.Min-1e-9 || v > p.Max+1e-9 {
					return false
				}
			}
		}
		return changed
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 100, Rand: mathrand.New(mathrand.NewSource(4))}); err != nil {
		t.Error(err)
	}
}

func TestCrossoverDrawsFromParents(t *testing.T) {
	space, _ := FullSpec().Space()
	rng := testRNG(5)
	a := space.Sample(rng)
	b := space.Sample(rng)
	child := space.Crossover(a, b, rng)
	for _, p := range space.Params {
		v := child[p.Name]
		if v != a[p.Name] && v != b[p.Name] {
			t.Fatalf("%s = %v comes from neither parent (%v / %v)", p.Name, v, a[p.Name], b[p.Name])
		}
	}
}

func TestConfigAccessors(t *testing.T) {
	cfg := Config{"f": 2.7, "i": 4.4, "b": 0.9, "c": 1}
	if cfg.Float("f", 0) != 2.7 || cfg.Float("missing", 9) != 9 {
		t.Error("Float accessor")
	}
	if cfg.Int("i", 0) != 4 || cfg.Int("missing", 7) != 7 {
		t.Error("Int accessor")
	}
	if !cfg.Bool("b", false) || cfg.Bool("missing", true) != true {
		t.Error("Bool accessor")
	}
	choices := []string{"x", "y", "z"}
	if cfg.Choice("c", choices, "x") != "y" {
		t.Error("Choice accessor")
	}
	if cfg.Choice("missing", choices, "z") != "z" {
		t.Error("Choice default")
	}
	if (Config{"c": 99}).Choice("c", choices, "x") != "z" {
		t.Error("Choice out-of-range clamp")
	}
	clone := cfg.Clone()
	clone["f"] = -1
	if cfg.Float("f", 0) == -1 {
		t.Error("Clone shares storage")
	}
	if cfg.Key() == "" || cfg.Key() != cfg.Clone().Key() {
		t.Error("Key not canonical")
	}
}

func TestRegistryBuildsEveryFamily(t *testing.T) {
	train := blob(120, testRNG(6))
	for _, family := range AllModels() {
		spec := SpaceSpec{Models: []string{family}, DataPreprocessors: true}
		space, err := spec.Space()
		if err != nil {
			t.Fatalf("%s: %v", family, err)
		}
		p, err := spec.Build(space.Default(), train.Features())
		if err != nil {
			t.Fatalf("%s: %v", family, err)
		}
		if p.ModelFamily != family {
			t.Errorf("built family %q, want %q", p.ModelFamily, family)
		}
		if _, err := p.Fit(train.All(), testRNG(7)); err != nil {
			t.Fatalf("%s: fit: %v", family, err)
		}
		proba, cost := p.PredictProba(train.All())
		pred := metrics.ArgmaxRows(proba)
		if cost.Total() <= 0 {
			t.Errorf("%s: no prediction cost", family)
		}
		if acc := metrics.Accuracy(train.Y, pred); acc < 0.9 {
			t.Errorf("%s: training accuracy %.3f on separable blob", family, acc)
		}
		if !p.Fitted() {
			t.Errorf("%s: Fitted() false after Fit", family)
		}
		if !strings.Contains(p.Name(), "->") {
			t.Errorf("%s: pipeline name %q has no stages", family, p.Name())
		}
	}
}

func TestModelsByCostOrdering(t *testing.T) {
	order := ModelsByCost()
	if len(order) != len(AllModels()) {
		t.Fatalf("cost ordering lists %d families, want %d", len(order), len(AllModels()))
	}
	rank := func(name string) int {
		def, _ := ModelByName(name)
		return def.CostRank
	}
	for i := 1; i < len(order); i++ {
		if rank(order[i-1]) > rank(order[i]) {
			t.Errorf("cost ordering violated at %s -> %s", order[i-1], order[i])
		}
	}
	if rank(order[0]) > rank("gradient_boosting") {
		t.Error("cheapest family ranks above gradient boosting")
	}
}

func TestSpaceSpecGroups(t *testing.T) {
	full, _ := FullSpec().Space()
	noFeat, _ := SpaceSpec{Models: AllModels(), DataPreprocessors: true}.Space()
	modelsOnly, _ := SpaceSpec{Models: AllModels()}.Space()
	if _, ok := full.Lookup("feature_pre"); !ok {
		t.Error("full space misses feature preprocessors")
	}
	if _, ok := noFeat.Lookup("feature_pre"); ok {
		t.Error("CAML-style space should not search feature preprocessors (paper Table 1)")
	}
	if _, ok := noFeat.Lookup("scaler"); !ok {
		t.Error("CAML-style space misses data preprocessors")
	}
	if _, ok := modelsOnly.Lookup("scaler"); ok {
		t.Error("FLAML-style space should not search preprocessors")
	}
	if _, err := (SpaceSpec{Models: []string{"nonsense"}}).Space(); err == nil {
		t.Error("unknown family accepted")
	}
	if _, err := (SpaceSpec{Models: []string{"nonsense"}}).Build(Config{}, 2); err == nil {
		t.Error("Build accepted unknown family")
	}
}

func TestComplexityCapsShrinkRanges(t *testing.T) {
	capped := SpaceSpec{
		Models:         []string{"random_forest"},
		ComplexityCaps: map[string]float64{"random_forest": 0.3},
	}
	space, err := capped.Space()
	if err != nil {
		t.Fatal(err)
	}
	p, ok := space.Lookup("random_forest.trees")
	if !ok {
		t.Fatal("trees parameter missing")
	}
	full, _ := SpaceSpec{Models: []string{"random_forest"}}.Space()
	fullParam, _ := full.Lookup("random_forest.trees")
	if p.Max >= fullParam.Max {
		t.Errorf("cap did not shrink max: %v vs %v", p.Max, fullParam.Max)
	}
	if p.Min != fullParam.Min {
		t.Errorf("cap moved the minimum: %v vs %v", p.Min, fullParam.Min)
	}
	if p.Default > p.Max {
		t.Errorf("default %v above capped max %v", p.Default, p.Max)
	}
}

func TestBuildAppliesPreprocessors(t *testing.T) {
	spec := FullSpec()
	space, _ := spec.Space()
	cfg := space.Default()
	cfg["feature_pre"] = 1 // select_k_best
	cfg["feature_pre.k_frac"] = 0.5
	cfg["scaler"] = 1 // standard
	p, err := spec.Build(cfg, 10)
	if err != nil {
		t.Fatal(err)
	}
	name := p.Name()
	for _, stage := range []string{"imputer", "standard_scaler", "select_k_best"} {
		if !strings.Contains(name, stage) {
			t.Errorf("pipeline %q misses stage %s", name, stage)
		}
	}
}

func TestPipelineNilModel(t *testing.T) {
	p := &Pipeline{}
	if _, err := p.Fit(blob(10, testRNG(8)).All(), testRNG(9)); err == nil {
		t.Error("nil model accepted")
	}
	if p.ParallelFrac() != 0 {
		t.Error("nil model parallel fraction")
	}
}

func TestSpaceDefault(t *testing.T) {
	space, _ := FullSpec().Space()
	def := space.Default()
	if len(def) != len(space.Params) {
		t.Errorf("default config has %d entries, want %d", len(def), len(space.Params))
	}
	for _, p := range space.Params {
		if def[p.Name] != p.Default {
			t.Errorf("%s default %v, want %v", p.Name, def[p.Name], p.Default)
		}
	}

	// Preset: the family's model index, overrides over defaults, and
	// Default() itself left untouched.
	model, _ := space.Lookup("model")
	rf := space.Preset("random_forest", Config{"random_forest.trees": 7, "scaler": 2})
	if got := model.Choices[int(rf["model"])]; got != "random_forest" {
		t.Errorf("Preset model %q, want random_forest", got)
	}
	if rf["random_forest.trees"] != 7 || rf["scaler"] != 2 {
		t.Errorf("Preset overrides lost: trees %v, scaler %v", rf["random_forest.trees"], rf["scaler"])
	}
	if len(rf) != len(def) || rf["random_forest.max_depth"] != def["random_forest.max_depth"] {
		t.Errorf("Preset does not start from the defaults: %v", rf)
	}
	if unknown := space.Preset("no_such_family", nil); unknown["model"] != 0 || unknown.Key() != def.Key() {
		t.Errorf("unknown family preset %v, want the default config with model 0", unknown)
	}
	if again := space.Default(); again.Key() != def.Key() || again["random_forest.trees"] != def["random_forest.trees"] {
		t.Errorf("Preset changed Default(): %v", again)
	}
}

// pooledPassthrough is a test transformer that copies its input into a
// fresh pooled frame — the ownership shape every real preprocessor has.
type pooledPassthrough struct{ out *tabular.Frame }

func (s *pooledPassthrough) FitTransform(ds tabular.View, _ *rand.Rand) (tabular.View, ml.Cost, error) {
	f := tabular.NewPooledFrame(ds.Name(), ds.Rows(), ds.Features())
	for j := 0; j < ds.Features(); j++ {
		ds.ColInto(j, f.Cols[j])
	}
	s.out = f
	return f.All(), ml.Cost{}, nil
}

func (s *pooledPassthrough) Transform(x tabular.View) (tabular.View, ml.Cost) {
	return x, ml.Cost{}
}

func (s *pooledPassthrough) Name() string { return "pooled_passthrough" }

// failingTransformer always errors out of FitTransform.
type failingTransformer struct{}

func (failingTransformer) FitTransform(tabular.View, *rand.Rand) (tabular.View, ml.Cost, error) {
	return tabular.View{}, ml.Cost{}, errors.New("boom")
}
func (failingTransformer) Transform(x tabular.View) (tabular.View, ml.Cost) { return x, ml.Cost{} }
func (failingTransformer) Name() string                                     { return "failing_transformer" }

// failingModel always errors out of Fit.
type failingModel struct{}

func (failingModel) Fit(tabular.View, *rand.Rand) (ml.Cost, error) {
	return ml.Cost{}, errors.New("model boom")
}
func (failingModel) PredictProba(tabular.View) ([][]float64, ml.Cost) { return nil, ml.Cost{} }
func (failingModel) Clone() ml.Classifier                             { return failingModel{} }
func (failingModel) Name() string                                     { return "failing_model" }
func (failingModel) ParallelFrac() float64                            { return 0 }

func TestFitReleasesIntermediateFrameOnTransformError(t *testing.T) {
	stage := &pooledPassthrough{}
	p := &Pipeline{
		Pre:   []preprocess.Transformer{stage, failingTransformer{}},
		Model: failingModel{},
	}
	if _, err := p.Fit(blob(12, testRNG(3)).All(), testRNG(4)); err == nil {
		t.Fatal("failing transformer did not surface an error")
	}
	if stage.out == nil {
		t.Fatal("pooled stage never ran")
	}
	if stage.out.Cols != nil {
		t.Error("intermediate pooled frame leaked on transform error path")
	}
}

func TestFitReleasesIntermediateFrameOnModelError(t *testing.T) {
	stage := &pooledPassthrough{}
	p := &Pipeline{
		Pre:   []preprocess.Transformer{stage},
		Model: failingModel{},
	}
	if _, err := p.Fit(blob(12, testRNG(5)).All(), testRNG(6)); err == nil {
		t.Fatal("failing model did not surface an error")
	}
	if stage.out.Cols != nil {
		t.Error("intermediate pooled frame leaked on model error path")
	}
}
