package automl

import (
	"fmt"
	"time"

	"repro/internal/energy"
	"repro/internal/ensemble"
	"repro/internal/hw"
	"repro/internal/ml"
	"repro/internal/pipeline"
	"repro/internal/tabular"
)

// AutoGluonPreset selects the quality/inference trade-off (paper §3.4).
type AutoGluonPreset int

const (
	// PresetQuality is the default: bagged models, a stacking layer,
	// Caruana weighting — maximal accuracy, maximal inference cost.
	PresetQuality AutoGluonPreset = iota
	// PresetFastInference is the "good quality faster inference only
	// refit" preset: after selection, every bag is collapsed into a
	// single model trained on all data, trading a little accuracy for a
	// large inference-energy saving.
	PresetFastInference
)

// AutoGluon reproduces the architecture of AutoGluon-Tabular (paper
// Table 1): no hyperparameter search at all — a fixed, manually curated
// sequence of pipelines is trained with k-fold bagging, then a second
// stacking layer of the same model types consumes the original features
// plus all first-layer out-of-fold predictions, and Caruana selection
// weights the final models.
//
// Budget fidelity (paper §3.10 and Table 7): AutoGluon divides the
// remaining budget across the models it still plans to train and skips
// models it estimates will not fit — but a started model always finishes,
// and the mandatory minimum (at least one bagged model plus weighting)
// makes small budgets overrun by roughly 2x.
type AutoGluon struct {
	// Preset selects the quality/inference trade-off.
	Preset AutoGluonPreset
	// Folds is the bagging fold count (default 3; the released
	// AutoGluon uses 8 — scaled with the datasets).
	Folds int
}

// NewAutoGluon returns AutoGluon with the default quality preset.
func NewAutoGluon() *AutoGluon { return &AutoGluon{} }

// NewAutoGluonFastInference returns the inference-optimized preset.
func NewAutoGluonFastInference() *AutoGluon { return &AutoGluon{Preset: PresetFastInference} }

// Name implements System.
func (g *AutoGluon) Name() string {
	if g.Preset == PresetFastInference {
		return "AutoGluon(fast-infer)"
	}
	return "AutoGluon"
}

// MinBudget implements System.
func (g *AutoGluon) MinBudget() time.Duration { return 0 }

// agCandidate is one entry of the hand-picked model sequence, in training
// order (cheap and reliable first, expensive later — AutoGluon's curated
// priority list).
type agCandidate struct {
	name  string
	build func() *pipeline.Pipeline
	// refit builds the single model the fast-inference preset trains in
	// the bag's place; nil means the bag is never refit.
	refit func() *pipeline.Pipeline
}

// agBuilder returns a builder for family's default pipeline with the
// overrides applied. Every pipeline gets the standard preprocessing
// (impute, one-hot, scale) — AutoGluon fixes preprocessing rather than
// searching it.
func agBuilder(family string, overrides pipeline.Config) func() *pipeline.Pipeline {
	spec := pipeline.SpaceSpec{Models: []string{family}, DataPreprocessors: true}
	space, err := spec.Space()
	if err != nil {
		panic(fmt.Sprintf("autogluon: building space for %s: %v", family, err))
	}
	cfg := space.Preset(family, overrides)
	return func() *pipeline.Pipeline {
		p, err := spec.Build(cfg, 0)
		if err != nil {
			panic(fmt.Sprintf("autogluon: building %s: %v", family, err))
		}
		return p
	}
}

// defaultCandidates returns the predefined pipeline list. Each bag refits
// into its own pipeline, except the GPU-sized MLP.
func defaultCandidates(gpu bool) []agCandidate {
	cands := []agCandidate{
		{name: "knn", build: agBuilder("knn", pipeline.Config{"knn.k": 5})},
		{name: "gbt-fast", build: agBuilder("gradient_boosting", pipeline.Config{"gradient_boosting.rounds": 25, "gradient_boosting.lr": 0.15})},
		{name: "rf", build: agBuilder("random_forest", pipeline.Config{"random_forest.trees": 60, "random_forest.max_depth": 18})},
		{name: "xt", build: agBuilder("extra_trees", pipeline.Config{"extra_trees.trees": 60})},
		{name: "gbt-deep", build: agBuilder("gradient_boosting", pipeline.Config{"gradient_boosting.rounds": 60, "gradient_boosting.lr": 0.08, "gradient_boosting.max_depth": 4})},
		{name: "mlp", build: agBuilder("mlp", pipeline.Config{"mlp.width": 48, "mlp.epochs": 30})},
	}
	for i := range cands {
		cands[i].refit = cands[i].build
	}
	if gpu {
		// With an accelerator available AutoGluon trains a larger
		// neural network (cheap to fit on GPU) — whose inference, still
		// on CPU, is correspondingly heavier (paper Table 3: GPU raises
		// AutoGluon's inference time and energy). Its refit still
		// trains the CPU-sized network, not the bag's own: a known
		// mismatch, kept so outputs stay pinned (see CHANGES.md).
		cands[5].build = agBuilder("mlp", pipeline.Config{"mlp.width": 128, "mlp.layers": 2, "mlp.epochs": 45})
	}
	return cands
}

// escalatedCandidates returns higher-capacity variants of the strongest
// base families (gbt-deep and rf), used by the budget-adaptive escalation
// loop. Capacity grows with mult; escalated bags are never refit.
func escalatedCandidates(mult float64) []agCandidate {
	return []agCandidate{
		{name: fmt.Sprintf("gbt-deep-x%g", mult), build: agBuilder("gradient_boosting", pipeline.Config{
			"gradient_boosting.rounds":    60 * mult,
			"gradient_boosting.lr":        0.08 / mult,
			"gradient_boosting.max_depth": 4,
		})},
		{name: fmt.Sprintf("rf-x%g", mult), build: agBuilder("random_forest", pipeline.Config{
			"random_forest.trees":     60 * mult,
			"random_forest.max_depth": 22,
		})},
	}
}

// stackCandidates is the (smaller) second-layer list: rf, gbt-deep and
// mlp. Stacked bags cannot be refit standalone.
func stackCandidates(gpu bool) []agCandidate {
	all := defaultCandidates(gpu)
	stack := []agCandidate{all[2], all[4], all[5]}
	for i := range stack {
		stack[i].name += "-l2"
		stack[i].refit = nil
	}
	return stack
}

// fittedBag is one fitted bag of the ensemble.
type fittedBag struct {
	name    string
	bag     *ensemble.Bagged
	stacked bool                      // trained on the layer-2 stacked features
	refit   func() *pipeline.Pipeline // the candidate's refit builder; nil: never refit
}

// Fit implements System.
func (g *AutoGluon) Fit(train tabular.View, opts Options) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, fmt.Errorf("autogluon: %w", err)
	}
	rng := opts.rng()
	meter := opts.Meter
	tracker := startRun(meter)
	folds := g.Folds
	if folds < 2 {
		folds = 3
	}
	gpu := meter.GPUMode() == energy.GPUActive

	// AutoGluon plans its workload against the *budget*, estimating each
	// model's training time as if run sequentially — the plan does not
	// expand when more cores are allotted, it just finishes sooner
	// (which is why multi-core runs save energy, paper Fig. 5).
	var lastBagSeq, plannedSeq time.Duration
	remainingPlan := func() time.Duration { return opts.Budget - plannedSeq }
	// fitBags trains the candidates' bags on data in order. Budget
	// estimation skips the remaining candidates once the last bag's
	// sequential cost exceeds the plan's remainder — except a mandatory
	// first candidate (the source of small-budget overruns).
	fitBags := func(cands []agCandidate, data tabular.View, seed uint64, stacked, firstMandatory bool) []fittedBag {
		var out []fittedBag
		for i, cand := range cands {
			if (i > 0 || !firstMandatory) && lastBagSeq > remainingPlan() {
				break
			}
			bag, costs, err := ensemble.FitBagged(cand.build, data, folds, seed, rng)
			if err != nil {
				continue
			}
			_, seq := g.chargeBag(meter, costs, cand.build().ParallelFrac())
			lastBagSeq = seq
			plannedSeq += seq
			out = append(out, fittedBag{name: cand.name, bag: bag, stacked: stacked, refit: cand.refit})
		}
		return out
	}

	// ----- Layer 1: bagged base models -----
	layer1 := fitBags(defaultCandidates(gpu), train, opts.Seed, false, true)
	if len(layer1) == 0 {
		return tracker.finish(MajorityResult(g.Name(), train)), nil
	}

	// ----- Layer 2: stacking on features + layer-1 OOF predictions -----
	// All bags share fold structure via the seeded KFold, so OOF rows are
	// aligned per bag; stacking inputs append each bag's OOF probability
	// rows to the original features.
	var layer2 []fittedBag
	stackBaseCount := len(layer1) // layer-2 inputs use exactly these bags
	if lastBagSeq*2 <= remainingPlan() {
		probas := make([][][]float64, len(layer1))
		for i, fb := range layer1 {
			probas[i] = fb.bag.OOFProba
		}
		// The stacked training frame follows OOF order: the train rows
		// of the validation folds, in fold order.
		sf := ensemble.StackFeatures(train.Select(layer1[0].bag.OOFIndex), probas)
		sf.Name = train.Name() + "+stack"
		sf.Y = layer1[0].bag.OOFLabels
		sf.Classes = train.Classes()
		layer2 = fitBags(stackCandidates(gpu), sf.All(), opts.Seed+1, true, false)
	}

	// ----- Budget-adaptive capacity escalation -----
	// With budget to spare, AutoGluon keeps training higher-capacity
	// variants of its strongest families (more rounds, more trees, wider
	// nets) — the mechanism by which its accuracy keeps converging with
	// longer search times (paper Fig. 3).
	for mult := 2.0; mult <= 64 && lastBagSeq*3/2 <= remainingPlan(); mult *= 2 {
		layer1 = append(layer1, fitBags(escalatedCandidates(mult), train, opts.Seed, false, false)...)
	}

	// ----- Caruana weighting over all bags' OOF predictions -----
	// (Weighting always runs; it is part of AutoGluon's mandatory tail.)
	// OOF rows are realigned to training-row order: layer-1 bags index
	// train rows directly; layer-2 bags index stacked rows, which map to
	// train rows through layer 1's OOF index.
	all := append(append([]fittedBag(nil), layer1...), layer2...)
	layer1Index := layer1[0].bag.OOFIndex
	valProbas := make([][][]float64, len(all))
	for i, fb := range all {
		aligned := make([][]float64, train.Rows())
		for pos, proba := range fb.bag.OOFProba {
			row := fb.bag.OOFIndex[pos]
			if fb.stacked {
				row = layer1Index[row]
			}
			aligned[row] = proba
		}
		valProbas[i] = aligned
	}
	uniform := make([]float64, train.Classes())
	for j := range uniform {
		uniform[j] = 1 / float64(train.Classes())
	}
	for _, aligned := range valProbas {
		for i, row := range aligned {
			if row == nil {
				aligned[i] = uniform
			}
		}
	}
	caruana, err := ensemble.CaruanaSelect(valProbas, train.LabelsInto(nil), train.Classes(), 8)
	if err != nil {
		return nil, fmt.Errorf("autogluon: weighting: %w", err)
	}
	chargeCost(meter, energy.Execution, caruana.Cost, 0.2)

	// Inference-optimized preset: refit selected bags into single models
	// and drop the stacked ones, which cannot be refit standalone.
	if g.Preset == PresetFastInference {
		for i, fb := range all {
			if fb.stacked {
				caruana.Weights[i] = 0
			}
			if caruana.Weights[i] <= 0 || fb.refit == nil {
				continue
			}
			cost, err := fb.bag.Refit(fb.refit, train, rng)
			chargeCost(meter, energy.Execution, cost, 0.5)
			if err != nil {
				return nil, fmt.Errorf("autogluon: refit %s: %w", fb.name, err)
			}
		}
	}

	base := make([]ensemble.Predictor, stackBaseCount)
	for i, fb := range layer1[:stackBaseCount] {
		base[i] = fb.bag
	}
	members := make([]ensemble.Predictor, len(all))
	for i, fb := range all {
		if fb.stacked {
			members[i] = &stackedPredictor{bag: fb.bag, base: base}
		} else {
			members[i] = fb.bag
		}
	}

	return tracker.finish(&Result{
		System:    g.Name(),
		Predictor: &ensemble.Weighted{Members: members, Weights: caruana.Weights},
		Classes:   train.Classes(),
		Evaluated: len(all) * folds,
		ValScore:  caruana.Score,
	}), nil
}

// chargeBag schedules the per-fold costs in parallel across the meter's
// cores — bagging is AutoGluon's embarrassingly parallel workload (paper
// §3.3). It returns the makespan actually charged and the sequential
// (single-core) time the bag would have taken, which is what AutoGluon's
// budget plan is based on.
func (g *AutoGluon) chargeBag(meter *energy.Meter, costs []ml.Cost, parallelFrac float64) (makespan, sequential time.Duration) {
	gpu := meter.GPUMode() == energy.GPUActive
	for _, c := range costs {
		units, n := c.Works(0)
		for _, w := range units[:n] {
			if gpu {
				// The plan estimates on the device that will run the
				// work: offloadable kernels are budgeted at GPU speed,
				// so a GPU-era plan packs bigger neural nets into the
				// same budget (paper Table 3).
				d, _ := meter.Machine().GPUDuration(w)
				sequential += d
			} else {
				sequential += meter.Machine().Duration(w, 1)
			}
		}
	}
	if meter.Cores() <= 1 {
		var total time.Duration
		for _, c := range costs {
			total += chargeCost(meter, energy.Execution, c, parallelFrac)
		}
		return total, sequential
	}
	var works []hw.Work
	for _, c := range costs {
		units, n := c.Works(parallelFrac)
		works = append(works, units[:n]...)
	}
	return meter.RunParallel(energy.Execution, works), sequential
}

// stackedPredictor feeds the input through the layer-1 bags to build the
// stacked features, then predicts with the layer-2 bag. Its inference cost
// therefore includes every base model — the structural reason stacking
// multiplies inference energy (Observation O1).
type stackedPredictor struct {
	bag  *ensemble.Bagged
	base []ensemble.Predictor
}

// PredictProba implements ensemble.Predictor.
func (s *stackedPredictor) PredictProba(x tabular.View) ([][]float64, ml.Cost) {
	var cost ml.Cost
	probas := make([][][]float64, len(s.base))
	for i, b := range s.base {
		p, c := b.PredictProba(x)
		cost.Add(c)
		probas[i] = p
	}
	out, c := s.bag.PredictProba(ensemble.StackFeatures(x, probas).All())
	cost.Add(c)
	return out, cost
}
