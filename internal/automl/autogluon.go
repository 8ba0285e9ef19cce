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
}

// defaultCandidates returns the predefined pipeline list. Every pipeline
// gets the standard preprocessing (impute, one-hot, scale) — AutoGluon
// fixes preprocessing rather than searching it.
func defaultCandidates(gpu bool) []agCandidate {
	wrap := func(family string, overrides pipeline.Config) func() *pipeline.Pipeline {
		return func() *pipeline.Pipeline {
			spec := pipeline.SpaceSpec{Models: []string{family}, DataPreprocessors: true}
			space, err := spec.Space()
			if err != nil {
				panic(fmt.Sprintf("autogluon: building space for %s: %v", family, err))
			}
			cfg := space.Default()
			for k, v := range overrides {
				cfg[k] = v
			}
			p, err := spec.Build(cfg, 0)
			if err != nil {
				panic(fmt.Sprintf("autogluon: building %s: %v", family, err))
			}
			return p
		}
	}
	mlpCfg := pipeline.Config{"mlp.width": 48, "mlp.epochs": 30}
	if gpu {
		// With an accelerator available AutoGluon trains a larger
		// neural network (cheap to fit on GPU) — whose inference, still
		// on CPU, is correspondingly heavier (paper Table 3: GPU raises
		// AutoGluon's inference time and energy).
		mlpCfg = pipeline.Config{"mlp.width": 128, "mlp.layers": 2, "mlp.epochs": 45}
	}
	return []agCandidate{
		{"knn", wrap("knn", pipeline.Config{"knn.k": 5})},
		{"gbt-fast", wrap("gradient_boosting", pipeline.Config{"gradient_boosting.rounds": 25, "gradient_boosting.lr": 0.15})},
		{"rf", wrap("random_forest", pipeline.Config{"random_forest.trees": 60, "random_forest.max_depth": 18})},
		{"xt", wrap("extra_trees", pipeline.Config{"extra_trees.trees": 60})},
		{"gbt-deep", wrap("gradient_boosting", pipeline.Config{"gradient_boosting.rounds": 60, "gradient_boosting.lr": 0.08, "gradient_boosting.max_depth": 4})},
		{"mlp", wrap("mlp", mlpCfg)},
	}
}

// escalatedCandidates returns higher-capacity variants of the strongest
// base families, used by the budget-adaptive escalation loop. Capacity
// grows with mult.
func escalatedCandidates(gpu bool, mult float64) []agCandidate {
	base := defaultCandidates(gpu)
	wrapOf := func(idx int, overrides pipeline.Config) agCandidate {
		orig := base[idx]
		return agCandidate{
			name: fmt.Sprintf("%s-x%g", orig.name, mult),
			build: func() *pipeline.Pipeline {
				// Rebuild the family's spec with escalated params.
				spec := pipeline.SpaceSpec{Models: []string{familyOf(orig.name)}, DataPreprocessors: true}
				space, err := spec.Space()
				if err != nil {
					panic(fmt.Sprintf("autogluon: escalated space: %v", err))
				}
				cfg := space.Default()
				for k, v := range overrides {
					cfg[k] = v
				}
				p, err := spec.Build(cfg, 0)
				if err != nil {
					panic(fmt.Sprintf("autogluon: escalated build: %v", err))
				}
				return p
			},
		}
	}
	return []agCandidate{
		wrapOf(4, pipeline.Config{ // gbt-deep escalated
			"gradient_boosting.rounds":    60 * mult,
			"gradient_boosting.lr":        0.08 / mult,
			"gradient_boosting.max_depth": 4,
		}),
		wrapOf(2, pipeline.Config{ // rf escalated
			"random_forest.trees":     60 * mult,
			"random_forest.max_depth": 22,
		}),
	}
}

// familyOf maps a candidate name to its model-registry family.
func familyOf(name string) string {
	switch {
	case name == "rf" || name[:2] == "rf":
		return "random_forest"
	case name == "xt":
		return "extra_trees"
	case name == "knn":
		return "knn"
	case name == "mlp":
		return "mlp"
	default:
		return "gradient_boosting"
	}
}

// stackCandidates is the (smaller) second-layer list.
func stackCandidates(gpu bool) []agCandidate {
	all := defaultCandidates(gpu)
	return []agCandidate{all[2], all[4], all[5]} // rf, gbt-deep, mlp
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

	// ----- Layer 1: bagged base models -----
	// AutoGluon plans its workload against the *budget*, estimating each
	// model's training time as if run sequentially — the plan does not
	// expand when more cores are allotted, it just finishes sooner
	// (which is why multi-core runs save energy, paper Fig. 5).
	type fittedBag struct {
		name string
		bag  *ensemble.Bagged
	}
	var layer1 []fittedBag
	var lastBagSeq, plannedSeq time.Duration
	remainingPlan := func() time.Duration { return opts.Budget - plannedSeq }
	for i, cand := range defaultCandidates(gpu) {
		// Budget estimation: skip remaining models once the last bag's
		// sequential cost exceeds the plan's remainder — except the
		// first model, which is mandatory (the source of small-budget
		// overruns).
		if i > 0 && lastBagSeq > remainingPlan() {
			break
		}
		bag, costs, err := ensemble.FitBagged(cand.build, train, folds, opts.Seed, rng)
		if err != nil {
			continue
		}
		_, seq := g.chargeBag(meter, costs, cand.build().ParallelFrac())
		lastBagSeq = seq
		plannedSeq += seq
		layer1 = append(layer1, fittedBag{name: cand.name, bag: bag})
	}
	if len(layer1) == 0 {
		return tracker.finish(&Result{
			System:    g.Name(),
			Predictor: newMajorityPredictor(train),
			Classes:   train.Classes(),
		}), nil
	}

	// ----- Layer 2: stacking on features + layer-1 OOF predictions -----
	// All bags share fold structure via the seeded KFold, so OOF rows are
	// aligned per bag; stacking inputs append each bag's OOF probability
	// rows to the original features.
	var layer2 []fittedBag
	stackBaseCount := len(layer1) // layer-2 inputs use exactly these bags
	oofLabels := layer1[0].bag.OOFLabels
	if lastBagSeq*2 <= remainingPlan() {
		probas := make([][][]float64, len(layer1))
		for i, fb := range layer1 {
			probas[i] = fb.bag.OOFProba
		}
		// The stacked training frame follows OOF order: the train rows
		// of the validation folds, in fold order.
		sf := ensemble.StackFeatures(train.Select(layer1[0].bag.OOFIndex), probas)
		sf.Name = train.Name() + "+stack"
		sf.Y = oofLabels
		sf.Classes = train.Classes()
		for _, cand := range stackCandidates(gpu) {
			if lastBagSeq > remainingPlan() {
				break
			}
			bag, costs, err := ensemble.FitBagged(cand.build, sf.All(), folds, opts.Seed+1, rng)
			if err != nil {
				continue
			}
			_, seq := g.chargeBag(meter, costs, cand.build().ParallelFrac())
			lastBagSeq = seq
			plannedSeq += seq
			layer2 = append(layer2, fittedBag{name: cand.name + "-l2", bag: bag})
		}
	}

	// ----- Budget-adaptive capacity escalation -----
	// With budget to spare, AutoGluon keeps training higher-capacity
	// variants of its strongest families (more rounds, more trees, wider
	// nets) — the mechanism by which its accuracy keeps converging with
	// longer search times (paper Fig. 3).
	for mult := 2.0; mult <= 64 && lastBagSeq*3/2 <= remainingPlan(); mult *= 2 {
		for _, cand := range escalatedCandidates(gpu, mult) {
			if lastBagSeq > remainingPlan() {
				break
			}
			bag, costs, err := ensemble.FitBagged(cand.build, train, folds, opts.Seed, rng)
			if err != nil {
				continue
			}
			_, seq := g.chargeBag(meter, costs, cand.build().ParallelFrac())
			lastBagSeq = seq
			plannedSeq += seq
			layer1 = append(layer1, fittedBag{name: cand.name, bag: bag})
		}
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
			if isStacked(fb.name) {
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

	// Inference-optimized preset: refit selected bags into single models.
	if g.Preset == PresetFastInference {
		for i, fb := range all {
			if caruana.Weights[i] <= 0 {
				continue
			}
			if isStacked(fb.name) {
				continue // stacked bags cannot be refit standalone; drop them
			}
			proto := g.protoFor(fb.name)
			if proto == nil {
				continue
			}
			cost, err := fb.bag.Refit(proto, train, rng)
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
		if isStacked(fb.name) {
			members[i] = &stackedPredictor{bag: fb.bag, base: base}
		} else {
			members[i] = fb.bag
		}
	}
	// Drop stacked members that were skipped by refit in fast-inference
	// mode.
	if g.Preset == PresetFastInference {
		for i, fb := range all {
			if isStacked(fb.name) {
				caruana.Weights[i] = 0
			}
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

func isStacked(name string) bool {
	return len(name) > 3 && name[len(name)-3:] == "-l2"
}

func (g *AutoGluon) protoFor(name string) func() *pipeline.Pipeline {
	for _, cand := range defaultCandidates(false) {
		if cand.name == name {
			return cand.build
		}
	}
	return nil
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
