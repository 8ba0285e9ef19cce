package automl

import (
	"fmt"
	"math"
	"sort"
	"time"

	"math/rand/v2"

	"repro/internal/energy"
	"repro/internal/ensemble"
	"repro/internal/hw"
	"repro/internal/pipeline"
	"repro/internal/search"
	"repro/internal/tabular"
)

// AutoSklearn reproduces the architecture of auto-sklearn 1 and 2 (paper
// Table 1): Bayesian optimization over the full search space (data and
// feature preprocessors plus all models), Caruana ensembling of the top
// evaluated pipelines, and — for version 2 — a meta-learned warm-start
// portfolio. Two budget-fidelity quirks the paper measures (§3.10) are
// reproduced structurally: the search counts only pipeline evaluations
// against the budget (a running evaluation is finished, not killed), and
// the ensemble-weight computation runs *after* the budget, uncounted,
// which makes ASKL the worst budget overrunner, especially on large
// validation sets.
type AutoSklearn struct {
	// Version is 1 or 2.
	Version int
}

// NewAutoSklearn1 returns auto-sklearn with random initialization.
func NewAutoSklearn1() *AutoSklearn { return &AutoSklearn{Version: 1} }

// NewAutoSklearn2 returns auto-sklearn 2 with the meta-learned warm-start
// portfolio.
func NewAutoSklearn2() *AutoSklearn { return &AutoSklearn{Version: 2} }

// Name implements System.
func (a *AutoSklearn) Name() string { return fmt.Sprintf("AutoSklearn%d", a.Version) }

// MinBudget implements System: the paper benchmarks ASKL only from 30s —
// below that the system cannot finish its first evaluations.
func (a *AutoSklearn) MinBudget() time.Duration { return 30 * time.Second }

// Fit implements System.
func (a *AutoSklearn) Fit(train tabular.View, opts Options) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, fmt.Errorf("asklearn: %w", err)
	}
	rng := opts.rng()
	meter := opts.Meter
	tracker := startRun(meter)
	budget := meter.NewBudget(opts.Budget)

	spec := pipeline.FullSpec()
	space, err := spec.Space()
	if err != nil {
		return nil, fmt.Errorf("asklearn: %w", err)
	}
	fitTrain, val := holdoutSplit(train, 0.33, rng)

	bo := search.NewBO(space, rng)
	var evals []evaluation

	// Version 2 warm start: evaluate the meta-learned portfolio first,
	// choosing the portfolio order by meta-feature similarity. The
	// offline construction of the portfolio is development-stage energy
	// the paper notes was "140 datasets each for 24h" — it is sunk cost
	// here, not charged to this run.
	if a.Version >= 2 {
		for _, cfg := range WarmStartPortfolio(train.Meta(), space, opts.Budget) {
			if budget.Exceeded() {
				break
			}
			a.tryEvaluate(cfg, spec, fitTrain, val, opts, bo, &evals, rng)
		}
	} else {
		// Version 1: random initialization. ASKL1's unrestricted space
		// can draw pipelines that are far too expensive for the budget
		// (paper §2.3) — nothing prevents it.
		for i := 0; i < 3 && !budget.Exceeded(); i++ {
			a.tryEvaluate(space.Sample(rng), spec, fitTrain, val, opts, bo, &evals, rng)
		}
	}

	// BO loop: the budget is only checked between evaluations — a
	// started evaluation always runs to completion. Auto-sklearn also
	// keeps its ensemble up to date *during* the search (a concurrent
	// ensemble-builder process in the original; serialized virtual
	// compute here), rebuilding at exponentially spaced evaluation
	// milestones.
	nextRebuild := 10
	for !budget.Exceeded() {
		cfg, boCost := bo.Suggest()
		chargeCost(meter, energy.Execution, boCost, 0.3)
		a.tryEvaluate(cfg, spec, fitTrain, val, opts, bo, &evals, rng)
		if len(evals) >= nextRebuild {
			a.chargeEnsembleBuild(meter, min(len(evals), a.ensembleSize()), val)
			nextRebuild *= 2
		}
	}

	if len(evals) == 0 {
		return tracker.finish(MajorityResult(a.Name(), train)), nil
	}

	// Post-budget ensembling over the top evaluated pipelines: Caruana
	// selection computes weights on the validation predictions. This is
	// the step auto-sklearn does NOT count as search time (paper §3.10).
	sort.SliceStable(evals, func(i, j int) bool { return evals[i].score > evals[j].score })
	top := a.ensembleSize()
	rounds := 40
	if a.Version >= 2 {
		rounds = 15
	}
	if len(evals) < top {
		top = len(evals)
	}
	candidates := evals[:top]
	valProbas := make([][][]float64, len(candidates))
	members := make([]ensemble.Predictor, len(candidates))
	for i, ev := range candidates {
		valProbas[i] = ev.valProba
		members[i] = ev.pipe
	}
	caruana, err := ensemble.CaruanaSelect(valProbas, val.LabelsInto(nil), val.Classes(), rounds)
	if err != nil {
		return nil, fmt.Errorf("asklearn: ensembling: %w", err)
	}
	chargeCost(meter, energy.Execution, caruana.Cost, 0.2)
	a.chargeEnsembleBuild(meter, len(candidates), val)

	return tracker.finish(&Result{
		System:    a.Name(),
		Predictor: &ensemble.Weighted{Members: members, Weights: caruana.Weights},
		Classes:   train.Classes(),
		Evaluated: len(evals),
		ValScore:  caruana.Score,
		// The deployable recipe is the ensemble's top-scoring member;
		// the served ensemble itself is not one spec/config pipeline.
		BestSpec:   &spec,
		BestConfig: evals[0].config,
	}), nil
}

// ensembleSize is the candidate pool for Caruana selection: the original
// auto-sklearn considers the top 50 evaluated pipelines; version 2 trims
// the pool.
func (a *AutoSklearn) ensembleSize() int {
	if a.Version >= 2 {
		return 25
	}
	return 50
}

// chargeEnsembleBuild bills the bookkeeping around one ensemble
// construction: per candidate model, serialized predictions are loaded,
// recalibrated and rescored against the validation set. This work — not
// the Caruana loop itself — is why auto-sklearn's runs overshoot the
// search budget so badly on large validation sets (paper §3.10, Table 7).
func (a *AutoSklearn) chargeEnsembleBuild(meter *energy.Meter, candidates int, val tabular.View) {
	perCandidate := 600e3 * float64(val.Rows()) / 64 * float64(max(val.Classes(), 2))
	meter.Run(energy.Execution, hw.Work{
		FLOPs:        float64(candidates) * perCandidate,
		Kind:         hw.KindGeneric,
		ParallelFrac: 0.2,
	})
}

func (a *AutoSklearn) tryEvaluate(cfg pipeline.Config, spec pipeline.SpaceSpec, fitTrain, val tabular.View, opts Options, bo *search.BO, evals *[]evaluation, rng *rand.Rand) {
	p, err := spec.Build(cfg, fitTrain.Features())
	if err != nil {
		bo.Observe(cfg, 0)
		return
	}
	ev, ok := evaluatePipeline(p, fitTrain, val, opts.Meter, noCap, rng)
	if !ok {
		bo.Observe(cfg, 0)
		return
	}
	ev.config = cfg
	bo.Observe(cfg, ev.score)
	*evals = append(*evals, ev)
}

// WarmStartPortfolio returns auto-sklearn 2's meta-learned starting
// configurations ordered for the given dataset and budget. The portfolio
// itself is a fixed artifact of the (offline) development stage: a spread
// of strong configurations across model families. Ordering uses the
// dataset's meta-features — wide datasets front-load feature selection,
// many-class datasets front-load tree ensembles, small datasets front-load
// cheap models — and the selector is cost-aware: at short budgets cheap
// configurations run first so the portfolio finishes inside the budget.
func WarmStartPortfolio(meta tabular.MetaFeatures, space *pipeline.Space, budget time.Duration) []pipeline.Config {
	type entry struct {
		cfg      pipeline.Config
		affinity float64
		cheap    bool
	}
	wide := meta.LogFeatures   // high for wide datasets
	large := meta.LogRows      // high for large datasets
	classes := meta.LogClasses // high for many-class tasks
	entries := []entry{
		{space.Preset("gradient_boosting", pipeline.Config{"gradient_boosting.rounds": 60, "gradient_boosting.lr": 0.1}), 2 + large, false},
		{space.Preset("random_forest", pipeline.Config{"random_forest.trees": 80, "random_forest.max_depth": 18}), 2 + classes, false},
		{space.Preset("extra_trees", pipeline.Config{"extra_trees.trees": 80}), 1.5 + classes, false},
		{space.Preset("mlp", pipeline.Config{"mlp.width": 64, "mlp.epochs": 40}), 1 + large - wide, false},
		{space.Preset("logreg", pipeline.Config{"logreg.epochs": 30}), 1 + wide, true},
		{space.Preset("svm", pipeline.Config{"svm.epochs": 30}), 0.5 + wide, true},
		{space.Preset("gradient_boosting", pipeline.Config{"gradient_boosting.rounds": 30, "gradient_boosting.lr": 0.2, "feature_pre": 1}), 1 + 2*wide, false},
		{space.Preset("tree", pipeline.Config{"tree.max_depth": 8}), 1 - large, true},
		{space.Preset("gaussian_nb", nil), 0.5 - large, true},
		{space.Preset("knn", pipeline.Config{"knn.k": 7, "knn.weighted": 1}), 0.8 - wide, true},
	}
	sort.SliceStable(entries, func(i, j int) bool {
		// Cost-aware ordering at short budgets: cheap entries first,
		// affinity second.
		if budget > 0 && budget <= 45*time.Second && entries[i].cheap != entries[j].cheap {
			return entries[i].cheap
		}
		return entries[i].affinity > entries[j].affinity
	})
	n := int(math.Min(float64(len(entries)), 8))
	out := make([]pipeline.Config, 0, n)
	for _, e := range entries[:n] {
		out = append(out, e.cfg)
	}
	return out
}
