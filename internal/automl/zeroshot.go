package automl

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/pipeline"
	"repro/internal/tabular"
)

// ZeroShot is the roster's ninth system: TabRepo-style zero-shot
// portfolio selection (PAPERS.md). It performs no search at all —
// offline meta-learning over the evaluation repository's meta-train
// entries has already distilled a small portfolio of configurations,
// and Fit simply trains the portfolio members in order and keeps the
// best by validation score. All the intelligence (and nearly all the
// energy) was spent once, offline; each new dataset costs only
// |portfolio| pipeline fits. Without a repository to learn from, the
// system falls back to a fixed default portfolio: a deterministic
// spread over the model families, cheapest first, so even tiny budgets
// complete at least one member.
type ZeroShot struct {
	// Portfolio is the ordered configuration list over pipeline.FullSpec.
	Portfolio []pipeline.Config
}

// NewZeroShot returns the zero-shot system with the default (non-meta-
// learned) portfolio.
func NewZeroShot() *ZeroShot {
	return &ZeroShot{Portfolio: DefaultZeroShotPortfolio()}
}

// NewZeroShotPortfolio returns the zero-shot system with a meta-learned
// portfolio (see MetaLearnPortfolio). An empty portfolio falls back to
// the default.
func NewZeroShotPortfolio(configs []pipeline.Config) *ZeroShot {
	if len(configs) == 0 {
		configs = DefaultZeroShotPortfolio()
	}
	return &ZeroShot{Portfolio: configs}
}

// Name implements System.
func (z *ZeroShot) Name() string { return "ZeroShot" }

// MinBudget implements System. Zero-shot selection has no search loop to
// amortize, so any budget is accepted.
func (z *ZeroShot) MinBudget() time.Duration { return 0 }

// Fit implements System: train portfolio members in order until the
// budget runs out, return the best single member. At least one member is
// always attempted — a zero-shot system that returns nothing at a small
// budget would be strictly worse than its own portfolio head.
func (z *ZeroShot) Fit(train tabular.View, opts Options) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, fmt.Errorf("zeroshot: %w", err)
	}
	rng := opts.rng()
	meter := opts.Meter
	tracker := startRun(meter)
	budget := meter.NewBudget(opts.Budget)

	fitTrain, val := holdoutSplit(train, 0.33, rng)

	spec := pipeline.FullSpec()
	portfolio := z.Portfolio
	if len(portfolio) == 0 {
		portfolio = DefaultZeroShotPortfolio()
	}

	var best evaluation
	evaluated := 0
	for i, cfg := range portfolio {
		if i > 0 && budget.Exceeded() {
			break
		}
		p, err := spec.Build(cfg, fitTrain.Features())
		if err != nil {
			continue
		}
		ev, ok := evaluatePipeline(p, fitTrain, val, meter, noCap, rng)
		evaluated++
		if !ok {
			continue
		}
		ev.config = cfg
		if best.pipe == nil || ev.score > best.score {
			best = ev
		}
	}

	if best.pipe == nil {
		res := MajorityResult(z.Name(), train)
		res.Evaluated = evaluated
		return tracker.finish(res), nil
	}
	return tracker.finish(&Result{
		System:     z.Name(),
		Predictor:  best.pipe,
		Classes:    train.Classes(),
		Evaluated:  evaluated,
		ValScore:   best.score,
		BestSpec:   &spec,
		BestConfig: best.config,
	}), nil
}

// DefaultZeroShotPortfolio is the fixed fallback portfolio used when no
// evaluation repository is available to meta-learn from: one sensible
// configuration per model family over the full space, ordered cheapest
// first so the head of the list completes inside any budget.
func DefaultZeroShotPortfolio() []pipeline.Config {
	spec := pipeline.FullSpec()
	space, err := spec.Space()
	if err != nil {
		return nil
	}
	return []pipeline.Config{
		space.Preset("logreg", pipeline.Config{"logreg.epochs": 25}),
		space.Preset("tree", pipeline.Config{"tree.max_depth": 10}),
		space.Preset("gaussian_nb", nil),
		space.Preset("knn", pipeline.Config{"knn.k": 5, "knn.weighted": 1}),
		space.Preset("gradient_boosting", pipeline.Config{"gradient_boosting.rounds": 50, "gradient_boosting.lr": 0.1}),
		space.Preset("random_forest", pipeline.Config{"random_forest.trees": 60, "random_forest.max_depth": 16}),
		space.Preset("extra_trees", pipeline.Config{"extra_trees.trees": 60}),
		space.Preset("mlp", pipeline.Config{"mlp.width": 48, "mlp.epochs": 30}),
	}
}

// PortfolioEvaluation is one meta-train observation for portfolio
// learning: a configuration's score on a dataset (typically decoded from
// an evaluation-repository entry).
type PortfolioEvaluation struct {
	Dataset string
	Config  pipeline.Config
	Score   float64
}

// MetaLearnPortfolio distills meta-train evaluations into a zero-shot
// portfolio of at most size configurations, using the greedy submodular
// cover TabRepo and auto-sklearn 2 use: repeatedly add the configuration
// that most raises the sum over datasets of the best score any selected
// configuration achieves there. The greedy objective prefers
// complementary configurations over individually strong but redundant
// ones. With no evaluations the default portfolio is returned, so a
// cold repository degrades to the fixed fallback rather than an empty
// system.
func MetaLearnPortfolio(evals []PortfolioEvaluation, size int) []pipeline.Config {
	if size <= 0 {
		size = 8
	}
	// Group by configuration identity; remember per-dataset best score
	// for each configuration (a config may appear under several seeds).
	type candidate struct {
		cfg    pipeline.Config
		scores map[string]float64
	}
	byKey := make(map[string]*candidate)
	datasets := make(map[string]bool)
	for _, ev := range evals {
		if ev.Config == nil {
			continue
		}
		k := ev.Config.Key()
		c, ok := byKey[k]
		if !ok {
			c = &candidate{cfg: ev.Config, scores: make(map[string]float64)}
			byKey[k] = c
		}
		if s, ok := c.scores[ev.Dataset]; !ok || ev.Score > s {
			c.scores[ev.Dataset] = ev.Score
		}
		datasets[ev.Dataset] = true
	}
	if len(byKey) == 0 {
		return DefaultZeroShotPortfolio()
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	dsNames := make([]string, 0, len(datasets))
	for d := range datasets {
		dsNames = append(dsNames, d)
	}
	sort.Strings(dsNames)

	covered := make(map[string]float64, len(dsNames))
	selected := make(map[string]bool, size)
	var out []pipeline.Config
	for len(out) < size && len(out) < len(keys) {
		bestKey := ""
		bestGain := 0.0
		for _, k := range keys {
			if selected[k] {
				continue
			}
			gain := 0.0
			for _, d := range dsNames {
				if s, ok := byKey[k].scores[d]; ok && s > covered[d] {
					gain += s - covered[d]
				}
			}
			// Strict > keeps the tie-break on sorted key order, which
			// makes the portfolio deterministic.
			if bestKey == "" || gain > bestGain {
				bestKey, bestGain = k, gain
			}
		}
		if bestKey == "" {
			break
		}
		if bestGain <= 0 && len(out) > 0 {
			break
		}
		selected[bestKey] = true
		for d, s := range byKey[bestKey].scores {
			if s > covered[d] {
				covered[d] = s
			}
		}
		out = append(out, byKey[bestKey].cfg.Clone())
	}
	return out
}
