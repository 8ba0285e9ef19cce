package automl

import (
	"fmt"
	"time"

	"repro/internal/energy"
	"repro/internal/pipeline"
	"repro/internal/search"
	"repro/internal/tabular"
)

// TPOT reproduces the tree-based pipeline optimization tool (Olson &
// Moore 2019, paper Table 1): genetic programming over the full pipeline
// space, starting from random pipelines and evolving them with NSGA-II on
// the two objectives (maximize accuracy, minimize pipeline complexity).
// Evaluation uses 5-fold cross-validation, which the paper singles out as
// the reason TPOT scores lowest at small budgets — every candidate costs
// five fits. Budget fidelity: TPOT completes the generation in flight when
// the budget expires, the largest overrun after ASKL (paper Table 7), and
// supports budgets only at minutes granularity.
type TPOT struct {
	// Population is the evolutionary population size (default 24; the
	// released TPOT defaults to 100 — at small search budgets the first
	// generations barely complete, which is why TPOT scores lowest
	// within 5 minutes in the paper).
	Population int
	// CVFolds is the cross-validation fold count (default 5).
	CVFolds int
}

// NewTPOT returns TPOT with default settings.
func NewTPOT() *TPOT { return &TPOT{} }

// Name implements System.
func (t *TPOT) Name() string { return "TPOT" }

// MinBudget implements System: "TPOT only supports search time in
// minutes" (paper §3.2).
func (t *TPOT) MinBudget() time.Duration { return time.Minute }

type tpotIndividual struct {
	cfg        pipeline.Config
	score      float64 // mean CV balanced accuracy
	complexity float64 // pipeline size proxy (second NSGA-II objective)
	pipe       *pipeline.Pipeline
}

// Fit implements System.
func (t *TPOT) Fit(train tabular.View, opts Options) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, fmt.Errorf("tpot: %w", err)
	}
	popSize := t.Population
	if popSize < 4 {
		popSize = 24
	}
	folds := t.CVFolds
	if folds < 2 {
		folds = 5
	}
	rng := opts.rng()
	meter := opts.Meter
	tracker := startRun(meter)
	budget := meter.NewBudget(opts.Budget)

	spec := pipeline.FullSpec()
	space, err := spec.Space()
	if err != nil {
		return nil, fmt.Errorf("tpot: %w", err)
	}

	// The last fold's model is the individual's representative.
	evaluate := func(cfg pipeline.Config) (tpotIndividual, bool) {
		ev, ok := crossValidate(spec, cfg, train, folds, meter, nil, rng)
		if !ok {
			return tpotIndividual{}, false
		}
		return tpotIndividual{cfg: cfg, score: ev.score, complexity: configComplexity(space, cfg), pipe: ev.pipe}, true
	}

	// Initial random population. TPOT works at generation granularity,
	// but a hard stop at 1.5x the budget bounds the overrun: the released
	// TPOT enforces a per-evaluation timeout that kicks in similarly.
	overrunLimit := opts.Budget + opts.Budget/2
	var population []tpotIndividual
	evaluated := 0
	for i := 0; i < popSize; i++ {
		if budget.Elapsed() > overrunLimit {
			break
		}
		cfg := space.Sample(rng)
		if ind, ok := evaluate(cfg); ok {
			population = append(population, ind)
			evaluated++
		}
	}

	for !budget.Exceeded() && len(population) >= 2 {
		// Breed one full generation of offspring (generation completes
		// regardless of the budget — Table 7's overrun).
		objectives := tpotObjectives(population)
		var offspring []tpotIndividual
		for attempts := 0; len(offspring) < popSize && attempts < 3*popSize; attempts++ {
			if budget.Elapsed() > overrunLimit {
				break
			}
			a := search.BinaryTournament(objectives, rng)
			b := search.BinaryTournament(objectives, rng)
			child := space.Crossover(population[a].cfg, population[b].cfg, rng)
			child = space.Mutate(child, 0.25, rng)
			if ind, ok := evaluate(child); ok {
				offspring = append(offspring, ind)
				evaluated++
			}
		}
		// Environmental selection over parents + offspring.
		combined := append(population, offspring...)
		survivors := search.NSGA2Select(tpotObjectives(combined), popSize)
		next := make([]tpotIndividual, 0, popSize)
		for _, idx := range survivors {
			next = append(next, combined[idx])
		}
		population = next
	}

	if len(population) == 0 {
		return tracker.finish(MajorityResult(t.Name(), train)), nil
	}

	// Return the accuracy-best individual, refit on the full training
	// data.
	best := population[0]
	for _, ind := range population[1:] {
		if ind.score > best.score {
			best = ind
		}
	}
	final, err := spec.Build(best.cfg, train.Features())
	if err == nil {
		cost, fitErr := final.Fit(train, rng)
		chargeCost(meter, energy.Execution, cost, final.ParallelFrac())
		if fitErr != nil {
			final = best.pipe
		}
	} else {
		final = best.pipe
	}

	return tracker.finish(&Result{
		System:     t.Name(),
		Predictor:  final,
		Classes:    train.Classes(),
		Evaluated:  evaluated,
		ValScore:   best.score,
		BestSpec:   &spec,
		BestConfig: best.cfg,
	}), nil
}

// tpotObjectives renders the NSGA-II minimization objectives:
// (1 - accuracy, complexity).
func tpotObjectives(pop []tpotIndividual) [][]float64 {
	objs := make([][]float64, len(pop))
	for i, ind := range pop {
		objs[i] = []float64{1 - ind.score, ind.complexity}
	}
	return objs
}

// configComplexity scores a configuration's pipeline size: normalized
// numeric magnitude plus a bonus for feature preprocessing.
func configComplexity(space *pipeline.Space, cfg pipeline.Config) float64 {
	vec := space.Vector(cfg)
	var sum float64
	for _, v := range vec {
		sum += v
	}
	if len(vec) == 0 {
		return 0
	}
	return sum / float64(len(vec))
}
