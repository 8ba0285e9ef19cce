package bench

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/internal/automl"
	"repro/internal/energy"
	"repro/internal/ensemble"
	"repro/internal/faults"
	"repro/internal/pipeline"
	"repro/internal/repo"
	"repro/internal/tabular"
)

// Repository-backed analyses: once a grid's predictions live in the
// evaluation repository, ensembling and portfolio learning run as pure
// lookup + arithmetic — no fits, no predictions, zero marginal training
// joules (the TabRepo move, PAPERS.md). The simulated compute is still
// charged to a meter: "almost free" is a measurement, not an exemption.

// EnsembleSimCell is one simulated ensemble: all stored systems of a
// (dataset, budget, seed) cell blended by greedy selection.
type EnsembleSimCell struct {
	Dataset string
	Budget  time.Duration
	Seed    uint64
	// Members counts the stored systems that participated.
	Members int
	// Active counts members Caruana selection gave positive weight.
	Active int
	// BestSingle is the best individual member's holdout balanced
	// accuracy; Ensemble is the blended ensemble's. The gap is the
	// zero-extra-joules accuracy the store buys.
	BestSingle float64
	Ensemble   float64
	// KWh is the simulation energy the cell charged (lookup + blend).
	KWh float64
}

// EnsembleSimResult is a store-wide ensemble simulation.
type EnsembleSimResult struct {
	Cells []EnsembleSimCell
	// Hits counts member entries loaded from the repository; Missing
	// counts (system, cell) pairs the store did not hold; Damaged
	// counts entries that failed verification (AllowDamage only —
	// otherwise the simulation aborts instead).
	Hits    int
	Missing int
	Damaged int
	// TotalKWh is the full simulation's charged energy.
	TotalKWh float64
}

// SimulateEnsembles simulates greedy ensemble selection over every grid
// cell's stored predictions: for each (dataset, budget, seed), the
// systems' cached probability slabs are loaded, split into selection
// and holdout halves, Caruana-selected and blended — without a single
// fit or live prediction. Labels come from regenerating the dataset
// split exactly as the scheduler does (identity-keyed RNG streams make
// that bit-identical to the original run). All simulation compute —
// slab lookups, the selection loop, blending and scoring — is charged
// to a single-core meter on cfg.Machine, so the result reports real
// (tiny) kWh instead of pretending the analysis was free. Cells with
// fewer than two stored members are skipped and their absent members
// counted as Missing.
func SimulateEnsembles(systems []automl.System, cfg Config, rp *repo.Repository) (*EnsembleSimResult, error) {
	if rp == nil {
		return nil, fmt.Errorf("bench: ensemble simulation needs a repository")
	}
	cfg = cfg.normalized()
	fingerprint := Fingerprint(systems, cfg)
	inj := faults.New(cfg.Faults)
	meter := energy.NewMeter(cfg.Machine, 1)
	res := &EnsembleSimResult{}

	splits := newGridSplits(cfg, inj)
	for di, spec := range cfg.Datasets {
		for seed := 0; seed < cfg.Seeds; seed++ {
			cellSeed := gridCellSeed(di, seed)
			var test tabular.View
			var labels []int
			for _, budget := range cfg.Budgets {
				var probas [][][]float64
				members := 0
				for _, sys := range systems {
					if budget < sys.MinBudget() {
						continue
					}
					id := cellID(sys.Name(), spec.Name, budget, cellSeed)
					e, damaged, err := rp.Get(fingerprint, id)
					if err != nil {
						return nil, err
					}
					if damaged {
						res.Damaged++
						continue
					}
					if e == nil {
						res.Missing++
						continue
					}
					if labels == nil {
						if _, test, err = splits.split(di, seed); err != nil {
							return nil, fmt.Errorf("bench: regenerating %s for simulation: %w", spec.Name, err)
						}
						labels = test.LabelsInto(nil)
					}
					if e.Rows != test.Rows() || e.Classes != test.Classes() {
						return nil, fmt.Errorf("bench: repository cell %s holds %d×%d predictions, test split is %d×%d — store built from a different grid", id, e.Rows, e.Classes, test.Rows(), test.Classes())
					}
					rows, err := tabular.UnflattenRows(e.Proba, e.Rows, e.Classes)
					if err != nil {
						return nil, fmt.Errorf("bench: repository cell %s: %w", id, err)
					}
					probas = append(probas, rows)
					members++
					res.Hits++
				}
				if members < 2 {
					continue
				}
				before := meter.Tracker().KWh(energy.Execution)
				sim, err := ensemble.SimulateSelection(probas, labels, test.Classes(), 2*members)
				if err != nil {
					return nil, fmt.Errorf("bench: simulating %s/%s/seed %d: %w", spec.Name, FormatBudget(budget), cellSeed, err)
				}
				// Charge the simulation's entire compute — lookup, selection,
				// blend, scoring — to the meter; nothing else runs, so the
				// delta below is pure lookup+blend energy.
				works, n := sim.Cost.Works(0)
				for _, w := range works[:n] {
					meter.Run(energy.Execution, w)
				}
				kwh := meter.Tracker().KWh(energy.Execution) - before
				res.Cells = append(res.Cells, EnsembleSimCell{
					Dataset:    spec.Name,
					Budget:     budget,
					Seed:       cellSeed,
					Members:    members,
					Active:     sim.ActiveMembers,
					BestSingle: sim.BestSingle,
					Ensemble:   sim.HoldoutScore,
					KWh:        kwh,
				})
			}
		}
	}
	res.TotalKWh = meter.Tracker().KWh(energy.Execution)
	return res, nil
}

// Render formats the simulation as a paper-style table.
func (r *EnsembleSimResult) Render() string {
	var sb strings.Builder
	sb.WriteString("Simulated ensembles from the evaluation repository (no refits)\n")
	w := newTable(&sb)
	fmt.Fprintln(w, "dataset\tbudget\tseed\tmembers\tactive\tbest single\tensemble\tΔ\tsim kWh")
	for _, c := range r.Cells {
		fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%d\t%.4f\t%.4f\t%+.4f\t%.3g\n",
			c.Dataset, FormatBudget(c.Budget), c.Seed, c.Members, c.Active,
			c.BestSingle, c.Ensemble, c.Ensemble-c.BestSingle, c.KWh)
	}
	w.Flush()
	fmt.Fprintf(&sb, "cells: %d simulated; entries: %d hit(s), %d missing, %d damaged; total simulated energy: %.6g kWh\n",
		len(r.Cells), r.Hits, r.Missing, r.Damaged, r.TotalKWh)
	return sb.String()
}

// PortfolioFromRepo meta-learns a zero-shot portfolio from every entry
// in the repository that recorded a winning pipeline configuration
// (across all fingerprints — meta-learning wants breadth, and entries
// of any grid are honest (config, dataset, score) observations). An
// empty or config-less store yields the default portfolio via
// automl.MetaLearnPortfolio's fallback. The walk is sorted, so the
// learned portfolio is deterministic for a given store.
func PortfolioFromRepo(rp *repo.Repository, size int) ([]pipeline.Config, int, error) {
	var evals []automl.PortfolioEvaluation
	damaged, err := rp.Walk(func(e *repo.Entry) error {
		if len(e.Config) == 0 {
			return nil
		}
		var cfg pipeline.Config
		if err := json.Unmarshal(e.Config, &cfg); err != nil {
			return fmt.Errorf("bench: repository entry %s: undecodable config: %w", e.Key, err)
		}
		evals = append(evals, automl.PortfolioEvaluation{
			Dataset: e.Dataset,
			Config:  cfg,
			Score:   e.Score,
		})
		return nil
	})
	if err != nil {
		return nil, damaged, err
	}
	return automl.MetaLearnPortfolio(evals, size), damaged, nil
}
