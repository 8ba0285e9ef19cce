package bench

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"time"

	"repro/internal/automl"
	"repro/internal/energy"
	"repro/internal/hw"
	"repro/internal/metaopt"
	"repro/internal/metrics"
	"repro/internal/openml"
)

// ---------------------------------------------------------------------------
// Figure 3: execution & inference energy vs balanced accuracy
// ---------------------------------------------------------------------------

// Fig3Result carries the full grid records and their aggregation.
type Fig3Result struct {
	Records []Record
	Stats   []CellStats
	// JournalDamaged counts CRC-skipped checkpoint lines encountered
	// while resuming from a journal (the affected cells were rerun).
	// Zero for journal-less runs. It is surfaced in the run summary,
	// never silently swallowed.
	JournalDamaged int
	// Repo reports the evaluation-repository traffic of the run; the
	// zero value means no repository was configured.
	Repo RepoStats
}

// Fig3 runs the paper's main grid: every system × budget × dataset × seed
// on the CPU testbed with one core. With a non-empty journalPath,
// completed cells checkpoint as they finish and an interrupted run picks
// up where it was killed.
func Fig3(cfg Config, journalPath string) (Fig3Result, error) {
	run, err := RunShard(DefaultSystems(), cfg, journalPath)
	if err != nil {
		return Fig3Result{}, err
	}
	res := Fig3FromRecords(cfg, run.Records)
	res.JournalDamaged = run.Damaged
	res.Repo = run.Repo
	return res, nil
}

// Fig3FromRecords aggregates already-obtained grid records — merged
// shard journals, a replayed export — exactly as Fig3 would
// aggregate a live run: same bootstrap RNG stream, same stats, and
// therefore byte-identical rendered reports and SVG exports.
func Fig3FromRecords(cfg Config, records []Record) Fig3Result {
	cfg = cfg.normalized()
	rng := rand.New(rand.NewPCG(cfg.Seed, 0xf163))
	return Fig3Result{Records: records, Stats: Aggregate(records, rng)}
}

// ---------------------------------------------------------------------------
// Figure 4: total energy against number of predictions
// ---------------------------------------------------------------------------

// Fig4Series is one system's energy-vs-predictions curve.
type Fig4Series struct {
	System          string
	ExecKWh         float64
	InferKWhPerInst float64
	// TotalKWh[i] corresponds to Fig4Result.Points[i].
	TotalKWh []float64
}

// Fig4Result compares cumulative energy across prediction volumes.
type Fig4Result struct {
	Points []float64
	Series []Fig4Series
	// TabPFNCrossover is the prediction count beyond which the cheapest
	// search-based system beats TabPFN (paper: ≈26k predictions).
	TabPFNCrossover float64
}

// Fig4 derives the energy-vs-predictions comparison from fig3 statistics,
// using each system's best-accuracy configuration (as the paper does).
func Fig4(stats []CellStats, points []float64) Fig4Result {
	if len(points) == 0 {
		points = []float64{1e2, 1e3, 1e4, 1e5, 1e6, 1e7}
	}
	res := Fig4Result{Points: points}
	for _, system := range Systems(stats) {
		cell, ok := BestCell(stats, system)
		if !ok {
			continue
		}
		series := Fig4Series{
			System:          system,
			ExecKWh:         cell.ExecKWh,
			InferKWhPerInst: cell.InferKWhPerInst,
		}
		for _, n := range points {
			series.TotalKWh = append(series.TotalKWh, cell.ExecKWh+n*cell.InferKWhPerInst)
		}
		res.Series = append(res.Series, series)
	}

	// Crossover: the smallest n where some other system's total drops
	// below TabPFN's.
	var tabpfn *Fig4Series
	for i := range res.Series {
		if res.Series[i].System == "TabPFN" {
			tabpfn = &res.Series[i]
		}
	}
	if tabpfn != nil {
		best := math.Inf(1)
		for _, s := range res.Series {
			if s.System == "TabPFN" {
				continue
			}
			// exec_s + n*infer_s = exec_t + n*infer_t
			if tabpfn.InferKWhPerInst <= s.InferKWhPerInst {
				continue // never crosses
			}
			n := (s.ExecKWh - tabpfn.ExecKWh) / (tabpfn.InferKWhPerInst - s.InferKWhPerInst)
			if n > 0 && n < best {
				best = n
			}
		}
		if !math.IsInf(best, 1) {
			res.TabPFNCrossover = best
		}
	}
	return res
}

// ---------------------------------------------------------------------------
// Figure 5: parallelism
// ---------------------------------------------------------------------------

// Fig5Cell is one (system, cores, budget) aggregate.
type Fig5Cell struct {
	System  string
	Cores   int
	Budget  time.Duration
	Score   float64
	ExecKWh float64
}

// Fig5Result holds the parallelism sweep.
type Fig5Result struct {
	Cells []Fig5Cell
}

// Fig5 runs CAML and AutoGluon across core counts (paper: 1, 2, 4, 8) and
// budgets.
func Fig5(cfg Config, coreCounts []int) Fig5Result {
	cfg = cfg.normalized()
	if len(coreCounts) == 0 {
		coreCounts = []int{1, 2, 4, 8}
	}
	systems := []automl.System{automl.NewCAML(), automl.NewAutoGluon()}
	var res Fig5Result
	for _, cores := range coreCounts {
		c := cfg
		c.Cores = cores
		records := RunGrid(systems, c)
		rng := rand.New(rand.NewPCG(cfg.Seed, uint64(cores)))
		for _, s := range Aggregate(records, rng) {
			res.Cells = append(res.Cells, Fig5Cell{
				System:  s.Key.System,
				Cores:   cores,
				Budget:  s.Key.Budget,
				Score:   s.Score.Mean,
				ExecKWh: s.ExecKWh,
			})
		}
	}
	sort.Slice(res.Cells, func(i, j int) bool {
		a, b := res.Cells[i], res.Cells[j]
		if a.System != b.System {
			return a.System < b.System
		}
		if a.Cores != b.Cores {
			return a.Cores < b.Cores
		}
		return a.Budget < b.Budget
	})
	return res
}

// ---------------------------------------------------------------------------
// Figure 6: configuring systems for inference
// ---------------------------------------------------------------------------

// Fig6Cell is one inference-configured variant's aggregate.
type Fig6Cell struct {
	Variant         string
	Budget          time.Duration
	Score           float64
	InferKWhPerInst float64
}

// Fig6Result holds the inference-configuration sweep.
type Fig6Result struct {
	Cells []Fig6Cell
}

// Fig6 sweeps CAML's inference-time constraints (paper: 1–3 ms/instance)
// and AutoGluon's inference-optimized preset against the unconstrained
// defaults.
func Fig6(cfg Config, constraints []time.Duration) Fig6Result {
	cfg = cfg.normalized()
	if len(constraints) == 0 {
		// The paper sweeps 1-3 ms/instance on full-size datasets; the
		// scaled virtual testbed shifts per-instance times down, so the
		// default sweep covers the range where the constraint actually
		// separates tree ensembles from single trees here.
		constraints = []time.Duration{time.Millisecond, 500 * time.Microsecond, 250 * time.Microsecond}
	}
	systems := []automl.System{
		automl.NewCAML(),
		automl.NewAutoGluon(),
		automl.NewAutoGluonFastInference(),
	}
	for _, limit := range constraints {
		params := automl.DefaultCAMLParams()
		params.InferenceLimit = limit
		systems = append(systems, &automl.CAML{
			Params: params,
			Label:  fmt.Sprintf("CAML(c=%s)", limit),
		})
	}
	records := RunGrid(systems, cfg)
	rng := rand.New(rand.NewPCG(cfg.Seed, 0xf166))
	var res Fig6Result
	for _, s := range Aggregate(records, rng) {
		res.Cells = append(res.Cells, Fig6Cell{
			Variant:         s.Key.System,
			Budget:          s.Key.Budget,
			Score:           s.Score.Mean,
			InferKWhPerInst: s.InferKWhPerInst,
		})
	}
	return res
}

// ---------------------------------------------------------------------------
// Figure 7: the development stage
// ---------------------------------------------------------------------------

// Fig7Result compares CAML(tuned) against the untuned systems and reports
// the development cost and its amortization point.
type Fig7Result struct {
	// Budget is the search time the tuning targeted.
	Budget time.Duration
	// Dev is the development-stage optimization outcome.
	Dev *metaopt.Result
	// TunedStats aggregates CAML(tuned) on the test suite.
	TunedStats []CellStats
	// BaselineStats aggregates the untuned lineup (from fig3).
	BaselineStats []CellStats
	// AmortizationRuns is the number of tuned executions after which
	// the development energy amortizes against the energy the tuned
	// system saves per run versus the cheapest competitor at equal or
	// better accuracy.
	AmortizationRuns int
}

// Fig7 runs the development-stage optimizer for one budget and evaluates
// the tuned CAML on the test suite.
func Fig7(cfg Config, metaOpts metaopt.Options, baseline []CellStats) Fig7Result {
	cfg = cfg.normalized()
	metaOpts.Budget = nonzeroBudget(metaOpts.Budget, cfg.Budgets)
	dev, err := metaopt.Optimize(openml.MetaTrainSuite(), metaOpts)
	if err != nil {
		// Fall back to factory presets so the comparison still runs.
		dev = &metaopt.Result{Params: automl.DefaultTunedParams(metaOpts.Budget)}
	}

	tuned := automl.NewTunedCAML(dev.Params)
	c := cfg
	c.Budgets = []time.Duration{metaOpts.Budget}
	records := RunGrid([]automl.System{tuned}, c)
	rng := rand.New(rand.NewPCG(cfg.Seed, 0xf167))
	res := Fig7Result{
		Budget:        metaOpts.Budget,
		Dev:           dev,
		TunedStats:    Aggregate(records, rng),
		BaselineStats: baseline,
	}

	// Amortization: the paper reports the point where development energy
	// divided by the per-run execution saving versus the default CAML
	// (same budget) pays off.
	if len(res.TunedStats) > 0 {
		tunedCell := res.TunedStats[0]
		for _, s := range baseline {
			if s.Key.System == "CAML" && s.Key.Budget == metaOpts.Budget {
				saving := s.ExecKWh - tunedCell.ExecKWh
				if saving <= 0 {
					// The tuned system may cost the same to execute;
					// amortize against the most accurate competitor
					// (AutoGluon) instead.
					for _, s2 := range baseline {
						if s2.Key.System == "AutoGluon" && s2.Key.Budget == metaOpts.Budget {
							saving = s2.ExecKWh - tunedCell.ExecKWh
						}
					}
				}
				res.AmortizationRuns = dev.AmortizationRuns(saving)
			}
		}
	}
	return res
}

func nonzeroBudget(b time.Duration, budgets []time.Duration) time.Duration {
	if b > 0 {
		return b
	}
	if len(budgets) > 0 {
		return budgets[0]
	}
	return 10 * time.Second
}

// ---------------------------------------------------------------------------
// Table 3: GPU acceleration ratios
// ---------------------------------------------------------------------------

// Table3Row is one system's GPU/CPU-only quotients (values < 1 favour the
// GPU setup).
type Table3Row struct {
	System      string
	ExecEnergy  float64
	ExecTime    float64
	InferEnergy float64
	InferTime   float64
}

// Table3Result holds the GPU experiment.
type Table3Result struct {
	Rows []Table3Row
}

// Table3 runs AutoGluon and TabPFN on the T4 testbed with GPU support
// enabled and disabled (budget 5 min for AutoGluon, as in the paper) and
// reports the quotients GPU/CPU-only.
func Table3(cfg Config) Table3Result {
	cfg = cfg.normalized()
	cfg.Machine = hw.T4Machine()
	cfg.Budgets = []time.Duration{5 * time.Minute}
	systems := []automl.System{automl.NewAutoGluon(), automl.NewTabPFN()}

	ratio := func(gpu, cpu float64) float64 {
		if cpu <= 0 {
			return 0
		}
		return gpu / cpu
	}

	cpuCfg := cfg
	cpuCfg.GPUMode = energy.GPUOff
	gpuCfg := cfg
	gpuCfg.GPUMode = energy.GPUActive

	rng := rand.New(rand.NewPCG(cfg.Seed, 0x7ab3))
	cpuStats := Aggregate(RunGrid(systems, cpuCfg), rng)
	gpuStats := Aggregate(RunGrid(systems, gpuCfg), rng)

	var res Table3Result
	for _, sys := range systems {
		var cpu, gpu *CellStats
		for i := range cpuStats {
			if cpuStats[i].Key.System == sys.Name() {
				cpu = &cpuStats[i]
			}
		}
		for i := range gpuStats {
			if gpuStats[i].Key.System == sys.Name() {
				gpu = &gpuStats[i]
			}
		}
		if cpu == nil || gpu == nil {
			continue
		}
		// Recover per-instance inference time from the records through
		// stats: use energy and busy-time aggregates.
		res.Rows = append(res.Rows, Table3Row{
			System:      sys.Name(),
			ExecEnergy:  ratio(gpu.ExecKWh, cpu.ExecKWh),
			ExecTime:    ratio(gpu.ExecTime.Seconds(), cpu.ExecTime.Seconds()),
			InferEnergy: ratio(gpu.InferKWhPerInst, cpu.InferKWhPerInst),
			InferTime:   ratio(inferTimeOf(gpu), inferTimeOf(cpu)),
		})
	}
	return res
}

func inferTimeOf(s *CellStats) float64 { return s.InferTimePerInst.Seconds() }

// ---------------------------------------------------------------------------
// Table 4: one trillion predictions
// ---------------------------------------------------------------------------

// Table4Row is one system's projected cost of a trillion predictions.
type Table4Row struct {
	System    string
	EnergyKWh float64
	CO2Kg     float64
	CostEUR   float64
}

// Table4Result holds the projection.
type Table4Result struct {
	Rows []Table4Row
}

// Table4 projects one trillion predictions with each system's
// best-accuracy model (paper §3.6: Meta-scale workloads).
func Table4(stats []CellStats) Table4Result {
	const predictions = 1e12
	var res Table4Result
	for _, system := range Systems(stats) {
		cell, ok := BestCell(stats, system)
		if !ok {
			continue
		}
		kwh := cell.InferKWhPerInst * predictions
		res.Rows = append(res.Rows, Table4Row{
			System:    system,
			EnergyKWh: kwh,
			CO2Kg:     energy.CO2Kg(kwh),
			CostEUR:   energy.CostEUR(kwh),
		})
	}
	sort.Slice(res.Rows, func(i, j int) bool { return res.Rows[i].EnergyKWh > res.Rows[j].EnergyKWh })
	return res
}

// ---------------------------------------------------------------------------
// Table 6: overfitting counts (5 min worse than 1 min)
// ---------------------------------------------------------------------------

// Table6Row counts, for one system, the datasets where the 5-minute run
// scored worse than the 1-minute run.
type Table6Row struct {
	System   string
	Overfits int
	Datasets int
}

// Table6Result holds the overfitting analysis.
type Table6Result struct {
	Rows []Table6Row
}

// Table6 analyzes fig3 records for accuracy regressions from 1 min to
// 5 min of search (paper §3.8).
func Table6(records []Record) Table6Result {
	type key struct{ system, dataset string }
	oneMin := make(map[key][]float64)
	fiveMin := make(map[key][]float64)
	for _, r := range records {
		if !r.Scored() {
			continue
		}
		k := key{r.System, r.Dataset}
		switch r.Budget {
		case time.Minute:
			oneMin[k] = append(oneMin[k], r.TestScore)
		case 5 * time.Minute:
			fiveMin[k] = append(fiveMin[k], r.TestScore)
		}
	}
	counts := make(map[string]*Table6Row)
	for k, one := range oneMin {
		five, ok := fiveMin[k]
		if !ok {
			continue
		}
		row := counts[k.system]
		if row == nil {
			row = &Table6Row{System: k.system}
			counts[k.system] = row
		}
		row.Datasets++
		if metrics.MeanStd(five).Mean < metrics.MeanStd(one).Mean {
			row.Overfits++
		}
	}
	var res Table6Result
	for _, row := range counts {
		res.Rows = append(res.Rows, *row)
	}
	sort.Slice(res.Rows, func(i, j int) bool { return res.Rows[i].System < res.Rows[j].System })
	return res
}

// ---------------------------------------------------------------------------
// Table 7: actual execution time for specified search times
// ---------------------------------------------------------------------------

// Table7Row is one system's actual execution times per budget.
type Table7Row struct {
	System string
	// Mean and Std hold seconds per budget, aligned with
	// Table7Result.Budgets; missing budgets are negative.
	Mean []float64
	Std  []float64
}

// Table7Result holds the budget-fidelity table.
type Table7Result struct {
	Budgets []time.Duration
	Rows    []Table7Row
}

// Table7 derives the budget-fidelity table from fig3 statistics.
func Table7(stats []CellStats, budgets []time.Duration) Table7Result {
	if len(budgets) == 0 {
		budgets = PaperBudgets()
	}
	res := Table7Result{Budgets: budgets}
	for _, system := range Systems(stats) {
		row := Table7Row{System: system}
		for _, b := range budgets {
			mean, std := -1.0, -1.0
			for _, s := range stats {
				if s.Key.System == system && s.Key.Budget == b {
					mean = s.ExecTime.Seconds()
					std = s.ExecTimeStd.Seconds()
				}
			}
			row.Mean = append(row.Mean, mean)
			row.Std = append(row.Std, std)
		}
		res.Rows = append(res.Rows, row)
	}
	// Sort rows by mean time at the largest budget, fastest first — the
	// paper's presentation order.
	last := len(budgets) - 1
	sort.SliceStable(res.Rows, func(i, j int) bool {
		a, b := res.Rows[i].Mean[last], res.Rows[j].Mean[last]
		if a < 0 {
			return false
		}
		if b < 0 {
			return true
		}
		return a < b
	})
	return res
}

// ---------------------------------------------------------------------------
// Tables 8 & 9: development-stage sweeps
// ---------------------------------------------------------------------------

// SweepRow is one configuration of a development-stage sweep.
type SweepRow struct {
	Value    int // top-k or BO iterations
	Score    metrics.Summary
	DevKWh   float64
	DevTimeH float64
}

// SweepResult holds a development-stage sweep (paper Tables 8 and 9).
type SweepResult struct {
	Label string
	Rows  []SweepRow
}

// Table8 sweeps the number of representative datasets (paper: 10/20/40)
// at fixed BO iterations.
func Table8(cfg Config, metaOpts metaopt.Options, topKs []int) SweepResult {
	if len(topKs) == 0 {
		topKs = []int{10, 20, 40}
	}
	return devSweep(cfg, "top-k datasets", topKs, func(v int, o metaopt.Options) metaopt.Options {
		o.TopK = v
		return o
	}, metaOpts)
}

// Table9 sweeps the BO iteration count (paper: 75/150/300/600) at fixed
// top-k.
func Table9(cfg Config, metaOpts metaopt.Options, iterations []int) SweepResult {
	if len(iterations) == 0 {
		iterations = []int{75, 150, 300, 600}
	}
	return devSweep(cfg, "BO iterations", iterations, func(v int, o metaopt.Options) metaopt.Options {
		o.Iterations = v
		return o
	}, metaOpts)
}

func devSweep(cfg Config, label string, values []int, apply func(int, metaopt.Options) metaopt.Options, base metaopt.Options) SweepResult {
	cfg = cfg.normalized()
	res := SweepResult{Label: label}
	for _, v := range values {
		opts := apply(v, base)
		opts.Budget = nonzeroBudget(opts.Budget, cfg.Budgets)
		dev, err := metaopt.Optimize(openml.MetaTrainSuite(), opts)
		if err != nil {
			continue
		}
		tuned := automl.NewTunedCAML(dev.Params)
		c := cfg
		c.Budgets = []time.Duration{opts.Budget}
		records := RunGrid([]automl.System{tuned}, c)
		rng := rand.New(rand.NewPCG(cfg.Seed, uint64(v)))
		stats := Aggregate(records, rng)
		row := SweepRow{Value: v, DevKWh: dev.DevKWh, DevTimeH: dev.DevTime.Hours()}
		if len(stats) > 0 {
			row.Score = stats[0].Score
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}
