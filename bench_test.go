package greenautoml

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (§3). Each benchmark replays a reduced slice of the
// corresponding experiment on the virtual testbed and reports the
// headline quantities as custom benchmark metrics; run with -v to see the
// rendered paper-style tables. The full-scale sweeps (all 39 datasets,
// more seeds) run through cmd/greenbench.
//
//	go test -bench=. -benchmem
//
// One benchmark iteration is one full (reduced) experiment; the virtual
// clock makes iterations deterministic, so b.N is typically 1.

import (
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/metaopt"
	"repro/internal/openml"
)

// benchDatasets is the reduced suite used by the root benchmarks: six
// datasets spanning the size/class spectrum of paper Table 2.
func benchDatasets(tb testing.TB) []openml.Spec {
	names := []string{"credit-g", "phoneme", "segment", "mfeat-factors", "adult", "higgs"}
	specs := make([]openml.Spec, 0, len(names))
	for _, n := range names {
		s, ok := openml.ByName(n)
		if !ok {
			tb.Fatalf("dataset %s missing", n)
		}
		specs = append(specs, s)
	}
	return specs
}

func benchConfig(tb testing.TB) bench.Config {
	return bench.Config{
		Datasets: benchDatasets(tb),
		Seeds:    1,
	}
}

func benchMetaOpts() metaopt.Options {
	return metaopt.Options{
		Budget:         10 * time.Second,
		TopK:           4,
		Iterations:     8,
		RunsPerDataset: 1,
		Scale:          openml.SmallScale(),
		Seed:           2,
	}
}

// fig3Cache shares the fig3 grid across the benchmarks that derive from
// it (fig4, fig7, table4, table6, table7), mirroring how the paper reuses
// its main measurement.
var fig3Cache *bench.Fig3Result

func fig3Result(tb testing.TB) *bench.Fig3Result {
	if fig3Cache == nil {
		r, err := bench.Fig3(benchConfig(tb), "")
		if err != nil {
			tb.Fatal(err)
		}
		fig3Cache = &r
	}
	return fig3Cache
}

// BenchmarkFig3 regenerates Figure 3: search time vs balanced accuracy vs
// execution/inference energy for every system and budget.
func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig3Cache = nil
		res := fig3Result(b)
		if i == b.N-1 {
			b.Log("\n" + res.Render())
			if ag, ok := bench.BestCell(res.Stats, "AutoGluon"); ok {
				b.ReportMetric(ag.Score.Mean, "autogluon-bacc")
				b.ReportMetric(ag.ExecKWh*1000, "autogluon-exec-Wh")
			}
			if pfn, ok := bench.BestCell(res.Stats, "TabPFN"); ok {
				b.ReportMetric(pfn.InferKWhPerInst*3.6e9, "tabpfn-infer-J/inst")
			}
		}
	}
}

// BenchmarkFig4 regenerates Figure 4: total energy against prediction
// volume and the TabPFN crossover point (paper: ~26k predictions at full
// scale).
func BenchmarkFig4(b *testing.B) {
	base := fig3Result(b)
	var crossover float64
	for i := 0; i < b.N; i++ {
		res := bench.Fig4(base.Stats, nil)
		crossover = res.TabPFNCrossover
		if i == b.N-1 {
			b.Log("\n" + res.Render())
		}
	}
	b.ReportMetric(crossover, "tabpfn-crossover-preds")
}

// BenchmarkFig5 regenerates Figure 5: accuracy and execution energy of
// CAML and AutoGluon across 1-8 cores.
func BenchmarkFig5(b *testing.B) {
	cfg := benchConfig(b)
	cfg.Budgets = []time.Duration{10 * time.Second, time.Minute}
	for i := 0; i < b.N; i++ {
		res := bench.Fig5(cfg, []int{1, 2, 4, 8})
		if i == b.N-1 {
			b.Log("\n" + res.Render())
			// Headline check values: CAML 8-core/1-core energy ratio
			// (paper: up to 2.7x).
			var caml1, caml8 float64
			for _, c := range res.Cells {
				if c.System == "CAML" && c.Budget == time.Minute {
					switch c.Cores {
					case 1:
						caml1 = c.ExecKWh
					case 8:
						caml8 = c.ExecKWh
					}
				}
			}
			if caml1 > 0 {
				b.ReportMetric(caml8/caml1, "caml-8core-energy-ratio")
			}
		}
	}
}

// BenchmarkFig6 regenerates Figure 6: inference-time-constrained CAML and
// inference-optimized AutoGluon.
func BenchmarkFig6(b *testing.B) {
	cfg := benchConfig(b)
	cfg.Budgets = []time.Duration{30 * time.Second, time.Minute}
	for i := 0; i < b.N; i++ {
		res := bench.Fig6(cfg, nil)
		if i == b.N-1 {
			b.Log("\n" + res.Render())
		}
	}
}

// BenchmarkFig7 regenerates Figure 7: the development stage. It runs a
// reduced tuning pass and compares CAML(tuned) against the fig3 baseline.
func BenchmarkFig7(b *testing.B) {
	cfg := benchConfig(b)
	base := fig3Result(b)
	for i := 0; i < b.N; i++ {
		res := bench.Fig7(cfg, benchMetaOpts(), base.Stats)
		if i == b.N-1 {
			b.Log("\n" + res.Render())
			if res.Dev != nil {
				b.ReportMetric(res.Dev.DevKWh, "dev-kWh")
			}
			if res.AmortizationRuns > 0 {
				b.ReportMetric(float64(res.AmortizationRuns), "amortization-runs")
			}
		}
	}
}

// BenchmarkFig8 exercises the guideline decision procedure.
func BenchmarkFig8(b *testing.B) {
	tasks := []Task{
		{WeeklyClusterAccess: true, PlannedExecutions: 2000, SearchBudget: 5 * time.Minute},
		{SearchBudget: 5 * time.Second, Classes: 4, GPUAvailable: true},
		{SearchBudget: time.Minute, Priority: PriorityFastInference},
		{SearchBudget: time.Minute, Priority: PriorityAccuracy},
		{SearchBudget: time.Minute, Priority: PriorityPareto},
	}
	for i := 0; i < b.N; i++ {
		for _, task := range tasks {
			if rec := Recommend(task); rec.SystemName == "" {
				b.Fatal("empty recommendation")
			}
		}
	}
}

// BenchmarkTable3 regenerates Table 3: GPU vs CPU-only quotients for
// AutoGluon and TabPFN on the T4 testbed.
func BenchmarkTable3(b *testing.B) {
	cfg := benchConfig(b)
	cfg.Datasets = cfg.Datasets[:3]
	for i := 0; i < b.N; i++ {
		res := bench.Table3(cfg)
		if i == b.N-1 {
			b.Log("\n" + res.Render())
			for _, row := range res.Rows {
				if row.System == "TabPFN" {
					b.ReportMetric(row.InferTime, "tabpfn-gpu-infer-time-ratio")
					b.ReportMetric(row.InferEnergy, "tabpfn-gpu-infer-energy-ratio")
				}
			}
		}
	}
}

// BenchmarkTable4 regenerates Table 4: the cost of one trillion
// predictions per system.
func BenchmarkTable4(b *testing.B) {
	base := fig3Result(b)
	for i := 0; i < b.N; i++ {
		res := bench.Table4(base.Stats)
		if i == b.N-1 {
			b.Log("\n" + res.Render())
			if len(res.Rows) > 0 {
				b.ReportMetric(res.Rows[0].EnergyKWh, "worst-system-kWh")
			}
		}
	}
}

// BenchmarkTable5 regenerates Table 5: tuned AutoML system parameters per
// search budget (reduced tuning pass).
func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opts := benchMetaOpts()
		opts.Budget = 30 * time.Second
		dev, err := metaopt.Optimize(openml.MetaTrainSuite(), opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.Log("\n30s tuned parameters: " + bench.RenderCAMLParams(dev.Params))
			b.ReportMetric(dev.DevKWh, "dev-kWh")
		}
	}
}

// BenchmarkTable6 regenerates Table 6: overfitting counts (5min worse
// than 1min).
func BenchmarkTable6(b *testing.B) {
	base := fig3Result(b)
	for i := 0; i < b.N; i++ {
		res := bench.Table6(base.Records)
		if i == b.N-1 {
			b.Log("\n" + res.Render())
		}
	}
}

// BenchmarkTable7 regenerates Table 7: actual execution time against the
// specified search time.
func BenchmarkTable7(b *testing.B) {
	base := fig3Result(b)
	for i := 0; i < b.N; i++ {
		res := bench.Table7(base.Stats, nil)
		if i == b.N-1 {
			b.Log("\n" + res.Render())
		}
	}
}

// BenchmarkTable8 regenerates Table 8: the representative-dataset sweep of
// the development-stage optimizer.
func BenchmarkTable8(b *testing.B) {
	cfg := benchConfig(b)
	cfg.Datasets = cfg.Datasets[:2]
	for i := 0; i < b.N; i++ {
		res := bench.Table8(cfg, benchMetaOpts(), []int{2, 4})
		if i == b.N-1 {
			b.Log("\n" + res.Render())
		}
	}
}

// BenchmarkTable9 regenerates Table 9: the BO-iteration sweep of the
// development-stage optimizer.
func BenchmarkTable9(b *testing.B) {
	cfg := benchConfig(b)
	cfg.Datasets = cfg.Datasets[:2]
	for i := 0; i < b.N; i++ {
		res := bench.Table9(cfg, benchMetaOpts(), []int{4, 8})
		if i == b.N-1 {
			b.Log("\n" + res.Render())
		}
	}
}
