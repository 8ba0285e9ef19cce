// Command greenrun executes one AutoML system on a user-supplied CSV
// dataset under the energy meter and reports predictive performance next
// to the consumed energy — the paper's measurement loop for your own data.
//
// Usage:
//
//	greenrun -data mydata.csv -target label -system caml -budget 30s
//	greenrun -data mydata.csv -system autogluon -cores 8 -timeline trace.csv
//
// The winning pipeline can be packaged for the serving daemon:
//
//	greenrun -data mydata.csv -system caml -save-artifact run/mydata.model
//	greenserve -model run/mydata.model -addr :8080
//
// With an evaluation repository, identical reruns replay for free and
// the zero-shot system meta-learns its portfolio from stored winners:
//
//	greenrun -data mydata.csv -system caml -repo store/      # cold: runs, stores
//	greenrun -data mydata.csv -system caml -repo store/      # warm: replays, no fit
//	greenrun -data mydata.csv -system zeroshot -repo store/  # portfolio from the store
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"time"

	greenautoml "repro"
	"repro/internal/artifact"
	"repro/internal/atomicio"
	"repro/internal/bench"
	"repro/internal/energy"
	"repro/internal/metrics"
	"repro/internal/ml"
	"repro/internal/repo"
	"repro/internal/tabular"
)

// options holds every flag value, so validation is a pure function the
// tests can drive table-style without a process boundary.
type options struct {
	dataPath     string
	target       string
	system       string
	budget       time.Duration
	cores        int
	gpu          bool
	seed         uint64
	timeline     string
	splitSeed    uint64
	saveArtifact string
	repoDir      string
	repoReadonly bool
}

// validate rejects malformed and contradictory flag combinations with a
// one-line error instead of failing partway into a metered run.
func (o *options) validate() error {
	if o.dataPath == "" {
		return fmt.Errorf("-data is required")
	}
	if _, err := buildSystem(o.system, o.budget); err != nil {
		return err
	}
	if o.budget <= 0 {
		return fmt.Errorf("-budget %v must be positive", o.budget)
	}
	if o.cores < 1 {
		return fmt.Errorf("-cores %d must be at least 1", o.cores)
	}
	if o.saveArtifact != "" && !systemExportsArtifact(o.system) {
		return fmt.Errorf("-save-artifact: %s does not expose a single deployable pipeline (no per-config search); use caml, caml-tuned, flaml, asklearn1, asklearn2 or tpot", o.system)
	}
	if o.repoReadonly && o.repoDir == "" {
		return fmt.Errorf("-repo-readonly only applies to -repo")
	}
	if o.repoDir != "" && o.saveArtifact != "" {
		return fmt.Errorf("-repo and -save-artifact are mutually exclusive: a repository hit performs no run to package")
	}
	if o.repoDir != "" && o.timeline != "" {
		return fmt.Errorf("-repo and -timeline are mutually exclusive: a repository hit records no consumption timeline")
	}
	return nil
}

// systemExportsArtifact reports whether a system populates
// Result.BestSpec — the deterministic recipe -save-artifact packages.
func systemExportsArtifact(name string) bool {
	switch strings.ToLower(name) {
	case "tabpfn", "autogluon", "autogluon-fast":
		return false
	}
	return true
}

func main() {
	var o options
	flag.StringVar(&o.dataPath, "data", "", "path to the CSV dataset (required)")
	flag.StringVar(&o.target, "target", "", "label column name (default: last column)")
	flag.StringVar(&o.system, "system", "caml", "system: caml | caml-tuned | autogluon | autogluon-fast | asklearn1 | asklearn2 | flaml | tabpfn | tpot | zeroshot")
	flag.DurationVar(&o.budget, "budget", 30*time.Second, "virtual search budget")
	flag.IntVar(&o.cores, "cores", 1, "allotted CPU cores on the modelled testbed")
	flag.BoolVar(&o.gpu, "gpu", false, "use the T4 GPU testbed with offload enabled")
	flag.Uint64Var(&o.seed, "seed", 42, "random seed")
	flag.StringVar(&o.timeline, "timeline", "", "write a CodeCarbon-style consumption timeline CSV to this path")
	flag.Uint64Var(&o.splitSeed, "split-seed", 7, "seed of the 66/34 train/test split")
	flag.StringVar(&o.saveArtifact, "save-artifact", "", "package the winning pipeline as a versioned serving artifact at this path (see greenserve)")
	flag.StringVar(&o.repoDir, "repo", "", "evaluation repository directory: identical runs replay from it without refitting; zeroshot meta-learns its portfolio from it")
	flag.BoolVar(&o.repoReadonly, "repo-readonly", false, "consult -repo without writing this run back")
	flag.Parse()

	if err := o.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "greenrun:", err)
		os.Exit(2)
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "greenrun:", err)
		os.Exit(1)
	}
}

// runSummary is everything the report prints, serialized as the
// repository record so a cache hit replays the exact run outcome.
type runSummary struct {
	Dataset         string
	Rows            int
	Features        int
	Classes         int
	System          string
	Machine         string
	Cores           int
	Budget          time.Duration
	ExecTime        time.Duration
	Evaluated       int
	Accuracy        float64
	TestRows        int
	ExecKWh         float64
	InferKWhPerInst float64
	CO2Kg           float64
	CostEUR         float64
}

func (s runSummary) print() {
	fmt.Printf("dataset:            %s (%d rows, %d features, %d classes)\n", s.Dataset, s.Rows, s.Features, s.Classes)
	fmt.Printf("system:             %s on %s (%d cores)\n", s.System, s.Machine, s.Cores)
	fmt.Printf("search:             budget %s, actual %s, %d pipelines evaluated\n",
		s.Budget, s.ExecTime.Round(10*time.Millisecond), s.Evaluated)
	fmt.Printf("balanced accuracy:  %.4f on %d held-out rows\n", s.Accuracy, s.TestRows)
	fmt.Printf("execution energy:   %.6f kWh\n", s.ExecKWh)
	fmt.Printf("inference energy:   %.4g kWh/instance\n", s.InferKWhPerInst)
	fmt.Printf("footprint:          %.6f kg CO2, %.6f EUR\n", s.CO2Kg, s.CostEUR)
}

// runIdentity derives the repository address of this run: the
// fingerprint hashes everything that determines the outcome — the CSV
// bytes themselves (not the path), every outcome-shaping flag, and the
// zeroshot portfolio when one was meta-learned — so a stale or foreign
// store can never replay the wrong result.
func runIdentity(o options, data []byte, sys greenautoml.System) (fingerprint, key string) {
	h := fnv.New64a()
	h.Write(data)
	fmt.Fprintf(h, "|%s|%s|%s|%d|%t|%d|%d|%s", o.target, strings.ToLower(o.system), o.budget, o.cores, o.gpu, o.seed, o.splitSeed, sys.Name())
	return fmt.Sprintf("greenrun-%016x", h.Sum64()),
		fmt.Sprintf("%s|%s|%s|seed=%d", strings.ToLower(o.system), o.dataPath, o.budget, o.seed)
}

func run(o options) error {
	sys, err := buildSystem(o.system, o.budget)
	if err != nil {
		return err
	}

	data, err := os.ReadFile(o.dataPath)
	if err != nil {
		return err
	}
	ds, err := tabular.ReadCSV(strings.NewReader(string(data)), tabular.CSVOptions{TargetColumn: o.target})
	if err != nil {
		return err
	}
	ds.Name = o.dataPath

	var rp *repo.Repository
	if o.repoDir != "" {
		rp, err = repo.Open(o.repoDir, repo.Options{ReadOnly: o.repoReadonly})
		if err != nil {
			return err
		}
		if strings.ToLower(o.system) == "zeroshot" {
			// The store's recorded winners beat the factory portfolio when
			// they exist; an empty store falls back to the default lineup.
			portfolio, _, perr := bench.PortfolioFromRepo(rp, 8)
			if perr != nil {
				return perr
			}
			sys = greenautoml.ZeroShotPortfolio(portfolio)
			fmt.Fprintf(os.Stderr, "greenrun: zeroshot portfolio: %d member(s) meta-learned from %s\n", len(portfolio), o.repoDir)
		}
	}

	train, test := greenautoml.Split(ds, o.splitSeed)

	machine := greenautoml.CPUTestbed()
	if o.gpu {
		machine = greenautoml.GPUTestbed()
	}

	var fingerprint, key string
	if rp != nil {
		fingerprint, key = runIdentity(o, data, sys)
		e, damaged, err := rp.Get(fingerprint, key)
		if err != nil {
			return err
		}
		if damaged {
			fmt.Fprintln(os.Stderr, "greenrun: repository: stored run is damaged; rerunning")
		}
		if e != nil {
			var s runSummary
			if err := json.Unmarshal(e.Record, &s); err != nil {
				return fmt.Errorf("repository record for this run is undecodable: %w", err)
			}
			s.print()
			fmt.Printf("repository:         hit — replayed from %s, no fit performed\n", o.repoDir)
			return nil
		}
	}

	meter := greenautoml.NewMeter(machine, o.cores)
	if o.gpu {
		meter.SetGPUMode(energy.GPUActive)
	}
	var trace *energy.Timeline
	if o.timeline != "" {
		trace = &energy.Timeline{}
		meter.SetTimeline(trace)
	}

	res, err := sys.Fit(train, greenautoml.Options{Budget: o.budget, Meter: meter, Seed: o.seed})
	if err != nil {
		return err
	}
	proba, inferCost, err := res.PredictProbaCost(test, meter) //greenlint:allow meteredcost PredictProbaCost charges the cost to the meter itself; the copy here is persisted into the repository entry
	if err != nil {
		return err
	}
	pred := metrics.ArgmaxRows(proba)
	acc := greenautoml.BalancedAccuracy(test.LabelsInto(nil), pred, test.Classes())
	report := meter.Tracker().Snapshot()

	summary := runSummary{
		Dataset:         ds.Name,
		Rows:            ds.Rows(),
		Features:        ds.Features(),
		Classes:         ds.Classes,
		System:          res.System,
		Machine:         machine.Name,
		Cores:           o.cores,
		Budget:          o.budget,
		ExecTime:        res.ExecTime,
		Evaluated:       res.Evaluated,
		Accuracy:        acc,
		TestRows:        test.Rows(),
		ExecKWh:         report.ExecutionKWh,
		InferKWhPerInst: report.InferenceKWh / float64(test.Rows()),
		CO2Kg:           report.CO2Kg(),
		CostEUR:         report.CostEUR(),
	}
	summary.print()

	if rp != nil && !rp.ReadOnly() {
		if err := storeRun(rp, fingerprint, key, summary, proba, test.Classes(), inferCost); err != nil {
			return err
		}
		fmt.Printf("repository:         stored in %s for warm replay\n", o.repoDir)
	}

	if o.saveArtifact != "" {
		if err := saveArtifact(o, res, train, meter); err != nil {
			return err
		}
	}

	if trace != nil {
		// Atomic replace: a kill mid-write must not leave a torn
		// timeline under the final name.
		if err := atomicio.WriteFile(o.timeline, trace.WriteCSV); err != nil {
			return err
		}
		fmt.Printf("timeline:           %d samples -> %s\n", trace.Len(), o.timeline)
	}
	return nil
}

// storeRun writes the completed run into the repository: the printed
// summary as the record, plus the held-out prediction probabilities and
// their cost, so downstream analyses (ensemble simulation) can consume
// greenrun cells like any grid cell.
func storeRun(rp *repo.Repository, fingerprint, key string, s runSummary, proba [][]float64, classes int, inferCost ml.Cost) error {
	rec, err := json.Marshal(s)
	if err != nil {
		return err
	}
	slab, err := tabular.FlattenRows(proba, classes)
	if err != nil {
		return err
	}
	return rp.Put(&repo.Entry{
		Fingerprint: fingerprint,
		Key:         key,
		System:      s.System,
		Dataset:     s.Dataset,
		Score:       s.Accuracy,
		Record:      rec,
		Rows:        len(proba),
		Classes:     classes,
		Proba:       slab,
		InferCost:   inferCost,
	})
}

// saveArtifact packages the winning pipeline as a deterministic,
// checksummed serving artifact. The refit the artifact performs for its
// prediction fingerprint is real work, so its cost is charged to the
// meter's execution stage before the file is written.
func saveArtifact(o options, res *greenautoml.Result, train tabular.View, meter *energy.Meter) error {
	if res.BestSpec == nil || res.BestConfig == nil {
		return fmt.Errorf("-save-artifact: %s returned no deployable pipeline recipe", o.system)
	}
	spec := artifact.Spec{
		Dataset:              o.dataPath,
		Models:               res.BestSpec.Models,
		DataPreprocessors:    res.BestSpec.DataPreprocessors,
		FeaturePreprocessors: res.BestSpec.FeaturePreprocessors,
		ComplexityCaps:       res.BestSpec.ComplexityCaps,
		Params:               res.BestConfig,
		Seed:                 o.seed,
		Train:                train.Materialize(),
	}
	m, cost, err := artifact.Build(spec)
	// Charge before the error check: a refit that failed partway still
	// consumed its reported cost.
	for _, w := range cost.Works(0) {
		meter.Run(energy.Execution, w)
	}
	if err != nil {
		return fmt.Errorf("-save-artifact: %w", err)
	}
	if err := artifact.Save(o.saveArtifact, m); err != nil {
		return fmt.Errorf("-save-artifact: %w", err)
	}
	fmt.Printf("artifact:           %s (fingerprint %016x) -> %s\n", res.System, m.Fingerprint, o.saveArtifact)
	return nil
}

// buildSystem maps the CLI name to a system constructor.
func buildSystem(name string, budget time.Duration) (greenautoml.System, error) {
	switch strings.ToLower(name) {
	case "caml":
		return greenautoml.CAML(), nil
	case "caml-tuned":
		return greenautoml.TunedCAML(budget), nil
	case "autogluon":
		return greenautoml.AutoGluon(), nil
	case "autogluon-fast":
		return greenautoml.AutoGluonFastInference(), nil
	case "asklearn1":
		return greenautoml.AutoSklearn1(), nil
	case "asklearn2":
		return greenautoml.AutoSklearn2(), nil
	case "flaml":
		return greenautoml.FLAML(), nil
	case "tabpfn":
		return greenautoml.TabPFN(), nil
	case "tpot":
		return greenautoml.TPOT(), nil
	case "zeroshot":
		return greenautoml.ZeroShot(), nil
	default:
		return nil, fmt.Errorf("unknown system %q", name)
	}
}
