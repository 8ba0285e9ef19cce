// Command greenbench regenerates the tables and figures of "How Green is
// AutoML for Tabular Data?" (EDBT 2025) on the virtual testbed.
//
// Usage:
//
//	greenbench -experiment fig3 [-seeds 3] [-datasets 39] [-quick]
//
// -cpuprofile and -memprofile write pprof CPU and allocation profiles of
// the run; they change no output.
//
// Experiments: fig3 fig4 fig5 fig6 fig7 table3 table4 table5 table6
// table7 table8 table9 winners all. Figure 8 is a decision procedure; use the
// greenrecommend command.
//
// Sharded execution splits the fig3 grid across processes:
//
//	greenbench -shard 0/4 -journal s0.jsonl      # run one content-addressed slice
//	greenbench -merge 's0.jsonl,s1.jsonl,...'    # fuse shard journals into the exports
//	greenbench -coordinator -shards 4 -shard-dir run/   # spawn, babysit, restart, merge
//
// Merged exports are byte-identical to a single-process run of the same
// grid, regardless of shard count, completion order, kills, or restarts.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/automl"
	"repro/internal/bench"
	"repro/internal/faults"
	"repro/internal/metaopt"
	"repro/internal/openml"
	"repro/internal/repo"
)

// options holds every flag value, so validation is a pure function the
// tests can drive table-style without a process boundary.
type options struct {
	experiment  string
	seeds       int
	datasets    int
	names       string
	quick       bool
	metaIters   int
	metaTopK    int
	csvPath     string
	jsonPath    string
	svgDir      string
	journal     string
	faultRate   float64
	faultSeed   uint64
	memoryGB    float64
	retries     int
	workers     int
	parallelism int
	hangRate    float64
	reportDir   string

	shard            string
	merge            string
	mergeAllowDamage bool
	coordinator      bool
	shards           int
	shardDir         string
	maxRestarts      int
	stallProbes      int
	stallInterval    time.Duration

	repoDir          string
	repoReadonly     bool
	repoAllowDamage  bool
	simulateEnsemble bool

	cpuProfile string
	memProfile string

	// shardSpec is the parsed -shard value, filled by validate.
	shardSpec bench.ShardSpec
}

// validate rejects malformed and contradictory flag combinations with a
// one-line error instead of silently misbehaving partway into a sweep.
func (o *options) validate() error {
	if o.faultRate < 0 || o.faultRate > 1 {
		return fmt.Errorf("-fault-rate %v must be in [0, 1]", o.faultRate)
	}
	if o.hangRate < 0 || o.hangRate > 1 {
		return fmt.Errorf("-hang-rate %v must be in [0, 1]", o.hangRate)
	}
	if o.retries < 0 {
		return fmt.Errorf("-retries %d must not be negative (0 means the default policy)", o.retries)
	}
	if o.workers < 0 {
		return fmt.Errorf("-workers %d must not be negative (0 means NumCPU)", o.workers)
	}
	if o.parallelism < 0 {
		return fmt.Errorf("-parallelism %d must not be negative (0 means automatic)", o.parallelism)
	}
	if o.seeds < 1 {
		return fmt.Errorf("-seeds %d must be at least 1", o.seeds)
	}
	if o.datasets < 0 {
		return fmt.Errorf("-datasets %d must not be negative (0 means the full suite)", o.datasets)
	}
	if o.memoryGB < 0 {
		return fmt.Errorf("-memory-gb %v must not be negative (0 means off)", o.memoryGB)
	}
	if o.experiment != "all" {
		known := experimentIDs("all")
		for _, id := range strings.Split(o.experiment, ",") {
			if !slices.Contains(known, strings.TrimSpace(id)) {
				return fmt.Errorf("unknown experiment %q in -experiment %q (known: all, %s)", id, o.experiment, strings.Join(known, ", "))
			}
		}
	}

	modes := 0
	for _, on := range []bool{o.shard != "", o.merge != "", o.coordinator, o.simulateEnsemble} {
		if on {
			modes++
		}
	}
	if modes > 1 {
		return fmt.Errorf("-shard, -merge, -coordinator and -simulate-ensemble are mutually exclusive")
	}
	if o.repoReadonly && o.repoDir == "" {
		return fmt.Errorf("-repo-readonly only applies to -repo")
	}
	if o.repoAllowDamage && o.repoDir == "" {
		return fmt.Errorf("-repo-allow-damage only applies to -repo")
	}
	if o.simulateEnsemble && o.repoDir == "" {
		return fmt.Errorf("-simulate-ensemble needs -repo: it replays predictions the store holds")
	}
	if o.shard != "" {
		spec, err := bench.ParseShardSpec(o.shard)
		if err != nil {
			return err
		}
		o.shardSpec = spec
		if o.journal == "" {
			return fmt.Errorf("-shard requires -journal: a shard's only output is its journal")
		}
	}
	if o.coordinator {
		if o.shards < 1 {
			return fmt.Errorf("-shards %d must be at least 1", o.shards)
		}
		if o.shardDir == "" {
			return fmt.Errorf("-coordinator requires -shard-dir for the shard journals")
		}
		if o.maxRestarts < 0 {
			return fmt.Errorf("-max-restarts %d must not be negative", o.maxRestarts)
		}
		if o.stallProbes < 0 {
			return fmt.Errorf("-shard-stall-probes %d must not be negative (0 means off)", o.stallProbes)
		}
		if o.stallProbes > 0 && o.stallInterval <= 0 {
			return fmt.Errorf("-shard-stall-interval %v must be positive when -shard-stall-probes is set", o.stallInterval)
		}
	}
	if o.mergeAllowDamage && o.merge == "" {
		return fmt.Errorf("-merge-allow-damage only applies to -merge")
	}
	if o.shard != "" || o.coordinator {
		if o.experiment != "fig3" {
			return fmt.Errorf("sharded execution covers the fig3 grid; -experiment %s cannot be sharded", o.experiment)
		}
	}
	if o.merge != "" {
		for _, id := range strings.Split(o.experiment, ",") {
			if !fig3Derived(strings.TrimSpace(id)) {
				return fmt.Errorf("-merge can only render experiments derived from the fig3 grid (fig3, fig4, table4, table6, table7, winners, significance); %s reruns a grid", id)
			}
		}
	}
	return nil
}

// fig3Derived reports whether an experiment is a pure function of the
// fig3 grid's records — renderable offline from merged journals.
func fig3Derived(id string) bool {
	switch id {
	case "fig3", "fig4", "table4", "table6", "table7", "winners", "significance":
		return true
	}
	return false
}

// newFlagSet registers every greenbench flag on a fresh set bound to o,
// so main and the tests parse with one definition.
func newFlagSet(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("greenbench", flag.ExitOnError)
	fs.StringVar(&o.experiment, "experiment", "fig3", "experiment id (fig3..fig7, table3..table9, all)")
	fs.IntVar(&o.seeds, "seeds", 3, "repeated runs per cell (paper uses 10)")
	fs.IntVar(&o.datasets, "datasets", 0, "restrict to the first N suite datasets (0 = all 39)")
	fs.StringVar(&o.names, "names", "", "comma-separated dataset names to run (overrides -datasets)")
	fs.BoolVar(&o.quick, "quick", false, "tiny configuration for a fast smoke run")
	fs.IntVar(&o.metaIters, "meta-iterations", 40, "BO iterations for development-stage experiments (paper uses 300)")
	fs.IntVar(&o.metaTopK, "meta-topk", 8, "representative datasets for development-stage experiments (paper uses 20)")
	fs.StringVar(&o.csvPath, "csv", "", "export the fig3 grid's raw records as CSV to this path")
	fs.StringVar(&o.jsonPath, "json", "", "export the fig3 grid's raw records as JSON to this path")
	fs.StringVar(&o.svgDir, "svg-dir", "", "write SVG charts of figures 3-5 into this directory")
	fs.StringVar(&o.journal, "journal", "", "JSONL checkpoint path for the fig3 grid; an interrupted run resumes from it")
	fs.Float64Var(&o.faultRate, "fault-rate", 0, "per-attempt fault-injection probability in [0,1] (0 = off)")
	fs.Uint64Var(&o.faultSeed, "fault-seed", 0, "fault-injection stream seed (decisions are order-independent)")
	fs.Float64Var(&o.memoryGB, "memory-gb", 0, "machine memory model in GB for simulated OOM kills (0 = off)")
	fs.IntVar(&o.retries, "retries", 0, "max Fit attempts per cell (0 = 1, or 3 with faults enabled); retry energy is charged")
	fs.IntVar(&o.workers, "workers", 0, "grid cells run concurrently (0 = NumCPU); output is identical at any worker count")
	fs.IntVar(&o.parallelism, "parallelism", 0, "within-cell kernel worker budget (0 = auto: idle cores split across uncached cells); output is bit-identical at any level")
	fs.Float64Var(&o.hangRate, "hang-rate", 0, "per-attempt probability in [0,1] that a Fit hangs without progress and the cell degrades to a stall (0 = off)")
	fs.StringVar(&o.reportDir, "report-dir", "", "also write each experiment's rendered report into this directory (atomic replace)")
	fs.StringVar(&o.shard, "shard", "", "run one content-addressed grid slice i/N (e.g. 0/4); requires -journal")
	fs.StringVar(&o.merge, "merge", "", "comma-separated shard journals (globs allowed) to fuse into the aggregate exports instead of running")
	fs.BoolVar(&o.mergeAllowDamage, "merge-allow-damage", false, "let -merge exit zero even when shard journals had CRC-damaged lines")
	fs.BoolVar(&o.coordinator, "coordinator", false, "spawn -shards subprocesses, restart crashed shards, and merge their journals")
	fs.IntVar(&o.shards, "shards", 0, "shard count for -coordinator")
	fs.StringVar(&o.shardDir, "shard-dir", "", "directory for the coordinator's shard journals")
	fs.IntVar(&o.maxRestarts, "max-restarts", 2, "restarts each shard gets after its first launch before it degrades to a shard failure")
	fs.IntVar(&o.stallProbes, "shard-stall-probes", 0, "probe intervals without shard journal growth before the coordinator SIGKILLs and restarts the shard (0 = off)")
	fs.DurationVar(&o.stallInterval, "shard-stall-interval", 2*time.Second, "real-time probe period for -shard-stall-probes")
	fs.StringVar(&o.repoDir, "repo", "", "content-addressed evaluation repository directory; stored cells replay without refitting, executed cells are written back")
	fs.BoolVar(&o.repoReadonly, "repo-readonly", false, "consult -repo without writing executed cells back")
	fs.BoolVar(&o.repoAllowDamage, "repo-allow-damage", false, "treat damaged -repo cells as misses (the cells rerun) instead of refusing the store")
	fs.BoolVar(&o.simulateEnsemble, "simulate-ensemble", false, "simulate greedy ensemble selection over the predictions stored in -repo — no fits, lookup+blend energy only")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof format)")
	fs.StringVar(&o.memProfile, "memprofile", "", "write an allocation profile to this file after the run (go tool pprof format)")
	return fs
}

func main() {
	var o options
	// The set exits on a bad flag, so Parse's error is always nil.
	_ = newFlagSet(&o).Parse(os.Args[1:])

	if err := o.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "greenbench:", err)
		os.Exit(2)
	}

	cfg, err := gridConfig(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "greenbench:", err)
		os.Exit(2)
	}
	if err := profiled(o.cpuProfile, o.memProfile, func() error { return runMode(o, cfg) }); err != nil {
		fmt.Fprintln(os.Stderr, "greenbench:", err)
		os.Exit(1)
	}
}

// profiled runs fn under the CPU profiler when cpuPath is set and writes
// the allocation profile to memPath after it returns; empty paths turn
// either off. Profiles cover this process only (coordinator shards do
// not inherit the flags). fn's error wins over a profile-writing error.
func profiled(cpuPath, memPath string, fn func() error) error {
	var cpu *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		cpu = f
	}
	err := fn()
	if cpu != nil {
		pprof.StopCPUProfile()
		if cerr := cpu.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("-cpuprofile: %w", cerr)
		}
	}
	if memPath != "" {
		if perr := writeAllocProfile(memPath); err == nil && perr != nil {
			err = fmt.Errorf("-memprofile: %w", perr)
		}
	}
	return err
}

// writeAllocProfile writes the allocs profile (every sampled allocation
// since the process started, plus the live heap as of a fresh GC).
func writeAllocProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runMode runs the mode the validated flags select: a shard, a merge, a
// coordinator, an ensemble simulation, or the listed experiments.
func runMode(o options, cfg bench.Config) error {
	if o.repoDir != "" {
		rp, err := repo.Open(o.repoDir, repo.Options{ReadOnly: o.repoReadonly, AllowDamage: o.repoAllowDamage})
		if err != nil {
			return err
		}
		cfg.Repo = rp
	}
	meta := metaopt.Options{
		Iterations:     o.metaIters,
		TopK:           o.metaTopK,
		RunsPerDataset: 1,
		Budget:         10 * time.Second,
	}
	if o.quick {
		meta.Iterations = 8
		meta.TopK = 4
	}

	switch {
	case o.shard != "":
		return runShardMode(o, cfg)
	case o.merge != "":
		return runMergeMode(o, cfg, meta)
	case o.coordinator:
		return runCoordinatorMode(o, cfg, meta)
	case o.simulateEnsemble:
		return runSimulateMode(cfg)
	default:
		return run(experimentIDs(o.experiment), cfg, meta, o.csvPath, o.jsonPath, o.svgDir, o.reportDir, o.journal, nil)
	}
}

func experimentIDs(experiment string) []string {
	if experiment == "all" {
		return []string{"fig3", "fig4", "fig5", "fig6", "fig7", "table3", "table4", "table5", "table6", "table7", "table8", "table9", "winners", "significance"}
	}
	return strings.Split(experiment, ",")
}

// gridConfig assembles the bench configuration the flags describe.
func gridConfig(o options) (bench.Config, error) {
	cfg := bench.Config{
		Seeds: o.seeds,
		Faults: faults.Config{
			Rate:        o.faultRate,
			HangRate:    o.hangRate,
			Seed:        o.faultSeed,
			MemoryBytes: int64(o.memoryGB * 1e9),
		},
		Retry:       bench.RetryPolicy{MaxAttempts: o.retries},
		Workers:     o.workers,
		Parallelism: o.parallelism,
		Shard:       o.shardSpec,
	}
	datasets := o.datasets
	if o.quick {
		cfg.Seeds = 1
		cfg.Budgets = []time.Duration{10 * time.Second, time.Minute}
		if datasets == 0 {
			datasets = 6
		}
	}
	if o.names != "" {
		for _, name := range strings.Split(o.names, ",") {
			spec, ok := openml.ByName(strings.TrimSpace(name))
			if !ok {
				return bench.Config{}, fmt.Errorf("unknown dataset %q", name)
			}
			cfg.Datasets = append(cfg.Datasets, spec)
		}
	} else if datasets > 0 {
		suite := openml.Suite()
		if datasets < len(suite) {
			suite = suite[:datasets]
		}
		cfg.Datasets = suite
	}
	return cfg, nil
}

// runShardMode executes one content-addressed slice of the fig3 grid
// against its own journal. The shard's only durable output is the
// journal; the summary goes to stderr so a coordinator piping shard
// output never mistakes it for a report.
func runShardMode(o options, cfg bench.Config) error {
	run, err := bench.RunShard(bench.DefaultSystems(), cfg, o.journal)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "greenbench: shard %s: %d cell(s) checkpointed to %s\n", o.shardSpec, len(run.Records), o.journal)
	if run.Damaged > 0 {
		fmt.Fprintf(os.Stderr, "greenbench: shard %s: %d damaged journal line(s) were skipped and their cells rerun\n", o.shardSpec, run.Damaged)
	}
	if run.Repo.Consulted() {
		fmt.Fprintf(os.Stderr, "greenbench: shard %s: %s\n", o.shardSpec, run.Repo.Summary())
	}
	return nil
}

// runSimulateMode replays stored predictions as simulated ensembles: a
// pure repository analysis that fits nothing and charges only the
// lookup-and-blend compute it actually performs.
func runSimulateMode(cfg bench.Config) error {
	res, err := bench.SimulateEnsembles(bench.DefaultSystems(), cfg, cfg.Repo)
	if err != nil {
		return err
	}
	fmt.Println(res.Render())
	if res.Damaged > 0 {
		fmt.Fprintf(os.Stderr, "greenbench: simulate-ensemble: %d damaged repository entr(ies) were skipped\n", res.Damaged)
	}
	return nil
}

// mergePaths expands the -merge argument: comma-separated paths, each
// possibly a glob.
func mergePaths(arg string) ([]string, error) {
	var paths []string
	for _, part := range strings.Split(arg, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		matches, err := filepath.Glob(part)
		if err != nil {
			return nil, fmt.Errorf("bad -merge pattern %q: %w", part, err)
		}
		if len(matches) == 0 {
			return nil, fmt.Errorf("-merge pattern %q matches no journals", part)
		}
		paths = append(paths, matches...)
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("-merge needs at least one journal path")
	}
	return paths, nil
}

// mergeJournals fuses shard journals into the canonical fig3 record
// sequence and reports per-journal coverage and damage. With a
// repository configured, journal holes are fused from the store and the
// repository's hit and damage counts are surfaced alongside the journal
// damage counters.
func mergeJournals(paths []string, cfg bench.Config) (*bench.MergeResult, error) {
	systems := bench.DefaultSystems()
	fingerprint := bench.Fingerprint(systems, cfg)
	refs := bench.EnumerateCellRefs(systems, cfg)
	res, err := bench.MergeJournalsRepo(paths, fingerprint, refs, cfg.Repo)
	if err != nil {
		return nil, err
	}
	for _, jr := range res.PerJournal {
		shard := jr.Shard
		if shard == "" {
			shard = "whole-grid"
		}
		fmt.Fprintf(os.Stderr, "greenbench: merge: %s (shard %s): %d cell(s), %d damaged line(s)\n", jr.Path, shard, jr.Cells, jr.Damaged)
	}
	if cfg.Repo != nil {
		fmt.Fprintf(os.Stderr, "greenbench: merge: repository: %d cell(s) fused from the store, %d damaged\n", res.RepoHits, res.RepoDamaged)
	}
	return res, nil
}

// runMergeMode fuses shard journals and renders the fig3-derived
// experiments and exports from them, without executing any grid cell.
// Journal damage makes the merge exit non-zero — the merged artifact is
// complete only if every damaged cell was re-covered, and the operator
// should know their storage is rotting — unless -merge-allow-damage.
func runMergeMode(o options, cfg bench.Config, meta metaopt.Options) error {
	paths, err := mergePaths(o.merge)
	if err != nil {
		return err
	}
	res, err := mergeJournals(paths, cfg)
	if err != nil {
		return err
	}
	if len(res.Missing) > 0 {
		return fmt.Errorf("merge covers %d of %d grid cells — %d missing (first: %s); run the absent shards or merge their journals",
			len(res.Records)-len(res.Missing), len(res.Records), len(res.Missing), res.Missing[0].ID())
	}
	if res.Damaged > 0 && !o.mergeAllowDamage {
		return fmt.Errorf("%d damaged journal line(s) across shard journals; rerun the affected shards or pass -merge-allow-damage", res.Damaged)
	}
	fig3 := bench.Fig3FromRecords(cfg, res.Records)
	return run(experimentIDs(o.experiment), cfg, meta, o.csvPath, o.jsonPath, o.svgDir, o.reportDir, "", &fig3)
}

// runCoordinatorMode spawns one subprocess per shard (this binary,
// re-invoked with -shard i/N), restarts shards that crash or stall,
// then merges the shard journals into the standard exports. A shard
// that exhausts its restart budget is reported — its cells appear as
// shard-failure records in the failure taxonomy — rather than aborting
// the sweep.
func runCoordinatorMode(o options, cfg bench.Config, meta metaopt.Options) error {
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("resolving own binary for shard subprocesses: %w", err)
	}
	base := forwardedArgs(o)
	ccfg := bench.CoordinatorConfig{
		Shards:      o.shards,
		MaxRestarts: o.maxRestarts,
		Deadline:    bench.WatchdogPolicy{Probes: o.stallProbes, Interval: o.stallInterval},
		Dir:         o.shardDir,
		Command: func(shard bench.ShardSpec, journal string) *exec.Cmd {
			cmd := exec.Command(exe, append(base, "-shard", shard.String(), "-journal", journal)...)
			cmd.Stdout = os.Stderr
			cmd.Stderr = os.Stderr
			return cmd
		},
	}
	res, err := bench.RunCoordinator(ccfg)
	if err != nil {
		return err
	}
	for _, st := range res.Shards {
		state := "completed"
		if !st.Completed {
			state = "FAILED: " + st.Err
		}
		fmt.Fprintf(os.Stderr, "greenbench: coordinator: shard %s: %d launch(es), %d deadline kill(s), %s\n",
			st.Shard, st.Launches, st.DeadlineKills, state)
	}

	merged, err := mergeJournals(res.JournalPaths, cfg)
	if err != nil {
		return err
	}
	fingerprint := bench.Fingerprint(bench.DefaultSystems(), cfg)
	if err := merged.VerifyMissingOwnedBy(fingerprint, res.Failed()); err != nil {
		return err
	}
	if n := len(merged.Missing); n > 0 {
		fmt.Fprintf(os.Stderr, "greenbench: coordinator: %d cell(s) lost to dead shards are reported as %s records\n", n, faults.ShardFailure)
	}
	if merged.Damaged > 0 {
		// Damaged lines in a *completed* shard journal were already healed
		// by that shard's resume (the cells reran and re-checkpointed), and
		// completeness was just verified — so surface, don't abort.
		fmt.Fprintf(os.Stderr, "greenbench: coordinator: %d damaged journal line(s) were healed by shard resume\n", merged.Damaged)
	}
	fig3 := bench.Fig3FromRecords(cfg, merged.Records)
	return run(experimentIDs(o.experiment), cfg, meta, o.csvPath, o.jsonPath, o.svgDir, o.reportDir, "", &fig3)
}

// forwardedArgs rebuilds the grid-defining flags for a shard
// subprocess. Only flags that change which records the grid produces
// (plus throughput knobs) are forwarded; export and mode flags are not.
func forwardedArgs(o options) []string {
	args := []string{
		"-seeds", strconv.Itoa(o.seeds),
		"-fault-rate", strconv.FormatFloat(o.faultRate, 'g', -1, 64),
		"-fault-seed", strconv.FormatUint(o.faultSeed, 10),
		"-memory-gb", strconv.FormatFloat(o.memoryGB, 'g', -1, 64),
		"-retries", strconv.Itoa(o.retries),
		"-workers", strconv.Itoa(o.workers),
		"-parallelism", strconv.Itoa(o.parallelism),
		"-hang-rate", strconv.FormatFloat(o.hangRate, 'g', -1, 64),
	}
	if o.datasets > 0 {
		args = append(args, "-datasets", strconv.Itoa(o.datasets))
	}
	if o.names != "" {
		args = append(args, "-names", o.names)
	}
	if o.quick {
		args = append(args, "-quick")
	}
	if o.repoDir != "" {
		args = append(args, "-repo", o.repoDir)
		if o.repoReadonly {
			args = append(args, "-repo-readonly")
		}
		if o.repoAllowDamage {
			args = append(args, "-repo-allow-damage")
		}
	}
	return args
}

// run renders the requested experiments. With a non-nil fig3, the grid
// is never executed: the preloaded result (from a merge) feeds every
// fig3-derived experiment, which keeps offline rendering byte-identical
// to a live run.
func run(ids []string, cfg bench.Config, meta metaopt.Options, csvPath, jsonPath, svgDir, reportDir, journal string, fig3 *bench.Fig3Result) error {
	// fig3's grid feeds several tables; compute it lazily, once.
	var fig3Err error
	needFig3 := func() *bench.Fig3Result {
		if fig3 == nil && fig3Err == nil {
			fmt.Fprintln(os.Stderr, "greenbench: running the fig3 grid (feeds fig4, fig7, table4, table6, table7)...")
			r, err := bench.Fig3(cfg, journal)
			if err != nil {
				fig3Err = err
				fig3 = &bench.Fig3Result{}
				return fig3
			}
			fig3 = &r
			if fig3.JournalDamaged > 0 {
				fmt.Fprintf(os.Stderr, "greenbench: journal: %d damaged checkpoint line(s) were skipped and their cells rerun\n", fig3.JournalDamaged)
			}
			if fig3.Repo.Consulted() {
				fmt.Fprintf(os.Stderr, "greenbench: %s\n", fig3.Repo.Summary())
			}
		}
		return fig3
	}

	for _, id := range ids {
		//greenlint:allow wallclock operator-facing progress timing on stderr, not a measured quantity
		start := time.Now()
		var out string
		switch strings.TrimSpace(id) {
		case "fig3":
			out = needFig3().Render()
			if svgDir != "" {
				stats := needFig3().Stats
				if err := writeSVG(svgDir, "fig3-execution.svg", func(w io.Writer) error { return bench.WriteFig3SVG(w, stats, false) }); err != nil {
					return err
				}
				if err := writeSVG(svgDir, "fig3-inference.svg", func(w io.Writer) error { return bench.WriteFig3SVG(w, stats, true) }); err != nil {
					return err
				}
			}
		case "fig4":
			fig4 := bench.Fig4(needFig3().Stats, nil)
			out = fig4.Render()
			if svgDir != "" {
				if err := writeSVG(svgDir, "fig4.svg", func(w io.Writer) error { return bench.WriteFig4SVG(w, fig4) }); err != nil {
					return err
				}
			}
		case "fig5":
			fig5 := bench.Fig5(cfg, nil)
			out = fig5.Render()
			if svgDir != "" {
				if err := writeSVG(svgDir, "fig5.svg", func(w io.Writer) error { return bench.WriteFig5SVG(w, fig5) }); err != nil {
					return err
				}
			}
		case "fig6":
			out = bench.Fig6(cfg, nil).Render()
		case "fig7":
			out = bench.Fig7(cfg, meta, needFig3().Stats).Render()
		case "table3":
			out = bench.Table3(cfg).Render()
		case "table4":
			out = bench.Table4(needFig3().Stats).Render()
		case "table5":
			out = renderTable5(meta)
		case "table6":
			out = bench.Table6(needFig3().Records).Render()
		case "table7":
			out = bench.Table7(needFig3().Stats, cfg.Budgets).Render()
		case "table8":
			out = bench.Table8(cfg, meta, nil).Render()
		case "table9":
			out = bench.Table9(cfg, meta, nil).Render()
		case "winners":
			out = bench.Winners(needFig3().Records).Render()
		case "significance":
			out = bench.Significance(needFig3().Records).Render()
		default:
			return fmt.Errorf("unknown experiment %q", id)
		}
		if fig3Err != nil {
			return fig3Err
		}
		fmt.Println(out)
		if reportDir != "" {
			if err := os.MkdirAll(reportDir, 0o755); err != nil {
				return err
			}
			path := reportDir + "/" + strings.TrimSpace(id) + ".txt"
			if err := bench.WriteReportFile(path, out); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "greenbench: wrote %s\n", path)
		}
		//greenlint:allow wallclock operator-facing progress timing on stderr, not a measured quantity
		fmt.Fprintf(os.Stderr, "greenbench: %s done in %s\n", id, time.Since(start).Round(time.Millisecond))
	}
	if fig3 != nil && fig3Err == nil {
		if err := exportRecords(fig3.Records, csvPath, jsonPath); err != nil {
			return err
		}
	}
	return nil
}

// writeSVG writes one chart into the SVG output directory. The write is
// atomic (temp + fsync + rename via internal/atomicio), and any
// close/sync failure propagates so the command exits non-zero instead
// of shipping a torn chart.
func writeSVG(dir, name string, render func(io.Writer) error) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := bench.WriteSVGFile(dir+"/"+name, render); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "greenbench: wrote %s/%s\n", dir, name)
	return nil
}

// exportRecords writes the raw grid records to the requested paths.
// Exports are atomic: a kill mid-export (or a failed close) leaves any
// previous artifact intact and surfaces the error as a non-zero exit.
func exportRecords(records []bench.Record, csvPath, jsonPath string) error {
	if csvPath != "" {
		if err := bench.WriteCSVFile(csvPath, records); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "greenbench: wrote %d records to %s\n", len(records), csvPath)
	}
	if jsonPath != "" {
		if err := bench.WriteJSONFile(jsonPath, records); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "greenbench: wrote %d records to %s\n", len(records), jsonPath)
	}
	return nil
}

// renderTable5 reports tuned AutoML system parameters per search budget.
// It runs the development-stage optimizer for each budget (paper Table 5);
// with very few iterations the factory presets may win, which the output
// marks.
func renderTable5(meta metaopt.Options) string {
	var sb strings.Builder
	sb.WriteString("Table 5 — tuned AutoML system parameters per search budget\n")
	for _, budget := range []time.Duration{30 * time.Second, time.Minute, 5 * time.Minute} {
		opts := meta
		opts.Budget = budget
		dev, err := metaopt.Optimize(openml.MetaTrainSuite(), opts)
		if err != nil {
			fmt.Fprintf(&sb, "%s: optimization failed: %v\n", bench.FormatBudget(budget), err)
			continue
		}
		params := dev.Params
		note := ""
		if dev.Objective <= 0 {
			// The search found nothing better than the defaults at this
			// (reduced) iteration count; report the published presets.
			params = automl.DefaultTunedParams(budget)
			note = " (factory preset; tuning found no improvement at this iteration count)"
		}
		fmt.Fprintf(&sb, "%s:%s\n  %s\n  development: %.4f kWh, %d trials, %d pruned\n",
			bench.FormatBudget(budget), note, bench.RenderCAMLParams(params), dev.DevKWh, dev.Trials, dev.Pruned)
	}
	return sb.String()
}
