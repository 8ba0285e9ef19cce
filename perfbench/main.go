// Command perfbench is the repository's wall-clock benchmark. The paper's
// measurements run on the virtual clock and are pinned byte for byte; this
// program measures what producing them costs the Go process in wall time,
// memory and allocations, end to end and layer by layer. It calls the
// module's packages (bench, repo, artifact, serve, openml, automl)
// directly and times the calls it makes into them.
//
// Run it from the repository root; run.sh builds it from the checkout:
//
//	sh perfbench/run.sh --workload grid-cold --seed 1 --seconds 10 --trace 0
//	sh perfbench/run.sh --workload all --seed 1
//
// Workloads:
//
//   - grid-cold: the -quick fig3 grid (78 cells) from an empty store and a
//     fresh journal, then aggregation and CSV/JSON export;
//   - grid-warm: set-up fills a store with that grid and writes four shard
//     journals from it; the timed phase repeats a warm replay from the
//     read-only store and a merge of the shard journals, each aggregated
//     and exported, and ensemble simulation, none of which fits anything;
//   - serve-open: set-up builds, saves and loads a random-forest artifact
//     on adult; the timed phase repeats a journaled open-loop load
//     generator run at 90% of the model's virtual capacity;
//   - serve-closed: the same model under a closed loop of 8 users.
//
// With --trace 0 a run reports the end-to-end metrics of an untraced pass:
// ops_per_s (cells executed; cells replayed, merged and simulated; or
// requests resolved, per second, the median over repetitions),
// alloc_kib_per_op, peak_rss_mib and setup_s (the median over set-ups).
// Throughput and set-up time are in reference seconds: a fixed reference
// computation, timed between repetitions, measures how much slower than
// nominal the shared machine ran during the pass, and wall time is
// divided by that slowdown, which the stamp line reports. Per-layer
// times stay in wall time. With --trace 1 it runs the untraced pass and then a traced one, which
// records spans around every call into a layer, and reports the per-layer
// metrics plus the tracing overhead, traced minus untraced, on each
// end-to-end metric.
//
// Every pass checks its outputs: cold, replayed and merged grid exports
// are byte-identical, the warm phase fits nothing, the serving ledger
// bit-equals the tracker and the replayed journal, and a traced pass pins
// the same outputs as the untraced one. A failed check prints
// "correct": false and exits 1.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; attempted and failed count grid
// cells or requests, a failure being a hard-failed or fallback-scored
// cell or a request not served. The line before it stamps the run with
// the machine, the inputs, the source measured and the pinned
// virtual-clock outputs: the grid CSV sha256, the serving ledger joules
// and the outcome counts. Standard error carries a table of the metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

// workDir holds everything a run writes, relative to the checkout root.
const workDir = ".bench_build"

// workload is one fixed-seed scenario; BENCHMARK.json records why each
// was chosen.
type workload struct {
	name string
	run  func(*pass) error
}

var workloads = []workload{
	{"grid-cold", gridCold},
	{"grid-warm", gridWarm},
	{"serve-open", func(p *pass) error { return serveLoad(p, false) }},
	{"serve-closed", func(p *pass) error { return serveLoad(p, true) }},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	flags.SetOutput(stderr)
	name := flags.String("workload", "", "grid-cold, grid-warm, serve-open, serve-closed, or all")
	seed := flags.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flags.Float64("seconds", 10, "how long each timed phase repeats its operation")
	trace := flags.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from an added traced pass")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if *name == "all" {
		return runAll(args, stdout, stderr)
	}
	var w workload
	for _, c := range workloads {
		if c.name == *name {
			w = c
		}
	}
	if w.run == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}

	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	out, err := runWorkload(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, fullSize, dir)
	if err == nil && out.spans != nil {
		err = writeSpans(filepath.Join(workDir, fmt.Sprintf("trace-%s-seed%d.jsonl", w.name, *seed)), out.spans)
	}
	if err == nil {
		err = report(stdout, stderr, out)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !out.res.Correct {
		return 1
	}
	return 0
}

// runAll runs each workload in its own process, so that each reports its
// own peak RSS, and fails when any of them fails.
func runAll(args []string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		// A repeated flag takes its last value, so this overrides "all".
		cmd := exec.Command(exe, append(append([]string(nil), args...), "--workload", w.name)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// outcome is what one invocation reports.
type outcome struct {
	res   result
	st    stamp
	specs []metricSpec
	spans []Span
}

// runWorkload measures w as one invocation asks: an untraced pass for the
// end-to-end metrics or, traced, the untraced pass and then a traced one
// for the per-layer metrics and the tracing overhead.
func runWorkload(w workload, seed uint64, seconds time.Duration, traced bool, sz size, dir string) (outcome, error) {
	base, err := measure(w, seed, seconds, false, sz, filepath.Join(dir, "untraced"))
	if err != nil {
		return outcome{}, err
	}
	out := outcome{
		res: result{Attempted: base.attempted, Failed: base.failed, Metrics: make(map[string]metricValue)},
		st: stamp{
			Workload:    w.name,
			Seed:        seed,
			Seconds:     seconds.Seconds(),
			Slowdown:    base.slowdown(),
			Repetitions: len(base.reps),
			Setups:      len(base.setups),
			Pinned:      base.pinned,
			Failures:    base.failures,
		},
		specs: endToEnd,
	}
	values := base.endToEnd()
	if traced {
		tp, err := measure(w, seed, seconds, true, sz, filepath.Join(dir, "traced"))
		if err != nil {
			return outcome{}, err
		}
		out.st.Trace = 1
		out.res.Attempted += tp.attempted
		out.res.Failed += tp.failed
		out.st.Failures = append(out.st.Failures, tp.failures...)
		for k, v := range base.pinned {
			if tp.pinned[k] != v {
				out.st.Failures = append(out.st.Failures, fmt.Sprintf("the traced pass pinned %s=%s, the untraced %s", k, tp.pinned[k], v))
			}
		}
		for name, v := range tp.endToEnd() {
			tp.layers["trace.overhead."+name] = v - values[name]
		}
		out.specs, values, out.spans = perLayer(), tp.layers, tp.tr.Spans()
	}
	for _, m := range out.specs {
		out.res.Metrics[m.name] = metricValue{Value: values[m.name], Unit: m.unit}
	}
	out.res.Correct = len(out.st.Failures) == 0
	return out, nil
}

// measure runs one pass of w in dir.
func measure(w workload, seed uint64, seconds time.Duration, traced bool, sz size, dir string) (*pass, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	p := &pass{seed: seed, seconds: seconds, size: sz, dir: dir, pinned: make(map[string]string), layers: make(map[string]float64)}
	if traced {
		p.tr = NewTracer()
	}
	p.calibrate(calibrationSamples)
	if err := w.run(p); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	p.peakRSS = peakRSSMiB()
	if traced {
		p.collectLayers()
	}
	return p, nil
}

// report prints the stamp and the result to stdout, and a table of the
// metrics to stderr.
func report(stdout, stderr io.Writer, out outcome) error {
	st := out.st
	st.fillMachine()
	fmt.Fprintf(stderr, "perfbench %s seed %d trace %d on %s (%d CPUs, GOMAXPROCS %d, %s): %d repetitions, %d set-ups\n",
		st.Workload, st.Seed, st.Trace, st.CPU, st.NProc, st.GOMAXPROCS, st.Go, st.Repetitions, st.Setups)
	for _, m := range out.specs {
		fmt.Fprintf(stderr, "  %-36s %14.6g %s\n", m.name, out.res.Metrics[m.name].Value, m.unit)
	}
	for _, f := range st.Failures {
		fmt.Fprintln(stderr, "  FAILED:", f)
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(st); err != nil {
		return err
	}
	return enc.Encode(out.res)
}

// writeSpans writes a traced pass's spans to path as JSON lines.
func writeSpans(path string, spans []Span) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
