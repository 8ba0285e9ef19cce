package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"repro/internal/bench"
)

// size fixes how much work one repetition of a workload does.
type size struct {
	// datasets and budgets shape the grid: the first datasets of the
	// suite, each at every budget, one seed, the eight default systems.
	datasets int
	budgets  []time.Duration
	// requests is the length of one load-generator run.
	requests int
	// setups is how often a workload whose set-up takes milliseconds sets
	// up; setup_s is the median.
	setups int
}

// fullSize is the benchmark: the -quick fig3 grid (6 datasets × {10s, 1m}
// × 1 seed × 8 systems, ASKL and TPOT skipping 10s: 78 cells) and
// 20000-request load-generator runs, long enough that the journal
// file's create and sync are a small share of one.
var fullSize = size{
	datasets: 6,
	budgets:  []time.Duration{10 * time.Second, time.Minute},
	requests: 20000,
	setups:   11,
}

// metricSpec names a reported metric and its unit.
type metricSpec struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload from its untraced pass.
var endToEnd = []metricSpec{
	{"ops_per_s", "1/s"},
	{"alloc_kib_per_op", "KiB/op"},
	{"peak_rss_mib", "MiB"},
	{"setup_s", "s"},
}

// systemNames are the default lineup's names; they key the per-system
// automl metrics.
func systemNames() []string {
	var names []string
	for _, s := range bench.DefaultSystems() {
		names = append(names, s.Name())
	}
	return names
}

// perLayer are the metrics of the traced pass. Every workload reports
// all of them; a layer a workload does not reach reads zero.
func perLayer() []metricSpec {
	var specs []metricSpec
	for _, s := range systemNames() {
		specs = append(specs, metricSpec{"automl.fit_ms." + s, "ms"}, metricSpec{"automl.fit_calls." + s, "count"})
	}
	specs = append(specs, []metricSpec{
		{"automl.predict_ms", "ms"},
		{"automl.predict_calls", "count"},
		{"bench.worker_busy_share", "ratio"},
		{"bench.tail_idle_ms", "ms"},
		{"bench.replay_ms", "ms"},
		{"bench.merge_ms", "ms"},
		{"bench.simulate_ms", "ms"},
		{"bench.aggregate_ms", "ms"},
		{"bench.export_ms", "ms"},
		{"openml.generate_ms", "ms"},
		{"repo.get_calls", "count"},
		{"repo.get_p50_us", "us"},
		{"repo.get_p99_us", "us"},
		{"repo.read_bytes", "B"},
		{"repo.put_calls", "count"},
		{"repo.put_p50_us", "us"},
		{"repo.put_p99_us", "us"},
		{"artifact.build_ms", "ms"},
		{"artifact.load_ms", "ms"},
		{"serve.predict_calls", "count"},
		{"serve.predict_ms", "ms"},
		{"serve.batch_rows_mean", "rows"},
		{"serve.engine_self_ms", "ms"},
		{"serve.journal_append_ns_per_line", "ns/line"},
		{"serve.journal_replay_ms", "ms"},
		{"serve.outcomes.served", "count"},
		{"serve.outcomes.shed", "count"},
		{"serve.outcomes.expired", "count"},
		{"serve.outcomes.degraded", "count"},
		{"serve.outcomes.failed", "count"},
		{"runtime.gc_cpu_share", "ratio"},
		{"runtime.heap_alloc_mib", "MiB"},
		{"runtime.heap_objects", "count"},
		{"runtime.sched_latency_p99_us", "us"},
		{"perfbench.repetitions", "count"},
	}...)
	for _, m := range endToEnd {
		specs = append(specs, metricSpec{"trace.overhead." + m.name, m.unit})
	}
	return specs
}

// refNominal is the reference kernel's usual time on the machine the
// benchmark was tuned on, a 2-vCPU Intel Xeon VM. End-to-end timings are
// scaled to a machine that runs the kernel in exactly this time.
const refNominal = 4 * time.Millisecond

// calibrationSamples is how many reference runs open a pass and bracket
// its timed phase; one more follows every repetition.
const calibrationSamples = 5

// refBuf is the reference kernel's working set, allocated once, so the
// kernel allocates nothing inside a timed phase.
var refBuf = make([]float64, 1<<15)

// refSink keeps the kernel's result live.
var refSink float64

// reference runs a fixed computation that shares no code with the module
// under test — it fills refBuf from a xorshift stream, sorts it and sums
// square roots — and returns how long it took. On a shared machine the
// host's load changes how fast everything runs, by as much as twofold
// within a minute; timed between the repetitions of a pass, this fixed
// computation measures that speed, and the end-to-end timings are scaled
// by it.
func reference() time.Duration {
	start := time.Now()
	x := uint64(0x9e3779b97f4a7c15)
	for i := range refBuf {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		refBuf[i] = float64(x>>11) / (1 << 53)
	}
	sort.Float64s(refBuf)
	var sum float64
	for _, v := range refBuf {
		sum += math.Sqrt(v)
	}
	refSink = sum
	return time.Since(start)
}

// calibrate records n runs of the reference kernel.
func (p *pass) calibrate(n int) {
	for i := 0; i < n; i++ {
		p.refs = append(p.refs, reference())
	}
}

// slowdown is how much slower than nominal the machine ran during the
// pass: the median reference time over refNominal.
func (p *pass) slowdown() float64 {
	refs := make([]float64, len(p.refs))
	for i, d := range p.refs {
		refs[i] = d.Seconds()
	}
	return median(refs) / refNominal.Seconds()
}

// repetition is one run of a workload's timed operation.
type repetition struct {
	items int
	wall  time.Duration
}

// pass is one measured execution of a workload: its inputs, its scratch
// directory, its tracer (nil when untraced) and what it measured.
type pass struct {
	seed    uint64
	seconds time.Duration
	size    size
	dir     string
	tr      *Tracer

	setups  []time.Duration
	reps    []repetition
	refs    []time.Duration
	rt      runtimeCounters
	peakRSS float64

	attempted, failed int
	// pinned holds virtual-clock outputs, which no wall-clock change and
	// no tracing may move.
	pinned map[string]string
	// failures lists the correctness checks that failed.
	failures []string
	layers   map[string]float64
}

func (p *pass) path(name string) string { return filepath.Join(p.dir, name) }

// check records a failed correctness check unless ok.
func (p *pass) check(ok bool, format string, args ...any) {
	if !ok {
		p.failures = append(p.failures, fmt.Sprintf(format, args...))
	}
}

// setup times one set-up.
func (p *pass) setup(fn func() error) error {
	start := time.Now()
	err := fn()
	p.setups = append(p.setups, time.Since(start))
	return err
}

// timed repeats op until the pass's seconds are spent, at least once,
// recording each repetition and the runtime counters across all of them.
// op returns how many items it processed.
func (p *pass) timed(op func() (int, error)) error {
	p.calibrate(calibrationSamples)
	before := readRuntime()
	start := time.Now()
	for len(p.reps) == 0 || time.Since(start) < p.seconds {
		t0 := time.Now()
		n, err := op()
		if err != nil {
			return err
		}
		p.reps = append(p.reps, repetition{items: n, wall: time.Since(t0)})
		p.calibrate(1)
	}
	p.rt = readRuntime().since(before)
	p.calibrate(calibrationSamples)
	return nil
}

// endToEnd is the pass's value of each end-to-end metric. Throughput is
// the median over repetitions, so one slow repetition cannot move it.
// Throughput and set-up time are in reference seconds: wall seconds
// divided by the pass's slowdown, so that a commit measured while the
// host was busy compares with one measured while it was idle.
func (p *pass) endToEnd() map[string]float64 {
	rates := make([]float64, len(p.reps))
	items := 0
	for i, r := range p.reps {
		rates[i] = float64(r.items) / r.wall.Seconds()
		items += r.items
	}
	setups := make([]float64, len(p.setups))
	for i, d := range p.setups {
		setups[i] = d.Seconds()
	}
	slowdown := p.slowdown()
	return map[string]float64{
		"ops_per_s":        median(rates) * slowdown,
		"alloc_kib_per_op": p.rt.allocBytes / 1024 / float64(max(items, 1)),
		"peak_rss_mib":     p.peakRSS,
		"setup_s":          median(setups) / slowdown,
	}
}

// collectLayers derives the per-layer metrics from the traced pass's
// spans, counters and runtime readings. Values are per timed repetition
// (one grid, one warm session, one load-generator run) unless a name says
// otherwise; set-up layers are per set-up.
func (p *pass) collectLayers() {
	spans := p.tr.Spans()
	reps := float64(max(len(p.reps), 1))
	setups := float64(max(len(p.setups), 1))
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

	var cells []Span
	for _, s := range systemNames() {
		fits := Named(spans, "automl.fit."+s)
		cells = append(cells, fits...)
		p.layers["automl.fit_ms."+s] = ms(Total(fits)) / reps
		p.layers["automl.fit_calls."+s] = p.tr.Count("automl.fit_calls."+s) / reps
	}
	predicts := Named(spans, "automl.predict")
	cells = append(cells, predicts...)
	p.layers["automl.predict_ms"] = ms(Total(predicts)) / reps
	p.layers["automl.predict_calls"] = p.tr.Count("automl.predict_calls") / reps

	if grids := Named(spans, "bench.grid"); len(grids) > 0 {
		workers := runtime.NumCPU()
		var tail time.Duration
		for _, g := range grids {
			tail += TailIdle(Children(spans, g.ID), workers, g.End)
		}
		p.layers["bench.worker_busy_share"] = float64(Total(cells)) / (float64(Total(grids)) * float64(workers))
		p.layers["bench.tail_idle_ms"] = ms(tail) / float64(len(grids))
	}
	for _, name := range []string{"bench.replay", "bench.merge", "bench.simulate", "bench.aggregate", "bench.export"} {
		p.layers[name+"_ms"] = ms(Total(Named(spans, name))) / reps
	}
	for _, name := range []string{"openml.generate", "artifact.build", "artifact.load"} {
		p.layers[name+"_ms"] = ms(Total(Named(spans, name))) / setups
	}

	calls := p.tr.Count("serve.predict_calls")
	p.layers["serve.predict_calls"] = calls / reps
	p.layers["serve.predict_ms"] = ms(Total(Named(spans, "serve.predict"))) / reps
	if calls > 0 {
		p.layers["serve.batch_rows_mean"] = p.tr.Count("serve.predict_rows") / calls
	}
	var engineSelf time.Duration
	for _, run := range Named(spans, "serve.loadgen") {
		engineSelf += SelfTime(run, spans)
	}
	p.layers["serve.engine_self_ms"] = ms(engineSelf) / reps
	p.layers["serve.journal_replay_ms"] = ms(Total(Named(spans, "serve.journal_replay")))

	if p.rt.totalCPU > 0 {
		p.layers["runtime.gc_cpu_share"] = p.rt.gcCPU / p.rt.totalCPU
	}
	p.layers["runtime.heap_alloc_mib"] = p.rt.allocBytes / (1 << 20) / reps
	p.layers["runtime.heap_objects"] = p.rt.allocObjects / reps
	p.layers["runtime.sched_latency_p99_us"] = p.rt.schedP99() * 1e6
	p.layers["perfbench.repetitions"] = float64(len(p.reps))
}

// runtimeCounters are the runtime/metrics readings a timed phase is
// measured by.
type runtimeCounters struct {
	allocBytes, allocObjects float64
	gcCPU, totalCPU          float64
	// sched counts goroutine scheduling latencies per bucket; bucket i
	// spans [buckets[i], buckets[i+1]) seconds.
	sched   []uint64
	buckets []float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/latencies:seconds",
}

func readRuntime() runtimeCounters {
	samples := make([]metrics.Sample, len(runtimeMetricNames))
	for i, name := range runtimeMetricNames {
		samples[i].Name = name
	}
	metrics.Read(samples)
	h := samples[4].Value.Float64Histogram()
	return runtimeCounters{
		allocBytes:   float64(samples[0].Value.Uint64()),
		allocObjects: float64(samples[1].Value.Uint64()),
		gcCPU:        samples[2].Value.Float64(),
		totalCPU:     samples[3].Value.Float64(),
		sched:        append([]uint64(nil), h.Counts...),
		buckets:      h.Buckets,
	}
}

// since is the growth of the counters from before to c.
func (c runtimeCounters) since(before runtimeCounters) runtimeCounters {
	d := c
	d.allocBytes -= before.allocBytes
	d.allocObjects -= before.allocObjects
	d.gcCPU -= before.gcCPU
	d.totalCPU -= before.totalCPU
	d.sched = make([]uint64, len(c.sched))
	for i := range c.sched {
		d.sched[i] = c.sched[i] - before.sched[i]
	}
	return d
}

// schedP99 is the upper edge, in seconds, of the bucket holding the 99th
// percentile scheduling latency; the lower edge when the upper is
// unbounded.
func (c runtimeCounters) schedP99() float64 {
	var total uint64
	for _, n := range c.sched {
		total += n
	}
	if total == 0 {
		return 0
	}
	target := uint64(math.Ceil(0.99 * float64(total)))
	var seen uint64
	for i, n := range c.sched {
		seen += n
		if seen >= target {
			if hi := c.buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return c.buckets[i]
		}
	}
	return 0
}

// peakRSSMiB is the process's peak resident set so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the nearest-rank q-quantile of ds.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}
