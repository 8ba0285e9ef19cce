#!/bin/sh
# Runs the ml-kernel and grid-scheduler benchmarks and writes the
# results as BENCH_2.json (all benchmarks), BENCH_3.json (the columnar
# Frame comparison: pre-refactor row-major baseline vs fresh run) and
# BENCH_4.json (the fused-kernel comparison: pre-tentpole baselines vs
# fresh run) at the repo root, then prints a pre/post delta table
# (ns/op and allocs/op) for the fused-kernel rewrite.
#
# Usage: scripts/bench.sh [-quick]
#   -quick    single iteration per benchmark (CI smoke mode)
#
# Environment:
#   BENCHTIME   overrides the per-benchmark budget (default 1s, or 1x
#               with -quick)
#   BENCHCOUNT  repetitions per benchmark (default 3, 1 with -quick);
#               the JSON keeps the per-metric minimum across runs, the
#               noise-robust estimate on shared machines
#   BENCH_GATE  when 1, exit non-zero if any kernel benchmark's ns/op
#               regressed more than 10% against its BENCH_4 baseline
set -eu

cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-1s}"
BENCHCOUNT="${BENCHCOUNT:-3}"
if [ "${1:-}" = "-quick" ]; then
    BENCHTIME=1x
    BENCHCOUNT=1
fi

RAW_ML=$(mktemp)
RAW_GRID=$(mktemp)
trap 'rm -f "$RAW_ML" "$RAW_GRID"' EXIT

echo "benchmarking ml kernels (internal/ml)..." >&2
go test -run '^$' -bench 'BenchmarkTreeCore|BenchmarkForestFit|BenchmarkKNN|BenchmarkMLPFit|BenchmarkLinearFit|BenchmarkEnsemblePredict' \
    -benchtime "$BENCHTIME" -count "$BENCHCOUNT" ./internal/ml/ | tee "$RAW_ML" >&2

echo "benchmarking grid scheduler (internal/bench)..." >&2
go test -run '^$' -bench 'BenchmarkRunGrid|BenchmarkSweepEndToEnd' \
    -benchtime "$BENCHTIME" -count "$BENCHCOUNT" ./internal/bench/ | tee "$RAW_GRID" >&2

# bench_json folds `go test -bench` lines into a JSON benchmark array
# (no surrounding object): [{"name": ..., "iterations": N, ...}, ...].
# With -count > 1 each benchmark repeats; the per-metric minimum across
# repetitions is kept (shared machines only ever add noise upward).
bench_json() {
    awk '
    function minset(arr, key, val) {
        if (!(key in arr) || val + 0 < arr[key] + 0) arr[key] = val
    }
    /^Benchmark/ {
        name = $1; sub(/-[0-9]+$/, "", name)
        if (!(name in seen)) { seen[name] = 1; order[++count] = name }
        minset(iters, name, $2)
        for (i = 3; i < NF; i++) {
            if ($(i+1) == "ns/op") minset(ns, name, $i)
            if ($(i+1) == "B/op") minset(bytes, name, $i)
            if ($(i+1) == "allocs/op") minset(allocs, name, $i)
        }
    }
    END {
        print "["
        for (j = 1; j <= count; j++) {
            name = order[j]
            printf "    {\"name\": \"%s\", \"iterations\": %s", name, iters[name]
            if (name in ns) printf ", \"ns_per_op\": %s", ns[name]
            if (name in bytes) printf ", \"bytes_per_op\": %s", bytes[name]
            if (name in allocs) printf ", \"allocs_per_op\": %s", allocs[name]
            printf "}"
            if (j < count) printf ","
            printf "\n"
        }
        print "  ]"
    }
    ' "$@"
}

{
    echo "{"
    printf '  "benchtime": "%s",\n' "$BENCHTIME"
    printf '  "benchmarks": '
    bench_json "$RAW_ML" "$RAW_GRID"
    echo "}"
} > BENCH_2.json
echo "wrote BENCH_2.json" >&2

# BENCH_3.json: fit-kernel allocation/latency comparison across the
# columnar Frame refactor. The "pre" block is the last benchmark run of
# the row-major [][]float64 kernels (recorded immediately before the
# refactor landed; that code path no longer exists to re-run). The
# "post" block is the fresh run above on the same benchmark names.
{
    echo "{"
    printf '  "benchtime": "%s",\n' "$BENCHTIME"
    cat <<'PRE'
  "pre": {
    "note": "row-major kernels, recorded before the columnar Frame refactor",
    "cpu": "Intel(R) Xeon(R) Processor @ 2.10GHz",
    "benchmarks": [
      {"name": "BenchmarkTreeCoreFit", "iterations": 219, "ns_per_op": 9764586, "bytes_per_op": 46898, "allocs_per_op": 241},
      {"name": "BenchmarkTreeCoreFitSubset", "iterations": 598, "ns_per_op": 4474877, "bytes_per_op": 48754, "allocs_per_op": 299},
      {"name": "BenchmarkForestFit", "iterations": 56, "ns_per_op": 36702912, "bytes_per_op": 491603, "allocs_per_op": 2935},
      {"name": "BenchmarkHistGBTFit", "iterations": 346, "ns_per_op": 8674783, "bytes_per_op": 1690480, "allocs_per_op": 5362}
    ]
  },
PRE
    printf '  "post": {\n    "benchmarks": '
    bench_json "$RAW_ML"
    printf '  }\n'
    echo "}"
} > BENCH_3.json
echo "wrote BENCH_3.json" >&2

# BENCH_4.json: kernel latency/allocation comparison across the fused
# hardware-speed kernel rewrite (single-pass bounds-check-eliminated
# histogram scans, blocked kNN distances, arena trees, within-cell
# parallelism). The "pre" block is the last run of the pre-rewrite
# kernels, min-of-3 on the same machine immediately before the rewrite
# landed; that code path no longer exists to re-run. The machine has a
# single core, so BenchmarkForestFitParallel p1 vs p4 only guards
# goroutine-handoff overhead there — parallel scaling needs multi-core
# hardware. The headline HistGBTFit delta was additionally measured
# interleaved against a pre-rewrite git worktree on the same host to
# cancel shared-VM noise: 4306917 -> 3134206 ns/op (-27.2%).
{
    echo "{"
    printf '  "benchtime": "%s",\n' "$BENCHTIME"
    cat <<'PRE'
  "machine": {"cpu": "Intel(R) Xeon(R) Processor @ 2.70GHz", "cores": 1, "go": "go1.24.0 linux/amd64"},
  "note": "single-core machine: ForestFitParallel p4 cannot show multi-core scaling here, only overhead; HistGBTFit headline delta cross-checked interleaved vs a pre-rewrite worktree (4306917 -> 3134206 ns/op, -27.2%)",
  "pre": {
    "note": "pre-rewrite kernels, min-of-3 recorded immediately before the fused-kernel rewrite",
    "benchmarks": [
      {"name": "BenchmarkTreeCoreFit", "ns_per_op": 8186600, "bytes_per_op": 48706, "allocs_per_op": 14},
      {"name": "BenchmarkTreeCoreFitSubset", "ns_per_op": 3477410, "bytes_per_op": 50171, "allocs_per_op": 15},
      {"name": "BenchmarkForestFit", "ns_per_op": 29871379, "bytes_per_op": 497620, "allocs_per_op": 240},
      {"name": "BenchmarkHistGBTFit", "ns_per_op": 4336559, "bytes_per_op": 180852, "allocs_per_op": 910},
      {"name": "BenchmarkKNNFit", "ns_per_op": 155.7, "bytes_per_op": 384, "allocs_per_op": 1},
      {"name": "BenchmarkKNNPredict", "ns_per_op": 8715749, "bytes_per_op": 986790, "allocs_per_op": 501},
      {"name": "BenchmarkMLPFit", "ns_per_op": 3818271, "bytes_per_op": 31858, "allocs_per_op": 57},
      {"name": "BenchmarkLinearFit", "ns_per_op": 911015, "bytes_per_op": 49359, "allocs_per_op": 18},
      {"name": "BenchmarkAdaBoostFit", "ns_per_op": 10101686, "bytes_per_op": 250179, "allocs_per_op": 84}
    ]
  },
PRE
    printf '  "post": {\n    "benchmarks": '
    bench_json "$RAW_ML"
    printf '  }\n'
    echo "}"
} > BENCH_4.json
echo "wrote BENCH_4.json" >&2

# Pre/post delta table for the fused-kernel rewrite: the BENCH_4
# baselines against the fresh min-of-count run. With BENCH_GATE=1 a
# >10% ns/op regression on any baselined benchmark fails the script.
PRE4='BenchmarkTreeCoreFit 8186600 14
BenchmarkTreeCoreFitSubset 3477410 15
BenchmarkForestFit 29871379 240
BenchmarkHistGBTFit 4336559 910
BenchmarkKNNFit 155.7 1
BenchmarkKNNPredict 8715749 501
BenchmarkMLPFit 3818271 57
BenchmarkLinearFit 911015 18
BenchmarkAdaBoostFit 10101686 84'

{ printf '%s\n' "$PRE4"; cat "$RAW_ML"; } | awk -v gate="${BENCH_GATE:-0}" '
    NF == 3 && $1 ~ /^Benchmark/ { pre_ns[$1] = $2; pre_al[$1] = $3; next }
    /^Benchmark/ {
        name = $1; sub(/-[0-9]+$/, "", name)
        if (!(name in seen)) { seen[name] = 1; order[++n] = name }
        for (i = 3; i < NF; i++) {
            if ($(i+1) == "ns/op" && (!(name in ns) || $i + 0 < ns[name] + 0)) ns[name] = $i
            if ($(i+1) == "allocs/op" && (!(name in al) || $i + 0 < al[name] + 0)) al[name] = $i
        }
    }
    END {
        printf "%-38s %14s %14s %8s %7s %7s %8s\n",
            "benchmark", "pre ns/op", "post ns/op", "delta", "pre-al", "post-al", "delta"
        fail = 0
        for (j = 1; j <= n; j++) {
            name = order[j]
            if (!(name in pre_ns)) {
                printf "%-38s %14s %14s %8s %7s %7s %8s\n", name, "-", ns[name], "new", "-", al[name], "new"
                continue
            }
            dns = (ns[name] - pre_ns[name]) / pre_ns[name] * 100
            dal = pre_al[name] > 0 ? (al[name] - pre_al[name]) / pre_al[name] * 100 : 0
            printf "%-38s %14s %14s %+7.1f%% %7s %7s %+7.1f%%\n",
                name, pre_ns[name], ns[name], dns, pre_al[name], al[name], dal
            if (gate == "1" && dns > 10) {
                printf "bench: %s ns/op regressed %.1f%% (>10%% gate)\n", name, dns > "/dev/stderr"
                fail = 1
            }
        }
        exit fail
    }
' >&2
