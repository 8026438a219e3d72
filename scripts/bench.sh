#!/usr/bin/env sh
# Benchmark runner: executes the Criterion benches for the trace
# analysis pipeline and the federation engine and distils their
# stdout into machine-readable summaries:
#
#   BENCH_trace.json     — parse / chain / phases / chrome / reexport
#   BENCH_federation.json — federated run cost at 1/2/4 bridged
#                          segments plus the merged seg-tagged export
#
# Per-run, per-backend, runner-scaling and telemetry costs are rows of
# the perf ledger instead (`benchmark/run.sh`, see benchmark/README.md).
#
# Everything runs --offline against the vendored criterion harness.
#
# Usage: scripts/bench.sh  (from the repository root or anywhere)

set -eu

cd "$(dirname "$0")/.."

# Turns "group/name: mean 8.600 ms / min 7.636 ms over 30 samples"
# lines into one JSON object with both human units and nanoseconds.
summarize() {
    awk '
    function ns(v,    a, f) {
        split(v, a, " ")
        f = (a[2] == "s") ? 1e9 : (a[2] == "ms") ? 1e6 : (a[2] == "ns") ? 1 : 1e3
        return a[1] * f
    }
    BEGIN { printf("{\"benchmarks\":[") }
    / over [0-9]+ samples$/ {
        label = $0; sub(/: mean .*/, "", label)
        rest = $0; sub(/^.*: mean /, "", rest)
        split(rest, halves, / \/ min /)
        mean = halves[1]
        split(halves[2], tail, / over /)
        min = tail[1]
        samples = tail[2]; sub(/ samples$/, "", samples)
        if (n++) printf(",")
        printf("{\"id\":\"%s\",\"mean\":\"%s\",\"mean_ns\":%.0f,\"min\":\"%s\",\"min_ns\":%.0f,\"samples\":%s}",
               label, mean, ns(mean), min, ns(min), samples)
    }
    END { printf("]}\n") }
    '
}

run_bench() {
    name="$1"
    echo "==> cargo bench -p bench --bench $name --offline"
    out="$(cargo bench -p bench --bench "$name" --offline)"
    echo "$out"
    echo "$out" | summarize > "BENCH_$name.json"
    echo "==> wrote BENCH_$name.json"
}

run_bench trace
run_bench federation
