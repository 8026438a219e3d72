#!/usr/bin/env sh
# Full verification gate: build, test, docs, lints.
#
# Everything runs --offline: the workspace vendors its few external
# dependencies (vendor/{rand,proptest}) so no network access is needed
# — or allowed — to verify.
#
# Usage: scripts/verify.sh  (from the repository root or anywhere)

set -eu

cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

# golden NAME SUMMARY: a checked-in campaign's `--json` output must
# equal tests/golden/NAME.summary.json byte for byte (the behaviour
# contract refactors are held to; regenerate with `campaign run --spec
# scenarios/NAME.campaign --workers 1 --json` only when campaign
# behaviour is meant to change).
golden() {
    if ! printf '%s\n' "$2" | cmp -s - "tests/golden/$1.summary.json"; then
        echo "verify: $1 campaign summary diverged from tests/golden/$1.summary.json" >&2
        exit 1
    fi
}

run cargo build --release --workspace --offline
run cargo test --workspace --offline -q
run env RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline -q
run cargo clippy --workspace --all-targets --offline -q -- -D warnings
run cargo fmt --all --check

# campaign_gate NAME W1 W2: the checked-in campaign must come back
# clean from the invariant oracle at W1 workers, byte-identical at W2
# (the engine's determinism guarantee) and equal to its golden. Leaves
# the summary in $summary.
campaign_gate() {
    echo "==> target/release/canelyctl campaign run --spec scenarios/$1.campaign"
    summary="$(target/release/canelyctl campaign run --spec "scenarios/$1.campaign" --workers "$2" --json)"
    echo "$summary"
    case "$summary" in
    *'"violating_runs":[]'*) ;;
    *)
        echo "verify: $1 campaign reported invariant violations" >&2
        exit 1
        ;;
    esac
    resummary="$(target/release/canelyctl campaign run --spec "scenarios/$1.campaign" --workers "$3" --json)"
    if [ "$summary" != "$resummary" ]; then
        echo "verify: $1 summary differs between $2 and $3 workers" >&2
        exit 1
    fi
    golden "$1" "$summary"
}

# Bounded smoke campaign (fixed seeds, finishes in seconds).
campaign_gate smoke 4 2

# Live exposition gate (docs/METRICS.md): the one-shot `metrics --live`
# exposition must match the checked-in goldens byte for byte in both
# formats. (Streaming progress is held by tier-1:
# crates/cli/tests/progress_stream.rs.)
echo "==> metrics --live golden gate"
if ! target/release/canelyctl metrics --nodes 4 --crash 2@250ms --until 400ms --live \
    | cmp -s - tests/golden/metrics_live.prom; then
    echo "verify: metrics --live diverged from tests/golden/metrics_live.prom" >&2
    exit 1
fi
if ! target/release/canelyctl metrics --nodes 4 --crash 2@250ms --until 400ms --live --json \
    | cmp -s - tests/golden/metrics_live.json; then
    echo "verify: metrics --live --json diverged from tests/golden/metrics_live.json" >&2
    exit 1
fi

# Detector shootout smoke gate: a tiny multi-backend matrix (one
# seed per backend over the shootout dimensions) must run the oracle
# clean for every backend, emit the per-backend comparison, and stay
# byte-identical across worker counts (docs/DETECTORS.md tells
# readers to reproduce its table with exactly this command).
campaign_gate shootout 4 2
case "$summary" in
*'"shootout":['*'"detector":"surveillance"'*'"detector":"swim"'*'"detector":"add-phi"'*) ;;
*)
    echo "verify: shootout campaign did not emit the per-backend comparison" >&2
    exit 1
    ;;
esac

# Federation smoke gate: four bridged 32-node segments under node
# crashes, gateway crashes and an inter-segment partition/heal. The
# oracle must come back clean — including the global-view agreement
# and validity invariants across the surviving gateways — and the
# summary must stay byte-identical across worker counts.
campaign_gate federation 4 2

# Self-healing failover gate: four bridged 16-node segments whose
# gateway crashes mid-run and powers back on 60 ms later. The oracle
# must come back clean — including the rejoin-latency invariant (a
# successor elects itself, bumps the epoch and re-converges the
# global view within the analytic rejoin bound) — and the summary
# must be byte-identical at 1 and 8 workers.
campaign_gate failover 1 8

# Figure goldens: the paper-reproduction binaries are deterministic
# and read frame durations off the wire, so a change that bends a
# figure (a wire-length, stuffing or bandwidth-accounting slip) fails
# here. Regenerate with `target/release/BIN > tests/golden/figures/BIN.txt`
# only when a figure is meant to change.
echo "==> figure goldens"
for golden in tests/golden/figures/*.txt; do
    figure="$(basename "$golden" .txt)"
    if ! "target/release/$figure" | cmp -s - "$golden"; then
        echo "verify: $figure diverged from $golden" >&2
        exit 1
    fi
done

# Scenario-file gates, against the release binary: every checked-in
# `.canely` file must hold its own `expect-view` under `run`, and
# `partition_heal` must come back clean under the invariant oracle.
echo "==> canelyctl run scenarios/*.canely"
for scenario in scenarios/*.canely; do
    case "$(target/release/canelyctl run "$scenario")" in
    *'expect-view: ok'*) ;;
    *)
        echo "verify: $scenario did not meet its expect-view" >&2
        exit 1
        ;;
    esac
done
case "$(target/release/canelyctl campaign replay --scenario scenarios/partition_heal.canely)" in
*'verdict: clean'*) ;;
*)
    echo "verify: partition_heal.canely is not clean under the oracle" >&2
    exit 1
    ;;
esac

# Hostile-file smoke: inputs that used to panic (exit 101), wrap or
# spin (`timeout` exit 124) must die at the readers with a diagnostic
# and exit 1 — nothing else.
echo "==> hostile-file smoke"
hostile="target/verify-hostile"
mkdir -p "$hostile"
printf 'seeds 0..18446744073709551615\n' > "$hostile/seeds.campaign"
printf 'until 18446744073709552ms\n' > "$hostile/wrap.canely"
printf 'until 18446744073709551ms\n' > "$hostile/spin.canely"
printf 'nodes 4\ntm 1us\n' > "$hostile/tm.canely"
printf 'nodes 4\nsegments 2\ntm 1us\n' > "$hostile/tm-fed.canely"
printf 'nodes 4\ncrash 9 10ms\n' > "$hostile/crash.canely"
printf 'nodes 4\ntraffic 0ms\n' > "$hostile/traffic.campaign"
printf 'nodes 4\ntraffic 0 0ms\n' > "$hostile/traffic.canely"
printf 'nodes 4\ncrash 1 0ms\n' > "$hostile/crash-zero.canely"
printf 'nodes 4\nsegments 2\nseg-crash 1 1 0ms\n' > "$hostile/seg-crash-zero.canely"
printf 'nodes 4\nsegments 2\ngateway-crash 1 0ms\n' > "$hostile/gateway-crash-zero.canely"
refused() {
    status=0
    timeout 10 target/release/canelyctl "$@" > /dev/null 2>&1 || status=$?
    if [ "$status" -ne 1 ]; then
        echo "verify: canelyctl $* exited $status, expected a diagnostic and 1" >&2
        exit 1
    fi
}
# refused_on LINE ARGS…: refused with a diagnostic anchored to line
# LINE of the file ending ARGS — a violation verdict also exits 1.
refused_on() {
    line="$1"
    shift
    for file; do :; done
    status=0
    out="$(timeout 10 target/release/canelyctl "$@" 2>&1)" || status=$?
    case "$status:$out" in
    "1:error: $file:$line: "*) ;;
    *)
        echo "verify: canelyctl $* did not refuse line $line ($status): $out" >&2
        exit 1
        ;;
    esac
}
refused campaign run --spec "$hostile/seeds.campaign"
refused run "$hostile/wrap.canely"
refused run "$hostile/spin.canely"
refused campaign replay --scenario "$hostile/tm.canely"
refused run "$hostile/tm-fed.canely"
refused campaign replay --scenario "$hostile/crash.canely"
refused campaign run --spec "$hostile/traffic.campaign"
refused run "$hostile/traffic.canely"
refused_on 2 campaign replay --scenario "$hostile/crash-zero.canely"
refused_on 3 run "$hostile/seg-crash-zero.canely"
refused_on 3 run "$hostile/gateway-crash-zero.canely"
# Numeric flags go through the grammar scalars: out of range or zero is
# `error: --flag expects …`, not a panic, a wrapped value or a spin.
refused baseline ttp --nodes 65
refused analyze bandwidth --tm 0ms
refused campaign run --spec scenarios/smoke.campaign --progress --progress-interval-ms 0
# A violating federated campaign shrinks to a counterexample the reader
# accepts: `campaign run` exits 1 (not 101), and the emitted file
# replays to a verdict.
printf 'name gw-top\nnodes 4\nseeds 2..3\ninaccessibility 4ms\nsegments 2\ngateway 3\nuntil 400ms\nsettle 150ms\nweaken-fda\n' \
    > "$hostile/gw-top.campaign"
rm -rf "$hostile/gw-top-cx"
refused campaign run --spec "$hostile/gw-top.campaign" --emit-counterexample "$hostile/gw-top-cx"
replayed="$(target/release/canelyctl campaign replay --scenario "$hostile/gw-top-cx/counterexample.canely" 2>&1 || true)"
case "$replayed" in
*verdict:*) ;;
*)
    echo "verify: the gw-top counterexample does not replay to a verdict: $replayed" >&2
    exit 1
    ;;
esac

# Sampling profile smoke: `scripts/profile.sh` (docs/PERF.md,
# "Measurement notes") must build with frame pointers, sample and
# symbolise in one command — its tables name the step loop.
echo "==> sampling profile smoke"
if command -v cc > /dev/null 2>&1 && command -v nm > /dev/null 2>&1 \
    && [ "$(uname -m)" = x86_64 ]; then
    profile="$(scripts/profile.sh -n 40 campaign run --spec scenarios/smoke.campaign --workers 1)"
    case "$profile" in
    *'Simulator::run_until'*) ;;
    *)
        echo "verify: the sampling profile does not name Simulator::run_until:" >&2
        echo "$profile" >&2
        exit 1
        ;;
    esac
else
    echo "    skipped: the sampler needs cc, nm and an x86-64 host"
fi

# Campaign scaling smoke gate: fanning the same matrix out to 8
# workers must never be *slower* than running it on 1. On a multi-core
# host this also catches lost parallelism; on a single hardware thread
# the two legitimately tie, so the gate compares best-of-3 wall times
# with a 25% relative plus 50 ms absolute tolerance for scheduler and
# process-startup noise (see docs/PERF.md).
echo "==> campaign scaling gate"
best_ms() {
    best=""
    for _ in 1 2 3; do
        start=$(date +%s%N)
        target/release/canelyctl campaign run \
            --spec scenarios/smoke.campaign --workers "$1" --json > /dev/null
        end=$(date +%s%N)
        ms=$(((end - start) / 1000000))
        if [ -z "$best" ] || [ "$ms" -lt "$best" ]; then best="$ms"; fi
    done
    echo "$best"
}
serial_ms="$(best_ms 1)"
fanout_ms="$(best_ms 8)"
echo "    best-of-3 wall time: 1 worker ${serial_ms}ms, 8 workers ${fanout_ms}ms"
if [ "$fanout_ms" -gt $((serial_ms + serial_ms / 4 + 50)) ]; then
    echo "verify: 8-worker campaign (${fanout_ms}ms) is slower than 1-worker (${serial_ms}ms) beyond tolerance" >&2
    exit 1
fi

# Trace round-trip gate: the canonical JSONL export must survive a
# parse → re-export cycle byte-for-byte (the `tq` query engine and the
# campaign analytics both build on this losslessness).
echo "==> trace round-trip gate"
trace_dir="target/verify-trace"
mkdir -p "$trace_dir"
target/release/canelyctl trace --nodes 4 --crash 2@250ms --until 500ms --jsonl \
    > "$trace_dir/episode.trace.jsonl"
target/release/canelyctl tq reexport --trace "$trace_dir/episode.trace.jsonl" \
    > "$trace_dir/episode.reexport.jsonl"
if ! cmp -s "$trace_dir/episode.trace.jsonl" "$trace_dir/episode.reexport.jsonl"; then
    echo "verify: trace export → parse → re-export is not lossless" >&2
    exit 1
fi

# Exporter goldens: the JSONL export and its Chrome rendering of one
# small crash episode, byte for byte, as the build before the
# exporters were rewritten (PR 24) wrote them — held here as well as in
# `cargo test`, against the release binary. Regenerate with the two
# commands below only when the trace schema is meant to change.
echo "==> trace export goldens"
if ! target/release/canelyctl trace --nodes 4 --crash 2@250ms --until 400ms --jsonl \
    | cmp -s - tests/golden/trace_small.jsonl; then
    echo "verify: trace --jsonl diverged from tests/golden/trace_small.jsonl" >&2
    exit 1
fi
if ! target/release/canelyctl trace --nodes 4 --crash 2@250ms --until 400ms --chrome \
    | cmp -s - tests/golden/trace_small.chrome.json; then
    echo "verify: trace --chrome diverged from tests/golden/trace_small.chrome.json" >&2
    exit 1
fi

# Broken pipe gate: a reader that stops early (`| head`) ends the run
# quietly — it used to panic with a backtrace and exit 101.
echo "==> broken pipe gate"
pipe_err="target/verify-pipe.stderr"
target/release/canelyctl trace --nodes 4 --until 400ms --jsonl 2>"$pipe_err" | head -n 1 > /dev/null
if grep -q panicked "$pipe_err"; then
    echo "verify: canelyctl panicked when its reader closed the pipe:" >&2
    cat "$pipe_err" >&2
    exit 1
fi

# tq smoke queries against the checked-in scenarios: the causal chain
# behind the partition_heal crash must resolve end to end, and the
# phase profile must report measured-vs-bound headroom.
echo "==> tq smoke queries"
chain="$(target/release/canelyctl tq chain \
    --scenario scenarios/partition_heal.canely --suspect 3)"
case "$chain" in
*'chain complete: view installed without n3'*) ;;
*)
    echo "verify: partition_heal causal chain is incomplete:" >&2
    echo "$chain" >&2
    exit 1
    ;;
esac
phases="$(target/release/canelyctl tq phases \
    --scenario scenarios/partition_heal.canely)"
case "$phases" in
*'headroom='*) ;;
*)
    echo "verify: tq phases reported no bound headroom:" >&2
    echo "$phases" >&2
    exit 1
    ;;
esac
summary="$(target/release/canelyctl tq summary --scenario scenarios/lifecycle.canely)"
case "$summary" in
*'protocol events:'*) ;;
*)
    echo "verify: tq summary produced no event counts" >&2
    exit 1
    ;;
esac
chrome="$(target/release/canelyctl trace --nodes 3 --crash 2@250ms --until 300ms --chrome)"
case "$chrome" in
'{"traceEvents":['*'"displayTimeUnit":"ms"}'*) ;;
*)
    echo "verify: chrome export is not a trace-event document" >&2
    exit 1
    ;;
esac

echo "==> verify: all green"
