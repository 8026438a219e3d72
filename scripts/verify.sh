#!/usr/bin/env sh
# Full verification gate: the release build, the tier-1 tests, docs,
# lints, and the checks a test cannot make — the sampling-profile and
# alternator smokes (external tools), the horizon gate (process peak
# RSS) and the worker-scaling gate (wall time).
# Every behaviour check — goldens, hostile inputs, scenario files,
# exporters, examples — is a test that `cargo test` runs.
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

run cargo build --release --workspace --offline
run cargo test --workspace --offline -q
run env RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline -q
run cargo clippy --workspace --all-targets --offline -q -- -D warnings
run cargo fmt --all --check

# Sampling profile smoke: `scripts/profile.sh` (docs/PERF.md,
# "Measurement notes") must build with frame pointers, sample and
# symbolise in one command — its tables name the step loop, and its
# last line is the process's peak RSS, faults and CPU time.
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
    if ! printf '%s\n' "$profile" | tail -n 1 \
        | grep -Eq '^process: peak RSS [0-9.]+ MiB, [0-9]+ minor faults, [0-9]+ major faults, cpu [0-9.]+ ms$'; then
        echo "verify: the sampling profile does not end with the process's peak RSS and faults:" >&2
        echo "$profile" >&2
        exit 1
    fi
else
    echo "    skipped: the sampler needs cc, nm and an x86-64 host"
fi

# Alternator smoke: `scripts/alternate.sh` (docs/PERF.md, "Measurement
# notes") must run a workload's command lines under its `wait4` reader
# and tabulate them; one binary on both sides writes the same bytes.
echo "==> alternator smoke"
if command -v cc > /dev/null 2>&1; then
    table="$(scripts/alternate.sh target/release/canelyctl target/release/canelyctl trace-query 0 1)"
    case "$table" in
    *'operation      peak_rss_mib'*'outputs: identical in the last round') ;;
    *)
        echo "verify: the alternator did not tabulate one trace-query operation:" >&2
        echo "$table" >&2
        exit 1
        ;;
    esac
else
    echo "    skipped: the wait4 reader needs cc"
fi

# Horizon gate: a campaign run nobody captures keeps its bus as one
# window's counts and its log as the judged events, so its memory is set
# by its nodes, not by how long it runs. The federation campaign (4
# segments × 32 nodes) at 600 ms and at four times that must peak within
# 0.5 MiB of each other; keeping every bus record grew the longer run's
# peak by 6.3 MiB. Process peak RSS is the measure, which no test sees.
echo "==> campaign horizon gate"
if command -v cc > /dev/null 2>&1; then
    work="$(mktemp -d)"
    trap 'rm -rf "$work"' EXIT
    cc -O2 -o "$work/wait4" scripts/wait4.c
    peak_kib() {
        sed "s/^until 600ms\$/until $1/" scenarios/federation.campaign > "$work/$1.campaign"
        "$work/wait4" "$work/$1.report" target/release/canelyctl campaign run \
            --spec "$work/$1.campaign" --workers 1 --json > /dev/null
        read -r _ _ rss _ _ < "$work/$1.report"
        echo "$rss"
    }
    short_kib="$(peak_kib 600ms)"
    long_kib="$(peak_kib 2400ms)"
    echo "    peak RSS: 600 ms ${short_kib} KiB, 2400 ms ${long_kib} KiB"
    if [ "$long_kib" -gt $((short_kib + 512)) ]; then
        echo "verify: an uncaptured run's peak grows with its horizon (${short_kib} -> ${long_kib} KiB)" >&2
        exit 1
    fi
else
    echo "    skipped: the wait4 reader needs cc"
fi

# Campaign scaling gate: fanning the same matrix out to 8 workers must
# never be *slower* than running it on 1. On a multi-core host this
# also catches lost parallelism; on a single hardware thread the two
# legitimately tie, so the gate compares best-of-3 wall times with a
# 25% relative plus 50 ms absolute tolerance for scheduler and
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

# The line budget of ROADMAP.md's consolidation checklist: the lines
# of `crates/*/src` before each file's first top-level `#[cfg(test)]`,
# and every line under `scripts/` and of the `.rs` files of `examples/`.
echo "==> line count"
src="$(find crates/*/src -name '*.rs' | sort | xargs awk '
    FNR == 1 { skip = 0 }
    /^#\[cfg\(test\)\]/ { skip = 1 }
    !skip { n++ }
    END { print n + 0 }')"
scripts="$(cat scripts/* | wc -l)"
examples="$(find examples -name '*.rs' | xargs cat | wc -l)"
echo "    crates/*/src (non-test) $src, scripts/ $scripts, examples/ $examples," \
    "total $((src + scripts + examples))"
echo "==> verify: all green"
