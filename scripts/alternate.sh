#!/usr/bin/env sh
# Per-operation alternation of two `canelyctl` binaries over one
# benchmark workload: the command lines `benchmark/src/workloads.rs`
# writes for it, run by PARENT and CHILD in turn (PARENT first in odd
# rounds, CHILD first in even ones), each command under
# `scripts/wait4.c`.
#
# Usage: scripts/alternate.sh PARENT CHILD WORKLOAD [SEED] [ROUNDS]
#
#   WORKLOAD  matrix-small | matrix-telemetry | fed-4x32 | trace-query
#   SEED      the benchmark seed (default 0)
#   ROUNDS    parent/child pairs (default 10)
#
# Per step (named by the file its output goes to) and per operation
# (the sum of its steps; the highest peak RSS of them) it prints, for
# CPU ms, wall ms, peak RSS MiB and minor faults: the parent's median
# and inter-quartile range, the child's
# median, the parent/child ratio of the medians and the child's wins
# (rounds in which the child read strictly lower). It ends with whether
# the two binaries wrote the same bytes in the last round.

set -eu

if [ $# -lt 3 ] || [ $# -gt 5 ]; then
    echo "usage: scripts/alternate.sh PARENT CHILD WORKLOAD [SEED] [ROUNDS]" >&2
    exit 2
fi
root="$(cd "$(dirname "$0")/.." && pwd)"
parent="$(cd "$(dirname "$1")" && pwd)/$(basename "$1")"
child="$(cd "$(dirname "$2")" && pwd)/$(basename "$2")"
workload="$3"
seed="${4:-0}"
rounds="${5:-10}"
for bin in "$parent" "$child"; do
    [ -x "$bin" ] || { echo "alternate: \`$bin\` is not executable" >&2; exit 2; }
done
case "$rounds" in '' | *[!0-9]* | 0) echo "alternate: ROUNDS must be a positive count" >&2; exit 2 ;; esac
case "$seed" in '' | *[!0-9]*) echo "alternate: SEED must be a count" >&2; exit 2 ;; esac

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
cc -O2 -o "$work/wait4" "$root/scripts/wait4.c"

lo=$((1000 * seed))
# The workload's steps, one per line: `ARTIFACT ARGS...` (no argument
# holds a blank). Campaign specs are `workloads.rs`'s, for this seed.
case "$workload" in
matrix-small | matrix-telemetry)
    printf 'name %s\nnodes 3 4\ntm 30ms\nth 5ms\nseeds %s..%s\nerror-rate 0 0.01\ninconsistent-rate 0 0.005\ncrash-budget 0 1\ninaccessibility 0 2ms\nuntil 300ms\nsettle 150ms\n' \
        "$workload" "$lo" "$((lo + 32))" > "$work/input.campaign"
    steps="summary.json campaign run --spec $work/input.campaign --workers 1 --json"
    if [ "$workload" = matrix-telemetry ]; then
        steps="$steps --progress --metrics-json --progress-interval-ms 600000"
    fi
    ;;
fed-4x32)
    printf 'name fed-4x32\nnodes 32\ntm 30ms\nth 5ms\nseeds %s..%s\ncrash-budget 1\nsegments 4\ngateway 0\nbridge ring\nrelay below 8\ngateway-crash 0 1\nsegment-partition 0 20ms\ntraffic 12ms\nuntil 600ms\nsettle 250ms\n' \
        "$lo" "$((lo + 1))" > "$work/input.campaign"
    steps="summary.json campaign run --spec $work/input.campaign --workers 1 --json"
    ;;
trace-query)
    flags="--nodes 8 --traffic 2ms --crash 7@160ms --until 1500ms --error-rate 0.005 --seed $lo"
    steps="trace.jsonl trace $flags --jsonl
chain.txt tq chain --trace trace.jsonl --suspect 7
phases.txt tq phases --trace trace.jsonl
summary.txt tq summary --trace trace.jsonl
reexport.jsonl tq reexport --trace trace.jsonl
chrome.json trace $flags --chrome"
    ;;
*)
    echo "alternate: unknown workload \`$workload\`" >&2
    exit 2
    ;;
esac

# One operation of `side` with binary `bin`: every step in its own
# directory, each step's cost appended to `costs` as
# `side round step cpu wall rss faults`.
operation() {
    side="$1" bin="$2" round="$3"
    mkdir -p "$work/$side"
    printf '%s\n' "$steps" | {
        n=0
        while read -r artifact args; do
            n=$((n + 1))
            rm -f "$work/report"
            # shellcheck disable=SC2086 # the arguments split on blanks
            if ! (cd "$work/$side" && "$work/wait4" "$work/report" "$bin" $args \
                > "$artifact" 2> "$artifact.stderr"); then
                echo "alternate: $side step $n (\`$args\`) failed:" >&2
                cat "$work/$side/$artifact.stderr" >&2
                exit 1
            fi
            read -r cpu wall rss faults _ < "$work/report"
            echo "$side $round $n $cpu $wall $rss $faults" >> "$work/costs"
        done
    }
}

r=1
while [ "$r" -le "$rounds" ]; do
    if [ $((r % 2)) -eq 1 ]; then
        operation parent "$parent" "$r"
        operation child "$child" "$r"
    else
        operation child "$child" "$r"
        operation parent "$parent" "$r"
    fi
    r=$((r + 1))
done

echo "$workload, seed $seed, $rounds rounds (parent first in odd rounds)"
echo "parent: $parent"
echo "child:  $child"
# Each step is named by the file its output goes to.
printf '%s\n' "$steps" | awk -v costs="$work/costs" '
    function sort(a, n,    i, j, v) {
        for (i = 2; i <= n; i++) {
            v = a[i]
            for (j = i - 1; j >= 1 && a[j] > v; j--) a[j + 1] = a[j]
            a[j + 1] = v
        }
    }
    # The q-quantile of the n sorted values in a, interpolated.
    function quantile(a, n, q,    x, i) {
        x = 1 + (n - 1) * q
        i = int(x)
        return i >= n ? a[n] : a[i] + (x - i) * (a[i + 1] - a[i])
    }
    { name[NR] = $1 }
    END {
        steps = NR
        name[steps + 1] = "operation"
        while ((getline line < costs) > 0) {
            split(line, f, " ")
            side = f[1]; r = f[2] + 0; s = f[3] + 0
            if (r > rounds) rounds = r
            v[side, r, s, 1] = f[4]
            v[side, r, s, 2] = f[5]
            v[side, r, s, 3] = f[6] / 1024
            v[side, r, s, 4] = f[7]
            v[side, r, steps + 1, 1] += f[4]
            v[side, r, steps + 1, 2] += f[5]
            if (f[6] / 1024 > v[side, r, steps + 1, 3]) v[side, r, steps + 1, 3] = f[6] / 1024
            v[side, r, steps + 1, 4] += f[7]
        }
        split("cpu_ms wall_ms peak_rss_mib minor_faults", metric, " ")
        printf "%-14s %-13s %12s %10s %12s %7s %6s\n", "step", "metric", "parent", "IQR", "child", "ratio", "wins"
        for (s = 1; s <= steps + 1; s++) {
            if (s == 1 && steps == 1) s = 2
            for (m = 1; m <= 4; m++) {
                wins = 0
                for (r = 1; r <= rounds; r++) {
                    p[r] = v["parent", r, s, m]
                    c[r] = v["child", r, s, m]
                    if (c[r] < p[r]) wins++
                }
                sort(p, rounds)
                sort(c, rounds)
                pm = quantile(p, rounds, 0.5)
                cm = quantile(c, rounds, 0.5)
                iqr = quantile(p, rounds, 0.75) - quantile(p, rounds, 0.25)
                ratio = cm > 0 ? sprintf("%.3f", pm / cm) : "-"
                printf "%-14s %-13s %12.2f %10.2f %12.2f %7s %3d/%-3d\n", name[s], metric[m], pm, iqr, cm,
                    ratio, wins, rounds
            }
        }
    }'
printf '%s\n' "$steps" | while read -r artifact _; do
    cmp -s "$work/parent/$artifact" "$work/child/$artifact" || echo "differs: $artifact"
done > "$work/differs"
if [ -s "$work/differs" ]; then
    cat "$work/differs"
else
    echo "outputs: identical in the last round"
fi
