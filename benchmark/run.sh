#!/usr/bin/env bash
# The perf ledger's one command. Builds `canelyctl` (root workspace)
# and the `ledger` harness (this package) in release mode, offline,
# then hands every argument to the harness:
#
#   benchmark/run.sh                      full ledger: four workloads timed,
#                                         traced and probed; prints every
#                                         metric, writes benchmark/out/ledger.json
#   benchmark/run.sh --seed 1             … on the hold-out seed
#   benchmark/run.sh --workload fed-4x32  … one workload only
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         one run; last stdout line is JSON
#   benchmark/run.sh compare A.json B.json
#   benchmark/run.sh --pin                re-pin expected/digests.txt (seed 0)
#
# The full ledger also runs the harness's unit tests first.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

if [ ! -f Cargo.toml ] || [ ! -d crates ]; then
    echo "error: $root is not the repository (no Cargo.toml / crates): nothing to measure" >&2
    exit 2
fi

# One target directory for both builds; relative settings are taken
# from the repository root, where the caller stands.
target="${CARGO_TARGET_DIR:-target}"
case "$target" in /*) ;; *) target="$root/$target" ;; esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --bin canelyctl >&2
cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2

case "${1:-}" in
    compare | manifest) exec "$target/release/ledger" "$@" ;;
esac

# A single run (`--trace`) is timed by its caller; the full ledger
# first makes sure the harness itself is sound.
case " $* " in
    *" --trace "*) ;;
    *) cargo test --release --offline --manifest-path benchmark/Cargo.toml >&2 ;;
esac

exec "$target/release/ledger" --canelyctl "$target/release/canelyctl" --root "$root" "$@"
