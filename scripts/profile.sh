#!/usr/bin/env sh
# Function-level sampling profile of one `canelyctl` invocation: the
# top-N symbols by self time and by inclusive time (method and caveats:
# docs/PERF.md, "Measurement notes").
#
# Builds `canelyctl` with frame pointers into target/profile (never the
# tree's target/release), preloads scripts/sampler.c into it — a 4 kHz
# SIGALRM frame-pointer sampler — and symbolises the samples against
# `nm -C -n`. Profile one worker (`--workers 1`): the sampled thread is
# then the whole program. The report's first line is the
# `[profile.release]` the binary was built with: profiles of builds
# that inline differently compare only as a whole.
#
# Usage: scripts/profile.sh [-n TOP] CANELYCTL-ARGS...
#   e.g. scripts/profile.sh campaign run --spec scenarios/federation.campaign --workers 1

set -eu

cd "$(dirname "$0")/.."

top=10
if [ "${1:-}" = "-n" ]; then
    top="$2"
    shift 2
fi
if [ "$#" -eq 0 ]; then
    echo "usage: scripts/profile.sh [-n TOP] CANELYCTL-ARGS..." >&2
    exit 2
fi
for tool in cc nm; do
    if ! command -v "$tool" > /dev/null 2>&1; then
        echo "profile: \`$tool\` not found; a profile needs a C compiler and nm" >&2
        exit 2
    fi
done

out="$PWD/target/profile"
RUSTFLAGS="-C force-frame-pointers=yes" \
    cargo build --release --offline --quiet --bin canelyctl --target-dir "$out"
mkdir -p "$out/sampler"
cc -O2 -shared -fPIC -o "$out/sampler/sampler.so" scripts/sampler.c
nm -C -n --defined-only "$out/release/canelyctl" > "$out/sampler/canelyctl.syms"
SAMPLER_OUT="$out/sampler/report.txt" SAMPLER_SYMS="$out/sampler/canelyctl.syms" \
    SAMPLER_TOP="$top" LD_PRELOAD="$out/sampler/sampler.so" \
    "$out/release/canelyctl" "$@" > /dev/null
settings="$(awk '/^\[/ { on = $0 == "[profile.release]"; next }
    on && /=/ { sub(/ *#.*/, ""); printf "%s%s", sep, $0; sep = ", " }' Cargo.toml)"
overrides="$(env | grep '^CARGO_PROFILE_RELEASE_' | sort | tr '\n' ' ')"
echo "profile.release: ${settings:-cargo defaults}${overrides:+; env ${overrides% }}; RUSTFLAGS -C force-frame-pointers=yes"
cat "$out/sampler/report.txt"
