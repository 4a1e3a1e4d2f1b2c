#!/usr/bin/env bash
# Builds the benchmark in release mode and runs it.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1   one run (the driver's form)
#   benchmark/run.sh [--seed N] [--seconds S] [--trace] [--smoke]       all four workloads
#   benchmark/run.sh --aa N [--workload NAME]                           N same-code runs vs the bounds
#
# Run from the root of a checkout.  The last line of a single run is the
# result object; see README.md for everything else it prints.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

# Quiet on success, so that the result stays the last line of the output.
if ! build_log="$(CARGO_TARGET_DIR="$target" cargo build --release --offline \
        --manifest-path "$here/Cargo.toml" 2>&1)"; then
    echo "$build_log" >&2
    echo "benchmark/run.sh: the build failed" >&2
    exit 3
fi

# Pin glibc's allocator policy: with the default (dynamic) mmap threshold a
# repetition of the set-up is 2x slower or faster depending on how many
# came before it.  No trimming and a fixed, high mmap threshold make every
# repetition after the first behave the same.
export MALLOC_MMAP_THRESHOLD_=33554432
export MALLOC_TRIM_THRESHOLD_=4294967296
export MALLOC_TOP_PAD_=67108864

export QGP_BENCH_OUT="$here/out"
exec "$target/release/qgp-benchmark" "$@"
