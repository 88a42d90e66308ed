#!/usr/bin/env bash
# Builds the benchmark package and runs it.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--trace]
#       all five workloads, each in its own process; writes
#       benchmark/out/results.json (and a trace per workload with --trace)
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one workload; the last line of output is the result as JSON
#
# The package has its own [workspace] table and path dependencies on
# ../crates and ../shims, so this touches nothing outside benchmark/
# (and $CARGO_TARGET_DIR, when the caller sets one).
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
target="${CARGO_TARGET_DIR:-benchmark/target}"
exec "$target/release/ftjvm-benchmark" "$@"
