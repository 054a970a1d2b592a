#!/usr/bin/env bash
# The benchmark's one command. Builds the harness (release, offline) and runs it.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload; the last line of stdout is the result JSON.
#   benchmark/run.sh [--seed N] [--seconds S]
#       the whole suite: every workload untraced and traced, each in its own
#       process; prints every metric and writes benchmark/out/results.json.
#   benchmark/run.sh spread|compare ...
#       see src/cli.rs.
#
# Run it from the repository root. Everything it writes goes under
# benchmark/out/ and the cargo target directory.
set -euo pipefail
here="$(dirname "$0")"
# The engine sizes its pools from GSLS_THREADS; measure the default.
unset GSLS_THREADS
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet \
  --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
export GSLS_BENCH_OUT="${GSLS_BENCH_OUT:-$here/out}"
exec "$target/release/gsls-benchmark" "$@"
