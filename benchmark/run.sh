#!/usr/bin/env bash
# Build the benchmark harness and run it. Every argument goes to the
# harness; `run.sh --help` lists them. Run from anywhere: paths are taken
# from this script's location.
#
#   benchmark/run.sh                      every workload, one process each
#   benchmark/run.sh --trace              ... plus the traced per-layer run
#   benchmark/run.sh --check-repeat       two rounds, compared to the bounds
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         one run; last stdout line is JSON
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# Knobs of the measured code that would change what is measured.
# GPU_SIM_HOST_THREADS is left alone: its default is every core, and the
# header prints the count in effect.
unset PROTO_FUSION_THRESHOLD GPU_SIM_CACHE_BUDGET_MB GPU_SIM_HOST_JOBS

# The result line must stay last on stdout, so the build talks on stderr.
cargo build --release --offline --locked --manifest-path "$here/Cargo.toml" 1>&2

target="${CARGO_TARGET_DIR:-$here/target}"
commit="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unversioned)"
echo "# run.sh: nproc $(nproc) | $(rustc -V) | commit $commit"
exec "$target/release/harness" --dir "$here" "$@"
