#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it from the repository root.
#
#   one workload, the driver's form:
#     benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   the suite, one process per workload, results in benchmark/out/:
#     benchmark/run.sh [--seed N] [--workload W] [--traced] [--quick] [--check-repeat]
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# Relative CARGO_TARGET_DIR values resolve against the repository root.
target="${CARGO_TARGET_DIR:-$here/target}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

BENCH_RUSTC="$(rustc --version)"
BENCH_COMMIT="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
export BENCH_RUSTC BENCH_COMMIT
# A fixed address layout: with randomisation on, run-to-run differences in
# cache and TLB aliasing move the tightest loop (uuid_warm) by a tenth.
if setarch "$(uname -m)" -R true 2>/dev/null; then
    exec setarch "$(uname -m)" -R "$target/release/benchmark" "$@"
fi
exec "$target/release/benchmark" "$@"
