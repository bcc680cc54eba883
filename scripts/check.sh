#!/usr/bin/env bash
# Tier-1 gate: everything a PR must pass before merging.
# Referenced from ROADMAP.md ("Tier-1 verify").
#
# Runs cargo fmt --check, the release build, clippy --all-targets with
# warnings as errors, cargo bench --no-run (the criterion suites must
# compile), cargo doc with warnings as errors, a build of the benchmark
# harness (benchmark/ may not change with the library, so an API break
# against it must fail here), and the full test suite; on success prints the
# ROADMAP's Rust LoC figure. The real-stack benchmark smoke
# (benchmark/run.sh) and the kernel gate (scripts/bench_gate.sh) are CI's
# separate bench-gate job.
#
# Usage: scripts/check.sh [--fast]
#   --fast            skip the release build and lint debug profile only —
#                     the quick pre-push loop; CI still runs the full gate.
#   CHECK_SKIP_SOAK=1 skip the long chaos-soak, overload-soak, and
#                     outage-soak tests (CI runs them as their own jobs so
#                     the main gate stays fast).
set -euo pipefail
cd "$(dirname "$0")/.."

FAST=0
for arg in "$@"; do
  case "$arg" in
    --fast) FAST=1 ;;
    *)
      echo "unknown flag: $arg (usage: scripts/check.sh [--fast])" >&2
      exit 2
      ;;
  esac
done

echo "==> cargo fmt --all --check"
cargo fmt --all --check

if [ "$FAST" = 1 ]; then
  echo "==> cargo clippy --workspace --all-targets -- -D warnings"
  cargo clippy --workspace --all-targets -- -D warnings
else
  echo "==> cargo build --release"
  cargo build --release

  echo "==> cargo clippy --workspace --release --all-targets -- -D warnings"
  cargo clippy --workspace --release --all-targets -- -D warnings

  echo "==> cargo bench --no-run (criterion benches compile)"
  cargo bench --workspace --no-run
fi

echo "==> cargo doc --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "==> cargo build --manifest-path benchmark/Cargo.toml (the harness compiles)"
cargo build --offline --quiet --manifest-path benchmark/Cargo.toml

if [ "${CHECK_SKIP_SOAK:-0}" = 1 ]; then
  echo "==> cargo test -q (chaos + overload + outage soaks skipped)"
  cargo test -q -- --skip chaos_soak_lifecycle --skip overload_soak --skip outage_soak
else
  echo "==> cargo test -q"
  cargo test -q
fi

echo "tier-1 gate: OK ($(find crates tests examples -name '*.rs' | xargs cat | wc -l) Rust lines under crates/ tests/ examples/)"
