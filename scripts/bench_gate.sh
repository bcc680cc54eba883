#!/usr/bin/env bash
# Kernel-regression gate: re-runs bench_kernels and compares the fresh
# BENCH_kernels.json against the committed one. Fails if a kernel's capped
# same-run speedup over its reference (`kernel_speedup`, or the aggregate
# `min_kernel_speedup`) fell below baseline x 0.85. Everything else the
# repo measures is the real-stack benchmark: benchmark/run.sh.
# The committed file is restored afterwards either way; the fresh report
# is also stashed under target/bench-candidates/ so CI can upload it when
# the gate fails.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ ! -f BENCH_kernels.json ]; then
  echo "bench gate: no committed BENCH_kernels.json to compare against" >&2
  exit 1
fi

mkdir -p target/bench-candidates
baseline="$(mktemp)"
cp BENCH_kernels.json "$baseline"
restore() {
  cp "$baseline" BENCH_kernels.json
  rm -f "$baseline"
}
trap restore EXIT

echo "==> cargo run --release -p rottnest-bench --bin bench_kernels"
cargo run --release -p rottnest-bench --bin bench_kernels
cp BENCH_kernels.json target/bench-candidates/

echo "==> cargo run --release -p rottnest-bench --bin bench_gate"
cargo run --release -p rottnest-bench --bin bench_gate -- "$baseline" BENCH_kernels.json

echo "bench_gate: OK"
