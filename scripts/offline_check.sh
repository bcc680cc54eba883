#!/usr/bin/env bash
# Tests and lints parts of the workspace with no crate registry.
#
# The workspace itself does not resolve offline (`proptest`, `criterion`), so
# this builds a throw-away workspace that path-depends on `crates/*`, patches
# `bytes`/`crossbeam`/`parking_lot`/`rand` to the std-only stand-ins under
# `benchmark/stubs/` (read only) and runs, for everything named:
#
#   cargo test   --release --offline
#   cargo clippy --release --offline -- -D warnings
#
# and closes by building the benchmark harness, which may not change with the
# library: an API break against it fails here, not in the bench job.
#
# Usage: scripts/offline_check.sh <crate|tests-file|all>...
#   crate        a directory under crates/ (fm, format, object-store, ...):
#                its unit tests and its own tests/*.rs
#   tests-file   tests/tests/NAME.rs, or just NAME: that integration test
#   all          every directory under crates/ and every tests/tests/*.rs
#                (tier-1 as far as this image can run it)
#
# `proptest!` blocks compile to nothing here (an inert stand-in generated
# below), so property tests are skipped — said once per crate; such a crate's
# test target is not linted either, since helpers only the property tests use
# would read as dead code. Files that use `proptest` or `criterion` beyond
# that are skipped with a message. CI has the registry and runs everything
# through scripts/check.sh.
#
# The workspace (and its target directory, so reruns are incremental) lives
# in ${OFFLINE_CHECK_DIR:-${TMPDIR:-/tmp}/rottnest-offline-check}.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
work="${OFFLINE_CHECK_DIR:-${TMPDIR:-/tmp}/rottnest-offline-check}"

if [ "$#" -eq 0 ]; then
  echo "usage: scripts/offline_check.sh <crate|tests-file|all>..." >&2
  exit 2
fi

args=()
for arg in "$@"; do
  if [ "$arg" = all ]; then
    for path in "$root"/crates/*/ "$root"/tests/tests/*.rs; do
      args+=("$(basename "$path" .rs)")
    done
  else
    args+=("$arg")
  fi
done

# Directory under crates/ of a workspace package (`rottnest` lives in core).
crate_dir_of() {
  sed -n "s|^$1 = { path = \"crates/\\([^\"]*\\)\" }\$|\\1|p" "$root/Cargo.toml"
}

# Version requirement of an external workspace dependency.
version_of() {
  sed -n "s|^$1 = \"\\([^\"]*\\)\"\$|\\1|p" "$root/Cargo.toml"
}

# Prints the `[dependencies]` and `[dev-dependencies]` of manifest $1 as
# plain path / version dependencies (every entry there is either
# `{ workspace = true }` or a `{ path = ".." }` relative to the manifest).
deps_of() {
  local manifest="$1" section="" line name dir rel
  while IFS= read -r line; do
    case "$line" in
      "["*) section="$line" ;;
      *"="*)
        case "$section" in "[dependencies]" | "[dev-dependencies]") ;; *) continue ;; esac
        name="${line%% *}"
        case "$line" in
          *"workspace = true"*)
            dir="$(crate_dir_of "$name")"
            if [ -n "$dir" ]; then
              echo "$name = { path = \"$root/crates/$dir\" }"
            elif [ "$name" != criterion ]; then
              echo "$name = \"$(version_of "$name")\""
            fi
            ;;
          *"path = "*)
            rel="${line#*path = \"}"
            rel="${rel%%\"*}"
            echo "$name = { path = \"$(cd "$(dirname "$manifest")/$rel" && pwd)\" }"
            ;;
        esac
        ;;
    esac
  done <"$manifest" | sort -u
}

package_name_of() {
  sed -n 's|^name = "\([^"]*\)"$|\1|p' "$1" | head -n 1
}

mkdir -p "$work/proptest/src"
cat >"$work/proptest/Cargo.toml" <<'EOF'
[package]
name = "proptest"
version = "1.99.0"
edition = "2021"
publish = false
EOF
cat >"$work/proptest/src/lib.rs" <<'EOF'
//! Inert stand-in: `proptest!` blocks compile to nothing.
#[macro_export]
macro_rules! proptest {
    ($($body:tt)*) => {};
}
pub mod prelude {
    pub use crate::proptest;
}
EOF

members=()
lint_all_targets=()
lint_lib_only=()
test_files=()
for arg in "${args[@]}"; do
  name="$(basename "$arg" .rs)"
  if [ -d "$root/crates/$arg" ]; then
    if [ "$arg" = bench ]; then
      echo "skip: crates/bench needs criterion" >&2
      continue
    fi
    manifest="$root/crates/$arg/Cargo.toml"
    package="$(package_name_of "$manifest")"
    pkg_dir="$work/unit-$arg"
    mkdir -p "$pkg_dir"
    {
      echo "[package]"
      echo "name = \"unit-$arg\""
      echo "version = \"0.0.0\""
      echo "edition = \"2021\""
      echo "publish = false"
      echo
      echo "[lib]"
      echo "name = \"${package//-/_}\""
      echo "path = \"$root/crates/$arg/src/lib.rs\""
      echo
      echo "[dependencies]"
      deps_of "$manifest"
      for file in "$root/crates/$arg"/tests/*.rs; do
        [ -f "$file" ] || continue
        if grep -qs "proptest\|criterion" "$file"; then
          echo "skip: ${file#"$root"/} needs proptest/criterion" >&2
          continue
        fi
        echo
        echo "[[test]]"
        echo "name = \"$(basename "$file" .rs)\""
        echo "path = \"$file\""
      done
    } >"$pkg_dir/Cargo.toml"
    members+=("unit-$arg")
    if grep -rqs "proptest!" "$root/crates/$arg/src"; then
      n="$(grep -rhs -A1 "#\[test\]" "$root/crates/$arg/src" | grep -c "fn prop_" || true)"
      echo "note: crates/$arg: proptest! blocks are skipped here (about $n property tests); linting the lib target only" >&2
      lint_lib_only+=("unit-$arg")
    else
      lint_all_targets+=("unit-$arg")
    fi
  elif [ -f "$root/tests/tests/$name.rs" ]; then
    if grep -qs "proptest\|criterion" "$root/tests/tests/$name.rs"; then
      echo "skip: tests/tests/$name.rs needs proptest/criterion" >&2
      continue
    fi
    if [ "$name" = golden_bytes ]; then
      echo "skip: tests/tests/golden_bytes.rs pins hashes of inputs drawn from the real rand; the stand-in draws differently" >&2
      continue
    fi
    test_files+=("$name")
  else
    echo "unknown argument: $arg (neither crates/$arg nor tests/tests/$name.rs)" >&2
    exit 2
  fi
done

if [ "${#test_files[@]}" -gt 0 ]; then
  pkg_dir="$work/integration"
  mkdir -p "$pkg_dir"
  {
    echo "[package]"
    echo "name = \"integration\""
    echo "version = \"0.0.0\""
    echo "edition = \"2021\""
    echo "publish = false"
    echo
    echo "[lib]"
    echo "name = \"rottnest_integration\""
    echo "path = \"$root/tests/lib.rs\""
    echo
    echo "[dependencies]"
    deps_of "$root/tests/Cargo.toml"
    for name in "${test_files[@]}"; do
      echo
      echo "[[test]]"
      echo "name = \"$name\""
      echo "path = \"$root/tests/tests/$name.rs\""
    done
  } >"$pkg_dir/Cargo.toml"
  members+=("integration")
  lint_all_targets+=("integration")
fi

if [ "${#members[@]}" -eq 0 ]; then
  echo "nothing left to check" >&2
  exit 0
fi

{
  echo "[workspace]"
  echo "resolver = \"2\""
  printf 'members = ['
  printf '"%s", ' "${members[@]}"
  echo "]"
  echo
  echo "[patch.crates-io]"
  for stub in bytes crossbeam parking_lot rand; do
    echo "$stub = { path = \"$root/benchmark/stubs/$stub\" }"
  done
  echo "proptest = { path = \"$work/proptest\" }"
} >"$work/Cargo.toml"
# A lock file from an earlier argument list may name packages that are gone.
rm -f "$work/Cargo.lock"

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$work/target}"
cd "$work"

packages=()
for m in "${members[@]}"; do
  packages+=(-p "$m")
done
echo "==> cargo test --release --offline --no-fail-fast --lib --tests ${packages[*]}"
cargo test --release --offline --no-fail-fast --lib --tests "${packages[@]}"

if [ "${#lint_all_targets[@]}" -gt 0 ]; then
  packages=()
  for m in "${lint_all_targets[@]}"; do
    packages+=(-p "$m")
  done
  echo "==> cargo clippy --release --offline --lib --tests ${packages[*]} -- -D warnings"
  cargo clippy --release --offline --lib --tests "${packages[@]}" -- -D warnings
fi
if [ "${#lint_lib_only[@]}" -gt 0 ]; then
  packages=()
  for m in "${lint_lib_only[@]}"; do
    packages+=(-p "$m")
  done
  echo "==> cargo clippy --release --offline --lib ${packages[*]} -- -D warnings"
  cargo clippy --release --offline --lib "${packages[@]}" -- -D warnings
fi

echo "==> cargo build --offline --manifest-path benchmark/Cargo.toml (the harness compiles)"
cargo build --offline --quiet --manifest-path "$root/benchmark/Cargo.toml"

echo "offline check: OK"
