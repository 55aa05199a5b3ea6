#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument goes to the
# binary (see README.md). Run from anywhere inside a checkout.
#
# The build goes to $CARGO_TARGET_DIR when that is set, else to
# target/perf_ledger under the repository root, which the root .gitignore
# already covers. The repository's own manifest and lock file are not read
# for writing: perf_ledger is a workspace of its own.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/perf_ledger}"

build_start=$(date +%s%N)
cargo build --release --offline --quiet --manifest-path perf_ledger/Cargo.toml >&2
build_ms=$(( ($(date +%s%N) - build_start) / 1000000 ))
printf 'build_s %d.%03d\n' $((build_ms / 1000)) $((build_ms % 1000))

exec "$CARGO_TARGET_DIR/release/perf_ledger" "$@"
