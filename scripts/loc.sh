#!/usr/bin/env bash
# Prints the tracked size of the workspace's own Rust source, in lines:
# every committed .rs file under crates/*/src and src (unit tests included,
# shims, benches and integration tests excluded). ROADMAP.md records the
# number next to msgs/s; a PR states it before and after.
#
# With --non-test each file is cut at its first line-initial `#[cfg(test)]`,
# which is where this workspace keeps its unit-test modules.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
files() { git ls-files 'crates/*/src/*' 'src/*' | grep '\.rs$'; }
case "${1:-}" in
  "") files | xargs cat | wc -l ;;
  --non-test) files | xargs awk 'FNR == 1 { cut = 0 } /^#\[cfg\(test\)\]/ { cut = 1 } !cut' | wc -l ;;
  *) echo "usage: scripts/loc.sh [--non-test]" >&2; exit 2 ;;
esac
