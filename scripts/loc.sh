#!/usr/bin/env bash
# Prints the tracked size of the workspace's own Rust source, in lines:
# every committed .rs file under crates/*/src and src (unit tests included,
# shims, benches and integration tests excluded). ROADMAP.md records the
# number next to msgs/s; a PR states it before and after.
#
# With --non-test each file is cut at its first line-initial `#[cfg(test)]`,
# which is where this workspace keeps its unit-test modules.
#
# With --check both numbers are printed and compared with the ceilings
# committed in scripts/loc.max (all lines, then non-test lines): exit 1
# when either is above its ceiling. A PR that raises a ceiling edits that
# file and says why.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
files() { git ls-files 'crates/*/src/*' 'src/*' | grep '\.rs$'; }
all() { files | xargs cat | wc -l; }
non_test() { files | xargs awk 'FNR == 1 { cut = 0 } /^#\[cfg\(test\)\]/ { cut = 1 } !cut' | wc -l; }
case "${1:-}" in
  "") all ;;
  --non-test) non_test ;;
  --check)
    # shellcheck disable=SC2046
    set -- $(grep -v '^#' scripts/loc.max)
    echo "tracked Rust source lines $(all) (ceiling $1)"
    echo "before each file's first #[cfg(test)] $(non_test) (ceiling $2)"
    [ "$(all)" -le "$1" ] && [ "$(non_test)" -le "$2" ] ;;
  *) echo "usage: scripts/loc.sh [--non-test | --check]" >&2; exit 2 ;;
esac
