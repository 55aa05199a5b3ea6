#!/usr/bin/env bash
# Prints the tracked size of the workspace's own Rust source, in lines:
# every committed .rs file under crates/*/src and src (unit tests included,
# shims, benches and integration tests excluded). ROADMAP.md records the
# number next to msgs/s; a PR states it before and after.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
git ls-files 'crates/*/src/*' 'src/*' | grep '\.rs$' | xargs cat | wc -l
