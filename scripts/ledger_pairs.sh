#!/usr/bin/env bash
# The ledger comparison every performance PR states its numbers with
# (EXPERIMENTS.md "Native-speed ledger comparisons"): the parent commit
# against this checkout, each built once into its own target directory, the
# two binaries run alternately — the side that goes first alternating from
# pair to pair — with one fresh seed per pair.
#
#   scripts/ledger_pairs.sh <parent-sha> [workload…]
#
# Without workloads, the gated ones of BENCHMARK.json. Prints the table
# EXPERIMENTS.md carries (median [q1–q3] per side, ratio, wins, the parent's
# quartile spread, and the median [q1–q3] of the per-pair ratio change ÷
# parent: the host's slow and fast stretches take both runs of a pair
# together, so the ratio is steadier than either side — then two two-sided
# exact tests of those pairs, ties dropped: the sign test, the probability of a
# split of wins at least this lopsided if neither side were better, and the
# Wilcoxon signed-rank test of the per-pair log ratios, which also weighs how
# far each pair moved: ten pairs cannot go below 0.002 on either, but 8 of 10
# wins with the two losses the smallest moves read 0.0098 there, 0.11 on the
# sign test) and appends one JSON line per workload × metric to
# BENCH_HISTORY.jsonl, which is committed: the ledger's trajectory. Traced
# runs (TRACE=1) are diagnostics: tabulated, not recorded.
#
# Environment: PAIRS (10), RUN_SECONDS (BENCHMARK.json's run_seconds),
# TRACE (0; 1 tabulates the per-layer metrics of traced runs), SEED_BASE
# (seeds are SEED_BASE+1 … SEED_BASE+PAIRS; default: the clock, i.e. fresh),
# PR (label for the history lines), LEDGER_PAIRS_DIR (target/ledger_pairs:
# the parent's files, both builds and every run's result line).
#
# Quartiles are Python's statistics.quantiles(v, n=4), the rule the
# benchmark's acceptance check uses. The binaries are copied once built, so
# the source may be edited again while the pairs run.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
if [ $# -lt 1 ]; then
  echo "usage: scripts/ledger_pairs.sh <parent-sha> [workload…]" >&2
  exit 2
fi
parent=$(git rev-parse --short "$1^{commit}")
shift
change=$(git rev-parse --short HEAD)
[ -z "$(git status --porcelain --untracked-files=no)" ] || change="$change+dirty"

gated() { grep -o '{"name": "[a-z_0-9]*", "why"' BENCHMARK.json | cut -d'"' -f4; }
workloads=("$@")
[ ${#workloads[@]} -gt 0 ] || mapfile -t workloads < <(gated)
pairs=${PAIRS:-10}
seconds=${RUN_SECONDS:-$(grep -o '"run_seconds": [0-9]*' BENCHMARK.json | grep -o '[0-9]*$')}
trace=${TRACE:-0}
seed_base=${SEED_BASE:-$(($(date +%s) % 1000000))}
work=$(mkdir -p "${LEDGER_PAIRS_DIR:-target/ledger_pairs}" && cd "${LEDGER_PAIRS_DIR:-target/ledger_pairs}" && pwd)

# The parent's committed files in a directory of their own, as the benchmark
# driver takes them; `git archive` leaves nothing behind in .git.
rm -rf "$work/parent" "$work/runs"
mkdir -p "$work/parent" "$work/runs"
git archive "$parent" | tar -x -C "$work/parent"
build() { # <checkout> <side>
  CARGO_TARGET_DIR="$work/target-$2" cargo build --release --offline --quiet \
    --manifest-path "$1/perf_ledger/Cargo.toml" >&2
  cp "$work/target-$2/release/perf_ledger" "$work/ledger-$2"
}
build "$work/parent" parent
build . change

echo "parent $parent, change $change, $pairs pairs, --seconds $seconds --trace $trace," \
  "seeds $((seed_base + 1))–$((seed_base + pairs)), $(nproc) CPUs" >&2
for workload in "${workloads[@]}"; do
  for pair in $(seq "$pairs"); do
    order=(parent change)
    [ $((pair % 2)) -eq 1 ] || order=(change parent)
    for side in "${order[@]}"; do
      out="$work/runs/$workload.$side.$pair"
      # Exit code 2 is a failed output check: the run is counted, not hidden.
      "$work/ledger-$side" --workload "$workload" --seed $((seed_base + pair)) \
        --seconds "$seconds" --trace "$trace" 2>/dev/null | tail -n 1 >"$out" || true
      echo "  $workload pair $pair $side: $(cut -c1-120 "$out")" >&2
    done
  done
done

echo "| workload | metric | parent median [q1–q3] | change median [q1–q3] | change/parent | change wins | parent IQR | medians apart | parent IQR ÷ median | per-pair change/parent median [q1–q3] | sign test p | signed-rank p |"
echo "|---|---|---|---|---|---|---|---|---|---|---|---|"
for workload in "${workloads[@]}"; do
  # One line per run and metric: side pair metric value unit; then the
  # counts of the run under the metric names "attempted", "failed", "correct".
  for side in parent change; do
    for pair in $(seq "$pairs"); do
      line=$(cat "$work/runs/$workload.$side.$pair")
      grep -o '"[A-Za-z0-9_.]*": {"value": [^,]*, "unit": "[^"]*"}' <<<"$line" |
        sed -E "s/^\"([^\"]*)\": \{\"value\": ([^,]*), \"unit\": \"([^\"]*)\"\}/$side $pair \1 \2 \3/" || true
      for count in attempted failed; do
        echo "$side $pair $count $(grep -o "\"$count\": [0-9]*" <<<"$line" | grep -o '[0-9]*$' || echo 0) runs"
      done
      grep -q '"correct": true' <<<"$line" && echo "$side $pair correct 1 runs" || echo "$side $pair correct 0 runs"
    done
  done | awk -v workload="$workload" -v pairs="$pairs" -v parent="$parent" -v change="$change" \
    -v seconds="$seconds" -v trace="$trace" -v first=$((seed_base + 1)) -v last=$((seed_base + pairs)) \
    -v pr="${PR:-}" -v date="$(date +%F)" -v history=BENCH_HISTORY.jsonl '
    # Which way is better, from BENCHMARK.json.
    FILENAME == "BENCHMARK.json" {
      while (match($0, /"name": "[^"]*", "unit": "[^"]*", "better": "[a-z]*"/)) {
        split(substr($0, RSTART, RLENGTH), part, "\"")
        better[part[4]] = part[12]
        $0 = substr($0, RSTART + RLENGTH)
      }
      next
    }
    { value[$1, $3, $2] = $4; unit[$3] = $5; if (!($3 in seen)) { seen[$3] = 1; order[++metrics] = $3 } }
    function sorted(side, metric, v,    n, i, j, t) {
      n = 0
      for (i = 1; i <= pairs; i++) if ((side, metric, i) in value) v[++n] = value[side, metric, i] + 0
      for (i = 2; i <= n; i++) for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
      return n
    }
    function cut(v, n, i,    j, delta) { # statistics.quantiles(v, n=4)[i-1], the exclusive method
      j = int(i * (n + 1) / 4); if (j < 1) j = 1; if (j > n - 1) j = n - 1
      delta = i * (n + 1) - j * 4
      return (v[j] * (4 - delta) + v[j + 1] * delta) / 4
    }
    function sign_p(wins, n,    k, i, term, sum) { # P(split at least this uneven | p = 1/2), both tails
      if (n < 1) return 1
      k = wins < n - wins ? wins : n - wins
      term = sum = 0.5 ^ n
      for (i = 1; i <= k; i++) { term *= (n - i + 1) / i; sum += term }
      return 2 * sum > 1 ? 1 : 2 * sum
    }
    function signed_rank_p(d, n,    a, up, r, cnt, i, j, k, t, s, top, obs, dev, hits) { # both tails, exact
      if (n < 1) return 1
      for (i = 1; i <= n; i++) { a[i] = d[i] < 0 ? -d[i] : d[i]; up[i] = d[i] > 0 }
      for (i = 2; i <= n; i++) for (j = i; j > 1 && a[j - 1] > a[j]; j--) {
        t = a[j]; a[j] = a[j - 1]; a[j - 1] = t; t = up[j]; up[j] = up[j - 1]; up[j - 1] = t
      }
      # Ranks of |d|, tied magnitudes sharing their average, doubled to stay integers.
      for (i = 1; i <= n; i = j) {
        for (j = i + 1; j <= n && a[j] == a[i]; j++) ;
        for (k = i; k < j; k++) r[k] = i + j - 1
      }
      # How many of the 2^n sign patterns give each (doubled) sum of positive ranks.
      cnt[0] = 1; top = 0 # not left unset: mawk would compare it with 0 as a string
      for (k = 1; k <= n; k++) {
        for (s = top; s >= 0; s--) if (cnt[s]) cnt[s + r[k]] += cnt[s]
        top += r[k]
      }
      for (k = 1; k <= n; k++) if (up[k]) obs += r[k]
      dev = 2 * obs - top; if (dev < 0) dev = -dev
      for (s = 0; s <= top; s++) if (cnt[s] && (2 * s - top >= dev || top - 2 * s >= dev)) hits += cnt[s]
      return hits / 2 ^ n
    }
    function show(x) { return x >= 1000 ? sprintf("%.0f", x) : x >= 10 ? sprintf("%.2f", x) : sprintf("%.4g", x) }
    function total(metric, side,    i, sum) { for (i = 1; i <= pairs; i++) sum += value[side, metric, i]; return sum + 0 }
    END {
      for (m = 1; m <= metrics; m++) {
        metric = order[m]
        if (unit[metric] == "runs") continue
        np = sorted("parent", metric, p); nc = sorted("change", metric, c)
        if (np < 2 || nc < 2) continue
        wins = ties = nd = 0
        for (i = 1; i <= pairs; i++) {
          a = value["parent", metric, i] + 0; b = value["change", metric, i] + 0
          if (a == b) ties++
          else if ((better[metric] == "higher") == (b > a)) wins++
          if (a) value["ratio", metric, i] = b / a
          if (a > 0 && b > 0 && a != b) d[++nd] = log(b / a)
        }
        nr = sorted("ratio", metric, r)
        rm = r1 = r3 = 0
        if (nr >= 2) { rm = cut(r, nr, 2); r1 = cut(r, nr, 1); r3 = cut(r, nr, 3) }
        pm = cut(p, np, 2); p1 = cut(p, np, 1); p3 = cut(p, np, 3)
        cm = cut(c, nc, 2); c1 = cut(c, nc, 1); c3 = cut(c, nc, 3)
        apart = cm > pm ? cm - pm : pm - cm
        sign = sign_p(wins, pairs - ties); rank = signed_rank_p(d, nd)
        printf "| %s | %s (%s) | %s [%s–%s] | %s [%s–%s] | %s | %d/%d%s | %s | %s | %s | %s | %.3g | %.3g |\n", workload, metric,
          unit[metric], show(pm), show(p1), show(p3), show(cm), show(c1), show(c3),
          pm ? sprintf("%.2f×", cm / pm) : "–", wins, pairs, ties ? " (+" ties " ties)" : "",
          show(p3 - p1), show(apart), pm ? sprintf("%.0f%%", 100 * (p3 - p1) / pm) : "–",
          (nr < 2 ? "–" : sprintf("%.2f× [%.2f–%.2f]", rm, r1, r3)), sign, rank
        if (trace) continue
        printf "{\"date\": \"%s\", \"pr\": \"%s\", \"parent\": \"%s\", \"change\": \"%s\", \"workload\": \"%s\", " \
          "\"metric\": \"%s\", \"unit\": \"%s\", \"better\": \"%s\", \"pairs\": %d, \"seconds\": %d, " \
          "\"seeds\": [%d, %d], \"parent_median\": %.6g, \"parent_q1\": %.6g, \"parent_q3\": %.6g, " \
          "\"change_median\": %.6g, \"change_q1\": %.6g, \"change_q3\": %.6g, \"wins\": %d, \"ties\": %d, " \
          "\"failed_parent\": %d, \"failed_change\": %d, \"ratio_median\": %.4g, \"ratio_q1\": %.4g, " \
          "\"ratio_q3\": %.4g, \"sign_p\": %.4g, \"signed_rank_p\": %.4g}\n", date, pr, parent, change,
          workload, metric, unit[metric], better[metric], pairs, seconds, first, last, pm, p1, p3, cm, c1, c3,
          wins, ties, total("failed", "parent"), total("failed", "change"), rm, r1, r3, sign, rank >>history
      }
      printf "<!-- %s: %d pairs, attempted %d, failed %d, incorrect runs %d -->\n", workload, pairs,
        total("attempted", "parent") + total("attempted", "change"), total("failed", "parent") + total("failed", "change"),
        2 * pairs - total("correct", "parent") - total("correct", "change")
    }' BENCHMARK.json -
done
