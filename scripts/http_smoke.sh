#!/usr/bin/env bash
# HTTP exposition smoke test: start a traced two-shard rjms-server with
# the HTTP endpoint, the SLO engine, the saturation forecaster, flow
# control, and the per-topic observatory, drive a workload through the
# TCP clients, then validate every route of the table in src/http.rs:
# /metrics, /snapshot.json, /traces, /model, /flow, /history, /slo
# (objectives, forecast, alert feed), /shards and /topics — and that
# /alerts and /forecast, folded into /slo, are gone. Last, `rjms-top
# --once` draws a frame from the same server, and refuses an unknown flag.
#
# Usage: scripts/http_smoke.sh [path-to-target-dir]
# Exits non-zero on any failed check.

set -euo pipefail

TARGET="${1:-target/release}"
SERVER="$TARGET/rjms-server"
PUB="$TARGET/rjms-pub"
SUB="$TARGET/rjms-sub"
TOP="$TARGET/rjms-top"
HTTP_ADDR="127.0.0.1:7881"
LISTEN_ADDR="127.0.0.1:7871"
COUNT=200

# Scratch space for captured responses, removed on exit.
WORKDIR="$(mktemp -d "${TMPDIR:-/tmp}/rjms-http-smoke.XXXXXX")"

for bin in "$SERVER" "$PUB" "$SUB" "$TOP"; do
  [ -x "$bin" ] || { echo "missing binary: $bin (build with cargo build --release)"; exit 1; }
done

fail() { echo "FAIL: $*"; exit 1; }

"$SERVER" --listen "$LISTEN_ADDR" --http "$HTTP_ADDR" --trace --slo --forecast --flow \
  --shards 2 --topic-obs --topic smoke &
SERVER_PID=$!
trap 'kill "$SERVER_PID" 2>/dev/null || true; rm -rf "$WORKDIR"' EXIT

# Wait for both listeners to come up.
for _ in $(seq 1 50); do
  if curl -sf "http://$HTTP_ADDR/" >/dev/null 2>&1; then break; fi
  sleep 0.1
done
curl -sf "http://$HTTP_ADDR/" >/dev/null || fail "http endpoint never came up"

# Let the SLO sampler (1 s interval) record its baseline first, so the
# workload below lands in a delta slot and is visible in /history.
sleep 1.2

# Drive the workload: a subscriber consuming $COUNT messages, a publisher
# sending them with trace ids printed.
"$SUB" --connect "$LISTEN_ADDR" --topic smoke --count "$COUNT" --quiet &
SUB_PID=$!
sleep 0.3
"$PUB" --connect "$LISTEN_ADDR" --topic smoke --count "$COUNT" --print-trace-ids \
  > "$WORKDIR/pub_trace_ids.txt"
wait "$SUB_PID" || fail "subscriber did not receive all $COUNT messages"
sleep 0.3

# --- /metrics: Prometheus text format ---------------------------------
curl -sf "http://$HTTP_ADDR/metrics" > "$WORKDIR/metrics.txt" || fail "/metrics not served"
grep -q '^# TYPE broker_sojourn_seconds histogram$' "$WORKDIR/metrics.txt" \
  || fail "/metrics missing the sojourn histogram family"
grep -q "^broker_topic_received{topic=\"smoke\"} $COUNT\$" "$WORKDIR/metrics.txt" \
  || fail "/metrics missing the per-topic labeled counter"
grep -q '_bucket{le="+Inf"}' "$WORKDIR/metrics.txt" || fail "/metrics histograms lack +Inf buckets"
# Cumulative bucket counts must be monotone within each family and every
# sample line must parse as <name>[{labels}] <number>.
awk '
  /^#/ { prev = -1; next }
  !/^[A-Za-z_:][A-Za-z0-9_:]*({[^}]*})? -?[0-9.+eE-]+$/ { print "bad line: " $0; bad = 1 }
  /_bucket\{le="[^+]/ {
    n = $NF + 0
    if (n < prev) { print "non-monotone bucket: " $0; bad = 1 }
    prev = n
    next
  }
  { prev = -1 }
  END { exit bad }
' "$WORKDIR/metrics.txt" || fail "/metrics output is not well-formed Prometheus text"

# --- /snapshot.json ----------------------------------------------------
curl -sf "http://$HTTP_ADDR/snapshot.json" > "$WORKDIR/snapshot.json" || fail "/snapshot.json not served"
# One count, three readings: the broker's total, the topic's own and (above)
# the topic's exported series all say $COUNT.
grep -q "\"messages\":{\"received\":$COUNT," "$WORKDIR/snapshot.json" \
  || fail "/snapshot.json messages.received is not $COUNT"
grep -q "\"per_topic\":{\"smoke\":{\"received\":$COUNT," "$WORKDIR/snapshot.json" \
  || fail "/snapshot.json per_topic.smoke.received is not $COUNT"

# --- /traces: complete 5-stage chains for >=99% of published ids -------
curl -sf "http://$HTTP_ADDR/traces" > "$WORKDIR/traces.json" || fail "/traces not served"
# Every chain kept while the tail threshold is still 0, so each published
# trace id must appear as a complete, monotone chain with a wire_flush span.
COMPLETE=$(
  awk -v ids_file="$WORKDIR/pub_trace_ids.txt" '
    BEGIN {
      while ((getline line < ids_file) > 0)
        if (split(line, a, " ") == 2) want[a[2]] = 1
      RS = "{\"trace_id\":"
    }
    NR > 1 {
      split($0, parts, ",")
      id = parts[1]
      if ((id in want) && /"complete":true/ && /"monotone":true/ && /wire_flush/) n++
    }
    END { print n + 0 }
  ' "$WORKDIR/traces.json"
)
echo "complete chains: $COMPLETE / $COUNT"
[ "$COMPLETE" -ge $((COUNT * 99 / 100)) ] \
  || fail "only $COMPLETE/$COUNT published messages have complete 5-stage chains"

# --- /model: computed from the shard reports (flow control anchors it) ---
curl -sf "http://$HTTP_ADDR/model" > "$WORKDIR/model.txt" || fail "/model not served"
grep -q 'model check: ' "$WORKDIR/model.txt" \
  || fail "/model has no assessment after traffic: $(cat "$WORKDIR/model.txt")"

# --- /flow: admission-control state ------------------------------------
curl -sf "http://$HTTP_ADDR/flow" > "$WORKDIR/flow.json" || fail "/flow not served"
grep -q '"lambda_max":' "$WORKDIR/flow.json" || fail "/flow missing the budget"
grep -q '"per_class":\[' "$WORKDIR/flow.json" || fail "/flow missing per-class counters"
# The smoke workload sits far below the budget: every publish granted.
GRANTED=$(tr ',' '\n' < "$WORKDIR/flow.json" | awk -F: '/"granted"/ { n += $2 } END { print n + 0 }')
SHED=$(tr -d '}]' < "$WORKDIR/flow.json" | tr ',' '\n' | awk -F: '/"shed"/ { n += $2 } END { print n + 0 }')
[ "$GRANTED" -ge "$COUNT" ] || fail "/flow granted $GRANTED < published $COUNT"
[ "$SHED" = 0 ] || fail "/flow shed $SHED messages from an under-budget workload"
# A lane is re-inverted only from a shard's 1 000-sample summary, and the
# smoke workload is fewer messages than that: the seed budget holds.
grep -q '"source":"analytic"' "$WORKDIR/flow.json" \
  || fail "/flow re-inverted a lane from fewer samples than a summary needs"
grep -q '"refreshes":0,' "$WORKDIR/flow.json" \
  || fail "/flow refreshed a lane from fewer samples than a summary needs"
grep -q '"flow":{"granted":' "$WORKDIR/snapshot.json" \
  || fail "/snapshot.json missing the flow counters"

# --- /slo, /history: the SLO engine ------------------------------------
curl -sf "http://$HTTP_ADDR/slo" > "$WORKDIR/slo.json" || fail "/slo not served"
grep -q '"name":"w99"' "$WORKDIR/slo.json" || fail "/slo missing the derived w99 objective"
grep -q '"model_verdict":' "$WORKDIR/slo.json" || fail "/slo missing the model verdict"
grep -q '"events":\[' "$WORKDIR/slo.json" || fail "/slo missing the alert event log"
# The saturation forecaster: the smoke run is short, so the trend fit may
# still be warming up ("forecast":null); the knobs and the enabled switch
# must be present either way.
grep -q '"forecast":' "$WORKDIR/slo.json" || fail "/slo missing the forecast block"
grep -q '"forecast_config":{"enabled":true' "$WORKDIR/slo.json" \
  || fail "/slo reports forecasting disabled"
for knob in horizon_ms trend_window_ms min_confidence; do
  grep -q "\"$knob\":" "$WORKDIR/slo.json" || fail "/slo forecast_config missing $knob"
done
# Both were folded into /slo and answer like any unknown path.
for gone in alerts forecast; do
  [ "$(curl -s -o /dev/null -w '%{http_code}' "http://$HTTP_ADDR/$gone")" = 404 ] \
    || fail "/$gone is still served"
done

# Poll until the sampler ticks past the workload and the dispatched
# messages show up as a non-zero point in the waiting-time history.
HISTORY_OK=0
for _ in $(seq 1 30); do
  curl -sf "http://$HTTP_ADDR/history?metric=broker.waiting_ns&window=10m&reduce=count" \
    > "$WORKDIR/history.json" || fail "/history not served"
  if grep -q '"v":[1-9]' "$WORKDIR/history.json"; then HISTORY_OK=1; break; fi
  sleep 0.2
done
grep -q '"metric":"broker.waiting_ns"' "$WORKDIR/history.json" \
  || fail "/history missing the metric name"
[ "$HISTORY_OK" = 1 ] || fail "/history never showed the dispatched workload"

# --- /shards: per-shard model assessments ------------------------------
curl -sf "http://$HTTP_ADDR/shards" > "$WORKDIR/shards.json" || fail "/shards not served"
grep -q '"shard":0' "$WORKDIR/shards.json" || fail "/shards missing shard 0"
grep -q '"shard":1' "$WORKDIR/shards.json" || fail "/shards missing shard 1"
grep -q '"verdict":' "$WORKDIR/shards.json" || fail "/shards missing model verdicts"
grep -q '"forecast":' "$WORKDIR/shards.json" || fail "/shards missing per-shard forecast blocks"
# The two-shard server exposes per-shard counters in the broker snapshot,
# and the one topic lands on exactly one dispatcher.
grep -q '"shards":\[' "$WORKDIR/snapshot.json" || fail "/snapshot.json missing the shards section"
SHARD_RECEIVED=$(tr '{' '\n' < "$WORKDIR/shards.json" | awk -F'[:,]' '/"samples"/ { n += $4 } END { print n + 0 }')
echo "per-shard model samples: $SHARD_RECEIVED"
# With the observatory on, /shards also carries the skew measurement.
grep -q '"rebalance":{' "$WORKDIR/shards.json" || fail "/shards missing the rebalance block"
grep -q '"max_mean_ratio":' "$WORKDIR/shards.json" || fail "/shards rebalance missing the skew ratio"
grep -q '"shares":\[' "$WORKDIR/shards.json" || fail "/shards rebalance missing the per-shard shares"

# --- /topics: the per-topic workload observatory -----------------------
# The accounting scratch flushes on dispatcher idle, so poll until the
# smoke topic's row shows every published message.
TOPICS_OK=0
for _ in $(seq 1 30); do
  curl -sf "http://$HTTP_ADDR/topics" > "$WORKDIR/topics.json" || fail "/topics not served"
  if grep -q "\"name\":\"smoke\"[^}]*\"messages\":$COUNT" "$WORKDIR/topics.json"; then
    TOPICS_OK=1; break
  fi
  sleep 0.2
done
[ "$TOPICS_OK" = 1 ] || fail "/topics never accounted all $COUNT smoke messages"
grep -q '"per_topic_cap":' "$WORKDIR/topics.json" || fail "/topics missing the cardinality cap"
grep -q '"topics":\[' "$WORKDIR/topics.json" || fail "/topics missing the per-topic rows"
grep -q '"global":{"fitted":' "$WORKDIR/topics.json" || fail "/topics missing the pooled fit"

# --- rjms-top --once: 0 healthy, 1 firing/pending, 2 error --------------
TOP_STATUS=0
"$TOP" --url "$HTTP_ADDR" --once > "$WORKDIR/top.txt" 2>&1 || TOP_STATUS=$?
[ "$TOP_STATUS" != 2 ] || fail "rjms-top --once exited 2: $(cat "$WORKDIR/top.txt")"
grep -q "^rjms-top .* $HTTP_ADDR .* up " "$WORKDIR/top.txt" \
  || fail "rjms-top --once drew no header line: $(head -3 "$WORKDIR/top.txt")"
# A flag that is no row of rjms-top's table is a usage error.
UNKNOWN_FLAG=--bogus
TOP_STATUS=0
"$TOP" "$UNKNOWN_FLAG" 2>/dev/null || TOP_STATUS=$?
[ "$TOP_STATUS" = 2 ] || fail "rjms-top $UNKNOWN_FLAG exited $TOP_STATUS, not 2"

echo "PASS: http exposition smoke ($COMPLETE/$COUNT complete chains)"
