//! Read-side views over the shared broker state: the typed
//! [`BrokerSnapshot`], the per-shard model reports and the flow-refresh
//! thread that re-calibrates the admission gate from the same live
//! histograms. Nothing here runs on the dispatch path.

use crate::broker::BrokerInner;
use crate::config::BrokerConfig;
use crate::stats::{
    BrokerSnapshot, MessageCounters, ShardSnapshot, SubscriptionCounters, TopicStats,
};
use rjms_core::{
    CostParams, DriftTolerance, ModelMonitor, ModelVerdict, ReplicationModel, ServerModel,
};
use rjms_flow::FlowGate;
use rjms_metrics::labeled;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Builds a [`BrokerSnapshot`] from the shared broker state; the one
/// implementation behind [`Broker::snapshot`](crate::Broker::snapshot) and
/// [`BrokerObserver`](crate::BrokerObserver).
pub(crate) fn snapshot_of(inner: &BrokerInner) -> BrokerSnapshot {
    let stats = &inner.stats;
    let topics = inner.topics.read();
    let mut per_topic = BTreeMap::new();
    let (mut live, mut durable) = (0usize, 0usize);
    for (name, t) in topics.iter() {
        let subs = t.subs.read();
        live += subs.live_plain();
        durable += subs.durables().len();
        per_topic.insert(
            name.clone(),
            TopicStats {
                received: t.received.load(Ordering::Relaxed),
                dispatched: t.dispatched.load(Ordering::Relaxed),
            },
        );
    }
    BrokerSnapshot {
        messages: MessageCounters {
            received: stats.received(),
            dispatched: stats.dispatched(),
            filter_evaluations: stats.filter_evaluations(),
            dropped: stats.dropped(),
            retained: stats.retained(),
            expired: stats.expired_messages(),
        },
        subscriptions: SubscriptionCounters {
            topics: topics.len(),
            live,
            durable,
            expired: stats.expired_subscriptions(),
        },
        journal: inner.journal.as_ref().map(|j| j.lock().stats()),
        flow: inner.flow.as_ref().map(|_| stats.flow_counters()),
        shards: (inner.config.shards > 1).then(|| {
            let mut topics_per = vec![0usize; inner.shard_stats.len()];
            for t in topics.values() {
                topics_per[t.shard] += 1;
            }
            inner
                .shard_stats
                .iter()
                .enumerate()
                .map(|(shard, s)| ShardSnapshot {
                    shard,
                    topics: topics_per[shard],
                    received: s.received.load(Ordering::Relaxed),
                    dispatched: s.dispatched.load(Ordering::Relaxed),
                    filter_evaluations: s.filter_evaluations.load(Ordering::Relaxed),
                })
                .collect()
        }),
        per_topic,
        topics_overflowed: stats.topics_overflowed(),
    }
}

/// Periodically re-calibrates the flow gate's arrival budget from the
/// live waiting/service histograms: every refresh interval it snapshots
/// the registry, rebuilds a [`ModelMonitor`] at the *measured* operating
/// point (mean filter count and replication grade from the broker's own
/// counters), and feeds the verdict to [`FlowGate::refresh`] — drift
/// re-derives λ_max from measured moments, overload tightens the budget.
pub(crate) fn flow_refresh_loop(inner: &BrokerInner, gate: &FlowGate) {
    let Some(metrics) = &inner.metrics else { return };
    let config = *gate.config();
    let interval = Duration::from_millis(config.refresh_interval_ms.max(1));
    let started = Instant::now();
    loop {
        // Sleep in short slices so shutdown is prompt.
        let deadline = Instant::now() + interval;
        while Instant::now() < deadline {
            if inner.stopped.load(Ordering::Relaxed) {
                return;
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        let snap = metrics.registry.snapshot();
        let (Some(waiting), Some(service)) =
            (snap.histogram("broker.waiting_ns"), snap.histogram("broker.service_ns"))
        else {
            continue;
        };
        let received = inner.stats.received();
        if received == 0 {
            continue;
        }
        let filters = (inner.stats.filter_evaluations() / received).min(u64::from(u32::MAX));
        let grade = inner.stats.dispatched() as f64 / received as f64;
        // Journal-aware budget: with persistence on, feed the *measured*
        // per-message store cost (mean append plus amortized fsync time)
        // into the gate's analytic seed, closing Eq. 1's t_store term
        // over the live journal instead of a configured guess. (The
        // series exists only with a journal and reads `None` while empty.)
        if let Some(append) = snap.histogram("journal.append_ns") {
            let mut store_ns = append.mean();
            if let Some(fsync) = snap.histogram("journal.fsync_ns") {
                store_ns += fsync.mean() * fsync.count as f64 / append.count as f64;
            }
            gate.reseed_store_cost(store_ns * 1e-9);
        }
        let monitor = ModelMonitor::new(
            ServerModel::new(config.params, filters as u32),
            ReplicationModel::deterministic(grade),
        );
        let verdict = monitor.assess(waiting, service, started.elapsed());
        gate.refresh(&verdict);
    }
}

/// One dispatcher shard's live model assessment: the shard's measured
/// operating point (arrival rate, filter count, replication grade from its
/// own counters and histograms) compared against the Eq. 1 + M/GI/1 model
/// evaluated *per shard* — each dispatcher is one of the `k` servers of
/// the paper's clustered scenario
/// ([`ClusterScenario`](rjms_core::ClusterScenario)).
///
/// Produced by [`Broker::shard_reports`](crate::Broker::shard_reports);
/// served by the `/shards` HTTP endpoint.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Shard index in `0..shards`.
    pub shard: usize,
    /// Waiting-time samples behind this assessment.
    pub samples: u64,
    /// Measured per-shard arrival rate λ, messages per second, over the
    /// broker's whole lifetime.
    pub arrival_rate: f64,
    /// Measured mean filter evaluations per message on this shard.
    pub filters: f64,
    /// Measured replication grade `E[R]` on this shard.
    pub replication_grade: f64,
    /// The model verdict at the shard's measured operating point; the
    /// `Calibrated`/`Drift` variants carry the full measured-vs-predicted
    /// comparison.
    pub verdict: ModelVerdict,
}

/// The Eq. 1 constants model verdicts are anchored on: the flow model's
/// calibrated params when flow control is on, the synthetic cost model
/// otherwise, none when the broker runs at native speed unmodeled.
pub(crate) fn cost_anchor(config: &BrokerConfig) -> Option<CostParams> {
    match (&config.flow, config.cost_model) {
        (Some(flow), _) => Some(flow.params),
        (None, Some(c)) => {
            Some(CostParams { t_rcv: c.t_rcv, t_fltr: c.t_fltr, t_tx: c.t_tx, t_store: 0.0 })
        }
        (None, None) => None,
    }
}

/// Builds the per-shard model reports behind
/// [`Broker::shard_reports`](crate::Broker::shard_reports): none when
/// metrics are off (nothing measured) or no cost anchor exists (Eq. 1 has
/// no constants to predict with).
pub(crate) fn shard_reports_of(inner: &BrokerInner) -> Vec<ShardReport> {
    let (Some(metrics), Some(params)) = (&inner.metrics, cost_anchor(&inner.config)) else {
        return Vec::new();
    };
    let snap = metrics.registry.snapshot();
    let elapsed = inner.started.elapsed();
    let shards = inner.config.shards;
    (0..shards)
        .map(|shard| {
            // The single-dispatcher broker publishes no shard-labeled
            // series; its shard 0 *is* the aggregate.
            let (waiting, service) = if shards == 1 {
                (snap.histogram("broker.waiting_ns"), snap.histogram("broker.service_ns"))
            } else {
                let label = shard.to_string();
                let pairs = [("shard", label.as_str())];
                (
                    snap.histogram(&labeled("broker.waiting_ns", &pairs)),
                    snap.histogram(&labeled("broker.service_ns", &pairs)),
                )
            };
            let counters = &inner.shard_stats[shard];
            let received = counters.received.load(Ordering::Relaxed);
            let per_message = |total: u64| {
                if received > 0 {
                    total as f64 / received as f64
                } else {
                    0.0
                }
            };
            let filters = per_message(counters.filter_evaluations.load(Ordering::Relaxed));
            let grade = per_message(counters.dispatched.load(Ordering::Relaxed));
            // A shard whose histograms have not materialized yet (no
            // dispatch flushed) is an idle server, not a missing one.
            let (samples, verdict) = match (waiting, service) {
                (Some(waiting), Some(service)) => {
                    let monitor = ModelMonitor::new(
                        ServerModel::new(params, filters.round() as u32),
                        ReplicationModel::deterministic(grade),
                    );
                    (waiting.count, monitor.assess(waiting, service, elapsed))
                }
                _ => {
                    let required = DriftTolerance::default().min_samples;
                    (0, ModelVerdict::Insufficient { samples: 0, required })
                }
            };
            let secs = elapsed.as_secs_f64();
            let arrival_rate = if secs > 0.0 { samples as f64 / secs } else { 0.0 };
            ShardReport { shard, samples, arrival_rate, filters, replication_grade: grade, verdict }
        })
        .collect()
}
