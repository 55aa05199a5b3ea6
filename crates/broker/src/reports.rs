//! Read-side views over the shared broker state: the typed
//! [`BrokerSnapshot`] and the per-shard model reports — the one place the
//! paper's method (measure an operating point, evaluate Eq. 1 + M/GI/1
//! *for that server*, compare) is spelled. `/shards`, `/model`, the
//! periodic text report and the per-shard monitors handed to the SLO engine
//! all read it from here; each shard's measurement is its dispatcher's own
//! two histograms (`BrokerMetrics::measurement`), which the dispatcher
//! itself also reads to refresh its admission lane (`probe.rs`); its Eq. 1
//! constants are its [`CostAnchor`], which `/topics` judges by too. Nothing
//! here runs on the dispatch path.

use crate::broker::{topics_overflowed, BrokerInner, Topic};
use crate::stats::{
    per_message, BrokerSnapshot, FlowCounters, MessageCounters, ShardSnapshot,
    SubscriptionCounters, TopicStats,
};
use rjms_core::regression::{CostRegression, FittedCosts, MIN_SAMPLES};
use rjms_core::{
    measured_service, CostParams, ModelMonitor, ModelVerdict, ReplicationModel, ServerModel,
};
use rjms_metrics::clock;
use rjms_trace::{group_chains, FlightRecorder};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Folds the topics' counters — the only place the per-message facts are
/// written — into the broker's total (its `shard` reads 0) and one total per
/// dispatcher shard, showing `each` topic the values that went into them.
/// Every total the broker reports is read through here (the snapshot's
/// `messages`, `shards` and `per_topic`, the model reports,
/// [`ThroughputProbe`](crate::ThroughputProbe)), so within one reading the
/// broker is the sum of its shards and of its topics.
pub(crate) fn totals(
    topics: &HashMap<String, Arc<Topic>>,
    shards: usize,
    mut each: impl FnMut(&Topic, TopicStats),
) -> (ShardSnapshot, Vec<ShardSnapshot>) {
    let zero = |shard| ShardSnapshot {
        shard,
        topics: 0,
        received: 0,
        dispatched: 0,
        filter_evaluations: 0,
    };
    let (mut all, mut per_shard) = (zero(0), (0..shards).map(zero).collect::<Vec<_>>());
    for t in topics.values() {
        let received = t.received.load(Ordering::Relaxed);
        let dispatched = t.dispatched.load(Ordering::Relaxed);
        let filter_evaluations = t.filter_evaluations.load(Ordering::Relaxed);
        for total in [&mut all, &mut per_shard[t.shard]] {
            total.topics += 1;
            total.received += received;
            total.dispatched += dispatched;
            total.filter_evaluations += filter_evaluations;
        }
        each(t, TopicStats { received, dispatched });
    }
    (all, per_shard)
}

/// The broker's [`totals`], for a reader that holds no lock.
pub(crate) fn broker_totals(inner: &BrokerInner) -> ShardSnapshot {
    totals(&inner.topics.read(), inner.config.shards, |_, _| {}).0
}

/// Builds a [`BrokerSnapshot`] from the shared broker state; the one
/// implementation behind [`Broker::snapshot`](crate::Broker::snapshot) and
/// [`BrokerObserver`](crate::BrokerObserver).
pub(crate) fn snapshot_of(inner: &BrokerInner) -> BrokerSnapshot {
    let stats = &inner.stats;
    let topics = inner.topics.read();
    let mut per_topic = BTreeMap::new();
    let (mut live, mut durable) = (0usize, 0usize);
    let (all, shards) = totals(&topics, inner.config.shards, |t, counted| {
        let subs = t.subs.read();
        live += subs.live_plain();
        durable += subs.durables().count();
        per_topic.insert(t.name.clone(), counted);
    });
    BrokerSnapshot {
        messages: MessageCounters {
            received: all.received,
            dispatched: all.dispatched,
            filter_evaluations: all.filter_evaluations,
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
        flow: inner.flow.as_ref().map(|gate| {
            gate.class_counts().fold(FlowCounters::default(), |sum, class| FlowCounters {
                granted: sum.granted + class.granted,
                deferred: sum.deferred + class.deferred,
                shed: sum.shed + class.shed,
            })
        }),
        shards: (inner.config.shards > 1).then_some(shards),
        per_topic,
        topics_overflowed: inner.metrics.as_ref().map_or(0, |_| topics_overflowed(topics.len())),
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
/// served by the `/shards` and `/model` HTTP endpoints.
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
    /// The Eq. 1 constants the verdict is judged against, if any yet.
    pub anchor: Option<CostAnchor>,
    /// The model verdict at the shard's measured operating point; the
    /// `Calibrated`/`Drift` variants carry the full measured-vs-predicted
    /// comparison. Without an anchor, the fit's observations `Insufficient`
    /// for the regression's floor.
    pub verdict: ModelVerdict,
}

/// Where a shard's Eq. 1 constants come from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CostAnchor {
    /// [`BrokerConfig::cost_model`](crate::BrokerConfig::cost_model).
    CostModel(CostParams),
    /// The shard's own zero-anchored online fit over all its messages.
    Fit(FittedCosts),
}

impl CostAnchor {
    /// The constants themselves.
    pub fn params(&self) -> CostParams {
        match self {
            Self::CostModel(params) => *params,
            Self::Fit(fit) => fit.params,
        }
    }
}

/// Zero constants: what a fit is anchored on without a cost model, so that
/// its slopes absorb the (native, sub-microsecond) intercept.
pub(crate) const ZERO: CostParams = CostParams { t_rcv: 0.0, t_fltr: 0.0, t_tx: 0.0, t_store: 0.0 };

/// Every shard's estimator (empty without metrics) and the anchor it
/// gives, in shard order: the cost model when one is configured, else the
/// shard's own fit once it has the regression's floor and is identifiable
/// against [`ZERO`].
pub(crate) fn shard_anchors(inner: &BrokerInner) -> Vec<(CostRegression, Option<CostAnchor>)> {
    let anchor = |shard: usize| {
        let fit =
            inner.metrics.as_ref().map_or_else(CostRegression::new, |m| *m.fits[shard].lock());
        let own = (fit.len() >= MIN_SAMPLES).then(|| fit.fit(&ZERO).ok()).flatten();
        let anchor = inner.config.cost_model.map(CostAnchor::CostModel);
        (fit, anchor.or(own.map(CostAnchor::Fit)))
    };
    (0..inner.config.shards).map(anchor).collect()
}

/// A shard's measured operating point: its mean filter evaluations and
/// replication grade per message. An idle shard's are 0 and 0.
fn operating_point(total: &ShardSnapshot) -> (f64, f64) {
    let filters = per_message(total.filter_evaluations, total.received).unwrap_or(0.0);
    (filters, total.replication_grade().unwrap_or(0.0))
}

/// The workspace's one assessment: Eq. 1 + M/GI/1 anchored on `anchor`,
/// evaluated at one shard's measured operating point — its filters per
/// message (rounded) and its replication grade, `R` deterministic at it.
/// A fit has measured `E[B]` but no spread: its `E[B]` goes with the
/// measured `c_var[B]` (`cvar`), rebuilt as the flow controller rebuilds
/// its service time (an idle fit, `E[B]` = 0, has none to rebuild).
pub(crate) fn shard_monitor(anchor: CostAnchor, total: &ShardSnapshot, cvar: f64) -> ModelMonitor {
    let (filters, grade) = operating_point(total);
    let model = ServerModel::new(anchor.params(), filters.round() as u32);
    let service = model.service_time(ReplicationModel::deterministic(grade));
    ModelMonitor::for_service_time(match anchor {
        CostAnchor::CostModel(_) => service,
        CostAnchor::Fit(_) => measured_service(service.mean(), cvar).unwrap_or(service),
    })
}

/// The models behind
/// [`BrokerObserver::shard_monitors`](crate::BrokerObserver::shard_monitors):
/// one entry per dispatcher shard, each `None` without a cost model. Against
/// a fit only the queue can disagree, and M/GI/1 has no term for the
/// dispatcher's wake-up, a native shard's whole `E[W]`: the SLO engine
/// pages on a configured model only.
pub(crate) fn shard_monitors_of(inner: &BrokerInner) -> Vec<Option<ModelMonitor>> {
    let (_, per_shard) = totals(&inner.topics.read(), inner.config.shards, |_, _| {});
    let anchor = inner.config.cost_model.map(CostAnchor::CostModel);
    per_shard.iter().map(|total| Some(shard_monitor(anchor?, total, 0.0))).collect()
}

/// Builds the per-shard model reports behind
/// [`Broker::shard_reports`](crate::Broker::shard_reports): one per shard,
/// none when metrics are off (nothing measured).
pub(crate) fn shard_reports_of(inner: &BrokerInner) -> Vec<ShardReport> {
    let Some(metrics) = &inner.metrics else { return Vec::new() };
    let (elapsed, anchors) = (inner.started.elapsed(), shard_anchors(inner));
    let (_, per_shard) = totals(&inner.topics.read(), inner.config.shards, |_, _| {});
    per_shard
        .iter()
        .enumerate()
        .map(|(shard, total)| {
            let (waiting, service) = metrics.measurement(shard);
            let (filters, replication_grade) = operating_point(total);
            let (fit, anchor) = anchors[shard];
            let verdict = match anchor {
                Some(a) => {
                    shard_monitor(a, total, service.cvar()).assess(&waiting, &service, elapsed)
                }
                None => ModelVerdict::Insufficient { samples: fit.len(), required: MIN_SAMPLES },
            };
            let samples = waiting.count;
            let secs = elapsed.as_secs_f64();
            let arrival_rate = if secs > 0.0 { samples as f64 / secs } else { 0.0 };
            ShardReport {
                shard,
                samples,
                arrival_rate,
                filters,
                replication_grade,
                anchor,
                verdict,
            }
        })
        .collect()
}

/// Renders the `/model` text and the periodic report's model check from
/// the per-shard reports: per shard that has served messages, the verdict
/// line (prefixed `shard i` on a sharded broker), the anchor it was judged
/// against and the measured-vs-predicted table; after a `Drift`, the
/// recorder's slowest chains, so the spans of the tail that produced the
/// anomaly survive. Empty when there is nothing to assess.
pub(crate) fn model_text(reports: &[ShardReport], recorder: Option<&FlightRecorder>) -> String {
    let mut out = String::new();
    for r in reports.iter().filter(|r| r.samples > 0) {
        if reports.len() > 1 {
            let _ = write!(out, "shard {} ", r.shard);
        }
        let verdict = match &r.verdict {
            ModelVerdict::Calibrated(_) => "CALIBRATED (all within tolerance)".to_owned(),
            ModelVerdict::Drift(_) => "DRIFT".to_owned(),
            verdict => format!("{verdict:?}"),
        };
        let anchor = match r.anchor {
            Some(CostAnchor::CostModel(_)) => "cost model".to_owned(),
            Some(CostAnchor::Fit(f)) => format!("fit: {}, {} observations", f.mode, f.observations),
            None => "none".to_owned(),
        };
        let _ = writeln!(out, "model check: {verdict}\nanchor: {anchor}");
        if let Some(report) = r.verdict.report() {
            out.push_str(&report.render_text());
        }
    }
    let drift = reports.iter().any(|r| matches!(r.verdict, ModelVerdict::Drift(_)));
    if let Some(recorder) = recorder.filter(|_| drift) {
        let mut chains = group_chains(recorder.snapshot().events);
        chains.sort_by_key(|c| std::cmp::Reverse(c.total_duration_ns()));
        out.push_str("drift traces (slowest sampled chains):\n");
        for chain in chains.iter().take(8) {
            let total = chain.total_duration_ns();
            let _ = write!(out, "  trace {:016x}  total {total:>9}ns ", chain.trace_id);
            for e in &chain.events {
                let _ = write!(out, " {}={}ns", e.stage.name(), e.duration_ns);
            }
            out.push('\n');
        }
        if chains.is_empty() {
            out.push_str("  (recorder empty)\n");
        }
        let _ = writeln!(out, "  ns_per_tick {:.4}", clock::ns_per_tick());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rjms_core::monitor::{DriftReport, MeasuredSummary};
    use rjms_core::ModelVerdict::{Calibrated, Drift};
    use rjms_core::WaitingTimeAnalysis;

    const IDLE: ModelVerdict = ModelVerdict::Insufficient { samples: 3, required: 1000 };

    /// A `kind` verdict whose report measured the given utilisation.
    fn busy(utilization: f64, kind: fn(DriftReport) -> ModelVerdict) -> ModelVerdict {
        let service = ServerModel::new(CostParams::CORRELATION_ID, 1)
            .service_time(ReplicationModel::deterministic(1.0));
        let predicted = WaitingTimeAnalysis::for_service_time(service, 0.5).unwrap().report();
        let measured = MeasuredSummary {
            samples: 5000,
            arrival_rate: predicted.arrival_rate,
            mean_service_time: predicted.mean_service_time,
            service_cvar: 0.0,
            utilization,
            mean_waiting_time: predicted.mean_waiting_time,
            q99: predicted.q99,
            q9999: predicted.q9999,
        };
        kind(DriftReport { measured, predicted, violations: Vec::new() })
    }

    fn reports(verdicts: Vec<ModelVerdict>) -> Vec<ShardReport> {
        let report = |(shard, verdict)| ShardReport {
            shard,
            samples: 5000,
            arrival_rate: 12_000.0,
            filters: 1.0,
            replication_grade: 1.0,
            anchor: Some(CostAnchor::CostModel(CostParams::CORRELATION_ID)),
            verdict,
        };
        verdicts.into_iter().enumerate().map(report).collect()
    }

    #[test]
    fn model_text_is_one_block_per_shard_that_served() {
        let table = |v: &ModelVerdict| v.report().expect("busy").render_text();
        // One shard: the verdict, the anchor, the table.
        let calibrated = busy(0.3, Calibrated);
        let expected = format!(
            "model check: CALIBRATED (all within tolerance)\nanchor: cost model\n{}",
            table(&calibrated)
        );
        assert_eq!(model_text(&reports(vec![calibrated]), None), expected);
        // Several: a block each, labeled; recorder chains after a drift.
        let recorder = FlightRecorder::new(16);
        let overloaded = ModelVerdict::Overloaded { utilization: 1.25 };
        let mut several = reports(vec![busy(0.4, Drift), overloaded]);
        several[1].anchor = None;
        let text = model_text(&several, Some(&recorder));
        let drift =
            format!("shard 0 model check: DRIFT\nanchor: cost model\n{}", table(&busy(0.4, Drift)));
        assert!(text.starts_with(&drift), "{text}");
        let overloaded = "\nshard 1 model check: Overloaded { utilization: 1.25 }\nanchor: none\n";
        assert!(text.contains(overloaded), "{text}");
        assert!(text.contains("drift traces (slowest sampled chains):\n  (recorder empty)\n"));
        // A shard that has served nothing has nothing to assess.
        let mut idle = reports(vec![IDLE]);
        idle[0].samples = 0;
        assert_eq!(model_text(&idle, Some(&recorder)), "");
        assert_eq!(model_text(&[], None), "");
    }
}
