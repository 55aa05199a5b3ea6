//! The per-topic workload observatory.
//!
//! The paper's Eq. 1 parameters (`n_fltr`, `E[R]`, the cost constants) are
//! *per-workload* quantities, but the broker's aggregate histograms blur
//! every topic into one stream. This module gives the dispatcher a bounded
//! per-topic accounting table: for each topic it accumulates the arrival
//! count, the realized filter evaluations and replication grade, and an
//! online [`CostRegression`] over the measured `(n_fltr, R, B)` triples —
//! enough to fit each topic's own cost constants and to compute each
//! shard's offered-load share (the input of the skew analyzer in
//! `rjms-obs`).
//!
//! Cardinality is capped exactly like the Prometheus exporter's per-topic
//! series: once `per_topic_cap` distinct topics have rows, further topics
//! collapse into a per-shard `__other__` bucket (so their load still lands
//! on the right shard in the skew analysis), and the collapse is counted.
//!
//! The dispatcher never touches the shared table on the per-message path:
//! it stages observations into a thread-local [`TopicObsScratch`] and
//! merges on the same idle/every-1024-messages cadence as the histogram
//! scratch, keeping the hot-path cost to a hash lookup and a dozen
//! floating-point adds (gated by the `ext_topic_obs_overhead` benchmark).

use parking_lot::Mutex;
use rjms_core::params::CostParams;
use rjms_core::regression::{CostRegression, FittedCosts, RegressionTolerance, RegressionVerdict};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Name of the overflow bucket rows (same label as the metrics exporter).
pub const OTHER_TOPIC: &str = "__other__";

/// Per-topic observatory settings.
///
/// Enabling the observatory auto-enables default metrics (the observatory
/// reads the dispatcher's per-message service timings).
///
/// # Examples
///
/// ```
/// use rjms_broker::config::{BrokerConfig, TopicObsConfig};
///
/// let config =
///     BrokerConfig::builder().topic_obs(TopicObsConfig::default().per_topic_cap(16)).build();
/// assert_eq!(config.topic_obs.unwrap().per_topic_cap, 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TopicObsConfig {
    /// Maximum number of distinct topics with their own accounting row.
    /// Topic names are unbounded client-controlled input, so the table is
    /// capped: further topics collapse into a per-shard `__other__` row.
    pub per_topic_cap: usize,
    /// Max/mean shard-load ratio above which the skew analyzer flags the
    /// placement.
    pub flag_ratio: f64,
    /// Ratio the rebalance advisor's moves aim to get under.
    pub target_ratio: f64,
}

impl Default for TopicObsConfig {
    fn default() -> Self {
        Self { per_topic_cap: 64, flag_ratio: 1.25, target_ratio: 1.10 }
    }
}

impl TopicObsConfig {
    /// Sets the per-topic row cardinality cap.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is 0.
    pub fn per_topic_cap(mut self, cap: usize) -> Self {
        assert!(cap > 0, "per_topic_cap must be > 0");
        self.per_topic_cap = cap;
        self
    }

    /// Sets the skew flagging threshold.
    ///
    /// # Panics
    ///
    /// Panics unless `ratio >= 1.0`.
    pub fn flag_ratio(mut self, ratio: f64) -> Self {
        assert!(ratio >= 1.0 && ratio.is_finite(), "flag_ratio must be >= 1, got {ratio}");
        self.flag_ratio = ratio;
        self
    }

    /// Sets the rebalance advisor's target ratio.
    ///
    /// # Panics
    ///
    /// Panics unless `ratio >= 1.0`.
    pub fn target_ratio(mut self, ratio: f64) -> Self {
        assert!(ratio >= 1.0 && ratio.is_finite(), "target_ratio must be >= 1, got {ratio}");
        self.target_ratio = ratio;
        self
    }
}

/// One topic's accumulated workload observations.
#[derive(Debug, Clone, Default)]
struct TopicAccount {
    shard: usize,
    regression: CostRegression,
}

/// The shared accounting table, merged into by every dispatcher.
#[derive(Debug)]
struct ObsTable {
    topics: HashMap<String, TopicAccount>,
    /// Per-shard overflow buckets, so collapsed topics still contribute
    /// their load to the right shard.
    other: Vec<TopicAccount>,
    /// Distinct topic names that have been routed into `__other__`.
    overflowed: u64,
}

/// The broker's per-topic workload observatory: configuration, reference
/// params, and the shared table.
#[derive(Debug)]
pub(crate) struct TopicObservatory {
    config: TopicObsConfig,
    anchor: Option<CostParams>,
    shards: usize,
    started: Instant,
    table: Mutex<ObsTable>,
}

impl TopicObservatory {
    pub(crate) fn new(config: TopicObsConfig, anchor: Option<CostParams>, shards: usize) -> Self {
        let shards = shards.max(1);
        Self {
            config,
            anchor,
            shards,
            started: Instant::now(),
            table: Mutex::new(ObsTable {
                topics: HashMap::new(),
                other: (0..shards)
                    .map(|s| TopicAccount { shard: s, ..Default::default() })
                    .collect(),
                overflowed: 0,
            }),
        }
    }

    /// Merges a dispatcher's staged observations into the shared table,
    /// applying the cardinality cap. Returns how many *new* distinct
    /// topics were collapsed into `__other__` by this merge (so the caller
    /// can bump the broker-wide overflow counter).
    fn merge(&self, staged: &mut HashMap<String, TopicAccount>) -> u64 {
        if staged.is_empty() {
            return 0;
        }
        let mut newly_overflowed = 0;
        let mut table = self.table.lock();
        for (name, account) in staged.drain() {
            if let Some(row) = table.topics.get_mut(&name) {
                row.regression.merge(&account.regression);
            } else if table.topics.len() < self.config.per_topic_cap {
                table.topics.insert(name, account);
            } else {
                // Collapsed: fold into the shard's overflow bucket. Count
                // each merge of an unseen name once per dispatcher flush —
                // cheap and bounded, at the cost of over-counting a topic
                // that overflows from several dispatchers; the counter is
                // a "your cap is too small" signal, not an exact census.
                newly_overflowed += 1;
                let shard = account.shard.min(self.shards - 1);
                table.other[shard].regression.merge(&account.regression);
            }
        }
        table.overflowed += newly_overflowed;
        newly_overflowed
    }

    /// Snapshots the table into self-contained rows.
    pub(crate) fn snapshot(&self) -> TopicObservatorySnapshot {
        let elapsed = self.started.elapsed();
        let table = self.table.lock();
        let mut global = CostRegression::new();
        let mut topics: Vec<TopicObsRow> = table
            .topics
            .iter()
            .map(|(name, account)| self.row(name, account, elapsed, &mut global))
            .collect();
        for bucket in &table.other {
            if !bucket.regression.is_empty() {
                topics.push(self.row(OTHER_TOPIC, bucket, elapsed, &mut global));
            }
        }
        let overflowed = table.overflowed;
        drop(table);
        // Deterministic order: busiest first, name as tie-break.
        topics.sort_by(|a, b| b.messages.cmp(&a.messages).then_with(|| a.name.cmp(&b.name)));
        let global_row = self.summarize(OTHER_TOPIC, &global, elapsed);
        TopicObservatorySnapshot {
            elapsed,
            anchor: self.anchor,
            config: self.config,
            shards: self.shards,
            overflowed_topics: overflowed,
            global_fitted: global_row.fitted,
            global_verdict: global_row.verdict,
            topics,
        }
    }

    fn row(
        &self,
        name: &str,
        account: &TopicAccount,
        elapsed: Duration,
        global: &mut CostRegression,
    ) -> TopicObsRow {
        global.merge(&account.regression);
        let mut row = self.summarize(name, &account.regression, elapsed);
        row.shard = account.shard;
        row
    }

    fn summarize(&self, name: &str, reg: &CostRegression, elapsed: Duration) -> TopicObsRow {
        // Anchored fits need reference params; without any configured cost
        // model the zero anchor lets the slopes absorb the (native,
        // sub-microsecond) intercept, and no verdict is rendered.
        let fit_anchor = self.anchor.unwrap_or_else(|| CostParams::new(0.0, 0.0, 0.0));
        let messages = reg.len() + reg.rejected();
        let secs = elapsed.as_secs_f64();
        TopicObsRow {
            name: name.to_string(),
            shard: 0,
            messages,
            arrival_rate: if secs > 0.0 { messages as f64 / secs } else { 0.0 },
            mean_filters: reg.mean_filters(),
            mean_replication: reg.mean_replication(),
            mean_service_time: reg.mean_service_time(),
            fitted: reg.fit(&fit_anchor).ok(),
            verdict: self.anchor.map(|a| reg.assess(&a, &RegressionTolerance::default())),
        }
    }
}

/// Dispatcher-local staging for the observatory: plain `HashMap` writes on
/// the per-message path, merged into the shared table on the flush cadence.
#[derive(Debug, Default)]
pub(crate) struct TopicObsScratch {
    staged: HashMap<String, TopicAccount>,
}

impl TopicObsScratch {
    /// Stages one dispatched message's observation.
    pub(crate) fn record(
        &mut self,
        topic: &str,
        shard: usize,
        evaluations: u32,
        copies: u32,
        service_secs: f64,
    ) {
        if !self.staged.contains_key(topic) {
            self.staged.insert(topic.to_string(), TopicAccount { shard, ..Default::default() });
        }
        let account = self.staged.get_mut(topic).expect("just inserted");
        account.regression.observe(evaluations, copies as f64, service_secs);
    }

    /// Merges everything staged into the shared table; returns the number
    /// of distinct topic names this flush collapsed into `__other__`.
    pub(crate) fn flush(&mut self, observatory: &TopicObservatory) -> u64 {
        observatory.merge(&mut self.staged)
    }
}

/// A point-in-time view of the observatory, self-contained for rendering.
#[derive(Debug, Clone)]
pub struct TopicObservatorySnapshot {
    /// Time since the broker started (the denominator of the rates).
    pub elapsed: Duration,
    /// The configured reference params the verdicts compare against
    /// (`None` when the broker runs at native speed with no flow model).
    pub anchor: Option<CostParams>,
    /// The observatory's configuration (cap and skew thresholds).
    pub config: TopicObsConfig,
    /// Number of dispatcher shards.
    pub shards: usize,
    /// Distinct topic-name collapses into `__other__` so far (a signal the
    /// cap is too small; may over-count topics seen by several shards).
    pub overflowed_topics: u64,
    /// The fit over *all* observations pooled (n_fltr varies across
    /// topics, so this is where the full 3-parameter fit is identifiable).
    pub global_fitted: Option<FittedCosts>,
    /// Verdict for the pooled fit (`None` without an anchor).
    pub global_verdict: Option<RegressionVerdict>,
    /// Per-topic rows, busiest first; overflow buckets appear as
    /// [`OTHER_TOPIC`] rows (one per shard with traffic).
    pub topics: Vec<TopicObsRow>,
}

/// One topic's observed workload and fitted cost constants.
#[derive(Debug, Clone)]
pub struct TopicObsRow {
    /// Topic name (or [`OTHER_TOPIC`]).
    pub name: String,
    /// The shard the topic is pinned to.
    pub shard: usize,
    /// Messages observed.
    pub messages: u64,
    /// Observed arrival rate `λ_t`, messages/s (over the broker's uptime).
    pub arrival_rate: f64,
    /// Mean filter evaluations per message (`n_fltr`).
    pub mean_filters: f64,
    /// Mean realized replication grade (`E[R]`).
    pub mean_replication: f64,
    /// Mean measured service time `E[B_t]`, seconds.
    pub mean_service_time: f64,
    /// The adaptive online fit (when identifiable).
    pub fitted: Option<FittedCosts>,
    /// Confidence-gated verdict vs the anchor (`None` without an anchor).
    pub verdict: Option<RegressionVerdict>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn observatory(cap: usize, shards: usize) -> TopicObservatory {
        TopicObservatory::new(
            TopicObsConfig::default().per_topic_cap(cap),
            Some(CostParams::CORRELATION_ID),
            shards,
        )
    }

    fn drive(scratch: &mut TopicObsScratch, topic: &str, shard: usize, n: u32, r: u32, count: u32) {
        let truth = CostParams::CORRELATION_ID;
        for _ in 0..count {
            scratch.record(topic, shard, n, r, truth.mean_service_time(n, r as f64));
        }
    }

    #[test]
    fn staged_observations_land_in_the_table() {
        let obs = observatory(8, 2);
        let mut scratch = TopicObsScratch::default();
        drive(&mut scratch, "a", 0, 10, 3, 50);
        drive(&mut scratch, "b", 1, 40, 1, 20);
        assert_eq!(scratch.flush(&obs), 0);

        let snap = obs.snapshot();
        assert_eq!(snap.topics.len(), 2);
        assert_eq!(snap.topics[0].name, "a"); // busiest first
        assert_eq!(snap.topics[0].messages, 50);
        assert_eq!(snap.topics[0].shard, 0);
        assert!((snap.topics[0].mean_filters - 10.0).abs() < 1e-12);
        assert!((snap.topics[0].mean_replication - 3.0).abs() < 1e-12);
        assert_eq!(snap.overflowed_topics, 0);
    }

    #[test]
    fn cap_collapses_into_per_shard_other() {
        let obs = observatory(2, 2);
        let mut scratch = TopicObsScratch::default();
        drive(&mut scratch, "a", 0, 10, 1, 5);
        drive(&mut scratch, "b", 0, 10, 1, 5);
        scratch.flush(&obs);
        // Two more topics beyond the cap, on different shards.
        drive(&mut scratch, "c", 0, 10, 1, 7);
        drive(&mut scratch, "d", 1, 10, 1, 9);
        let collapsed = scratch.flush(&obs);
        assert_eq!(collapsed, 2);

        let snap = obs.snapshot();
        assert_eq!(snap.overflowed_topics, 2);
        let others: Vec<_> = snap.topics.iter().filter(|t| t.name == OTHER_TOPIC).collect();
        assert_eq!(others.len(), 2);
        let by_shard = |s: usize| others.iter().find(|t| t.shard == s).expect("bucket").messages;
        assert_eq!(by_shard(0), 7);
        assert_eq!(by_shard(1), 9);
    }

    #[test]
    fn per_topic_fit_converges_on_the_true_slopes() {
        let obs = observatory(8, 1);
        let truth = CostParams::CORRELATION_ID;
        let mut scratch = TopicObsScratch::default();
        // Vary R within the topic so the anchored 2-parameter fit is
        // identifiable.
        for i in 0..600u32 {
            let r = 1 + (i % 6);
            scratch.record("t", 0, 25, r, truth.mean_service_time(25, r as f64));
        }
        scratch.flush(&obs);
        let snap = obs.snapshot();
        let row = &snap.topics[0];
        let fitted = row.fitted.expect("identifiable").params;
        assert!((fitted.t_tx - truth.t_tx).abs() / truth.t_tx < 0.01);
        assert!(matches!(row.verdict, Some(RegressionVerdict::Stable(_))), "{:?}", row.verdict);
    }

    #[test]
    fn global_fit_pools_across_topics() {
        let obs = observatory(8, 1);
        let truth = CostParams::CORRELATION_ID;
        let mut scratch = TopicObsScratch::default();
        for (topic, n) in [("lo", 5u32), ("mid", 50), ("hi", 150)] {
            for i in 0..400u32 {
                let r = 1 + (i % 8);
                scratch.record(topic, 0, n, r, truth.mean_service_time(n, r as f64));
            }
        }
        scratch.flush(&obs);
        let snap = obs.snapshot();
        let global = snap.global_fitted.expect("identifiable").params;
        assert!((global.t_fltr - truth.t_fltr).abs() / truth.t_fltr < 0.01);
        assert!((global.t_tx - truth.t_tx).abs() / truth.t_tx < 0.01);
        assert!(matches!(snap.global_verdict, Some(RegressionVerdict::Stable(_))));
    }

    #[test]
    fn no_anchor_means_no_verdict_but_still_rates() {
        let obs = TopicObservatory::new(TopicObsConfig::default(), None, 1);
        let mut scratch = TopicObsScratch::default();
        drive(&mut scratch, "t", 0, 10, 2, 400);
        scratch.flush(&obs);
        let snap = obs.snapshot();
        assert!(snap.anchor.is_none());
        assert!(snap.topics[0].verdict.is_none());
        assert_eq!(snap.topics[0].messages, 400);
    }

    #[test]
    fn config_setters_validate() {
        let c = TopicObsConfig::default().per_topic_cap(5).flag_ratio(2.0).target_ratio(1.5);
        assert_eq!(c.per_topic_cap, 5);
        assert_eq!(c.flag_ratio, 2.0);
        assert_eq!(c.target_ratio, 1.5);
    }

    #[test]
    #[should_panic(expected = "per_topic_cap must be > 0")]
    fn zero_cap_rejected() {
        TopicObsConfig::default().per_topic_cap(0);
    }

    #[test]
    #[should_panic(expected = "flag_ratio must be >= 1")]
    fn sub_unity_flag_ratio_rejected() {
        TopicObsConfig::default().flag_ratio(0.9);
    }
}
