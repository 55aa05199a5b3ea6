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
//! series, and in the same place: the first `per_topic_cap` topics are
//! given an [`Account`] of their own when they are created (by the broker's
//! one topic constructor), every later topic accounts into its shard's
//! `__other__` (so its load still lands on the right shard in the skew
//! analysis).
//!
//! An account has one writer: a topic's messages all pass through its
//! shard's dispatcher, and so do those of every topic sharing that shard's
//! `__other__`. The per-message cost is therefore an uncontended lock and a
//! dozen floating-point adds (gated by the `ext_overhead` benchmark's
//! `topic_obs` gate); only a snapshot ever makes a dispatcher wait.

use crate::broker::Topic;
use parking_lot::Mutex;
use rjms_core::params::CostParams;
use rjms_core::regression::{CostRegression, FittedCosts, RegressionTolerance, RegressionVerdict};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
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
    /// Ratio the rebalance advisor's moves aim to get under.
    pub target_ratio: f64,
}

impl Default for TopicObsConfig {
    fn default() -> Self {
        Self { per_topic_cap: 64, target_ratio: 1.10 }
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

/// The accumulated workload observations of one topic, or of the topics
/// that share a shard's `__other__`; written by that shard's dispatcher.
pub(crate) type Account = Mutex<CostRegression>;

/// The broker's per-topic workload observatory: configuration, reference
/// params and the accounts no single topic owns.
#[derive(Debug)]
pub(crate) struct TopicObservatory {
    config: TopicObsConfig,
    anchor: Option<CostParams>,
    started: Instant,
    /// Per-shard overflow buckets, so collapsed topics still contribute
    /// their load to the right shard.
    other: Vec<Account>,
}

impl TopicObservatory {
    pub(crate) fn new(config: TopicObsConfig, anchor: Option<CostParams>, shards: usize) -> Self {
        let other = (0..shards.max(1)).map(|_| Account::default()).collect();
        Self { config, anchor, started: Instant::now(), other }
    }

    /// Where `topic`'s messages are accounted: its own account, else its
    /// shard's `__other__`.
    pub(crate) fn account_of<'a>(&'a self, topic: &'a Topic) -> &'a Account {
        topic.account.as_ref().unwrap_or(&self.other[topic.shard])
    }

    /// Snapshots the accounts into self-contained rows, one per account
    /// that has seen a message; `topics` are the broker's.
    pub(crate) fn snapshot<'a>(
        &self,
        topics: impl Iterator<Item = &'a Arc<Topic>>,
    ) -> TopicObservatorySnapshot {
        let elapsed = self.started.elapsed();
        let other = self.other.iter().enumerate();
        let mut accounts: Vec<_> =
            other.map(|(shard, a)| (OTHER_TOPIC, shard, *a.lock())).collect();
        let mut overflowed_topics = 0;
        for topic in topics {
            match &topic.account {
                Some(own) => accounts.push((&topic.name, topic.shard, *own.lock())),
                None => overflowed_topics += 1,
            }
        }
        let mut global = CostRegression::new();
        let mut rows = Vec::new();
        for (name, shard, regression) in &accounts {
            if regression.len() + regression.rejected() > 0 {
                global.merge(regression);
                rows.push(self.summarize(name, *shard, regression, elapsed));
            }
        }
        // Deterministic order: busiest first, name as tie-break.
        rows.sort_by(|a, b| b.messages.cmp(&a.messages).then_with(|| a.name.cmp(&b.name)));
        let global_row = self.summarize(OTHER_TOPIC, 0, &global, elapsed);
        TopicObservatorySnapshot {
            elapsed,
            anchor: self.anchor,
            config: self.config,
            shards: self.other.len(),
            overflowed_topics,
            global_fitted: global_row.fitted,
            global_verdict: global_row.verdict,
            topics: rows,
        }
    }

    fn summarize(
        &self,
        name: &str,
        shard: usize,
        reg: &CostRegression,
        elapsed: Duration,
    ) -> TopicObsRow {
        // Anchored fits need reference params; without any configured cost
        // model the zero anchor lets the slopes absorb the (native,
        // sub-microsecond) intercept, and no verdict is rendered.
        let fit_anchor = self.anchor.unwrap_or_else(|| CostParams::new(0.0, 0.0, 0.0));
        let messages = reg.len() + reg.rejected();
        let secs = elapsed.as_secs_f64();
        TopicObsRow {
            name: name.to_string(),
            shard,
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
    /// Topics created beyond the cap, which account into their shard's
    /// `__other__` row (a signal the cap is too small).
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

    /// A topic on `shard`, with an account of its own if `own`.
    fn topic(name: &str, shard: usize, own: bool) -> Arc<Topic> {
        let account = own.then(Account::default);
        Arc::new(Topic { name: name.to_owned(), shard, account, ..Topic::default() })
    }

    /// What the probe does per message: `count` times `(n, r)` on `topic`.
    fn drive(obs: &TopicObservatory, topic: &Topic, n: u32, rs: impl Fn(u32) -> u32, count: u32) {
        let truth = CostParams::CORRELATION_ID;
        for i in 0..count {
            let r = rs(i);
            let service = truth.mean_service_time(n, r as f64);
            obs.account_of(topic).lock().observe(n, r as f64, service);
        }
    }

    #[test]
    fn observations_land_in_the_topics_own_account() {
        let obs = observatory(8, 2);
        let topics = [topic("a", 0, true), topic("b", 1, true), topic("idle", 1, true)];
        drive(&obs, &topics[0], 10, |_| 3, 50);
        drive(&obs, &topics[1], 40, |_| 1, 20);

        let snap = obs.snapshot(topics.iter());
        // A topic that has seen no message has an account and no row.
        assert_eq!(snap.topics.len(), 2);
        assert_eq!(snap.topics[0].name, "a"); // busiest first
        assert_eq!(snap.topics[0].messages, 50);
        assert_eq!((snap.topics[0].shard, snap.topics[1].shard), (0, 1));
        assert!((snap.topics[0].mean_filters - 10.0).abs() < 1e-12);
        assert!((snap.topics[0].mean_replication - 3.0).abs() < 1e-12);
        assert_eq!((snap.shards, snap.overflowed_topics), (2, 0));
    }

    /// A topic without an account of its own is counted once, whatever it
    /// receives, and its messages pool with its shard's other such topics.
    #[test]
    fn topics_beyond_the_cap_pool_in_their_shards_other() {
        let obs = observatory(2, 2);
        let topics = [
            topic("a", 0, true),
            topic("b", 0, true),
            topic("c", 0, false),
            topic("d", 1, false),
            topic("e", 1, false),
        ];
        for (topic, count) in topics.iter().zip([5, 5, 7, 9, 0]) {
            drive(&obs, topic, 10, |_| 1, count);
            drive(&obs, topic, 10, |_| 1, count);
        }

        let snap = obs.snapshot(topics.iter());
        assert_eq!(snap.overflowed_topics, 3);
        let others: Vec<_> = snap.topics.iter().filter(|t| t.name == OTHER_TOPIC).collect();
        assert_eq!(others.len(), 2);
        let by_shard = |s: usize| others.iter().find(|t| t.shard == s).expect("bucket").messages;
        assert_eq!((by_shard(0), by_shard(1)), (14, 18));
        assert_eq!(snap.topics.len(), 4);
    }

    #[test]
    fn per_topic_fit_converges_on_the_true_slopes() {
        let obs = observatory(8, 1);
        let truth = CostParams::CORRELATION_ID;
        let t = topic("t", 0, true);
        // Vary R within the topic so the anchored 2-parameter fit is
        // identifiable.
        drive(&obs, &t, 25, |i| 1 + (i % 6), 600);
        let snap = obs.snapshot([&t].into_iter());
        let row = &snap.topics[0];
        let fitted = row.fitted.expect("identifiable").params;
        assert!((fitted.t_tx - truth.t_tx).abs() / truth.t_tx < 0.01);
        assert!(matches!(row.verdict, Some(RegressionVerdict::Stable(_))), "{:?}", row.verdict);
    }

    #[test]
    fn global_fit_pools_across_topics() {
        let obs = observatory(8, 1);
        let truth = CostParams::CORRELATION_ID;
        let topics = [("lo", 5u32), ("mid", 50), ("hi", 150)].map(|(name, n)| {
            let topic = topic(name, 0, true);
            drive(&obs, &topic, n, |i| 1 + (i % 8), 400);
            topic
        });
        let snap = obs.snapshot(topics.iter());
        let global = snap.global_fitted.expect("identifiable").params;
        assert!((global.t_fltr - truth.t_fltr).abs() / truth.t_fltr < 0.01);
        assert!((global.t_tx - truth.t_tx).abs() / truth.t_tx < 0.01);
        assert!(matches!(snap.global_verdict, Some(RegressionVerdict::Stable(_))));
    }

    #[test]
    fn no_anchor_means_no_verdict_but_still_rates() {
        let obs = TopicObservatory::new(TopicObsConfig::default(), None, 1);
        let t = topic("t", 0, true);
        drive(&obs, &t, 10, |_| 2, 400);
        let snap = obs.snapshot([&t].into_iter());
        assert!(snap.anchor.is_none());
        assert!(snap.topics[0].verdict.is_none());
        assert_eq!(snap.topics[0].messages, 400);
    }

    #[test]
    fn config_setters_validate() {
        let c = TopicObsConfig::default().per_topic_cap(5).target_ratio(1.5);
        assert_eq!(c.per_topic_cap, 5);
        assert_eq!(c.target_ratio, 1.5);
    }

    #[test]
    #[should_panic(expected = "per_topic_cap must be > 0")]
    fn zero_cap_rejected() {
        TopicObsConfig::default().per_topic_cap(0);
    }

    #[test]
    #[should_panic(expected = "target_ratio must be >= 1")]
    fn sub_unity_target_ratio_rejected() {
        TopicObsConfig::default().target_ratio(0.9);
    }
}
