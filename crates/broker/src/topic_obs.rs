//! The per-topic workload observatory.
//!
//! The paper's Eq. 1 parameters (`n_fltr`, `E[R]`, the cost constants) are
//! *per-workload* quantities, but the broker's aggregate histograms blur
//! every topic into one stream. This module gives the dispatcher a bounded
//! per-topic accounting table: for each topic it accumulates the arrival
//! count, the realized filter evaluations and replication grade, and an
//! online [`CostRegression`] over the measured `(n_fltr, R, B)` triples —
//! enough to fit each topic's own cost constants and to measure each
//! shard's share of the offered load ([`TopicObservatorySnapshot::skew`]).
//!
//! Cardinality is capped by the Prometheus exporter's per-topic series cap,
//! and in the same place: the first [`PER_TOPIC_SERIES`](crate::PER_TOPIC_SERIES)
//! topics are given an [`Account`] of their own when they are created (by
//! the broker's one topic constructor), every later topic accounts into its
//! shard's `__other__` (so its load still lands on the right shard in the
//! skew measurement).
//!
//! An account has one writer: a topic's messages all pass through its
//! shard's dispatcher, and so do those of every topic sharing that shard's
//! `__other__`. The per-message cost is therefore an uncontended lock and a
//! dozen floating-point adds (gated by the `ext_overhead` benchmark's
//! `topic_obs` gate); only a snapshot ever makes a dispatcher wait.

use crate::broker::Topic;
use parking_lot::{Mutex, MutexGuard};
use rjms_core::params::CostParams;
use rjms_core::regression::{CostRegression, FittedCosts, RegressionVerdict};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Name of the overflow bucket rows (same label as the metrics exporter).
pub const OTHER_TOPIC: &str = "__other__";

/// Per-topic observatory settings: none; setting it switches the
/// observatory on.
///
/// Enabling the observatory auto-enables default metrics (the observatory
/// reads the dispatcher's per-message service timings).
///
/// # Examples
///
/// ```
/// use rjms_broker::config::{BrokerConfig, TopicObsConfig};
///
/// let config = BrokerConfig::builder().topic_obs(TopicObsConfig::default()).build();
/// assert_eq!(config.topic_obs, Some(TopicObsConfig {}));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TopicObsConfig {}

/// Max/mean shard-load ratio above which [`Skew::skewed`] is set.
pub const FLAG_RATIO: f64 = 1.25;

/// The accumulated workload observations of one topic, or of the topics
/// that share a shard's `__other__`; written by that shard's dispatcher.
pub(crate) type Account = Mutex<CostRegression>;

/// The broker's per-topic workload observatory: reference params and the
/// accounts no single topic owns.
#[derive(Debug)]
pub(crate) struct TopicObservatory {
    anchor: Option<CostParams>,
    started: Instant,
    /// Per-shard overflow buckets, so collapsed topics still contribute
    /// their load to the right shard.
    other: Vec<Account>,
}

impl TopicObservatory {
    pub(crate) fn new(anchor: Option<CostParams>, shards: usize) -> Self {
        let other = (0..shards.max(1)).map(|_| Account::default()).collect();
        Self { anchor, started: Instant::now(), other }
    }

    /// Locks where `topic`'s messages are accounted: its own account, else
    /// its shard's `__other__`. Test builds count the locks
    /// (`account_locks`).
    pub(crate) fn lock_account<'a>(&'a self, topic: &'a Topic) -> MutexGuard<'a, CostRegression> {
        #[cfg(test)]
        tests::ACCOUNT_LOCKS.with(|locks| locks.set(locks.get() + 1));
        topic.account.as_ref().unwrap_or(&self.other[topic.shard]).lock()
    }

    /// How many accounts [`lock_account`](Self::lock_account) has locked on
    /// this thread (test builds).
    #[cfg(test)]
    pub(crate) fn account_locks() -> u64 {
        tests::ACCOUNT_LOCKS.with(std::cell::Cell::get)
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
            verdict: self.anchor.map(|a| reg.assess(&a)),
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
    /// Number of dispatcher shards.
    pub shards: usize,
    /// Topics created beyond the [`PER_TOPIC_SERIES`](crate::PER_TOPIC_SERIES)
    /// cap, which account into their shard's `__other__` row.
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

impl TopicObservatorySnapshot {
    /// Each shard's share of the offered load `ρ_s = Σ λ_t·E[B_t]` over its
    /// rows, and the max/mean ratio of those loads. Rows on an out-of-range
    /// shard, or with a non-finite or negative load or rate, are ignored.
    pub fn skew(&self) -> Skew {
        let shards = self.shards.max(1);
        let (mut load, mut rate) = (vec![0.0f64; shards], vec![0.0f64; shards]);
        for t in &self.topics {
            let l = t.arrival_rate * t.mean_service_time;
            if t.shard < shards && l.is_finite() && l >= 0.0 && t.arrival_rate >= 0.0 {
                load[t.shard] += l;
                rate[t.shard] += t.arrival_rate;
            }
        }
        let total_load: f64 = load.iter().sum();
        let total_rate: f64 = rate.iter().sum();
        let max = load.iter().copied().fold(0.0, f64::max);
        let mean = total_load / shards as f64;
        let max_mean_ratio = if mean > 0.0 { max / mean } else { 1.0 };
        let share = |part: f64, total: f64| if total > 0.0 { part / total } else { 0.0 };
        let shares = (0..shards)
            .map(|s| ShardShare {
                shard: s,
                offered_load: load[s],
                arrival_share: share(rate[s], total_rate),
                load_share: share(load[s], total_load),
            })
            .collect();
        Skew { shares, max_mean_ratio, skewed: max_mean_ratio > FLAG_RATIO }
    }
}

/// How the offered load spreads over the shards
/// ([`TopicObservatorySnapshot::skew`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Skew {
    /// Per-shard load shares, indexed by shard.
    pub shares: Vec<ShardShare>,
    /// Max/mean shard-load ratio (1.0 = perfectly balanced).
    pub max_mean_ratio: f64,
    /// Whether the ratio exceeds [`FLAG_RATIO`].
    pub skewed: bool,
}

/// One shard's slice of the total offered work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardShare {
    /// Shard index.
    pub shard: usize,
    /// Offered load `ρ_s = Σ λ_t·E[B_t]` over the shard's rows.
    pub offered_load: f64,
    /// Fraction of the total arrival rate landing on this shard.
    pub arrival_share: f64,
    /// Fraction of the total offered load landing on this shard.
    pub load_share: f64,
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
    use std::cell::Cell;

    thread_local! {
        /// [`TopicObservatory::account_locks`].
        pub(super) static ACCOUNT_LOCKS: Cell<u64> = const { Cell::new(0) };
    }

    fn observatory(shards: usize) -> TopicObservatory {
        TopicObservatory::new(Some(CostParams::CORRELATION_ID), shards)
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
            obs.lock_account(topic).observe(n, r as f64, service);
        }
    }

    #[test]
    fn observations_land_in_the_topics_own_account() {
        let obs = observatory(2);
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
        let obs = observatory(2);
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
        let obs = observatory(1);
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
        let obs = observatory(1);
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
        let obs = TopicObservatory::new(None, 1);
        let t = topic("t", 0, true);
        drive(&obs, &t, 10, |_| 2, 400);
        let snap = obs.snapshot([&t].into_iter());
        assert!(snap.anchor.is_none());
        assert!(snap.topics[0].verdict.is_none());
        assert_eq!(snap.topics[0].messages, 400);
    }

    /// A snapshot of `shards` with one topic of 100 messages on each of
    /// `on`; every message costs the same, so loads go as message counts.
    fn snapshot_of(shards: usize, on: &[usize]) -> TopicObservatorySnapshot {
        let obs = observatory(shards);
        let topics: Vec<_> = on.iter().map(|&shard| topic("t", shard, true)).collect();
        for t in &topics {
            drive(&obs, t, 10, |_| 1, 100);
        }
        obs.snapshot(topics.iter())
    }

    #[test]
    fn skew_is_the_max_mean_ratio_of_the_valid_rows() {
        let balanced = snapshot_of(3, &[0, 1, 2]).skew();
        assert!(!balanced.skewed);
        assert!((balanced.max_mean_ratio - 1.0).abs() < 1e-9);
        assert_eq!(balanced.shares.len(), 3);
        for s in &balanced.shares {
            assert!((s.load_share - 1.0 / 3.0).abs() < 1e-9);
        }
        let single = snapshot_of(1, &[0]).skew();
        assert!(!single.skewed && (single.max_mean_ratio - 1.0).abs() < 1e-9);
        let empty = snapshot_of(4, &[]).skew();
        assert!(!empty.skewed && empty.max_mean_ratio == 1.0 && empty.shares.len() == 4);

        // Out of range, NaN and negative rows land nowhere: shard 0 holds
        // all the load of two shards, a ratio of 2.
        let mut invalid = snapshot_of(2, &[0]);
        let valid = invalid.topics[0].clone();
        for (shard, arrival_rate) in [(9, 100.0), (1, f64::NAN), (1, -5.0)] {
            invalid.topics.push(TopicObsRow { shard, arrival_rate, ..valid.clone() });
        }
        let invalid = invalid.skew();
        assert!(invalid.skewed && (invalid.max_mean_ratio - 2.0).abs() < 1e-9);
        assert_eq!(invalid.shares[1].offered_load, 0.0);
        assert_eq!((invalid.shares[0].arrival_share, invalid.shares[0].load_share), (1.0, 1.0));
    }
}
