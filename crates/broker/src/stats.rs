//! Broker statistics and throughput measurement.
//!
//! The paper measures the *received throughput* (messages accepted from
//! publishers per second), the *dispatched throughput* (message copies
//! forwarded to subscribers per second), and their sum, the *overall
//! throughput*, over a measurement window with warmup and cooldown trimmed
//! off. [`BrokerStats`] holds the lock-free counters; [`ThroughputProbe`]
//! implements the trimmed-window measurement.

use crate::broker::Broker;
use crate::reports::broker_totals;
use rjms_journal::JournalStats;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// `total / received`, a counter's per-message mean (`dispatched`: the
/// replication grade); `None` before the first message.
pub(crate) fn per_message(total: u64, received: u64) -> Option<f64> {
    (received > 0).then(|| total as f64 / received as f64)
}

/// Message-flow counters within a [`BrokerSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MessageCounters {
    /// Messages received from publishers.
    pub received: u64,
    /// Message copies dispatched to subscribers.
    pub dispatched: u64,
    /// Filter evaluations performed (brute force: one per subscription per
    /// message).
    pub filter_evaluations: u64,
    /// Message copies dropped: on full subscriber queues (only under
    /// [`crate::config::OverflowPolicy::DropNew`]), and the oldest retained
    /// message of a disconnected durable subscription whose retention
    /// buffer is full.
    pub dropped: u64,
    /// Messages retained for disconnected durable subscriptions.
    pub retained: u64,
    /// Messages discarded because their TTL elapsed.
    pub expired: u64,
}

impl MessageCounters {
    /// Mean replication grade so far (`dispatched / received`); `None`
    /// before the first message.
    pub fn replication_grade(&self) -> Option<f64> {
        per_message(self.dispatched, self.received)
    }
}

/// Subscription-topology counts within a [`BrokerSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SubscriptionCounters {
    /// Topics currently registered.
    pub topics: usize,
    /// Live non-durable subscriptions across all topics.
    pub live: usize,
    /// Durable subscriptions across all topics (connected or not).
    pub durable: usize,
    /// Subscriptions removed after their subscriber disconnected.
    pub expired: u64,
}

/// Admission-control outcome counters, present when the broker runs with
/// [`crate::config::FlowConfig`]: the sums over the classes of the flow
/// gate's own snapshot (`Broker::flow`), which counts each decision once.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowCounters {
    /// Publishes admitted by the gate.
    pub granted: u64,
    /// Publishes deferred with a retry hint.
    pub deferred: u64,
    /// Publishes shed to protect the waiting-time objective.
    pub shed: u64,
}

/// One dispatcher shard's counters (sharded dispatch only; see
/// [`crate::BrokerConfig::shards`] and [`crate::shard_of`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardSnapshot {
    /// Shard index in `0..shards`.
    pub shard: usize,
    /// Topics hashed onto this shard.
    pub topics: usize,
    /// Messages received by this shard's dispatcher.
    pub received: u64,
    /// Message copies dispatched by this shard's dispatcher.
    pub dispatched: u64,
    /// Filter evaluations performed by this shard's dispatcher.
    pub filter_evaluations: u64,
}

impl ShardSnapshot {
    /// Mean replication grade on this shard; `None` before the first
    /// message.
    pub fn replication_grade(&self) -> Option<f64> {
        per_message(self.dispatched, self.received)
    }
}

/// Per-topic message counters (see [`BrokerSnapshot::per_topic`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopicStats {
    /// Messages received on this topic.
    pub received: u64,
    /// Message copies dispatched from this topic.
    pub dispatched: u64,
}

impl TopicStats {
    /// Mean replication grade on this topic; `None` before the first
    /// message.
    pub fn replication_grade(&self) -> Option<f64> {
        per_message(self.dispatched, self.received)
    }
}

/// A typed point-in-time snapshot of the whole broker, returned by
/// [`Broker::snapshot`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BrokerSnapshot {
    /// Message-flow counters.
    pub messages: MessageCounters,
    /// Subscription-topology counts.
    pub subscriptions: SubscriptionCounters,
    /// Write-ahead journal counters; `None` without persistence.
    pub journal: Option<JournalStats>,
    /// Admission-control counters; `None` without flow control.
    pub flow: Option<FlowCounters>,
    /// Per-shard dispatcher counters; `None` for the single-dispatcher
    /// broker (`shards = 1`), keeping its snapshot identical to the
    /// pre-shard wire format.
    pub shards: Option<Vec<ShardSnapshot>>,
    /// Per-topic message counters, keyed by topic name.
    pub per_topic: BTreeMap<String, TopicStats>,
    /// Topics folded into the `__other__` bucket of the per-topic tables —
    /// the labeled metric series and the observatory's rows beyond the
    /// first [`crate::PER_TOPIC_SERIES`] topics: topics are never deleted
    /// and take the slots in creation order, so this is the topics beyond
    /// the cap. 0 when every topic got a slot of its own (or metrics are
    /// off).
    #[serde(default)]
    pub topics_overflowed: u64,
}

/// Lock-free counters of the broker's rare events, shared between broker
/// threads and observers. (Received, dispatched and filter evaluations are
/// counted per topic and summed where read; the journal's counters are read
/// from the journal itself: see [`BrokerSnapshot::journal`].)
#[derive(Debug, Default)]
pub struct BrokerStats {
    dropped: AtomicU64,
    expired_subscriptions: AtomicU64,
    retained: AtomicU64,
    expired_messages: AtomicU64,
}

impl BrokerStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a message copy dropped because a subscriber queue was full
    /// (only under [`crate::config::OverflowPolicy::DropNew`]), or a retained
    /// message dropped because a disconnected durable subscription's
    /// retention buffer was full.
    pub fn record_dropped(&self) {
        self.dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a subscription removed because its subscriber disconnected.
    pub fn record_expired_subscription(&self) {
        self.expired_subscriptions.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a message retained for a disconnected durable subscription.
    pub fn record_retained(&self) {
        self.retained.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a message discarded because its TTL elapsed.
    pub fn record_expired_message(&self) {
        self.expired_messages.fetch_add(1, Ordering::Relaxed);
    }

    /// Message copies dropped on full subscriber queues so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Subscriptions removed after subscriber disconnect so far.
    pub fn expired_subscriptions(&self) -> u64 {
        self.expired_subscriptions.load(Ordering::Relaxed)
    }

    /// Messages retained for disconnected durable subscriptions so far.
    pub fn retained(&self) -> u64 {
        self.retained.load(Ordering::Relaxed)
    }

    /// Messages discarded due to TTL expiry so far.
    pub fn expired_messages(&self) -> u64 {
        self.expired_messages.load(Ordering::Relaxed)
    }
}

/// Throughput over a measurement window (messages per second).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Throughput {
    /// Received throughput (messages/s accepted from publishers).
    pub received_per_sec: f64,
    /// Dispatched throughput (message copies/s forwarded to subscribers).
    pub dispatched_per_sec: f64,
    /// Window length in seconds.
    pub window_secs: f64,
}

impl Throughput {
    /// Overall throughput: received + dispatched (the paper's headline
    /// metric in Fig. 4).
    pub fn overall_per_sec(&self) -> f64 {
        self.received_per_sec + self.dispatched_per_sec
    }

    /// Average replication grade over the window
    /// (`dispatched / received`); `None` if nothing was received.
    pub fn replication_grade(&self) -> Option<f64> {
        if self.received_per_sec > 0.0 {
            Some(self.dispatched_per_sec / self.received_per_sec)
        } else {
            None
        }
    }
}

/// Trimmed-window throughput measurement against a live broker.
///
/// Call [`ThroughputProbe::begin`] *after* the warmup phase and
/// [`ThroughputProbe::end`] *before* cooldown; the probe computes rates
/// from counter deltas and elapsed wall-clock time, mirroring the paper's
/// methodology (100 s run, first and last 5 s cut off).
#[derive(Debug)]
pub struct ThroughputProbe {
    received: u64,
    dispatched: u64,
    started_at: Instant,
}

impl ThroughputProbe {
    /// Starts measuring from the broker's current counter values.
    pub fn begin(broker: &Broker) -> Self {
        let all = broker_totals(&broker.inner);
        Self { received: all.received, dispatched: all.dispatched, started_at: Instant::now() }
    }

    /// Finishes measuring against the same broker and returns the window
    /// throughput.
    pub fn end(self, broker: &Broker) -> Throughput {
        let elapsed = self.started_at.elapsed().as_secs_f64().max(1e-9);
        let all = broker_totals(&broker.inner);
        Throughput {
            received_per_sec: all.received.saturating_sub(self.received) as f64 / elapsed,
            dispatched_per_sec: all.dispatched.saturating_sub(self.dispatched) as f64 / elapsed,
            window_secs: elapsed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = BrokerStats::new();
        s.record_dropped();
        s.record_retained();
        s.record_expired_message();
        assert_eq!(s.retained(), 1);
        assert_eq!(s.expired_messages(), 1);
        assert_eq!(s.dropped(), 1);
    }

    #[test]
    fn throughput_derived_metrics() {
        let t = Throughput { received_per_sec: 100.0, dispatched_per_sec: 500.0, window_secs: 1.0 };
        assert_eq!(t.overall_per_sec(), 600.0);
        assert_eq!(t.replication_grade(), Some(5.0));
        let idle = Throughput { received_per_sec: 0.0, dispatched_per_sec: 0.0, window_secs: 1.0 };
        assert_eq!(idle.replication_grade(), None);
    }

    #[test]
    fn probe_measures_deltas_only() {
        let broker = Broker::start(crate::BrokerConfig::default());
        broker.create_topic("t").unwrap();
        let topic = broker.lookup("t").unwrap();
        topic.received.fetch_add(1, Ordering::Relaxed); // before the probe starts — must not count
        let probe = ThroughputProbe::begin(&broker);
        topic.received.fetch_add(10, Ordering::Relaxed);
        topic.dispatched.fetch_add(20, Ordering::Relaxed);
        std::thread::sleep(std::time::Duration::from_millis(20));
        let t = probe.end(&broker);
        assert!(t.window_secs >= 0.02);
        assert!((t.replication_grade().unwrap() - 2.0).abs() < 1e-12);
        assert!(t.received_per_sec > 0.0 && t.received_per_sec < 10.0 / 0.02);
    }
}
