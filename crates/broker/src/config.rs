//! Broker configuration.

use rjms_core::CostParams;
use rjms_journal::JournalConfig;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

pub use crate::topic_obs::TopicObsConfig;
pub use rjms_flow::FlowConfig;

/// What the dispatcher does when a subscriber's queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum OverflowPolicy {
    /// Block the dispatcher until the subscriber drains (reliable delivery —
    /// the paper's *persistent* mode; back-pressure ultimately propagates to
    /// the publishers through the bounded publish queue).
    #[default]
    Block,
    /// Drop the new message copy for that subscriber (lossy delivery;
    /// recorded in [`crate::stats::BrokerStats::dropped`]).
    DropNew,
}

/// Deliveries to a connected durable consumer between checkpoint records,
/// per durable subscription: the re-delivery window after a crash.
pub(crate) const CHECKPOINT_EVERY: u64 = 256;

/// Messages retained per *disconnected durable subscription*; the oldest
/// retained message is dropped on overflow. A bound on memory, not a knob.
pub(crate) const DURABLE_BUFFER_CAPACITY: usize = 65_536;

/// Durability settings: where the write-ahead journal lives.
///
/// With persistence enabled the dispatcher appends every accepted message
/// to the journal *before* fan-out (write-ahead), and records a
/// `DurableCheckpoint` after every 256 deliveries to a connected durable
/// consumer (and once more at a clean shutdown). On restart the broker
/// recovers the journal, reading each segment once, to rebuild topics,
/// durable subscriptions and their retained backlogs; messages delivered
/// after the last checkpoint are re-delivered (at-least-once semantics).
///
/// Journal I/O failure or corruption is fatal: a broker that cannot write
/// or recover its write-ahead log cannot honor the durability contract, so
/// it panics rather than silently degrading to in-memory mode.
///
/// # Examples
///
/// ```
/// use rjms_broker::config::PersistenceConfig;
/// use rjms_journal::FsyncPolicy;
///
/// let p = PersistenceConfig::new("/tmp/rjms-doc-persist")
///     .journal(|j| j.fsync(FsyncPolicy::Always));
/// assert_eq!(p.journal.fsync, FsyncPolicy::Always);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PersistenceConfig {
    /// Journal location, segment sizing, fsync policy, retention. The
    /// broker does not know about retention
    /// (`JournalConfig::max_sealed_segments`): a restart after it has
    /// removed the segment holding a topic's or a durable subscription's
    /// record loses that topic or durable, and its backlog, with no error.
    pub journal: JournalConfig,
}

impl PersistenceConfig {
    /// Persistence with journal defaults in `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        PersistenceConfig { journal: JournalConfig::new(dir) }
    }

    /// Adjusts the journal configuration in place.
    pub fn journal(mut self, adjust: impl FnOnce(JournalConfig) -> JournalConfig) -> Self {
        self.journal = adjust(self.journal);
        self
    }
}

/// Live-observability settings (see `rjms-metrics`).
///
/// With metrics enabled the dispatcher records per-message waiting,
/// service and sojourn times into lock-free histograms, and decomposes the
/// service time into its Eq. 1 stages (`t_rcv`, filter scan, fan-out,
/// journal append) on one message in 64. Stage decomposition needs extra
/// clock reads inside the filter loop, so it is sampled rather than
/// exhaustive to keep dispatch overhead within the budget of the
/// `ext_overhead` benchmark's `observer` gate.
///
/// Each of the first 64 topics created (or recovered, in name order) is
/// exported as a labeled `broker.topic.*` counter pair; topic names are
/// unbounded client-controlled input, so later topics share one
/// `topic="__other__"` pair.
///
/// # Examples
///
/// ```
/// use rjms_broker::config::{BrokerConfig, MetricsConfig};
///
/// let config = BrokerConfig::builder().metrics(MetricsConfig::default()).build();
/// assert_eq!(config.metrics, Some(MetricsConfig::default()));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricsConfig {}

/// End-to-end tracing settings (see `rjms-trace`).
///
/// With tracing enabled the dispatcher records a span chain (receive →
/// journal → filter scan → fan-out, plus wire-flush events appended by the
/// net layer) for a *tail-sampled* subset of messages into a fixed-capacity
/// lock-free flight recorder. Tail sampling decides **after** dispatch,
/// when the sojourn time is known: chains are kept for messages slower
/// than the live `tail_quantile` of the sojourn histogram, plus a small
/// uniform baseline (every 128th message) so typical-latency chains stay
/// inspectable. Tracing requires metrics: enabling it
/// auto-enables a default [`MetricsConfig`] if none is set.
///
/// # Examples
///
/// ```
/// use rjms_broker::config::{BrokerConfig, TraceConfig};
///
/// let config = BrokerConfig::builder().trace(TraceConfig::default().tail_quantile(0.95)).build();
/// assert_eq!(config.trace.unwrap().tail_quantile, 0.95);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceConfig {
    /// Sojourn-time quantile above which a message's chain is kept
    /// (tail sampling); e.g. 0.99 keeps the slowest ~1%.
    pub tail_quantile: f64,
}

/// The flight recorder's ring capacity in span events (a power of two).
/// Memory is fixed at ~48 bytes per slot.
pub(crate) const TRACE_EVENTS: usize = 8192;

impl Default for TraceConfig {
    fn default() -> Self {
        Self { tail_quantile: 0.99 }
    }
}

impl TraceConfig {
    /// Sets the tail-sampling sojourn quantile.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= q < 1.0`.
    pub fn tail_quantile(mut self, q: f64) -> Self {
        assert!((0.0..1.0).contains(&q), "tail_quantile must be in [0, 1), got {q}");
        self.tail_quantile = q;
        self
    }
}

/// Configuration for a [`crate::Broker`].
///
/// Build one with [`BrokerConfig::builder`], the supported construction
/// surface; the public fields remain readable for introspection. A
/// disconnected durable subscription retains at most 65 536 messages, the
/// oldest dropped on overflow (and counted in
/// [`crate::stats::BrokerStats::dropped`]).
///
/// # Examples
///
/// ```
/// use rjms_broker::config::{BrokerConfig, OverflowPolicy};
///
/// let config = BrokerConfig::builder()
///     .publish_queue_capacity(512)
///     .overflow_policy(OverflowPolicy::DropNew)
///     .build();
/// assert_eq!(config.publish_queue_capacity, 512);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BrokerConfig {
    /// Number of dispatcher shards. Topics hash onto shards by name
    /// (see [`crate::shard_of`]); each shard runs its own dispatcher
    /// thread with its own publish queue, cost accounting, and — when
    /// metrics are enabled — its own waiting/service/sojourn histograms
    /// and analytic server model. `1` (the default) reproduces the
    /// paper's single CPU-bound server exactly.
    pub shards: usize,
    /// Capacity of the central publish queue (per shard). A full queue
    /// blocks publishers — the push-back mechanism the paper observed
    /// ("the major part of the messages are queued at the publisher
    /// site").
    pub publish_queue_capacity: usize,
    /// Capacity of each subscriber's delivery queue.
    pub subscriber_queue_capacity: usize,
    /// Behaviour on full subscriber queues.
    pub overflow_policy: OverflowPolicy,
    /// Optional synthetic CPU cost per message: the dispatcher busy-waits
    /// these Eq. 1 constants, `t_store` excepted, so that a saturated
    /// broker's throughput follows Eq. 1 on any host. It anchors every
    /// shard's model verdicts and seeds the flow gate's lanes. `None` runs
    /// the broker at native speed, each shard judged against its own fit.
    pub cost_model: Option<CostParams>,
    /// Optional write-ahead persistence (see [`PersistenceConfig`]);
    /// `None` runs the broker purely in memory, as the seed model did.
    pub persistence: Option<PersistenceConfig>,
    /// Optional live metrics (see [`MetricsConfig`]); `None` records
    /// nothing and keeps the dispatch path free of clock reads.
    pub metrics: Option<MetricsConfig>,
    /// Optional end-to-end tracing (see [`TraceConfig`]); `None` records
    /// no span events. Enabling tracing auto-enables default metrics,
    /// which the tail sampler's threshold feeds from.
    pub trace: Option<TraceConfig>,
    /// Optional model-driven admission control (see [`FlowConfig`]);
    /// `None` admits every publish unconditionally. Enabling flow control
    /// auto-enables default metrics: each dispatcher re-inverts its shard's
    /// admission lane from that shard's waiting and service histograms;
    /// until then a lane is seeded by the `cost_model`, or unbounded.
    pub flow: Option<FlowConfig>,
    /// Optional per-topic workload observatory (see [`TopicObsConfig`]);
    /// `None` keeps the dispatcher free of per-topic accounting. Enabling
    /// it auto-enables default metrics, which supply the per-message
    /// service timings the observatory regresses over.
    pub topic_obs: Option<TopicObsConfig>,
}

impl Default for BrokerConfig {
    fn default() -> Self {
        Self {
            shards: 1,
            publish_queue_capacity: 1024,
            subscriber_queue_capacity: 4096,
            overflow_policy: OverflowPolicy::Block,
            cost_model: None,
            persistence: None,
            metrics: None,
            trace: None,
            flow: None,
            topic_obs: None,
        }
    }
}

impl BrokerConfig {
    /// Starts a fluent [`BrokerConfigBuilder`] from the defaults: the
    /// supported way to construct a configuration.
    pub fn builder() -> BrokerConfigBuilder {
        BrokerConfigBuilder { config: BrokerConfig::default() }
    }
}

/// Fluent builder for [`BrokerConfig`], the supported construction
/// surface. Every section of the broker — sharding, queues, cost model,
/// persistence, metrics, trace, flow — is a typed method; `build()`
/// returns the finished config.
///
/// # Examples
///
/// ```
/// use rjms_broker::config::{BrokerConfig, FlowConfig, MetricsConfig};
///
/// let config = BrokerConfig::builder()
///     .shards(4)
///     .metrics(MetricsConfig::default())
///     .flow(FlowConfig::default().classes(4))
///     .build();
/// assert_eq!(config.shards, 4);
/// assert_eq!(config.flow.unwrap().classes, 4);
/// ```
#[derive(Debug, Clone)]
pub struct BrokerConfigBuilder {
    config: BrokerConfig,
}

impl BrokerConfigBuilder {
    /// Sets the number of dispatcher shards (1 = the paper's single
    /// CPU-bound server).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is 0.
    pub fn shards(mut self, shards: usize) -> Self {
        assert!(shards > 0, "shards must be > 0");
        self.config.shards = shards;
        self
    }

    /// Sets the per-shard publish-queue capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0.
    pub fn publish_queue_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "publish queue capacity must be > 0");
        self.config.publish_queue_capacity = capacity;
        self
    }

    /// Sets each subscriber's queue capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0.
    pub fn subscriber_queue_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "subscriber queue capacity must be > 0");
        self.config.subscriber_queue_capacity = capacity;
        self
    }

    /// Sets the behaviour on full subscriber queues.
    pub fn overflow_policy(mut self, policy: OverflowPolicy) -> Self {
        self.config.overflow_policy = policy;
        self
    }

    /// Enables the synthetic CPU cost model.
    pub fn cost_model(mut self, model: CostParams) -> Self {
        self.config.cost_model = Some(model);
        self
    }

    /// Enables write-ahead persistence.
    pub fn persistence(mut self, persistence: PersistenceConfig) -> Self {
        self.config.persistence = Some(persistence);
        self
    }

    /// Enables live metrics recording.
    pub fn metrics(mut self, metrics: MetricsConfig) -> Self {
        self.config.metrics = Some(metrics);
        self
    }

    /// Enables end-to-end tracing (and, implicitly, default metrics).
    pub fn trace(mut self, trace: TraceConfig) -> Self {
        self.config.trace = Some(trace);
        self
    }

    /// Enables model-driven admission control (and, implicitly, default
    /// metrics).
    pub fn flow(mut self, flow: FlowConfig) -> Self {
        self.config.flow = Some(flow);
        self
    }

    /// Enables the per-topic workload observatory (and, implicitly,
    /// default metrics).
    pub fn topic_obs(mut self, topic_obs: TopicObsConfig) -> Self {
        self.config.topic_obs = Some(topic_obs);
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> BrokerConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_blocking_and_costless() {
        let c = BrokerConfig::default();
        assert_eq!(c.overflow_policy, OverflowPolicy::Block);
        assert!(c.cost_model.is_none());
        assert!(c.publish_queue_capacity > 0);
        assert_eq!(c.shards, 1);
    }

    #[test]
    fn builder_chains() {
        let c = BrokerConfig::builder()
            .shards(4)
            .publish_queue_capacity(10)
            .subscriber_queue_capacity(20)
            .overflow_policy(OverflowPolicy::DropNew)
            .cost_model(CostParams::CORRELATION_ID)
            .build();
        assert_eq!(c.shards, 4);
        assert_eq!(c.publish_queue_capacity, 10);
        assert_eq!(c.subscriber_queue_capacity, 20);
        assert_eq!(c.overflow_policy, OverflowPolicy::DropNew);
        assert!(c.cost_model.is_some());
    }

    #[test]
    fn topic_obs_config_builder() {
        let c = BrokerConfig::builder().topic_obs(TopicObsConfig::default()).build();
        assert!(c.topic_obs.is_some());
        assert!(BrokerConfig::default().topic_obs.is_none());
    }

    #[test]
    #[should_panic(expected = "capacity must be > 0")]
    fn zero_capacity_rejected() {
        let _ = BrokerConfig::builder().publish_queue_capacity(0);
    }

    #[test]
    #[should_panic(expected = "shards must be > 0")]
    fn zero_shards_rejected() {
        let _ = BrokerConfig::builder().shards(0);
    }

    #[test]
    fn persistence_config_builders() {
        use rjms_journal::FsyncPolicy;
        let c = BrokerConfig::builder()
            .persistence(
                PersistenceConfig::new("/tmp/rjms-cfg-test")
                    .journal(|j| j.fsync(FsyncPolicy::Always)),
            )
            .build();
        let p = c.persistence.expect("persistence set");
        assert_eq!(p.journal.fsync, FsyncPolicy::Always);
        assert!(BrokerConfig::default().persistence.is_none());
    }

    #[test]
    fn flow_config_builder() {
        let c = BrokerConfig::builder()
            .flow(FlowConfig::default().w99_objective(0.02).classes(2))
            .build();
        let f = c.flow.expect("flow set");
        assert_eq!(f.w99_objective, 0.02);
        assert_eq!(f.classes, 2);
        assert!(BrokerConfig::default().flow.is_none());
    }

    #[test]
    fn trace_config_builders_and_defaults() {
        let t = TraceConfig::default();
        assert_eq!(t.tail_quantile, 0.99);
        let c = BrokerConfig::builder().trace(TraceConfig::default().tail_quantile(0.5)).build();
        let t = c.trace.expect("trace set");
        assert_eq!(t.tail_quantile, 0.5);
        assert!(BrokerConfig::default().trace.is_none());
    }

    #[test]
    #[should_panic(expected = "tail_quantile must be in [0, 1)")]
    fn trace_quantile_range_enforced() {
        TraceConfig::default().tail_quantile(1.0);
    }
}
