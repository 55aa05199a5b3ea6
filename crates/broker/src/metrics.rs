//! The broker's live instruments (see [`crate::config::MetricsConfig`]).
//!
//! All instruments live in one [`MetricsRegistry`] owned by the broker and
//! exposed through `Broker::metrics()`. Histogram samples are nanoseconds.
//!
//! | name | kind | meaning |
//! |---|---|---|
//! | `broker.waiting_ns` | histogram | publish-enqueue → dispatch start (the paper's `W`) |
//! | `broker.service_ns` | histogram | dispatch start → fan-out complete (the paper's `B`) |
//! | `broker.sojourn_ns` | histogram | publish-enqueue → fan-out complete (`W + B`) |
//! | `broker.backlog` | histogram | publish-queue depth sampled at each dispatch (PASTA: its window mean estimates the time-average queue length `L`) |
//! | `broker.queue_depth` | gauge | latest publish-queue depth |
//! | `broker.in_flight` | gauge | messages popped but not yet fanned out (0/1 per dispatcher) |
//! | `broker.waiting_ns{shard="i"}` | histogram | shard `i`'s waiting times (sharded dispatch only) |
//! | `broker.service_ns{shard="i"}` | histogram | shard `i`'s service times (sharded dispatch only) |
//! | `broker.sojourn_ns{shard="i"}` | histogram | shard `i`'s sojourn times (sharded dispatch only) |
//! | `broker.backlog{shard="i"}` | histogram | shard `i`'s queue depth at dispatch (sharded dispatch only) |
//! | `broker.queue_depth{shard="i"}` | gauge | shard `i`'s latest queue depth (sharded dispatch only) |
//! | `broker.in_flight{shard="i"}` | gauge | shard `i`'s in-flight message (sharded dispatch only) |
//! | `broker.stage.rcv_ns` | histogram | receive stage (`t_rcv`), sampled |
//! | `broker.stage.journal_ns` | histogram | write-ahead append (`t_store`), sampled |
//! | `broker.stage.filter_ns` | histogram | filter-scan stage (`n_fltr · t_fltr`), sampled |
//! | `broker.stage.fanout_ns` | histogram | copy/transmit stage (`R · t_tx`), sampled |
//! | `broker.topic.received{topic="…"}` | counter | messages popped off the publish queue on the topic, expired ones included; the first `per_topic_series` topics created get their own series, later ones share `topic="__other__"` |
//! | `broker.topic.dispatched{topic="…"}` | counter | copies delivered from the topic (same labels) |
//! | `broker.topics_overflowed` | counter | topics created beyond the cap of an enabled per-topic table (`per_topic_series`, the observatory's `per_topic_cap`), which share that table's `__other__`; each counted once, when it is created |
//! | `journal.append_ns` | histogram | every journal append (always on, from `rjms-journal`) |
//! | `journal.fsync_ns` | histogram | every explicit fsync (always on, from `rjms-journal`) |

use rjms_metrics::{clock, shard_series, Gauge, Histogram, LocalHistogram, MetricsRegistry};
use std::sync::Arc;

/// Dispatcher-local staging flushed into the shared histograms every this
/// many samples (and whenever the dispatcher goes idle), bounding snapshot
/// staleness under load to a few milliseconds.
pub(crate) const FLUSH_EVERY: u64 = 1024;

/// The dispatcher's instruments plus the registry they are published in.
pub(crate) struct BrokerMetrics {
    pub(crate) registry: MetricsRegistry,
    pub(crate) waiting: Arc<Histogram>,
    pub(crate) service: Arc<Histogram>,
    pub(crate) sojourn: Arc<Histogram>,
    pub(crate) backlog: Arc<Histogram>,
    pub(crate) stage_rcv: Arc<Histogram>,
    pub(crate) stage_journal: Arc<Histogram>,
    pub(crate) stage_filter: Arc<Histogram>,
    pub(crate) stage_fanout: Arc<Histogram>,
    /// Record the stage decomposition on every Nth message.
    pub(crate) stage_sample_every: u64,
    /// Tick-to-nanosecond scale of the instrumentation clock, resolved at
    /// construction so per-message conversions are a single multiply.
    pub(crate) ns_per_tick: f64,
}

impl BrokerMetrics {
    pub(crate) fn new(stage_sample_every: u64) -> Self {
        let registry = MetricsRegistry::new();
        // The unlabeled gauge pair is on the surface whatever the shard
        // count; a sharded broker's dispatchers write their own pairs.
        registry.gauge("broker.queue_depth");
        registry.gauge("broker.in_flight");
        Self {
            waiting: registry.histogram("broker.waiting_ns"),
            service: registry.histogram("broker.service_ns"),
            sojourn: registry.histogram("broker.sojourn_ns"),
            backlog: registry.histogram("broker.backlog"),
            stage_rcv: registry.histogram("broker.stage.rcv_ns"),
            stage_journal: registry.histogram("broker.stage.journal_ns"),
            stage_filter: registry.histogram("broker.stage.filter_ns"),
            stage_fanout: registry.histogram("broker.stage.fanout_ns"),
            stage_sample_every,
            ns_per_tick: clock::ns_per_tick(),
            registry,
        }
    }
}

/// One shard's labeled histogram triple plus its local staging. Only
/// allocated for sharded dispatch (`shards > 1`): the single-dispatcher
/// broker publishes no shard-labeled series, keeping its metric surface
/// byte-identical to the pre-shard layout.
struct ShardScratch {
    waiting: (LocalHistogram, Arc<Histogram>),
    service: (LocalHistogram, Arc<Histogram>),
    sojourn: (LocalHistogram, Arc<Histogram>),
    backlog: (LocalHistogram, Arc<Histogram>),
}

/// Single-writer staging for the per-message histograms: the dispatcher
/// records into plain local buckets and flushes into the shared atomic
/// instruments every [`FLUSH_EVERY`] samples and on idle, keeping the
/// per-message cost to non-atomic L1 increments.
pub(crate) struct DispatcherScratch {
    waiting: LocalHistogram,
    service: LocalHistogram,
    sojourn: LocalHistogram,
    /// Publish-queue depth at each dispatch. By PASTA, the depth an
    /// arriving (Poisson) message observes is distributed as the
    /// time-average queue length, so this histogram's window mean is a
    /// direct estimate of `L` for the Little's-law self-check.
    backlog: LocalHistogram,
    /// Latest queue depth, for at-a-glance gauges and history rings.
    depth_gauge: Arc<Gauge>,
    /// 1 while a message is being fanned out, 0 when the dispatcher idles.
    in_flight_gauge: Arc<Gauge>,
    /// Shard-labeled twins of the series, staged alongside the aggregates
    /// so each shard's own distribution stays observable.
    shard: Option<ShardScratch>,
}

impl DispatcherScratch {
    /// Staging for dispatcher `shard` of `shards`. Its gauge pair is that
    /// shard's series ([`shard_series`]): each dispatcher is the single
    /// writer of its own pair, so shards never stomp one another's readings.
    /// On a sharded broker its samples also feed the shard's labeled
    /// histogram twins (`broker.waiting_ns{shard="i"}`, …) beside the
    /// aggregates; a single dispatcher's series are the aggregates.
    pub(crate) fn new(metrics: &BrokerMetrics, shard: usize, shards: usize) -> Self {
        let series = |base| shard_series(base, shard, shards);
        let twin = |base| (LocalHistogram::new(), metrics.registry.histogram(&series(base)));
        Self {
            waiting: LocalHistogram::new(),
            service: LocalHistogram::new(),
            sojourn: LocalHistogram::new(),
            backlog: LocalHistogram::new(),
            depth_gauge: metrics.registry.gauge(&series("broker.queue_depth")),
            in_flight_gauge: metrics.registry.gauge(&series("broker.in_flight")),
            shard: (shards > 1).then(|| ShardScratch {
                waiting: twin("broker.waiting_ns"),
                service: twin("broker.service_ns"),
                sojourn: twin("broker.sojourn_ns"),
                backlog: twin("broker.backlog"),
            }),
        }
    }

    /// Stages one message's waiting/service/sojourn sample.
    pub(crate) fn record(&mut self, waiting: u64, service: u64, sojourn: u64) {
        self.waiting.record(waiting);
        self.service.record(service);
        self.sojourn.record(sojourn);
        if let Some(shard) = &mut self.shard {
            shard.waiting.0.record(waiting);
            shard.service.0.record(service);
            shard.sojourn.0.record(sojourn);
        }
    }

    /// Stages the publish-queue depth observed when a message was popped
    /// (excluding the popped message itself, so it estimates the *waiting*
    /// line `L_q`) and marks the dispatcher busy. The gauge store is a
    /// single-writer relaxed write to a line nothing else touches.
    pub(crate) fn record_backlog(&mut self, depth: u64) {
        self.backlog.record(depth);
        self.depth_gauge.set(depth as i64);
        self.in_flight_gauge.set(1);
        if let Some(shard) = &mut self.shard {
            shard.backlog.0.record(depth);
        }
    }

    /// Marks the dispatcher idle: queue drained, nothing in flight.
    pub(crate) fn mark_idle(&self) {
        self.depth_gauge.set(0);
        self.in_flight_gauge.set(0);
    }

    /// Publishes every staged sample into the shared instruments.
    pub(crate) fn flush(&mut self, metrics: &BrokerMetrics) {
        self.waiting.flush_into(&metrics.waiting);
        self.service.flush_into(&metrics.service);
        self.sojourn.flush_into(&metrics.sojourn);
        self.backlog.flush_into(&metrics.backlog);
        if let Some(shard) = &mut self.shard {
            shard.waiting.0.flush_into(&shard.waiting.1);
            shard.service.0.flush_into(&shard.service.1);
            shard.sojourn.0.flush_into(&shard.sojourn.1);
            shard.backlog.0.flush_into(&shard.backlog.1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_scratch_feeds_labeled_twins() {
        let m = BrokerMetrics::new(1);
        let mut scratch = DispatcherScratch::new(&m, 2, 4);
        scratch.record(10, 20, 30);
        scratch.flush(&m);
        let snap = m.registry.snapshot();
        // Both the aggregate and the shard-labeled series carry the sample.
        assert_eq!(snap.histogram("broker.waiting_ns").unwrap().count, 1);
        assert_eq!(snap.histogram("broker.waiting_ns{shard=\"2\"}").unwrap().count, 1);
        assert_eq!(snap.histogram("broker.sojourn_ns{shard=\"2\"}").unwrap().max, 30);
        // Plain staging publishes no shard series.
        assert!(snap.histogram("broker.waiting_ns{shard=\"0\"}").is_none());
    }

    #[test]
    fn backlog_staging_feeds_histogram_and_gauges() {
        let m = BrokerMetrics::new(1);
        let mut scratch = DispatcherScratch::new(&m, 0, 1);
        scratch.record_backlog(3);
        scratch.record_backlog(5);
        assert_eq!(m.registry.gauge("broker.queue_depth").get(), 5);
        assert_eq!(m.registry.gauge("broker.in_flight").get(), 1);
        scratch.mark_idle();
        assert_eq!(m.registry.gauge("broker.queue_depth").get(), 0);
        assert_eq!(m.registry.gauge("broker.in_flight").get(), 0);
        scratch.flush(&m);
        let snap = m.registry.snapshot();
        let backlog = snap.histogram("broker.backlog").unwrap();
        assert_eq!(backlog.count, 2);
        assert_eq!(backlog.max, 5);
    }

    #[test]
    fn sharded_backlog_uses_labeled_series_and_gauges() {
        let m = BrokerMetrics::new(1);
        let mut scratch = DispatcherScratch::new(&m, 1, 2);
        scratch.record_backlog(7);
        scratch.flush(&m);
        let snap = m.registry.snapshot();
        // Aggregate and labeled histograms both carry the sample; the
        // gauges are labeled only (single writer per shard).
        assert_eq!(snap.histogram("broker.backlog").unwrap().count, 1);
        assert_eq!(snap.histogram("broker.backlog{shard=\"1\"}").unwrap().count, 1);
        assert_eq!(m.registry.gauge("broker.queue_depth{shard=\"1\"}").get(), 7);
        assert_eq!(m.registry.gauge("broker.in_flight{shard=\"1\"}").get(), 1);
    }
}
