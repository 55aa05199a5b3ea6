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
//! | `broker.queue_depth` | gauge | latest publish-queue depth (summed over the shards when sharded) |
//! | `broker.in_flight` | gauge | messages popped but not yet fanned out (0/1 per dispatcher, summed over the shards) |
//! | `broker.waiting_ns{shard="i"}` | histogram | shard `i`'s waiting times (sharded dispatch only) |
//! | `broker.service_ns{shard="i"}` | histogram | shard `i`'s service times (sharded dispatch only) |
//! | `broker.sojourn_ns{shard="i"}` | histogram | shard `i`'s sojourn times (sharded dispatch only) |
//! | `broker.backlog{shard="i"}` | histogram | shard `i`'s queue depth at dispatch (sharded dispatch only) |
//! | `broker.queue_depth{shard="i"}` | gauge | shard `i`'s latest queue depth (sharded dispatch only) |
//! | `broker.in_flight{shard="i"}` | gauge | shard `i`'s in-flight message (sharded dispatch only) |
//! | `broker.stage.rcv_ns` | histogram | receive stage (`t_rcv`), sampled on one message in 64 |
//! | `broker.stage.journal_ns` | histogram | write-ahead append (`t_store`), sampled |
//! | `broker.stage.filter_ns` | histogram | filter-scan stage (`n_fltr · t_fltr`), sampled |
//! | `broker.stage.fanout_ns` | histogram | copy/transmit stage (`R · t_tx`), sampled |
//! | `broker.topic.received{topic="…"}` | counter | messages popped off the publish queue on the topic, expired ones included; the first 64 topics created ([`PER_TOPIC_SERIES`]) get their own series, later ones share `topic="__other__"` |
//! | `broker.topic.dispatched{topic="…"}` | counter | copies delivered from the topic (same labels) |
//! | `broker.topics_overflowed` | counter | derived, not counted: the topics beyond the one per-topic cap ([`PER_TOPIC_SERIES`], 64), which share the labeled series' `__other__` and the observatory's `__other__` rows; present once there is one |
//! | `journal.append_ns` | histogram | every journal append (always on, from `rjms-journal`) |
//! | `journal.fsync_ns` | histogram | every explicit fsync (always on, from `rjms-journal`) |
//!
//! Each fact is written once, by its owner, and every other series of it is
//! derived when the registry is read ([`MetricsRegistry::register_source`]):
//! a dispatcher stages its samples into its own shard's series only — on a
//! single-dispatcher broker that series *is* the unlabeled one, and on a
//! sharded broker each unlabeled histogram (the first four rows) is the
//! bucket-exact merge of its `{shard="i"}` series and each unlabeled gauge
//! their sum. The `broker.topic.*` pairs and `broker.topics_overflowed` are
//! read off the topics' own counters (`broker.rs`), so the pairs sum to
//! `messages.received` and `messages.dispatched`; the `journal.*` series
//! are the journal's own histograms.

use parking_lot::Mutex;
use rjms_core::CostRegression;
use rjms_metrics::{
    clock, shard_series, Gauge, Histogram, HistogramSnapshot, LocalHistogram, MetricsRegistry,
    RegistrySnapshot,
};
use std::sync::Arc;

/// Topics exported as a labeled `broker.topic.*` pair of their own,
/// broker-wide: topic names are client-controlled, so the label
/// cardinality is bounded and later topics share `topic="__other__"`.
pub(crate) const PER_TOPIC_SERIES: usize = 64;

/// Dispatcher-local staging flushed into the shared histograms every this
/// many samples (and whenever the dispatcher goes idle), bounding snapshot
/// staleness under load to a few milliseconds.
pub(crate) const FLUSH_EVERY: u64 = 1024;

/// The per-message histograms each dispatcher writes into its own shard's
/// series, in the order [`DispatcherScratch`] stages them.
const SHARD_HISTOGRAMS: [&str; 4] =
    ["broker.waiting_ns", "broker.service_ns", "broker.sojourn_ns", "broker.backlog"];

/// The gauges each dispatcher sets in its own shard's series.
const SHARD_GAUGES: [&str; 2] = ["broker.queue_depth", "broker.in_flight"];

/// The dispatchers' instruments plus the registry they are published in.
pub(crate) struct BrokerMetrics {
    pub(crate) registry: MetricsRegistry,
    /// `broker.stage.*_ns`, in `Stage::BROKER_STAGES` order.
    pub(crate) stages: [Arc<Histogram>; 4],
    /// Each shard's [`SHARD_HISTOGRAMS`], in shard order.
    pub(crate) shards: Vec<[Arc<Histogram>; 4]>,
    /// Each shard's Eq. 1 estimator, the online [`CostRegression`] over its
    /// messages' `(n_fltr, R, B)`, merged in at its dispatcher's flushes.
    pub(crate) fits: Vec<Mutex<CostRegression>>,
}

impl BrokerMetrics {
    /// The instruments of a broker of `shards` dispatchers: every shard's
    /// series is registered here, before any dispatcher runs, and a sharded
    /// broker's unlabeled series are derived from them when read.
    pub(crate) fn new(shards: usize) -> Self {
        // The clock calibrates (a 10 ms sleep) here, before any dispatcher runs.
        clock::ns_per_tick();
        let registry = MetricsRegistry::new();
        let per_shard = (0..shards)
            .map(|shard| {
                for base in SHARD_GAUGES {
                    registry.gauge(&shard_series(base, shard, shards));
                }
                SHARD_HISTOGRAMS.map(|base| registry.histogram(&shard_series(base, shard, shards)))
            })
            .collect();
        if shards > 1 {
            registry.register_source(move |snapshot| merge_shards(snapshot, shards));
        }
        Self {
            stages: ["rcv", "journal", "filter", "fanout"]
                .map(|stage| registry.histogram(&format!("broker.stage.{stage}_ns"))),
            shards: per_shard,
            fits: (0..shards).map(|_| Mutex::default()).collect(),
            registry,
        }
    }

    /// Shard `shard`'s measurement, the input of the paper's method for that
    /// one server: its waiting and service samples so far. The flow gate's
    /// lane refresh (`probe.rs`) and the shard reports (`reports.rs`) both
    /// read it here.
    pub(crate) fn measurement(&self, shard: usize) -> (HistogramSnapshot, HistogramSnapshot) {
        let [waiting, service, ..] = &self.shards[shard];
        (waiting.snapshot(), service.snapshot())
    }
}

/// A sharded broker's unlabeled series, read off its `shards` dispatchers'
/// own: each histogram the bucket-exact merge of its `{shard="i"}` series,
/// each gauge their sum.
fn merge_shards(snapshot: &mut RegistrySnapshot, shards: usize) {
    let series = |base: &'static str| (0..shards).map(move |s| shard_series(base, s, shards));
    for base in SHARD_HISTOGRAMS {
        let mut merged = HistogramSnapshot::default();
        series(base)
            .filter_map(|name| snapshot.histograms.get(&name))
            .for_each(|h| merged.merge(h));
        snapshot.histograms.insert(base.to_owned(), merged);
    }
    for base in SHARD_GAUGES {
        let sum = series(base).filter_map(|name| snapshot.gauges.get(&name)).sum();
        snapshot.gauges.insert(base.to_owned(), sum);
    }
}

/// Single-writer staging for the per-message histograms: the dispatcher
/// records into plain local buckets and flushes into its shard's shared
/// atomic series every [`FLUSH_EVERY`] samples and on idle, keeping the
/// per-message cost to non-atomic L1 increments.
pub(crate) struct DispatcherScratch {
    /// The local buckets of each [`SHARD_HISTOGRAMS`] series beside the
    /// shard's shared histogram they flush into.
    series: [(LocalHistogram, Arc<Histogram>); 4],
    /// Latest queue depth, for at-a-glance gauges and history rings.
    depth_gauge: Arc<Gauge>,
    /// 1 while a message is being fanned out, 0 when the dispatcher idles.
    in_flight_gauge: Arc<Gauge>,
}

impl DispatcherScratch {
    /// Staging for dispatcher `shard` of `shards`, into that shard's series
    /// ([`shard_series`]): each dispatcher is the single writer of its own,
    /// so shards never stomp one another's readings.
    pub(crate) fn new(metrics: &BrokerMetrics, shard: usize, shards: usize) -> Self {
        let series = |base| shard_series(base, shard, shards);
        Self {
            series: metrics.shards[shard].clone().map(|shared| (LocalHistogram::new(), shared)),
            depth_gauge: metrics.registry.gauge(&series("broker.queue_depth")),
            in_flight_gauge: metrics.registry.gauge(&series("broker.in_flight")),
        }
    }

    /// How many samples have been staged on this thread (test builds).
    #[cfg(test)]
    pub(crate) fn records() -> u64 {
        tests::RECORDS.with(std::cell::Cell::get)
    }

    /// Stages one sample of series `index`; test builds count it.
    #[inline]
    fn stage(&mut self, index: usize, value: u64) {
        #[cfg(test)]
        tests::RECORDS.with(|records| records.set(records.get() + 1));
        self.series[index].0.record(value);
    }

    /// Stages one message's waiting/service/sojourn sample.
    pub(crate) fn record(&mut self, waiting: u64, service: u64, sojourn: u64) {
        self.stage(0, waiting);
        self.stage(1, service);
        self.stage(2, sojourn);
    }

    /// Stages the publish-queue depth observed when a message was popped
    /// (excluding the popped message itself, so it estimates the *waiting*
    /// line `L_q`; by PASTA the depth a Poisson arrival sees is distributed
    /// as the time-average queue length, so the window mean estimates `L`
    /// for the Little's-law self-check) and marks the dispatcher busy. The
    /// gauge store is a single-writer relaxed write to a line nothing else
    /// touches.
    pub(crate) fn record_backlog(&mut self, depth: u64) {
        self.stage(3, depth);
        self.depth_gauge.set(depth as i64);
        self.in_flight_gauge.set(1);
    }

    /// Marks the dispatcher idle: queue drained, nothing in flight.
    pub(crate) fn mark_idle(&self) {
        self.depth_gauge.set(0);
        self.in_flight_gauge.set(0);
    }

    /// Publishes every staged sample into the shared instruments.
    pub(crate) fn flush(&mut self) {
        for (local, shared) in &mut self.series {
            local.flush_into(shared);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        /// [`DispatcherScratch::records`].
        pub(super) static RECORDS: Cell<u64> = const { Cell::new(0) };
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
        scratch.flush();
        let snap = m.registry.snapshot();
        let backlog = snap.histogram("broker.backlog").unwrap();
        assert_eq!(backlog.count, 2);
        assert_eq!(backlog.max, 5);
    }

    /// A sharded dispatcher stages into its own series only; the unlabeled
    /// series are derived from every shard's when the registry is read.
    #[test]
    fn a_shard_stages_its_own_series_and_the_aggregates_are_derived() {
        let m = BrokerMetrics::new(4);
        let mut scratches: Vec<_> = (0..4).map(|s| DispatcherScratch::new(&m, s, 4)).collect();
        scratches[2].record(10, 20, 30);
        scratches[2].record_backlog(7);
        scratches[3].record(40, 50, 90);
        scratches[3].record_backlog(1);
        scratches.iter_mut().for_each(DispatcherScratch::flush);
        let snap = m.registry.snapshot();
        let h = |name: &str| snap.histograms[name].clone();
        assert_eq!(h("broker.waiting_ns{shard=\"2\"}").count, 1);
        assert_eq!(h("broker.sojourn_ns{shard=\"2\"}").max, 30);
        assert_eq!(h("broker.waiting_ns{shard=\"0\"}").count, 0);
        let mut merged = h("broker.sojourn_ns{shard=\"2\"}");
        merged.merge(&h("broker.sojourn_ns{shard=\"3\"}"));
        assert_eq!((h("broker.sojourn_ns"), h("broker.backlog").count), (merged, 2));
        assert_eq!(m.registry.gauge("broker.queue_depth{shard=\"2\"}").get(), 7);
        assert_eq!((snap.gauges["broker.queue_depth"], snap.gauges["broker.in_flight"]), (8, 2));
    }
}
