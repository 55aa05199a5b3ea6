//! The dispatcher's single telemetry seam (DESIGN.md §3.3c).
//!
//! The dispatch core ([`crate::dispatch`]) does the paper's loop and
//! nothing else; everything that *observes* the loop hangs off one
//! statically dispatched [`DispatchProbe`], picked once per dispatcher
//! thread: zero-sized [`NoProbe`], or [`Telemetry`] for everything
//! `MetricsConfig`, `TraceConfig` and `TopicObsConfig` turn on. One struct
//! rather than one probe per feature: `Broker::start` forces metrics on
//! whenever tracing, flow control or the observatory is set, and the trace
//! sampler and the observatory are computed *from* the metrics timer, so
//! separate probes would have to reach into each other.
//!
//! Hook contract, per message: `on_dequeue` (the core itself counts
//! received, evaluations and copies on the message's topic), then any
//! number of (possibly nested) `stage` calls, then exactly one of
//! `on_expired` or `on_done`. The stages of a message that is fanned out:
//! `Receive`, `Journal`, `Filter` once for the resolve step if the topic has
//! selectors, then `Filter` once around the whole scan with one `Fanout`
//! nested in it per match — whether the match's sink is a plain subscriber
//! or a durable subscription.
//! `on_idle` runs each time the publish queue is found empty, before the
//! dispatcher blocks; `on_exit` runs once, after the last message.

use crate::broker::{BrokerInner, Topic};
use crate::config::TraceConfig;
use crate::message::Message;
use crate::metrics::{BrokerMetrics, DispatcherScratch, FLUSH_EVERY};
use crate::topic_obs::TopicObservatory;
use rjms_metrics::{clock, shard_series, Counter, Histogram, HistogramSnapshot};
use rjms_trace::{FlightRecorder, SpanEvent, Stage};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What the core knows about a message once its fan-out is complete.
pub(crate) struct Dispatched<'a> {
    pub(crate) topic: &'a Topic,
    pub(crate) message: &'a Message,
    /// Filters evaluated (`n_fltr`) and copies delivered (`R`).
    pub(crate) evaluations: u64,
    pub(crate) copies: u64,
    /// Journal offset of the publish record; `None` without persistence.
    pub(crate) publish_offset: Option<u64>,
}

/// Observer of one dispatcher thread, owned by it (hence `&mut self`). The
/// default bodies observe nothing.
pub(crate) trait DispatchProbe {
    /// A message was popped. `was_queued` is false when the dispatcher had
    /// to block for it; `backlog` reads the queue depth left behind (it
    /// takes the queue's lock, so only a probe that wants it pays).
    #[inline]
    fn on_dequeue(&mut self, _: &Message, _: Option<u64>, _: bool, _: impl FnOnce() -> usize) {}

    /// Runs one Eq. 1 stage of the current message. The probe is handed
    /// back to `work` so stages can nest; time spent in a nested stage
    /// counts towards that stage only.
    #[inline]
    fn stage<T>(&mut self, _: Stage, work: impl FnOnce(&mut Self) -> T) -> T {
        work(self)
    }

    /// The current message's TTL had elapsed; it was dropped after the
    /// receive stage and will see no `on_done`.
    #[inline]
    fn on_expired(&mut self) {}

    /// The current message is fully fanned out and accounted.
    #[inline]
    fn on_done(&mut self, _: &Dispatched<'_>) {}

    /// The publish queue is empty; the dispatcher is about to block.
    #[inline]
    fn on_idle(&mut self) {}

    /// The dispatcher is shutting down; no further hook will run.
    #[inline]
    fn on_exit(&mut self) {}
}

/// The probe of a broker without metrics: the trait's empty defaults, so
/// the core monomorphised over it is the un-instrumented broker.
pub(crate) struct NoProbe;

impl DispatchProbe for NoProbe {}

/// Reads the instrumentation clock (ticks); test builds count the reads
/// on this thread ([`Telemetry::clock_reads`]).
#[inline]
fn now() -> u64 {
    #[cfg(test)]
    tests::CLOCK_READS.with(|reads| reads.set(reads.get() + 1));
    clock::now()
}

/// Reads the clock a stage is timed with, counted like [`now`].
#[inline]
fn instant() -> Instant {
    #[cfg(test)]
    tests::CLOCK_READS.with(|reads| reads.set(reads.get() + 1));
    Instant::now()
}

/// The time since `start`: one more read of [`instant`]'s clock, counted
/// like [`now`].
#[inline]
fn elapsed(start: Instant) -> Duration {
    #[cfg(test)]
    tests::CLOCK_READS.with(|reads| reads.set(reads.get() + 1));
    start.elapsed()
}

/// Fires once every `every` ticks (cheaper than a modulo on the hot
/// path).
struct Countdown {
    every: u64,
    left: u64,
    /// Xorshift state of a jittered countdown; 0 for a regular one.
    jitter: u64,
}

impl Countdown {
    fn new(every: u64) -> Self {
        Self { every, left: every, jitter: 0 }
    }

    /// A countdown whose gaps after the first vary uniformly over
    /// `every ± every/2`, so they still average `every`. Under saturation
    /// the dispatcher works in runs of a fixed length, and a fixed gap that
    /// shares a factor with it would sample the same run positions for
    /// ever — with the run's one journal write either in all of them or in
    /// none.
    fn jittered(every: u64) -> Self {
        Self { jitter: 0x9E37_79B9_7F4A_7C15, ..Self::new(every) }
    }

    fn tick(&mut self) -> bool {
        self.left -= 1;
        let fire = self.left == 0;
        if fire {
            self.left = self.next_gap();
        }
        fire
    }

    fn next_gap(&mut self) -> u64 {
        if self.jitter == 0 {
            return self.every;
        }
        self.jitter ^= self.jitter << 13;
        self.jitter ^= self.jitter >> 7;
        self.jitter ^= self.jitter << 17;
        let half = self.every / 2;
        (self.every - half).saturating_add(self.jitter % (2 * half + 1))
    }

    /// Makes the next tick fire.
    fn fire_next(&mut self) {
        self.left = 1;
    }
}

/// The stage decomposition is clocked on one message in this many
/// (jittered, see [`Countdown::jittered`]): it takes extra clock reads
/// inside the filter scan.
pub(crate) const STAGE_SAMPLE_EVERY: u64 = 64;

/// Messages between refreshes of the tail threshold from the live sojourn
/// histogram: often enough to follow a load change within a second at
/// 1k msg/s, rare enough that the quantile walk stays off the per-message
/// cost.
const TRACE_REFRESH_EVERY: u64 = 1024;

/// Every this-many-th message's chain is kept whatever its sojourn time,
/// so typical-latency chains stay inspectable beside the tail.
const TRACE_UNIFORM_EVERY: u64 = 128;

/// Tail-sampled tracing state. The keep/discard decision is made after
/// fan-out, when the sojourn time is known; the threshold refreshes
/// periodically from the live sojourn histograms and starts at 0 so every
/// chain is kept until the first refresh has data.
struct TraceSampler<'a> {
    recorder: &'a FlightRecorder,
    config: TraceConfig,
    /// Every shard's sojourn series: the threshold is the broker-wide
    /// quantile, so a refresh merges them.
    sojourn: Vec<Arc<Histogram>>,
    threshold_ns: u64,
    refresh: Countdown,
    /// The uniform baseline is interval-driven and thus known up front,
    /// before the message's sojourn time is.
    uniform: Countdown,
    kept_tail: Arc<Counter>,
    kept_uniform: Arc<Counter>,
}

/// The probe of a broker with metrics on: histogram staging, sampled stage
/// timing, tail-sampled tracing and the topics' observatory accounts, for
/// one dispatcher thread.
pub(crate) struct Telemetry<'a> {
    metrics: &'a BrokerMetrics,
    /// Local staging for the per-message histograms, flushed on idle and
    /// every [`FLUSH_EVERY`] messages (`staged` counts them).
    scratch: DispatcherScratch,
    staged: u64,
    stage_sampler: Countdown,
    /// The previous message's fan-out end. An already queued next message
    /// starts its dispatch right there, so the reading is reused instead of
    /// a second clock read per message.
    last_end: Option<u64>,
    trace: Option<TraceSampler<'a>>,
    topic_obs: Option<&'a TopicObservatory>,

    // State of the message in flight, reset by `on_dequeue`. Timestamps
    // are instrumentation-clock ticks (`clock::now`).
    dispatch_start: u64,
    /// Publish-queue entry stamp; the dispatch start (so waiting is zero)
    /// for a message that carries none.
    enqueued_at: u64,
    /// Whether this message records the per-stage histograms.
    sample_stages: bool,
    uniform_keep: bool,
    /// Nanoseconds per stage, indexed in [`Stage::BROKER_STAGES`] order.
    stage_ns: [u64; 4],
}

impl<'a> Telemetry<'a> {
    /// The telemetry probe for dispatcher `shard`, clocking the stages of
    /// one message in `stage_sample_every` ([`STAGE_SAMPLE_EVERY`] in the
    /// broker); `None` when the broker runs without metrics.
    pub(crate) fn new(
        inner: &'a BrokerInner,
        shard: usize,
        stage_sample_every: u64,
    ) -> Option<Self> {
        let metrics = inner.metrics.as_ref()?;
        let shards = inner.config.shards;
        let scratch = DispatcherScratch::new(metrics, shard, shards);
        let trace = inner.tracer.as_deref().zip(inner.config.trace).map(|(recorder, config)| {
            TraceSampler {
                recorder,
                config,
                sojourn: (0..shards)
                    .map(|s| {
                        metrics.registry.histogram(&shard_series("broker.sojourn_ns", s, shards))
                    })
                    .collect(),
                threshold_ns: 0,
                refresh: Countdown::new(TRACE_REFRESH_EVERY),
                uniform: Countdown::new(TRACE_UNIFORM_EVERY),
                kept_tail: metrics.registry.counter("trace.chains.tail"),
                kept_uniform: metrics.registry.counter("trace.chains.uniform"),
            }
        });
        Some(Self {
            metrics,
            scratch,
            staged: 0,
            stage_sampler: Countdown::jittered(stage_sample_every),
            last_end: None,
            trace,
            topic_obs: inner.topic_obs.as_ref(),
            dispatch_start: 0,
            enqueued_at: 0,
            sample_stages: false,
            uniform_keep: false,
            stage_ns: [0; 4],
        })
    }

    /// How many times a probe has read a clock on this thread (test
    /// builds).
    #[cfg(test)]
    pub(crate) fn clock_reads() -> u64 {
        tests::CLOCK_READS.with(std::cell::Cell::get)
    }

    fn to_ns(&self, ticks: u64) -> u64 {
        (ticks as f64 * self.metrics.ns_per_tick) as u64
    }

    /// Whether stages are clocked for the current message. With tracing on
    /// that is every message — the tail sampler decides after fan-out
    /// which chains to keep, so any message may need its durations; the
    /// stage *histograms* stay sampled.
    fn timed(&self) -> bool {
        self.sample_stages || self.trace.is_some()
    }

    /// Publishes the staged histogram samples.
    fn flush(&mut self) {
        self.staged = 0;
        self.scratch.flush();
    }

    /// Tail-sampling commit point: the waiting and sojourn times (ns) are
    /// now known.
    fn commit_trace(&mut self, done: &Dispatched<'_>, waiting: u64, sojourn: u64) {
        let Some(trace) = &mut self.trace else { return };
        let metrics = self.metrics;
        if trace.refresh.tick() {
            // The threshold refreshes from the shared sojourn histograms, so
            // this thread's staged samples go in first.
            self.scratch.flush();
            let mut sojourn = HistogramSnapshot::default();
            trace.sojourn.iter().for_each(|shard| sojourn.merge(&shard.snapshot()));
            if let Some(q) = sojourn.quantile(trace.config.tail_quantile) {
                trace.threshold_ns = q;
            }
        }
        let tail_keep = sojourn >= trace.threshold_ns;
        if !(tail_keep || self.uniform_keep) {
            return;
        }
        // Stage timestamps are synthesized as cumulative tick offsets from
        // the dispatch start, so a chain is monotone by construction even
        // though the stages were measured with duration-only Instant reads.
        let trace_id = done.message.trace_id();
        let aux = [waiting, done.publish_offset.unwrap_or(0), done.evaluations, done.copies];
        let mut start_ticks = self.dispatch_start;
        for ((stage, duration_ns), aux) in
            Stage::BROKER_STAGES.into_iter().zip(self.stage_ns).zip(aux)
        {
            trace.recorder.record(SpanEvent { trace_id, stage, start_ticks, duration_ns, aux });
            start_ticks += (duration_ns as f64 / metrics.ns_per_tick) as u64;
        }
        trace.recorder.mark_sampled(trace_id);
        if tail_keep {
            trace.kept_tail.inc();
        } else {
            trace.kept_uniform.inc();
        }
    }
}

impl DispatchProbe for Telemetry<'_> {
    fn on_dequeue(
        &mut self,
        message: &Message,
        enqueued_at: Option<u64>,
        was_queued: bool,
        backlog: impl FnOnce() -> usize,
    ) {
        // Sampled at the dispatch epoch: the queue now holds exactly the
        // messages that arrived during this message's waiting time.
        self.scratch.record_backlog(backlog() as u64);
        self.sample_stages = self.stage_sampler.tick();
        let reuse = if was_queued { self.last_end } else { None };
        self.dispatch_start = reuse.unwrap_or_else(now);
        self.enqueued_at = enqueued_at.unwrap_or(self.dispatch_start);
        self.stage_ns = [0; 4];
        self.uniform_keep = self.trace.as_mut().is_some_and(|t| t.uniform.tick());
        // Pre-mark for the wire layer: when the message's *waiting* time
        // already clears the tail threshold the chain is guaranteed to be
        // kept (sojourn ≥ waiting), so mark the id sampled before fan-out —
        // the per-connection writers this message fans out to may flush it
        // before the dispatcher reaches its commit point in `on_done`.
        if let Some(trace) = &self.trace {
            let waiting_ns = self.to_ns(self.dispatch_start.saturating_sub(self.enqueued_at));
            if self.uniform_keep || waiting_ns >= trace.threshold_ns {
                trace.recorder.mark_sampled(message.trace_id());
            }
        }
    }

    #[inline]
    fn stage<T>(&mut self, stage: Stage, work: impl FnOnce(&mut Self) -> T) -> T {
        if !self.timed() {
            return work(self);
        }
        // An enclosing stage is clocked as one block (two clock reads, so
        // a scan over hundreds of filters stays cheap) and the time of the
        // stages nested inside it is subtracted afterwards.
        let nested_before: u64 = self.stage_ns.iter().sum();
        let start = instant();
        let out = work(self);
        let total = u64::try_from(elapsed(start).as_nanos()).unwrap_or(u64::MAX);
        let nested = self.stage_ns.iter().sum::<u64>() - nested_before;
        self.stage_ns[stage as usize] += total.saturating_sub(nested);
        out
    }

    fn on_expired(&mut self) {
        // The next message's dispatch does not start where the previous
        // fan-out ended — this message's receive work lies in between — so
        // the end stamp must not be reused; and an expired message that
        // drew the stage sample hands it on instead of swallowing it.
        self.last_end = None;
        if self.sample_stages {
            self.stage_sampler.fire_next();
        }
    }

    fn on_done(&mut self, done: &Dispatched<'_>) {
        let metrics = self.metrics;
        if self.sample_stages {
            let [rcv, journal, filter, fanout] = self.stage_ns;
            metrics.stage_rcv.record(rcv);
            metrics.stage_journal.record(journal);
            metrics.stage_filter.record(filter);
            metrics.stage_fanout.record(fanout);
        }
        let end = now();
        self.last_end = Some(end);
        let dispatch_start = self.dispatch_start;
        // Saturating differences: cross-core tick skew must clamp to zero
        // rather than wrap into a 500-year sample.
        let waiting = self.to_ns(dispatch_start.saturating_sub(self.enqueued_at));
        let service = self.to_ns(end.saturating_sub(dispatch_start));
        let sojourn = waiting.saturating_add(service);
        self.scratch.record(waiting, service, sojourn);
        if let Some(observatory) = self.topic_obs {
            let service_secs =
                end.saturating_sub(dispatch_start) as f64 * metrics.ns_per_tick * 1e-9;
            let evaluations = done.evaluations.min(u64::from(u32::MAX)) as u32;
            observatory.lock_account(done.topic).observe(
                evaluations,
                done.copies as f64,
                service_secs,
            );
        }
        self.staged += 1;
        if self.staged >= FLUSH_EVERY {
            self.flush();
        }
        self.commit_trace(done, waiting, sojourn);
    }

    fn on_idle(&mut self) {
        // About to block: publish staged samples so observers see an
        // up-to-date picture whenever the dispatcher is idle.
        self.flush();
        self.scratch.mark_idle();
    }

    fn on_exit(&mut self) {
        // Every staged sample is visible after shutdown.
        self.on_idle();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::DispatchItem;
    use crate::config::MetricsConfig;
    use crate::{Broker, BrokerConfig};
    use std::cell::Cell;
    use std::time::Duration;

    thread_local! {
        /// [`Telemetry::clock_reads`].
        pub(super) static CLOCK_READS: Cell<u64> = const { Cell::new(0) };
    }

    /// An idle broker whose instruments a test-driven probe feeds; its topic.
    fn broker() -> (Broker, Arc<Topic>) {
        let broker =
            Broker::start(BrokerConfig::builder().metrics(MetricsConfig::default()).build());
        broker.create_topic("t").unwrap();
        let topic = broker.lookup("t").unwrap();
        (broker, topic)
    }

    fn done<'a>(topic: &'a Topic, message: &'a Message) -> Dispatched<'a> {
        Dispatched { topic, message, evaluations: 0, copies: 0, publish_offset: None }
    }

    /// An expired message sits between the previous fan-out end and the
    /// next dispatch start, so that end stamp must not become the start;
    /// and the stage sample it drew passes to the next message.
    #[test]
    fn expired_message_neither_lends_its_timestamp_nor_swallows_the_stage_sample() {
        let (broker, topic) = broker();
        let mut probe = Telemetry::new(&broker.inner, 0, 2).expect("metrics on");
        let message = Message::builder().build();

        probe.on_dequeue(&message, Some(clock::now()), false, || 0);
        assert!(!probe.sample_stages);
        probe.on_done(&done(&topic, &message));
        assert!(probe.last_end.is_some());

        probe.on_dequeue(&message, Some(clock::now()), true, || 0);
        assert!(probe.sample_stages, "every second message is sampled");
        probe.on_expired();
        let after_expiry = clock::now();

        probe.on_dequeue(&message, Some(clock::now()), true, || 0);
        assert!(probe.dispatch_start >= after_expiry, "stale dispatch start");
        assert!(probe.sample_stages, "the expired message's sample slot moved on");
        probe.on_done(&done(&topic, &message));
        broker.shutdown();
    }

    /// A message the dispatcher found queued reads the clock once, at its
    /// fan-out end, its start being the previous end; one it blocked for
    /// reads it once more, for its start.
    #[test]
    fn a_queued_message_reads_the_clock_once_and_a_blocked_for_one_twice() {
        let (broker, topic) = broker();
        let mut probe = Telemetry::new(&broker.inner, 0, u64::MAX).expect("metrics on");
        let message = Message::builder().build();
        let mut reads = |was_queued| {
            let before = Telemetry::clock_reads();
            probe.on_dequeue(&message, None, was_queued, || 0);
            probe.on_done(&done(&topic, &message));
            Telemetry::clock_reads() - before
        };
        assert_eq!([reads(false), reads(true), reads(true), reads(false)], [2, 1, 1, 2]);
        broker.shutdown();
    }

    /// Tick stamps become nanosecond waiting, service and sojourn samples.
    #[test]
    fn records_waiting_service_and_sojourn() {
        let (broker, topic) = broker();
        let mut probe = Telemetry::new(&broker.inner, 0, 1).expect("metrics on");
        let message = Message::builder().build();
        let pause = Duration::from_millis(2);

        let enqueued = clock::now();
        std::thread::sleep(pause);
        probe.on_dequeue(&message, Some(enqueued), false, || 0);
        std::thread::sleep(pause);
        probe.on_done(&done(&topic, &message));
        probe.on_exit();

        let snap = broker.metrics().unwrap().snapshot();
        let max = |name| snap.histogram(name).unwrap().max;
        let (waiting, service) = (max("broker.waiting_ns"), max("broker.service_ns"));
        assert!(waiting >= 2_000_000 && service >= 2_000_000, "{waiting} {service}");
        assert_eq!(max("broker.sojourn_ns"), waiting + service);
        broker.shutdown();
    }

    /// Stages are clocked only on timed messages, and an enclosing stage
    /// books its own time without the stage nested in it (the filter scan
    /// minus the fan-out inside it).
    #[test]
    fn stage_clocks_timed_messages_only_and_books_nested_time_once() {
        let (broker, topic) = broker();
        let mut probe = Telemetry::new(&broker.inner, 0, 2).expect("metrics on");
        let message = Message::builder().build();
        let pause = Duration::from_millis(2);
        let scan = |probe: &mut Telemetry<'_>| {
            probe.stage(Stage::Filter, |probe| {
                std::thread::sleep(pause);
                probe.stage(Stage::Fanout, |_| std::thread::sleep(pause));
                7
            })
        };

        // The first of every two messages is not sampled, so not clocked.
        probe.on_dequeue(&message, None, false, || 0);
        assert_eq!((scan(&mut probe), probe.stage_ns), (7, [0; 4]));
        probe.on_done(&done(&topic, &message));

        probe.on_dequeue(&message, None, true, || 0);
        let outer = Instant::now();
        scan(&mut probe);
        let outer = outer.elapsed().as_nanos() as u64;
        let [rcv, journal, filter, fanout] = probe.stage_ns;
        assert_eq!((rcv, journal), (0, 0));
        assert!(filter >= 2_000_000 && fanout >= 2_000_000, "{filter} {fanout}");
        assert!(filter + fanout <= outer, "nested time booked twice: {filter} + {fanout}");
        probe.on_done(&done(&topic, &message));

        // Only the sampled message reached the stage histograms.
        let snap = broker.metrics().unwrap().snapshot();
        let stage = |name| snap.histogram(name).unwrap();
        assert_eq!(stage("broker.stage.filter_ns").count, 1);
        assert_eq!(stage("broker.stage.filter_ns").max, filter);
        assert_eq!(stage("broker.stage.fanout_ns").max, fanout);
        broker.shutdown();
    }
    /// The `broker.topic.*` pairs are the counts the core keeps on each
    /// topic, read when the registry is: 10 000 messages through the core
    /// over three topics with no, one and two subscribers leave three exact
    /// pairs, and a topic's pair exists from its creation.
    #[test]
    fn counts_into_the_series_the_topics_hold() {
        let (broker, _) = broker();
        let (publish_tx, publish_rx) = crossbeam::channel::unbounded();
        let mut subscribers = Vec::new();
        let topics: Vec<Arc<Topic>> = ["a", "b", "c"]
            .iter()
            .enumerate()
            .map(|(copies, name)| {
                broker.create_topic(name).unwrap();
                subscribers.extend((0..copies).map(|_| broker.subscription(name).open().unwrap()));
                broker.lookup(name).unwrap()
            })
            .collect();
        for index in 0..10_000usize {
            let topic = Arc::clone(&topics[index % 3]);
            let message = Arc::new(Message::builder().build());
            publish_tx.send(DispatchItem::Publish { topic, message, enqueued_at: None }).unwrap();
        }
        publish_tx.send(DispatchItem::Shutdown).unwrap();
        let probe = Telemetry::new(&broker.inner, 0, STAGE_SAMPLE_EVERY).expect("metrics on");
        crate::dispatch::run(&broker.inner, 0, &publish_rx, probe);
        let counters = broker.metrics().unwrap().snapshot().counters;
        let pair = |topic: &str| {
            let series = |base: &str| counters[&format!("{base}{{topic=\"{topic}\"}}")];
            (series("broker.topic.received"), series("broker.topic.dispatched"))
        };
        assert_eq!([pair("a"), pair("b"), pair("c")], [(3334, 0), (3333, 3333), (3333, 6666)]);
        assert_eq!(pair("t"), (0, 0), "a topic's series exists from its creation");
        drop(subscribers);
        broker.shutdown();
    }

    /// The tail threshold is the broker-wide sojourn quantile: a dispatcher
    /// refreshes it from every shard's series, not only from its own.
    #[test]
    fn the_trace_threshold_is_the_broker_wide_sojourn_quantile() {
        let config = BrokerConfig::builder().shards(2).trace(TraceConfig::default()).build();
        let broker = Broker::start(config);
        broker.create_topic("t").unwrap();
        let topic = broker.lookup("t").unwrap();
        let registry = broker.metrics().unwrap();
        registry.histogram("broker.sojourn_ns{shard=\"1\"}").record_n(1_000_000_000, 100_000);
        let mut probe = Telemetry::new(&broker.inner, 0, u64::MAX).expect("metrics on");
        let message = Message::builder().build();
        for _ in 0..TRACE_REFRESH_EVERY {
            probe.on_dequeue(&message, None, true, || 0);
            probe.on_done(&done(&topic, &message));
        }
        let threshold = probe.trace.as_ref().unwrap().threshold_ns;
        let sojourn = registry.snapshot().histograms["broker.sojourn_ns"].clone();
        assert_eq!(sojourn.count, 100_000 + TRACE_REFRESH_EVERY);
        assert_eq!(Some(threshold), sojourn.quantile(TraceConfig::default().tail_quantile));
        assert!(threshold >= 900_000_000, "{threshold} ns");
        broker.shutdown();
    }

    /// Saturated, a persistent dispatcher works through runs of 64 and the
    /// default sampling interval is 64: a fixed gap would look at one run
    /// position for ever. The jittered gaps reach every position, and
    /// still sample one message in 64.
    #[test]
    fn stage_sampler_covers_every_position_of_a_run() {
        const RUN: usize = 64;
        const RUNS: usize = 4096;
        let (broker, topic) = broker();
        let mut probe = Telemetry::new(&broker.inner, 0, STAGE_SAMPLE_EVERY).expect("metrics on");
        let message = Message::builder().build();
        let mut sampled_at = [0u32; RUN];
        for index in 0..RUN * RUNS {
            probe.on_dequeue(&message, None, true, || 0);
            sampled_at[index % RUN] += u32::from(probe.sample_stages);
            probe.on_done(&done(&topic, &message));
        }
        assert!(sampled_at.iter().all(|&n| n > 0), "positions never sampled: {sampled_at:?}");
        let samples: u32 = sampled_at.iter().sum();
        assert!((samples as f64 / RUNS as f64 - 1.0).abs() < 0.03, "{samples} samples");
        broker.shutdown();
    }
}
