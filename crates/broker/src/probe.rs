//! The dispatcher's single telemetry seam (DESIGN.md §3.3c).
//!
//! The dispatch core ([`crate::dispatch`]) does the paper's loop and
//! nothing else; everything that *observes* the loop hangs off one
//! statically dispatched [`DispatchProbe`], picked once per dispatcher
//! thread: zero-sized [`NoProbe`], or [`Telemetry`] for everything
//! `MetricsConfig`, `TraceConfig`, `TopicObsConfig` and `FlowConfig` turn
//! on. One struct rather than one probe per feature: `Broker::start` forces
//! metrics on whenever tracing, flow control or the observatory is set, and
//! the trace sampler, the observatory and the admission-lane refresh are
//! computed *from* the metrics timer, so separate probes would have to
//! reach into each other.
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
//! dispatcher blocks; `on_exit` runs once, after the last message. The
//! core's spins and idle wait and the probe's stamps go through one
//! [`Clock`]: [`Tsc`] in the broker, virtual time in tests.

use crate::broker::{BrokerInner, DispatchItem, Topic};
use crate::config::TraceConfig;
use crate::message::Message;
use crate::metrics::{BrokerMetrics, DispatcherScratch, FLUSH_EVERY};
use crate::topic_obs::TopicObservatory;
use crossbeam::channel::Receiver;
use rjms_core::MeasuredSummary;
use rjms_flow::FlowGate;
use rjms_metrics::{clock, Counter, HistogramSnapshot};
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

    /// The clock the core spins and waits on and the probe stamps with.
    #[inline]
    fn clock(&self) -> &impl Clock {
        &Tsc
    }
}

/// The probe of a broker without metrics: the trait's empty defaults, so
/// the core monomorphised over it is the un-instrumented broker.
pub(crate) struct NoProbe;

impl DispatchProbe for NoProbe {}

/// The dispatcher's one source of time.
pub(crate) trait Clock {
    /// The current reading, in ticks; only differences mean anything.
    fn now(&self) -> u64;
    fn ns_per_tick(&self) -> f64;
    /// Burns one Eq. 1 term of `seconds`.
    fn spin(&self, seconds: f64);
    /// The next item of the empty publish queue; `None` once none can come.
    fn wait(&self, queue: &Receiver<DispatchItem>) -> Option<DispatchItem>;
    /// A tick difference in nanoseconds.
    fn to_ns(&self, ticks: u64) -> u64 {
        (ticks as f64 * self.ns_per_tick()) as u64
    }
}

/// The broker's clock: `rjms_metrics::clock`'s TSC, a blocking receive,
/// and for the cost model ([`BrokerConfig::cost_model`](crate::BrokerConfig::cost_model))
/// a busy-wait on `Instant` — a sleep is too coarse at microsecond scales,
/// and a spin is CPU spent, which is what saturated the paper's server. So a
/// saturated broker's throughput follows Eq. 1 on any host (`t_store`,
/// the journal's real I/O, is never spun).
pub(crate) struct Tsc;

impl Clock for Tsc {
    #[inline]
    fn now(&self) -> u64 {
        clock::now()
    }
    #[inline]
    fn ns_per_tick(&self) -> f64 {
        clock::ns_per_tick()
    }
    fn spin(&self, seconds: f64) {
        let duration = Duration::from_secs_f64(seconds);
        if duration.is_zero() {
            return;
        }
        let start = Instant::now();
        while start.elapsed() < duration {
            std::hint::spin_loop();
        }
    }
    fn wait(&self, queue: &Receiver<DispatchItem>) -> Option<DispatchItem> {
        queue.recv().ok()
    }
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
/// (jittered, see [`Countdown::jittered`]): it takes a clock read at every
/// stage boundary, two per copy inside the filter scan.
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
/// periodically from every shard's live sojourn histogram (it is the
/// broker-wide quantile) and starts at 0 so every chain is kept until the
/// first refresh has data.
struct TraceSampler<'a> {
    recorder: &'a FlightRecorder,
    config: TraceConfig,
    threshold_ns: u64,
    refresh: Countdown,
    /// The uniform baseline is interval-driven and thus known up front,
    /// before the message's sojourn time is.
    uniform: Countdown,
    kept_tail: Arc<Counter>,
    kept_uniform: Arc<Counter>,
}

/// The dispatcher's share of flow control: at its first flush after each
/// refresh interval it re-inverts its own shard's admission lane
/// ([`FlowGate::refresh`]) from that shard's measurement over the
/// dispatcher's lifetime on its clock ([`BrokerMetrics::measurement`],
/// [`MeasuredSummary::of`]), so each shard is held at `ρ_max` however the
/// topics spread. The measured service time is the sum of the four dispatch
/// stages, the journal's write among them, so it already carries `t_store`.
struct LaneRefresh<'a> {
    gate: &'a FlowGate,
    shard: usize,
    /// The tick the probe was made at: the origin of the measured window.
    origin: u64,
    /// The refresh interval in clock ticks, and the tick the next refresh
    /// is due at.
    every: u64,
    due: u64,
}

impl LaneRefresh<'_> {
    /// Refreshes the lane if it is due; one clock read either way.
    fn at_flush(&mut self, metrics: &BrokerMetrics, clock: &impl Clock) {
        let stamp = clock.now();
        if stamp < self.due {
            return;
        }
        self.due = stamp.saturating_add(self.every);
        let (waiting, service) = metrics.measurement(self.shard);
        let window = Duration::from_nanos(clock.to_ns(stamp - self.origin));
        if let Some(measured) = MeasuredSummary::of(&waiting, &service, window) {
            self.gate.refresh(self.shard, &measured);
        }
    }
}

/// The probe of a broker with metrics on: histogram staging, sampled stage
/// timing, tail-sampled tracing, the topics' observatory accounts and the
/// refresh of the shard's admission lane, for one dispatcher thread.
pub(crate) struct Telemetry<'a, C: Clock = Tsc> {
    clock: C,
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
    lane: Option<LaneRefresh<'a>>,

    // State of the message in flight, reset by `on_dequeue`. Timestamps
    // are ticks of `clock`.
    dispatch_start: u64,
    /// Nanoseconds from the publish stamp (0 without one) to the dispatch.
    waiting: u64,
    /// Whether this message records the per-stage histograms.
    sample_stages: bool,
    uniform_keep: bool,
    /// The stopwatch: the last stamp, the stage open since, and whether a
    /// `stage` call is running (a stage entered then is nested).
    mark: u64,
    open: Stage,
    in_stage: bool,
    /// Per stage, in [`Stage::BROKER_STAGES`] order: the ticks booked to it
    /// and the stamp it was first entered at (`Receive`: the dispatch start).
    stage_ticks: [u64; 4],
    entered: [Option<u64>; 4],
}

impl<'a, C: Clock> Telemetry<'a, C> {
    /// The telemetry probe for dispatcher `shard` on `clock`, clocking the
    /// stages of one message in `stage_sample_every` ([`STAGE_SAMPLE_EVERY`]
    /// in the broker); `None` when the broker runs without metrics.
    pub(crate) fn new(
        inner: &'a BrokerInner,
        shard: usize,
        stage_sample_every: u64,
        clock: C,
    ) -> Option<Self> {
        let metrics = inner.metrics.as_ref()?;
        let shards = inner.config.shards;
        let scratch = DispatcherScratch::new(metrics, shard, shards);
        let trace = inner.tracer.as_deref().zip(inner.config.trace).map(|(recorder, config)| {
            TraceSampler {
                recorder,
                config,
                threshold_ns: 0,
                refresh: Countdown::new(TRACE_REFRESH_EVERY),
                uniform: Countdown::new(TRACE_UNIFORM_EVERY),
                kept_tail: metrics.registry.counter("trace.chains.tail"),
                kept_uniform: metrics.registry.counter("trace.chains.uniform"),
            }
        });
        let lane = inner.flow.as_deref().map(|gate| {
            let interval_ns = gate.config().refresh_interval_ms.max(1) as f64 * 1e6;
            let every = (interval_ns / clock.ns_per_tick()) as u64;
            let origin = clock.now();
            LaneRefresh { gate, shard, origin, every, due: origin.saturating_add(every) }
        });
        Some(Self {
            clock,
            metrics,
            scratch,
            staged: 0,
            stage_sampler: Countdown::jittered(stage_sample_every),
            last_end: None,
            trace,
            topic_obs: inner.topic_obs.as_ref(),
            lane,
            dispatch_start: 0,
            waiting: 0,
            sample_stages: false,
            uniform_keep: false,
            mark: 0,
            open: Stage::Receive,
            in_stage: false,
            stage_ticks: [0; 4],
            entered: [None; 4],
        })
    }

    /// Opens `stage` with one clock read, booking the ticks since the last
    /// stamp to the open stage; no read if `stage` is the open one.
    fn enter(&mut self, stage: Stage) {
        if stage != self.open {
            let stamp = self.clock.now();
            self.stage_ticks[self.open as usize] += stamp.saturating_sub(self.mark);
            (self.mark, self.open) = (stamp, stage);
            self.entered[stage as usize].get_or_insert(stamp);
        }
    }

    /// Publishes the staged histogram samples, then refreshes the shard's
    /// admission lane when that is due (flow control only).
    fn flush(&mut self) {
        self.staged = 0;
        self.scratch.flush();
        if let Some(lane) = &mut self.lane {
            lane.at_flush(self.metrics, &self.clock);
        }
    }

    /// Tail-sampling commit point: the sojourn time (ns) is now known.
    fn commit_trace(&mut self, done: &Dispatched<'_>, sojourn: u64) {
        let Some(trace) = &mut self.trace else { return };
        if trace.refresh.tick() {
            // The threshold refreshes from the shared sojourn histograms, so
            // this thread's staged samples go in first.
            self.scratch.flush();
            let mut sojourn = HistogramSnapshot::default();
            for [_, _, shard, _] in &self.metrics.shards {
                sojourn.merge(&shard.snapshot());
            }
            if let Some(q) = sojourn.quantile(trace.config.tail_quantile) {
                trace.threshold_ns = q;
            }
        }
        let tail_keep = sojourn >= trace.threshold_ns;
        if !(tail_keep || self.uniform_keep) {
            return;
        }
        // A span starts where its stage was first entered, a stage never
        // entered (a fan-out without a match) where the one before it ended:
        // the stages are entered in pipeline order, so a chain is monotone.
        let trace_id = done.message.trace_id();
        let aux = [self.waiting, done.publish_offset.unwrap_or(0), done.evaluations, done.copies];
        let mut next_start = self.dispatch_start;
        for (((stage, ticks), entered), aux) in
            Stage::BROKER_STAGES.into_iter().zip(self.stage_ticks).zip(self.entered).zip(aux)
        {
            let start_ticks = entered.unwrap_or(next_start);
            let duration_ns = self.clock.to_ns(ticks);
            trace.recorder.record(SpanEvent { trace_id, stage, start_ticks, duration_ns, aux });
            next_start = start_ticks + ticks;
        }
        trace.recorder.mark_sampled(trace_id);
        if tail_keep {
            trace.kept_tail.inc();
        } else {
            trace.kept_uniform.inc();
        }
    }
}

impl<C: Clock> DispatchProbe for Telemetry<'_, C> {
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
        let start = reuse.unwrap_or_else(|| self.clock.now());
        self.waiting = enqueued_at.map_or(0, |at| self.clock.to_ns(start.saturating_sub(at)));
        (self.dispatch_start, self.mark, self.open) = (start, start, Stage::Receive);
        (self.stage_ticks, self.entered) = ([0; 4], [None; 4]);
        self.uniform_keep = self.trace.as_mut().is_some_and(|t| t.uniform.tick());
        // Pre-mark for the wire layer: when the message's *waiting* time
        // already clears the tail threshold the chain is guaranteed to be
        // kept (sojourn ≥ waiting), so mark the id sampled before fan-out —
        // the per-connection writers this message fans out to may flush it
        // before the dispatcher reaches its commit point in `on_done`.
        if let Some(trace) = &self.trace {
            if self.uniform_keep || self.waiting >= trace.threshold_ns {
                trace.recorder.mark_sampled(message.trace_id());
            }
        }
    }

    #[inline]
    fn stage<T>(&mut self, stage: Stage, work: impl FnOnce(&mut Self) -> T) -> T {
        // With tracing on every message is timed: the tail sampler decides
        // after fan-out which chains to keep. The stage histograms stay
        // sampled.
        if !(self.sample_stages || self.trace.is_some()) {
            return work(self);
        }
        // Time only ever goes to the open stage. A top-level stage stays
        // open until the next boundary or `on_done`'s end stamp closes it; a
        // nested one hands the clock back to the stage around it.
        let (outer, nested) = (self.open, std::mem::replace(&mut self.in_stage, true));
        self.enter(stage);
        let out = work(self);
        self.in_stage = nested;
        if nested {
            self.enter(outer);
        }
        out
    }

    fn on_expired(&mut self) {
        // The next message's dispatch does not start where the previous
        // fan-out ended — this message's receive work lies in between — and
        // the stage sample or uniform trace slot this message drew passes on.
        self.last_end = None;
        if self.sample_stages {
            self.stage_sampler.fire_next();
        }
        if let Some(trace) = self.trace.as_mut().filter(|_| self.uniform_keep) {
            trace.uniform.fire_next();
        }
    }

    fn on_done(&mut self, done: &Dispatched<'_>) {
        let end = self.clock.now();
        self.last_end = Some(end);
        // The end stamp closes the open stage; cross-core tick skew saturates.
        self.stage_ticks[self.open as usize] += end.saturating_sub(self.mark);
        if self.sample_stages {
            for (histogram, ticks) in self.metrics.stages.iter().zip(self.stage_ticks) {
                histogram.record(self.clock.to_ns(ticks));
            }
        }
        let service = self.clock.to_ns(end.saturating_sub(self.dispatch_start));
        let sojourn = self.waiting.saturating_add(service);
        self.scratch.record(self.waiting, service, sojourn);
        if let Some(observatory) = self.topic_obs {
            let evaluations = done.evaluations.min(u64::from(u32::MAX)) as u32;
            let (copies, service_secs) = (done.copies as f64, service as f64 * 1e-9);
            observatory.lock_account(done.topic).observe(evaluations, copies, service_secs);
        }
        self.staged += 1;
        if self.staged >= FLUSH_EVERY {
            self.flush();
        }
        self.commit_trace(done, sojourn);
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

    #[inline]
    fn clock(&self) -> &impl Clock {
        &self.clock
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config::MetricsConfig;
    use crate::{Broker, BrokerConfig};
    use crossbeam::channel::Sender;
    use std::cell::{Cell, RefCell};
    use std::collections::VecDeque;

    /// A term in whole nanoseconds, as [`Virtual`] spins it.
    pub(crate) fn ns(seconds: f64) -> u64 {
        (seconds * 1e9).round() as u64
    }

    thread_local! {
        static READS: Cell<u64> = const { Cell::new(0) };
    }

    /// Virtual time in ns, its readings counted on this thread: a spin adds
    /// its term, the idle wait jumps to the first of `arrivals`, and each
    /// reading first sends every arrival due by then to `queue`, stamped
    /// with its arrival time, so the backlog a message leaves is what
    /// arrived while it waited.
    #[derive(Default)]
    pub(crate) struct Virtual {
        pub(crate) now: Cell<u64>,
        pub(crate) arrivals: RefCell<VecDeque<(u64, DispatchItem)>>,
        pub(crate) queue: Option<Sender<DispatchItem>>,
    }

    impl Virtual {
        pub(crate) fn reads() -> u64 {
            READS.with(Cell::get)
        }

        fn queue_due(&self) {
            let mut arrivals = self.arrivals.borrow_mut();
            while arrivals.front().is_some_and(|(at, _)| *at <= self.now.get()) {
                let (at, mut item) = arrivals.pop_front().unwrap();
                if let DispatchItem::Publish { enqueued_at, .. } = &mut item {
                    *enqueued_at = Some(at);
                }
                self.queue.as_ref().expect("arrivals go to a queue").send(item).unwrap();
            }
        }
    }

    impl Clock for Virtual {
        fn now(&self) -> u64 {
            READS.with(|reads| reads.set(reads.get() + 1));
            self.queue_due();
            self.now.get()
        }
        fn ns_per_tick(&self) -> f64 {
            1.0
        }
        fn spin(&self, seconds: f64) {
            self.now.set(self.now.get() + ns(seconds));
        }
        fn wait(&self, queue: &Receiver<DispatchItem>) -> Option<DispatchItem> {
            self.now.set(self.arrivals.borrow().front()?.0);
            self.queue_due();
            queue.try_recv().ok()
        }
    }

    #[test]
    fn a_spin_waits_at_least_the_term() {
        let start = Instant::now();
        Tsc.spin(300e-6);
        assert!(start.elapsed() >= Duration::from_micros(300));
    }

    #[test]
    fn a_spin_of_zero_returns_immediately() {
        Tsc.spin(0.0);
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
    /// and the stage sample and the uniform trace slot it drew pass to the
    /// next message.
    #[test]
    fn expired_message_neither_lends_its_timestamp_nor_swallows_the_stage_sample() {
        let broker = Broker::start(BrokerConfig::builder().trace(TraceConfig::default()).build());
        broker.create_topic("t").unwrap();
        let topic = broker.lookup("t").unwrap();
        // Both countdowns first fire at the same message.
        let mut probe =
            Telemetry::new(&broker.inner, 0, TRACE_UNIFORM_EVERY, Tsc).expect("metrics on");
        let message = Message::builder().build();

        for _ in 1..TRACE_UNIFORM_EVERY {
            probe.on_dequeue(&message, Some(Tsc.now()), false, || 0);
            assert!(!probe.sample_stages && !probe.uniform_keep);
            probe.on_done(&done(&topic, &message));
        }
        assert!(probe.last_end.is_some());

        probe.on_dequeue(&message, Some(Tsc.now()), true, || 0);
        assert!(probe.sample_stages && probe.uniform_keep, "the message draws both");
        probe.on_expired();
        let after_expiry = Tsc.now();

        probe.on_dequeue(&message, Some(Tsc.now()), true, || 0);
        assert!(probe.dispatch_start >= after_expiry, "stale dispatch start");
        assert!(probe.sample_stages, "the expired message's sample slot moved on");
        assert!(probe.uniform_keep, "the expired message's uniform slot moved on");
        probe.on_done(&done(&topic, &message));
        broker.shutdown();
    }

    /// A message the dispatcher found queued reads the clock once, at its
    /// fan-out end, its start being the previous end; one it blocked for
    /// reads it once more, for its start.
    #[test]
    fn a_queued_message_reads_the_clock_once_and_a_blocked_for_one_twice() {
        let (broker, topic) = broker();
        let mut probe =
            Telemetry::new(&broker.inner, 0, u64::MAX, Virtual::default()).expect("metrics on");
        let message = Message::builder().build();
        let mut reads = |was_queued| {
            let before = Virtual::reads();
            probe.on_dequeue(&message, None, was_queued, || 0);
            probe.on_done(&done(&topic, &message));
            Virtual::reads() - before
        };
        assert_eq!([reads(false), reads(true), reads(true), reads(false)], [2, 1, 1, 2]);
        broker.shutdown();
    }

    /// Stages are clocked only on timed messages, and an enclosing stage
    /// books its own time without the stage nested in it (the filter scan
    /// minus the fan-out inside it).
    #[test]
    fn stage_clocks_timed_messages_only_and_books_nested_time_once() {
        let (broker, topic) = broker();
        let mut probe =
            Telemetry::new(&broker.inner, 0, 2, Virtual::default()).expect("metrics on");
        let message = Message::builder().build();
        let scan = |probe: &mut Telemetry<'_, Virtual>| {
            probe.stage(Stage::Filter, |probe| {
                probe.clock().spin(2e-3);
                probe.stage(Stage::Fanout, |probe| probe.clock().spin(3e-3));
                7
            })
        };

        // The first of every two messages is not sampled, so not clocked.
        probe.on_dequeue(&message, None, false, || 0);
        assert_eq!((scan(&mut probe), probe.stage_ticks), (7, [0; 4]));
        probe.on_done(&done(&topic, &message));

        probe.on_dequeue(&message, None, false, || 0);
        scan(&mut probe);
        probe.on_done(&done(&topic, &message));
        assert_eq!(probe.stage_ticks, [0, 0, 2_000_000, 3_000_000]);

        // Only the sampled message reached the stage histograms.
        let snap = broker.metrics().unwrap().snapshot();
        let stage = |name| snap.histogram(name).unwrap();
        let (filter, fanout) = (stage("broker.stage.filter_ns"), stage("broker.stage.fanout_ns"));
        assert_eq!(
            [filter.count, filter.sum, fanout.count, fanout.sum],
            [1, 2e6 as u64, 1, 3e6 as u64]
        );
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
        let probe = Telemetry::new(&broker.inner, 0, STAGE_SAMPLE_EVERY, Tsc).expect("metrics on");
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
        let mut probe = Telemetry::new(&broker.inner, 0, u64::MAX, Tsc).expect("metrics on");
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

    /// With flow on, a dispatcher re-inverts its own shard's admission lane
    /// at its first flush after the refresh interval, from what that shard
    /// has flushed: a shard short of the samples a summary needs stays on
    /// the seed budget, and before the interval has passed nothing is
    /// refreshed. A flush reads the clock once with flow on and never
    /// without.
    #[test]
    fn a_flush_re_inverts_its_own_lane_once_the_interval_passed_and_the_shard_measured() {
        use crate::config::FlowConfig;
        use rjms_core::monitor::MIN_SAMPLES;
        let message = Message::builder().build();
        // Dispatches `messages` of 1 µs through a probe of `shard` on
        // virtual time, then goes idle (a flush) 2 ms later; the flush's
        // clock reads.
        let dispatch = |broker: &Broker, shard, messages| {
            let topic = broker.lookup("t").unwrap();
            let mut probe = Telemetry::new(&broker.inner, shard, u64::MAX, Virtual::default())
                .expect("metrics on");
            for _ in 0..messages {
                probe.on_dequeue(&message, None, false, || 0);
                probe.clock().spin(1e-6);
                probe.on_done(&done(&topic, &message));
            }
            probe.clock().spin(2e-3);
            let before = Virtual::reads();
            probe.on_idle();
            Virtual::reads() - before
        };
        let flow = |interval_ms| {
            let flow = FlowConfig::default().refresh_interval_ms(interval_ms);
            let broker = Broker::start(BrokerConfig::builder().shards(2).flow(flow).build());
            broker.create_topic("t").unwrap();
            broker
        };
        let lane = |broker: &Broker| {
            let snapshot = broker.flow().expect("flow on").snapshot();
            (snapshot.source, snapshot.refreshes)
        };

        let gated = flow(1);
        let seed = gated.flow().unwrap().shard_budget(1);
        assert_eq!(dispatch(&gated, 1, MIN_SAMPLES - 1), 1);
        assert_eq!(lane(&gated), ("analytic", 0), "a shard short of samples was re-inverted");
        assert_eq!(dispatch(&gated, 0, MIN_SAMPLES), 1);
        let (source, refreshes) = lane(&gated);
        assert!(source == "measured" && refreshes >= 1, "{source} after {refreshes} refreshes");
        assert_eq!(gated.flow().unwrap().shard_budget(1), seed, "shard 1's lane moved");
        gated.shutdown();

        // The overhead gate's interval: no refresh is due within the test.
        let gated = flow(60_000);
        assert_eq!(dispatch(&gated, 0, MIN_SAMPLES), 1);
        assert_eq!(lane(&gated), ("analytic", 0));
        gated.shutdown();

        let (broker, _) = broker();
        assert_eq!(dispatch(&broker, 0, MIN_SAMPLES), 0, "a flow-off flush read a clock");
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
        let mut probe =
            Telemetry::new(&broker.inner, 0, STAGE_SAMPLE_EVERY, Tsc).expect("metrics on");
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
