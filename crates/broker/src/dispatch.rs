//! The dispatch core: the one loop the paper's model rests on.
//!
//! Per message: dequeue → expire → journal → resolve → match → deliver →
//! account, i.e. `E[B] = t_rcv + n_fltr·t_fltr + E[R]·t_tx` (plus `t_store`
//! with a journal). "Resolve" reads the properties the topic's selectors
//! reference off the message once ([`crate::subscriptions`]); it is part
//! of the filter stage and a topic without selectors skips it. The loop
//! observes nothing about itself and reads no clock: every measurement, the
//! cost model's spins and the idle wait go through the [`DispatchProbe`] it
//! is generic over ([`crate::probe`]) and that probe's [`Clock`], so this
//! file is what a broker without instrumentation executes, on any clock.
//!
//! With a journal the dispatcher takes the publishes already queued as one
//! *run* and the journal step of the run's first live message writes the
//! whole run with one commit (group commit, DESIGN.md §3.3b); everything
//! else stays per message, in order.

use crate::broker::{BrokerInner, DispatchItem, Topic};
use crate::config::OverflowPolicy;
use crate::message::Message;
use crate::probe::{Clock, DispatchProbe, Dispatched};
use crate::subscriptions::{Entry, Sink, Subscriptions};
use crossbeam::channel::{Receiver, Sender, TryRecvError, TrySendError};
use rjms_selector::ValueRef;
use rjms_trace::Stage;
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// The most publishes one run takes off the queue, i.e. that share one
/// journal write: enough that the write's fixed cost is under 2 % of a
/// record's own (`ext_persistence_cost`: `t_write` ≈ 0.43 µs per commit
/// against `t_frame` ≈ 0.37 µs per record), small enough that the
/// publisher-side bound stays `publish_queue_capacity` + 64.
const RUN_MAX: usize = 64;

/// A publish taken off the queue, waiting for its turn in the run.
pub(crate) struct Queued {
    pub(crate) topic: Arc<Topic>,
    pub(crate) message: Arc<Message>,
    enqueued_at: Option<u64>,
    /// False when the dispatcher had to block for it.
    was_queued: bool,
    /// Where the run's commit put its publish record; `None` without
    /// persistence, and until that commit.
    pub(crate) publish_offset: Option<u64>,
}

impl Queued {
    /// `None` for `Shutdown`.
    fn new(item: DispatchItem, was_queued: bool) -> Option<Self> {
        match item {
            DispatchItem::Publish { topic, message, enqueued_at } => {
                Some(Queued { topic, message, enqueued_at, was_queued, publish_offset: None })
            }
            DispatchItem::Shutdown => None,
        }
    }
}

/// Takes the next run off the queue into `run`: the first publish as the
/// paper's loop does (blocking when the queue is empty), then whatever is
/// queued behind it right now, up to `run_max`. A run never waits to fill.
/// Returns false once `Shutdown` was popped or every sender is gone; what
/// was gathered before that is still to be dispatched.
fn gather<P: DispatchProbe>(
    publish_rx: &Receiver<DispatchItem>,
    run: &mut VecDeque<Queued>,
    run_max: usize,
    probe: &mut P,
) -> bool {
    let (item, was_queued) = match publish_rx.try_recv() {
        Ok(item) => (item, true),
        Err(TryRecvError::Empty) => {
            probe.on_idle();
            match probe.clock().wait(publish_rx) {
                Some(item) => (item, false),
                None => return false,
            }
        }
        Err(TryRecvError::Disconnected) => return false,
    };
    let Some(first) = Queued::new(item, was_queued) else { return false };
    run.push_back(first);
    while run.len() < run_max {
        match publish_rx.try_recv().map(|item| Queued::new(item, true)) {
            Ok(Some(queued)) => run.push_back(queued),
            Ok(None) => return false,
            // Empty, or disconnected: the next gather finds out which.
            Err(_) => break,
        }
    }
    true
}

/// One dispatcher thread: pops publish items from its shard's queue and
/// fans out message copies until it pops `Shutdown` or every sender is
/// gone. A broker runs one per shard (the single-dispatcher broker: shard
/// 0), each with its own probe.
pub(crate) fn run<P: DispatchProbe>(
    inner: &BrokerInner,
    shard: usize,
    publish_rx: &Receiver<DispatchItem>,
    mut probe: P,
) {
    let cost = inner.config.cost_model;
    // A run is what one journal write covers. Without a journal there is
    // nothing to share, and a run of one is the paper's M/GI/1 server: one
    // message leaves the queue per service, so push-back is per message.
    let run_max = if inner.journal.is_some() { RUN_MAX } else { 1 };
    let mut run = VecDeque::with_capacity(run_max);
    let mut open = true;
    while open {
        open = gather(publish_rx, &mut run, run_max, &mut probe);
        while let Some(mut current) = run.pop_front() {
            probe.on_dequeue(&current.message, current.enqueued_at, current.was_queued, || {
                publish_rx.len() + run.len()
            });

            // Counted at dequeue: an expired message was received too.
            current.topic.received.fetch_add(1, Ordering::Relaxed);
            probe.stage(Stage::Receive, |probe| {
                if let Some(c) = &cost {
                    probe.clock().spin(c.t_rcv);
                }
            });

            // TTL: expired messages are never delivered (JMS §4.8); the
            // receive work has already been paid.
            if current.message.is_expired() {
                inner.stats.record_expired_message();
                probe.on_expired();
                continue;
            }

            // Write-ahead: the message is on disk (per the fsync policy)
            // before any subscriber sees it. The first message of a run to
            // get here writes the rest of the run with it, so the later
            // ones find their offset assigned. This is the real-I/O
            // counterpart of the synthetic `t_rcv`/`t_fltr`/`t_tx` spins —
            // the `t_store` term of the extended cost model.
            probe.stage(Stage::Journal, |_| {
                if current.publish_offset.is_none() {
                    inner.append_publishes(&mut current, &mut run);
                }
            });
            let (topic, message) = (&current.topic, &current.message);

            // A subscription gone anywhere since this topic was last pruned:
            // prune it now, before the scan, which then reads no liveness.
            // ORD: Acquire — pairs with `LiveFlag::clear`'s Release count, so
            // the prune finds every cell cleared before that count.
            let cleared = inner.live_flags.cleared().load(Ordering::Acquire);
            if topic.pruned_at.load(Ordering::Relaxed) != cleared {
                topic.subs.write().prune();
                topic.pruned_at.store(cleared, Ordering::Relaxed);
            }

            let (evaluations, copies) = {
                let subs = topic.subs.read();
                let resolved;
                let resolved: &[Option<ValueRef<'_>>] = if subs.slots().is_empty() {
                    &[]
                } else {
                    resolved = probe.stage(Stage::Filter, |_| subs.slots().resolve(message));
                    resolved.as_slice()
                };
                let copies = fan_out(inner, &current, &subs, resolved, &mut probe);
                (subs.len() as u64, copies)
            };

            topic.filter_evaluations.fetch_add(evaluations, Ordering::Relaxed);
            topic.dispatched.fetch_add(copies, Ordering::Relaxed);

            let publish_offset = current.publish_offset;
            probe.on_done(&Dispatched { topic, message, evaluations, copies, publish_offset });
        }
    }
    probe.on_exit();

    // Each dispatcher winds down only its own shard's topics: another shard
    // may still be draining its queue into its topics. First every durable
    // subscription's last checkpoint, forced to disk so that a clean stop
    // never re-delivers already-consumed messages; then the plain
    // subscriptions go, so that blocked or future subscriber receives
    // observe disconnection once their queues drain.
    let topics = inner.topics.read();
    let own = topics.values().filter(|topic| topic.shard == shard);
    for topic in own.clone() {
        for (durable, _) in topic.subs.read().durables() {
            durable.finish(inner, &topic.name);
        }
    }
    inner.sync_journal();
    for topic in own {
        topic.subs.write().clear_plain();
    }
}

/// One message's fan-out: evaluates **every** subscription filter of the
/// topic, durable or not (brute force, as measured), against the message's
/// `resolved` properties and hands one copy per match to the entry's sink,
/// in subscription order; returns the copies sent. It walks the scan
/// table's runs: a column of compact rows in one pass, whose hits are
/// delivered before the next run is evaluated, any other run entry by
/// entry. A durable sink reads the publish's journal offset off `current`.
fn fan_out<P: DispatchProbe>(
    inner: &BrokerInner,
    current: &Queued,
    subs: &Subscriptions,
    resolved: &[Option<ValueRef<'_>>],
    probe: &mut P,
) -> u64 {
    let cost = inner.config.cost_model;
    let mut copies = 0;
    // The scan is one stage with the deliveries nested inside it; what
    // the probe books to the scan excludes them.
    probe.stage(Stage::Filter, |probe| {
        for (column, entries) in subs.scan() {
            if let Some(c) = &cost {
                entries.iter().for_each(|_| probe.clock().spin(c.t_fltr));
            }
            match column {
                Some(column) => column.run(resolved, |at| {
                    let entry = &entries[at];
                    copies += deliver(inner, current, entry, probe);
                }),
                // Rows without a compact form: the loop stays this plain,
                // each delivery inlined (`inproc_fanout` is this loop).
                None => {
                    for entry in entries {
                        if entry.matches(&current.message, resolved) {
                            copies += deliver(inner, current, entry, probe);
                        }
                    }
                }
            }
        }
    });
    copies
}

/// Hands one copy of the message to `entry`'s sink, as the fan-out stage,
/// and books what became of it; returns 1 for a copy sent, else 0.
#[inline(always)]
fn deliver<P: DispatchProbe>(
    inner: &BrokerInner,
    current: &Queued,
    entry: &Entry,
    probe: &mut P,
) -> u64 {
    let cost = inner.config.cost_model;
    let message = &current.message;
    let delivery = probe.stage(Stage::Fanout, |probe| {
        if let Some(c) = &cost {
            probe.clock().spin(c.t_tx);
        }
        match &entry.sub.sink {
            Sink::Plain(queue) => queue.deliver(Arc::clone(message), inner.config.overflow_policy),
            Sink::Durable(state) => state.deliver(inner, current),
        }
    });
    match delivery {
        Delivery::Sent => return 1,
        Delivery::Dropped => inner.stats.record_dropped(),
        Delivery::Retained => inner.stats.record_retained(),
        Delivery::Disconnected => {
            // The next message's prune takes the entry out.
            entry.sub.active.clear();
            inner.stats.record_expired_subscription();
        }
    }
    0
}

pub(crate) enum Delivery {
    Sent,
    Dropped,
    /// A plain subscriber's handle is gone.
    Disconnected,
    /// Kept for a durable subscription nobody is connected to.
    Retained,
}

/// Rings a subscription's consumer: the dispatcher calls it after each copy
/// it queues for the subscription ([`crate::SubscriptionBuilder::wake`]).
pub type Wake = Arc<dyn Fn() + Send + Sync>;

/// The dispatcher's end of one subscriber's bounded queue: a plain
/// subscription's, or a durable one's connected consumer's.
pub(crate) struct SubscriberQueue {
    pub(crate) sender: Sender<Arc<Message>>,
    /// `None` for every in-process consumer: one never-taken test per copy.
    pub(crate) wake: Option<Wake>,
}

impl SubscriberQueue {
    /// Enqueues one copy, per the overflow policy, then rings the consumer.
    pub(crate) fn deliver(&self, message: Arc<Message>, policy: OverflowPolicy) -> Delivery {
        let delivery = match policy {
            OverflowPolicy::Block => match self.sender.send(message) {
                Ok(()) => Delivery::Sent,
                Err(_) => Delivery::Disconnected,
            },
            OverflowPolicy::DropNew => match self.sender.try_send(message) {
                Ok(()) => Delivery::Sent,
                Err(TrySendError::Full(_)) => Delivery::Dropped,
                Err(TrySendError::Disconnected(_)) => Delivery::Disconnected,
            },
        };
        if let (Delivery::Sent, Some(wake)) = (&delivery, &self.wake) {
            wake();
        }
        delivery
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BrokerConfigBuilder, MetricsConfig, PersistenceConfig, TraceConfig};
    use crate::metrics::DispatcherScratch;
    use crate::probe::tests::{fit_locks, ns, Virtual};
    use crate::probe::{NoProbe, Telemetry, Tsc, STAGE_SAMPLE_EVERY};
    use crate::reports::{shard_monitor, totals, ZERO};
    use crate::subscriptions::LiveFlag;
    use crate::topic_obs::{tests::account_locks as locked, TopicObsConfig};
    use crate::{shard_of, Broker, BrokerConfig, CostAnchor, Filter, Subscriber};
    use crossbeam::channel::unbounded;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rjms_core::{
        ClusterScenario, CostParams, ReplicationModel, ServiceTime, WaitingTimeAnalysis,
    };
    use rjms_journal::FsyncPolicy;
    use rjms_metrics::shard_series;
    use rjms_queueing::inversion::ExactWaiting;
    use std::cell::RefCell;
    use std::path::PathBuf;
    use std::time::Duration;

    #[derive(Debug, PartialEq)]
    enum Event {
        Dequeue { was_queued: bool, backlog: usize },
        Enter(Stage),
        Expired,
        Done { evaluations: u64, copies: u64 },
        Idle,
        Exit,
    }

    /// Records every hook call; on idle it queues `Shutdown`, so a run over
    /// a pre-filled queue ends by itself, on the calling thread.
    struct RecordingProbe<'a> {
        events: &'a mut Vec<Event>,
        publish_tx: Sender<DispatchItem>,
    }

    impl DispatchProbe for RecordingProbe<'_> {
        fn on_dequeue(
            &mut self,
            _: &Message,
            _: Option<u64>,
            was_queued: bool,
            backlog: impl FnOnce() -> usize,
        ) {
            self.events.push(Event::Dequeue { was_queued, backlog: backlog() });
        }

        fn stage<T>(&mut self, stage: Stage, work: impl FnOnce(&mut Self) -> T) -> T {
            self.events.push(Event::Enter(stage));
            work(self)
        }

        fn on_expired(&mut self) {
            self.events.push(Event::Expired);
        }

        fn on_done(&mut self, done: &Dispatched<'_>) {
            self.events.push(Event::Done { evaluations: done.evaluations, copies: done.copies });
        }

        fn on_idle(&mut self) {
            self.events.push(Event::Idle);
            self.publish_tx.send(DispatchItem::Shutdown).unwrap();
        }

        fn on_exit(&mut self) {
            self.events.push(Event::Exit);
        }
    }

    #[test]
    fn no_probe_is_zero_sized() {
        assert_eq!(std::mem::size_of::<NoProbe>(), 0);
    }

    #[test]
    fn core_calls_the_probe_in_contract_order() {
        // The broker's own dispatcher idles on its own queue; the core under
        // test runs here, over the same state, with a queue of its own.
        let broker = Broker::start(BrokerConfig::default());
        broker.create_topic("plain").unwrap();
        broker.create_topic("durable").unwrap();
        let hit = broker.subscription("plain").open().unwrap();
        let miss = broker
            .subscription("plain")
            .filter(Filter::correlation_id("x").unwrap())
            .open()
            .unwrap();
        let durable = broker.subscription("durable").durable("d").open().unwrap();

        let (publish_tx, publish_rx) = unbounded();
        let publish = |topic: &str, ttl: Option<Duration>| {
            let mut message = Message::builder();
            if let Some(ttl) = ttl {
                message = message.time_to_live(ttl);
            }
            let item = DispatchItem::Publish {
                topic: broker.lookup(topic).unwrap(),
                message: Arc::new(message.build()),
                enqueued_at: None,
            };
            publish_tx.send(item).unwrap();
        };
        publish("plain", None);
        publish("plain", Some(Duration::ZERO));
        publish("durable", None);

        let mut events = Vec::new();
        let probe = RecordingProbe { events: &mut events, publish_tx: publish_tx.clone() };
        run(&broker.inner, 0, &publish_rx, probe);

        use Event::*;
        let expected = [
            // Two plain subscriptions evaluated, one matched.
            Dequeue { was_queued: true, backlog: 2 },
            Enter(Stage::Receive),
            Enter(Stage::Journal),
            Enter(Stage::Filter),
            Enter(Stage::Fanout),
            Done { evaluations: 2, copies: 1 },
            // Expired after the receive stage: no journal, no fan-out.
            Dequeue { was_queued: true, backlog: 1 },
            Enter(Stage::Receive),
            Expired,
            // A durable subscription is a row of the one scan.
            Dequeue { was_queued: true, backlog: 0 },
            Enter(Stage::Receive),
            Enter(Stage::Journal),
            Enter(Stage::Filter),
            Enter(Stage::Fanout),
            Done { evaluations: 1, copies: 1 },
            Idle,
            Exit,
        ];
        assert_eq!(events, expected);
        assert!(hit.try_receive().is_some() && miss.try_receive().is_none());
        assert!(durable.try_receive().is_some());
        let messages = broker.snapshot().messages;
        assert_eq!((messages.received, messages.expired, messages.dispatched), (3, 1, 2));
        broker.shutdown();
    }

    /// Books each message's evaluations, copies and the liveness flags
    /// read since the message before, and drops `doomed` after the third.
    struct DroppingProbe<'a> {
        doomed: &'a mut Vec<Subscriber>,
        messages: &'a mut Vec<(u64, u64, u64)>,
        loads: u64,
    }

    impl DispatchProbe for DroppingProbe<'_> {
        fn on_done(&mut self, done: &Dispatched<'_>) {
            let loads = LiveFlag::loads();
            self.messages.push((done.evaluations, done.copies, loads - self.loads));
            self.loads = loads;
            if self.messages.len() == 3 {
                self.doomed.clear();
            }
        }
    }

    /// Liveness costs the scan nothing per row: 256 filters and no drop
    /// read no flag. Dropping 8 subscribers, the one hit among them, is
    /// found by one prune before the next message, which reads each of the
    /// 256 flags once; that message and the ones after it evaluate the 248
    /// left and try no copy to a dropped one.
    #[test]
    fn a_drop_is_found_by_one_prune_and_no_message_reads_a_flag() {
        let broker = Broker::start(BrokerConfig::default());
        broker.create_topic("t").unwrap();
        let mut subs: Vec<_> = (0..256)
            .map(|key| {
                let filter = Filter::selector(&format!("key = {key}")).unwrap();
                broker.subscription("t").filter(filter).open().unwrap()
            })
            .collect();
        let mut doomed: Vec<_> = subs.drain(..8).collect();
        let (publish_tx, publish_rx) = unbounded();
        for _ in 0..6 {
            let message = Message::builder().property("key", 0i64).build();
            publish_tx.send(item(&broker, "t", message)).unwrap();
        }
        publish_tx.send(DispatchItem::Shutdown).unwrap();
        let mut messages = Vec::new();
        let loads = LiveFlag::loads();
        let probe = DroppingProbe { doomed: &mut doomed, messages: &mut messages, loads };
        run(&broker.inner, 0, &publish_rx, probe);
        let before = [(256, 1, 0); 3];
        assert_eq!(messages, [before, [(248, 0, 256), (248, 0, 0), (248, 0, 0)]].concat());
        assert_eq!(broker.snapshot().subscriptions.expired, 0);
        broker.shutdown();
    }

    /// Messages each clock-read count dispatches.
    const CLOCKED: u64 = 100;

    /// Runs the core over [`CLOCKED`] publishes of `message()` to `broker`'s
    /// topic `t`, all queued beforehand, clocking the stages of one message
    /// in `every`; returns how far `count` rose meanwhile.
    fn counted(broker: &Broker, every: u64, message: fn() -> Message, count: fn() -> u64) -> u64 {
        let (publish_tx, publish_rx) = unbounded();
        for _ in 0..CLOCKED {
            publish_tx.send(item(broker, "t", message())).unwrap();
        }
        publish_tx.send(DispatchItem::Shutdown).unwrap();
        let probe =
            Telemetry::new(&broker.inner, 0, every, Virtual::default()).expect("metrics on");
        let before = count();
        run(&broker.inner, 0, &publish_rx, probe);
        count() - before
    }

    /// The probe's clock reads while the core dispatches [`CLOCKED`]
    /// publishes, all queued beforehand, to a topic with one subscription
    /// per entry of `selectors` (`None`: no filter), clocking the stages of
    /// one message in `every`. The first message has no previous fan-out end
    /// to start at, like one the dispatcher blocked for.
    fn clock_reads(config: BrokerConfig, every: u64, selectors: &[Option<&str>]) -> u64 {
        let broker = Broker::start(config);
        broker.create_topic("t").unwrap();
        let _subscribers: Vec<Subscriber> = selectors
            .iter()
            .map(|selector| {
                let subscription = broker.subscription("t");
                match selector {
                    Some(source) => subscription.filter(Filter::selector(source).unwrap()),
                    None => subscription,
                }
                .open()
                .unwrap()
            })
            .collect();
        let message = || Message::builder().property("key", 0i64).build();
        let reads = counted(&broker, every, message, Virtual::reads);
        broker.shutdown();
        reads
    }

    /// A queued message whose stages are not clocked reads the clock once,
    /// at its fan-out end. A clocked one reads it once more per stage
    /// boundary: into journal and filter, into and out of each fan-out (the
    /// dispatch start opens receive, and a scan behind a resolve step stays
    /// in the filter stage). A sampled message clocks every stage, and so
    /// does every message under tracing.
    #[test]
    fn a_message_reads_the_clock_once_and_once_more_per_stage_boundary() {
        // Two hits and a miss: a resolve step and two copies. One plain
        // subscription: neither resolve nor a second copy.
        let selectors = [Some("key = 0"), Some("key = 0"), Some("key = 1")];
        let plain = [None];
        let reads = |config: BrokerConfigBuilder, every| {
            let config = config.build();
            (clock_reads(config.clone(), every, &selectors), clock_reads(config, every, &plain))
        };
        let metrics = || BrokerConfig::builder().metrics(MetricsConfig::default());
        // Journal, filter and two fan-outs in and out; journal, filter and
        // one fan-out in and out.
        let clocked = |boundaries: u64| 1 + CLOCKED * (1 + boundaries);
        assert_eq!(reads(metrics(), u64::MAX), (1 + CLOCKED, 1 + CLOCKED));
        assert_eq!(reads(metrics(), 1), (clocked(6), clocked(4)));
        let traced = metrics().trace(TraceConfig::default());
        assert_eq!(reads(traced, u64::MAX), (clocked(6), clocked(4)));
    }

    /// The observatory account locks the core takes for [`CLOCKED`]
    /// messages from `message` to a topic `t` created after `before` others,
    /// and whether `t` has an account.
    fn account_locks(config: BrokerConfig, before: usize, message: fn() -> Message) -> (u64, bool) {
        let broker = Broker::start(config);
        for created in 0..before {
            broker.create_topic(&format!("before-{created}")).unwrap();
        }
        broker.create_topic("t").unwrap();
        let _subscriber = broker.subscription("t").open().unwrap();
        let locks = counted(&broker, u64::MAX, message, locked);
        let own = broker.lookup("t").unwrap().account.is_some();
        broker.shutdown();
        (locks, own)
    }

    /// With the observatory on, a dispatched message locks one account, its
    /// topic's, past the cap of the observatory's rows as well. An expired
    /// message locks none, and without the observatory no message
    /// does. The shard's estimator takes one lock per flush.
    #[test]
    fn a_dispatched_message_locks_one_observatory_account() {
        let observed = || BrokerConfig::builder().topic_obs(TopicObsConfig::default()).build();
        let fresh = || Message::builder().build();
        let expired = || Message::builder().time_to_live(Duration::ZERO).build();
        let past_the_cap = crate::metrics::PER_TOPIC_SERIES;
        assert_eq!(account_locks(observed(), 1, fresh), (CLOCKED, true));
        assert_eq!(account_locks(observed(), past_the_cap, fresh), (CLOCKED, true));
        assert_eq!(account_locks(observed(), 1, expired), (0, true));
        let unobserved = BrokerConfig::builder().metrics(MetricsConfig::default()).build();
        assert_eq!(account_locks(unobserved, 1, fresh), (0, false));
        // The shard's estimator is merged at a flush, not locked per
        // message: the queued messages flush once, at exit.
        let broker = Broker::start(observed());
        broker.create_topic("t").unwrap();
        assert_eq!(counted(&broker, u64::MAX, fresh, fit_locks), 1);
        assert_eq!(broker.inner.metrics.as_ref().unwrap().fits[0].lock().rejected(), CLOCKED);
        broker.shutdown();
    }

    /// A message stages four histogram records — its waiting, service and
    /// sojourn samples and the backlog it left — into its dispatcher's own
    /// series, on a sharded broker as on a single dispatcher: a sharded
    /// broker's unlabeled series are merged when the registry is read. The
    /// stage histograms get the stage sample only: at [`STAGE_SAMPLE_EVERY`]
    /// the jittered countdown fires at the 64th message, next at the 120th.
    #[test]
    fn a_message_stages_four_histogram_records_at_one_shard_and_at_four() {
        for shards in [1, 4] {
            let config = BrokerConfig::builder().shards(shards).metrics(MetricsConfig::default());
            let broker = Broker::start(config.build());
            broker.create_topic("t").unwrap();
            let _subscriber = broker.subscription("t").open().unwrap();
            let message = || Message::builder().build();
            let records = counted(&broker, STAGE_SAMPLE_EVERY, message, DispatcherScratch::records);
            assert_eq!(records, 4 * CLOCKED, "{shards} shards");
            let snapshot = broker.metrics().unwrap().snapshot();
            let stage = |s| snapshot.histogram(&format!("broker.stage.{s}_ns")).unwrap().count;
            let stages = ["rcv", "journal", "filter", "fanout"].map(stage);
            assert_eq!(stages, [1; 4], "{shards} shards");
            broker.shutdown();
        }
    }

    /// How far E[W], W99 and the backlog mean may lie from the analysis: the
    /// largest deviation over seeds 1–10 and the four rows (5.1 %, 10.0 %,
    /// 3.3 %) plus a quarter, rounded up to half a percent (EXPERIMENTS.md,
    /// "one clock for the dispatcher").
    const BOUNDS: [f64; 3] = [0.065, 0.13, 0.045];
    const SEED: u64 = 1;

    /// The real core and `Telemetry` (every stage clocked) on virtual time,
    /// fed 20 000 Poisson arrivals at ρ = 0.5, are the paper's M/GI/1
    /// server: the waiting, service, sojourn, backlog and stage histograms
    /// equal the Lindley recursion over the same draws to the nanosecond,
    /// and E[W], W99 and the backlog mean agree with Pollaczek–Khinchine,
    /// `ExactWaiting` and Little's law at λ̂ = N ÷ the last arrival.
    /// Subscription `j` of `n` takes the paper's range `[j;n]`, the first
    /// durably, so message `#R` is copied `R` times. Rows: a deterministic,
    /// a scaled-Bernoulli and a binomial `R`; and shard 1 of two under
    /// `shard_scaling.rs`'s cluster model, M/D/1 at E[B] = 3 ms. Each row's
    /// shard, judged against its own Eq. 1 fit, is calibrated.
    #[test]
    fn the_core_on_virtual_time_is_the_lindley_recursion() {
        const MESSAGES: usize = 20_000;
        const RHO: f64 = 0.5;
        let cost = CostParams::new(25e-6, 5e-6, 10e-6);
        let service = |model| ServiceTime::new(cost.t_rcv + 10.0 * cost.t_fltr, cost.t_tx, model);
        let grid =
            |model| (1, cost, 10, WaitingTimeAnalysis::for_service_time(service(model), RHO));
        let params = CostParams::new(500e-6, 250e-6, 375e-6);
        let (subscribers, mean_replication) = (8, 8.0);
        let cluster = ClusterScenario {
            params,
            brokers: 2,
            subscribers,
            filters_per_subscriber: 1,
            mean_replication,
            rho: RHO,
        };
        for (shards, cost, filters, analysis) in [
            grid(ReplicationModel::deterministic(5.0)),
            grid(ReplicationModel::scaled_bernoulli(10.0, 0.5)),
            grid(ReplicationModel::binomial(10.0, 0.5)),
            (2, params, 4, cluster.waiting_time(RHO / cluster.per_broker_service_time())),
        ] {
            let (analysis, shard) = (analysis.unwrap(), shards - 1);
            let (service, lambda) = (*analysis.service(), analysis.queue().arrival_rate());
            let row = format!("shard {shard} of {shards}, {:?}", service.replication());
            let config = BrokerConfig::builder().shards(shards).cost_model(cost);
            let config =
                config.metrics(MetricsConfig::default()).subscriber_queue_capacity(MESSAGES);
            let broker = Broker::start(config.build());
            let topic =
                (0..).map(|i| format!("t{i}")).find(|t| shard_of(t, shards) == shard).unwrap();
            broker.create_topic(&topic).unwrap();
            let _subscribers: Vec<Subscriber> = (1..=filters)
                .map(|j| {
                    let range = Filter::correlation_id(&format!("[{j};{filters}]")).unwrap();
                    let subscription = broker.subscription(&topic).filter(range);
                    if j == 1 { subscription.durable("d") } else { subscription }.open().unwrap()
                })
                .collect();
            let model = service.replication();
            let cdf: Vec<f64> = (0..=model.max_grade()).map(|k| model.cdf(k)).collect();
            let (mut rng, mut at) = (StdRng::seed_from_u64(SEED), 0);
            let draws: Vec<(u64, u64)> = (0..MESSAGES)
                .map(|_| {
                    at += ns(-(1.0 - rng.gen::<f64>()).ln() / lambda);
                    let u = rng.gen::<f64>();
                    (at, cdf.iter().position(|&p| u < p).unwrap_or(cdf.len() - 1) as u64)
                })
                .collect();
            let message = |copies| Message::builder().correlation_id(format!("#{copies}")).build();
            let arrivals = draws.iter().map(|&(at, r)| (at, item(&broker, &topic, message(r))));
            let (queue, publish_rx) = unbounded();
            let (arrivals, queue) = (RefCell::new(arrivals.collect()), Some(queue));
            let clock = Virtual { arrivals, queue, ..Virtual::default() };
            let probe = Telemetry::new(&broker.inner, shard, 1, clock).expect("metrics on");
            run(&broker.inner, shard, &publish_rx, probe);

            // A message starts at its arrival or when the one before it
            // ends, and leaves behind what arrived up to its start.
            let (mut end, mut arrived, mut sums, mut copies) = (0, 0, [0; 4], 0);
            for (i, &(arrival, r)) in draws.iter().enumerate() {
                let start = arrival.max(end);
                while draws.get(arrived).is_some_and(|&(at, _)| at <= start) {
                    arrived += 1;
                }
                let b = ns(cost.t_rcv) + filters * ns(cost.t_fltr) + r * ns(cost.t_tx);
                let sample = [start - arrival, b, start - arrival + b, (arrived - i - 1) as u64];
                sums.iter_mut().zip(sample).for_each(|(sum, x)| *sum += x);
                (end, copies) = (start + b, copies + r);
            }
            let snapshot = broker.metrics().unwrap().snapshot();
            let histogram = |name: &str| snapshot.histogram(name).cloned().unwrap_or_default();
            let series =
                ["broker.waiting_ns", "broker.service_ns", "broker.sojourn_ns", "broker.backlog"]
                    .map(|base| histogram(&shard_series(base, shard, shards)));
            let n = MESSAGES as u64;
            let counted = series.each_ref().map(|h| (h.count, h.sum));
            assert_eq!(counted, sums.map(|sum| (n, sum)), "{row}");
            let stages = ["rcv", "journal", "filter", "fanout"]
                .map(|s| histogram(&format!("broker.stage.{s}_ns")));
            let booked =
                [ns(cost.t_rcv) * n, 0, ns(cost.t_fltr) * filters * n, ns(cost.t_tx) * copies];
            assert_eq!(stages.map(|h| (h.count, h.sum)), booked.map(|sum| (n, sum)), "{row}");
            assert_eq!(broker.snapshot().messages.dispatched, copies, "{row}");

            let [waiting, .., backlog] = &series;
            let (mean, w99) =
                (waiting.mean() * 1e-9, waiting.quantile(0.99).unwrap() as f64 * 1e-9);
            let exact = ExactWaiting::for_service(&service, RHO).unwrap().quantile(0.99);
            let little = n as f64 / (at as f64 * 1e-9) * mean;
            let ratios =
                [mean / analysis.queue().mean_waiting_time(), w99 / exact, backlog.mean() / little];
            let errors = ratios.map(|ratio| ratio - 1.0);
            let within = errors.iter().zip(BOUNDS).all(|(error, bound)| error.abs() <= bound);
            assert!(within, "{row}: E[W], W99, backlog off by {errors:.4?}");

            // Against its own fit, with the spread it measured (the
            // scaled-Bernoulli row's `c_var[B]` 0.4 is past the 0.25 a
            // spread-free prediction may miss by), the shard is calibrated.
            let metrics = broker.inner.metrics.as_ref().unwrap();
            let fit = CostAnchor::Fit(metrics.fits[shard].lock().fit(&ZERO).unwrap());
            let (_, totals) = totals(&broker.inner.topics.read(), shards, |_, _| {});
            let (waiting, service) = metrics.measurement(shard);
            let monitor = shard_monitor(fit, &totals[shard], service.cvar());
            let verdict = monitor.assess(&waiting, &service, Duration::from_nanos(at));
            assert!(verdict.is_calibrated(), "{row}: {verdict:?}");
            broker.shutdown();
        }
    }

    /// The two-population workload of `tests/topic_observatory.rs` on
    /// virtual time: topics with 16 and 8 `lvl >= i` selectors, `lvl`
    /// cycling through `1..=n`, and spun costs of 200 / 200 / 300 µs, so
    /// that every service time is exactly its Eq. 1 cost. Each topic row
    /// (anchored on the cost model), the pooled fit and the shard's own
    /// zero-anchored fit are the spun constants to float error, and every
    /// verdict is stable. Then `t_tx` spins ten times as long, and the
    /// shard fit's verdict against the cost model turns to drift at the
    /// second round of 24 messages, where its `t_tx` is 35 % off (the
    /// tolerance is 25 %).
    #[test]
    fn the_estimators_recover_the_spun_constants_and_see_a_step() {
        let cost = CostParams::new(200e-6, 200e-6, 300e-6);
        let config = BrokerConfig::builder().cost_model(cost).topic_obs(TopicObsConfig::default());
        let broker = Broker::start(config.subscriber_queue_capacity(1 << 12).build());
        let populations = [("wide", 16i64), ("narrow", 8)];
        // Durable: a dispatcher's exit disconnects the plain ones.
        let mut subscribers = Vec::new();
        for (topic, filters) in populations {
            broker.create_topic(topic).unwrap();
            for i in 1..=filters {
                let filter = Filter::selector(&format!("lvl >= {i}")).unwrap();
                let subscription = broker.subscription(topic).filter(filter);
                subscribers.push(subscription.durable(&format!("{topic}-{i}")).open().unwrap());
            }
        }
        // Dispatches `rounds` rounds, each one message of every `lvl` on
        // each topic (24 messages), with `t_tx` spun `scale` times as long.
        let dispatch = |rounds, scale| {
            let (publish_tx, publish_rx) = unbounded();
            for _ in 0..rounds {
                for (topic, filters) in populations {
                    for lvl in 1..=filters {
                        let message = Message::builder().property("lvl", lvl).build();
                        publish_tx.send(item(&broker, topic, message)).unwrap();
                    }
                }
            }
            publish_tx.send(DispatchItem::Shutdown).unwrap();
            let clock = Virtual { scaled: Some((cost.t_tx, scale)), ..Virtual::default() };
            let probe = Telemetry::new(&broker.inner, 0, u64::MAX, clock).expect("metrics on");
            run(&broker.inner, 0, &publish_rx, probe);
            subscribers.iter().for_each(|s| drop(s.drain()));
        };
        let exact = |f: CostParams, what: &str| {
            let ratios = [f.t_rcv / cost.t_rcv, f.t_fltr / cost.t_fltr, f.t_tx / cost.t_tx];
            assert!(ratios.iter().all(|r| (r - 1.0).abs() < 1e-9), "{what}: {f:?}");
        };
        let shard_fit = || *broker.inner.metrics.as_ref().unwrap().fits[0].lock();

        dispatch(50, 1.0);
        let snap = broker.topic_observatory().expect("observatory on");
        assert_eq!(snap.topics.len(), 2);
        for row in &snap.topics {
            exact(row.fitted.expect("a fit").params, &row.name);
            assert_eq!(row.verdict.as_ref().map(|v| v.kind()), Some("stable"), "{}", row.name);
        }
        exact(snap.global_fitted.expect("a pooled fit").params, "pooled");
        assert_eq!(snap.global_verdict.as_ref().map(|v| v.kind()), Some("stable"));
        let fit = shard_fit().fit(&ZERO).expect("identifiable");
        assert_eq!(fit.mode, rjms_core::FitMode::Full, "n_fltr and R both vary");
        exact(fit.params, "shard");
        assert_eq!(shard_fit().assess(&cost).kind(), "stable");

        let mut stepped = 0;
        while shard_fit().assess(&cost).kind() == "stable" && stepped < 48 {
            dispatch(1, 10.0);
            stepped += 24;
        }
        assert_eq!((stepped, shard_fit().assess(&cost).kind()), (48, "drift"));
        broker.shutdown();
    }

    fn persistent_broker(tag: &str, fsync: FsyncPolicy, config: BrokerConfig) -> (Broker, PathBuf) {
        let dir = rjms_journal::scratch_dir(tag);
        // One segment: a rotation syncs megabytes, an outlier that a test
        // of sampled against total time must not hinge on.
        let persistence =
            PersistenceConfig::new(&dir).journal(|j| j.fsync(fsync).segment_max_bytes(1 << 30));
        (Broker::start(BrokerConfig { persistence: Some(persistence), ..config }), dir)
    }

    fn item(broker: &Broker, topic: &str, message: Message) -> DispatchItem {
        DispatchItem::Publish {
            topic: broker.lookup(topic).unwrap(),
            message: Arc::new(message),
            enqueued_at: None,
        }
    }

    /// Runs the core on this thread over `items`, all queued beforehand,
    /// and returns the hook calls.
    fn dispatch_queued(broker: &Broker, items: Vec<DispatchItem>) -> Vec<Event> {
        let (publish_tx, publish_rx) = unbounded();
        for item in items {
            publish_tx.send(item).unwrap();
        }
        let mut events = Vec::new();
        let probe = RecordingProbe { events: &mut events, publish_tx: publish_tx.clone() };
        run(&broker.inner, 0, &publish_rx, probe);
        events
    }

    /// With a journal the three queued messages are one run: the hooks come
    /// per message, in the order and with the backlogs of a broker without
    /// one, and the journal sees one commit for the three records.
    #[test]
    fn a_run_keeps_the_contract_order_and_commits_once() {
        let (broker, dir) =
            persistent_broker("dispatch-run", FsyncPolicy::Always, BrokerConfig::default());
        broker.create_topic("t").unwrap();
        let sub = broker.subscription("t").open().unwrap();
        let before = broker.snapshot().journal.unwrap();

        let items = (0..3i64).map(|i| Message::builder().property("seq", i).build());
        let events = dispatch_queued(&broker, items.map(|m| item(&broker, "t", m)).collect());

        use Event::*;
        let message = |backlog| {
            [
                Dequeue { was_queued: true, backlog },
                Enter(Stage::Receive),
                Enter(Stage::Journal),
                Enter(Stage::Filter),
                Enter(Stage::Fanout),
                Done { evaluations: 1, copies: 1 },
            ]
        };
        let expected: Vec<Event> =
            [2, 1, 0].into_iter().flat_map(message).chain([Idle, Exit]).collect();
        assert_eq!(events, expected);
        for i in 0..3i64 {
            assert_eq!(sub.try_receive().unwrap().property("seq"), Some(&i.into()));
        }
        let journal = broker.snapshot().journal.unwrap();
        assert_eq!(journal.appends, before.appends + 3);
        // Under `Always` every commit syncs: one for the run, and the
        // dispatcher's exit syncs once more.
        assert_eq!(journal.fsyncs, before.fsyncs + 2);
        broker.shutdown();
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Expired messages of a run are neither journalled nor delivered, and
    /// the first live message behind them still writes the run.
    #[test]
    fn an_expired_message_in_a_run_is_skipped_by_the_commit() {
        let (broker, dir) =
            persistent_broker("dispatch-expired", FsyncPolicy::Always, BrokerConfig::default());
        broker.create_topic("t").unwrap();
        let sub = broker.subscription("t").open().unwrap();
        let before = broker.snapshot().journal.unwrap();

        let items = (0..4i64).map(|i| {
            let message = Message::builder().property("seq", i);
            let expired = i % 2 == 0;
            if expired { message.time_to_live(Duration::ZERO) } else { message }.build()
        });
        let events = dispatch_queued(&broker, items.map(|m| item(&broker, "t", m)).collect());

        let journal_stages = events.iter().filter(|e| **e == Event::Enter(Stage::Journal)).count();
        let expired = events.iter().filter(|e| **e == Event::Expired).count();
        assert_eq!((journal_stages, expired), (2, 2));
        assert_eq!(
            events[..3],
            [
                Event::Dequeue { was_queued: true, backlog: 3 },
                Event::Enter(Stage::Receive),
                Event::Expired,
            ]
        );
        for i in [1i64, 3] {
            assert_eq!(sub.try_receive().unwrap().property("seq"), Some(&i.into()));
        }
        assert!(sub.try_receive().is_none());
        let journal = broker.snapshot().journal.unwrap();
        assert_eq!(journal.appends, before.appends + 2);
        assert_eq!(journal.fsyncs, before.fsyncs + 2);
        broker.shutdown();
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Saturated, a persistent dispatcher works in runs of [`RUN_MAX`] and
    /// the journal stage is bimodal: the run's write in one message, next to
    /// nothing in the others. The stage sampler must weigh the two as they
    /// occur, so that the sampled mean is the per-message `t_store` the
    /// journal clocks itself.
    #[test]
    fn sampled_journal_stage_agrees_with_the_journals_own_clock() {
        const MESSAGES: u64 = RUN_MAX as u64 * 1024;
        let config = BrokerConfig::builder().metrics(MetricsConfig::default()).build();
        let (broker, dir) = persistent_broker("dispatch-sampled", FsyncPolicy::Never, config);
        broker.create_topic("t").unwrap();
        let registry = broker.metrics().unwrap();
        let journal_clock = || registry.snapshot().histogram("journal.append_ns").unwrap().clone();
        let before = journal_clock();

        let (publish_tx, publish_rx) = unbounded();
        for _ in 0..MESSAGES {
            publish_tx
                .send(item(&broker, "t", Message::builder().body(vec![7; 128]).build()))
                .unwrap();
        }
        publish_tx.send(DispatchItem::Shutdown).unwrap();
        let probe = Telemetry::new(&broker.inner, 0, 2, Tsc).expect("metrics on");
        run(&broker.inner, 0, &publish_rx, probe);

        let after = journal_clock();
        assert_eq!(after.count - before.count, MESSAGES);
        let clocked = (after.sum - before.sum) as f64;
        let stage = registry.snapshot().histogram("broker.stage.journal_ns").unwrap().clone();
        assert!(stage.count > MESSAGES / 3, "{} samples", stage.count);
        let sampled = stage.mean() * MESSAGES as f64;
        assert!(
            (sampled / clocked - 1.0).abs() <= 0.2,
            "stage mean × messages = {sampled:.0} ns, the journal clocked {clocked:.0} ns"
        );
        broker.shutdown();
        let _ = std::fs::remove_dir_all(dir);
    }
}
