//! The broker's public API: topic registry, subscriptions, publisher and
//! subscriber handles.
//!
//! The broker mirrors the structure the paper measured:
//!
//! * Publishers send messages into one bounded *publish queue*; when the
//!   server cannot keep up, the full queue blocks publishers — the push-back
//!   mechanism the paper observed (no server-side loss).
//! * A single *dispatcher thread* (the paper's server is CPU-bound on a
//!   single-CPU machine) pops each message, evaluates **every** subscription
//!   filter of the message's topic — FioranoMQ performs no filter-identity
//!   optimization, and the paper verified identical and distinct filters cost
//!   the same — and enqueues one copy per matching subscriber. That loop is
//!   [`crate::dispatch`].
//! * Subscribers consume from bounded per-subscription queues.
//!
//! With [`BrokerConfig::cost_model`] set, the dispatcher additionally burns
//! `t_rcv` per message, `t_fltr` per filter evaluation and `t_tx` per
//! forwarded copy on its clock ([`crate::probe`]), so a saturated broker
//! reproduces Eq. 1 in wall clock time.
//!
//! With [`MetricsConfig`](crate::config::MetricsConfig) installed, the
//! dispatcher measures itself through its probe ([`crate::probe`]):
//! per-message waiting, service and sojourn times land in lock-free
//! histograms (see [`crate::metrics`]), with the Eq. 1 stage decomposition
//! sampled on one message in 64.

use crate::config::{BrokerConfig, MetricsConfig, TRACE_EVENTS};
use crate::dispatch::{self, SubscriberQueue, Wake};
use crate::durable::DurableState;
use crate::error::{Error, TryPublishError};
use crate::filter::Filter;
use crate::message::Message;
use crate::metrics::{BrokerMetrics, PER_TOPIC_SERIES};
use crate::pattern::TopicPattern;
use crate::persist::{recover_topics, JournalRecord};
use crate::probe::{NoProbe, Telemetry, Tsc, STAGE_SAMPLE_EVERY};
use crate::reports::{
    model_text, shard_anchors, shard_monitors_of, shard_reports_of, snapshot_of, ShardReport,
};
use crate::stats::{BrokerSnapshot, BrokerStats};
use crate::subscriptions::{LiveFlag, LiveFlags, Sink, Subscriptions};
use crate::topic_obs::{self, Account, TopicObservatorySnapshot, OTHER_TOPIC};
use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use parking_lot::{Mutex, RwLock};
use rjms_core::{ModelMonitor, ReplicationModel, ServerModel};
use rjms_flow::{AdmissionOutcome, FlowGate};
use rjms_journal::Journal;
use rjms_metrics::{labeled, MetricsRegistry, RegistrySnapshot};
use rjms_trace::FlightRecorder;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Unique id of a subscription within a broker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubscriptionId(u64);

impl fmt::Display for SubscriptionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sub-{}", self.0)
    }
}

/// One subscription's registration on a topic: a plain subscriber's, or a
/// named durable subscription's under its current filter.
pub(crate) struct Subscription {
    pub(crate) filter: Filter,
    pub(crate) sink: Sink,
    /// Cleared when the subscriber handle is dropped; the topic's dispatcher
    /// prunes the subscription before its next message. A durable
    /// subscription's never is.
    pub(crate) active: LiveFlag,
}

/// A topic: a named set of subscriptions, plain and durable, and the one
/// home of the per-message counters ([`BrokerInner::new_topic`] builds it).
///
/// Aligned to a cache line so that, inside the `Arc` every publish clones,
/// no field shares the line of the reference counts: the publisher's clone
/// and the dispatcher's drop bounce that line between their cores once per
/// message, and which of the dispatcher's own fields (`subs`' lock word, the
/// counters) happened to sit on it moved `inproc_bare` by −12 % to +6 % as
/// fields were added (EXPERIMENTS.md "PR 24").
#[derive(Default)]
#[repr(align(64))]
pub(crate) struct Topic {
    pub(crate) name: String,
    /// The dispatcher shard this topic is pinned to ([`shard_of`]); all of
    /// a topic's messages flow through one dispatcher, preserving
    /// per-topic FIFO order under sharded dispatch.
    pub(crate) shard: usize,
    pub(crate) subs: RwLock<Subscriptions>,
    /// Messages popped off the publish queue (expired ones too), copies
    /// delivered, filters evaluated: written by the shard's dispatcher alone,
    /// summed where totals are read ([`crate::reports::totals`]).
    pub(crate) received: AtomicU64,
    pub(crate) dispatched: AtomicU64,
    pub(crate) filter_evaluations: AtomicU64,
    /// [`LiveFlags::cleared`] as of the dispatcher's last prune of `subs`.
    pub(crate) pruned_at: AtomicU64,
    /// How many of the broker's topics were created before this one: the
    /// first [`PER_TOPIC_SERIES`] get a `broker.topic.*` pair of their own
    /// ([`topic_series`]).
    pub(crate) ordinal: usize,
    /// The topic's observatory account; `None` without an observatory.
    pub(crate) account: Option<Account>,
}

/// The broker's topics by name. Topics are never deleted.
pub(crate) type TopicTable = RwLock<HashMap<String, Arc<Topic>>>;

/// Topics beyond [`PER_TOPIC_SERIES`], the cap of both per-topic tables —
/// the labeled series, and the observatory's rows, which imply metrics —
/// which share `__other__`. Topics are never deleted and take the slots
/// in creation order, so that is every topic past the cap.
pub(crate) fn topics_overflowed(topics: usize) -> u64 {
    topics.saturating_sub(PER_TOPIC_SERIES) as u64
}

/// The registry source of the per-topic series, read off the topics' own
/// counters: a `broker.topic.{received,dispatched}{topic=…}` pair for each
/// of the first [`PER_TOPIC_SERIES`] topics created, one `__other__` pair
/// summing the rest, and `broker.topics_overflowed` once it is not 0.
fn topic_series(topics: &TopicTable, snapshot: &mut RegistrySnapshot) {
    let topics = topics.read();
    for topic in topics.values() {
        let label = if topic.ordinal < PER_TOPIC_SERIES { &topic.name } else { OTHER_TOPIC };
        for (base, count) in [
            ("broker.topic.received", &topic.received),
            ("broker.topic.dispatched", &topic.dispatched),
        ] {
            let series = snapshot.counters.entry(labeled(base, &[("topic", label)])).or_default();
            *series += count.load(Ordering::Relaxed);
        }
    }
    let overflowed = topics_overflowed(topics.len());
    if overflowed > 0 {
        snapshot.counters.insert("broker.topics_overflowed".to_owned(), overflowed);
    }
}

/// Maps a topic name onto a dispatcher shard: a stable FNV-1a hash of the
/// name modulo the shard count. The assignment is a pure function of
/// `(name, shards)`, so it survives restarts and journal recovery, and
/// workload generators can construct topic names that land on chosen
/// shards.
///
/// With `shards == 1` every topic maps to shard 0 (the single-dispatcher
/// broker).
///
/// # Panics
///
/// Panics if `shards` is zero.
///
/// # Examples
///
/// ```
/// use rjms_broker::shard_of;
///
/// assert_eq!(shard_of("orders.eu", 1), 0);
/// let s = shard_of("orders.eu", 4);
/// assert!(s < 4);
/// // Stable: the same name always lands on the same shard.
/// assert_eq!(s, shard_of("orders.eu", 4));
/// ```
pub fn shard_of(topic: &str, shards: usize) -> usize {
    assert!(shards > 0, "shards must be > 0");
    if shards == 1 {
        return 0;
    }
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in topic.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    (hash % shards as u64) as usize
}

/// Work items for the dispatcher thread.
pub(crate) enum DispatchItem {
    Publish {
        topic: Arc<Topic>,
        message: Arc<Message>,
        /// Publish-queue entry time; `Some` only with metrics enabled so
        /// the no-metrics dispatch path stays free of clock reads.
        enqueued_at: Option<u64>,
    },
    Shutdown,
}

/// Shared broker state.
pub(crate) struct BrokerInner {
    pub(crate) config: BrokerConfig,
    pub(crate) stats: Arc<BrokerStats>,
    /// When the broker started: the origin of every shard's measured
    /// arrival rate in [`Broker::shard_reports`] (`reports.rs`).
    pub(crate) started: Instant,
    /// Shared with the registry's per-topic source ([`topic_series`]),
    /// which holds the table and never the broker.
    pub(crate) topics: Arc<TopicTable>,
    /// Wildcard subscriptions, attached to future topics on creation.
    patterns: RwLock<Vec<PatternSubscription>>,
    next_subscription_id: AtomicU64,
    /// Where subscriptions get their liveness flags.
    pub(crate) live_flags: LiveFlags,
    pub(crate) stopped: AtomicBool,
    /// The write-ahead journal, when persistence is enabled. The dispatcher
    /// appends publishes and checkpoints; API threads append topology
    /// records (topic/durable lifecycle). Written through
    /// `append_record`/`sync_journal` ([`crate::persist`]).
    pub(crate) journal: Option<Mutex<Journal>>,
    /// Live instruments, when metrics are enabled.
    pub(crate) metrics: Option<BrokerMetrics>,
    /// The span-event flight recorder, when tracing is enabled. The
    /// dispatcher commits broker-stage chains; the net layer appends
    /// wire-flush events for sampled trace ids.
    pub(crate) tracer: Option<Arc<FlightRecorder>>,
    /// The admission gate, when flow control is enabled. Publishers
    /// consult it before enqueueing; each dispatcher re-inverts its own
    /// shard's lane from that shard's live histograms (`probe.rs`).
    pub(crate) flow: Option<Arc<FlowGate>>,
    /// Id source for publisher handles: the flow gate rate-limits per
    /// producer, so each [`Broker::publisher`] call gets a fresh identity.
    next_producer_id: AtomicU64,
}

impl BrokerInner {
    fn topic_observatory(&self) -> Option<TopicObservatorySnapshot> {
        self.config.topic_obs?;
        let (topics, cost_model) = (self.topics.read(), self.config.cost_model);
        let elapsed = self.started.elapsed();
        Some(topic_obs::snapshot(topics.values(), elapsed, cost_model, &shard_anchors(self)))
    }

    /// Builds a topic, created or recovered, after `existing` others, with
    /// an observatory account when the observatory is on.
    fn new_topic(&self, name: &str, subs: Subscriptions, existing: usize) -> Arc<Topic> {
        Arc::new(Topic {
            name: name.to_owned(),
            shard: shard_of(name, self.config.shards),
            subs: RwLock::new(subs),
            ordinal: existing,
            account: self.config.topic_obs.map(|_| Account::default()),
            ..Topic::default()
        })
    }
}

/// A wildcard subscription waiting to be attached to future topics.
struct PatternSubscription {
    pattern: TopicPattern,
    subscription: Weak<Subscription>,
}

/// A JMS-style publish/subscribe message broker.
///
/// # Examples
///
/// ```
/// use rjms_broker::{Broker, BrokerConfig, Filter, Message};
///
/// # fn main() -> Result<(), rjms_broker::Error> {
/// let broker = Broker::start(BrokerConfig::default());
/// broker.create_topic("presence")?;
///
/// let subscriber = broker
///     .subscription("presence")
///     .filter(Filter::selector("user = 'alice'").unwrap())
///     .open()?;
/// let publisher = broker.publisher("presence")?;
/// publisher.publish(Message::builder().property("user", "alice").build())?;
///
/// let received = subscriber.receive_timeout(std::time::Duration::from_secs(1));
/// assert!(received.is_some());
/// broker.shutdown();
/// # Ok(())
/// # }
/// ```
pub struct Broker {
    pub(crate) inner: Arc<BrokerInner>,
    /// One bounded publish queue per dispatcher shard; a topic's messages
    /// always enter `publish_txs[topic.shard]`.
    publish_txs: Vec<Sender<DispatchItem>>,
    /// The dispatcher threads, one per shard; joined on shutdown.
    dispatchers: Vec<JoinHandle<()>>,
}

impl fmt::Debug for Broker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Broker")
            .field("topics", &self.topic_names())
            .field("stopped", &self.inner.stopped.load(Ordering::Relaxed))
            .finish()
    }
}

impl Broker {
    /// Starts a broker with the given configuration; spawns the dispatcher
    /// thread.
    ///
    /// With [`BrokerConfig::persistence`] set, the write-ahead journal is
    /// recovered on the calling thread, in one pass that reads every
    /// segment once, checks it and cuts a torn tail off the active segment
    /// back to the last whole frame: topics and durable subscriptions are
    /// re-created from the records and messages published but not yet
    /// checkpointed as delivered go back into each durable subscription's
    /// retained backlog, ready for re-delivery on the next connect.
    ///
    /// # Panics
    ///
    /// Panics if the journal cannot be recovered (I/O failure, or a corrupt
    /// sealed segment), or if a checksummed record does not decode — a
    /// broker that cannot read its write-ahead log must not silently start
    /// empty.
    pub fn start(mut config: BrokerConfig) -> Broker {
        // Defensive: the builder rejects zero, but the fields are public.
        let shards = config.shards.max(1);
        config.shards = shards;
        // None of these runs without metrics, so they enable the default
        // set implicitly: tracing tail-samples against the live sojourn
        // histogram, the flow controller re-calibrates against the waiting
        // and service histograms, and the topic observatory regresses over
        // the dispatcher's per-message service timings.
        if config.trace.is_some() || config.flow.is_some() || config.topic_obs.is_some() {
            config.metrics.get_or_insert_with(MetricsConfig::default);
        }
        let stats = Arc::new(BrokerStats::new());
        let live_flags = LiveFlags::default();
        let mut recovered = Vec::new(); // in name order
        let journal = config.persistence.as_ref().map(|persistence| {
            let journal;
            (journal, recovered) = recover_topics(persistence.journal.clone(), &live_flags);
            Mutex::new(journal)
        });
        let topics = Arc::new(TopicTable::default());
        let metrics = config.metrics.map(|_| BrokerMetrics::new(shards));
        if let Some(registry) = metrics.as_ref().map(|m| &m.registry) {
            let table = Arc::clone(&topics);
            registry.register_source(move |snapshot| topic_series(&table, snapshot));
            if let Some(journal) = &journal {
                // The journal's always-on latency instruments surface in the
                // broker's registry under the `journal.*` names.
                let journal = journal.lock();
                let (append, fsync) = (journal.append_latency(), journal.fsync_latency());
                registry.register_source(move |snapshot| {
                    snapshot.histograms.insert("journal.append_ns".to_owned(), append.snapshot());
                    snapshot.histograms.insert("journal.fsync_ns".to_owned(), fsync.snapshot());
                });
            }
        }

        let tracer = config.trace.map(|_| Arc::new(FlightRecorder::new(TRACE_EVENTS)));

        // One admission lane per shard: each dispatcher is one M/GI/1
        // server, budgeted from its own measurement.
        // A lane's seed, if any, is the cost model's cheapest delivered
        // message (`n_fltr = 0`, `R = 1`): no less than the spun model serves.
        let seed = config.cost_model.map(|params| {
            ServerModel::new(params, 0).service_time(ReplicationModel::deterministic(1.0))
        });
        let flow = config.flow.map(|f| Arc::new(FlowGate::new(f, shards, seed)));
        if let (Some(gate), Some(metrics)) = (&flow, &metrics) {
            gate.bind_registry(&metrics.registry);
        }

        let mut publish_txs = Vec::with_capacity(shards);
        let mut publish_rxs = Vec::with_capacity(shards);
        for _ in 0..shards {
            let (tx, rx) = bounded(config.publish_queue_capacity);
            publish_txs.push(tx);
            publish_rxs.push(rx);
        }
        let inner = Arc::new(BrokerInner {
            config,
            stats,
            started: Instant::now(),
            topics,
            patterns: RwLock::new(Vec::new()),
            next_subscription_id: AtomicU64::new(1),
            live_flags,
            stopped: AtomicBool::new(false),
            journal,
            metrics,
            tracer,
            flow,
            next_producer_id: AtomicU64::new(1),
        });
        let mut topics = inner.topics.write();
        for (name, subs) in recovered {
            let topic = inner.new_topic(&name, subs, topics.len());
            topics.insert(name, topic);
        }
        drop(topics);
        let dispatchers = publish_rxs
            .into_iter()
            .enumerate()
            .map(|(shard, publish_rx)| {
                let dispatcher_inner = Arc::clone(&inner);
                // Keep the historical thread name for the single-dispatcher
                // broker; sharded dispatchers are numbered, inside the 15
                // bytes Linux keeps of a name up to shard 99 999.
                let name = if shards == 1 {
                    "rjms-dispatcher".to_owned()
                } else {
                    format!("rjms-disp-{shard}")
                };
                // The probe is chosen here, once per thread: the no-op
                // probe unless the broker holds live instruments.
                std::thread::Builder::new()
                    .name(name)
                    .spawn(move || {
                        match Telemetry::new(&dispatcher_inner, shard, STAGE_SAMPLE_EVERY, Tsc) {
                            Some(probe) => {
                                dispatch::run(&dispatcher_inner, shard, &publish_rx, probe)
                            }
                            None => dispatch::run(&dispatcher_inner, shard, &publish_rx, NoProbe),
                        }
                    })
                    .expect("failed to spawn dispatcher thread")
            })
            .collect();
        Broker { inner, publish_txs, dispatchers }
    }

    /// Creates a topic.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TopicExists`] for duplicates,
    /// [`Error::InvalidTopicName`] for empty/control-character names, and
    /// [`Error::Stopped`] after shutdown.
    pub fn create_topic(&self, name: &str) -> Result<(), Error> {
        self.ensure_running()?;
        if name.is_empty() || name.chars().any(|c| c.is_control()) {
            return Err(Error::InvalidTopicName { topic: name.to_owned() });
        }
        let mut topics = self.inner.topics.write();
        if topics.contains_key(name) {
            return Err(Error::TopicExists { topic: name.to_owned() });
        }
        let topic = self.inner.new_topic(name, Subscriptions::default(), topics.len());
        // Attach live wildcard subscriptions that match the new topic,
        // pruning dead pattern entries on the way.
        {
            let mut patterns = self.inner.patterns.write();
            patterns.retain(|p| match p.subscription.upgrade() {
                Some(sub) if sub.active.is_set() => {
                    if p.pattern.matches(name) {
                        topic.subs.write().add(sub);
                    }
                    true
                }
                _ => false,
            });
        }
        // Logged while holding the topics lock so the TopicCreated record
        // precedes any Publish record for this topic in journal order.
        self.inner.append_record(|out| {
            JournalRecord::TopicCreated { topic: name.to_owned() }.encode_into(out);
        });
        topics.insert(name.to_owned(), topic);
        Ok(())
    }

    /// The names of all topics, sorted.
    pub fn topic_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.inner.topics.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// The number of live subscriptions on a topic (0 for unknown topics).
    pub fn subscription_count(&self, topic: &str) -> usize {
        match self.inner.topics.read().get(topic) {
            None => 0,
            Some(t) => t.subs.read().live_plain(),
        }
    }

    /// Creates a publisher handle for a topic.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TopicNotFound`] for unknown topics and
    /// [`Error::Stopped`] after shutdown.
    pub fn publisher(&self, topic: &str) -> Result<Publisher, Error> {
        self.ensure_running()?;
        let topic = self.lookup(topic)?;
        // Bind the handle to the topic's own shard queue: routing is
        // resolved once here, not per publish.
        let publish_tx = self.publish_txs[topic.shard].clone();
        Ok(Publisher {
            shard: topic.shard,
            topic,
            publish_tx,
            inner: Arc::clone(&self.inner),
            producer_id: self.inner.next_producer_id.fetch_add(1, Ordering::Relaxed),
        })
    }

    /// Starts building a subscription on a topic or topic pattern.
    ///
    /// `target` is either a literal topic name (`orders.eu`) or a
    /// hierarchical wildcard pattern (`orders.*`, `sensors.>`); wildcards
    /// subscribe to every matching topic, current and future. Configure the
    /// subscription with [`SubscriptionBuilder::filter`] and
    /// [`SubscriptionBuilder::durable`], then call
    /// [`SubscriptionBuilder::open`]. Every subscription's queue holds
    /// [`crate::BrokerConfig::subscriber_queue_capacity`] messages.
    ///
    /// # Examples
    ///
    /// ```
    /// use rjms_broker::{Broker, BrokerConfig, Filter};
    ///
    /// # fn main() -> Result<(), rjms_broker::Error> {
    /// let broker = Broker::start(BrokerConfig::default());
    /// broker.create_topic("orders.eu")?;
    ///
    /// // Non-durable subscription on one topic:
    /// let plain = broker.subscription("orders.eu").open()?;
    /// // Filtered wildcard subscription over present and future topics:
    /// let wild = broker
    ///     .subscription("orders.*")
    ///     .filter(Filter::selector("amount > 100").unwrap())
    ///     .open()?;
    /// // Durable subscription:
    /// let durable = broker.subscription("orders.eu").durable("audit").open()?;
    /// # drop((plain, wild, durable));
    /// # Ok(())
    /// # }
    /// ```
    pub fn subscription(&self, target: &str) -> SubscriptionBuilder<'_> {
        SubscriptionBuilder {
            broker: self,
            target: target.to_owned(),
            filter: Filter::None,
            durable: None,
            wake: None,
        }
    }

    /// Opens a non-durable subscription (the paper's *non-durable* mode:
    /// messages are only forwarded to subscribers that are presently
    /// online), removed again when the returned [`Subscriber`] is dropped.
    /// Without a `pattern` the target is one literal topic, which must
    /// exist; with one, every topic — current *and future* — whose name
    /// matches the hierarchical [`TopicPattern`] (`orders.*`, `sensors.>`)
    /// feeds the one subscriber, and matching no topic yet is not an error.
    fn open_plain(
        &self,
        target: &str,
        pattern: Option<TopicPattern>,
        filter: Filter,
        queue: SubscriberQueue,
        rx: Receiver<Arc<Message>>,
    ) -> Result<Subscriber, Error> {
        self.ensure_running()?;
        let active = self.inner.live_flags.next();
        let sink = Sink::Plain(queue);
        let sub = Arc::new(Subscription { filter, sink, active: active.clone() });
        let pattern_registration = match pattern {
            None => {
                self.lookup(target)?.subs.write().add(sub);
                None
            }
            Some(pattern) => {
                for (name, topic) in self.inner.topics.read().iter() {
                    if pattern.matches(name) {
                        topic.subs.write().add(Arc::clone(&sub));
                    }
                }
                // Register for topics created later. The topic lists only
                // hold clones for *currently existing* matching topics, so
                // the handle itself keeps the registration alive: a pattern
                // matching no topic yet still catches the first one created.
                let subscription = Arc::downgrade(&sub);
                self.inner.patterns.write().push(PatternSubscription { pattern, subscription });
                Some(sub)
            }
        };
        Ok(Subscriber {
            id: self.next_subscription_id(),
            topic_name: target.to_owned(),
            receiver: rx,
            active,
            durable: None,
            pending: Mutex::new(VecDeque::new()),
            pattern_registration,
        })
    }

    /// Connects to (or creates) a durable subscription.
    ///
    /// While no consumer is connected, matching messages are retained (up
    /// to 65 536, the oldest dropped)
    /// and delivered ahead of live traffic on the next connect — the
    /// paper's *durable mode*. Reconnecting with a *different* filter
    /// discards the retained backlog, matching JMS's change-of-selector
    /// semantics. Retained messages whose TTL has elapsed by the time of
    /// reconnection are discarded, not delivered.
    fn open_durable(
        &self,
        topic: &str,
        name: &str,
        filter: Filter,
        queue: SubscriberQueue,
        rx: Receiver<Arc<Message>>,
    ) -> Result<Subscriber, Error> {
        self.ensure_running()?;
        let topic = self.lookup(topic)?;
        let (state, pending) = DurableState::connect(&self.inner, &topic, name, filter, queue)?;
        Ok(Subscriber {
            id: self.next_subscription_id(),
            topic_name: topic.name.clone(),
            receiver: rx,
            active: self.inner.live_flags.next(),
            durable: Some(state),
            pending: Mutex::new(pending),
            pattern_registration: None,
        })
    }

    /// Permanently removes a durable subscription and its retained
    /// messages.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DurableStillConnected`] while a consumer is
    /// connected and [`Error::DurableNotFound`] for unknown names.
    pub fn unsubscribe_durable(&self, topic: &str, name: &str) -> Result<(), Error> {
        self.ensure_running()?;
        let topic = self.lookup(topic)?;
        let mut subs = topic.subs.write();
        let Some((durable, _)) = subs.durable(name) else {
            return Err(Error::DurableNotFound {
                topic: topic.name.clone(),
                name: name.to_owned(),
            });
        };
        if durable.connection.lock().queue.is_some() {
            return Err(Error::DurableStillConnected {
                topic: topic.name.clone(),
                name: name.to_owned(),
            });
        }
        subs.remove_durable(name);
        self.inner.append_record(|out| {
            JournalRecord::DurableUnsubscribed { topic: topic.name.clone(), name: name.to_owned() }
                .encode_into(out);
        });
        Ok(())
    }

    /// The names of all durable subscriptions on a topic, sorted.
    pub fn durable_names(&self, topic: &str) -> Vec<String> {
        match self.inner.topics.read().get(topic) {
            None => Vec::new(),
            Some(t) => {
                let mut names: Vec<String> =
                    t.subs.read().durables().map(|(d, _)| d.name.clone()).collect();
                names.sort();
                names
            }
        }
    }

    /// Whether a consumer is currently connected to the named durable
    /// subscription (`false` for unknown names).
    pub fn durable_connected(&self, topic: &str, name: &str) -> bool {
        self.with_durable(topic, name, |d| d.connection.lock().queue.is_some()).unwrap_or(false)
    }

    /// The number of messages currently retained for a disconnected
    /// durable subscription (0 for unknown names).
    pub fn retained_count(&self, topic: &str, name: &str) -> usize {
        self.with_durable(topic, name, |d| d.retained.lock().len()).unwrap_or(0)
    }

    /// Reads the named durable subscription's state; `None` when unknown.
    fn with_durable<T>(&self, topic: &str, name: &str, read: fn(&DurableState) -> T) -> Option<T> {
        let topic = self.inner.topics.read().get(topic).cloned()?;
        let subs = topic.subs.read();
        subs.durable(name).map(|(d, _)| read(d))
    }

    /// A typed point-in-time snapshot of the whole broker: message
    /// counters, subscription counts, journal state and per-topic
    /// statistics.
    ///
    /// # Examples
    ///
    /// ```
    /// use rjms_broker::{Broker, BrokerConfig};
    ///
    /// # fn main() -> Result<(), rjms_broker::Error> {
    /// let broker = Broker::start(BrokerConfig::default());
    /// broker.create_topic("t")?;
    /// let snap = broker.snapshot();
    /// assert_eq!(snap.messages.received, 0);
    /// assert_eq!(snap.subscriptions.topics, 1);
    /// assert!(snap.journal.is_none()); // no persistence configured
    /// assert!(snap.per_topic.contains_key("t"));
    /// # Ok(())
    /// # }
    /// ```
    pub fn snapshot(&self) -> BrokerSnapshot {
        snapshot_of(&self.inner)
    }

    /// An owned, cloneable observer for reading [`Broker::snapshot`] from
    /// another thread (e.g. a metrics exporter) without borrowing the
    /// broker handle. Holding one does not delay the broker's shutdown.
    pub fn observer(&self) -> BrokerObserver {
        BrokerObserver { inner: Arc::clone(&self.inner) }
    }

    /// Per-shard model assessments: each dispatcher shard's measured
    /// operating point compared against Eq. 1 + M/GI/1 evaluated for that
    /// shard alone (see [`ShardReport`]).
    ///
    /// Requires metrics; returns an empty vector otherwise. Each shard is
    /// judged against its [`CostAnchor`](crate::CostAnchor):
    /// [`BrokerConfig::cost_model`] when set, else the shard's own Eq. 1
    /// fit (with the measured `c_var[B]`) past the regression's floor. With
    /// `shards == 1` the single report covers the whole broker.
    pub fn shard_reports(&self) -> Vec<ShardReport> {
        shard_reports_of(&self.inner)
    }

    /// The broker's metrics registry, when [`BrokerConfig::metrics`] is
    /// set; `None` otherwise. Instrument names are documented in
    /// [`crate::metrics`].
    pub fn metrics(&self) -> Option<MetricsRegistry> {
        self.inner.metrics.as_ref().map(|m| m.registry.clone())
    }

    /// The broker's span-event flight recorder, when
    /// [`BrokerConfig::trace`] is set; `None` otherwise. The net layer
    /// appends wire-flush events to it; exposition layers snapshot it.
    pub fn tracer(&self) -> Option<Arc<FlightRecorder>> {
        self.inner.tracer.clone()
    }

    /// The broker's admission gate, when [`BrokerConfig::flow`] is set;
    /// `None` otherwise. Exposes the live calibration via
    /// [`FlowGate::snapshot`] for exposition layers (the `/flow` HTTP
    /// endpoint, `rjms-top`).
    pub fn flow(&self) -> Option<Arc<FlowGate>> {
        self.inner.flow.clone()
    }

    /// A point-in-time snapshot of the per-topic workload observatory,
    /// when [`BrokerConfig::topic_obs`] is set; `None` otherwise. Carries
    /// per-topic arrival rates, fitted Eq. 1 cost parameters and
    /// drift verdicts (see [`TopicObservatorySnapshot`]).
    pub fn topic_observatory(&self) -> Option<TopicObservatorySnapshot> {
        self.inner.topic_observatory()
    }

    /// Stops the broker: publishers fail fast, the dispatcher drains the
    /// publish queue and exits, and this call joins it.
    ///
    /// Queued messages are still *delivered* during the drain (the paper's
    /// persistent mode: no server-side loss). Consequently, under
    /// [`OverflowPolicy::Block`] this call waits for slow subscribers —
    /// drop subscribers that will never drain before shutting down, or use
    /// [`OverflowPolicy::DropNew`] for lossy teardown.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        // ORD: SeqCst swap — shutdown runs once per broker lifetime, so
        // the strongest ordering is free and makes the stop flag a clean
        // happens-before anchor for every dispatcher's load.
        if self.inner.stopped.swap(true, Ordering::SeqCst) {
            return;
        }
        // Each dispatcher drains its queued items and exits on Shutdown.
        for tx in &self.publish_txs {
            let _ = tx.send(DispatchItem::Shutdown);
        }
        for handle in self.dispatchers.drain(..) {
            let _ = handle.join();
        }
    }

    fn next_subscription_id(&self) -> SubscriptionId {
        SubscriptionId(self.inner.next_subscription_id.fetch_add(1, Ordering::Relaxed))
    }

    fn ensure_running(&self) -> Result<(), Error> {
        if self.inner.stopped.load(Ordering::Relaxed) {
            Err(Error::Stopped)
        } else {
            Ok(())
        }
    }

    pub(crate) fn lookup(&self, name: &str) -> Result<Arc<Topic>, Error> {
        self.inner
            .topics
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| Error::TopicNotFound { topic: name.to_owned() })
    }
}

impl Drop for Broker {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

/// An owned window onto a running broker's counters, detached from the
/// [`Broker`] handle's lifetime; created by [`Broker::observer`].
///
/// Snapshots taken after the broker shuts down simply stop changing.
#[derive(Clone)]
pub struct BrokerObserver {
    inner: Arc<BrokerInner>,
}

impl fmt::Debug for BrokerObserver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BrokerObserver").finish_non_exhaustive()
    }
}

impl BrokerObserver {
    /// A typed snapshot of the broker's counters (see [`Broker::snapshot`]).
    pub fn snapshot(&self) -> BrokerSnapshot {
        snapshot_of(&self.inner)
    }

    /// Per-shard model assessments (see [`Broker::shard_reports`]).
    pub fn shard_reports(&self) -> Vec<ShardReport> {
        shard_reports_of(&self.inner)
    }

    /// A per-topic observatory snapshot (see [`Broker::topic_observatory`]).
    pub fn topic_observatory(&self) -> Option<TopicObservatorySnapshot> {
        self.inner.topic_observatory()
    }

    /// The analytic model of each dispatcher shard, at that shard's
    /// measured operating point (mean filter evaluations and replication
    /// grade per message so far; an idle shard's are 0): the models the
    /// shard reports judge with, for the SLO engine
    /// (`ObsCore::set_monitors`). One entry per shard, each `None` without
    /// [`BrokerConfig::cost_model`]: a shard's own fit anchors no alert.
    pub fn shard_monitors(&self) -> Vec<Option<ModelMonitor>> {
        shard_monitors_of(&self.inner)
    }

    /// The model check as text: per shard the verdict and the
    /// measured-vs-predicted table, plus the flight recorder's slowest
    /// chains after a drift verdict. Empty when there is nothing to assess.
    pub fn model_text(&self) -> String {
        model_text(&shard_reports_of(&self.inner), self.inner.tracer.as_deref())
    }
}

/// Configures and opens one subscription; created by
/// [`Broker::subscription`].
pub struct SubscriptionBuilder<'a> {
    broker: &'a Broker,
    target: String,
    filter: Filter,
    durable: Option<String>,
    wake: Option<Wake>,
}

impl fmt::Debug for SubscriptionBuilder<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SubscriptionBuilder").field("target", &self.target).finish_non_exhaustive()
    }
}

impl SubscriptionBuilder<'_> {
    /// Sets the message filter (default: [`Filter::None`], every message
    /// matches).
    pub fn filter(mut self, filter: Filter) -> Self {
        self.filter = filter;
        self
    }

    /// Makes this a *durable* subscription under the given name: matching
    /// messages are retained while no consumer is connected. Durable
    /// subscriptions require a literal topic, not a wildcard pattern.
    pub fn durable(mut self, name: &str) -> Self {
        self.durable = Some(name.to_owned());
        self
    }

    /// Has the dispatcher call `wake` after each copy it queues for this
    /// subscription: for a consumer that serves several queues and so polls
    /// them with [`Subscriber::try_receive`] when rung (a connection's
    /// writer). It runs on the dispatcher's thread: cheap, never blocking.
    pub fn wake(mut self, wake: Wake) -> Self {
        self.wake = Some(wake);
        self
    }

    /// Opens the subscription and returns the consuming [`Subscriber`].
    ///
    /// A `target` that parses as a wildcard [`TopicPattern`] subscribes to
    /// every matching topic, current and future; anything else is treated
    /// as a literal topic name, which must exist.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TopicNotFound`] for unknown literal topics,
    /// [`Error::DurablePattern`] for a durable subscription on a wildcard
    /// pattern, [`Error::DurableNameInUse`] if a consumer is already
    /// connected under the durable name, and [`Error::Stopped`] after
    /// shutdown.
    pub fn open(self) -> Result<Subscriber, Error> {
        let SubscriptionBuilder { broker, target, filter, durable, wake } = self;
        let (sender, rx) = bounded(broker.inner.config.subscriber_queue_capacity);
        let queue = SubscriberQueue { sender, wake };
        // A target without a wildcard character is a literal topic (or not
        // a valid pattern at all): no need to parse it to find that out.
        let pattern = if target.contains(['*', '>']) {
            target.parse::<TopicPattern>().ok().filter(|p| !p.is_literal())
        } else {
            None
        };
        match (durable, pattern) {
            (Some(_), Some(pattern)) => Err(Error::DurablePattern { pattern: pattern.to_string() }),
            (Some(name), None) => broker.open_durable(&target, &name, filter, queue, rx),
            (None, pattern) => broker.open_plain(&target, pattern, filter, queue, rx),
        }
    }
}

/// A handle for publishing messages to one topic.
///
/// Cloneable; each clone shares the same bounded publish queue, so all
/// publishers experience the broker's push-back together.
#[derive(Clone)]
pub struct Publisher {
    topic: Arc<Topic>,
    publish_tx: Sender<DispatchItem>,
    inner: Arc<BrokerInner>,
    /// Identity under per-producer flow control. Each
    /// [`Broker::publisher`] call gets a fresh id; clones share it (they
    /// share the producer's rate budget).
    producer_id: u64,
    /// `topic.shard`, the admission lane: a copy, as a publish that reads
    /// the `Topic` shares cache lines with its dispatcher's counters.
    shard: usize,
}

impl fmt::Debug for Publisher {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Publisher").field("topic", &self.topic.name).finish()
    }
}

impl Publisher {
    /// The topic this publisher sends to.
    pub fn topic(&self) -> &str {
        &self.topic.name
    }

    /// The queue item for a new message, stamped with its publish-queue
    /// entry time — only with metrics enabled, so the disabled path stays
    /// free of clock reads.
    fn item(&self, message: Message) -> DispatchItem {
        DispatchItem::Publish {
            topic: Arc::clone(&self.topic),
            message: Arc::new(message),
            enqueued_at: self.inner.metrics.as_ref().map(|_| rjms_metrics::clock::now()),
        }
    }

    /// With persistence on, refuses a message whose journal record would
    /// not fit in a journal frame (the dispatcher could not write it). Then
    /// runs the admission gate (no-op when flow control is off),
    /// converting shed/deferred outcomes into typed errors. The gate counts
    /// its own decisions.
    fn admit(&self, message: &Message) -> Result<(), Error> {
        let durable = self.inner.journal.is_some();
        let limit = rjms_journal::frame::MAX_PAYLOAD_LEN as usize;
        // `approximate_size` over-estimates the record without reading a
        // string; only a message it puts past the limit is counted exactly.
        if durable && message.approximate_size() + self.topic.name.len() > limit {
            let size = crate::persist::publish_record_len(&self.topic.name, message);
            if size > limit {
                return Err(Error::RecordTooLarge { size, limit });
            }
        }
        let Some(gate) = &self.inner.flow else { return Ok(()) };
        // With persistence on, every publish is durable (the paper's
        // persistent mode) and pins to the top admission class.
        match gate.admit(self.shard, self.producer_id, message.priority().level(), durable) {
            AdmissionOutcome::Granted => Ok(()),
            AdmissionOutcome::Deferred { class, retry_after } => Err(Error::PublishDeferred {
                class,
                retry_after_ms: retry_after.as_millis() as u64,
            }),
            AdmissionOutcome::Shed { class } => Err(Error::PublishShed { class }),
        }
    }

    /// Publishes a message, blocking while the broker's publish queue is
    /// full (push-back).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Stopped`] once the broker has been shut down.
    /// With [`BrokerConfig::persistence`] set, returns
    /// [`Error::RecordTooLarge`] for a message whose journal record exceeds
    /// the journal's frame limit. With [`BrokerConfig::flow`] set, returns
    /// [`Error::PublishShed`] or [`Error::PublishDeferred`] when admission
    /// control rejects the message. Either refusal comes before the
    /// message reaches the publish queue.
    pub fn publish(&self, message: Message) -> Result<(), Error> {
        if self.inner.stopped.load(Ordering::Relaxed) {
            return Err(Error::Stopped);
        }
        self.admit(&message)?;
        self.publish_tx.send(self.item(message)).map_err(|_| Error::Stopped)
    }

    /// Publishes without blocking; hands the message back if the publish
    /// queue is currently full.
    ///
    /// # Errors
    ///
    /// [`TryPublishError::Full`] (carrying the rejected message) when the
    /// queue is full, [`TryPublishError::Denied`] (also carrying it) when
    /// [`Publisher::publish`] would refuse it, [`TryPublishError::Stopped`]
    /// when the broker has been shut down.
    #[allow(clippy::result_large_err)] // the Err hands the message back (push-back)
    pub fn try_publish(&self, message: Message) -> Result<(), TryPublishError> {
        if self.inner.stopped.load(Ordering::Relaxed) {
            return Err(TryPublishError::Stopped);
        }
        if let Err(reason) = self.admit(&message) {
            return Err(TryPublishError::Denied { message, reason });
        }
        self.publish_tx.try_send(self.item(message)).map_err(|e| match e {
            TrySendError::Full(DispatchItem::Publish { message, .. }) => {
                // Hand the message back; it was never shared.
                TryPublishError::Full(Arc::try_unwrap(message).expect("unshared message"))
            }
            _ => TryPublishError::Stopped,
        })
    }
}

/// A handle for consuming messages from one subscription.
///
/// Dropping the subscriber cancels the subscription (non-durable semantics).
pub struct Subscriber {
    id: SubscriptionId,
    topic_name: String,
    receiver: Receiver<Arc<Message>>,
    active: LiveFlag,
    /// Durable-subscription state, if this is a durable consumer.
    durable: Option<Arc<DurableState>>,
    /// Retained backlog moved in at (durable) connect time; consumed before
    /// live messages. Interior mutability keeps `receive(&self)` ergonomic
    /// (matching the underlying channel receiver).
    pending: Mutex<VecDeque<Arc<Message>>>,
    /// For pattern subscriptions: the strong reference that keeps the
    /// registration alive while no matching topic exists yet (the broker's
    /// pattern list only holds a `Weak`). Held for its drop behaviour.
    #[allow(dead_code)]
    pattern_registration: Option<Arc<Subscription>>,
}

impl fmt::Debug for Subscriber {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Subscriber").field("id", &self.id).field("topic", &self.topic_name).finish()
    }
}

impl Subscriber {
    /// This subscription's id.
    pub fn id(&self) -> SubscriptionId {
        self.id
    }

    /// The topic subscribed to.
    pub fn topic(&self) -> &str {
        &self.topic_name
    }

    /// Whether this is a durable subscription consumer.
    pub fn is_durable(&self) -> bool {
        self.durable.is_some()
    }

    /// The durable subscription name, if this is a durable consumer.
    pub fn durable_name(&self) -> Option<&str> {
        self.durable.as_ref().map(|d| d.name.as_str())
    }

    /// Blocking receive. For durable consumers, the retained backlog is
    /// delivered before live messages.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Disconnected`] when the broker has shut down and
    /// the queue is drained.
    pub fn receive(&self) -> Result<Arc<Message>, Error> {
        if let Some(m) = self.pending.lock().pop_front() {
            return Ok(m);
        }
        self.receiver.recv().map_err(|_| Error::Disconnected)
    }

    /// Non-blocking receive (retained backlog first for durable consumers).
    pub fn try_receive(&self) -> Option<Arc<Message>> {
        if let Some(m) = self.pending.lock().pop_front() {
            return Some(m);
        }
        self.receiver.try_recv().ok()
    }

    /// Receive with a timeout; `None` on timeout or closed queue.
    pub fn receive_timeout(&self, timeout: Duration) -> Option<Arc<Message>> {
        if let Some(m) = self.pending.lock().pop_front() {
            return Some(m);
        }
        self.receiver.recv_timeout(timeout).ok()
    }

    /// Returns an unprocessed message to the *front* of this subscriber's
    /// local buffer, so it is the next one received (or, for a durable
    /// subscriber that disconnects, the first one re-retained).
    ///
    /// Intended for consumers that pulled a message but could not process
    /// it — e.g. a connection's writer whose socket died mid-delivery.
    pub fn return_message(&self, message: Arc<Message>) {
        self.pending.lock().push_front(message);
    }

    /// Number of messages currently buffered for this subscriber
    /// (including any retained backlog).
    pub fn queued(&self) -> usize {
        self.pending.lock().len() + self.receiver.len()
    }

    /// The retained backlog, then what the queue held when this call took its
    /// one lock of it: a snapshot, never more than the queue's capacity.
    pub fn drain(&self) -> Vec<Arc<Message>> {
        let mut out: Vec<Arc<Message>> = self.pending.lock().drain(..).collect();
        out.extend(self.receiver.try_iter());
        out
    }
}

impl Drop for Subscriber {
    fn drop(&mut self) {
        // Mark inactive; the dispatcher prunes the topic before its next
        // message.
        self.active.clear();
        if let Some(durable) = &self.durable {
            durable.disconnect(self.pending.lock().drain(..), &self.receiver);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MetricsConfig, OverflowPolicy};
    use crate::message::Priority;
    use crate::CostAnchor;

    fn broker() -> Broker {
        let b = Broker::start(BrokerConfig::default());
        b.create_topic("t").unwrap();
        b
    }

    /// Polls the broker snapshot until `done` passes or ~1 s elapses.
    fn wait_for(b: &Broker, done: impl Fn(&BrokerSnapshot) -> bool) -> BrokerSnapshot {
        for _ in 0..200 {
            let snap = b.snapshot();
            if done(&snap) {
                return snap;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        b.snapshot()
    }

    #[test]
    fn unfiltered_subscriber_gets_all_messages() {
        let b = broker();
        let sub = b.subscription("t").open().unwrap();
        let p = b.publisher("t").unwrap();
        for i in 0..10 {
            p.publish(Message::builder().property("i", i as i64).build()).unwrap();
        }
        let mut got = Vec::new();
        for _ in 0..10 {
            got.push(sub.receive_timeout(Duration::from_secs(2)).expect("message"));
        }
        assert_eq!(got.len(), 10);
        // Per-publisher FIFO order is preserved.
        for (i, m) in got.iter().enumerate() {
            assert_eq!(m.property("i"), Some(&(i as i64).into()));
        }
        b.shutdown();
    }

    #[test]
    fn filters_route_messages() {
        let b = broker();
        let red =
            b.subscription("t").filter(Filter::selector("color = 'red'").unwrap()).open().unwrap();
        let blue =
            b.subscription("t").filter(Filter::selector("color = 'blue'").unwrap()).open().unwrap();
        let p = b.publisher("t").unwrap();
        p.publish(Message::builder().property("color", "red").build()).unwrap();
        p.publish(Message::builder().property("color", "blue").build()).unwrap();
        p.publish(Message::builder().property("color", "green").build()).unwrap();

        let r = red.receive_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(r.property("color"), Some(&"red".into()));
        let bl = blue.receive_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(bl.property("color"), Some(&"blue".into()));
        // The green message matched nobody.
        assert!(red.receive_timeout(Duration::from_millis(50)).is_none());
        assert!(blue.receive_timeout(Duration::from_millis(50)).is_none());
        b.shutdown();
    }

    #[test]
    fn replication_to_matching_subscribers() {
        let b = broker();
        let subs: Vec<_> = (0..5).map(|_| b.subscription("t").open().unwrap()).collect();
        let p = b.publisher("t").unwrap();
        p.publish(Message::builder().build()).unwrap();
        for s in &subs {
            assert!(s.receive_timeout(Duration::from_secs(2)).is_some());
        }
        // Stats: 1 received, 5 dispatched → replication grade 5.
        let snap = wait_for(&b, |s| s.messages.dispatched == 5);
        assert_eq!(snap.messages.received, 1);
        assert_eq!(snap.messages.dispatched, 5);
        assert_eq!(snap.messages.replication_grade(), Some(5.0));
        assert_eq!(snap.per_topic["t"].dispatched, 5);
        b.shutdown();
    }

    #[test]
    fn topics_isolate_messages() {
        let b = broker();
        b.create_topic("other").unwrap();
        let t_sub = b.subscription("t").open().unwrap();
        let o_sub = b.subscription("other").open().unwrap();
        let p = b.publisher("t").unwrap();
        p.publish(Message::builder().build()).unwrap();
        assert!(t_sub.receive_timeout(Duration::from_secs(2)).is_some());
        assert!(o_sub.receive_timeout(Duration::from_millis(50)).is_none());
        b.shutdown();
    }

    #[test]
    fn unknown_topic_errors() {
        let b = broker();
        assert!(matches!(b.publisher("nope"), Err(Error::TopicNotFound { .. })));
        assert!(matches!(b.subscription("nope").open(), Err(Error::TopicNotFound { .. })));
        b.shutdown();
    }

    #[test]
    fn duplicate_and_invalid_topics_rejected() {
        let b = broker();
        assert!(matches!(b.create_topic("t"), Err(Error::TopicExists { .. })));
        assert!(matches!(b.create_topic(""), Err(Error::InvalidTopicName { .. })));
        b.shutdown();
    }

    #[test]
    fn builder_routes_wildcards_to_pattern_subscriptions() {
        let b = broker();
        let wild = b.subscription("sensors.*").open().unwrap();
        // The pattern topic need not exist yet; creating a match later
        // feeds the same subscriber.
        b.create_topic("sensors.kitchen").unwrap();
        let p = b.publisher("sensors.kitchen").unwrap();
        p.publish(Message::builder().build()).unwrap();
        assert!(wild.receive_timeout(Duration::from_secs(2)).is_some());
        b.shutdown();
    }

    #[test]
    fn builder_rejects_durable_patterns() {
        let b = broker();
        assert!(matches!(
            b.subscription("sensors.>").durable("audit").open(),
            Err(Error::DurablePattern { .. })
        ));
        b.shutdown();
    }

    #[test]
    fn builder_opens_durable_subscriptions() {
        let b = Broker::start(BrokerConfig::builder().subscriber_queue_capacity(8).build());
        b.create_topic("t").unwrap();
        let d = b.subscription("t").durable("audit").open().unwrap();
        assert!(d.is_durable());
        assert_eq!(d.durable_name(), Some("audit"));
        assert!(matches!(
            b.subscription("t").durable("audit").open(),
            Err(Error::DurableNameInUse { .. })
        ));
        b.shutdown();
    }

    #[test]
    fn dropping_subscriber_cancels_subscription() {
        let b = broker();
        let sub = b.subscription("t").open().unwrap();
        assert_eq!(b.subscription_count("t"), 1);
        drop(sub);
        assert_eq!(b.subscription_count("t"), 0);
        // Publishing after the drop reaches nobody but still counts received.
        let p = b.publisher("t").unwrap();
        p.publish(Message::builder().build()).unwrap();
        let snap = wait_for(&b, |s| s.messages.received == 1);
        assert_eq!(snap.messages.dispatched, 0);
        b.shutdown();
    }

    #[test]
    fn publish_after_shutdown_fails() {
        let b = broker();
        let p = b.publisher("t").unwrap();
        b.shutdown();
        assert!(matches!(p.publish(Message::builder().build()), Err(Error::Stopped)));
        assert!(matches!(p.try_publish(Message::builder().build()), Err(TryPublishError::Stopped)));
    }

    #[test]
    fn subscriber_receives_error_after_shutdown() {
        let b = broker();
        let sub = b.subscription("t").open().unwrap();
        let p = b.publisher("t").unwrap();
        p.publish(Message::builder().build()).unwrap();
        b.shutdown();
        // The queued message is still delivered, then the queue closes.
        assert!(sub.receive().is_ok());
        assert!(matches!(sub.receive(), Err(Error::Disconnected)));
    }

    /// A broker with topic `t` whose subscriber queues hold `capacity`.
    fn broker_with(capacity: usize, policy: OverflowPolicy) -> Broker {
        let config =
            BrokerConfig::builder().subscriber_queue_capacity(capacity).overflow_policy(policy);
        let b = Broker::start(config.build());
        b.create_topic("t").unwrap();
        b
    }

    #[test]
    fn drop_new_policy_drops_on_full_queue() {
        let b = broker_with(1, OverflowPolicy::DropNew);
        let sub = b.subscription("t").open().unwrap();
        let p = b.publisher("t").unwrap();
        for _ in 0..10 {
            p.publish(Message::builder().build()).unwrap();
        }
        let snap = wait_for(&b, |s| s.messages.received == 10);
        assert_eq!(snap.messages.received, 10);
        assert!(snap.messages.dropped > 0, "expected drops on a capacity-1 queue");
        assert_eq!(snap.messages.dispatched + snap.messages.dropped, 10);
        drop(sub);
        b.shutdown();
    }

    /// The dispatcher parks in `send` on a full queue of 4 and only `drain`
    /// frees it: a drain that did not wake it would stall the test.
    #[test]
    fn drain_wakes_a_dispatcher_blocked_on_a_full_queue() {
        let b = broker_with(4, OverflowPolicy::Block);
        let sub = b.subscription("t").open().unwrap();
        let p = b.publisher("t").unwrap();
        let publisher = std::thread::spawn(move || {
            (0..64i64).for_each(|i| p.publish(Message::builder().property("i", i).build()).unwrap())
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        while sub.queued() < 4 {
            assert!(Instant::now() < deadline, "the queue never filled");
            std::thread::yield_now();
        }
        let mut got = Vec::new();
        while got.len() < 64 {
            assert!(Instant::now() < deadline, "the dispatcher was never woken");
            got.extend(sub.drain().into_iter().map(|m| m.property("i").cloned()));
            std::thread::yield_now();
        }
        publisher.join().unwrap();
        assert_eq!(got, (0..64i64).map(|i| Some(i.into())).collect::<Vec<_>>());
        assert_eq!(b.snapshot().messages.dropped, 0);
        b.shutdown();
    }

    /// A drain is a snapshot of the queue, not a chase of the dispatcher
    /// refilling it: against a saturated dispatcher no call returns more
    /// than the capacity.
    #[test]
    fn drain_returns_at_most_the_queue_capacity() {
        let b = broker_with(8, OverflowPolicy::Block);
        let sub = b.subscription("t").open().unwrap();
        let p = b.publisher("t").unwrap();
        let publisher =
            std::thread::spawn(move || while p.publish(Message::builder().build()).is_ok() {});
        for _ in 0..1_000 {
            let taken = sub.drain().len();
            assert!(taken <= 8, "one drain returned {taken} from a queue of 8");
        }
        // Gone, the subscription no longer holds the dispatcher in `send`;
        // once the broker is stopped the publisher's next call fails.
        drop(sub);
        b.shutdown();
        publisher.join().unwrap();
    }

    #[test]
    fn try_publish_reports_full_queue() {
        // Tiny publish queue, no subscriber, dispatcher busy: fill it up.
        let b = Broker::start(
            BrokerConfig::builder()
                .publish_queue_capacity(1)
                .cost_model(rjms_core::CostParams::new(0.05, 0.0, 0.0))
                .build(),
        );
        b.create_topic("t").unwrap();
        let p = b.publisher("t").unwrap();
        // First publishes are absorbed; eventually the queue must report full
        // while the dispatcher spins 50 ms per message. The rejected message
        // comes back intact.
        let mut returned = None;
        for i in 0..64 {
            let m = Message::builder().property("i", i as i64).build();
            if let Err(TryPublishError::Full(m)) = p.try_publish(m) {
                returned = Some((i, m));
                break;
            }
        }
        let (i, m) = returned.expect("expected Full from try_publish");
        assert_eq!(m.property("i"), Some(&(i as i64).into()));
        b.shutdown();
    }

    #[test]
    fn correlation_id_filters_on_broker() {
        let b = broker();
        let sub =
            b.subscription("t").filter(Filter::correlation_id("[7;13]").unwrap()).open().unwrap();
        let p = b.publisher("t").unwrap();
        p.publish(Message::builder().correlation_id("#9").build()).unwrap();
        p.publish(Message::builder().correlation_id("#42").build()).unwrap();
        let got = sub.receive_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(got.correlation_id(), Some("#9"));
        assert!(sub.receive_timeout(Duration::from_millis(50)).is_none());
        b.shutdown();
    }

    #[test]
    fn filter_evaluation_counts_are_per_subscription() {
        let b = broker();
        let _subs: Vec<_> = (0..3)
            .map(|i| {
                b.subscription("t")
                    .filter(Filter::correlation_id(&format!("#{i}")).unwrap())
                    .open()
                    .unwrap()
            })
            .collect();
        let p = b.publisher("t").unwrap();
        p.publish(Message::builder().correlation_id("#0").build()).unwrap();
        // All 3 filters evaluated (brute force), 1 matched.
        let snap = wait_for(&b, |s| s.messages.filter_evaluations == 3);
        assert_eq!(snap.messages.filter_evaluations, 3);
        assert_eq!(snap.messages.dispatched, 1);
        b.shutdown();
    }

    #[test]
    fn multiple_publishers_fifo_per_publisher() {
        let b = broker();
        let sub = b.subscription("t").open().unwrap();
        let p1 = b.publisher("t").unwrap();
        let p2 = p1.clone();
        let h1 = std::thread::spawn(move || {
            for i in 0..50i64 {
                p1.publish(Message::builder().property("src", 1i64).property("seq", i).build())
                    .unwrap();
            }
        });
        let h2 = std::thread::spawn(move || {
            for i in 0..50i64 {
                p2.publish(Message::builder().property("src", 2i64).property("seq", i).build())
                    .unwrap();
            }
        });
        h1.join().unwrap();
        h2.join().unwrap();
        let mut last = [-1i64; 3];
        for _ in 0..100 {
            let m = sub.receive_timeout(Duration::from_secs(2)).expect("message");
            let src = match m.property("src") {
                Some(rjms_selector::Value::Int(s)) => *s as usize,
                other => panic!("bad src {other:?}"),
            };
            let seq = match m.property("seq") {
                Some(rjms_selector::Value::Int(s)) => *s,
                other => panic!("bad seq {other:?}"),
            };
            assert!(seq > last[src], "per-publisher order violated");
            last[src] = seq;
        }
        b.shutdown();
    }

    #[test]
    fn priority_header_visible_to_selectors_end_to_end() {
        let b = broker();
        let sub = b
            .subscription("t")
            .filter(Filter::selector("JMSPriority >= 7").unwrap())
            .open()
            .unwrap();
        let p = b.publisher("t").unwrap();
        p.publish(Message::builder().priority(Priority::new(9)).build()).unwrap();
        p.publish(Message::builder().priority(Priority::new(1)).build()).unwrap();
        assert!(sub.receive_timeout(Duration::from_secs(2)).is_some());
        assert!(sub.receive_timeout(Duration::from_millis(50)).is_none());
        b.shutdown();
    }

    /// Every message is timed; the stages of about one in 64.
    #[test]
    fn metrics_record_waiting_service_and_stages() {
        const MESSAGES: u64 = 16 * STAGE_SAMPLE_EVERY;
        let b = Broker::start(BrokerConfig::builder().metrics(MetricsConfig::default()).build());
        b.create_topic("t").unwrap();
        let sub = b.subscription("t").open().unwrap();
        let p = b.publisher("t").unwrap();
        for _ in 0..MESSAGES {
            p.publish(Message::builder().build()).unwrap();
            assert!(sub.receive_timeout(Duration::from_secs(2)).is_some());
        }
        let registry = b.metrics().expect("metrics enabled");
        let mut snap = registry.snapshot();
        for _ in 0..200 {
            if snap.histogram("broker.sojourn_ns").map(|h| h.count) == Some(MESSAGES) {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
            snap = registry.snapshot();
        }
        for name in ["broker.waiting_ns", "broker.service_ns", "broker.sojourn_ns"] {
            let h = snap.histogram(name).unwrap_or_else(|| panic!("{name} empty"));
            assert_eq!(h.count, MESSAGES, "{name}");
        }
        let stages = snap.histogram("broker.stage.filter_ns").expect("sampled stages").count;
        assert!((8..=32).contains(&stages), "{stages} of {MESSAGES} messages sampled");
        // Sojourn dominates each component.
        let sojourn = snap.histogram("broker.sojourn_ns").unwrap();
        let waiting = snap.histogram("broker.waiting_ns").unwrap();
        assert!(sojourn.mean() >= waiting.mean());
        b.shutdown();
    }

    #[test]
    fn metrics_disabled_means_no_registry() {
        let b = broker();
        assert!(b.metrics().is_none());
        b.shutdown();
    }

    #[test]
    fn flow_disabled_means_no_gate_and_no_counters() {
        let b = broker();
        assert!(b.flow().is_none());
        assert!(b.snapshot().flow.is_none());
        b.shutdown();
    }

    /// A flow broker whose lane is seeded at Table I's 720 µs a message
    /// (correlation-ID constants, 100 filters), all of it spun as `t_rcv`:
    /// a budget of at most 1 390 msgs/s, a twentieth of a second of it in
    /// the bucket.
    fn slow_flow_broker() -> Broker {
        let e_b = rjms_core::CostParams::CORRELATION_ID.mean_service_time(100, 1.0);
        let config = BrokerConfig::builder().cost_model(rjms_core::CostParams::new(e_b, 0.0, 0.0));
        Broker::start(config.flow(crate::config::FlowConfig::default()).build())
    }

    /// The slow lane's bucket drains after a few dozen back-to-back
    /// publishes, and priority 0 maps to class 0 and is shed. The
    /// snapshot's counters are the sums of the gate's per class. Flow
    /// implies metrics (each dispatcher refreshes its lane from them).
    #[test]
    fn flow_gate_sheds_lowest_class_under_burst_overload() {
        let b = slow_flow_broker();
        assert!(b.metrics().is_some());
        b.create_topic("t").unwrap();
        let p = b.publisher("t").unwrap();
        let mut shed = 0u64;
        for _ in 0..10_000 {
            let m = Message::builder().priority(Priority::new(0)).build();
            match p.publish(m) {
                Ok(()) | Err(Error::PublishDeferred { .. }) => {}
                Err(Error::PublishShed { class }) => {
                    assert_eq!(class, 0);
                    shed += 1;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(shed > 0, "burst overload should shed class 0");
        let flow = b.snapshot().flow.expect("flow counters present");
        assert_eq!(flow.shed, shed);
        assert!(flow.granted > 0);
        let per_class = b.flow().expect("gate present").snapshot().per_class;
        let sum = |count: fn(&rjms_flow::ClassSnapshot) -> u64| per_class.iter().map(count).sum();
        assert_eq!(
            (flow.granted, flow.deferred, flow.shed),
            (sum(|c| c.granted), sum(|c| c.deferred), sum(|c| c.shed))
        );
        assert_eq!(flow.granted + flow.deferred + flow.shed, 10_000);
        b.shutdown();
    }

    #[test]
    fn try_publish_denied_hands_the_message_back() {
        let b = slow_flow_broker();
        b.create_topic("t").unwrap();
        let p = b.publisher("t").unwrap();
        let mut denied = false;
        for i in 0..10_000 {
            let m = Message::builder().priority(Priority::new(0)).property("i", i as i64).build();
            match p.try_publish(m) {
                Ok(()) => {}
                Err(TryPublishError::Denied { message, reason }) => {
                    assert_eq!(message.property("i"), Some(&(i as i64).into()));
                    assert!(matches!(
                        reason,
                        Error::PublishShed { .. } | Error::PublishDeferred { .. }
                    ));
                    denied = true;
                    break;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(denied, "burst overload should deny a try_publish");
        b.shutdown();
    }

    /// Picks `count` topic names that land on distinct shards, one per
    /// shard index in order.
    fn topic_per_shard(shards: usize) -> Vec<String> {
        let mut names = vec![None; shards];
        let mut found = 0;
        for trial in 0.. {
            let name = format!("topic-{trial}");
            let shard = shard_of(&name, shards);
            if names[shard].is_none() {
                names[shard] = Some(name);
                found += 1;
                if found == shards {
                    break;
                }
            }
        }
        names.into_iter().map(Option::unwrap).collect()
    }

    /// On a sharded broker the unlabeled gauges are the sums of the shards'
    /// own: a dispatcher blocked on a full subscriber queue has a message in
    /// flight and left a backlog behind it.
    #[test]
    fn a_sharded_brokers_unlabeled_gauges_sum_its_shards() {
        let config = BrokerConfig::builder()
            .shards(2)
            .metrics(MetricsConfig::default())
            .subscriber_queue_capacity(1)
            .overflow_policy(OverflowPolicy::Block);
        let b = Broker::start(config.build());
        b.create_topic("t").unwrap();
        let sub = b.subscription("t").open().unwrap();
        let p = b.publisher("t").unwrap();
        for _ in 0..5 {
            p.publish(Message::builder().build()).unwrap();
        }
        // The queue holds one message, so the dispatcher blocks on the second
        // or the third; freeing a slot lets it pop the third with the last two
        // still queued behind it.
        assert!(sub.receive_timeout(Duration::from_secs(2)).is_some());
        let registry = b.metrics().unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        let gauges = loop {
            let gauges = registry.snapshot().gauges;
            if gauges["broker.in_flight"] >= 1 && gauges["broker.queue_depth"] >= 1 {
                break gauges;
            }
            assert!(Instant::now() < deadline, "unlabeled gauges stayed at {gauges:?}");
            std::thread::sleep(Duration::from_millis(5));
        };
        let shard = shard_of("t", 2);
        assert_eq!(
            gauges["broker.in_flight"],
            gauges[&format!("broker.in_flight{{shard=\"{shard}\"}}")]
        );
        drop(sub);
        b.shutdown();
    }

    #[test]
    fn single_dispatcher_snapshot_has_no_shards() {
        let b = broker();
        let p = b.publisher("t").unwrap();
        p.publish(Message::builder().build()).unwrap();
        let snap = wait_for(&b, |s| s.messages.received == 1);
        assert!(snap.shards.is_none());
        b.shutdown();
    }

    #[test]
    fn sharded_broker_partitions_topics_and_aggregates_counters() {
        const SHARDS: usize = 4;
        let b = Broker::start(
            BrokerConfig::builder().shards(SHARDS).metrics(MetricsConfig::default()).build(),
        );
        let topics = topic_per_shard(SHARDS);
        let subs: Vec<_> = topics
            .iter()
            .map(|t| {
                b.create_topic(t).unwrap();
                b.subscription(t.as_str()).open().unwrap()
            })
            .collect();
        // Publish shard+1 messages to the topic on each shard so every
        // per-shard counter is distinguishable.
        for (shard, topic) in topics.iter().enumerate() {
            let p = b.publisher(topic).unwrap();
            for _ in 0..=shard {
                p.publish(Message::builder().build()).unwrap();
            }
        }
        let expected_total = (1..=SHARDS as u64).sum::<u64>();
        for (shard, sub) in subs.iter().enumerate() {
            for _ in 0..=shard {
                assert!(sub.receive_timeout(Duration::from_secs(2)).is_some());
            }
        }
        let snap = wait_for(&b, |s| s.messages.dispatched == expected_total);
        let shards = snap.shards.as_ref().expect("sharded snapshot");
        assert_eq!(shards.len(), SHARDS);
        for (shard, s) in shards.iter().enumerate() {
            assert_eq!(s.shard, shard);
            assert_eq!(s.topics, 1);
            assert_eq!(s.received, shard as u64 + 1);
            assert_eq!(s.dispatched, shard as u64 + 1);
        }
        // Per-shard counters partition the aggregates exactly.
        assert_eq!(shards.iter().map(|s| s.received).sum::<u64>(), snap.messages.received);
        assert_eq!(shards.iter().map(|s| s.dispatched).sum::<u64>(), snap.messages.dispatched);
        // Each shard publishes its own labeled histogram series (samples
        // land after the dispatcher's idle flush, so poll briefly).
        let registry = b.metrics().unwrap();
        let series_count = |shard: usize| {
            let name = format!("broker.waiting_ns{{shard=\"{shard}\"}}");
            registry.snapshot().histogram(&name).map_or(0, |h| h.count)
        };
        for shard in 0..SHARDS {
            for _ in 0..200 {
                if series_count(shard) == shard as u64 + 1 {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            assert_eq!(series_count(shard), shard as u64 + 1);
        }
        b.shutdown();
    }

    #[test]
    fn sharded_delivery_preserves_per_topic_order() {
        let b = Broker::start(BrokerConfig::builder().shards(3).build());
        b.create_topic("ordered").unwrap();
        let sub = b.subscription("ordered").open().unwrap();
        let p = b.publisher("ordered").unwrap();
        for i in 0..50 {
            p.publish(Message::builder().property("i", i as i64).build()).unwrap();
        }
        for i in 0..50 {
            let m = sub.receive_timeout(Duration::from_secs(2)).expect("message");
            assert_eq!(m.property("i"), Some(&(i as i64).into()));
        }
        b.shutdown();
    }

    /// With metrics on and no cost model every shard has a report, judged
    /// against the shard's own Eq. 1 fit once that has its floor: one copy
    /// per message pins the fit to `t_tx` = the mean service time, so the
    /// model's predicted `E[B]` and `c_var[B]` are the measured ones, and
    /// `/model` names the fit it used. The SLO engine gets no model.
    #[test]
    fn without_a_cost_model_each_shard_is_judged_against_its_own_fit() {
        const SHARDS: usize = 2;
        const MESSAGES: u64 = 1_200;
        let config = BrokerConfig::builder().shards(SHARDS).metrics(MetricsConfig::default());
        let b = Broker::start(config.subscriber_queue_capacity(2 * MESSAGES as usize).build());
        let mut subscribers = Vec::new();
        for topic in &topic_per_shard(SHARDS) {
            b.create_topic(topic).unwrap();
            subscribers.push(b.subscription(topic.as_str()).open().unwrap());
            let p = b.publisher(topic).unwrap();
            (0..MESSAGES).for_each(|_| p.publish(Message::builder().build()).unwrap());
        }
        let fitted = |r: &ShardReport| matches!(r.anchor, Some(CostAnchor::Fit(f)) if f.observations == MESSAGES);
        for _ in 0..400 {
            if b.shard_reports().iter().all(|r| fitted(r) && r.samples == MESSAGES) {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let reports = b.shard_reports();
        assert_eq!(reports.len(), SHARDS);
        for (shard, r) in reports.iter().enumerate() {
            assert_eq!((r.shard, r.replication_grade), (shard, 1.0));
            let Some(CostAnchor::Fit(fit)) = r.anchor else { panic!("{r:?}") };
            assert_eq!((fit.mode, fit.observations), (rjms_core::FitMode::FixedFilter, MESSAGES));
            let report = r.verdict.report().unwrap_or_else(|| panic!("{:?}", r.verdict));
            let error = report.predicted.mean_service_time / report.measured.mean_service_time;
            assert!((error - 1.0).abs() < 1e-9, "shard {shard}: E[B] off by {error}");
            let spread = report.predicted.service_cvar - report.measured.service_cvar;
            assert!(spread.abs() < 1e-9, "shard {shard}: c_var[B] off by {spread}");
        }
        assert!(b.observer().shard_monitors().iter().all(Option::is_none), "no SLO model");
        let text = b.observer().model_text();
        let named = format!("anchor: fit: fixed-fltr, {MESSAGES} observations\n");
        assert_eq!(text.matches(&named).count(), SHARDS, "{text}");
        b.shutdown();
    }

    /// A topic denied a slot of its own in the per-topic tables is one
    /// overflowed topic, from its creation: of 67 topics under the cap of
    /// 64, the last three share the `__other__` row and the `__other__`
    /// series.
    #[test]
    fn a_topic_beyond_the_cap_is_counted_as_overflowed_once() {
        let config = BrokerConfig::builder()
            .shards(2)
            .metrics(MetricsConfig::default())
            .topic_obs(crate::TopicObsConfig::default())
            .build();
        let b = Broker::start(config);
        for created in 1..=PER_TOPIC_SERIES + 3 {
            b.create_topic(&format!("t{created}")).unwrap();
            let beyond = created.saturating_sub(PER_TOPIC_SERIES) as u64;
            assert_eq!(b.snapshot().topics_overflowed, beyond);
        }
        let counters = b.metrics().unwrap().snapshot().counters;
        let other = counters.keys().filter(|k| k.contains("topic=\"__other__\"")).count();
        let observatory = b.topic_observatory().unwrap();
        assert_eq!((other, observatory.overflowed_topics), (2, 3));
        assert_eq!(counters["broker.topics_overflowed"], 3);
        assert!(observatory.topics.is_empty(), "no topic has seen a message");
        b.shutdown();
    }
}
