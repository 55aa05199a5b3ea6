//! Durable subscriptions (paper §II-A: in the durable mode, messages are
//! also forwarded to subscribers that are currently not connected — the
//! broker retains them): the server-side state of one named subscription,
//! its connect/disconnect protocol, what the dispatcher's one fan-out loop
//! ([`crate::dispatch`]) does with a match whose sink is durable, and the
//! checkpoint bookkeeping that lets journal replay skip what a consumer
//! already received.

use crate::broker::{BrokerInner, Subscription, Topic};
use crate::dispatch::{Delivery, SubscriberQueue};
use crate::error::Error;
use crate::filter::Filter;
use crate::message::Message;
use crate::persist::{encode_checkpoint_into, JournalRecord};
use crate::subscriptions::{LiveFlag, Sink};
use crossbeam::channel::Receiver;
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Server-side state of a named durable subscription. Its filter lives
/// beside it in the topic's [`crate::subscriptions::Subscriptions`], bound
/// to the topic's slot table.
pub(crate) struct DurableState {
    pub(crate) name: String,
    /// Messages retained while no consumer is connected (bounded by
    /// `durable_buffer_capacity`, oldest dropped on overflow).
    pub(crate) retained: Mutex<VecDeque<Arc<Message>>>,
    /// The connected consumer's queue, if any.
    pub(crate) connection: Mutex<Option<SubscriberQueue>>,
}

impl DurableState {
    /// This durable subscription's entry in its topic's scan, under
    /// `filter`; `active` is never cleared.
    pub(crate) fn subscription(
        self: &Arc<Self>,
        filter: Filter,
        active: LiveFlag,
    ) -> Arc<Subscription> {
        Arc::new(Subscription { filter, sink: Sink::Durable(Arc::clone(self)), active })
    }

    /// Connects `queue` as the consumer of `topic`'s durable subscription
    /// `name`, creating the subscription on first use. Returns the state
    /// plus the retained backlog the consumer must see before live
    /// messages (expired messages already discarded).
    ///
    /// Reconnecting with a different filter discards the retained backlog
    /// (JMS change-of-selector semantics).
    pub(crate) fn connect(
        inner: &BrokerInner,
        topic: &Topic,
        name: &str,
        filter: Filter,
        queue: SubscriberQueue,
    ) -> Result<(Arc<DurableState>, VecDeque<Arc<Message>>), Error> {
        let registered = |filter: Filter, out: &mut Vec<u8>| {
            JournalRecord::DurableRegistered {
                topic: topic.name.clone(),
                name: name.to_owned(),
                filter,
            }
            .encode_into(out);
        };
        let mut subs = topic.subs.write();
        let state = match subs.durable(name) {
            Some((state, current)) => {
                let state = Arc::clone(state);
                let mut connection = state.connection.lock();
                if connection.is_some() {
                    return Err(Error::DurableNameInUse {
                        topic: topic.name.clone(),
                        name: name.to_owned(),
                    });
                }
                if *current != filter {
                    // A changed selector deletes and recreates the
                    // subscription; re-registering makes replay agree.
                    state.retained.lock().clear();
                    subs.remove_durable(name);
                    subs.add(state.subscription(filter.clone(), inner.live_flags.next()));
                    inner.append_record(|out| registered(filter, out));
                }
                *connection = Some(queue);
                drop(connection);
                state
            }
            None => {
                let state = Arc::new(DurableState {
                    name: name.to_owned(),
                    retained: Mutex::new(VecDeque::new()),
                    connection: Mutex::new(Some(queue)),
                });
                subs.add(state.subscription(filter.clone(), inner.live_flags.next()));
                inner.append_record(|out| registered(filter, out));
                state
            }
        };
        let pending = state.retained.lock().drain(..).filter(|m| !m.is_expired()).collect();
        Ok((state, pending))
    }

    /// Disconnects the consumer: future matches are retained again, and
    /// its unconsumed backlog (`pending`) plus everything still queued in
    /// `receiver` goes back into the retained buffer, in that order, so
    /// that nothing is lost on reconnect.
    ///
    /// Never waits on the dispatcher, which under `OverflowPolicy::Block`
    /// may sit in `send` on this consumer's full queue *holding*
    /// `connection`: the queue is emptied until the lock is free. The
    /// dispatcher only appends while it holds the lock, so what is queued
    /// once the lock is ours is all there will be.
    pub(crate) fn disconnect(
        &self,
        pending: impl Iterator<Item = Arc<Message>>,
        receiver: &Receiver<Arc<Message>>,
    ) {
        let mut backlog: Vec<_> = pending.collect();
        let mut connection = loop {
            backlog.extend(receiver.try_iter());
            match self.connection.try_lock() {
                Some(connection) => break connection,
                None => std::thread::yield_now(),
            }
        };
        *connection = None;
        backlog.extend(receiver.try_iter());
        self.retained.lock().extend(backlog);
    }

    /// The dispatcher's hand-over of one matching `message`, all under the
    /// `connection` lock: to the connected consumer's queue, else (nobody
    /// connected, or the consumer found gone) into the retained buffer,
    /// dropping the oldest message beyond its capacity.
    ///
    /// A message handed to a consumer — or consciously dropped by the
    /// overflow policy — is progress a checkpoint record may cover, noted
    /// under its journal offset when it has one. Retained messages are
    /// deliberately NOT checkpointed, so replay rebuilds the backlog.
    pub(crate) fn deliver(
        self: &Arc<Self>,
        inner: &BrokerInner,
        topic: &str,
        message: &Arc<Message>,
        publish_offset: Option<u64>,
        checkpoints: &mut Checkpoints,
    ) -> Delivery {
        let mut connection = self.connection.lock();
        let policy = inner.config.overflow_policy;
        match connection.as_ref().map(|queue| queue.deliver(Arc::clone(message), policy)) {
            Some(Delivery::Disconnected) | None => {
                *connection = None;
                let mut retained = self.retained.lock();
                if retained.len() >= inner.config.durable_buffer_capacity {
                    retained.pop_front();
                    inner.stats.record_dropped();
                }
                retained.push_back(Arc::clone(message));
                Delivery::Retained
            }
            Some(delivery) => {
                if let Some(offset) = publish_offset {
                    checkpoints.delivered(inner, topic, self, offset);
                }
                delivery
            }
        }
    }
}

/// Progress of one durable subscription's consumer that no checkpoint
/// record covers yet.
struct PendingCheckpoint {
    /// Keeps the subscription, and with it the address it is keyed by,
    /// alive; its name and the topic's are read when a record is written.
    durable: Arc<DurableState>,
    topic: String,
    /// The highest delivered publish offset.
    offset: u64,
    /// Deliveries since the last checkpoint record.
    deliveries: u64,
}

impl PendingCheckpoint {
    fn write(&mut self, inner: &BrokerInner) {
        inner.append_record(|out| {
            encode_checkpoint_into(out, &self.topic, &self.durable.name, self.offset);
        });
        self.deliveries = 0;
    }
}

/// One dispatcher's checkpoint bookkeeping, keyed by the identity (the
/// address) of the durable subscription's state, so that a delivery
/// hashes one word and clones nothing. Only the dispatcher writes
/// checkpoints, so this needs no locking.
pub(crate) struct Checkpoints {
    every: u64,
    pending: HashMap<usize, PendingCheckpoint>,
}

impl Checkpoints {
    pub(crate) fn new(inner: &BrokerInner) -> Self {
        let every = inner.config.persistence.as_ref().map_or(u64::MAX, |p| p.checkpoint_every);
        Self { every, pending: HashMap::new() }
    }

    /// Notes that the publish at journal `offset` reached `durable`'s
    /// consumer; every `checkpoint_every` deliveries this becomes a
    /// checkpoint record.
    fn delivered(
        &mut self,
        inner: &BrokerInner,
        topic: &str,
        durable: &Arc<DurableState>,
        offset: u64,
    ) {
        let entry = self.pending.entry(Arc::as_ptr(durable) as usize).or_insert_with(|| {
            PendingCheckpoint {
                durable: Arc::clone(durable),
                topic: topic.to_owned(),
                offset,
                deliveries: 0,
            }
        });
        entry.offset = offset;
        entry.deliveries += 1;
        if entry.deliveries >= self.every {
            entry.write(inner);
        }
    }

    /// Shutdown: writes the final checkpoints and forces the journal to
    /// disk so a clean stop never re-delivers already-consumed messages.
    pub(crate) fn finish(self, inner: &BrokerInner) {
        for mut pending in self.pending.into_values() {
            if pending.deliveries > 0 {
                pending.write(inner);
            }
        }
        inner.sync_journal();
    }
}
