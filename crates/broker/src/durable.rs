//! Durable subscriptions (paper §II-A: in the durable mode, messages are
//! also forwarded to subscribers that are currently not connected — the
//! broker retains them): the server-side state of one named subscription,
//! its connect/disconnect protocol, and what the dispatcher's one fan-out
//! loop ([`crate::dispatch`]) does with a match whose sink is durable. A
//! subscription keeps its own checkpoint progress, beside its consumer
//! under one lock: the checkpoint records let journal replay skip what a
//! consumer already received.

use crate::broker::{BrokerInner, Subscription, Topic};
use crate::config::{CHECKPOINT_EVERY, DURABLE_BUFFER_CAPACITY};
use crate::dispatch::{Delivery, Queued, SubscriberQueue};
use crate::error::Error;
use crate::filter::Filter;
use crate::message::Message;
use crate::persist::{encode_checkpoint_into, JournalRecord};
use crate::subscriptions::{LiveFlag, Sink};
use crossbeam::channel::Receiver;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

/// Server-side state of a named durable subscription. Its filter lives
/// beside it in the topic's [`crate::subscriptions::Subscriptions`], bound
/// to the topic's slot table.
pub(crate) struct DurableState {
    pub(crate) name: String,
    /// Messages retained while no consumer is connected (bounded by
    /// [`DURABLE_BUFFER_CAPACITY`], oldest dropped on overflow).
    pub(crate) retained: Mutex<VecDeque<Arc<Message>>>,
    /// The connected consumer, and its progress.
    pub(crate) connection: Mutex<Connection>,
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
                if connection.queue.is_some() {
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
                connection.queue = Some(queue);
                drop(connection);
                state
            }
            None => {
                let state = Arc::new(DurableState {
                    name: name.to_owned(),
                    retained: Mutex::new(VecDeque::new()),
                    connection: Mutex::new(Connection { queue: Some(queue), ..Default::default() }),
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
        connection.queue = None;
        backlog.extend(receiver.try_iter());
        self.retained.lock().extend(backlog);
    }

    /// The dispatcher's hand-over of one matching publish, all under the
    /// `connection` lock: to the connected consumer's queue, else (nobody
    /// connected, or the consumer found gone) into the retained buffer,
    /// dropping the oldest message beyond its capacity.
    ///
    /// A message handed to a consumer — or consciously dropped by the
    /// overflow policy — is progress a checkpoint record may cover, noted
    /// under its journal offset when it has one; every
    /// [`CHECKPOINT_EVERY`] deliveries that progress becomes a record.
    /// Retained messages are deliberately NOT checkpointed, so replay
    /// rebuilds the backlog.
    pub(crate) fn deliver(&self, inner: &BrokerInner, current: &Queued) -> Delivery {
        let mut connection = self.connection.lock();
        let (policy, message) = (inner.config.overflow_policy, &current.message);
        match connection.queue.as_ref().map(|queue| queue.deliver(Arc::clone(message), policy)) {
            Some(Delivery::Disconnected) | None => {
                connection.queue = None;
                let mut retained = self.retained.lock();
                if retained.len() >= DURABLE_BUFFER_CAPACITY {
                    retained.pop_front();
                    inner.stats.record_dropped();
                }
                retained.push_back(Arc::clone(message));
                Delivery::Retained
            }
            Some(delivery) => {
                if let Some(offset) = current.publish_offset {
                    connection.offset = offset;
                    connection.unrecorded += 1;
                    if connection.unrecorded >= CHECKPOINT_EVERY {
                        connection.checkpoint(inner, &current.topic.name, &self.name);
                    }
                }
                delivery
            }
        }
    }

    /// The dispatcher's exit: writes a checkpoint record for the progress
    /// no record covers yet, if there is any. The dispatcher syncs the
    /// journal after its last one, so a clean stop never re-delivers
    /// already-consumed messages.
    pub(crate) fn finish(&self, inner: &BrokerInner, topic: &str) {
        let mut connection = self.connection.lock();
        if connection.unrecorded > 0 {
            connection.checkpoint(inner, topic, &self.name);
        }
    }
}

/// What a durable subscription's `connection` lock guards: the connected
/// consumer, and the progress of its deliveries that no checkpoint record
/// covers yet. The topic's dispatcher alone notes progress, under the lock
/// it takes to deliver anyway.
#[derive(Default)]
pub(crate) struct Connection {
    /// The connected consumer's queue, if any.
    pub(crate) queue: Option<SubscriberQueue>,
    /// The highest publish offset handed to a consumer.
    offset: u64,
    /// Deliveries since the last checkpoint record.
    unrecorded: u64,
}

impl Connection {
    /// Writes the checkpoint record of `topic`'s durable subscription
    /// `name` at the progress so far.
    fn checkpoint(&mut self, inner: &BrokerInner, topic: &str, name: &str) {
        inner.append_record(|out| encode_checkpoint_into(out, topic, name, self.offset));
        self.unrecorded = 0;
    }
}
