//! The dispatch core: the one loop the paper's model rests on.
//!
//! Per message: dequeue → expire → journal → resolve → match → deliver →
//! account, i.e. `E[B] = t_rcv + n_fltr·t_fltr + E[R]·t_tx` (plus `t_store`
//! with a journal). "Resolve" reads the properties the topic's selectors
//! reference off the message once ([`crate::subscriptions`]); it is part
//! of the filter stage and a topic without selectors skips it. The loop
//! observes nothing about itself; every measurement goes through the
//! [`DispatchProbe`] it is generic over ([`crate::probe`]), so this file
//! is what a broker without instrumentation executes.

use crate::broker::{BrokerInner, DispatchItem};
use crate::config::OverflowPolicy;
use crate::durable::{self, Checkpoints};
use crate::message::Message;
use crate::persist::encode_publish;
use crate::probe::{DispatchProbe, Dispatched};
use crate::subscriptions::PlainEntry;
use crossbeam::channel::{Receiver, Sender, TryRecvError, TrySendError};
use rjms_selector::ValueRef;
use rjms_trace::Stage;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// One dispatcher thread: pops publish items from its shard's queue and
/// fans out message copies until it pops `Shutdown` or every sender is
/// gone. A broker runs one per shard (the single-dispatcher broker: shard
/// 0), each with its own probe and checkpoint bookkeeping.
pub(crate) fn run<P: DispatchProbe>(
    inner: &BrokerInner,
    shard: usize,
    publish_rx: &Receiver<DispatchItem>,
    mut probe: P,
) {
    let cost = inner.config.cost_model;
    let shard_stats = &inner.shard_stats[shard];
    let mut checkpoints = Checkpoints::new(inner);
    loop {
        let (item, was_queued) = match publish_rx.try_recv() {
            Ok(item) => (item, true),
            Err(TryRecvError::Empty) => {
                probe.on_idle();
                match publish_rx.recv() {
                    Ok(item) => (item, false),
                    Err(_) => break,
                }
            }
            Err(TryRecvError::Disconnected) => break,
        };
        let DispatchItem::Publish { topic, message, enqueued_at } = item else { break };
        probe.on_dequeue(&message, enqueued_at, was_queued, || publish_rx.len());

        inner.stats.record_received();
        shard_stats.received.fetch_add(1, Ordering::Relaxed);
        probe.stage(Stage::Receive, |_| {
            if let Some(c) = &cost {
                c.spin_receive();
            }
        });

        // TTL: expired messages are never delivered (JMS §4.8); the receive
        // work has already been paid.
        if message.is_expired() {
            inner.stats.record_expired_message();
            probe.on_expired();
            continue;
        }

        // Write-ahead: the message is on disk (per the fsync policy) before
        // any subscriber sees it. This append is the real-I/O counterpart
        // of the synthetic `t_rcv`/`t_fltr`/`t_tx` spins — the `t_store`
        // term of the extended cost model.
        let publish_offset = probe.stage(Stage::Journal, |_| {
            inner.append_record(|| encode_publish(&topic.name, &message))
        });

        let (evaluations, copies, needs_prune) = {
            let subs = topic.subs.read();
            let resolved;
            let resolved: &[Option<ValueRef<'_>>] = if subs.slots().is_empty() {
                &[]
            } else {
                resolved = probe.stage(Stage::Filter, |_| subs.slots().resolve(&message));
                resolved.as_slice()
            };
            let plain = fan_out(inner, subs.plain(), &message, resolved, &mut probe);
            let durable = durable::deliver(
                inner,
                &topic.name,
                subs.durables(),
                &message,
                resolved,
                publish_offset,
                &mut checkpoints,
                &mut probe,
            );
            (plain.evaluations + durable.0, plain.copies + durable.1, plain.needs_prune)
        };
        if needs_prune {
            topic.subs.write().prune();
        }

        inner.stats.record_filter_evaluations(evaluations);
        inner.stats.record_dispatched(copies);
        shard_stats.filter_evaluations.fetch_add(evaluations, Ordering::Relaxed);
        shard_stats.dispatched.fetch_add(copies, Ordering::Relaxed);
        let first_on_topic = topic.received.fetch_add(1, Ordering::Relaxed) == 0;
        topic.dispatched.fetch_add(copies, Ordering::Relaxed);

        probe.on_done(&Dispatched {
            topic: &topic.name,
            message: &message,
            evaluations,
            copies,
            publish_offset,
            first_on_topic,
        });
    }
    probe.on_exit();
    checkpoints.finish(inner);

    // Drop the subscriptions of this shard's topics so that blocked or
    // future subscriber receives observe disconnection once their queues
    // drain. Each dispatcher clears only its own shard: another shard may
    // still be draining its queue into its topics.
    for topic in inner.topics.read().values() {
        if topic.shard == shard {
            topic.subs.write().clear_plain();
        }
    }
}

/// What [`fan_out`] did with one message.
struct FanOut {
    evaluations: u64,
    copies: u64,
    /// A subscription was found dead; the caller prunes once it has let go
    /// of the read lock.
    needs_prune: bool,
}

/// The non-durable half of one message's fan-out: evaluates **every**
/// live subscription filter of the topic (brute force, as measured)
/// against the message's `resolved` properties and enqueues one copy per
/// match.
fn fan_out<P: DispatchProbe>(
    inner: &BrokerInner,
    subs: &[PlainEntry],
    message: &Arc<Message>,
    resolved: &[Option<ValueRef<'_>>],
    probe: &mut P,
) -> FanOut {
    let cost = inner.config.cost_model;
    let mut out = FanOut { evaluations: 0, copies: 0, needs_prune: false };
    // The scan is one stage with the deliveries nested inside it; what
    // the probe books to the scan excludes them.
    probe.stage(Stage::Filter, |probe| {
        for entry in subs {
            if !entry.is_active() {
                out.needs_prune = true;
                continue;
            }
            out.evaluations += 1;
            if let Some(c) = &cost {
                c.spin_filters(1);
            }
            if !entry.matches(message, resolved) {
                continue;
            }
            let sub = &entry.sub;
            let delivery = probe.stage(Stage::Fanout, |_| {
                if let Some(c) = &cost {
                    c.spin_transmit();
                }
                deliver_to(&sub.sender, Arc::clone(message), inner.config.overflow_policy)
            });
            match delivery {
                Delivery::Sent => out.copies += 1,
                Delivery::Dropped => inner.stats.record_dropped(),
                Delivery::Disconnected => {
                    sub.active.store(false, Ordering::Relaxed);
                    inner.stats.record_expired_subscription();
                    out.needs_prune = true;
                }
            }
        }
    });
    out
}

pub(crate) enum Delivery {
    Sent,
    Dropped,
    Disconnected,
}

/// Enqueues one copy for a subscriber, per the overflow policy.
pub(crate) fn deliver_to(
    sender: &Sender<Arc<Message>>,
    message: Arc<Message>,
    policy: OverflowPolicy,
) -> Delivery {
    match policy {
        OverflowPolicy::Block => match sender.send(message) {
            Ok(()) => Delivery::Sent,
            Err(_) => Delivery::Disconnected,
        },
        OverflowPolicy::DropNew => match sender.try_send(message) {
            Ok(()) => Delivery::Sent,
            Err(TrySendError::Full(_)) => Delivery::Dropped,
            Err(TrySendError::Disconnected(_)) => Delivery::Disconnected,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::NoProbe;
    use crate::{Broker, BrokerConfig, Filter};
    use crossbeam::channel::unbounded;
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
            // An empty plain scan, then the durable's filter and delivery.
            Dequeue { was_queued: true, backlog: 0 },
            Enter(Stage::Receive),
            Enter(Stage::Journal),
            Enter(Stage::Filter),
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
}
