//! Counted work: what the dispatcher does for N messages on the shapes of
//! two ledger workloads, as exact counts. Wall time moves with the host;
//! these numbers repeat on any machine, so a change that adds or skips a
//! filter evaluation or a copy fails here whatever it does to msgs/s
//! (ROADMAP 4 (b); `perf_ledger/src/workloads.rs` has the timed versions).

use rjms::broker::{Broker, BrokerConfig, Filter, Message, OverflowPolicy, Subscriber};
use std::time::Duration;

const MESSAGES: u64 = 1_000;

/// The ledger's broker: one dispatcher, blocking subscriber queues that
/// hold the whole run.
fn broker() -> Broker {
    let config = BrokerConfig::builder()
        .shards(1)
        .subscriber_queue_capacity(MESSAGES as usize)
        .overflow_policy(OverflowPolicy::Block)
        .build();
    let broker = Broker::start(config);
    broker.create_topic("t").unwrap();
    broker
}

/// Publishes the run — every message carries correlation ID `#0` and
/// `key = 0`, as the ledger's do — waits for the last copy and checks the
/// broker's counters: every subscription evaluated for every message, a
/// copy to each of `matching`, nothing to `idle`, nothing dropped.
fn run_and_count(broker: &Broker, matching: &[Subscriber], idle: &[Subscriber]) {
    let publisher = broker.publisher("t").unwrap();
    for seq in 0..MESSAGES as i64 {
        let message =
            Message::builder().correlation_id("#0").property("key", 0i64).property("seq", seq);
        publisher.publish(message.build()).unwrap();
    }
    // The idle subscriptions come first, so a message's last copy leaves
    // after its whole scan, and the counters are booked right after it.
    let last = matching.last().expect("a matching subscriber");
    for seq in 0..MESSAGES as i64 {
        let message = last.receive_timeout(Duration::from_secs(30)).expect("a copy per message");
        assert_eq!(message.property("seq"), Some(&seq.into()));
    }
    let filters = (matching.len() + idle.len()) as u64;
    let expected = (MESSAGES, MESSAGES * filters, MESSAGES * matching.len() as u64, 0);
    let counted = || {
        let m = broker.snapshot().messages;
        (m.received, m.filter_evaluations, m.dispatched, m.dropped)
    };
    for _ in 0..400 {
        if counted() == expected {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(counted(), expected, "(received, filter evaluations, copies, dropped)");
    for sub in &matching[..matching.len() - 1] {
        assert_eq!(sub.queued() as u64, MESSAGES);
    }
    assert!(idle.iter().all(|sub| sub.queued() == 0));
}

fn subscribe(broker: &Broker, filter: Filter) -> Subscriber {
    broker.subscription("t").filter(filter).open().unwrap()
}

/// `inproc_filter`: 256 selectors `key = i`, one of them hit.
#[test]
fn the_filter_shape_evaluates_256_selectors_per_message_and_copies_once() {
    let broker = broker();
    let selector = |key: u32| Filter::selector(&format!("key = {key}")).unwrap();
    let idle: Vec<_> = (1..256).map(|key| subscribe(&broker, selector(key))).collect();
    let matching = [subscribe(&broker, selector(0))];
    run_and_count(&broker, &matching, &idle);
    assert_eq!(broker.snapshot().messages.filter_evaluations, 256_000);
    broker.shutdown();
}

/// `inproc_fanout`: 32 correlation-ID filters, all of them hit.
#[test]
fn the_fanout_shape_evaluates_32_filters_per_message_and_copies_32_times() {
    let broker = broker();
    let matching: Vec<_> =
        (0..32).map(|_| subscribe(&broker, Filter::correlation_id("#0").unwrap())).collect();
    run_and_count(&broker, &matching, &[]);
    let messages = broker.snapshot().messages;
    assert_eq!((messages.filter_evaluations, messages.dispatched), (32_000, 32_000));
    broker.shutdown();
}
