//! Counted work: what the dispatcher does for N messages on the shapes of
//! the ledger workloads, plain and durable, as exact counts. Wall time moves
//! with the host; these numbers repeat on any machine, so a change that adds or skips a
//! filter evaluation or a copy fails here whatever it does to msgs/s
//! (ROADMAP 4 (b); `perf_ledger/src/workloads.rs` has the timed versions).
//! Each count is kept once, on the topic, so every run also checks that
//! the broker's totals are exactly the sums of its shards' and its topics'.

use rjms::broker::{
    shard_of, Broker, BrokerConfig, BrokerSnapshot, Filter, Message, OverflowPolicy, ShardSnapshot,
    Subscriber, TopicStats,
};
use std::time::Duration;

const MESSAGES: u64 = 1_000;

/// What a durable subscription retains for a consumer that is away.
const RETAINED_MAX: u64 = 65_536;

/// The ledger's broker (one dispatcher, unless told otherwise): blocking
/// subscriber queues that hold the whole run.
fn broker(shards: usize, topics: &[&str]) -> Broker {
    let config = BrokerConfig::builder()
        .shards(shards)
        .subscriber_queue_capacity(MESSAGES as usize)
        .overflow_policy(OverflowPolicy::Block)
        .build();
    let broker = Broker::start(config);
    for topic in topics {
        broker.create_topic(topic).unwrap();
    }
    broker
}

/// Broker = Σ shards = Σ topics, for received, copies and (the snapshot has
/// them per shard only) filter evaluations.
fn assert_totals_are_sums(snap: &BrokerSnapshot) {
    let m = snap.messages;
    let topics = |field: fn(&TopicStats) -> u64| snap.per_topic.values().map(field).sum::<u64>();
    assert_eq!((topics(|t| t.received), topics(|t| t.dispatched)), (m.received, m.dispatched));
    if let Some(shards) = &snap.shards {
        let shards = |field: fn(&ShardSnapshot) -> u64| shards.iter().map(field).sum::<u64>();
        assert_eq!(
            (shards(|s| s.received), shards(|s| s.dispatched), shards(|s| s.filter_evaluations)),
            (m.received, m.dispatched, m.filter_evaluations)
        );
    }
}

/// Gives the dispatcher up to two seconds to book what it has delivered.
fn wait_until(reached: impl Fn() -> bool) {
    for _ in 0..400 {
        if reached() {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Publishes the run on `topic` — every message carries correlation ID `#0`
/// and `key = 0`, as the ledger's do — waits for the last copy and checks
/// what the broker's counters gained: every subscription evaluated for
/// every message, a copy to each of `matching`, nothing to `idle`, nothing
/// dropped.
fn run_and_count(broker: &Broker, topic: &str, matching: &[Subscriber], idle: &[Subscriber]) {
    let before = broker.snapshot().messages;
    let publisher = broker.publisher(topic).unwrap();
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
    let expected = (
        before.received + MESSAGES,
        before.filter_evaluations + MESSAGES * filters,
        before.dispatched + MESSAGES * matching.len() as u64,
        0,
    );
    let counted = || {
        let m = broker.snapshot().messages;
        (m.received, m.filter_evaluations, m.dispatched, m.dropped)
    };
    wait_until(|| counted() == expected);
    assert_eq!(counted(), expected, "(received, filter evaluations, copies, dropped)");
    assert_totals_are_sums(&broker.snapshot());
    for sub in &matching[..matching.len() - 1] {
        assert_eq!(sub.queued() as u64, MESSAGES);
    }
    assert!(idle.iter().all(|sub| sub.queued() == 0));
}

fn subscribe(broker: &Broker, topic: &str, filter: Filter) -> Subscriber {
    broker.subscription(topic).filter(filter).open().unwrap()
}

/// `inproc_filter`: 256 selectors `key = i`, one of them hit.
#[test]
fn the_filter_shape_evaluates_256_selectors_per_message_and_copies_once() {
    let broker = broker(1, &["t"]);
    let selector = |key: u32| Filter::selector(&format!("key = {key}")).unwrap();
    let idle: Vec<_> = (1..256).map(|key| subscribe(&broker, "t", selector(key))).collect();
    let matching = [subscribe(&broker, "t", selector(0))];
    run_and_count(&broker, "t", &matching, &idle);
    assert_eq!(broker.snapshot().messages.filter_evaluations, 256_000);
    broker.shutdown();
}

/// `inproc_fanout`: 32 correlation-ID filters, all of them hit.
#[test]
fn the_fanout_shape_evaluates_32_filters_per_message_and_copies_32_times() {
    let broker = broker(1, &["t"]);
    let matching: Vec<_> =
        (0..32).map(|_| subscribe(&broker, "t", Filter::correlation_id("#0").unwrap())).collect();
    run_and_count(&broker, "t", &matching, &[]);
    let messages = broker.snapshot().messages;
    assert_eq!((messages.filter_evaluations, messages.dispatched), (32_000, 32_000));
    broker.shutdown();
}

/// The filter shape with 16 of its 256 subscribers dropped — each a
/// `key = 0` that every message would hit — before the run: every message
/// evaluates the 240 left and tries no copy to a dropped one (no expired
/// subscription). A subscriber dropped on another topic changes nothing.
#[test]
fn dropped_subscribers_are_not_evaluated_and_get_no_copy() {
    const DROPPED: u64 = 16;
    let broker = broker(1, &["t", "u"]);
    let selector = |key: u32| Filter::selector(&format!("key = {key}")).unwrap();
    let (mut idle, mut doomed) = (Vec::new(), Vec::new());
    for key in 0..255 {
        match key % 16 {
            0 => doomed.push(subscribe(&broker, "t", selector(0))),
            _ => idle.push(subscribe(&broker, "t", selector(key))),
        }
    }
    let matching = [subscribe(&broker, "t", selector(0))];
    let mut elsewhere: Vec<_> = (0..2).map(|_| subscribe(&broker, "u", selector(0))).collect();
    assert_eq!((idle.len() + doomed.len() + 1, doomed.len()), (256, DROPPED as usize));

    drop(doomed);
    run_and_count(&broker, "t", &matching, &idle);
    elsewhere.pop();
    run_and_count(&broker, "t", &matching, &idle);
    let snap = broker.snapshot();
    assert_eq!(snap.messages.filter_evaluations, 2 * MESSAGES * (256 - DROPPED));
    assert_eq!(snap.subscriptions.expired, 0);
    assert_eq!(broker.subscription_count("t") as u64, 256 - DROPPED);
    broker.shutdown();
}

fn subscribe_durable(broker: &Broker, topic: &str, name: &str, filter: Filter) -> Subscriber {
    broker.subscription(topic).durable(name).filter(filter).open().unwrap()
}

/// `inproc_journal`'s subscriptions: a connected durable consumer, here
/// behind three plain filters that stay idle. A durable subscription is one
/// more row of the scan: 4 evaluations and 1 copy per message.
#[test]
fn a_durable_among_plain_filters_is_one_more_evaluation_and_one_copy() {
    let broker = broker(1, &["t"]);
    let idle: Vec<_> =
        (0..3).map(|_| subscribe(&broker, "t", Filter::correlation_id("#1").unwrap())).collect();
    let matching = [subscribe_durable(&broker, "t", "d", Filter::correlation_id("#0").unwrap())];
    run_and_count(&broker, "t", &matching, &idle);
    let messages = broker.snapshot().messages;
    assert_eq!((messages.filter_evaluations, messages.dispatched), (4_000, 1_000));
    broker.shutdown();
}

/// The filter shape with every subscription durable: still 256 evaluations
/// per message and one copy. With the one consumer that is hit away, every
/// filter is still evaluated, the message is retained instead — one per
/// message up to the buffer's capacity, the oldest dropped beyond it (one
/// more than it holds is published) — and nothing counts as dispatched.
#[test]
fn durable_selectors_are_all_evaluated_and_a_disconnected_hit_is_retained_not_dispatched() {
    let broker = broker(1, &["t"]);
    let durable = |key: u32| {
        let filter = Filter::selector(&format!("key = {key}")).unwrap();
        subscribe_durable(&broker, "t", &format!("d{key}"), filter)
    };
    let idle: Vec<_> = (1..256).map(durable).collect();
    let matching = [durable(0)];
    run_and_count(&broker, "t", &matching, &idle);
    let connected = broker.snapshot().messages;
    assert_eq!((connected.filter_evaluations, connected.dispatched), (256_000, 1_000));

    // The consumer leaves with nothing pending, so the buffer starts empty.
    const AWAY: u64 = RETAINED_MAX + 1;
    drop(matching);
    let publisher = broker.publisher("t").unwrap();
    for sent in 1..=AWAY {
        publisher.publish(Message::builder().property("key", 0i64).build()).unwrap();
        if sent <= 3 {
            // One at a time: a retained message is one more in the buffer.
            wait_until(|| broker.snapshot().messages.retained == sent);
            assert_eq!(broker.retained_count("t", "d0") as u64, sent);
        }
    }
    // Evaluations are booked after the scan that retained the message.
    let evaluations = 256 * (MESSAGES + AWAY);
    wait_until(|| broker.snapshot().messages.filter_evaluations == evaluations);
    let away = broker.snapshot().messages;
    assert_eq!(
        (away.received, away.filter_evaluations, away.dispatched, away.retained, away.dropped),
        (MESSAGES + AWAY, evaluations, connected.dispatched, AWAY, 1)
    );
    assert_eq!(broker.retained_count("t", "d0") as u64, RETAINED_MAX);
    assert!(idle.iter().all(|sub| sub.queued() == 0));
    assert_totals_are_sums(&broker.snapshot());
    broker.shutdown();
}

/// Two shards with a topic each: every shard counts what a single
/// dispatcher would, and the broker's totals are their sums.
#[test]
fn two_shards_count_their_own_topics_and_the_broker_is_their_sum() {
    let topics = ["beta", "gamma"];
    assert_ne!(shard_of(topics[0], 2), shard_of(topics[1], 2));
    let broker = broker(2, &topics);
    for topic in topics {
        let corr = |id: &str| subscribe(&broker, topic, Filter::correlation_id(id).unwrap());
        let idle: Vec<_> = (0..8).map(|_| corr("#1")).collect();
        let matching: Vec<_> = (0..4).map(|_| corr("#0")).collect();
        run_and_count(&broker, topic, &matching, &idle);
    }
    let snap = broker.snapshot();
    for shard in snap.shards.as_ref().expect("two shards") {
        let counted = (shard.topics, shard.received, shard.filter_evaluations, shard.dispatched);
        assert_eq!(counted, (1, MESSAGES, 12 * MESSAGES, 4 * MESSAGES), "shard {}", shard.shard);
    }
    assert_eq!(snap.messages.filter_evaluations, 24_000);
    broker.shutdown();
}
