//! Each subscription's order over one connection, whose writer sends a
//! message once for every subscription that took it in the same pass and the
//! client hands the one frame to each. One to eight subscriptions under
//! random correlation-ID ranges, on two topics of a two-shard broker, each
//! topic and the pattern over both; under `Block`, or `DropNew` behind a
//! queue of a few messages. What a subscription receives from a topic is a
//! subsequence of that topic's publish order, every copy once, and under
//! `Block` all of it. (Across the two topics, that is across shards, publish
//! order is not defined.)

use proptest::prelude::*;
use rjms_broker::{BrokerConfig, Message, OverflowPolicy};
use rjms_net::client::RemoteBroker;
use rjms_net::server::BrokerServer;
use rjms_net::wire::WireFilter;
use rjms_selector::Value;
use std::time::{Duration, Instant};

const TOPICS: [&str; 2] = ["o.a", "o.b"];

/// A subscription: to one topic (0, 1) or to the pattern over both (2), for
/// the correlation ids `#lo`–`#hi`.
#[derive(Debug, Clone, Copy)]
struct Subscription {
    target: usize,
    lo: i64,
    hi: i64,
}

impl Subscription {
    fn takes(&self, topic: usize, key: i64) -> bool {
        (self.target == 2 || self.target == topic) && (self.lo..=self.hi).contains(&key)
    }
}

fn subscription_strategy() -> impl Strategy<Value = Subscription> {
    (0usize..3, 0i64..8, 0i64..8).prop_map(|(target, lo, width)| Subscription {
        target,
        lo,
        hi: lo + width,
    })
}

fn int(message: &Message, name: &str) -> i64 {
    match message.property(name) {
        Some(&Value::Int(i)) => i,
        other => panic!("{name} is {other:?}"),
    }
}

/// Publishes `messages` (topic, correlation key) in process, each topic from
/// a thread of its own, to a server whose one remote client has
/// `subscriptions`; checks what each receives.
fn check(
    subscriptions: &[Subscription],
    messages: &[(usize, i64)],
    drop_new: Option<usize>,
) -> Result<(), TestCaseError> {
    let mut config = BrokerConfig::builder().shards(2);
    if let Some(capacity) = drop_new {
        config =
            config.overflow_policy(OverflowPolicy::DropNew).subscriber_queue_capacity(capacity);
    }
    let server = BrokerServer::start(config.build(), "127.0.0.1:0").expect("bind");
    TOPICS.iter().for_each(|topic| server.broker().create_topic(topic).unwrap());
    let client = RemoteBroker::connect(server.local_addr()).unwrap();
    let subscribers: Vec<_> = subscriptions
        .iter()
        .map(|s| {
            let filter = WireFilter::CorrelationId(format!("[{};{}]", s.lo, s.hi));
            match s.target {
                2 => client.subscribe_pattern("o.*", filter),
                topic => client.subscribe(TOPICS[topic], filter),
            }
            .unwrap()
        })
        .collect();
    // A topic's messages in publish order, `seq` their place in it.
    let of_topic = |topic: usize| messages.iter().filter(move |(t, _)| *t == topic).map(|m| m.1);
    std::thread::scope(|scope| {
        for (topic, name) in TOPICS.iter().enumerate() {
            let publisher = server.broker().publisher(name).unwrap();
            scope.spawn(move || {
                for (seq, key) in of_topic(topic).enumerate() {
                    let message = Message::builder()
                        .correlation_id(format!("#{key}"))
                        .property("topic", topic as i64)
                        .property("seq", seq as i64)
                        .build();
                    publisher.publish(message).unwrap();
                }
            });
        }
    });

    // Every copy queued (or dropped) and rung.
    let copies: usize = messages
        .iter()
        .map(|&(topic, key)| subscriptions.iter().filter(|s| s.takes(topic, key)).count())
        .sum();
    let deadline = Instant::now() + Duration::from_secs(10);
    let counted = || {
        let messages = server.broker().snapshot().messages;
        messages.dispatched + messages.dropped
    };
    while counted() < copies as u64 {
        assert!(Instant::now() < deadline, "{} of {copies} copies dispatched", counted());
        std::thread::sleep(Duration::from_millis(1));
    }
    // The writer drains the queues after it encodes a reply: once a pong
    // finds them empty, every copy went out with it or before, and the next
    // pong follows them all. The client hands deliveries over before the
    // reply behind them.
    loop {
        client.ping().unwrap();
        if server.metrics().snapshot().gauges["net.conn.1.queue_depth"] == 0 {
            break;
        }
        assert!(Instant::now() < deadline, "the writer never drained the queues");
    }
    client.ping().unwrap();

    for (subscription, subscriber) in subscriptions.iter().zip(&subscribers) {
        let mut received = [Vec::new(), Vec::new()];
        while let Some(message) = subscriber.try_receive() {
            let (topic, seq) = (int(&message, "topic") as usize, int(&message, "seq"));
            let key: i64 = message.correlation_id().expect("an id")[1..].parse().unwrap();
            prop_assert_eq!(of_topic(topic).nth(seq as usize), Some(key));
            prop_assert!(subscription.takes(topic, key), "{subscription:?} got #{key}");
            received[topic].push(seq);
        }
        for (topic, seqs) in received.iter().enumerate() {
            prop_assert!(seqs.windows(2).all(|w| w[0] < w[1]), "{subscription:?}: {seqs:?}");
            if drop_new.is_none() {
                let matches =
                    of_topic(topic).enumerate().filter(|(_, key)| subscription.takes(topic, *key));
                let all: Vec<i64> = matches.map(|(seq, _)| seq as i64).collect();
                prop_assert_eq!(seqs, &all, "{:?} under Block", subscription);
            }
        }
    }
    drop(subscribers);
    drop(client);
    server.shutdown();
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_subscription_receives_its_matches_in_publish_order_once(
        subscriptions in prop::collection::vec(subscription_strategy(), 1..9),
        messages in prop::collection::vec((0usize..2, 0i64..16), 1..400),
        drop_new in any::<bool>(),
        capacity in 1usize..6,
    ) {
        check(&subscriptions, &messages, drop_new.then_some(capacity))?;
    }
}
