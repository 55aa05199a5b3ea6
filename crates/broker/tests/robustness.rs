//! Failure injection and back-pressure behaviour of the broker.

use rjms_broker::{
    Broker, BrokerConfig, BrokerSnapshot, Filter, Message, MetricsConfig, OverflowPolicy,
    ShardSnapshot,
};
use rjms_core::CostParams;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The push-back mechanism: with a slow dispatcher and a bounded publish
/// queue, a saturated publisher is throttled to the dispatch rate instead
/// of growing memory (paper §IV-B.1: "the major part of the messages are
/// queued at the publisher site").
#[test]
fn publisher_is_throttled_to_dispatch_rate() {
    let per_message = Duration::from_millis(2);
    let broker = Broker::start(
        BrokerConfig::builder()
            .publish_queue_capacity(4)
            .cost_model(CostParams::new(per_message.as_secs_f64(), 0.0, 0.0))
            .build(),
    );
    broker.create_topic("t").unwrap();
    let publisher = broker.publisher("t").unwrap();

    // Fill the pipeline, then time how long additional publishes take.
    for _ in 0..8 {
        publisher.publish(Message::builder().build()).unwrap();
    }
    let start = Instant::now();
    let extra = 20;
    for _ in 0..extra {
        publisher.publish(Message::builder().build()).unwrap();
    }
    let elapsed = start.elapsed();
    // Each publish must have waited ~one dispatch slot.
    assert!(
        elapsed >= per_message * (extra - 4),
        "publisher was not throttled: {extra} publishes in {elapsed:?}"
    );
    broker.shutdown();
}

/// A subscriber that disappears while the dispatcher is *blocked* sending
/// into its full queue must not wedge the broker (Block overflow policy).
#[test]
fn subscriber_crash_unblocks_dispatcher() {
    let broker = Broker::start(
        BrokerConfig::builder()
            .subscriber_queue_capacity(1)
            .overflow_policy(OverflowPolicy::Block)
            .build(),
    );
    broker.create_topic("t").unwrap();

    let stuck = broker.subscription("t").open().unwrap();
    let healthy = broker.subscription("t").open().unwrap();
    let publisher = broker.publisher("t").unwrap();

    // Two messages: the first fills `stuck`'s queue, the second blocks the
    // dispatcher on it (subscriptions are scanned in creation order).
    publisher.publish(Message::builder().property("seq", 0i64).build()).unwrap();
    publisher.publish(Message::builder().property("seq", 1i64).build()).unwrap();
    // Give the dispatcher time to block.
    std::thread::sleep(Duration::from_millis(100));

    // Crash the stuck subscriber: the blocked send must fail over and the
    // dispatcher must deliver everything else.
    drop(stuck);
    for seq in 0..2i64 {
        let m = healthy
            .receive_timeout(Duration::from_secs(5))
            .unwrap_or_else(|| panic!("dispatcher wedged before seq {seq}"));
        assert_eq!(m.property("seq"), Some(&seq.into()));
    }
    // Broker still fully operational.
    publisher.publish(Message::builder().property("seq", 2i64).build()).unwrap();
    assert!(healthy.receive_timeout(Duration::from_secs(5)).is_some());
    assert!(broker.snapshot().subscriptions.expired >= 1);
    broker.shutdown();
}

/// Dropping the broker mid-traffic shuts down cleanly (Drop impl) without
/// deadlocking publishers or subscribers.
#[test]
fn broker_drop_mid_traffic_is_clean() {
    // The subscriber queue must be large enough that the pump cannot fill
    // it before the drain below starts: with the Block overflow policy,
    // shutdown waits for queued deliveries (reliable persistent delivery),
    // so a full queue and a not-yet-draining subscriber would deadlock the
    // drop. See `Broker::shutdown` docs.
    let broker = Broker::start(
        BrokerConfig::builder()
            .publish_queue_capacity(8)
            .subscriber_queue_capacity(1 << 20)
            .build(),
    );
    broker.create_topic("t").unwrap();
    let publisher = broker.publisher("t").unwrap();
    let subscriber = broker.subscription("t").open().unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let pub_stop = Arc::clone(&stop);
    let pump = std::thread::spawn(move || {
        let mut sent = 0u64;
        while !pub_stop.load(Ordering::Relaxed) {
            if publisher.publish(Message::builder().build()).is_err() {
                break; // broker went away — expected
            }
            sent += 1;
        }
        sent
    });
    std::thread::sleep(Duration::from_millis(50));
    drop(broker); // shutdown while the pump is running
    stop.store(true, Ordering::Relaxed);
    let sent = pump.join().expect("publisher thread must exit");
    assert!(sent > 0);
    // The subscriber drains whatever was delivered, then sees the closure.
    while subscriber.receive().is_ok() {}
}

/// Slow consumers under DropNew lose messages but never block the
/// dispatcher; counts stay consistent.
#[test]
fn drop_new_policy_keeps_counts_consistent() {
    let broker = Broker::start(
        BrokerConfig::builder()
            .subscriber_queue_capacity(2)
            .overflow_policy(OverflowPolicy::DropNew)
            .build(),
    );
    broker.create_topic("t").unwrap();
    let sub = broker.subscription("t").open().unwrap();
    let publisher = broker.publisher("t").unwrap();
    let total = 200u64;
    for _ in 0..total {
        publisher.publish(Message::builder().build()).unwrap();
    }
    for _ in 0..400 {
        if broker.snapshot().messages.received == total {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let messages = broker.snapshot().messages;
    assert_eq!(messages.received, total);
    assert_eq!(messages.dispatched + messages.dropped, total);
    // Whatever was dispatched is actually receivable.
    let mut got = 0u64;
    while sub.receive_timeout(Duration::from_millis(50)).is_some() {
        got += 1;
    }
    assert_eq!(got, messages.dispatched);
    broker.shutdown();
}

/// Hundreds of churning subscribers (subscribe + drop under load) never
/// corrupt delivery for a stable observer.
#[test]
fn subscription_churn_under_load() {
    let broker = Broker::start(BrokerConfig::builder().subscriber_queue_capacity(1 << 14).build());
    broker.create_topic("t").unwrap();
    let observer = broker.subscription("t").open().unwrap();
    let publisher = broker.publisher("t").unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let churn_stop = Arc::clone(&stop);
    let broker_ref = &broker;
    std::thread::scope(|scope| {
        scope.spawn(move || {
            while !churn_stop.load(Ordering::Relaxed) {
                let subs: Vec<_> = (0..16)
                    .map(|i| {
                        broker_ref
                            .subscription("t")
                            .filter(Filter::correlation_id(&format!("#{i}")).unwrap())
                            .open()
                            .unwrap()
                    })
                    .collect();
                drop(subs);
            }
        });
        let total = 1_000;
        for i in 0..total {
            publisher.publish(Message::builder().property("seq", i as i64).build()).unwrap();
        }
        for i in 0..total {
            let m = observer.receive_timeout(Duration::from_secs(5)).expect("delivery");
            assert_eq!(m.property("seq"), Some(&(i as i64).into()));
        }
        stop.store(true, Ordering::Relaxed);
    });
    broker.shutdown();
}

/// Half of 64 selector subscribers dropped one by one while two publishers
/// saturate the topic: no panic and no failed publish; every survivor holds
/// every message it matches; and once the drops are over, each message
/// evaluates exactly the 32 survivors and copies to exactly its match.
#[test]
fn subscribers_dropped_while_saturated_leave_exact_counts() {
    const KEYS: i64 = 64;
    const PER_PUBLISHER: i64 = 300 * KEYS;
    let broker = Broker::start(
        BrokerConfig::builder()
            .publish_queue_capacity(64)
            .subscriber_queue_capacity(1 << 16)
            .overflow_policy(OverflowPolicy::DropNew)
            .build(),
    );
    broker.create_topic("t").unwrap();
    broker.create_topic("fence").unwrap();
    let selector = |key| Filter::selector(&format!("key = {key}")).unwrap();
    let (survivors, doomed): (Vec<_>, Vec<_>) = (0..KEYS)
        .map(|key| (key, broker.subscription("t").filter(selector(key)).open().unwrap()))
        .partition(|(key, _)| key % 2 == 1);
    let message = |i: i64| Message::builder().property("key", i % KEYS).build();

    let failed: usize = std::thread::scope(|scope| {
        let publishers: Vec<_> = (0..2)
            .map(|_| {
                let publisher = broker.publisher("t").unwrap();
                scope.spawn(move || {
                    (0..PER_PUBLISHER).filter(|i| publisher.publish(message(*i)).is_err()).count()
                })
            })
            .collect();
        scope.spawn(move || {
            for sub in doomed {
                drop(sub);
                std::thread::sleep(Duration::from_micros(500));
            }
        });
        publishers.into_iter().map(|p| p.join().unwrap()).sum()
    });
    assert_eq!(failed, 0);
    // A message on a topic nobody subscribes to, once dequeued, shows that
    // the dispatcher has booked everything published before it.
    let fences = broker.publisher("fence").unwrap();
    let fenced = |n: u64| {
        fences.publish(Message::builder().build()).unwrap();
        for _ in 0..2000 {
            if broker.snapshot().per_topic["fence"].received == n {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let snap = broker.snapshot();
        assert_eq!(snap.per_topic["fence"].received, n);
        snap
    };
    let saturated = fenced(1);
    let sent = 2 * PER_PUBLISHER as u64;
    assert_eq!((saturated.per_topic["t"].received, saturated.messages.dropped), (sent, 0));
    assert_eq!(broker.subscription_count("t"), KEYS as usize / 2);
    for (key, sub) in &survivors {
        let keys: Vec<_> = sub.drain().iter().map(|m| m.property("key").cloned()).collect();
        assert_eq!(keys, vec![Some((*key).into()); 2 * PER_PUBLISHER as usize / KEYS as usize]);
    }

    let publisher = broker.publisher("t").unwrap();
    (0..KEYS).for_each(|i| publisher.publish(message(i)).unwrap());
    let after = fenced(2);
    let gained = |count: fn(&BrokerSnapshot) -> u64| count(&after) - count(&saturated);
    let evaluations = gained(|s| s.messages.filter_evaluations);
    let copies = gained(|s| s.messages.dispatched);
    assert_eq!((evaluations, copies), (KEYS as u64 * KEYS as u64 / 2, KEYS as u64 / 2));
    assert_eq!((gained(|s| s.subscriptions.expired), after.messages.dropped), (0, 0));
    assert!(survivors.iter().all(|(_, sub)| sub.queued() == 1));
    broker.shutdown();
}

/// Per-topic counters track received/dispatched independently per topic.
#[test]
fn topic_stats_are_per_topic() {
    let broker = Broker::start(BrokerConfig::default());
    broker.create_topic("a").unwrap();
    broker.create_topic("b").unwrap();
    let sub_a1 = broker.subscription("a").open().unwrap();
    let sub_a2 = broker.subscription("a").open().unwrap();
    let _sub_b =
        broker.subscription("b").filter(Filter::correlation_id("#1").unwrap()).open().unwrap();

    let pa = broker.publisher("a").unwrap();
    let pb = broker.publisher("b").unwrap();
    for _ in 0..3 {
        pa.publish(Message::builder().build()).unwrap();
    }
    pb.publish(Message::builder().correlation_id("#0").build()).unwrap();

    for _ in 0..6 {
        let _ = sub_a1.receive_timeout(Duration::from_secs(2));
        let _ = sub_a2.receive_timeout(Duration::from_millis(50));
    }
    for _ in 0..200 {
        if broker.snapshot().messages.received == 4 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let per_topic = broker.snapshot().per_topic;
    let a = &per_topic["a"];
    assert_eq!(a.received, 3);
    assert_eq!(a.dispatched, 6);
    assert_eq!(a.replication_grade(), Some(2.0));
    let b = &per_topic["b"];
    assert_eq!(b.received, 1);
    assert_eq!(b.dispatched, 0); // the only filter did not match
    assert!(!per_topic.contains_key("missing"));
    broker.shutdown();
}

/// Each per-message fact has one counter, on the topic; the broker's and
/// the shards' totals are sums of those, so they agree exactly — expired
/// messages included, which count as received ("popped off the publish
/// queue") everywhere, and with metrics on the exported series say the same.
#[test]
fn broker_shard_and_topic_totals_are_one_count() {
    let broker =
        Broker::start(BrokerConfig::builder().shards(2).metrics(MetricsConfig::default()).build());
    // With two shards, `alpha` and `beta` hash to one and `gamma` to the other.
    let topics = ["alpha", "beta", "gamma"];
    let mut subscribers = Vec::new();
    let (mut published, mut expired) = (0u64, 0u64);
    for (i, topic) in topics.iter().enumerate() {
        broker.create_topic(topic).unwrap();
        for _ in 0..=i {
            subscribers.push(broker.subscription(topic).open().unwrap());
        }
        let miss = Filter::correlation_id("x").unwrap();
        subscribers.push(broker.subscription(topic).filter(miss).open().unwrap());
        let publisher = broker.publisher(topic).unwrap();
        for n in 0..10 * (i as u64 + 1) {
            let message = Message::builder();
            let dead = n % 3 == 0;
            let message = if dead { message.time_to_live(Duration::ZERO) } else { message };
            publisher.publish(message.build()).unwrap();
            published += 1;
            expired += u64::from(dead);
        }
    }
    let (observer, registry) = (broker.observer(), broker.metrics().expect("metrics on"));
    broker.shutdown();

    let snap = observer.snapshot();
    let shards = snap.shards.as_ref().expect("two shards");
    assert!(shards.iter().all(|s| s.received > 0), "{shards:?}");
    let messages = snap.messages;
    assert_eq!((messages.received, messages.expired), (published, expired));
    let over_shards = |field: fn(&ShardSnapshot) -> u64| shards.iter().map(field).sum::<u64>();
    assert_eq!(over_shards(|s| s.received), published);
    assert_eq!(over_shards(|s| s.dispatched), messages.dispatched);
    assert_eq!(over_shards(|s| s.filter_evaluations), messages.filter_evaluations);
    assert_eq!(snap.per_topic.values().map(|t| t.received).sum::<u64>(), published);
    assert_eq!(snap.per_topic.values().map(|t| t.dispatched).sum::<u64>(), messages.dispatched);
    // 6, 13 and 20 live messages on topics with 1, 2 and 3 matching
    // subscriptions and one that does not match.
    assert_eq!((messages.dispatched, messages.filter_evaluations), (92, 131));

    let counters = registry.snapshot().counters;
    let series = |base: &str| {
        counters.iter().filter(|(name, _)| name.starts_with(base)).map(|(_, v)| *v).sum::<u64>()
    };
    assert_eq!(series("broker.topic.received{"), published);
    assert_eq!(series("broker.topic.dispatched{"), messages.dispatched);
}
