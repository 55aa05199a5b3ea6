//! Application-property selectors through the dispatcher: every selector
//! of a topic reads the message's properties from one per-topic slot
//! table, and each subscription's program is bound to that table. These
//! tests move the table under live subscriptions — a new name mid-stream,
//! a prune, a durable changing its selector, a wildcard spanning topics —
//! and check who received what; a binding left pointing at the old table
//! fails them. `filter_evaluations` shows the scan stayed brute force.

use rjms_broker::{Broker, BrokerConfig, Filter, Message, MessageBuilder, Priority, Subscriber};
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn broker(topics: &[&str]) -> Broker {
    let b = Broker::start(BrokerConfig::default());
    for topic in topics {
        b.create_topic(topic).unwrap();
    }
    b
}

fn selector(source: &str) -> Filter {
    Filter::selector(source).unwrap()
}

fn subscribe(b: &Broker, target: &str, source: &str) -> Subscriber {
    b.subscription(target).filter(selector(source)).open().unwrap()
}

fn durable(b: &Broker, name: &str, filter: Filter) -> Subscriber {
    b.subscription("t").durable(name).filter(filter).open().unwrap()
}

/// A message that carries its number as the property `seq`.
fn numbered(seq: i64) -> MessageBuilder {
    Message::builder().property("seq", seq)
}

/// Waits until the dispatcher has fully fanned out everything published:
/// the evaluation count is booked after a message's last delivery. Then
/// asserts the count, i.e. that every live filter was evaluated, once.
#[track_caller]
fn expect_evaluations(b: &Broker, evaluations: u64) {
    for _ in 0..400 {
        if b.snapshot().messages.filter_evaluations >= evaluations {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(b.snapshot().messages.filter_evaluations, evaluations);
}

/// The numbers of the messages waiting in `sub`'s queue.
fn received(sub: &Subscriber) -> Vec<i64> {
    std::iter::from_fn(|| sub.try_receive())
        .map(|m| m.property("seq").and_then(|v| v.numeric()).expect("numbered") as i64)
        .collect()
}

#[test]
fn a_selector_with_a_new_property_name_joins_mid_stream() {
    let b = broker(&["t"]);
    let p = b.publisher("t").unwrap();
    let red = subscribe(&b, "t", "color = 'red'");
    p.publish(numbered(1).property("color", "red").property("size", 5i64).build()).unwrap();
    expect_evaluations(&b, 1);

    // `size` is new to the topic's table, and this selector names `color`,
    // the table's first slot, second.
    let big_red = subscribe(&b, "t", "size > 3 AND color = 'red'");
    p.publish(numbered(2).property("color", "blue").property("size", 5i64).build()).unwrap();
    p.publish(numbered(3).property("color", "red").property("size", 1i64).build()).unwrap();
    p.publish(numbered(4).property("color", "red").property("size", 9i64).build()).unwrap();
    p.publish(numbered(5).property("size", 9i64).build()).unwrap();
    expect_evaluations(&b, 1 + 4 * 2);
    assert_eq!(received(&red), [1, 3, 4]);
    assert_eq!(received(&big_red), [4]);
    b.shutdown();
}

#[test]
fn dropping_subscribers_reshapes_the_table_under_the_survivors() {
    let b = broker(&["t"]);
    let p = b.publisher("t").unwrap();
    let all_set = |seq| numbered(seq).property("a", 1i64).property("b", 2i64).property("c", 3i64);
    let on_a = subscribe(&b, "t", "a = 1");
    let on_b = subscribe(&b, "t", "b = 2");
    let on_c_and_b = subscribe(&b, "t", "c = 3 AND b = 2");
    p.publish(all_set(1).build()).unwrap();
    expect_evaluations(&b, 3);
    assert_eq!(received(&on_a), [1]);

    // The scan of message 2 skips the dead subscription and prunes it: `a`
    // leaves the table, `b` and `c` move down a slot.
    drop(on_a);
    p.publish(all_set(2).build()).unwrap();
    p.publish(all_set(3).build()).unwrap();
    p.publish(numbered(4).property("a", 1i64).property("b", 0i64).property("c", 3i64).build())
        .unwrap();
    expect_evaluations(&b, 3 + 3 * 2);
    assert_eq!(b.subscription_count("t"), 2);
    assert_eq!(received(&on_b), [1, 2, 3]);
    assert_eq!(received(&on_c_and_b), [1, 2, 3]);

    // A newcomer interns into the reshaped table.
    let on_a_and_c = subscribe(&b, "t", "a = 1 AND c = 3");
    p.publish(all_set(5).build()).unwrap();
    p.publish(numbered(6).property("a", 1i64).property("b", 2i64).build()).unwrap();
    expect_evaluations(&b, 9 + 2 * 3);
    assert_eq!(received(&on_b), [5, 6]);
    assert_eq!(received(&on_c_and_b), [5]);
    assert_eq!(received(&on_a_and_c), [5]);
    b.shutdown();
}

#[test]
fn a_durable_reconnecting_with_another_selector_is_rebound() {
    let b = broker(&["t"]);
    let p = b.publisher("t").unwrap();
    let message = |seq, kind: &str, level: i64| {
        numbered(seq).property("kind", kind).property("level", level).property("region", "eu")
    };
    let plain = subscribe(&b, "t", "level > 1");
    let worker = durable(&b, "worker", selector("kind = 'x' AND level > 1"));
    p.publish(message(1, "x", 2).build()).unwrap();
    expect_evaluations(&b, 2);
    assert_eq!(received(&worker), [1]);

    // The new selector drops `kind` from the table and brings `region`.
    drop(worker);
    let worker = durable(&b, "worker", selector("region = 'eu' AND level > 5"));
    p.publish(message(2, "x", 2).build()).unwrap();
    p.publish(message(3, "y", 9).build()).unwrap();
    expect_evaluations(&b, 2 + 2 * 2);
    assert_eq!(received(&worker), [3]);
    assert_eq!(received(&plain), [1, 2, 3]);

    // Removing it reshapes the table once more; the plain one stays bound.
    drop(worker);
    b.unsubscribe_durable("t", "worker").unwrap();
    p.publish(message(4, "x", 0).build()).unwrap();
    p.publish(message(5, "x", 7).build()).unwrap();
    expect_evaluations(&b, 6 + 2);
    assert_eq!(received(&plain), [5]);
    b.shutdown();
}

#[test]
fn a_durable_changing_from_no_filter_to_a_selector_gets_bound() {
    // The topic's table is empty until the durable comes back.
    let b = broker(&["t"]);
    let p = b.publisher("t").unwrap();
    let worker = durable(&b, "worker", Filter::None);
    p.publish(numbered(1).property("level", 2i64).build()).unwrap();
    expect_evaluations(&b, 1);
    assert_eq!(received(&worker), [1]);

    drop(worker);
    let worker = durable(&b, "worker", selector("level > 5"));
    p.publish(numbered(2).property("level", 2i64).build()).unwrap();
    p.publish(numbered(3).property("level", 9i64).build()).unwrap();
    expect_evaluations(&b, 3);
    assert_eq!(received(&worker), [3]);
    b.shutdown();
}

#[test]
fn filter_kinds_mix_on_one_topic() {
    let b = broker(&["t"]);
    let p = b.publisher("t").unwrap();
    let unfiltered = b.subscription("t").open().unwrap();
    let by_range =
        b.subscription("t").filter(Filter::correlation_id("[7;13]").unwrap()).open().unwrap();
    let by_selector = subscribe(&b, "t", "JMSCorrelationID = '#9' AND weight > 2");
    let urgent = durable(&b, "urgent", selector("JMSPriority >= 7"));

    p.publish(numbered(1).correlation_id("#9").property("weight", 3i64).build()).unwrap();
    p.publish(
        numbered(2)
            .correlation_id("#42")
            .property("weight", 3i64)
            .priority(Priority::new(9))
            .build(),
    )
    .unwrap();
    p.publish(numbered(3).property("weight", 1i64).build()).unwrap();
    p.publish(numbered(4).correlation_id("#9").priority(Priority::new(7)).build()).unwrap();
    expect_evaluations(&b, 4 * 4);
    assert_eq!(received(&unfiltered), [1, 2, 3, 4]);
    assert_eq!(received(&by_range), [1, 4]);
    assert_eq!(received(&by_selector), [1]);
    assert_eq!(received(&urgent), [2, 4]);
    assert_eq!(b.snapshot().messages.dispatched, 4 + 2 + 1 + 2);
    b.shutdown();
}

#[test]
fn every_header_field_resolves_through_the_table() {
    let b = broker(&["t"]);
    let p = b.publisher("t").unwrap();
    let first = numbered(1).message_type("alert").build();
    let second = numbered(2).time_to_live(Duration::from_secs(60)).build();
    let subs = [
        (subscribe(&b, "t", &format!("JMSMessageID = '{}'", second.id())), vec![2]),
        (subscribe(&b, "t", "JMSMessageID LIKE 'ID:%' AND JMSTimestamp > 0"), vec![1, 2]),
        (subscribe(&b, "t", "JMSType = 'alert'"), vec![1]),
        (subscribe(&b, "t", "JMSType IS NULL AND JMSCorrelationID IS NULL"), vec![2]),
        (subscribe(&b, "t", "JMSExpiration = 0 AND JMSPriority = 4"), vec![1]),
        (subscribe(&b, "t", "JMSExpiration > JMSTimestamp"), vec![2]),
    ];
    p.publish(first).unwrap();
    p.publish(second).unwrap();
    expect_evaluations(&b, 2 * subs.len() as u64);
    for (sub, expected) in &subs {
        assert_eq!(received(sub), *expected);
    }
    b.shutdown();
}

#[test]
fn a_wildcard_subscription_is_bound_to_each_topic_s_own_table() {
    // On x.a the table already holds `p` when the wildcard arrives; on x.b
    // and on x.c, created later, the wildcard's own order makes the table.
    let b = broker(&["x.a", "x.b"]);
    let only_p = subscribe(&b, "x.a", "p = 1");
    let wild = subscribe(&b, "x.*", "q = 2 AND p = 1");
    b.create_topic("x.c").unwrap();
    let mut seq = 0;
    for topic in ["x.a", "x.b", "x.c"] {
        let p = b.publisher(topic).unwrap();
        for (p_value, q_value) in [(1i64, 2i64), (2, 1), (1, 1)] {
            seq += 1;
            p.publish(numbered(seq).property("p", p_value).property("q", q_value).build()).unwrap();
        }
    }
    expect_evaluations(&b, 3 * 2 + 3 + 3);
    assert_eq!(received(&only_p), [1, 3]);
    assert_eq!(received(&wild), [1, 4, 7]);
    b.shutdown();
}

#[test]
fn subscribers_dropped_mid_stream_leave_the_scan_to_the_survivors() {
    // 130 liveness flags are three pages; every third one is cleared.
    const N: usize = 130;
    let b = broker(&["t"]);
    let p = b.publisher("t").unwrap();
    let publish_all = |seq: i64| {
        for key in 0..N as i64 {
            p.publish(numbered(seq).property("key", key).build()).unwrap();
        }
    };
    let mut subs: Vec<Option<Subscriber>> =
        (0..N).map(|i| Some(subscribe(&b, "t", &format!("key = {i}")))).collect();
    publish_all(1);
    expect_evaluations(&b, (N * N) as u64);

    let dropped: Vec<Subscriber> = subs.iter_mut().step_by(3).filter_map(Option::take).collect();
    let live = N - dropped.len();
    drop(dropped);
    // The first message after the drop prunes them before its scan; no
    // scan meets them. The living, once each.
    publish_all(2);
    expect_evaluations(&b, (N * N + N * live) as u64);
    assert_eq!(b.subscription_count("t"), live);
    for sub in subs.iter().flatten() {
        assert_eq!(received(sub), [1, 2]);
    }
    // A newcomer's row goes behind the rebuilt ones.
    let late = subscribe(&b, "t", "key = 0");
    publish_all(3);
    expect_evaluations(&b, (N * N + N * live + N * (live + 1)) as u64);
    assert_eq!(received(&late), [3]);
    for sub in subs.iter().flatten() {
        assert_eq!(received(sub), [3]);
    }
    b.shutdown();
}

#[test]
fn a_wildcard_subscriber_dropped_once_goes_quiet_on_every_topic() {
    let b = broker(&["x.a", "x.b"]);
    let (on_a, on_b) = (b.publisher("x.a").unwrap(), b.publisher("x.b").unwrap());
    let stays = subscribe(&b, "x.b", "key = 1");
    let wild = subscribe(&b, "x.*", "key = 1");
    on_a.publish(numbered(1).property("key", 1i64).build()).unwrap();
    on_b.publish(numbered(2).property("key", 1i64).build()).unwrap();
    expect_evaluations(&b, 1 + 2);
    assert_eq!(received(&wild), [1, 2]);

    // One flag, one row per topic: both scans see it cleared.
    drop(wild);
    on_a.publish(numbered(3).property("key", 1i64).build()).unwrap();
    on_b.publish(numbered(4).property("key", 1i64).build()).unwrap();
    expect_evaluations(&b, 3 + 1);
    assert_eq!((b.subscription_count("x.a"), b.subscription_count("x.b")), (0, 1));
    assert_eq!(received(&stays), [2, 4]);
    b.shutdown();
}

#[test]
fn a_durable_changing_its_selector_rebinds_the_compact_rows() {
    // `level` is the table's second name while the durable holds `kind`
    // and its first once the durable has let go of it: a row left with the
    // old slot would read `region`.
    let b = broker(&["t"]);
    let p = b.publisher("t").unwrap();
    let message = |seq, level: i64| {
        numbered(seq).property("kind", 1i64).property("level", level).property("region", 5i64)
    };
    let worker = durable(&b, "worker", selector("kind = 1"));
    let high = subscribe(&b, "t", "level > 3");
    let low = subscribe(&b, "t", "3 >= level");
    p.publish(message(1, 5).build()).unwrap();
    expect_evaluations(&b, 3);

    drop(worker);
    let worker = durable(&b, "worker", selector("region = 5 AND level > 0"));
    p.publish(message(2, 1).build()).unwrap();
    p.publish(message(3, 4).build()).unwrap();
    expect_evaluations(&b, 3 + 2 * 3);
    assert_eq!(received(&high), [1, 3]);
    assert_eq!(received(&low), [2]);
    // A change of selector discards what the durable had retained.
    assert_eq!(received(&worker), [2, 3]);
    b.shutdown();
}

/// A message's copies leave in subscription order, however its filters are
/// evaluated: runs of one to three compact rows of two shapes (`key = i`,
/// `key < i`), each a column, with a correlation-ID filter, a string
/// literal and a durable subscription between them. Each subscription's
/// wake hook records its name as the dispatcher queues its copy.
#[test]
fn copies_leave_in_subscription_order_across_columns_and_other_rows() {
    let b = broker(&["t"]);
    let woken = Arc::new(Mutex::new(Vec::new()));
    let open = |name: &'static str, filter: Filter, durable: bool| {
        let woken = Arc::clone(&woken);
        let sub = b.subscription("t").filter(filter);
        let sub = sub.wake(Arc::new(move || woken.lock().unwrap().push(name)));
        if durable { sub.durable(name) } else { sub }.open().unwrap()
    };
    let _subs = [
        open("a", selector("key = 1"), false),
        open("b", selector("key = 4"), false),
        open("c", selector("key = 1"), false),
        open("d", selector("key < 5"), false),
        open("e", selector("key < 2"), false),
        open("f", Filter::correlation_id("#1").unwrap(), false),
        open("g", selector("key = 4"), false),
        open("h", selector("color = 'red'"), false),
        open("i", selector("key = 1"), true),
        open("j", selector("key < 9"), false),
    ];
    let p = b.publisher("t").unwrap();
    let first = numbered(1).property("key", 1i64).property("color", "red").correlation_id("#1");
    p.publish(first.build()).unwrap();
    p.publish(numbered(2).property("key", 4i64).build()).unwrap();
    expect_evaluations(&b, 2 * 10);
    let order = ["a", "c", "d", "e", "f", "h", "i", "j", "b", "d", "g", "j"];
    assert_eq!(*woken.lock().unwrap(), order);
    b.shutdown();
}
