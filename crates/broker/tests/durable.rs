//! Tests for the durable subscription mode (paper §II-A: "in the durable
//! mode, messages are also forwarded to subscribers that are currently not
//! connected").

use rjms_broker::{Broker, BrokerConfig, Error, Filter, Message};
use std::time::Duration;

fn broker() -> Broker {
    let b = Broker::start(BrokerConfig::default());
    b.create_topic("t").unwrap();
    b
}

/// Waits until the broker has processed `n` received messages.
fn sync(b: &Broker, n: u64) {
    for _ in 0..400 {
        if b.snapshot().messages.received >= n {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("broker did not process {n} messages in time");
}

#[test]
fn durable_receives_live_messages_while_connected() {
    let b = broker();
    let sub = b.subscription("t").durable("worker").open().unwrap();
    assert!(sub.is_durable());
    assert_eq!(sub.durable_name(), Some("worker"));
    let p = b.publisher("t").unwrap();
    p.publish(Message::builder().build()).unwrap();
    assert!(sub.receive_timeout(Duration::from_secs(2)).is_some());
    b.shutdown();
}

#[test]
fn messages_retained_while_offline_and_delivered_on_reconnect() {
    let b = broker();
    let sub = b.subscription("t").durable("worker").open().unwrap();
    drop(sub); // go offline

    let p = b.publisher("t").unwrap();
    for i in 0..5i64 {
        p.publish(Message::builder().property("seq", i).build()).unwrap();
    }
    sync(&b, 5);
    assert_eq!(b.retained_count("t", "worker"), 5);
    assert_eq!(b.snapshot().messages.retained, 5);

    // Reconnect: retained backlog first, in publish order.
    let sub = b.subscription("t").durable("worker").open().unwrap();
    for i in 0..5i64 {
        let m = sub.receive_timeout(Duration::from_secs(2)).expect("retained message");
        assert_eq!(m.property("seq"), Some(&i.into()));
    }
    // Live delivery resumes after the backlog.
    p.publish(Message::builder().property("seq", 99i64).build()).unwrap();
    let m = sub.receive_timeout(Duration::from_secs(2)).expect("live message");
    assert_eq!(m.property("seq"), Some(&99i64.into()));
    b.shutdown();
}

#[test]
fn retained_backlog_respects_filter() {
    let b = broker();
    let sub = b
        .subscription("t")
        .durable("reds")
        .filter(Filter::selector("color = 'red'").unwrap())
        .open()
        .unwrap();
    drop(sub);

    let p = b.publisher("t").unwrap();
    p.publish(Message::builder().property("color", "red").build()).unwrap();
    p.publish(Message::builder().property("color", "blue").build()).unwrap();
    sync(&b, 2);
    assert_eq!(b.retained_count("t", "reds"), 1);
    b.shutdown();
}

#[test]
fn second_connection_under_same_name_rejected() {
    let b = broker();
    let _sub = b.subscription("t").durable("solo").open().unwrap();
    assert!(matches!(
        b.subscription("t").durable("solo").open(),
        Err(Error::DurableNameInUse { .. })
    ));
    b.shutdown();
}

#[test]
fn reconnect_with_different_filter_discards_backlog() {
    let b = broker();
    let sub = b
        .subscription("t")
        .durable("w")
        .filter(Filter::selector("color = 'red'").unwrap())
        .open()
        .unwrap();
    drop(sub);
    let p = b.publisher("t").unwrap();
    p.publish(Message::builder().property("color", "red").build()).unwrap();
    sync(&b, 1);
    assert_eq!(b.retained_count("t", "w"), 1);

    // JMS: changing the selector recreates the subscription.
    let sub = b
        .subscription("t")
        .durable("w")
        .filter(Filter::selector("color = 'blue'").unwrap())
        .open()
        .unwrap();
    assert!(sub.receive_timeout(Duration::from_millis(100)).is_none());
    b.shutdown();
}

#[test]
fn reconnect_with_same_filter_keeps_backlog() {
    let b = broker();
    let filter = Filter::selector("color = 'red'").unwrap();
    drop(b.subscription("t").durable("w").filter(filter.clone()).open().unwrap());
    let p = b.publisher("t").unwrap();
    p.publish(Message::builder().property("color", "red").build()).unwrap();
    sync(&b, 1);
    let sub = b.subscription("t").durable("w").filter(filter).open().unwrap();
    assert!(sub.receive_timeout(Duration::from_secs(2)).is_some());
    b.shutdown();
}

/// A disconnected durable subscription retains the newest 65 536.
#[test]
fn retained_buffer_drops_oldest_on_overflow() {
    const RETAINED_MAX: i64 = 65_536;
    let b = broker();
    drop(b.subscription("t").durable("w").open().unwrap());
    let p = b.publisher("t").unwrap();
    for i in 0..RETAINED_MAX + 3 {
        p.publish(Message::builder().property("seq", i).build()).unwrap();
    }
    // A message is counted received before it is retained: wait for the
    // last drop.
    sync(&b, RETAINED_MAX as u64 + 3);
    for _ in 0..400 {
        if b.snapshot().messages.dropped == 3 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(b.snapshot().messages.dropped, 3);
    assert_eq!(b.retained_count("t", "w"), RETAINED_MAX as usize);

    // The three oldest are the ones dropped.
    let sub = b.subscription("t").durable("w").open().unwrap();
    for i in 3..6i64 {
        let m = sub.receive_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(m.property("seq"), Some(&i.into()));
    }
    b.shutdown();
}

#[test]
fn unsubscribe_durable_lifecycle() {
    let b = broker();
    let sub = b.subscription("t").durable("w").open().unwrap();
    assert_eq!(b.durable_names("t"), vec!["w".to_owned()]);

    // Cannot remove while connected.
    assert!(matches!(b.unsubscribe_durable("t", "w"), Err(Error::DurableStillConnected { .. })));
    drop(sub);
    b.unsubscribe_durable("t", "w").unwrap();
    assert!(b.durable_names("t").is_empty());
    assert!(matches!(b.unsubscribe_durable("t", "w"), Err(Error::DurableNotFound { .. })));
    // After removal nothing is retained.
    let p = b.publisher("t").unwrap();
    p.publish(Message::builder().build()).unwrap();
    sync(&b, 1);
    assert_eq!(b.retained_count("t", "w"), 0);
    b.shutdown();
}

#[test]
fn unconsumed_messages_survive_disconnect() {
    let b = broker();
    let sub = b.subscription("t").durable("w").open().unwrap();
    let p = b.publisher("t").unwrap();
    for i in 0..4i64 {
        p.publish(Message::builder().property("seq", i).build()).unwrap();
    }
    sync(&b, 4);
    // Consume only the first message, then disconnect.
    let m = sub.receive_timeout(Duration::from_secs(2)).unwrap();
    assert_eq!(m.property("seq"), Some(&0i64.into()));
    drop(sub);

    // The three unconsumed messages were re-retained.
    assert_eq!(b.retained_count("t", "w"), 3);
    let sub = b.subscription("t").durable("w").open().unwrap();
    for i in 1..4i64 {
        let m = sub.receive_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(m.property("seq"), Some(&i.into()));
    }
    b.shutdown();
}

#[test]
fn expired_messages_not_delivered_live() {
    let b = broker();
    let sub = b.subscription("t").open().unwrap();
    let p = b.publisher("t").unwrap();
    // Already expired on arrival (TTL 0 → expires at build timestamp).
    p.publish(Message::builder().time_to_live(Duration::ZERO).build()).unwrap();
    p.publish(Message::builder().build()).unwrap();
    // Only the unexpired message arrives.
    let m = sub.receive_timeout(Duration::from_secs(2)).expect("live message");
    assert_eq!(m.expiration_millis(), None);
    assert!(sub.receive_timeout(Duration::from_millis(100)).is_none());
    assert_eq!(b.snapshot().messages.expired, 1);
    b.shutdown();
}

#[test]
fn expired_retained_messages_discarded_on_reconnect() {
    let b = broker();
    drop(b.subscription("t").durable("w").open().unwrap());
    let p = b.publisher("t").unwrap();
    p.publish(Message::builder().time_to_live(Duration::from_millis(30)).build()).unwrap();
    p.publish(Message::builder().build()).unwrap();
    sync(&b, 2);
    assert_eq!(b.retained_count("t", "w"), 2);

    // Let the first message's TTL lapse while offline.
    std::thread::sleep(Duration::from_millis(60));
    let sub = b.subscription("t").durable("w").open().unwrap();
    let m = sub.receive_timeout(Duration::from_secs(2)).expect("unexpired retained");
    assert_eq!(m.expiration_millis(), None);
    assert!(sub.receive_timeout(Duration::from_millis(50)).is_none());
    b.shutdown();
}

#[test]
fn durable_and_plain_subscribers_coexist() {
    let b = broker();
    let plain = b.subscription("t").open().unwrap();
    let durable = b.subscription("t").durable("d").open().unwrap();
    let p = b.publisher("t").unwrap();
    p.publish(Message::builder().build()).unwrap();
    assert!(plain.receive_timeout(Duration::from_secs(2)).is_some());
    assert!(durable.receive_timeout(Duration::from_secs(2)).is_some());
    // Both deliveries counted.
    for _ in 0..100 {
        if b.snapshot().messages.dispatched == 2 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(b.snapshot().messages.dispatched, 2);
    b.shutdown();
}

#[test]
fn durable_connected_reflects_lifecycle() {
    let b = broker();
    assert!(!b.durable_connected("t", "w"));
    let sub = b.subscription("t").durable("w").open().unwrap();
    assert!(b.durable_connected("t", "w"));
    drop(sub);
    assert!(!b.durable_connected("t", "w"));
    // Unknown topic/name are simply false.
    assert!(!b.durable_connected("t", "other"));
    assert!(!b.durable_connected("missing", "w"));
    b.shutdown();
}

#[test]
fn returned_message_is_received_next_and_survives_disconnect() {
    let b = broker();
    let sub = b.subscription("t").durable("w").open().unwrap();
    let p = b.publisher("t").unwrap();
    p.publish(Message::builder().property("seq", 0i64).build()).unwrap();
    p.publish(Message::builder().property("seq", 1i64).build()).unwrap();

    // Pull the first message, then put it back: it must come out first
    // again.
    let m0 = sub.receive_timeout(Duration::from_secs(2)).unwrap();
    sub.return_message(m0);
    let again = sub.receive_timeout(Duration::from_secs(2)).unwrap();
    assert_eq!(again.property("seq"), Some(&0i64.into()));

    // Pull seq 1, return it, disconnect: it must be re-retained and arrive
    // first on reconnect.
    let m1 = sub.receive_timeout(Duration::from_secs(2)).unwrap();
    assert_eq!(m1.property("seq"), Some(&1i64.into()));
    sub.return_message(m1);
    drop(sub);
    assert_eq!(b.retained_count("t", "w"), 1);
    let sub = b.subscription("t").durable("w").open().unwrap();
    let m = sub.receive_timeout(Duration::from_secs(2)).unwrap();
    assert_eq!(m.property("seq"), Some(&1i64.into()));
    b.shutdown();
}

/// Under `Block` (the default) the dispatcher waits inside `send` on a full
/// consumer queue while it holds the durable's connection; the consumer
/// that disconnects is the only thread that can make room, so it must not
/// wait for that lock. Nothing it had is lost, and the order on reconnect
/// is its backlog, what was queued, then what was published later.
#[test]
fn dropping_a_durable_with_a_full_queue_does_not_wait_for_the_blocked_dispatcher() {
    let b = Broker::start(BrokerConfig::builder().subscriber_queue_capacity(1).build());
    b.create_topic("t").unwrap();
    drop(b.subscription("t").durable("d").open().unwrap());
    let p = b.publisher("t").unwrap();
    let publish = |seq: i64| p.publish(Message::builder().property("seq", seq).build()).unwrap();
    publish(0);
    sync(&b, 1);
    // seq 0 is the backlog; 1 fills the queue, the dispatcher blocks on 2
    // and 3 waits in the publish queue.
    let sub = b.subscription("t").durable("d").open().unwrap();
    (1..=3).for_each(publish);
    sync(&b, 3);

    let dropping = std::thread::spawn(move || drop(sub));
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    while !dropping.is_finished() {
        if std::time::Instant::now() > deadline {
            // Shutting the broker down would hang behind the dispatcher.
            std::mem::forget(b);
            panic!("dropping the subscriber waits on the dispatcher it blocks");
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    // `received` is counted before the message is retained: poll the count.
    for _ in 0..400 {
        if b.retained_count("t", "d") == 4 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(b.retained_count("t", "d"), 4);
    let sub = b.subscription("t").durable("d").open().unwrap();
    for seq in 0..=3i64 {
        let m = sub.receive_timeout(Duration::from_secs(2)).expect("retained message");
        assert_eq!(m.property("seq"), Some(&seq.into()));
    }
    b.shutdown();
}
