//! Write-ahead persistence integration tests: restart recovery, torn-frame
//! crash recovery with re-delivery to durable subscribers, checkpointing,
//! and the journal counters surfaced through `BrokerStats`.

use rjms_broker::{
    shard_of, Broker, BrokerConfig, Error, Filter, Message, PersistenceConfig, TryPublishError,
};
use rjms_journal::{scratch_dir, segment::segment_file_name, FsyncPolicy};
use std::path::Path;
use std::time::Duration;

fn persistent_config(dir: &Path) -> BrokerConfig {
    BrokerConfig::builder()
        .persistence(PersistenceConfig::new(dir).journal(|j| j.fsync(FsyncPolicy::Always)))
        .build()
}

/// Polls until `ready` holds, for at most two seconds.
fn wait_for(what: &str, ready: impl Fn() -> bool) {
    for _ in 0..400 {
        if ready() {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("timed out waiting for {what}");
}

/// Waits until the dispatcher has *taken* `n` messages off the publish
/// queue. It counts a message before it journals, retains or delivers it,
/// so this orders nothing but a following `shutdown` (which drains); a
/// test that asserts on what processing leaves behind waits for that
/// with [`wait_for`].
fn sync(b: &Broker, n: u64) {
    wait_for("the broker to receive the messages", || b.snapshot().messages.received >= n);
}

fn cleanup(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn restart_recovers_topics_durables_and_retained_backlog() {
    let dir = scratch_dir("bkr-restart");
    {
        let b = Broker::start(persistent_config(&dir));
        b.create_topic("stocks").unwrap();
        drop(b.subscription("stocks").durable("auditor").open().unwrap());
        let p = b.publisher("stocks").unwrap();
        for i in 0..8i64 {
            p.publish(
                Message::builder()
                    .correlation_id(format!("#{i}"))
                    .property("seq", i)
                    .body(vec![i as u8; 16])
                    .build(),
            )
            .unwrap();
        }
        sync(&b, 8);
        b.shutdown();
    }

    let b = Broker::start(persistent_config(&dir));
    // Topology survived: the topic and the durable subscription exist.
    assert!(matches!(b.create_topic("stocks"), Err(Error::TopicExists { .. })));
    assert_eq!(b.durable_names("stocks"), vec!["auditor".to_owned()]);
    assert_eq!(b.retained_count("stocks", "auditor"), 8);
    // topic + durable + 8 publishes
    assert_eq!(b.snapshot().journal.expect("persistence enabled").frames_recovered, 10);

    // The backlog is re-delivered in publish order with headers intact.
    let sub = b.subscription("stocks").durable("auditor").open().unwrap();
    for i in 0..8i64 {
        let m = sub.receive_timeout(Duration::from_secs(2)).expect("recovered message");
        assert_eq!(m.property("seq"), Some(&i.into()));
        assert_eq!(m.correlation_id(), Some(format!("#{i}").as_str()));
        assert_eq!(m.body().as_ref(), &vec![i as u8; 16][..]);
    }
    b.shutdown();
    cleanup(&dir);
}

#[test]
fn torn_tail_recovers_to_last_whole_frame_and_redelivers() {
    let dir = scratch_dir("bkr-torn");
    let n = 12i64;
    {
        let b = Broker::start(persistent_config(&dir));
        b.create_topic("t").unwrap();
        drop(b.subscription("t").durable("w").open().unwrap());
        let p = b.publisher("t").unwrap();
        for i in 0..n {
            p.publish(Message::builder().property("seq", i).build()).unwrap();
        }
        sync(&b, n as u64);
        b.shutdown();
    }

    // Simulate a crash mid-write: cut the active segment inside its final
    // frame (the last publish record).
    let segment = dir.join(segment_file_name(0));
    let len = std::fs::metadata(&segment).unwrap().len();
    std::fs::OpenOptions::new().write(true).open(&segment).unwrap().set_len(len - 3).unwrap();

    let b = Broker::start(persistent_config(&dir));
    // Recovery stops at the last whole frame: the final publish is gone,
    // everything before it is intact.
    assert_eq!(b.retained_count("t", "w"), n as usize - 1);
    let recovered = b.snapshot().journal.expect("persistence enabled");
    assert!(recovered.torn_bytes_truncated > 0, "torn tail should have been cut");

    let sub = b.subscription("t").durable("w").open().unwrap();
    for i in 0..n - 1 {
        let m = sub.receive_timeout(Duration::from_secs(2)).expect("re-delivered message");
        assert_eq!(m.property("seq"), Some(&i.into()));
    }
    assert!(sub.receive_timeout(Duration::from_millis(100)).is_none());

    // The journal accepts new appends after truncating the torn tail.
    let p = b.publisher("t").unwrap();
    p.publish(Message::builder().property("seq", 99i64).build()).unwrap();
    let m = sub.receive_timeout(Duration::from_secs(2)).expect("post-recovery message");
    assert_eq!(m.property("seq"), Some(&99i64.into()));
    b.shutdown();
    cleanup(&dir);
}

/// The recovery `Broker::start` runs reads every sealed segment, so a
/// corrupt one is found there, and the broker refuses to start.
#[test]
fn a_corrupt_sealed_segment_is_refused_by_the_start_up_recovery() {
    let dir = scratch_dir("bkr-sealed-corrupt");
    // Every publish record overflows a 64-byte segment: one segment each.
    let config = || {
        BrokerConfig::builder()
            .persistence(PersistenceConfig::new(&dir).journal(|j| j.segment_max_bytes(64)))
            .build()
    };
    {
        let b = Broker::start(config());
        b.create_topic("stocks").unwrap();
        let p = b.publisher("stocks").unwrap();
        for i in 0..3i64 {
            p.publish(Message::builder().property("seq", i).build()).unwrap();
        }
        sync(&b, 3);
        b.shutdown();
    }
    // The topic record, in the first (sealed) segment: one payload byte.
    let path = dir.join(segment_file_name(0));
    let mut contents = std::fs::read(&path).unwrap();
    contents[10] ^= 0xFF;
    std::fs::write(&path, &contents).unwrap();

    let panic = std::panic::catch_unwind(|| Broker::start(config()))
        .expect_err("a broker started on a corrupt sealed segment");
    let message = panic.downcast_ref::<String>().expect("a formatted panic message");
    assert!(message.starts_with("failed to recover the write-ahead journal"), "{message}");
    cleanup(&dir);
}

/// A checkpoint every 256 deliveries, and one at the shutdown for the
/// deliveries after it.
#[test]
fn checkpointed_deliveries_are_not_redelivered_after_clean_shutdown() {
    const DELIVERED: i64 = 256 + 5;
    let dir = scratch_dir("bkr-ckpt");
    let config = persistent_config(&dir);
    {
        let b = Broker::start(config.clone());
        b.create_topic("t").unwrap();
        let sub = b.subscription("t").durable("w").open().unwrap();
        let p = b.publisher("t").unwrap();
        for i in 0..DELIVERED {
            p.publish(Message::builder().property("seq", i).build()).unwrap();
        }
        for _ in 0..DELIVERED {
            sub.receive_timeout(Duration::from_secs(2)).expect("live message");
        }
        drop(sub);
        b.shutdown();
    }

    // Every delivery was checkpointed: nothing comes back.
    let b = Broker::start(config);
    assert_eq!(b.retained_count("t", "w"), 0);
    let sub = b.subscription("t").durable("w").open().unwrap();
    assert!(sub.receive_timeout(Duration::from_millis(100)).is_none());
    b.shutdown();
    cleanup(&dir);
}

#[test]
fn retained_for_offline_durable_survive_restart_but_delivered_do_not() {
    let dir = scratch_dir("bkr-mixed");
    // Two deliveries, far short of the periodic checkpoint at 256: rely on
    // the shutdown flush.
    let config = BrokerConfig::builder()
        .persistence(PersistenceConfig::new(&dir).journal(|j| j.fsync(FsyncPolicy::EveryN(4))))
        .build();
    {
        let b = Broker::start(config.clone());
        b.create_topic("t").unwrap();
        let sub = b.subscription("t").durable("w").open().unwrap();
        let p = b.publisher("t").unwrap();
        // Two delivered while connected...
        for i in 0..2i64 {
            p.publish(Message::builder().property("seq", i).build()).unwrap();
        }
        for _ in 0..2 {
            sub.receive_timeout(Duration::from_secs(2)).expect("live message");
        }
        drop(sub); // ...then three retained while offline.
        for i in 2..5i64 {
            p.publish(Message::builder().property("seq", i).build()).unwrap();
        }
        sync(&b, 5);
        b.shutdown();
    }

    let b = Broker::start(config);
    // Only the three offline messages come back: the shutdown checkpoint
    // covers the two consumed ones.
    assert_eq!(b.retained_count("t", "w"), 3);
    let sub = b.subscription("t").durable("w").open().unwrap();
    for i in 2..5i64 {
        let m = sub.receive_timeout(Duration::from_secs(2)).expect("retained message");
        assert_eq!(m.property("seq"), Some(&i.into()));
    }
    b.shutdown();
    cleanup(&dir);
}

#[test]
fn filter_change_discards_backlog_across_restart() {
    let dir = scratch_dir("bkr-filter");
    {
        let b = Broker::start(persistent_config(&dir));
        b.create_topic("t").unwrap();
        drop(
            b.subscription("t")
                .durable("w")
                .filter(Filter::selector("color = 'red'").unwrap())
                .open()
                .unwrap(),
        );
        let p = b.publisher("t").unwrap();
        p.publish(Message::builder().property("color", "red").build()).unwrap();
        wait_for("the message to be retained", || b.retained_count("t", "w") == 1);
        // Reconnect with a different selector: JMS discards the backlog,
        // and the re-registration record makes replay do the same.
        drop(
            b.subscription("t")
                .durable("w")
                .filter(Filter::selector("color = 'blue'").unwrap())
                .open()
                .unwrap(),
        );
        b.shutdown();
    }

    let b = Broker::start(persistent_config(&dir));
    assert_eq!(b.retained_count("t", "w"), 0);
    b.shutdown();
    cleanup(&dir);
}

#[test]
fn unsubscribed_durable_stays_gone_after_restart() {
    let dir = scratch_dir("bkr-unsub");
    {
        let b = Broker::start(persistent_config(&dir));
        b.create_topic("t").unwrap();
        drop(b.subscription("t").durable("w").open().unwrap());
        let p = b.publisher("t").unwrap();
        p.publish(Message::builder().build()).unwrap();
        sync(&b, 1);
        b.unsubscribe_durable("t", "w").unwrap();
        b.shutdown();
    }
    let b = Broker::start(persistent_config(&dir));
    assert!(b.durable_names("t").is_empty());
    b.shutdown();
    cleanup(&dir);
}

/// A sharded broker: each dispatcher writes its own durables' last
/// checkpoints at shutdown, so a restart with two shards finds nothing to
/// redeliver on either. 300 deliveries per durable leave 44 that no
/// periodic checkpoint covers.
#[test]
fn every_shards_durables_are_checkpointed_at_shutdown() {
    const SHARDS: usize = 2;
    const MESSAGES: i64 = 300;
    let dir = scratch_dir("bkr-sharded");
    let config = BrokerConfig::builder()
        .shards(SHARDS)
        .persistence(PersistenceConfig::new(&dir).journal(|j| j.fsync(FsyncPolicy::Never)))
        .build();
    let topics: Vec<String> = (0..SHARDS)
        .map(|shard| {
            (0..).map(|i| format!("t{i}")).find(|name| shard_of(name, SHARDS) == shard).unwrap()
        })
        .collect();
    {
        let b = Broker::start(config.clone());
        for topic in &topics {
            b.create_topic(topic).unwrap();
            let sub = b.subscription(topic).durable("d").open().unwrap();
            let p = b.publisher(topic).unwrap();
            for i in 0..MESSAGES {
                p.publish(Message::builder().property("seq", i).build()).unwrap();
            }
            for i in 0..MESSAGES {
                let m = sub.receive_timeout(Duration::from_secs(2)).expect("live message");
                assert_eq!(m.property("seq"), Some(&i.into()));
            }
        }
        b.shutdown();
    }

    let b = Broker::start(config);
    for topic in &topics {
        assert_eq!(b.retained_count(topic, "d"), 0, "{topic}");
        let sub = b.subscription(topic).durable("d").open().unwrap();
        assert!(sub.receive_timeout(Duration::from_millis(100)).is_none(), "{topic}");
    }
    b.shutdown();
    cleanup(&dir);
}

#[test]
fn journal_counters_flow_into_broker_stats() {
    let dir = scratch_dir("bkr-stats");
    let b = Broker::start(persistent_config(&dir));
    b.create_topic("t").unwrap();
    let p = b.publisher("t").unwrap();
    for _ in 0..10 {
        p.publish(Message::builder().build()).unwrap();
    }
    // 1 TopicCreated + 10 Publish records, synced on every commit: the
    // topic record's own, and one per run of queued publishes.
    let journal = || b.snapshot().journal.expect("persistence enabled");
    wait_for("the publish records", || journal().appends >= 11);
    let journal = journal();
    assert_eq!(journal.appends, 11);
    assert!(journal.bytes_appended > 0);
    assert!((2..=11).contains(&journal.fsyncs), "{} fsyncs", journal.fsyncs);
    b.shutdown();
    cleanup(&dir);
}

/// A message whose journal record would exceed the frame limit is refused
/// by the publisher, so the dispatcher never meets it and goes on
/// delivering.
#[test]
fn a_publish_too_large_to_journal_is_refused_and_the_broker_goes_on() {
    let dir = scratch_dir("bkr-oversized");
    let b = Broker::start(persistent_config(&dir));
    b.create_topic("t").unwrap();
    let sub = b.subscription("t").open().unwrap();
    let p = b.publisher("t").unwrap();
    let limit = rjms_journal::frame::MAX_PAYLOAD_LEN as usize;
    let oversized = || Message::builder().body(vec![0u8; limit + 1]).build();

    let refused = p.publish(oversized());
    p.publish(Message::builder().correlation_id("small").build()).unwrap();
    let delivered = sub.receive_timeout(Duration::from_secs(5)).expect("the small message");
    assert_eq!(delivered.correlation_id(), Some("small"));
    match refused {
        Err(Error::RecordTooLarge { size, limit: named }) => {
            assert!(size > limit, "{size}");
            assert_eq!(named, limit);
        }
        other => panic!("publish of an oversized message: {other:?}"),
    }

    match p.try_publish(oversized()) {
        Err(TryPublishError::Denied { message, reason }) => {
            assert!(matches!(reason, Error::RecordTooLarge { .. }), "{reason}");
            assert_eq!(message.body().len(), limit + 1);
        }
        Err(e) => panic!("try_publish of an oversized message: {e}"),
        Ok(()) => panic!("try_publish queued an oversized message"),
    }
    assert_eq!(b.snapshot().messages.received, 1);
    b.shutdown();
    cleanup(&dir);
}

#[test]
fn memory_only_broker_reports_zero_journal_activity() {
    let b = Broker::start(BrokerConfig::default());
    b.create_topic("t").unwrap();
    let p = b.publisher("t").unwrap();
    p.publish(Message::builder().build()).unwrap();
    sync(&b, 1);
    assert!(b.snapshot().journal.is_none());
    b.shutdown();
}
