//! Write-ahead under group commit (DESIGN.md §3.3b): the dispatcher writes
//! a run of queued publishes with one journal commit, and still no
//! subscriber sees a message whose record is not on the file, and a crash
//! loses no message that was on it.

use rjms_broker::persist::JournalRecord;
use rjms_broker::{Broker, BrokerConfig, Message, PersistenceConfig};
use rjms_journal::frame::{decode_frame, FrameDecode};
use rjms_journal::segment::segment_file_name;
use rjms_journal::{scratch_dir, FsyncPolicy, Journal, JournalConfig};
use rjms_selector::value::Value;
use std::io::Read;
use std::path::Path;
use std::time::Duration;

/// A persistent broker's configuration, its journal one segment file.
fn config(dir: &Path, fsync: FsyncPolicy) -> rjms_broker::config::BrokerConfigBuilder {
    let persistence =
        PersistenceConfig::new(dir).journal(|j| j.fsync(fsync).segment_max_bytes(1 << 30));
    BrokerConfig::builder().persistence(persistence)
}

fn numbered(seq: i64) -> Message {
    Message::builder().property("seq", seq).body(vec![seq as u8; 32]).build()
}

fn seq_of(message: &Message) -> i64 {
    match message.property("seq") {
        Some(Value::Int(seq)) => *seq,
        other => panic!("message without a sequence number: {other:?}"),
    }
}

/// Polls until `ready` holds, for at most ten seconds.
fn wait_for(what: &str, ready: impl Fn() -> bool) {
    for _ in 0..2000 {
        if ready() {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("timed out waiting for {what}");
}

/// Follows the one segment file as the broker appends to it.
struct FileScan {
    file: std::fs::File,
    /// Read but not yet a whole frame.
    unparsed: Vec<u8>,
    /// The highest publish sequence number seen on the file.
    highest_seq: i64,
}

impl FileScan {
    /// Reads what the file has gained and notes the publishes in it.
    fn catch_up(&mut self) {
        self.file.read_to_end(&mut self.unparsed).unwrap();
        let mut at = 0;
        while let FrameDecode::Complete { payload, consumed } = decode_frame(&self.unparsed[at..]) {
            if let JournalRecord::Publish { message, .. } = JournalRecord::decode(payload).unwrap()
            {
                self.highest_seq = self.highest_seq.max(seq_of(&message));
            }
            at += consumed;
        }
        self.unparsed.drain(..at);
    }
}

/// The subscriber reads the segment file the moment it is handed message
/// `k` and finds `k`'s publish record there, every time, while a
/// publisher keeps the queue full so that the dispatcher works in runs
/// (every commit syncs, which keeps the dispatcher the slowest of the
/// three and makes the commits countable).
#[test]
fn every_delivered_message_is_already_on_the_file() {
    const MESSAGES: i64 = 12_000;
    let dir = scratch_dir("gc-file-scan");
    let broker = Broker::start(
        config(&dir, FsyncPolicy::Always)
            .publish_queue_capacity(256)
            .subscriber_queue_capacity(65_536)
            .build(),
    );
    broker.create_topic("t").unwrap();
    let subscriber = broker.subscription("t").open().unwrap();
    let publisher = broker.publisher("t").unwrap();
    let load = std::thread::spawn(move || {
        for seq in 0..MESSAGES {
            publisher.publish(numbered(seq)).unwrap();
        }
    });

    let file = std::fs::File::open(dir.join(segment_file_name(0))).unwrap();
    let mut scan = FileScan { file, unparsed: Vec::new(), highest_seq: -1 };
    for seq in 0..MESSAGES {
        let message = subscriber.receive_timeout(Duration::from_secs(10)).expect("a delivery");
        assert_eq!(seq_of(&message), seq);
        if scan.highest_seq < seq {
            scan.catch_up();
        }
        assert!(
            scan.highest_seq >= seq,
            "message {seq} was delivered before its record was written: the file ends at {}",
            scan.highest_seq
        );
    }
    load.join().unwrap();

    // The topic's record and one per message, in far fewer commits.
    let journal = broker.snapshot().journal.expect("persistence on");
    assert_eq!(journal.appends, MESSAGES as u64 + 1);
    assert!(journal.fsyncs < MESSAGES as u64 / 4, "{} commits: no runs formed", journal.fsyncs);
    broker.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every record of the journal in `dir`, decoded.
fn records(dir: &Path) -> Vec<(u64, JournalRecord)> {
    let (journal, _) = Journal::open(JournalConfig::new(dir)).unwrap();
    journal
        .replay(0)
        .map(|frame| {
            let (offset, payload) = frame.unwrap();
            (offset, JournalRecord::decode(&payload).unwrap())
        })
        .collect()
}

/// A crash mid-stream, with the dispatcher blocked half-way through a run:
/// the journal holds the whole run, delivered or not, and a broker started
/// on it re-delivers to the durable subscriber every publish no checkpoint
/// covers, the run's undelivered tail included. The consumer reads past the
/// checkpoint the broker writes at the 256th delivery.
#[test]
fn crash_mid_run_replays_everything_not_checkpointed() {
    const MESSAGES: i64 = 400;
    const PLUG: i64 = 8;
    const CONSUMED: usize = 264;
    const QUEUE: usize = 4;
    let dir = scratch_dir("gc-crash");
    let broker = Broker::start(
        config(&dir, FsyncPolicy::Never)
            .publish_queue_capacity(512)
            .subscriber_queue_capacity(QUEUE)
            .build(),
    );
    broker.create_topic("t").unwrap();
    let consumer = broker.subscription("t").durable("d").open().unwrap();
    let publisher = broker.publisher("t").unwrap();
    let stats = broker.observer();
    let dispatched = || stats.snapshot().messages.dispatched;

    // Plug the dispatcher on the consumer's full queue, then queue the rest
    // behind it: once the consumer reads, the dispatcher takes them in runs.
    for seq in 0..PLUG {
        publisher.publish(numbered(seq)).unwrap();
    }
    wait_for("the dispatcher to fill the consumer's queue", || dispatched() == QUEUE as u64);
    for seq in PLUG..MESSAGES {
        publisher.publish(numbered(seq)).unwrap();
    }
    for seq in 0..CONSUMED {
        let message = consumer.receive_timeout(Duration::from_secs(10)).expect("a delivery");
        assert_eq!(seq_of(&message), seq as i64);
    }
    // The consumer stops reading: the dispatcher fills its queue again and
    // blocks, in the middle of a run.
    wait_for("the dispatcher to block again", || dispatched() == (CONSUMED + QUEUE) as u64);
    let appends = || stats.snapshot().journal.unwrap().appends;
    wait_for("the journal to stand still", || {
        let before = appends();
        std::thread::sleep(Duration::from_millis(100));
        appends() == before
    });

    // The crash: what is on the file now is all a restart will find.
    let crashed = scratch_dir("gc-crashed");
    let segment = segment_file_name(0);
    std::fs::copy(dir.join(&segment), crashed.join(&segment)).unwrap();
    // The original is only wound down. The blocked dispatcher holds the
    // durable's connection, so the consumer drains before it disconnects.
    for _ in CONSUMED as i64..MESSAGES {
        consumer.receive_timeout(Duration::from_secs(10)).expect("a delivery");
    }
    drop(consumer);
    broker.shutdown();

    let on_file = records(&crashed);
    let publishes: Vec<(u64, i64)> = on_file
        .iter()
        .filter_map(|(offset, record)| match record {
            JournalRecord::Publish { message, .. } => Some((*offset, seq_of(message))),
            _ => None,
        })
        .collect();
    // Write-ahead: everything handed to the consumer is there, and so is
    // the rest of the run the dispatcher was in, which nobody has seen.
    let delivered = (CONSUMED + QUEUE) as i64;
    let last_on_file = publishes.last().unwrap().1;
    assert!(last_on_file >= delivered, "{last_on_file} on file, {delivered} delivered");
    // The run holding the first blocked delivery, #QUEUE, ends somewhere in
    // QUEUE..PLUG: how many plug publishes its gather saw races the
    // publisher. The next run, taken once everything is queued, is whole
    // and covers the 64 publishes behind that one at least.
    assert!(
        last_on_file >= QUEUE as i64 + 64,
        "the run after the plug is not whole: {last_on_file}"
    );
    assert_eq!(
        publishes.iter().map(|p| p.1).collect::<Vec<_>>(),
        (0..=last_on_file).collect::<Vec<_>>()
    );

    let checkpointed = on_file
        .iter()
        .filter_map(|(_, record)| match record {
            JournalRecord::DurableCheckpoint { offset, .. } => Some(*offset),
            _ => None,
        })
        .max()
        .expect("268 deliveries at a checkpoint every 256");
    let expected: Vec<i64> =
        publishes.iter().filter(|(offset, _)| *offset > checkpointed).map(|p| p.1).collect();
    assert!(expected.len() as i64 > last_on_file - delivered, "the tail is part of the replay");

    let restarted = Broker::start(config(&crashed, FsyncPolicy::Never).build());
    let consumer = restarted.subscription("t").durable("d").open().unwrap();
    for seq in &expected {
        let message =
            consumer.receive_timeout(Duration::from_secs(10)).expect("a replayed message");
        assert_eq!(seq_of(&message), *seq);
    }
    assert!(consumer.receive_timeout(Duration::from_millis(100)).is_none());
    drop(consumer);
    restarted.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&crashed);
}
