//! A persistent broker's journal holds one segment file open, however many
//! segments it has sealed: counted from `/proc/self/fd` while publishing
//! through more than a thousand rotations and after a restart, which reads
//! the journal once (`rchar` from `/proc/thread-self/io`) and then
//! replays every retained message in order.
#![cfg(target_os = "linux")]

use rjms_broker::{Broker, BrokerConfig, FsyncPolicy, Message, PersistenceConfig};
use std::path::Path;
use std::time::{Duration, Instant};

const MESSAGES: i64 = 1_200;

/// Open descriptors of this process on files in `dir` (other tests' files
/// elsewhere do not move the count).
fn open_files_in(dir: &Path) -> usize {
    let dir = dir.canonicalize().expect("journal directory");
    std::fs::read_dir("/proc/self/fd")
        .expect("fd directory")
        .filter_map(|fd| std::fs::read_link(fd.ok()?.path()).ok())
        .filter(|target| target.starts_with(&dir))
        .count()
}

/// Bytes this thread has read with `read`-family calls so far, from the
/// kernel's per-thread `rchar` (other threads do not move it).
fn bytes_read() -> u64 {
    let io = std::fs::read_to_string("/proc/thread-self/io").expect("thread io counters");
    let rchar = io.lines().find_map(|line| line.strip_prefix("rchar: "));
    rchar.expect("an rchar line").parse().expect("a byte count")
}

/// The bytes of every file in `dir`.
fn bytes_in(dir: &Path) -> u64 {
    let files = std::fs::read_dir(dir).expect("journal directory");
    files.map(|file| file.expect("a directory entry").metadata().expect("metadata").len()).sum()
}

fn wait_for(what: &str, ready: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !ready() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn sealed_segments_hold_no_file_open_through_a_thousand_rotations_and_a_restart() {
    let dir = std::env::temp_dir().join(format!("rjms-journal-fds-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // Every publish record overflows a 64-byte segment: one segment each.
    let config = || {
        BrokerConfig::builder()
            .persistence(
                PersistenceConfig::new(&dir)
                    .journal(|j| j.segment_max_bytes(64).fsync(FsyncPolicy::Never)),
            )
            .build()
    };

    let broker = Broker::start(config());
    broker.create_topic("ticks").unwrap();
    drop(broker.subscription("ticks").durable("archive").open().unwrap());
    let publisher = broker.publisher("ticks").unwrap();
    for seq in 0..MESSAGES {
        publisher.publish(Message::builder().property("seq", seq).build()).unwrap();
        if seq % 100 == 99 {
            let retained = seq as usize + 1;
            wait_for("the run to be retained", || {
                broker.retained_count("ticks", "archive") == retained
            });
            let open = open_files_in(&dir);
            assert!(open <= 2, "{open} journal files open after {retained} publishes");
        }
    }
    let journal = broker.snapshot().journal.expect("persistence on");
    assert!(journal.segments_rotated >= 1_000, "{} rotations", journal.segments_rotated);
    broker.shutdown();

    // `Broker::start` opens and replays the journal on this thread.
    let journal_bytes = bytes_in(&dir);
    let before = bytes_read();
    let broker = Broker::start(config());
    let read = bytes_read() - before;
    assert!(
        (journal_bytes..=journal_bytes + 4096).contains(&read),
        "the restart read {read} bytes of a {journal_bytes}-byte journal"
    );
    let open = open_files_in(&dir);
    assert!(open <= 2, "{open} journal files open after the restart");
    assert_eq!(broker.retained_count("ticks", "archive"), MESSAGES as usize);
    let subscriber = broker.subscription("ticks").durable("archive").open().unwrap();
    for seq in 0..MESSAGES {
        let message =
            subscriber.receive_timeout(Duration::from_secs(5)).expect("a replayed message");
        assert_eq!(message.property("seq"), Some(&seq.into()));
    }
    broker.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
