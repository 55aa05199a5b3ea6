//! `rjms-journal` — a segmented write-ahead log for the broker.
//!
//! The paper's model treats the FioranoMQ server as a pure in-memory
//! dispatcher; real deployments run durable subscriptions against a
//! persistent store, which adds a per-message storage term to the service
//! time. This crate supplies that store: an append-only log of
//! CRC-checked, length-prefixed frames split across size-rotated
//! segment files, a configurable fsync policy, and a recovery that reads
//! the log forward once as it opens it: it lends every record in order,
//! refuses a corrupt sealed segment and cuts a torn tail off the active
//! segment back to the last whole frame. It is a log, not an index: the
//! journal remembers each sealed segment by its base offset alone and holds
//! one file open, the active segment's.
//!
//! Layering:
//!
//! - [`frame`] — the `[len | crc32 | payload]` on-disk record format.
//! - [`segment`] — segment file names and the active segment.
//! - [`Journal`] — the segment chain: offsets, group commit
//!   ([`Journal::batch`]), durability, retention, and recovery
//!   ([`Journal::recover`]).
//!
//! The broker appends publishes before dispatch and checkpoints durable
//! consumer progress; `rjms-core` turns the measured append cost into the
//! `t_store` term of the extended capacity model.

#![forbid(unsafe_code)]
pub mod config;
mod crc32;
pub mod frame;
mod journal;
pub mod segment;

pub use config::{FsyncPolicy, JournalConfig};
pub use crc32::crc32;
pub use journal::{Batch, Journal, JournalError, JournalStats, RecoveryReport, Result};

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Creates a unique empty scratch directory under the system temp dir.
///
/// Test-and-bench support: the container has no `tempfile` crate, so
/// uniqueness comes from the process id plus a process-wide counter.
/// Callers are responsible for removing the directory.
pub fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("rjms-{tag}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("creating scratch dir");
    dir
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cleanup(dir: &std::path::Path) {
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Reopens the journal through `recover`: the journal, its report and
    /// the records recovery lent, copied.
    fn reopen(config: &JournalConfig) -> (Journal, RecoveryReport, Vec<(u64, Vec<u8>)>) {
        let mut records = Vec::new();
        let (journal, recovery) = Journal::recover(config.clone(), |offset, payload| {
            records.push((offset, payload.to_vec()));
        })
        .unwrap();
        (journal, recovery, records)
    }

    /// The first record from `offset` on that a recovery of `journal`'s
    /// files lends, through a second handle on them, dropped at once.
    fn first_from(journal: &Journal, offset: u64) -> Option<(u64, Vec<u8>)> {
        let (_, _, records) = reopen(journal.config());
        records.into_iter().find(|record| record.0 >= offset)
    }

    #[test]
    fn append_read_roundtrip_and_reopen() {
        let dir = scratch_dir("roundtrip");
        let config = JournalConfig::new(&dir);
        let (mut journal, recovery) = Journal::open(config.clone()).unwrap();
        assert_eq!(recovery.next_offset, 0);
        for i in 0..100u32 {
            let offset = journal.append(format!("record-{i}").as_bytes()).unwrap();
            assert_eq!(offset, i as u64);
        }
        assert_eq!(first_from(&journal, 42), Some((42, b"record-42".to_vec())));
        drop(journal);

        let (journal, recovery, records) = reopen(&config);
        assert_eq!(recovery.frames_recovered, 100);
        assert_eq!(recovery.torn_bytes_truncated, 0);
        assert_eq!(journal.next_offset(), 100);
        assert_eq!(records.len(), 100);
        assert_eq!(records[7].1, b"record-7");
        cleanup(&dir);
    }

    #[test]
    fn rotation_by_size_and_offsets_chain() {
        let dir = scratch_dir("rotate");
        let config = JournalConfig::new(&dir).segment_max_bytes(256);
        let (mut journal, _) = Journal::open(config.clone()).unwrap();
        for _ in 0..50 {
            journal.append(&[0xAB; 32]).unwrap();
        }
        assert!(journal.stats().segments_rotated > 0);
        drop(journal);

        let (_, recovery, records) = reopen(&config);
        assert_eq!(recovery.frames_recovered, 50);
        for (i, (offset, payload)) in records.into_iter().enumerate() {
            assert_eq!(offset, i as u64);
            assert_eq!(payload, [0xAB; 32]);
        }
        cleanup(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_to_last_whole_frame() {
        let dir = scratch_dir("torn");
        let config = JournalConfig::new(&dir);
        let (mut journal, _) = Journal::open(config.clone()).unwrap();
        for i in 0..10u32 {
            journal.append(format!("msg-{i:04}").as_bytes()).unwrap();
        }
        journal.sync().unwrap();
        let path = dir.join(segment::segment_file_name(0));
        drop(journal);

        // Cut mid-way through the final frame.
        let len = std::fs::metadata(&path).unwrap().len();
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(len - 3).unwrap();
        drop(file);

        let (journal, recovery, records) = reopen(&config);
        assert_eq!(recovery.frames_recovered, 9);
        assert!(recovery.torn_bytes_truncated > 0);
        assert_eq!(journal.next_offset(), 9);
        assert_eq!(records.last(), Some(&(8, b"msg-0008".to_vec())), "nothing past the head");
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 9 * frame::frame_len(8));
        cleanup(&dir);
    }

    #[test]
    fn appends_continue_after_torn_tail_recovery() {
        let dir = scratch_dir("torn-continue");
        let config = JournalConfig::new(&dir);
        let (mut journal, _) = Journal::open(config.clone()).unwrap();
        for _ in 0..5 {
            journal.append(b"before").unwrap();
        }
        journal.sync().unwrap();
        let path = dir.join(segment::segment_file_name(0));
        drop(journal);
        let len = std::fs::metadata(&path).unwrap().len();
        std::fs::OpenOptions::new().write(true).open(&path).unwrap().set_len(len - 1).unwrap();

        let (mut journal, recovery) = Journal::open(config.clone()).unwrap();
        assert_eq!(recovery.next_offset, 4);
        let offset = journal.append(b"after").unwrap();
        assert_eq!(offset, 4);
        drop(journal);

        let (_, recovery, records) = reopen(&config);
        assert_eq!(recovery.frames_recovered, 5);
        assert_eq!(records[4], (4, b"after".to_vec()));
        cleanup(&dir);
    }

    /// Recovery refuses any one-byte flip in a sealed segment at the frame
    /// that holds the byte, having lent every frame before that one, and
    /// `open` refuses it alike.
    #[test]
    fn corrupt_sealed_segment_is_an_error_not_a_truncation() {
        let dir = scratch_dir("sealed-corrupt");
        // 32-byte frames, two to a 64-byte segment.
        let config = JournalConfig::new(&dir).segment_max_bytes(64);
        let (mut journal, _) = Journal::open(config.clone()).unwrap();
        for _ in 0..20 {
            journal.append(&[7u8; 24]).unwrap();
        }
        journal.sync().unwrap();
        drop(journal);

        let path = dir.join(segment::segment_file_name(0));
        let intact = std::fs::read(&path).unwrap();
        let frame = frame::frame_len(24);
        assert_eq!(intact.len() as u64, 2 * frame);
        for byte in 0..intact.len() {
            let mut contents = intact.clone();
            contents[byte] ^= 0xFF;
            std::fs::write(&path, &contents).unwrap();

            let mut seen = Vec::new();
            let frame_start = byte as u64 / frame * frame;
            match Journal::recover(config.clone(), |offset, _| seen.push(offset)) {
                Err(JournalError::Corrupt { segment, file_pos }) => {
                    assert_eq!((segment, file_pos), (path.clone(), frame_start), "byte {byte}");
                }
                other => panic!("byte {byte}: expected sealed-segment corruption, got {other:?}"),
            }
            assert_eq!(seen, (0..frame_start / frame).collect::<Vec<_>>(), "byte {byte}");
            assert!(
                matches!(Journal::open(config.clone()), Err(JournalError::Corrupt { .. })),
                "byte {byte}: open took the flip"
            );
        }
        cleanup(&dir);
    }

    #[test]
    fn fsync_policy_counters() {
        let dir = scratch_dir("fsync");
        let config = JournalConfig::new(&dir).fsync(FsyncPolicy::Always);
        let (mut journal, _) = Journal::open(config).unwrap();
        for _ in 0..10 {
            journal.append(b"x").unwrap();
        }
        assert_eq!(journal.stats().fsyncs, 10);
        drop(journal);
        cleanup(&dir);

        let dir = scratch_dir("fsync-n");
        let config = JournalConfig::new(&dir).fsync(FsyncPolicy::EveryN(4));
        let (mut journal, _) = Journal::open(config).unwrap();
        for _ in 0..10 {
            journal.append(b"x").unwrap();
        }
        assert_eq!(journal.stats().fsyncs, 2);
        drop(journal);
        cleanup(&dir);

        let dir = scratch_dir("fsync-never");
        let config = JournalConfig::new(&dir).fsync(FsyncPolicy::Never);
        let (mut journal, _) = Journal::open(config).unwrap();
        for _ in 0..10 {
            journal.append(b"x").unwrap();
        }
        assert_eq!(journal.stats().fsyncs, 0);
        drop(journal);
        cleanup(&dir);
    }

    /// The bytes of every segment file in `dir`, in offset order.
    fn bytes_on_file(dir: &std::path::Path) -> Vec<u8> {
        let mut files: Vec<_> =
            std::fs::read_dir(dir).unwrap().map(|entry| entry.unwrap().path()).collect();
        files.sort();
        files.iter().flat_map(|path| std::fs::read(path).unwrap()).collect()
    }

    #[test]
    fn buffered_frames_reach_the_file_at_commit_and_not_before() {
        let dir = scratch_dir("batch");
        let (mut journal, _) = Journal::open(JournalConfig::new(&dir)).unwrap();
        journal.append(b"before").unwrap();
        let committed = bytes_on_file(&dir);

        let offsets = journal
            .batch(|batch| {
                let mut offsets = Vec::new();
                for i in 0..5u8 {
                    offsets.push(batch.append_with(|out| out.extend_from_slice(&[i; 20]))?);
                    // Buffered, not written: the file is as the last commit
                    // left it (and the borrow keeps every other method out).
                    assert_eq!(bytes_on_file(&dir), committed);
                }
                Ok(offsets)
            })
            .unwrap();
        assert_eq!(offsets, [1, 2, 3, 4, 5]);
        assert_eq!(journal.next_offset(), 6);
        assert_eq!(bytes_on_file(&dir).len(), committed.len() + 5 * 28);
        for (i, offset) in offsets.into_iter().enumerate() {
            assert_eq!(first_from(&journal, offset), Some((offset, vec![i as u8; 20])));
        }
        assert_eq!(journal.stats().appends, 6);
        // One sample per frame, whatever the commit they shared.
        assert_eq!(journal.append_latency().count(), 6);
        cleanup(&dir);
    }

    #[test]
    fn a_failed_batch_leaves_nothing_behind() {
        let dir = scratch_dir("batch-failed");
        let (mut journal, _) = Journal::open(JournalConfig::new(&dir)).unwrap();
        journal.append(b"kept").unwrap();
        let failed: Result<()> = journal.batch(|batch| {
            batch.append_with(|out| out.extend_from_slice(b"lost"))?;
            Err(JournalError::Io(std::io::Error::other("the fill failed")))
        });
        assert!(failed.is_err());
        assert_eq!(journal.next_offset(), 1);
        assert_eq!(journal.append(b"next").unwrap(), 1);
        let config = journal.config().clone();
        drop(journal);
        assert_eq!(reopen(&config).2, [(0, b"kept".to_vec()), (1, b"next".to_vec())]);
        cleanup(&dir);
    }

    #[test]
    fn rotation_and_the_byte_cap_inside_a_batch_keep_offsets_dense() {
        let dir = scratch_dir("batch-rotate");
        // 1 KiB frames: the 16 KiB segments rotate every 16 frames and the
        // 64 KiB commit cap falls every 64, both inside the batch.
        let config =
            JournalConfig::new(&dir).segment_max_bytes(16 * 1024).fsync(FsyncPolicy::Never);
        let (mut journal, _) = Journal::open(config.clone()).unwrap();
        let payload = |i: u64| {
            let mut payload = vec![i as u8; 1016];
            payload[..8].copy_from_slice(&i.to_le_bytes());
            payload
        };
        journal
            .batch(|batch| {
                for i in 0..200u64 {
                    assert_eq!(batch.append_with(|out| out.extend_from_slice(&payload(i)))?, i);
                }
                Ok(())
            })
            .unwrap();
        assert_eq!(journal.stats().segments_rotated, 200 / 16);
        assert_eq!(journal.next_offset(), 200);
        drop(journal);

        let (_, recovery, records) = reopen(&config);
        assert_eq!(recovery.frames_recovered, 200);
        for (i, record) in records.into_iter().enumerate() {
            assert_eq!(record, (i as u64, payload(i as u64)));
        }
        cleanup(&dir);

        // With room in the segment the cap alone splits the batch: a commit
        // as soon as 64 KiB are buffered, and one for the rest.
        let dir = scratch_dir("batch-cap");
        let config = JournalConfig::new(&dir).fsync(FsyncPolicy::Always);
        let (mut journal, _) = Journal::open(config).unwrap();
        journal
            .batch(|batch| {
                for i in 0..100u64 {
                    batch.append_with(|out| out.extend_from_slice(&payload(i)))?;
                }
                Ok(())
            })
            .unwrap();
        assert_eq!(journal.stats().fsyncs, 2);
        assert_eq!(first_from(&journal, 99), Some((99, payload(99))));
        cleanup(&dir);
    }

    #[test]
    fn fsync_policy_is_applied_once_per_commit() {
        let frames = |journal: &mut Journal, n: usize| {
            journal
                .batch(|batch| {
                    for _ in 0..n {
                        batch.append_with(|out| out.push(b'x'))?;
                    }
                    Ok(())
                })
                .unwrap();
            journal.stats().fsyncs
        };

        let dir = scratch_dir("commit-always");
        let config = JournalConfig::new(&dir).fsync(FsyncPolicy::Always);
        let (mut journal, _) = Journal::open(config).unwrap();
        assert_eq!(frames(&mut journal, 10), 1);
        assert_eq!(frames(&mut journal, 1), 2);
        assert_eq!(frames(&mut journal, 0), 2, "an empty batch commits nothing");
        cleanup(&dir);

        // `EveryN` counts frames, checks at the commit and syncs at most
        // once there, which covers everything written so far.
        let dir = scratch_dir("commit-every-n");
        let config = JournalConfig::new(&dir).fsync(FsyncPolicy::EveryN(4));
        let (mut journal, _) = Journal::open(config).unwrap();
        assert_eq!(frames(&mut journal, 10), 1);
        assert_eq!(frames(&mut journal, 3), 1, "three frames since the last sync");
        assert_eq!(frames(&mut journal, 3), 2, "six");
        assert_eq!(frames(&mut journal, 4), 3);
        cleanup(&dir);
    }

    #[test]
    fn max_sealed_segments_retention() {
        let dir = scratch_dir("retention");
        let config = JournalConfig::new(&dir).segment_max_bytes(64).max_sealed_segments(2);
        let (mut journal, _) = Journal::open(config.clone()).unwrap();
        for _ in 0..40 {
            journal.append(&[2u8; 24]).unwrap();
        }
        assert!(journal.stats().segments_removed > 0);
        assert!(journal.first_offset() > 0);
        let files = std::fs::read_dir(&dir).unwrap().count();
        assert!(files <= 3, "retention left {files} segment files");
        // A recovery starts at the floor, and a reopen keeps it.
        let floor = journal.first_offset();
        assert_eq!(first_from(&journal, 0), Some((floor, vec![2u8; 24])));
        drop(journal);
        let (journal, _) = Journal::open(config).unwrap();
        assert_eq!(journal.first_offset(), floor);
        cleanup(&dir);
    }

    /// Open descriptors of this process on files in `dir`.
    #[cfg(target_os = "linux")]
    fn open_files_in(dir: &std::path::Path) -> usize {
        let dir = dir.canonicalize().unwrap();
        std::fs::read_dir("/proc/self/fd")
            .unwrap()
            .filter_map(|fd| std::fs::read_link(fd.ok()?.path()).ok())
            .filter(|target| target.starts_with(&dir))
            .count()
    }

    /// Bytes this thread has read with `read`-family calls so far, from
    /// the kernel's per-thread `rchar` (other threads do not move it).
    #[cfg(target_os = "linux")]
    fn bytes_read() -> u64 {
        let io = std::fs::read_to_string("/proc/thread-self/io").unwrap();
        io.lines().find_map(|line| line.strip_prefix("rchar: ")).unwrap().parse().unwrap()
    }

    /// A sealed segment keeps no open file, before a reopen or after it, and
    /// a recovery reads the journal once, lending every record in order.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_thousand_sealed_segments_hold_one_file_open() {
        const FRAMES: u64 = 1_001;
        let dir = scratch_dir("sealed-fds");
        // A 16-byte frame fills a 16-byte segment: one segment per frame.
        let config = JournalConfig::new(&dir).segment_max_bytes(16).fsync(FsyncPolicy::Never);
        let (mut journal, _) = Journal::open(config.clone()).unwrap();
        for i in 0..FRAMES {
            journal.append(&i.to_le_bytes()).unwrap();
            if i % 100 == 0 {
                assert_eq!(open_files_in(&dir), 1, "appending frame {i}");
            }
        }
        assert_eq!(journal.stats().segments_rotated, FRAMES - 1);
        drop(journal);

        let journal_bytes = bytes_on_file(&dir).len() as u64;
        let before = bytes_read();
        let (journal, recovery, records) = reopen(&config);
        let read = bytes_read() - before;
        assert!(read <= journal_bytes + 4096, "the reopen read {read} of {journal_bytes} bytes");
        assert_eq!(recovery.frames_recovered, FRAMES);
        assert_eq!(open_files_in(&dir), 1, "after a reopen");
        let expected: Vec<_> = (0..FRAMES).map(|i| (i, i.to_le_bytes().to_vec())).collect();
        assert_eq!(records, expected);
        assert_eq!(first_from(&journal, 500), Some((500, 500u64.to_le_bytes().to_vec())));
        assert_eq!(open_files_in(&dir), 1, "after a second recovery");
        cleanup(&dir);
    }

    /// A restart reads each byte of the journal once: the active segment
    /// (here 545 KB, past what the 4 KiB slack could hide) is read by the
    /// same pass that lends its records, not once to count its frames and
    /// again to lend them.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_recovery_reads_each_segment_once_and_lends_every_record_in_order() {
        const FRAMES: u64 = 2_560;
        let dir = scratch_dir("recover-once");
        // 1 032-byte frames, 1 016 to a 1 MiB segment: two sealed segments
        // and 528 frames in the active one.
        let config = JournalConfig::new(&dir).segment_max_bytes(1 << 20).fsync(FsyncPolicy::Never);
        let payload = |i: u64| {
            let mut payload = vec![i as u8; 1024];
            payload[..8].copy_from_slice(&i.to_le_bytes());
            payload
        };
        let (mut journal, _) = Journal::open(config.clone()).unwrap();
        for i in 0..FRAMES {
            journal.append(&payload(i)).unwrap();
        }
        assert_eq!(journal.stats().segments_rotated, 2);
        drop(journal);
        let active = std::fs::metadata(dir.join(segment::segment_file_name(2 * 1016))).unwrap();
        assert!(active.len() >= 256 * 1024, "an active segment of {} bytes", active.len());

        let journal_bytes = bytes_on_file(&dir).len() as u64;
        let mut next = 0;
        let before = bytes_read();
        let (journal, recovery) = Journal::recover(config, |offset, record| {
            assert_eq!((offset, record), (next, &payload(next)[..]));
            next += 1;
        })
        .unwrap();
        let read = bytes_read() - before;
        assert!(read <= journal_bytes + 4096, "the restart read {read} of {journal_bytes} bytes");
        assert_eq!(
            (next, recovery.frames_recovered, journal.next_offset()),
            (FRAMES, FRAMES, FRAMES)
        );
        cleanup(&dir);
    }
}
