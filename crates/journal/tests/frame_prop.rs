//! Property tests for the frame codec and torn-tail recovery: round-trips
//! hold, corruption is detected, a truncated journal is never recovered
//! past the last whole frame, wherever a group commit was cut, and the
//! sliced CRC is the bitwise one.

use proptest::prelude::*;
use rjms_journal::frame::{decode_frame, encode_frame, frame_len, FrameDecode};
use rjms_journal::segment::segment_file_name;
use rjms_journal::{crc32, scratch_dir, FsyncPolicy, Journal, JournalConfig, RecoveryReport};

/// Reopens the journal through `recover`: its report and every record it
/// lent, copied.
fn recovered(config: JournalConfig) -> (RecoveryReport, Vec<(u64, Vec<u8>)>) {
    let mut records = Vec::new();
    let (_, recovery) =
        Journal::recover(config, |offset, payload| records.push((offset, payload.to_vec())))
            .unwrap();
    (recovery, records)
}

proptest! {
    #[test]
    fn encode_decode_roundtrip(payload in prop::collection::vec(any::<u8>(), 0..2048)) {
        let mut encoded = Vec::new();
        encode_frame(&payload, &mut encoded);
        prop_assert_eq!(encoded.len() as u64, frame_len(payload.len()));
        match decode_frame(&encoded) {
            FrameDecode::Complete { payload: decoded, consumed } => {
                prop_assert_eq!(decoded, &payload[..]);
                prop_assert_eq!(consumed, encoded.len());
            }
            other => prop_assert!(false, "whole frame decoded as {:?}", other),
        }
    }

    #[test]
    fn concatenated_frames_decode_in_order(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..64), 1..16)
    ) {
        let mut encoded = Vec::new();
        for p in &payloads {
            encode_frame(p, &mut encoded);
        }
        let mut at = 0;
        for p in &payloads {
            match decode_frame(&encoded[at..]) {
                FrameDecode::Complete { payload, consumed } => {
                    prop_assert_eq!(payload, &p[..]);
                    at += consumed;
                }
                other => prop_assert!(false, "frame at {} decoded as {:?}", at, other),
            }
        }
        prop_assert_eq!(at, encoded.len());
    }

    #[test]
    fn byte_corruption_never_passes_as_the_original(
        payload in prop::collection::vec(any::<u8>(), 1..256),
        position_ratio in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let mut encoded = Vec::new();
        encode_frame(&payload, &mut encoded);
        let position = ((encoded.len() as f64 * position_ratio) as usize).min(encoded.len() - 1);
        encoded[position] ^= flip;
        // A flipped byte may make the frame Incomplete (length grew),
        // Corrupt (checksum/length invalid), or - if the length shrank - a
        // shorter frame whose checksum almost surely fails. What it must
        // never do is decode as Complete with the original payload.
        if let FrameDecode::Complete { payload: decoded, .. } = decode_frame(&encoded) {
            prop_assert!(
                decoded != &payload[..],
                "flip of bit pattern {:#04x} at byte {} went undetected", flip, position
            );
        }
    }

    #[test]
    fn truncation_recovers_exactly_the_whole_frames(
        payload_lens in prop::collection::vec(0usize..48, 1..12),
        cut_ratio in 0.0f64..1.0,
    ) {
        let dir = scratch_dir("prop-truncate");
        let config = JournalConfig::new(&dir).fsync(FsyncPolicy::Always);
        let (mut journal, _) = Journal::open(config.clone()).unwrap();
        let mut frame_ends = Vec::new();
        let mut total = 0u64;
        for (i, len) in payload_lens.iter().enumerate() {
            journal.append(&vec![i as u8; *len]).unwrap();
            total += frame_len(*len);
            frame_ends.push(total);
        }
        drop(journal);

        // Cut the segment anywhere in its body and reopen.
        let cut = (total as f64 * cut_ratio) as u64;
        let path = dir.join(segment_file_name(0));
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(cut)
            .unwrap();

        let expected = frame_ends.iter().filter(|&&end| end <= cut).count() as u64;
        let (recovery, replayed) = recovered(config);
        prop_assert_eq!(recovery.frames_recovered, expected);
        prop_assert_eq!(recovery.next_offset, expected);
        prop_assert_eq!(replayed.len() as u64, expected);
        for (offset, payload) in replayed {
            prop_assert_eq!(payload, vec![offset as u8; payload_lens[offset as usize]]);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
    /// A crash can cut the one `write_all` of a group commit at any byte:
    /// whatever the cut, recovery keeps exactly the frames wholly before it.
    #[test]
    fn a_run_cut_at_every_byte_recovers_the_frames_wholly_before_the_cut(
        payload_lens in prop::collection::vec(0usize..16, 1..7),
    ) {
        let dir = scratch_dir("prop-run");
        let (mut journal, _) = Journal::open(JournalConfig::new(&dir)).unwrap();
        journal
            .batch(|batch| {
                for (i, len) in payload_lens.iter().enumerate() {
                    batch.append_with(|out| out.resize(out.len() + len, i as u8))?;
                }
                Ok(())
            })
            .unwrap();
        drop(journal);
        let written = std::fs::read(dir.join(segment_file_name(0))).unwrap();
        let frame_ends: Vec<u64> = payload_lens
            .iter()
            .scan(0, |end, len| {
                *end += frame_len(*len);
                Some(*end)
            })
            .collect();
        prop_assert_eq!(written.len() as u64, *frame_ends.last().unwrap());

        let crashed = scratch_dir("prop-run-cut");
        for cut in 0..=written.len() {
            std::fs::write(crashed.join(segment_file_name(0)), &written[..cut]).unwrap();
            let expected = frame_ends.iter().filter(|&&end| end <= cut as u64).count();
            let (recovery, replayed) = recovered(JournalConfig::new(&crashed));
            prop_assert_eq!(recovery.frames_recovered, expected as u64, "cut at {}", cut);
            prop_assert_eq!(replayed.len(), expected, "cut at {}", cut);
            for (i, (_, payload)) in replayed.iter().enumerate() {
                prop_assert_eq!(payload, &vec![i as u8; payload_lens[i]], "cut at {}", cut);
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&crashed).unwrap();
    }

    #[test]
    fn crc32_is_the_bitwise_definition(
        data in prop::collection::vec(any::<u8>(), 0..4104),
        skip in 0usize..8,
    ) {
        let data = &data[skip.min(data.len())..];
        let mut bitwise = 0xFFFF_FFFFu32;
        for &byte in data {
            bitwise ^= byte as u32;
            for _ in 0..8 {
                bitwise = if bitwise & 1 != 0 { (bitwise >> 1) ^ 0xEDB8_8320 } else { bitwise >> 1 };
            }
        }
        prop_assert_eq!(crc32(data), !bitwise);
    }
}
