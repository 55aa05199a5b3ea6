//! The journal remembers a sealed segment by its base alone, so recovery
//! checks the chain of bases: a sealed segment must hold exactly the frames
//! from its base to the next segment's, and nothing after them. A segment
//! deleted by hand, or a frame added to a sealed one, is refused there,
//! naming the segment before the break at the end of its expected frames.

use rjms_journal::frame::{encode_frame, frame_len};
use rjms_journal::segment::segment_file_name;
use rjms_journal::{scratch_dir, Journal, JournalConfig, JournalError};
use std::io::Write;
use std::path::Path;

/// Ten 32-byte frames, two to a 64-byte segment: bases 0, 2, 4, 6 and 8.
fn five_segments(dir: &Path) -> JournalConfig {
    let config = JournalConfig::new(dir).segment_max_bytes(64);
    let (mut journal, _) = Journal::open(config.clone()).unwrap();
    for i in 0..10u8 {
        journal.append(&[i; 24]).unwrap();
    }
    config
}

/// Recovers the journal: the offsets it lent and the segment and position
/// it refused. `open` refuses it at the same place.
fn refused(config: JournalConfig) -> (Vec<u64>, std::path::PathBuf, u64) {
    let corrupt_at = |result| match result {
        Err(JournalError::Corrupt { segment, file_pos }) => (segment, file_pos),
        other => panic!("expected a broken chain to be refused, got {other:?}"),
    };
    let mut seen = Vec::new();
    let (segment, file_pos) = corrupt_at(Journal::recover(config.clone(), |offset, _| {
        seen.push(offset);
    }));
    assert_eq!(corrupt_at(Journal::open(config)), (segment.clone(), file_pos));
    (seen, segment, file_pos)
}

#[test]
fn a_middle_segment_deleted_by_hand_is_refused_at_the_end_of_the_one_before() {
    let dir = scratch_dir("chain-gap");
    let config = five_segments(&dir);
    std::fs::remove_file(dir.join(segment_file_name(4))).unwrap();

    // Segment 2 holds offsets 2 and 3, but the next base says 2..6.
    let (seen, segment, file_pos) = refused(config);
    assert_eq!(seen, [0, 1, 2, 3]);
    assert_eq!((segment, file_pos), (dir.join(segment_file_name(2)), 2 * frame_len(24)));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_stray_frame_in_a_sealed_segment_is_refused_at_its_position() {
    let dir = scratch_dir("chain-extra");
    let config = five_segments(&dir);
    let mut stray = Vec::new();
    encode_frame(&[0xEE; 24], &mut stray);
    let path = dir.join(segment_file_name(4));
    std::fs::OpenOptions::new().append(true).open(&path).unwrap().write_all(&stray).unwrap();

    // A valid frame, but segment 4 ends where segment 6 begins.
    let (seen, segment, file_pos) = refused(config);
    assert_eq!(seen, [0, 1, 2, 3, 4, 5]);
    assert_eq!((segment, file_pos), (path, 2 * frame_len(24)));
    std::fs::remove_dir_all(&dir).unwrap();
}
