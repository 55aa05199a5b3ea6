//! Recovery reads the segment files as it opens the journal: a frame of a
//! sealed segment that no longer decodes there is reported where it is,
//! and ends the recovery.

use rjms_journal::segment::segment_file_name;
use rjms_journal::{scratch_dir, Journal, JournalConfig, JournalError};

#[test]
fn a_frame_corrupted_on_disk_ends_the_recovery_at_its_position() {
    let dir = scratch_dir("replay-corrupt");
    // 32-byte frames, two to a 64-byte segment.
    let config = JournalConfig::new(&dir).segment_max_bytes(64);
    let (mut journal, _) = Journal::open(config.clone()).unwrap();
    for _ in 0..6 {
        journal.append(&[7u8; 24]).unwrap();
    }
    drop(journal);
    // The second frame of the segment that starts at offset 2.
    let path = dir.join(segment_file_name(2));
    let mut contents = std::fs::read(&path).unwrap();
    contents[40] ^= 0xFF;
    std::fs::write(&path, &contents).unwrap();

    let mut seen = Vec::new();
    match Journal::recover(config, |offset, _| seen.push(offset)) {
        Err(JournalError::Corrupt { segment, file_pos }) => {
            assert_eq!((segment, file_pos), (path, 32));
        }
        other => panic!("expected the corrupt frame at offset 3, got {other:?}"),
    }
    assert_eq!(seen, [0, 1, 2], "an error ends the recovery");
    std::fs::remove_dir_all(&dir).unwrap();
}
