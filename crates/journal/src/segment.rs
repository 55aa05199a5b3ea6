//! Segment files: their names, and the active segment, which is the
//! journal's one open file.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, Write};
use std::path::Path;

use crate::frame::{decode_frame, FrameDecode};

/// The file name of the segment starting at `base_offset`.
pub fn segment_file_name(base_offset: u64) -> String {
    format!("{base_offset:020}.wal")
}

/// Parses a segment base offset back out of a file name.
pub(crate) fn parse_segment_file_name(name: &str) -> Option<u64> {
    let stem = name.strip_suffix(".wal")?;
    if stem.len() != 20 || !stem.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    stem.parse().ok()
}

/// The segment appends go to. A sealed segment is only its base offset in
/// the journal: its file was synced when it was sealed, and only replay
/// opens it again.
#[derive(Debug)]
pub(crate) struct ActiveSegment {
    /// The offset of its first frame.
    pub(crate) base: u64,
    /// Frames on file.
    pub(crate) frames: u64,
    /// File length in bytes.
    pub(crate) len: u64,
    file: File,
}

impl ActiveSegment {
    /// Creates a fresh, empty segment starting at `base`.
    pub(crate) fn create(dir: &Path, base: u64) -> io::Result<ActiveSegment> {
        let path = dir.join(segment_file_name(base));
        let file = OpenOptions::new().create_new(true).write(true).open(path)?;
        Ok(ActiveSegment { base, frames: 0, len: 0, file })
    }

    /// Reopens the segment starting at `base` for appending: reads it (one
    /// read), counts its intact frames, and cuts a torn or corrupt tail off
    /// at the last of them. Returns the segment and the bytes cut.
    pub(crate) fn resume(dir: &Path, base: u64) -> io::Result<(ActiveSegment, u64)> {
        let path = dir.join(segment_file_name(base));
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        let mut contents = Vec::new();
        file.read_to_end(&mut contents)?;
        let (mut frames, mut len) = (0, 0);
        while let FrameDecode::Complete { consumed, .. } = decode_frame(&contents[len..]) {
            frames += 1;
            len += consumed;
        }
        let torn = (contents.len() - len) as u64;
        if torn > 0 {
            file.set_len(len as u64)?;
            file.sync_data()?;
        }
        // The read left the cursor at the old end of file; park it at the
        // valid end so the next append leaves no hole.
        file.seek(io::SeekFrom::Start(len as u64))?;
        Ok((ActiveSegment { base, frames, len: len as u64, file }, torn))
    }

    /// The offset one past its last frame.
    pub(crate) fn end(&self) -> u64 {
        self.base + self.frames
    }

    /// Writes `count` whole encoded frames with one `write_all`. The write
    /// is buffered by the OS until [`ActiveSegment::sync`].
    pub(crate) fn write_frames(&mut self, frames: &[u8], count: u64) -> io::Result<()> {
        self.file.write_all(frames)?;
        self.frames += count;
        self.len += frames.len() as u64;
        Ok(())
    }

    /// Forces written frames to stable storage.
    pub(crate) fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }
}
