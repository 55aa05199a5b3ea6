//! Segment files: their names, and the active segment, which is the
//! journal's one open file.

use std::fs::{File, OpenOptions};
use std::io::{self, Seek, Write};
use std::path::Path;

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
/// the journal: its file was synced when it was sealed, and only recovery
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

    /// Takes over `file`, the segment from `base`, for appending, once
    /// recovery found `frames` whole frames in the first `len` of its `read`
    /// bytes: cuts the rest (a torn tail) and returns its length as well.
    pub(crate) fn resume(
        mut file: File,
        base: u64,
        frames: u64,
        len: usize,
        read: usize,
    ) -> io::Result<(ActiveSegment, u64)> {
        let len = len as u64;
        if len < read as u64 {
            file.set_len(len)?;
            file.sync_data()?;
            // The read left the cursor at the old end of file; park it at
            // the valid end so the next append leaves no hole.
            file.seek(io::SeekFrom::Start(len))?;
        }
        Ok((ActiveSegment { base, frames, len, file }, read as u64 - len))
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
