//! Segment files: their names, the recovery scan, and the active segment,
//! which is the journal's one open file.

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

/// A segment file as the recovery scan found it.
#[derive(Debug)]
pub(crate) struct Scan {
    file: File,
    /// Intact frames from the start of the file.
    pub(crate) frames: u64,
    /// Bytes those frames span; what follows is a torn or corrupt tail.
    pub(crate) valid_len: u64,
    /// The file's length.
    pub(crate) len: u64,
}

impl Scan {
    /// Reads the segment file at `path` into `contents` (one read, the
    /// buffer reused from file to file) and counts its intact frames. The
    /// file stays open for writing only if `writable` is set.
    pub(crate) fn read(path: &Path, writable: bool, contents: &mut Vec<u8>) -> io::Result<Scan> {
        let mut file = OpenOptions::new().read(true).write(writable).open(path)?;
        contents.clear();
        file.read_to_end(contents)?;
        let mut frames = 0;
        let mut pos = 0;
        while let FrameDecode::Complete { consumed, .. } = decode_frame(&contents[pos..]) {
            frames += 1;
            pos += consumed;
        }
        Ok(Scan { file, frames, valid_len: pos as u64, len: contents.len() as u64 })
    }
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

    /// Appends to the scanned segment starting at `base`, first cutting a
    /// torn or corrupt tail off at the last intact frame.
    pub(crate) fn resume(base: u64, scan: Scan) -> io::Result<ActiveSegment> {
        let Scan { mut file, frames, valid_len, len } = scan;
        if valid_len < len {
            file.set_len(valid_len)?;
            file.sync_data()?;
        }
        // The scan left the cursor at the old end of file; park it at the
        // valid end so the next append leaves no hole.
        file.seek(io::SeekFrom::Start(valid_len))?;
        Ok(ActiveSegment { base, frames, len: valid_len, file })
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
