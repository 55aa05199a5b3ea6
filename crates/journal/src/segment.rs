//! A single append-only segment file.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use crate::frame::{decode_frame, FrameDecode};

/// File extension for segment files.
pub const SEGMENT_EXTENSION: &str = "wal";

/// The file name of the segment starting at `base_offset`.
pub fn segment_file_name(base_offset: u64) -> String {
    format!("{base_offset:020}.{SEGMENT_EXTENSION}")
}

/// Parses a segment base offset back out of a file name.
pub fn parse_segment_file_name(name: &str) -> Option<u64> {
    let stem = name.strip_suffix(&format!(".{SEGMENT_EXTENSION}"))?;
    if stem.len() != 20 || !stem.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    stem.parse().ok()
}

/// What a recovery scan found in one segment file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScanTail {
    /// The file ends exactly at a frame boundary.
    Clean,
    /// The file ends in a torn or corrupt frame starting at `valid_len`.
    Torn {
        /// File length up to and including the last intact frame.
        valid_len: u64,
        /// Bytes beyond `valid_len` that cannot be replayed.
        invalid_bytes: u64,
    },
}

/// Result of scanning a segment file during recovery.
#[derive(Debug)]
pub struct ScanReport {
    /// Byte position of each intact frame, in order.
    pub positions: Vec<u64>,
    /// Whether the file ended cleanly or in a torn tail.
    pub tail: ScanTail,
}

/// One segment: a base offset plus an append handle and an in-memory
/// frame position index.
#[derive(Debug)]
pub struct Segment {
    base_offset: u64,
    path: PathBuf,
    file: File,
    len: u64,
    /// Byte position of frame `base_offset + i` at index `i`.
    positions: Vec<u64>,
}

impl Segment {
    /// Creates a fresh, empty segment starting at `base_offset`.
    pub fn create(dir: &Path, base_offset: u64) -> io::Result<Segment> {
        let path = dir.join(segment_file_name(base_offset));
        let file = OpenOptions::new().create_new(true).read(true).write(true).open(&path)?;
        Ok(Segment { base_offset, path, file, len: 0, positions: Vec::new() })
    }

    /// Opens an existing segment file, scanning and indexing its frames.
    ///
    /// If `truncate_torn_tail` is set (the active segment during recovery),
    /// a trailing torn or corrupt frame is cut off at the last intact
    /// frame boundary; otherwise the tail state is only reported.
    pub fn open(
        path: &Path,
        base_offset: u64,
        truncate_torn_tail: bool,
    ) -> io::Result<(Segment, ScanReport)> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        let mut contents = Vec::new();
        file.read_to_end(&mut contents)?;

        let mut positions = Vec::new();
        let mut pos = 0usize;
        loop {
            match decode_frame(&contents[pos..]) {
                FrameDecode::Complete { consumed, .. } => {
                    positions.push(pos as u64);
                    pos += consumed;
                }
                _ if pos == contents.len() => break,
                FrameDecode::Incomplete | FrameDecode::Corrupt => break,
            }
        }

        let tail = if pos == contents.len() {
            ScanTail::Clean
        } else {
            ScanTail::Torn { valid_len: pos as u64, invalid_bytes: (contents.len() - pos) as u64 }
        };

        let mut len = contents.len() as u64;
        if truncate_torn_tail {
            if let ScanTail::Torn { valid_len, .. } = tail {
                file.set_len(valid_len)?;
                file.sync_data()?;
                len = valid_len;
            }
        }
        // read_to_end left the cursor at the pre-truncation EOF; park it at
        // the valid end so the next append doesn't leave a hole.
        file.seek(io::SeekFrom::Start(len))?;

        let segment = Segment {
            base_offset,
            path: path.to_path_buf(),
            file,
            len,
            positions: positions.clone(),
        };
        Ok((segment, ScanReport { positions, tail }))
    }

    /// The offset of the first frame this segment holds.
    pub fn base_offset(&self) -> u64 {
        self.base_offset
    }

    /// The offset one past the last frame in this segment.
    pub fn end_offset(&self) -> u64 {
        self.base_offset + self.positions.len() as u64
    }

    /// Number of frames in this segment.
    pub fn frame_count(&self) -> usize {
        self.positions.len()
    }

    /// Current file length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the segment holds no frames.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Path of the backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Writes `frames` (whole encoded frames, the `i`-th beginning at
    /// `starts[i]`) with one `write_all` and indexes them. The write is
    /// buffered by the OS until [`Segment::sync`].
    pub fn write_frames(&mut self, frames: &[u8], starts: &[usize]) -> io::Result<()> {
        self.file.write_all(frames)?;
        self.positions.extend(starts.iter().map(|&start| self.len + start as u64));
        self.len += frames.len() as u64;
        Ok(())
    }

    /// Forces written frames to stable storage.
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    /// Reads the payload of the frame at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if the offset is outside this segment; the journal routes
    /// offsets to segments before calling.
    pub fn read(&self, offset: u64) -> io::Result<Vec<u8>> {
        assert!(
            offset >= self.base_offset && offset < self.end_offset(),
            "offset {offset} outside segment [{}, {})",
            self.base_offset,
            self.end_offset()
        );
        let pos = self.positions[(offset - self.base_offset) as usize];
        let end = self
            .positions
            .get((offset - self.base_offset) as usize + 1)
            .copied()
            .unwrap_or(self.len);
        let mut encoded = vec![0u8; (end - pos) as usize];
        self.file.read_exact_at(&mut encoded, pos)?;
        match decode_frame(&encoded) {
            FrameDecode::Complete { payload, .. } => Ok(payload.to_vec()),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "frame at offset {offset} in {} unreadable after append: {other:?}",
                    self.path.display()
                ),
            )),
        }
    }
}
