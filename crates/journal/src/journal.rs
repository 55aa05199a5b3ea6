//! The journal proper: an ordered chain of segments with an offset index,
//! durability policy, recovery, and retention.

use std::fmt;
use std::io;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use crate::config::{FsyncPolicy, JournalConfig};
use crate::frame::encode_frame_with;
use crate::segment::{parse_segment_file_name, ScanTail, Segment};
use rjms_metrics::Histogram;

/// Journal failure.
#[derive(Debug)]
pub enum JournalError {
    /// An underlying filesystem operation failed.
    Io(io::Error),
    /// A *sealed* segment contains an invalid frame. Sealed segments were
    /// synced at rotation, so this is real corruption, not a torn tail,
    /// and recovery refuses to guess.
    Corrupt {
        /// The corrupt segment file.
        segment: PathBuf,
        /// File position of the first invalid byte.
        file_pos: u64,
    },
    /// The requested offset is below retention or at/after the append head.
    UnknownOffset(u64),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::Corrupt { segment, file_pos } => {
                write!(f, "sealed segment {} corrupt at byte {file_pos}", segment.display())
            }
            JournalError::UnknownOffset(offset) => {
                write!(f, "offset {offset} is not in the journal")
            }
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for JournalError {
    fn from(e: io::Error) -> Self {
        JournalError::Io(e)
    }
}

impl From<JournalError> for rjms_core::Error {
    fn from(e: JournalError) -> Self {
        match e {
            JournalError::Io(e) => rjms_core::Error::Io(e),
            JournalError::Corrupt { segment, file_pos } => {
                rjms_core::Error::JournalCorrupt { segment, file_pos }
            }
            JournalError::UnknownOffset(offset) => rjms_core::Error::UnknownOffset(offset),
        }
    }
}

/// Journal result alias.
pub type Result<T> = std::result::Result<T, JournalError>;

/// Counters describing everything the journal has done since open.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Frames appended since open.
    pub appends: u64,
    /// Payload + header bytes written since open.
    pub bytes_appended: u64,
    /// Explicit `fdatasync` calls issued (policy, rotation, and manual).
    pub fsyncs: u64,
    /// Intact frames found on disk by the recovery scan at open.
    pub frames_recovered: u64,
    /// Bytes of torn tail cut off by the recovery scan at open.
    pub torn_bytes_truncated: u64,
    /// Segments sealed and replaced with a fresh active segment.
    pub segments_rotated: u64,
    /// Sealed segments deleted by retention.
    pub segments_removed: u64,
}

/// What recovery found when the journal was opened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Intact frames available for replay.
    pub frames_recovered: u64,
    /// Bytes of torn tail truncated from the active segment.
    pub torn_bytes_truncated: u64,
    /// Offset of the oldest retained frame.
    pub first_offset: u64,
    /// Offset the next append will receive.
    pub next_offset: u64,
}

/// A batch commits early once it has buffered this much, so a run of large
/// bodies is written as it goes instead of sitting in memory (the cap
/// `rjms-net`'s writer uses for the same reason, `WRITE_BATCH_BYTES`).
const COMMIT_BYTES: usize = 64 * 1024;

/// A segmented, append-only, checksummed write-ahead log.
///
/// Offsets are dense monotonically increasing frame sequence numbers,
/// starting at 0 for the first frame ever appended; retention may remove
/// whole sealed segments from the low end.
///
/// Frames are appended through [`Journal::batch`], which encodes any
/// number of them into one buffer and writes it with one `write_all`
/// (group commit); [`Journal::append`] is the batch of one.
///
/// # Examples
///
/// ```
/// use rjms_journal::{scratch_dir, FsyncPolicy, Journal, JournalConfig};
///
/// let dir = scratch_dir("journal-doc");
/// let config = JournalConfig::new(&dir).fsync(FsyncPolicy::Always);
/// let (mut journal, recovery) = Journal::open(config.clone()).unwrap();
/// assert_eq!(recovery.frames_recovered, 0);
/// let offset = journal.append(b"hello").unwrap();
/// drop(journal);
///
/// let (journal, recovery) = Journal::open(config).unwrap();
/// assert_eq!(recovery.frames_recovered, 1);
/// assert_eq!(journal.read(offset).unwrap(), b"hello");
/// std::fs::remove_dir_all(&dir).unwrap();
/// ```
#[derive(Debug)]
pub struct Journal {
    config: JournalConfig,
    /// Ordered by base offset; the last entry is the active segment.
    segments: Vec<Segment>,
    /// The encoded frames of the batch in progress, not written yet, and
    /// where each of them starts. Both are reused from batch to batch; no
    /// method but the batch itself can see them.
    buf: Vec<u8>,
    starts: Vec<usize>,
    appends_since_sync: u32,
    last_sync: Instant,
    stats: JournalStats,
    /// Wall-clock cost per appended frame, nanoseconds: one sample per
    /// frame, each its commit's wall time (encoding, write, policy sync,
    /// a rotation before it) divided by the frames committed together.
    /// Always on (the clock is read per commit, not per frame); the
    /// broker registers it as `journal.append_ns` when metrics are
    /// enabled, and it feeds the measured `t_store` cost term.
    append_latency: Arc<Histogram>,
    /// Wall-clock latency of every explicit [`Journal::sync`], nanoseconds
    /// (`journal.fsync_ns` in the broker's registry).
    fsync_latency: Arc<Histogram>,
}

impl Journal {
    /// Opens (or creates) the journal in `config.dir`, scanning every
    /// segment and truncating a torn tail on the active one.
    ///
    /// # Errors
    ///
    /// I/O failure, or [`JournalError::Corrupt`] if a *sealed* segment
    /// fails validation.
    pub fn open(config: JournalConfig) -> Result<(Journal, RecoveryReport)> {
        std::fs::create_dir_all(&config.dir)?;

        let mut bases = Vec::new();
        for entry in std::fs::read_dir(&config.dir)? {
            let entry = entry?;
            if let Some(base) = entry.file_name().to_str().and_then(parse_segment_file_name) {
                bases.push((base, entry.path()));
            }
        }
        bases.sort_unstable_by_key(|(base, _)| *base);

        let mut segments = Vec::with_capacity(bases.len().max(1));
        let mut frames_recovered = 0u64;
        let mut torn_bytes_truncated = 0u64;
        let count = bases.len();
        for (index, (base, path)) in bases.into_iter().enumerate() {
            let is_active = index + 1 == count;
            let (segment, report) = Segment::open(&path, base, is_active)?;
            if let ScanTail::Torn { valid_len, invalid_bytes } = report.tail {
                if !is_active {
                    return Err(JournalError::Corrupt { segment: path, file_pos: valid_len });
                }
                torn_bytes_truncated = invalid_bytes;
            }
            // Offsets must chain across segments; a gap means a segment
            // file was deleted by hand.
            if segment.base_offset() != base
                || segments
                    .last()
                    .is_some_and(|prev: &Segment| prev.end_offset() != segment.base_offset())
            {
                return Err(JournalError::Corrupt { segment: path, file_pos: 0 });
            }
            frames_recovered += segment.frame_count() as u64;
            segments.push(segment);
        }

        if segments.is_empty() {
            segments.push(Segment::create(&config.dir, 0)?);
        }

        let journal = Journal {
            config,
            buf: Vec::new(),
            starts: Vec::new(),
            appends_since_sync: 0,
            last_sync: Instant::now(),
            stats: JournalStats {
                frames_recovered,
                torn_bytes_truncated,
                ..JournalStats::default()
            },
            segments,
            append_latency: Arc::new(Histogram::new()),
            fsync_latency: Arc::new(Histogram::new()),
        };
        let report = RecoveryReport {
            frames_recovered,
            torn_bytes_truncated,
            first_offset: journal.first_offset(),
            next_offset: journal.next_offset(),
        };
        Ok((journal, report))
    }

    fn active(&mut self) -> &mut Segment {
        self.segments.last_mut().expect("journal always has an active segment")
    }

    /// Offset of the oldest frame still on disk.
    pub fn first_offset(&self) -> u64 {
        self.segments[0].base_offset()
    }

    /// Offset the next append will be assigned.
    pub fn next_offset(&self) -> u64 {
        self.segments.last().expect("active segment").end_offset()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> JournalStats {
        self.stats
    }

    /// The shared append-latency histogram (nanoseconds per appended
    /// frame, including its share of rotation and policy-driven syncs).
    /// Snapshot it — or register it in a
    /// [`rjms_metrics::MetricsRegistry`] — to observe the `t_store` cost
    /// term live.
    pub fn append_latency(&self) -> Arc<Histogram> {
        Arc::clone(&self.append_latency)
    }

    /// The shared fsync-latency histogram (nanoseconds per explicit
    /// [`Journal::sync`] call).
    pub fn fsync_latency(&self) -> Arc<Histogram> {
        Arc::clone(&self.fsync_latency)
    }

    /// The configuration the journal was opened with.
    pub fn config(&self) -> &JournalConfig {
        &self.config
    }

    fn rotate(&mut self) -> Result<()> {
        self.active().sync()?;
        self.stats.fsyncs += 1;
        let next = self.next_offset();
        self.segments.push(Segment::create(&self.config.dir.clone(), next)?);
        self.stats.segments_rotated += 1;
        self.enforce_retention()?;
        Ok(())
    }

    fn enforce_retention(&mut self) -> Result<()> {
        let Some(max_sealed) = self.config.max_sealed_segments else {
            return Ok(());
        };
        // Last segment is active and exempt.
        while self.segments.len() > max_sealed + 1 {
            let removed = self.segments.remove(0);
            std::fs::remove_file(removed.path())?;
            self.stats.segments_removed += 1;
        }
        Ok(())
    }

    /// Appends one record, applying rotation and the fsync policy, and
    /// returns the record's offset: a batch of one frame.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64> {
        self.batch(|batch| batch.append_with(|out| out.extend_from_slice(payload)))
    }

    /// Group commit: every frame `fill` appends to the [`Batch`] is encoded
    /// into one buffer, and when `fill` returns the buffer is written with
    /// one `write_all` and the fsync policy is applied once. While `fill`
    /// runs the journal is borrowed, so nothing can read, sync, rotate or
    /// drop it between a frame's buffering and its commit; if `fill` fails
    /// or panics, the frames not yet committed are discarded.
    pub fn batch<T>(&mut self, fill: impl FnOnce(&mut Batch<'_>) -> Result<T>) -> Result<T> {
        // What a failed batch left behind was never written.
        self.buf.clear();
        self.starts.clear();
        let mut batch = Batch { journal: self, mark: Instant::now() };
        let out = fill(&mut batch)?;
        batch.commit()?;
        Ok(out)
    }

    /// Writes the buffered frames, which are `buf[..end]`, to the active
    /// segment and applies the fsync policy, once for all of them.
    fn write_buffered(&mut self, end: usize) -> Result<()> {
        let frames = self.starts.len() as u64;
        let active = self.segments.last_mut().expect("journal always has an active segment");
        active.write_frames(&self.buf[..end], &self.starts)?;
        self.buf.drain(..end);
        self.starts.clear();
        if self.buf.capacity() > 4 * COMMIT_BYTES {
            // One huge body must not pin its size for the journal's lifetime.
            self.buf.shrink_to(COMMIT_BYTES);
        }
        self.stats.appends += frames;
        self.stats.bytes_appended += end as u64;
        self.appends_since_sync = self.appends_since_sync.saturating_add(frames as u32);

        let due = match self.config.fsync {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(n) => self.appends_since_sync >= n,
            FsyncPolicy::Interval(interval) => self.last_sync.elapsed() >= interval,
            FsyncPolicy::Never => false,
        };
        if due {
            self.sync()?;
        }
        Ok(())
    }

    /// Forces everything appended so far to stable storage.
    pub fn sync(&mut self) -> Result<()> {
        let start = Instant::now();
        self.active().sync()?;
        self.fsync_latency.record_duration(start.elapsed());
        self.stats.fsyncs += 1;
        self.appends_since_sync = 0;
        self.last_sync = Instant::now();
        Ok(())
    }

    fn segment_for(&self, offset: u64) -> Result<&Segment> {
        if offset < self.first_offset() || offset >= self.next_offset() {
            return Err(JournalError::UnknownOffset(offset));
        }
        let index = self
            .segments
            .partition_point(|s| s.base_offset() <= offset)
            .checked_sub(1)
            .ok_or(JournalError::UnknownOffset(offset))?;
        Ok(&self.segments[index])
    }

    /// Reads the payload appended at `offset`.
    pub fn read(&self, offset: u64) -> Result<Vec<u8>> {
        Ok(self.segment_for(offset)?.read(offset)?)
    }

    /// Iterates `(offset, payload)` pairs from `from` (clamped up to the
    /// retention floor) to the append head.
    pub fn replay(&self, from: u64) -> Replay<'_> {
        Replay { journal: self, next: from.max(self.first_offset()) }
    }
}

/// The append side of a [`Journal`] for the length of one
/// [`Journal::batch`] call.
#[derive(Debug)]
pub struct Batch<'a> {
    journal: &'a mut Journal,
    /// Since when wall time has not been booked to a commit.
    mark: Instant,
}

impl Batch<'_> {
    /// Buffers one frame whose payload is whatever `write` appends to the
    /// vector it is handed (the journal's own buffer, so the payload is
    /// never copied), and returns the frame's offset. The frame is on the
    /// file when the batch ends, or earlier: a batch commits what it holds
    /// before it rotates the active segment and whenever it has buffered
    /// 64 KiB.
    pub fn append_with(&mut self, write: impl FnOnce(&mut Vec<u8>)) -> Result<u64> {
        let journal = &mut *self.journal;
        let start = journal.buf.len();
        encode_frame_with(&mut journal.buf, write);

        // Rotation happens between frames: what is buffered before this
        // one belongs to the segment being sealed, this one opens the next.
        let active = journal.segments.last().expect("journal always has an active segment");
        let holds_frames = !active.is_empty() || start > 0;
        let needs_rotation = holds_frames
            && active.len() + journal.buf.len() as u64 > journal.config.segment_max_bytes;
        let start = if needs_rotation {
            // The commit takes the written bytes off the buffer's front.
            self.commit_to(start)?;
            self.journal.rotate()?;
            0
        } else {
            start
        };

        let journal = &mut *self.journal;
        let offset = journal.next_offset() + journal.starts.len() as u64;
        journal.starts.push(start);
        if journal.buf.len() >= COMMIT_BYTES {
            self.commit()?;
        }
        Ok(offset)
    }

    fn commit(&mut self) -> Result<()> {
        self.commit_to(self.journal.buf.len())
    }

    /// Commits the frames registered so far, which end at `buf[end]`, and
    /// books the wall time since the last commit to them in equal shares.
    fn commit_to(&mut self, end: usize) -> Result<()> {
        let frames = self.journal.starts.len() as u64;
        if frames == 0 {
            return Ok(());
        }
        let written = self.journal.write_buffered(end);
        let now = Instant::now();
        let elapsed = u64::try_from((now - self.mark).as_nanos()).unwrap_or(u64::MAX);
        self.journal.append_latency.record_n(elapsed / frames, frames);
        self.mark = now;
        written
    }
}

/// Iterator over journal records; see [`Journal::replay`].
#[derive(Debug)]
pub struct Replay<'a> {
    journal: &'a Journal,
    next: u64,
}

impl Iterator for Replay<'_> {
    type Item = Result<(u64, Vec<u8>)>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.next >= self.journal.next_offset() {
            return None;
        }
        let offset = self.next;
        self.next += 1;
        Some(self.journal.read(offset).map(|payload| (offset, payload)))
    }
}
