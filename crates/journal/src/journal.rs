//! The journal proper: an ordered chain of segments, durability policy,
//! retention, and recovery, the one forward pass that reads it back.

use std::collections::VecDeque;
use std::fmt;
use std::fs::OpenOptions;
use std::io::{self, Read};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use crate::config::{FsyncPolicy, JournalConfig};
use crate::frame::{decode_frame, encode_frame_with, FrameDecode};
use crate::segment::{parse_segment_file_name, segment_file_name, ActiveSegment};
use rjms_metrics::Histogram;

/// Journal failure.
#[derive(Debug)]
pub enum JournalError {
    /// An underlying filesystem operation failed.
    Io(io::Error),
    /// [`Journal::recover`] found a sealed segment that does not hold the
    /// frames its place in the chain says it does: a frame that does not
    /// decode, fewer frames than reach the next segment's base, or bytes
    /// after the last of them. A sealed segment was synced at rotation, so
    /// this is real corruption, not a torn tail, and recovery refuses to
    /// guess.
    Corrupt {
        /// The corrupt segment file.
        segment: PathBuf,
        /// File position of the first frame that is missing or invalid,
        /// or of the first byte past the frames the segment should end at.
        file_pos: u64,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::Corrupt { segment, file_pos } => {
                write!(f, "journal segment {} corrupt at byte {file_pos}", segment.display())
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
    /// Frames recovery handed over at open, `next_offset − first_offset`.
    pub frames_recovered: u64,
    /// Bytes of torn tail cut off the active segment at open.
    pub torn_bytes_truncated: u64,
    /// Segments sealed and replaced with a fresh active segment.
    pub segments_rotated: u64,
    /// Sealed segments deleted by retention.
    pub segments_removed: u64,
}

/// What [`Journal::recover`] found when the journal was opened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Frames read and handed over, in order, `next_offset − first_offset`.
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
/// (group commit); [`Journal::append`] is the batch of one. They are read
/// back once, in order, by [`Journal::recover`] as it opens the journal.
/// The journal keeps no index: a sealed segment is its base offset, and the
/// active segment's file is the only one it holds open.
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
/// let mut recovered = Vec::new();
/// let (_journal, recovery) =
///     Journal::recover(config, |offset, payload| recovered.push((offset, payload.to_vec())))
///         .unwrap();
/// assert_eq!(recovery.frames_recovered, 1);
/// assert_eq!(recovered, [(offset, b"hello".to_vec())]);
/// std::fs::remove_dir_all(&dir).unwrap();
/// ```
#[derive(Debug)]
pub struct Journal {
    config: JournalConfig,
    /// The base offsets of the sealed segments, oldest first. Offsets
    /// chain, so each one ends where the next segment begins.
    sealed: VecDeque<u64>,
    active: ActiveSegment,
    /// The encoded frames of the batch in progress, not written yet, and
    /// how many they are. The buffer is reused from batch to batch; no
    /// method but the batch itself can see it.
    buf: Vec<u8>,
    buffered: u64,
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
    /// Opens (or creates) the journal in `config.dir`: [`Journal::recover`]
    /// with nobody to hand the records to.
    pub fn open(config: JournalConfig) -> Result<(Journal, RecoveryReport)> {
        Journal::recover(config, |_, _| {})
    }

    /// Opens (or creates) the journal in `config.dir` in one forward pass
    /// that reads each segment file once into one reused buffer and lends
    /// `record` each `(offset, payload)` from it, in order. A sealed
    /// segment must hold exactly the frames from its base to the next
    /// one's; the newest, the active segment, is lent up to its first frame
    /// that does not decode, and the rest (a torn tail) is cut off.
    ///
    /// # Errors
    ///
    /// I/O failure, or [`JournalError::Corrupt`] where a sealed segment
    /// does not hold its frames; `record` has seen every frame before it.
    pub fn recover(
        config: JournalConfig,
        mut record: impl FnMut(u64, &[u8]),
    ) -> Result<(Journal, RecoveryReport)> {
        std::fs::create_dir_all(&config.dir)?;
        let mut bases = Vec::new();
        for entry in std::fs::read_dir(&config.dir)? {
            if let Some(base) = entry?.file_name().to_str().and_then(parse_segment_file_name) {
                bases.push(base);
            }
        }
        bases.sort_unstable();

        let (mut contents, mut resumed) = (Vec::new(), None);
        for (i, &base) in bases.iter().enumerate() {
            // The next base, where a sealed segment ends; none for the newest.
            let end = bases.get(i + 1).copied();
            let segment = config.dir.join(segment_file_name(base));
            let mut file = OpenOptions::new().read(true).write(end.is_none()).open(&segment)?;
            contents.clear();
            file.read_to_end(&mut contents)?;
            let (mut frames, mut pos) = (0, 0);
            while end.is_none_or(|end| base + frames < end) {
                let FrameDecode::Complete { payload, consumed } = decode_frame(&contents[pos..])
                else {
                    break;
                };
                record(base + frames, payload);
                frames += 1;
                pos += consumed;
            }
            match end {
                None => {
                    resumed = Some(ActiveSegment::resume(file, base, frames, pos, contents.len())?);
                }
                Some(end) if base + frames < end || pos < contents.len() => {
                    return Err(JournalError::Corrupt { segment, file_pos: pos as u64 });
                }
                Some(_) => {}
            }
        }
        let (active, torn_bytes_truncated) = match resumed {
            Some(resumed) => resumed,
            None => (ActiveSegment::create(&config.dir, 0)?, 0),
        };
        bases.pop(); // the active segment's
        let sealed = VecDeque::from(bases);
        let frames_recovered = active.end() - sealed.front().copied().unwrap_or(active.base);

        let journal = Journal {
            config,
            sealed,
            active,
            buf: Vec::new(),
            buffered: 0,
            appends_since_sync: 0,
            last_sync: Instant::now(),
            stats: JournalStats {
                frames_recovered,
                torn_bytes_truncated,
                ..JournalStats::default()
            },
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

    /// Offset of the oldest frame still on disk.
    pub fn first_offset(&self) -> u64 {
        self.sealed.front().copied().unwrap_or(self.active.base)
    }

    /// Offset the next append will be assigned.
    pub fn next_offset(&self) -> u64 {
        self.active.end()
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

    /// Seals the active segment (its file is synced and closed) and starts
    /// the next one.
    fn rotate(&mut self) -> Result<()> {
        self.active.sync()?;
        self.stats.fsyncs += 1;
        let next = ActiveSegment::create(&self.config.dir, self.next_offset())?;
        let sealed = std::mem::replace(&mut self.active, next);
        self.sealed.push_back(sealed.base);
        self.stats.segments_rotated += 1;
        self.enforce_retention()?;
        Ok(())
    }

    fn enforce_retention(&mut self) -> Result<()> {
        let Some(max_sealed) = self.config.max_sealed_segments else {
            return Ok(());
        };
        // The active segment is exempt.
        while self.sealed.len() > max_sealed {
            let base = self.sealed.pop_front().expect("more sealed segments than the cap");
            std::fs::remove_file(self.config.dir.join(segment_file_name(base)))?;
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
        self.buffered = 0;
        let mut batch = Batch { journal: self, mark: Instant::now() };
        let out = fill(&mut batch)?;
        batch.commit()?;
        Ok(out)
    }

    /// Writes the buffered frames, which are `buf[..end]`, to the active
    /// segment and applies the fsync policy, once for all of them.
    fn write_buffered(&mut self, end: usize) -> Result<()> {
        let frames = self.buffered;
        self.active.write_frames(&self.buf[..end], frames)?;
        self.buf.drain(..end);
        self.buffered = 0;
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
        self.active.sync()?;
        self.fsync_latency.record_duration(start.elapsed());
        self.stats.fsyncs += 1;
        self.appends_since_sync = 0;
        self.last_sync = Instant::now();
        Ok(())
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
        let active = &journal.active;
        let holds_frames = active.frames > 0 || start > 0;
        let needs_rotation = holds_frames
            && active.len + journal.buf.len() as u64 > journal.config.segment_max_bytes;
        if needs_rotation {
            // The commit takes the written bytes off the buffer's front.
            self.commit_to(start)?;
            self.journal.rotate()?;
        }

        let journal = &mut *self.journal;
        let offset = journal.next_offset() + journal.buffered;
        journal.buffered += 1;
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
        let frames = self.journal.buffered;
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
