//! Journal configuration.

use std::path::PathBuf;
use std::time::Duration;

/// When appended frames are forced to stable storage.
///
/// The policy is the knob behind the paper-extension measurement: the
/// per-message storage cost `t_store` ranges over three orders of magnitude
/// between [`FsyncPolicy::Always`] and [`FsyncPolicy::Never`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fdatasync` after every append: no acknowledged frame is ever lost,
    /// at the cost of a disk round-trip per message.
    Always,
    /// `fdatasync` once per `n` appends; at most `n - 1` acknowledged
    /// frames are exposed to loss.
    EveryN(u32),
    /// `fdatasync` when at least this much time has passed since the last
    /// sync, checked on append.
    Interval(Duration),
    /// Never sync explicitly; durability rides on the OS page cache.
    Never,
}

impl FsyncPolicy {
    /// A short label for reports and bench tables.
    pub fn label(&self) -> String {
        match self {
            FsyncPolicy::Always => "always".to_string(),
            FsyncPolicy::EveryN(n) => format!("every-{n}"),
            FsyncPolicy::Interval(d) => format!("interval-{}ms", d.as_millis()),
            FsyncPolicy::Never => "never".to_string(),
        }
    }
}

/// Configuration for [`crate::Journal`].
///
/// # Examples
///
/// ```
/// use rjms_journal::{FsyncPolicy, JournalConfig};
///
/// let config = JournalConfig::new("/tmp/rjms-doc-journal")
///     .segment_max_bytes(4 * 1024 * 1024)
///     .fsync(FsyncPolicy::EveryN(128));
/// assert_eq!(config.fsync, FsyncPolicy::EveryN(128));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct JournalConfig {
    /// Directory holding the segment files; created on open.
    pub dir: PathBuf,
    /// Size at which the active segment is sealed and a new one started.
    pub segment_max_bytes: u64,
    /// Durability policy for appends.
    pub fsync: FsyncPolicy,
    /// Cap on *sealed* segments kept on disk; the oldest are removed first.
    /// The active segment never counts and is never removed. Retention
    /// does not know what a record means: for a broker, a restart after it
    /// has removed a segment holding a topic's creation or a durable
    /// subscription's registration loses that topic or durable, and its
    /// backlog, with no error.
    pub max_sealed_segments: Option<usize>,
}

impl JournalConfig {
    /// A configuration with defaults: 8 MiB segments, sync every 64
    /// appends, unbounded retention.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        JournalConfig {
            dir: dir.into(),
            segment_max_bytes: 8 * 1024 * 1024,
            fsync: FsyncPolicy::EveryN(64),
            max_sealed_segments: None,
        }
    }

    /// Sets the segment size threshold.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero.
    pub fn segment_max_bytes(mut self, bytes: u64) -> Self {
        assert!(bytes > 0, "segment_max_bytes must be positive");
        self.segment_max_bytes = bytes;
        self
    }

    /// Sets the durability policy.
    ///
    /// # Panics
    ///
    /// Panics if the policy is `EveryN(0)`.
    pub fn fsync(mut self, policy: FsyncPolicy) -> Self {
        if let FsyncPolicy::EveryN(n) = policy {
            assert!(n > 0, "FsyncPolicy::EveryN(0) would never sync; use Never");
        }
        self.fsync = policy;
        self
    }

    /// Caps the number of sealed segments kept on disk.
    pub fn max_sealed_segments(mut self, segments: usize) -> Self {
        self.max_sealed_segments = Some(segments);
        self
    }
}
