//! The unified workspace error type.
//!
//! Every rjms crate surfaces failures through one [`enum@Error`]: broker
//! control-plane rejections, subscriber receive failures, journal
//! persistence faults, and network transport problems. Domain crates
//! re-export it and convert their internal error types via `From` impls,
//! so callers match on a single `#[non_exhaustive]` enum with
//! [`std::error::Error::source`] chaining instead of juggling per-crate
//! types.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::PathBuf;

/// Unified error for all rjms operations.
///
/// The enum is `#[non_exhaustive]`: new failure modes may be added without
/// a breaking release, so matches need a wildcard arm.
#[non_exhaustive]
#[derive(Debug, Serialize, Deserialize)]
pub enum Error {
    // --- broker control plane ------------------------------------------
    /// The named topic does not exist. Topics must be created before use
    /// (JMS configures topics before system start).
    TopicNotFound {
        /// The missing topic name.
        topic: String,
    },
    /// The topic already exists.
    TopicExists {
        /// The duplicate topic name.
        topic: String,
    },
    /// The topic name is empty or contains control characters.
    InvalidTopicName {
        /// The rejected name.
        topic: String,
    },
    /// The broker has been shut down.
    Stopped,
    /// A durable subscription with this name is already connected.
    DurableNameInUse {
        /// The topic the durable subscription lives on.
        topic: String,
        /// The durable subscription name.
        name: String,
    },
    /// No durable subscription with this name exists on the topic.
    DurableNotFound {
        /// The topic searched.
        topic: String,
        /// The missing durable subscription name.
        name: String,
    },
    /// A durable subscription cannot be removed while it is connected.
    DurableStillConnected {
        /// The topic the durable subscription lives on.
        topic: String,
        /// The durable subscription name.
        name: String,
    },
    /// A durable subscription requires a literal topic, not a wildcard
    /// pattern.
    DurablePattern {
        /// The rejected pattern.
        pattern: String,
    },
    /// A non-blocking publish found the queue full. The broker's
    /// `TryPublishError::Full` carries the rejected message; this variant
    /// is the payload-free form for unified reporting.
    QueueFull,
    /// Admission control shed the publish: the broker is past its
    /// model-derived arrival budget and this admission class is the first
    /// to lose service. The message was not enqueued; retrying immediately
    /// will not help while the overload lasts.
    PublishShed {
        /// The admission class (0 = lowest priority, shed first).
        class: u8,
    },
    /// Admission control deferred the publish: the broker is pacing this
    /// producer or class. The message was not enqueued; retry after the
    /// indicated delay.
    PublishDeferred {
        /// The admission class of the deferred publish.
        class: u8,
        /// Suggested retry delay in milliseconds.
        retry_after_ms: u64,
    },

    // --- subscriber data plane -----------------------------------------
    /// A blocking receive found the broker stopped and the queue drained.
    Disconnected,

    // --- journal -------------------------------------------------------
    /// A sealed journal segment does not hold the frames its place in the
    /// chain says it does (a frame that does not decode, too few, or bytes
    /// after them), found as the journal is recovered. A sealed segment was
    /// synced at rotation, so this is real corruption, not a torn tail,
    /// and recovery refuses to guess.
    JournalCorrupt {
        /// The corrupt segment file.
        segment: PathBuf,
        /// File position of the first invalid byte.
        file_pos: u64,
    },
    /// A publish was refused before it was queued: its journal record
    /// would exceed the journal's frame limit.
    RecordTooLarge {
        /// The record's length in bytes.
        size: usize,
        /// The largest record a journal frame holds.
        limit: usize,
    },

    // --- transport -----------------------------------------------------
    /// An underlying I/O operation failed.
    Io(std::io::Error),
    /// The remote server answered with an error response.
    Remote {
        /// The server's message.
        message: String,
    },
    /// A wire frame failed to decode.
    Decode {
        /// Human-readable description of the malformed frame.
        detail: String,
    },
    /// No response arrived within the configured timeout.
    Timeout,
    /// The connection is closed.
    Closed,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::TopicNotFound { topic } => write!(f, "topic `{topic}` not found"),
            Self::TopicExists { topic } => write!(f, "topic `{topic}` already exists"),
            Self::InvalidTopicName { topic } => write!(f, "invalid topic name `{topic}`"),
            Self::Stopped => f.write_str("broker has been stopped"),
            Self::DurableNameInUse { topic, name } => {
                write!(f, "durable subscription `{name}` on `{topic}` is already connected")
            }
            Self::DurableNotFound { topic, name } => {
                write!(f, "durable subscription `{name}` not found on `{topic}`")
            }
            Self::DurableStillConnected { topic, name } => {
                write!(f, "durable subscription `{name}` on `{topic}` is still connected")
            }
            Self::DurablePattern { pattern } => {
                write!(f, "durable subscriptions require a literal topic, got pattern `{pattern}`")
            }
            Self::QueueFull => f.write_str("publish queue is full"),
            Self::PublishShed { class } => {
                write!(f, "publish shed by admission control (class {class})")
            }
            Self::PublishDeferred { class, retry_after_ms } => {
                write!(
                    f,
                    "publish deferred by admission control (class {class}); \
                     retry after {retry_after_ms} ms"
                )
            }
            Self::Disconnected => {
                f.write_str("subscription closed: broker stopped and queue drained")
            }
            Self::JournalCorrupt { segment, file_pos } => {
                write!(f, "journal segment {} corrupt at byte {file_pos}", segment.display())
            }
            Self::RecordTooLarge { size, limit } => {
                write!(f, "journal record of {size} bytes exceeds the {limit} byte frame limit")
            }
            Self::Io(e) => write!(f, "I/O error: {e}"),
            Self::Remote { message } => write!(f, "server error: {message}"),
            Self::Decode { detail } => write!(f, "decode error: {detail}"),
            Self::Timeout => f.write_str("timed out waiting for the server"),
            Self::Closed => f.write_str("connection closed"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn display_messages() {
        assert_eq!(Error::TopicNotFound { topic: "t".into() }.to_string(), "topic `t` not found");
        assert_eq!(Error::Stopped.to_string(), "broker has been stopped");
        assert!(Error::Disconnected.to_string().contains("closed"));
        assert!(Error::QueueFull.to_string().contains("full"));
        assert_eq!(
            Error::PublishShed { class: 0 }.to_string(),
            "publish shed by admission control (class 0)"
        );
        let deferred = Error::PublishDeferred { class: 2, retry_after_ms: 40 };
        assert!(deferred.to_string().contains("class 2"));
        assert!(deferred.to_string().contains("40 ms"));
    }

    #[test]
    fn io_source_is_chained() {
        let e = Error::from(std::io::Error::other("disk on fire"));
        assert!(matches!(e, Error::Io(_)));
        assert_eq!(e.source().unwrap().to_string(), "disk on fire");
        assert!(Error::Timeout.source().is_none());
    }
}
