//! Broker error types.
//!
//! Broker operations fail with the workspace-wide [`rjms_core::Error`]
//! (re-exported here as [`enum@Error`]); the per-crate `BrokerError` and
//! `ReceiveError` aliases deprecated in 0.2.0 have been removed. The
//! one broker-specific type is [`TryPublishError`], which hands the
//! rejected [`Message`] back to the caller on push-back.

use crate::message::Message;
use std::fmt;

pub use rjms_core::Error;

/// Error of a non-blocking publish: either the bounded publish queue is
/// full — push-back, with the message handed back untouched — or the
/// broker has stopped.
///
/// Replaces the old `Result<(), Option<Message>>` signature, which
/// overloaded `Option` to mean "full (here is your message)" vs "stopped".
#[derive(Debug)]
pub enum TryPublishError {
    /// The publish queue is full; the message comes back to the caller so
    /// it can retry or shed load (the paper's publisher-side queueing).
    Full(Message),
    /// The publish was refused before it was queued: admission control
    /// denied it (flow control is enabled and the broker is over its
    /// model-derived arrival budget), or its journal record is too large.
    /// The message comes back untouched together with the typed reason —
    /// [`Error::PublishShed`], [`Error::PublishDeferred`] or
    /// [`Error::RecordTooLarge`].
    Denied {
        /// The rejected message, handed back untouched.
        message: Message,
        /// Why admission was denied.
        reason: Error,
    },
    /// The broker has been shut down.
    Stopped,
}

impl TryPublishError {
    /// Consumes the error, returning the rejected message if the queue was
    /// full or admission was denied.
    pub fn into_message(self) -> Option<Message> {
        match self {
            Self::Full(message) | Self::Denied { message, .. } => Some(message),
            Self::Stopped => None,
        }
    }
}

impl fmt::Display for TryPublishError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Full(_) => f.write_str("publish queue is full"),
            Self::Denied { reason, .. } => write!(f, "publish denied: {reason}"),
            Self::Stopped => f.write_str("broker has been stopped"),
        }
    }
}

impl std::error::Error for TryPublishError {}

impl From<TryPublishError> for Error {
    fn from(e: TryPublishError) -> Self {
        match e {
            TryPublishError::Full(_) => Error::QueueFull,
            TryPublishError::Denied { reason, .. } => reason,
            TryPublishError::Stopped => Error::Stopped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(Error::TopicNotFound { topic: "t".into() }.to_string(), "topic `t` not found");
        assert_eq!(Error::Stopped.to_string(), "broker has been stopped");
        assert!(Error::Disconnected.to_string().contains("closed"));
    }

    #[test]
    fn try_publish_error_hands_the_message_back() {
        let e = TryPublishError::Full(crate::message::Message::builder().build());
        assert!(e.to_string().contains("full"));
        assert!(e.into_message().is_some());
        assert!(TryPublishError::Stopped.into_message().is_none());
        assert!(matches!(Error::from(TryPublishError::Stopped), Error::Stopped));
        let full = TryPublishError::Full(crate::message::Message::builder().build());
        assert!(matches!(Error::from(full), Error::QueueFull));
    }

    #[test]
    fn denied_hands_the_message_and_reason_back() {
        let denied = TryPublishError::Denied {
            message: crate::message::Message::builder().build(),
            reason: Error::PublishShed { class: 0 },
        };
        assert!(denied.to_string().contains("shed"));
        assert!(matches!(Error::from(denied), Error::PublishShed { class: 0 }));
        let denied = TryPublishError::Denied {
            message: crate::message::Message::builder().build(),
            reason: Error::PublishDeferred { class: 1, retry_after_ms: 5 },
        };
        assert!(denied.into_message().is_some());
    }
}
