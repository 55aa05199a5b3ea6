//! Per-subscription message filters.
//!
//! The paper distinguishes three message-selection mechanisms with different
//! costs: topics (coarse, free at dispatch time), correlation-ID filters
//! (cheap string/range matching), and application-property filters (full
//! selector evaluation). [`Filter`] is the per-subscription selection rule;
//! topic selection happens one level up, in the broker's topic registry.

use crate::message::Message;
use rjms_selector::corrid::{CorrelationFilter, ParseCorrelationFilterError};
use rjms_selector::{ParseError, Selector};
use std::fmt;

/// A subscription's message filter.
///
/// # Examples
///
/// ```
/// use rjms_broker::filter::Filter;
/// use rjms_broker::message::Message;
///
/// let f = Filter::correlation_id("[7;13]").unwrap();
/// let hit = Message::builder().correlation_id("#9").build();
/// let miss = Message::builder().correlation_id("#42").build();
/// assert!(f.matches(&hit));
/// assert!(!f.matches(&miss));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub enum Filter {
    /// No filter: every message in the topic is forwarded.
    #[default]
    None,
    /// Correlation-ID filter (exact, range `[lo;hi]`, prefix, or any).
    CorrelationId(CorrelationFilter),
    /// Application-property filter: a full JMS message selector.
    Selector(Selector),
}

impl Filter {
    /// Builds a correlation-ID filter from its pattern syntax.
    ///
    /// # Errors
    ///
    /// Returns an error for malformed range patterns (see
    /// [`CorrelationFilter`]).
    pub fn correlation_id(pattern: &str) -> Result<Self, ParseCorrelationFilterError> {
        Ok(Filter::CorrelationId(pattern.parse()?))
    }

    /// Builds an application-property filter from selector syntax.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] for invalid selectors — JMS requires the
    /// provider to reject them when the subscription is created.
    pub fn selector(selector: &str) -> Result<Self, ParseError> {
        Ok(Filter::Selector(Selector::parse(selector)?))
    }

    /// Whether the filter forwards the given message.
    pub fn matches(&self, message: &Message) -> bool {
        match self {
            Filter::None => true,
            Filter::CorrelationId(f) => f.matches_opt(message.correlation_id()),
            Filter::Selector(s) => s.matches(message),
        }
    }
}

impl fmt::Display for Filter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Filter::None => f.write_str("<none>"),
            Filter::CorrelationId(c) => write!(f, "corr-id:{c}"),
            Filter::Selector(s) => write!(f, "selector:{s}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_matches_everything() {
        let m = Message::builder().build();
        assert!(Filter::None.matches(&m));
    }

    #[test]
    fn correlation_filter_requires_id() {
        let f = Filter::correlation_id("#0").unwrap();
        assert!(f.matches(&Message::builder().correlation_id("#0").build()));
        assert!(!f.matches(&Message::builder().correlation_id("#1").build()));
        // No correlation id on the message → no match.
        assert!(!f.matches(&Message::builder().build()));
    }

    #[test]
    fn selector_filter_on_properties() {
        let f = Filter::selector("color = 'red' AND weight > 2").unwrap();
        let hit = Message::builder().property("color", "red").property("weight", 3i64).build();
        let miss = Message::builder().property("color", "red").build();
        assert!(f.matches(&hit));
        assert!(!f.matches(&miss));
    }

    #[test]
    fn invalid_selector_rejected_at_creation() {
        assert!(Filter::selector("((broken").is_err());
        assert!(Filter::correlation_id("[9;1]").is_err());
    }

    #[test]
    fn display_labels() {
        assert_eq!(Filter::None.to_string(), "<none>");
    }
}
