//! The JMS-style message model.
//!
//! A message consists of three parts (paper Fig. 2): a fixed header (message
//! id, timestamp, correlation id, priority, type, …), a user-defined typed
//! property section, and an opaque payload. Selectors can reference both the
//! user properties and the `JMS*` header fields, which is why [`Message`]
//! implements [`PropertySource`].

use crate::codec::OwnedFields;
use bytes::Bytes;
use rjms_selector::eval::PropertySource;
use rjms_selector::value::{Value, ValueRef};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

/// Globally unique message identifier (`ID:<n>` in JMS spelling).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct MessageId(u64);

static ID_COUNTER: AtomicU64 = AtomicU64::new(1);

impl MessageId {
    /// Allocates the next process-wide unique id.
    pub fn next() -> Self {
        MessageId(ID_COUNTER.fetch_add(1, Ordering::Relaxed))
    }

    /// Rebuilds an id recovered from the journal.
    pub(crate) fn from_raw(raw: u64) -> Self {
        MessageId(raw)
    }

    /// Keeps the id allocator above every id recovered from the journal,
    /// so post-recovery messages never collide with replayed ones.
    pub(crate) fn observe(raw: u64) {
        ID_COUNTER.fetch_max(raw.saturating_add(1), Ordering::Relaxed);
    }

    /// The raw numeric id.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for MessageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ID:{}", self.0)
    }
}

/// The `ID:<n>` spelling of a [`MessageId`], written once when the message
/// is built and kept inline, so that a selector on `JMSMessageID` borrows
/// it like any other string and no message pays a heap allocation for it.
#[derive(Clone, Copy, PartialEq)]
struct MessageIdText {
    len: u8,
    /// `ID:` plus at most the 20 digits of `u64::MAX`.
    bytes: [u8; 23],
}

impl MessageIdText {
    fn new(id: MessageId) -> Self {
        let mut digits = [0u8; 20];
        let mut first = digits.len();
        let mut rest = id.0;
        loop {
            first -= 1;
            digits[first] = b'0' + (rest % 10) as u8;
            rest /= 10;
            if rest == 0 {
                break;
            }
        }
        let digits = &digits[first..];
        let mut bytes = [0u8; 23];
        bytes[..3].copy_from_slice(b"ID:");
        bytes[3..3 + digits.len()].copy_from_slice(digits);
        Self { len: 3 + digits.len() as u8, bytes }
    }

    fn as_str(&self) -> &str {
        std::str::from_utf8(&self.bytes[..usize::from(self.len)])
            .expect("the id text is ASCII by construction")
    }
}

impl fmt::Debug for MessageIdText {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

/// The header fields a selector may reference (JMS 1.1 §3.8.1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum HeaderField {
    MessageId,
    Timestamp,
    CorrelationId,
    Type,
    Priority,
    Expiration,
}

impl HeaderField {
    /// The header field `name` spells, if any; every other identifier is a
    /// user property.
    pub(crate) fn named(name: &str) -> Option<Self> {
        Some(match name {
            "JMSMessageID" => Self::MessageId,
            "JMSTimestamp" => Self::Timestamp,
            "JMSCorrelationID" => Self::CorrelationId,
            "JMSType" => Self::Type,
            "JMSPriority" => Self::Priority,
            "JMSExpiration" => Self::Expiration,
            _ => return None,
        })
    }
}

/// Message priority 0–9 (JMS default is 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Priority(u8);

impl Priority {
    /// The JMS default priority (4).
    pub const DEFAULT: Priority = Priority(4);

    /// Creates a priority.
    ///
    /// # Panics
    ///
    /// Panics if `level > 9` (the JMS priority range is 0–9).
    pub fn new(level: u8) -> Self {
        assert!(level <= 9, "JMS priority must be 0-9, got {level}");
        Priority(level)
    }

    /// The numeric priority level.
    pub fn level(self) -> u8 {
        self.0
    }
}

impl Default for Priority {
    fn default() -> Self {
        Self::DEFAULT
    }
}

/// An immutable JMS-style message.
///
/// Construct with [`Message::builder`]. Messages are cheap to clone: the
/// payload is a reference-counted [`Bytes`] and the broker shares messages
/// between subscribers via `Arc<Message>`.
///
/// # Examples
///
/// ```
/// use rjms_broker::message::Message;
///
/// let msg = Message::builder()
///     .correlation_id("#7")
///     .property("color", "red")
///     .property("weight", 3i64)
///     .body(&b"payload"[..])
///     .build();
/// assert_eq!(msg.correlation_id(), Some("#7"));
/// assert_eq!(msg.body().len(), 7);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Message {
    id: MessageId,
    id_text: MessageIdText,
    timestamp_millis: u64,
    correlation_id: Option<String>,
    message_type: Option<String>,
    priority: Priority,
    reply_to: Option<String>,
    expiration_millis: Option<u64>,
    properties: BTreeMap<String, Value>,
    body: Bytes,
    trace_id: u64,
    trace_origin_ns: u64,
}

impl Message {
    /// Starts building a message.
    pub fn builder() -> MessageBuilder {
        MessageBuilder::new()
    }

    /// The unique message id (header field `JMSMessageID`).
    pub fn id(&self) -> MessageId {
        self.id
    }

    /// Milliseconds since the Unix epoch when the message was built
    /// (header field `JMSTimestamp`).
    pub fn timestamp_millis(&self) -> u64 {
        self.timestamp_millis
    }

    /// The correlation id, if set (header field `JMSCorrelationID`).
    pub fn correlation_id(&self) -> Option<&str> {
        self.correlation_id.as_deref()
    }

    /// The application message type, if set (header field `JMSType`).
    pub fn message_type(&self) -> Option<&str> {
        self.message_type.as_deref()
    }

    /// The message priority (header field `JMSPriority`).
    pub fn priority(&self) -> Priority {
        self.priority
    }

    /// The reply-to destination name, if set.
    pub fn reply_to(&self) -> Option<&str> {
        self.reply_to.as_deref()
    }

    /// The absolute expiration time in milliseconds since the Unix epoch
    /// (header field `JMSExpiration`); `None` means the message never
    /// expires.
    pub fn expiration_millis(&self) -> Option<u64> {
        self.expiration_millis
    }

    /// Whether the message has expired at the given wall-clock instant
    /// (milliseconds since the Unix epoch). Messages without an expiration
    /// never expire.
    pub fn is_expired_at(&self, now_millis: u64) -> bool {
        self.expiration_millis.is_some_and(|e| now_millis >= e)
    }

    /// Whether the message has expired right now.
    pub fn is_expired(&self) -> bool {
        self.is_expired_at(now_unix_millis())
    }

    /// The user property section.
    pub fn properties(&self) -> &BTreeMap<String, Value> {
        &self.properties
    }

    /// A single user property.
    pub fn property(&self, name: &str) -> Option<&Value> {
        self.properties.get(name)
    }

    /// The payload.
    pub fn body(&self) -> &Bytes {
        &self.body
    }

    /// The end-to-end trace id, nonzero and unique per origin process.
    ///
    /// Stamped at build time (normally at the publisher) and carried
    /// unchanged across the wire, through the broker's flight recorder and
    /// into subscriber deliveries, so one id names the message in every
    /// trace view along the path.
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// Nanoseconds since the Unix epoch when the trace context was created
    /// at the origin. Lets cross-host consumers order traces without a
    /// shared tick domain.
    pub fn trace_origin_ns(&self) -> u64 {
        self.trace_origin_ns
    }

    /// Reassembles a message from journal-recovered parts, keeping the
    /// original id and timestamps. The codec has checked the priority.
    pub(crate) fn from_stored_parts(
        id_raw: u64,
        timestamp_millis: u64,
        fields: OwnedFields,
    ) -> Message {
        MessageId::observe(id_raw);
        let id = MessageId::from_raw(id_raw);
        Message {
            id,
            id_text: MessageIdText::new(id),
            timestamp_millis,
            correlation_id: fields.correlation_id,
            message_type: fields.message_type,
            priority: Priority::new(fields.priority),
            reply_to: fields.reply_to,
            expiration_millis: fields.expiry,
            properties: fields.properties.into_iter().collect(),
            body: fields.body,
            trace_id: fields.trace_id,
            trace_origin_ns: fields.trace_origin_ns,
        }
    }

    /// Total approximate wire size: headers + properties + payload.
    pub fn approximate_size(&self) -> usize {
        let header = 64
            + self.correlation_id.as_ref().map_or(0, |s| s.len())
            + self.message_type.as_ref().map_or(0, |s| s.len())
            + self.reply_to.as_ref().map_or(0, |s| s.len());
        let props: usize = self
            .properties
            .iter()
            .map(|(k, v)| {
                k.len()
                    + match v {
                        Value::Str(s) => s.len(),
                        _ => 8,
                    }
            })
            .sum();
        header + props + self.body.len()
    }
}

impl Message {
    /// A header field as selectors see it; the strings are borrowed.
    pub(crate) fn header(&self, field: HeaderField) -> Option<ValueRef<'_>> {
        match field {
            HeaderField::MessageId => Some(ValueRef::Str(self.id_text.as_str())),
            HeaderField::Timestamp => Some(ValueRef::Int(self.timestamp_millis as i64)),
            HeaderField::CorrelationId => self.correlation_id().map(ValueRef::Str),
            HeaderField::Type => self.message_type().map(ValueRef::Str),
            HeaderField::Priority => Some(ValueRef::Int(i64::from(self.priority.level()))),
            // JMS encodes "never expires" as 0.
            HeaderField::Expiration => {
                Some(ValueRef::Int(self.expiration_millis.unwrap_or(0) as i64))
            }
        }
    }
}

impl PropertySource for Message {
    /// Exposes user properties and the `JMS*` header fields to selectors,
    /// per JMS 1.1 §3.8.1.1 (only the selectable header fields are mapped).
    fn property(&self, name: &str) -> Option<ValueRef<'_>> {
        match HeaderField::named(name) {
            Some(field) => self.header(field),
            None => self.properties.get(name).map(Value::as_ref),
        }
    }
}

/// Builder for [`Message`].
///
/// All parts are optional; [`MessageBuilder::build`] stamps the id and
/// timestamp.
#[derive(Debug, Clone, Default)]
pub struct MessageBuilder {
    correlation_id: Option<String>,
    message_type: Option<String>,
    priority: Priority,
    reply_to: Option<String>,
    time_to_live: Option<std::time::Duration>,
    properties: BTreeMap<String, Value>,
    body: Bytes,
    trace: Option<(u64, u64)>,
}

impl MessageBuilder {
    /// Creates an empty builder (equivalent to [`Message::builder`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the correlation id (a 128-byte string in the paper's workloads).
    pub fn correlation_id(mut self, id: impl Into<String>) -> Self {
        self.correlation_id = Some(id.into());
        self
    }

    /// Sets the application message type.
    pub fn message_type(mut self, ty: impl Into<String>) -> Self {
        self.message_type = Some(ty.into());
        self
    }

    /// Sets the priority.
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the reply-to destination.
    pub fn reply_to(mut self, destination: impl Into<String>) -> Self {
        self.reply_to = Some(destination.into());
        self
    }

    /// Sets the message's time to live; the broker discards the message
    /// instead of delivering it once the TTL has elapsed (counted from
    /// [`MessageBuilder::build`]).
    pub fn time_to_live(mut self, ttl: std::time::Duration) -> Self {
        self.time_to_live = Some(ttl);
        self
    }

    /// Sets one user property.
    pub fn property(mut self, name: impl Into<String>, value: impl Into<Value>) -> Self {
        self.properties.insert(name.into(), value.into());
        self
    }

    /// Sets the payload. The paper's default workload uses a 0-byte body —
    /// "the full information is contained in the message headers".
    pub fn body(mut self, body: impl Into<Bytes>) -> Self {
        self.body = body.into();
        self
    }

    /// Adopts an existing trace context instead of generating a fresh one
    /// — used when a message crosses a process boundary (e.g. decoded from
    /// the wire) so its end-to-end trace id survives re-building.
    ///
    /// A `trace_id` of 0 means "no context" and falls back to generation.
    pub fn trace_context(mut self, trace_id: u64, origin_ns: u64) -> Self {
        self.trace = if trace_id == 0 { None } else { Some((trace_id, origin_ns)) };
        self
    }

    /// Finalizes the message, stamping a fresh id and the current time.
    pub fn build(self) -> Message {
        let timestamp_millis = now_unix_millis();
        let (trace_id, trace_origin_ns) =
            self.trace.unwrap_or_else(|| (next_trace_id(), now_unix_nanos()));
        let id = MessageId::next();
        Message {
            id,
            id_text: MessageIdText::new(id),
            timestamp_millis,
            correlation_id: self.correlation_id,
            message_type: self.message_type,
            priority: self.priority,
            reply_to: self.reply_to,
            expiration_millis: self
                .time_to_live
                .map(|ttl| timestamp_millis + ttl.as_millis() as u64),
            properties: self.properties,
            body: self.body,
            trace_id,
            trace_origin_ns,
        }
    }
}

/// Generates a nonzero trace id: a per-process random seed mixed with a
/// monotone counter through splitmix64, so concurrent publishers on
/// different hosts collide with negligible probability while staying
/// allocation- and lock-free.
fn next_trace_id() -> u64 {
    static TRACE_COUNTER: AtomicU64 = AtomicU64::new(0);
    use std::sync::OnceLock;
    static PROCESS_SEED: OnceLock<u64> = OnceLock::new();
    let seed = *PROCESS_SEED.get_or_init(|| {
        let nanos = SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_nanos()).unwrap_or(0);
        (nanos as u64) ^ (std::process::id() as u64).rotate_left(32)
    });
    let n = TRACE_COUNTER.fetch_add(1, Ordering::Relaxed);
    let mut x = seed ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x | 1 // never 0 — 0 is the wire encoding for "no trace context"
}

/// Current wall-clock time in nanoseconds since the Unix epoch.
pub(crate) fn now_unix_nanos() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_nanos() as u64).unwrap_or(0)
}

/// Current wall-clock time in milliseconds since the Unix epoch.
pub(crate) fn now_unix_millis() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_millis() as u64).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rjms_selector::Selector;

    #[test]
    fn ids_are_unique_and_increasing() {
        let a = MessageId::next();
        let b = MessageId::next();
        assert!(b > a);
        assert_ne!(a, b);
    }

    #[test]
    fn builder_sets_all_fields() {
        let m = Message::builder()
            .correlation_id("#1")
            .message_type("presence")
            .priority(Priority::new(7))
            .reply_to("replies")
            .property("user", "alice")
            .body(&b"x"[..])
            .build();
        assert_eq!(m.correlation_id(), Some("#1"));
        assert_eq!(m.message_type(), Some("presence"));
        assert_eq!(m.priority().level(), 7);
        assert_eq!(m.reply_to(), Some("replies"));
        assert_eq!(m.property("user"), Some(&Value::Str("alice".into())));
        assert_eq!(m.body().as_ref(), b"x");
    }

    #[test]
    fn default_message_is_empty_bodied_priority_4() {
        let m = Message::builder().build();
        assert_eq!(m.body().len(), 0);
        assert_eq!(m.priority(), Priority::DEFAULT);
        assert_eq!(m.correlation_id(), None);
    }

    #[test]
    fn selectors_see_header_fields() {
        let m = Message::builder()
            .correlation_id("#0")
            .priority(Priority::new(9))
            .message_type("alert")
            .build();
        assert!(Selector::parse("JMSCorrelationID = '#0'").unwrap().matches(&m));
        assert!(Selector::parse("JMSPriority >= 5").unwrap().matches(&m));
        assert!(Selector::parse("JMSType = 'alert'").unwrap().matches(&m));
        // Missing header field evaluates as null → unknown → no match.
        let plain = Message::builder().build();
        assert!(!Selector::parse("JMSType = 'alert'").unwrap().matches(&plain));
        assert!(Selector::parse("JMSType IS NULL").unwrap().matches(&plain));
    }

    #[test]
    fn selectors_borrow_the_message_id_text() {
        let m = Message::builder().build();
        assert_eq!(m.header(HeaderField::MessageId), Some(ValueRef::Str(&m.id().to_string())));
        assert!(Selector::parse(&format!("JMSMessageID = '{}'", m.id())).unwrap().matches(&m));
        assert!(Selector::parse("JMSMessageID LIKE 'ID:%'").unwrap().matches(&m));
        for raw in [0, 9, 10, u64::MAX] {
            let id = MessageId::from_raw(raw);
            assert_eq!(MessageIdText::new(id).as_str(), id.to_string());
        }
    }

    #[test]
    fn selectors_see_user_properties() {
        let m = Message::builder().property("weight", 10i64).build();
        assert!(Selector::parse("weight BETWEEN 5 AND 15").unwrap().matches(&m));
    }

    #[test]
    fn timestamp_is_recent() {
        let m = Message::builder().build();
        let now = SystemTime::now().duration_since(UNIX_EPOCH).unwrap().as_millis() as u64;
        assert!(now - m.timestamp_millis() < 10_000);
    }

    #[test]
    fn approximate_size_accounts_for_parts() {
        let empty = Message::builder().build();
        let loaded = Message::builder()
            .correlation_id("0123456789")
            .property("k", "v")
            .body(vec![0u8; 100])
            .build();
        assert!(loaded.approximate_size() > empty.approximate_size() + 100);
    }

    #[test]
    #[should_panic(expected = "JMS priority must be 0-9")]
    fn priority_range_enforced() {
        Priority::new(10);
    }

    #[test]
    fn messages_without_ttl_never_expire() {
        let m = Message::builder().build();
        assert_eq!(m.expiration_millis(), None);
        assert!(!m.is_expired_at(u64::MAX - 1));
    }

    #[test]
    fn ttl_sets_absolute_expiration() {
        let m = Message::builder().time_to_live(std::time::Duration::from_millis(50)).build();
        let exp = m.expiration_millis().expect("expiration set");
        assert_eq!(exp, m.timestamp_millis() + 50);
        assert!(!m.is_expired_at(exp - 1));
        assert!(m.is_expired_at(exp));
    }

    #[test]
    fn trace_ids_are_nonzero_and_unique() {
        let a = Message::builder().build();
        let b = Message::builder().build();
        assert_ne!(a.trace_id(), 0);
        assert_ne!(b.trace_id(), 0);
        assert_ne!(a.trace_id(), b.trace_id());
        assert!(a.trace_origin_ns() > 0);
    }

    #[test]
    fn trace_context_is_adopted_verbatim() {
        let m = Message::builder().trace_context(0xDEAD_BEEF, 42).build();
        assert_eq!(m.trace_id(), 0xDEAD_BEEF);
        assert_eq!(m.trace_origin_ns(), 42);
        // Zero id means "no context": a fresh one is generated instead.
        let fresh = Message::builder().trace_context(0, 42).build();
        assert_ne!(fresh.trace_id(), 0);
        assert_ne!(fresh.trace_origin_ns(), 42);
    }

    #[test]
    fn selectors_see_expiration_header() {
        let never = Message::builder().build();
        assert!(Selector::parse("JMSExpiration = 0").unwrap().matches(&never));
        let soon = Message::builder().time_to_live(std::time::Duration::from_secs(60)).build();
        assert!(Selector::parse("JMSExpiration > 0").unwrap().matches(&soon));
    }
}
