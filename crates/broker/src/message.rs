//! The JMS-style message model.
//!
//! A message consists of three parts (paper Fig. 2): a fixed header (message
//! id, timestamp, correlation id, priority, type, …), a user-defined typed
//! property section, and an opaque payload. Selectors can reference both the
//! user properties and the `JMS*` header fields, which is why [`Message`]
//! implements [`PropertySource`].

use crate::codec::{DecodeError, Reader, Stamp};
use bytes::Bytes;
use rjms_selector::eval::PropertySource;
use rjms_selector::value::{Value, ValueRef};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

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
/// is built, so that a selector on `JMSMessageID` borrows it like any other
/// string. Inline for every id below 10^19.
fn id_text(id: MessageId) -> ShortStr {
    // `ID:` plus at most the 20 digits of `u64::MAX`, written from the end.
    let mut text = [0u8; 23];
    let mut first = text.len();
    let mut rest = id.0;
    loop {
        first -= 1;
        text[first] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    first -= 3;
    text[first..first + 3].copy_from_slice(b"ID:");
    ShortStr::new(std::str::from_utf8(&text[first..]).expect("the id text is ASCII"))
}

/// The longest string [`ShortStr`] keeps inline.
const INLINE_LEN: usize = 22;

/// A header string or a property name: inline up to [`INLINE_LEN`] bytes,
/// so that a short one costs no heap allocation, and a shared `Arc<str>`
/// above that, so that cloning a long one costs a reference count. Either
/// way it takes 24 bytes. A string has one spelling (inline bytes are
/// zero-padded), so the derived equality is the strings' equality.
#[derive(Clone, PartialEq)]
enum ShortStr {
    Inline { len: u8, bytes: [u8; INLINE_LEN] },
    Shared(Arc<str>),
}

impl ShortStr {
    fn new(s: &str) -> Self {
        if s.len() <= INLINE_LEN {
            let mut bytes = [0u8; INLINE_LEN];
            bytes[..s.len()].copy_from_slice(s.as_bytes());
            ShortStr::Inline { len: s.len() as u8, bytes }
        } else {
            ShortStr::Shared(Arc::from(s))
        }
    }

    fn as_bytes(&self) -> &[u8] {
        match self {
            ShortStr::Inline { len, bytes } => &bytes[..usize::from(*len)],
            ShortStr::Shared(s) => s.as_bytes(),
        }
    }

    fn as_str(&self) -> &str {
        match self {
            ShortStr::Inline { .. } => std::str::from_utf8(self.as_bytes())
                .expect("the inline bytes are a whole str's bytes"),
            ShortStr::Shared(s) => s,
        }
    }
}

impl fmt::Debug for ShortStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

/// User properties, sorted by name (in byte order, the order of a
/// `BTreeMap<String, _>`): a lookup is a binary search, and the codec
/// writes them in the order it always has.
#[derive(Debug, Default, PartialEq)]
struct PropertyList(Vec<(ShortStr, Value)>);

impl PropertyList {
    fn find(&self, name: &str) -> Result<usize, usize> {
        self.0.binary_search_by(|(key, _)| key.as_bytes().cmp(name.as_bytes()))
    }

    fn get(&self, name: &str) -> Option<&Value> {
        self.find(name).ok().map(|i| &self.0[i].1)
    }

    /// Sets `name` to `value`, replacing the value a name set before has.
    fn set(&mut self, name: &str, value: Value) {
        match self.find(name) {
            Ok(i) => self.0[i].1 = value,
            Err(i) => self.0.insert(i, (ShortStr::new(name), value)),
        }
    }

    /// Properties in wire order, name order when the codec wrote them. Out
    /// of order, a stable sort of the reversed list puts the last value of
    /// a name given twice first, where `dedup_by` keeps it: O(n log n), not
    /// the O(n²) of inserting each in place.
    fn from_wire_order(mut properties: Vec<(ShortStr, Value)>) -> Self {
        if !properties.is_sorted_by(|(a, _), (b, _)| a.as_bytes() < b.as_bytes()) {
            properties.reverse();
            properties.sort_by(|(a, _), (b, _)| a.as_bytes().cmp(b.as_bytes()));
            properties.dedup_by(|(a, _), (b, _)| a.as_bytes() == b.as_bytes());
        }
        PropertyList(properties)
    }
}

impl Clone for PropertyList {
    /// Leaves room for one more property, so that a template finished with
    /// one does not reallocate.
    fn clone(&self) -> Self {
        let mut properties = Vec::with_capacity(self.0.len() + 1);
        properties.extend_from_slice(&self.0);
        PropertyList(properties)
    }
}

/// The user properties of a [`Message`] in name order, as
/// [`Message::properties`] returns them.
#[derive(Debug, Clone)]
pub struct Properties<'a>(std::slice::Iter<'a, (ShortStr, Value)>);

impl<'a> Iterator for Properties<'a> {
    type Item = (&'a str, &'a Value);

    fn next(&mut self) -> Option<Self::Item> {
        self.0.next().map(|(name, value)| (name.as_str(), value))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl ExactSizeIterator for Properties<'_> {}

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
    id_text: ShortStr,
    timestamp_millis: u64,
    correlation_id: Option<ShortStr>,
    message_type: Option<ShortStr>,
    priority: Priority,
    reply_to: Option<ShortStr>,
    expiration_millis: Option<u64>,
    properties: PropertyList,
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
        self.correlation_id.as_ref().map(ShortStr::as_str)
    }

    /// The application message type, if set (header field `JMSType`).
    pub fn message_type(&self) -> Option<&str> {
        self.message_type.as_ref().map(ShortStr::as_str)
    }

    /// The message priority (header field `JMSPriority`).
    pub fn priority(&self) -> Priority {
        self.priority
    }

    /// The reply-to destination name, if set.
    pub fn reply_to(&self) -> Option<&str> {
        self.reply_to.as_ref().map(ShortStr::as_str)
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

    /// Whether the message has expired right now; one without an
    /// expiration does not read the clock.
    pub fn is_expired(&self) -> bool {
        self.expiration_millis.is_some_and(|e| now_unix_millis() >= e)
    }

    /// The user property section, in name order.
    pub fn properties(&self) -> Properties<'_> {
        Properties(self.properties.0.iter())
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

    /// Reads a message's fields off `r` straight into a message stamped by
    /// `stamp`: strings of ≤ 22 bytes inline, one property vector, the body
    /// copied out. Refuses what [`Reader::fields`] refuses; the caller ends
    /// the read ([`Reader::finish`]).
    pub fn read(r: &mut Reader<'_>, stamp: Stamp) -> Result<Message, DecodeError> {
        let f = r.fields(|name, value| (ShortStr::new(name), value))?;
        let (id, timestamp_millis, expiration_millis) = match stamp {
            Stamp::Fresh => {
                let now = now_unix_millis();
                let expiration = f.expiry.map(|ttl| now.saturating_add(ttl).min(i64::MAX as u64));
                (MessageId::next(), now, expiration)
            }
            Stamp::Stored(id, timestamp_millis) => {
                MessageId::observe(id);
                (MessageId::from_raw(id), timestamp_millis, f.expiry)
            }
        };
        Ok(Message {
            id,
            id_text: id_text(id),
            timestamp_millis,
            correlation_id: f.correlation_id.map(ShortStr::new),
            message_type: f.message_type.map(ShortStr::new),
            priority: Priority::new(f.priority),
            reply_to: f.reply_to.map(ShortStr::new),
            expiration_millis,
            properties: PropertyList::from_wire_order(f.properties),
            body: Bytes::copy_from_slice(f.body),
            trace_id: f.trace_id,
            trace_origin_ns: f.trace_origin_ns,
        })
    }

    /// The message's encoded size, over-estimated: its strings' and body's
    /// bytes, 16 more for each header string and property, and 64 for the
    /// rest. That bounds what the codec writes for a journal record without
    /// its topic, and it reads no string, so a journaled publish can afford
    /// it.
    pub fn approximate_size(&self) -> usize {
        let strings = [&self.correlation_id, &self.message_type, &self.reply_to];
        let header: usize =
            strings.iter().map(|s| 16 + s.as_ref().map_or(0, |s| s.as_bytes().len())).sum();
        let value_len = |v: &Value| match v {
            Value::Str(s) => s.len(),
            _ => 8,
        };
        let props: usize =
            self.properties.0.iter().map(|(k, v)| 16 + k.as_bytes().len() + value_len(v)).sum();
        64 + header + props + self.body.len()
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
/// timestamp. A clone has room for one more property, so a template
/// finished with one (`template.clone().property("seq", n).build()`) costs
/// one heap allocation, the property vector, as long as every string in it
/// is at most 22 bytes or shared with the template.
#[derive(Debug, Clone, Default)]
pub struct MessageBuilder {
    correlation_id: Option<ShortStr>,
    message_type: Option<ShortStr>,
    priority: Priority,
    reply_to: Option<ShortStr>,
    time_to_live: Option<Duration>,
    properties: PropertyList,
    body: Bytes,
    trace: Option<(u64, u64)>,
}

impl MessageBuilder {
    /// Creates an empty builder (equivalent to [`Message::builder`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the correlation id (a 128-byte string in the paper's workloads).
    pub fn correlation_id(mut self, id: impl AsRef<str>) -> Self {
        self.correlation_id = Some(ShortStr::new(id.as_ref()));
        self
    }

    /// Sets the application message type.
    pub fn message_type(mut self, ty: impl AsRef<str>) -> Self {
        self.message_type = Some(ShortStr::new(ty.as_ref()));
        self
    }

    /// Sets the priority.
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the reply-to destination.
    pub fn reply_to(mut self, destination: impl AsRef<str>) -> Self {
        self.reply_to = Some(ShortStr::new(destination.as_ref()));
        self
    }

    /// Sets the message's time to live; the broker discards the message
    /// instead of delivering it once the TTL has elapsed (counted from
    /// [`MessageBuilder::build`]). The expiration saturates at `i64::MAX`
    /// milliseconds since the Unix epoch, so a TTL of `Duration::MAX` is
    /// "practically never".
    pub fn time_to_live(mut self, ttl: Duration) -> Self {
        self.time_to_live = Some(ttl);
        self
    }

    /// Sets one user property; setting a name again replaces its value.
    pub fn property(mut self, name: impl AsRef<str>, value: impl Into<Value>) -> Self {
        self.properties.set(name.as_ref(), value.into());
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

    /// Finalizes the message, stamping a fresh id and the current time
    /// (one clock read: a generated trace context starts at the same
    /// instant as `JMSTimestamp`).
    pub fn build(self) -> Message {
        let now_ns = now_unix_nanos();
        let timestamp_millis = now_ns / 1_000_000;
        let (trace_id, trace_origin_ns) = self.trace.unwrap_or_else(|| (next_trace_id(), now_ns));
        let id = MessageId::next();
        Message {
            id,
            id_text: id_text(id),
            timestamp_millis,
            correlation_id: self.correlation_id,
            message_type: self.message_type,
            priority: self.priority,
            reply_to: self.reply_to,
            expiration_millis: self.time_to_live.map(|ttl| {
                let ttl = u64::try_from(ttl.as_millis()).unwrap_or(u64::MAX);
                timestamp_millis.saturating_add(ttl).min(i64::MAX as u64)
            }),
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
            assert_eq!(id_text(id).as_str(), id.to_string());
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
        let m = Message::builder().time_to_live(Duration::from_millis(50)).build();
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
        let soon = Message::builder().time_to_live(Duration::from_secs(60)).build();
        assert!(Selector::parse("JMSExpiration > 0").unwrap().matches(&soon));
    }

    #[test]
    fn a_ttl_too_large_to_add_saturates_and_never_expires() {
        let expires = Selector::parse("JMSExpiration > 0").unwrap();
        for ttl in [Duration::MAX, Duration::from_millis(u64::MAX)] {
            let m = Message::builder().time_to_live(ttl).build();
            assert_eq!(m.expiration_millis(), Some(i64::MAX as u64));
            assert!(!m.is_expired(), "{ttl:?}");
            assert!(expires.matches(&m), "{ttl:?}");
        }
    }

    #[test]
    fn a_generated_trace_context_starts_at_the_timestamp() {
        // Two clock reads ≈ 40 ns apart straddle a millisecond about once
        // in 25 000 builds.
        for _ in 0..100_000 {
            let m = Message::builder().build();
            assert_eq!(m.timestamp_millis(), m.trace_origin_ns() / 1_000_000);
        }
    }

    #[test]
    fn properties_iterate_in_name_order_and_a_name_set_twice_keeps_the_second_value() {
        let m = Message::builder()
            .property("zeta", 1i64)
            .property("alpha", 2i64)
            .property("Zulu", 3i64)
            .property("mid", 4i64)
            .property("alpha", 5i64)
            .build();
        let names: Vec<&str> = m.properties().map(|(name, _)| name).collect();
        assert_eq!(names, ["Zulu", "alpha", "mid", "zeta"]);
        assert_eq!(m.properties().len(), 4);
        assert_eq!(m.property("alpha"), Some(&Value::Int(5)));
        assert_eq!(m.property("beta"), None);
    }

    /// Names on both sides of the inline limit, in bytes: 21, 22 and 23
    /// ASCII bytes, and two-, three- and four-byte characters that end at,
    /// or step over, byte 22.
    fn boundary_names() -> Vec<String> {
        let mut names: Vec<String> = [21, 22, 23].map(|n| "n".repeat(n)).into();
        for c in ['é', '€', '𝄞'] {
            for pad in 18..=22 {
                names.push(format!("{}{c}", "x".repeat(pad)));
            }
        }
        names
    }

    #[test]
    fn names_at_the_inline_limit_survive_the_builder_and_a_journal_record() {
        use crate::persist::JournalRecord;
        let names = boundary_names();
        let m = names
            .iter()
            .enumerate()
            .fold(Message::builder().correlation_id(&names[4]), |b, (i, name)| {
                b.property(name, i as i64)
            })
            .message_type(&names[2])
            .reply_to(&names[1])
            .build();
        for (i, name) in names.iter().enumerate() {
            assert_eq!(m.property(name), Some(&Value::Int(i as i64)), "{name:?}");
        }
        assert_eq!(m.correlation_id(), Some(names[4].as_str()));
        let record = JournalRecord::Publish { topic: "t".into(), message: m.clone() };
        match JournalRecord::decode(&record.encode()) {
            Ok(JournalRecord::Publish { message, .. }) => assert_eq!(message, m),
            other => panic!("decoded as {other:?}"),
        }
    }

    /// The message of a journal record's `fields`, read with a stored stamp.
    fn stored(fields: &[u8]) -> Message {
        let mut r = Reader::new(fields);
        let message = Message::read(&mut r, Stamp::Stored(1, 0)).unwrap();
        r.finish().unwrap();
        message
    }

    #[test]
    fn a_record_that_stores_a_name_twice_decodes_with_the_last_value() {
        use crate::codec::{Fields, Put};
        let (one, two) = (Value::Int(1), Value::Int(2));
        // Out of name order, and in it with the name repeated.
        for properties in
            [[("k", &one), ("j", &one), ("k", &two)], [("j", &one), ("k", &one), ("k", &two)]]
        {
            let mut bytes = Vec::new();
            bytes.fields(Fields {
                correlation_id: None,
                message_type: None,
                priority: 4,
                reply_to: None,
                expiry: None,
                properties,
                body: &[],
                trace_id: 1,
                trace_origin_ns: 0,
            });
            let decoded = stored(&bytes);
            let stored: Vec<(&str, &Value)> = decoded.properties().collect();
            assert_eq!(stored, [("j", &one), ("k", &two)]);
        }
    }

    #[test]
    fn a_record_with_many_names_in_reverse_order_decodes_in_n_log_n() {
        use crate::codec::{Fields, Put};
        // Inserting each name at the front would shift every entry stored
        // before it: ≈ 10^12 bytes moved for 200 000 names, a minute or
        // more instead of well under a second.
        let value = Value::Int(0);
        let names: Vec<String> = (0..200_000).rev().map(|i| format!("p{i:06}")).collect();
        let mut bytes = Vec::new();
        bytes.fields(Fields {
            correlation_id: None,
            message_type: None,
            priority: 4,
            reply_to: None,
            expiry: None,
            properties: names.iter().map(|name| (name.as_str(), &value)).collect::<Vec<_>>(),
            body: &[],
            trace_id: 1,
            trace_origin_ns: 0,
        });
        let start = std::time::Instant::now();
        let decoded = stored(&bytes);
        let took = start.elapsed();
        assert!(took < Duration::from_secs(10), "{took:?}");
        assert_eq!(decoded.properties().len(), names.len());
        assert!(decoded.properties().map(|(name, _)| name).eq(names.iter().rev()));
    }

    #[test]
    fn the_shape_that_keeps_a_message_at_two_allocations() {
        // A name of at most 22 bytes is stored inline, a longer one shared.
        for name in boundary_names() {
            let inline = matches!(ShortStr::new(&name), ShortStr::Inline { .. });
            assert_eq!(inline, name.len() <= INLINE_LEN, "{name:?}");
        }
        assert_eq!(std::mem::size_of::<Option<ShortStr>>(), 24);
        // A template's clone has room for the one property that finishes it.
        let template = Message::builder().correlation_id("#0").property("key", 0i64);
        let clone = template.clone();
        assert!(clone.properties.0.capacity() > clone.properties.0.len());
        // Header strings and names inline, properties in one vector: no
        // larger than the 208 bytes of the map-based message.
        assert!(std::mem::size_of::<Message>() <= 208, "{}", std::mem::size_of::<Message>());
    }

    #[test]
    fn a_message_read_off_a_delivery_keeps_that_shape() {
        use crate::codec::{Fields, Put};
        // The benchmark's delivery (`#0`, `key`, `seq`, a 64-byte body),
        // and names up to the inline limit.
        let names = boundary_names().into_iter().filter(|name| name.len() <= INLINE_LEN);
        let builder = Message::builder().correlation_id("#0").property("key", 0i64);
        let sent = names.fold(builder.property("seq", 7i64), |b, name| b.property(name, 1i64));
        let sent = sent.body(vec![7u8; 64]).build();
        let mut bytes = Vec::new();
        bytes.fields(Fields::of(&sent, None));
        let mut r = Reader::new(&bytes);
        let read = Message::read(&mut r, Stamp::Fresh).unwrap();
        r.finish().unwrap();
        assert_eq!((&read.properties, read.body()), (&sent.properties, sent.body()));
        // Besides its `Arc`, two heap blocks: the body and the property
        // vector, which has no room to spare; every string is inline.
        assert_eq!(read.properties.0.capacity(), read.properties.0.len());
        let inline = |s: &ShortStr| matches!(s, ShortStr::Inline { .. });
        assert!(read.properties.0.iter().all(|(name, _)| inline(name)));
        assert!(read.correlation_id.as_ref().is_some_and(inline));
    }
}
