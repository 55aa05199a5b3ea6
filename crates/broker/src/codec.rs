//! The message codec: how a message is laid out in bytes. The write-ahead
//! journal ([`crate::persist`], which knows the record tags) and
//! `rjms-net`'s TCP frames (its `wire` module knows frames and opcodes) both
//! write a message with [`Put`] and read it back with [`Reader`].
//!
//! Every integer is little-endian. A string (or byte string) is a `u32`
//! length and its bytes; an optional field is a presence flag (`u8` 0 or 1)
//! and the field. A property value is a tag and the value: 0 bool (one
//! byte), 1 `i64`, 2 `f64` bits, 3 string. A filter is a tag and its text:
//! 0 no filter (no text), 1 correlation-ID pattern, 2 selector. A message's
//! [`Fields`] follow in one order: correlation id, type, priority (`u8`,
//! 0–9), reply-to, expiry, the property count (`u32`) and each key and
//! value, the body, and the trace context (nonzero id, origin ns).
//!
//! [`Reader`] bounds-checks every read: a decoder built on it returns a
//! [`DecodeError`] on any input, never panics, and reserves room for no
//! more items than the bytes behind a count can hold.

use crate::filter::Filter;
use rjms_selector::value::Value;
use std::fmt;

/// Bytes that do not decode: a format violation, not an I/O failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// What was malformed.
    pub message: String,
}

impl DecodeError {
    /// A decode error saying `message`.
    pub fn new(message: impl Into<String>) -> Self {
        Self { message: message.into() }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed bytes: {}", self.message)
    }
}

impl std::error::Error for DecodeError {}

impl From<DecodeError> for rjms_core::Error {
    fn from(e: DecodeError) -> Self {
        rjms_core::Error::Decode { detail: e.message }
    }
}

const VALUE_BOOL: u8 = 0;
const VALUE_INT: u8 = 1;
const VALUE_FLOAT: u8 = 2;
const VALUE_STR: u8 = 3;

const FILTER_NONE: u8 = 0;
const FILTER_CORRELATION: u8 = 1;
const FILTER_SELECTOR: u8 = 2;

/// The fewest bytes a property takes: an empty key's length and a bool.
const MIN_PROPERTY_LEN: usize = 4 + 2;

/// A filter as both formats carry it: its kind and its source text.
#[derive(Debug, Clone, PartialEq)]
pub enum FilterSource {
    /// No filter.
    None,
    /// Correlation-ID filter pattern (e.g. `[7;13]`).
    CorrelationId(String),
    /// Full selector source text.
    Selector(String),
}

impl FilterSource {
    /// The source text of a broker filter.
    pub fn of(filter: &Filter) -> Self {
        match filter {
            Filter::None => FilterSource::None,
            Filter::CorrelationId(c) => FilterSource::CorrelationId(c.to_string()),
            Filter::Selector(s) => FilterSource::Selector(s.source().to_owned()),
        }
    }

    /// Parses the source text into a broker filter.
    ///
    /// # Errors
    ///
    /// The parser's message when the text is not a valid pattern or selector.
    pub fn parse(&self) -> Result<Filter, String> {
        match self {
            FilterSource::None => Ok(Filter::None),
            FilterSource::CorrelationId(p) => Filter::correlation_id(p).map_err(|e| e.to_string()),
            FilterSource::Selector(s) => Filter::selector(s).map_err(|e| e.to_string()),
        }
    }
}

/// A message's fields in the order both formats lay them out. [`Put`]
/// writes them borrowed (`S = &str`, `B = &[u8]`, `P` iterates the
/// properties), and [`Reader::fields`] reads them back borrowed. The id and
/// timestamp are not among them: the journal stores them in front, the
/// wire not at all.
#[derive(Debug)]
pub struct Fields<S, P, B> {
    /// Correlation id header.
    pub correlation_id: Option<S>,
    /// `JMSType` header.
    pub message_type: Option<S>,
    /// Priority 0–9.
    pub priority: u8,
    /// `JMSReplyTo` header.
    pub reply_to: Option<S>,
    /// When the message expires: the journal stores the Unix-millisecond
    /// expiration, the wire the time to live that remains.
    pub expiry: Option<u64>,
    /// Typed user properties.
    pub properties: P,
    /// Opaque payload.
    pub body: B,
    /// The nonzero trace id.
    pub trace_id: u64,
    /// Nanoseconds since the Unix epoch at trace creation.
    pub trace_origin_ns: u64,
}

/// What [`Message::read`](crate::Message::read) stamps a message with.
#[derive(Debug, Clone, Copy)]
pub enum Stamp {
    /// Off the wire: a new id and `JMSTimestamp`, and an expiration of the
    /// expiry field, a time to live, from then.
    Fresh,
    /// Off the journal: the raw id and the `JMSTimestamp` stored in front
    /// of the fields; the expiry field is the expiration.
    Stored(u64, u64),
}

impl<'a> Fields<&'a str, crate::message::Properties<'a>, &'a [u8]> {
    /// A broker message's fields, to go out with `expiry`.
    pub fn of(message: &'a crate::Message, expiry: Option<u64>) -> Self {
        Fields {
            correlation_id: message.correlation_id(),
            message_type: message.message_type(),
            priority: message.priority().level(),
            reply_to: message.reply_to(),
            expiry,
            properties: message.properties(),
            body: message.body(),
            trace_id: message.trace_id(),
            trace_origin_ns: message.trace_origin_ns(),
        }
    }
}

/// Appends the codec's items to a record or frame buffer.
pub trait Put {
    /// Raw bytes, as they are.
    fn raw(&mut self, bytes: &[u8]);

    /// A `u32`.
    fn u32(&mut self, v: u32) {
        self.raw(&v.to_le_bytes());
    }

    /// A `u64`.
    fn u64(&mut self, v: u64) {
        self.raw(&v.to_le_bytes());
    }

    /// A byte string.
    fn bytes(&mut self, bytes: &[u8]) {
        self.u32(bytes.len() as u32);
        self.raw(bytes);
    }

    /// A string.
    fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// An optional string.
    fn opt_str(&mut self, s: Option<&str>) {
        self.raw(&[u8::from(s.is_some())]);
        if let Some(s) = s {
            self.str(s);
        }
    }

    /// A filter's tag and text.
    fn filter(&mut self, filter: &FilterSource) {
        let (tag, text) = match filter {
            FilterSource::None => (FILTER_NONE, None),
            FilterSource::CorrelationId(pattern) => (FILTER_CORRELATION, Some(pattern)),
            FilterSource::Selector(source) => (FILTER_SELECTOR, Some(source)),
        };
        self.raw(&[tag]);
        if let Some(text) = text {
            self.str(text);
        }
    }

    /// A message's fields.
    fn fields<'a, P>(&mut self, fields: Fields<&'a str, P, &'a [u8]>)
    where
        P: IntoIterator<Item = (&'a str, &'a Value)>,
        P::IntoIter: ExactSizeIterator,
    {
        self.opt_str(fields.correlation_id);
        self.opt_str(fields.message_type);
        self.raw(&[fields.priority]);
        self.opt_str(fields.reply_to);
        self.raw(&[u8::from(fields.expiry.is_some())]);
        if let Some(expiry) = fields.expiry {
            self.u64(expiry);
        }
        let properties = fields.properties.into_iter();
        self.u32(properties.len() as u32);
        for (key, value) in properties {
            self.str(key);
            match value {
                Value::Bool(b) => self.raw(&[VALUE_BOOL, u8::from(*b)]),
                Value::Int(i) => {
                    self.raw(&[VALUE_INT]);
                    self.u64(*i as u64);
                }
                Value::Float(x) => {
                    self.raw(&[VALUE_FLOAT]);
                    self.u64(x.to_bits());
                }
                Value::Str(s) => {
                    self.raw(&[VALUE_STR]);
                    self.str(s);
                }
            }
        }
        self.bytes(fields.body);
        self.u64(fields.trace_id);
        self.u64(fields.trace_origin_ns);
    }
}

impl Put for Vec<u8> {
    fn raw(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// Reads the codec's items off a byte slice, bounds-checking each.
#[derive(Debug)]
pub struct Reader<'a> {
    /// The bytes not read yet.
    buf: &'a [u8],
}

fn err<T>(message: impl Into<String>) -> Result<T, DecodeError> {
    Err(DecodeError::new(message))
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.buf.len() < n {
            return err(format!("need {n} bytes, have {}", self.buf.len()));
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    /// A `u8`.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        Ok(self.take(N)?.try_into().expect("N bytes"))
    }

    /// A `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        self.array().map(u32::from_le_bytes)
    }

    /// A `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        self.array().map(u64::from_le_bytes)
    }

    /// A flag byte: 0 or 1.
    pub fn flag(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            flag => err(format!("bad flag {flag}")),
        }
    }

    /// A byte string, borrowed.
    pub fn bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// A string, borrowed.
    fn str(&mut self) -> Result<&'a str, DecodeError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| DecodeError::new("not UTF-8"))
    }

    /// A string.
    pub fn string(&mut self) -> Result<String, DecodeError> {
        self.str().map(str::to_owned)
    }

    fn opt_str(&mut self) -> Result<Option<&'a str>, DecodeError> {
        Ok(if self.flag()? { Some(self.str()?) } else { None })
    }

    fn value(&mut self) -> Result<Value, DecodeError> {
        match self.u8()? {
            VALUE_BOOL => Ok(Value::Bool(self.u8()? != 0)),
            VALUE_INT => Ok(Value::Int(self.u64()? as i64)),
            VALUE_FLOAT => Ok(Value::Float(f64::from_bits(self.u64()?))),
            VALUE_STR => Ok(Value::Str(self.string()?)),
            tag => err(format!("bad value tag {tag}")),
        }
    }

    /// A filter's tag and text.
    pub fn filter(&mut self) -> Result<FilterSource, DecodeError> {
        match self.u8()? {
            FILTER_NONE => Ok(FilterSource::None),
            FILTER_CORRELATION => Ok(FilterSource::CorrelationId(self.string()?)),
            FILTER_SELECTOR => Ok(FilterSource::Selector(self.string()?)),
            tag => err(format!("bad filter tag {tag}")),
        }
    }

    /// A message's fields, borrowed, each property made by `property`, in
    /// wire order. A priority above 9 or a zero trace id does not decode.
    pub fn fields<T>(
        &mut self,
        mut property: impl FnMut(&'a str, Value) -> T,
    ) -> Result<Fields<&'a str, Vec<T>, &'a [u8]>, DecodeError> {
        let correlation_id = self.opt_str()?;
        let message_type = self.opt_str()?;
        let priority = self.u8()?;
        if priority > 9 {
            return err(format!("priority {priority} out of the JMS 0-9 range"));
        }
        let reply_to = self.opt_str()?;
        let expiry = if self.flag()? { Some(self.u64()?) } else { None };
        let count = self.u32()? as usize;
        if count > self.buf.len() / MIN_PROPERTY_LEN {
            return err(format!("{count} properties in {} bytes", self.buf.len()));
        }
        let mut properties = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            properties.push(property(self.str()?, self.value()?));
        }
        let body = self.bytes()?;
        let trace_id = self.u64()?;
        if trace_id == 0 {
            return err("trace id must be nonzero");
        }
        let trace_origin_ns = self.u64()?;
        Ok(Fields {
            correlation_id,
            message_type,
            priority,
            reply_to,
            expiry,
            properties,
            body,
            trace_id,
            trace_origin_ns,
        })
    }

    /// Ends the read: every byte must have been taken.
    pub fn finish(self) -> Result<(), DecodeError> {
        match self.buf.len() {
            0 => Ok(()),
            n => err(format!("{n} trailing bytes")),
        }
    }
}
