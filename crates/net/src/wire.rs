//! The wire format: length-prefixed binary frames.
//!
//! Every frame is `u32 length (big endian, of the remainder) ++ u8 opcode ++
//! payload`. Strings are `u32 length ++ UTF-8 bytes`; optional fields are
//! `u8 presence ++ value`. The format is hand-rolled on [`bytes`] — the
//! workspace deliberately carries no serde wire backend — and round-trip
//! property tested.
//!
//! There is one dialect and no handshake: a connection's first frame is a
//! request. Every publish (opcode 0x0A) and every delivery (0x85) carries
//! its message's trace context, and a publish that admission control turns
//! away is answered with [`Response::PublishDenied`]. Any opcode not listed
//! here is a protocol violation, on which the server drops the connection.

use bytes::{Buf, BufMut, Bytes};
use rjms_broker::message::{Message, Priority};
use rjms_selector::Value;
use std::fmt;

/// Maximum accepted frame size (16 MiB) — guards against corrupt length
/// prefixes allocating unbounded memory.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// A decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// What went wrong.
    pub message: String,
}

impl DecodeError {
    fn new(message: impl Into<String>) -> Self {
        Self { message: message.into() }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire decode error: {}", self.message)
    }
}

impl std::error::Error for DecodeError {}

/// Frames sent from client to server.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Create a topic.
    CreateTopic {
        /// Correlates the response.
        request_id: u32,
        /// The topic name.
        topic: String,
    },
    /// Publish a message to a topic.
    Publish {
        /// Correlates the response.
        request_id: u32,
        /// The topic name.
        topic: String,
        /// The message.
        message: WireMessage,
    },
    /// Subscribe to a topic (exact name) with a filter.
    Subscribe {
        /// Correlates the response.
        request_id: u32,
        /// Client-chosen subscription id; delivered messages carry it.
        subscription_id: u32,
        /// The topic name.
        topic: String,
        /// The filter specification.
        filter: WireFilter,
    },
    /// Subscribe to a topic *pattern* (`orders.*`, `sensors.>`).
    SubscribePattern {
        /// Correlates the response.
        request_id: u32,
        /// Client-chosen subscription id.
        subscription_id: u32,
        /// The pattern source text.
        pattern: String,
        /// The filter specification.
        filter: WireFilter,
    },
    /// Connect to (or create) a named *durable* subscription on a topic.
    SubscribeDurable {
        /// Correlates the response.
        request_id: u32,
        /// Client-chosen subscription id.
        subscription_id: u32,
        /// The topic name.
        topic: String,
        /// The durable subscription name.
        name: String,
        /// The filter specification.
        filter: WireFilter,
    },
    /// Permanently remove a *disconnected* durable subscription.
    UnsubscribeDurable {
        /// Correlates the response.
        request_id: u32,
        /// The topic name.
        topic: String,
        /// The durable subscription name.
        name: String,
    },
    /// Cancel a subscription.
    Unsubscribe {
        /// Correlates the response.
        request_id: u32,
        /// The subscription to cancel.
        subscription_id: u32,
    },
    /// Liveness probe.
    Ping {
        /// Correlates the response.
        request_id: u32,
    },
}

/// Frames sent from server to client.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The request succeeded.
    Ok {
        /// The request this answers.
        request_id: u32,
    },
    /// The request failed.
    Error {
        /// The request this answers.
        request_id: u32,
        /// Human-readable reason.
        message: String,
    },
    /// A delivered message (not correlated to a request).
    Delivery {
        /// The subscription it belongs to.
        subscription_id: u32,
        /// The message.
        message: WireMessage,
    },
    /// Answer to [`Request::Ping`].
    Pong {
        /// The request this answers.
        request_id: u32,
    },
    /// Admission control rejected a publish.
    PublishDenied {
        /// The request this answers.
        request_id: u32,
        /// The admission class of the rejected publish.
        class: u8,
        /// `true` if deferred (retry after `retry_after_ms`); `false` if
        /// shed (retrying immediately will not help).
        deferred: bool,
        /// Suggested retry delay in milliseconds (0 when shed).
        retry_after_ms: u64,
    },
}

/// A filter as it travels on the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum WireFilter {
    /// No filter.
    None,
    /// Correlation-ID filter pattern (e.g. `[7;13]`).
    CorrelationId(String),
    /// Full selector source text.
    Selector(String),
}

/// End-to-end trace context carried alongside a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireTrace {
    /// The origin-assigned nonzero trace id.
    pub trace_id: u64,
    /// Nanoseconds since the Unix epoch at trace creation.
    pub origin_ns: u64,
}

/// A message as it travels on the wire (the subset of header fields the
/// broker models, the typed properties, and the body).
#[derive(Debug, Clone, PartialEq)]
pub struct WireMessage {
    /// Correlation id header.
    pub correlation_id: Option<String>,
    /// `JMSType` header.
    pub message_type: Option<String>,
    /// Priority 0–9.
    pub priority: u8,
    /// Remaining time to live in milliseconds; `None` = never expires.
    /// (`Some(0)` is an already-expired message, which the receiving broker
    /// will discard — distinct from no expiration.)
    pub ttl_millis: Option<u64>,
    /// Typed user properties.
    pub properties: Vec<(String, Value)>,
    /// Opaque payload.
    pub body: Bytes,
    /// Trace context: every message on the wire carries one.
    pub trace: WireTrace,
}

impl WireMessage {
    /// Converts into a broker [`Message`] (stamps id and timestamp; adopts
    /// the wire trace context).
    pub fn into_message(self) -> Message {
        let mut b = Message::builder()
            .priority(Priority::new(self.priority.min(9)))
            .trace_context(self.trace.trace_id, self.trace.origin_ns);
        if let Some(c) = self.correlation_id {
            b = b.correlation_id(c);
        }
        if let Some(t) = self.message_type {
            b = b.message_type(t);
        }
        if let Some(ttl) = self.ttl_millis {
            b = b.time_to_live(std::time::Duration::from_millis(ttl));
        }
        for (k, v) in self.properties {
            b = b.property(k, v);
        }
        b.body(self.body).build()
    }

    /// Builds the wire form of a broker message (drops id/timestamp, which
    /// the receiving broker re-stamps).
    pub fn from_message(m: &Message) -> Self {
        WireMessage {
            correlation_id: m.correlation_id().map(str::to_owned),
            message_type: m.message_type().map(str::to_owned),
            priority: m.priority().level(),
            ttl_millis: remaining_ttl(m),
            properties: m.properties().iter().map(|(k, v)| (k.clone(), v.clone())).collect(),
            body: m.body().clone(),
            trace: trace_of(m),
        }
    }
}

/// The trace context a broker message goes on the wire with.
fn trace_of(m: &Message) -> WireTrace {
    WireTrace { trace_id: m.trace_id(), origin_ns: m.trace_origin_ns() }
}

/// The time to live a message goes on the wire with.
fn remaining_ttl(m: &Message) -> Option<u64> {
    m.expiration_millis().map(|e| e.saturating_sub(m.timestamp_millis()))
}

// --- primitive encoders/decoders -----------------------------------------

fn put_str(buf: &mut impl BufMut, s: &str) {
    buf.put_u32(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn get_str(buf: &mut Bytes) -> Result<String, DecodeError> {
    let len = get_u32(buf)? as usize;
    if buf.remaining() < len {
        return Err(DecodeError::new("string length exceeds frame"));
    }
    let raw = buf[..len].to_vec();
    buf.advance(len);
    String::from_utf8(raw).map_err(|_| DecodeError::new("invalid UTF-8 string"))
}

fn get_u32(buf: &mut Bytes) -> Result<u32, DecodeError> {
    if buf.remaining() < 4 {
        return Err(DecodeError::new("truncated u32"));
    }
    Ok(buf.get_u32())
}

fn get_u64(buf: &mut Bytes) -> Result<u64, DecodeError> {
    if buf.remaining() < 8 {
        return Err(DecodeError::new("truncated u64"));
    }
    Ok(buf.get_u64())
}

fn get_u8(buf: &mut Bytes) -> Result<u8, DecodeError> {
    if buf.remaining() < 1 {
        return Err(DecodeError::new("truncated u8"));
    }
    Ok(buf.get_u8())
}

fn put_opt_str(buf: &mut impl BufMut, s: Option<&str>) {
    match s {
        None => buf.put_u8(0),
        Some(v) => {
            buf.put_u8(1);
            put_str(buf, v);
        }
    }
}

fn get_opt_str(buf: &mut Bytes) -> Result<Option<String>, DecodeError> {
    match get_u8(buf)? {
        0 => Ok(None),
        1 => Ok(Some(get_str(buf)?)),
        other => Err(DecodeError::new(format!("invalid option tag {other}"))),
    }
}

fn put_value(buf: &mut impl BufMut, v: &Value) {
    match v {
        Value::Bool(b) => {
            buf.put_u8(0);
            buf.put_u8(u8::from(*b));
        }
        Value::Int(i) => {
            buf.put_u8(1);
            buf.put_i64(*i);
        }
        Value::Float(f) => {
            buf.put_u8(2);
            buf.put_f64(*f);
        }
        Value::Str(s) => {
            buf.put_u8(3);
            put_str(buf, s);
        }
    }
}

fn get_value(buf: &mut Bytes) -> Result<Value, DecodeError> {
    match get_u8(buf)? {
        0 => Ok(Value::Bool(get_u8(buf)? != 0)),
        1 => {
            if buf.remaining() < 8 {
                return Err(DecodeError::new("truncated i64"));
            }
            Ok(Value::Int(buf.get_i64()))
        }
        2 => {
            if buf.remaining() < 8 {
                return Err(DecodeError::new("truncated f64"));
            }
            Ok(Value::Float(buf.get_f64()))
        }
        3 => Ok(Value::Str(get_str(buf)?)),
        other => Err(DecodeError::new(format!("invalid value tag {other}"))),
    }
}

fn put_message(buf: &mut impl BufMut, m: &WireMessage) {
    put_fields(
        buf,
        m.correlation_id.as_deref(),
        m.message_type.as_deref(),
        m.priority,
        m.ttl_millis,
        m.properties.iter().map(|(k, v)| (k.as_str(), v)),
        &m.body,
    );
    put_trace(buf, &m.trace);
}

/// A message's fields in wire order, which nothing else knows: borrowed
/// from a [`WireMessage`] by [`put_message`] and straight from a broker
/// [`Message`] by [`encode_delivery_into`].
fn put_fields<'a>(
    buf: &mut impl BufMut,
    correlation_id: Option<&str>,
    message_type: Option<&str>,
    priority: u8,
    ttl_millis: Option<u64>,
    properties: impl ExactSizeIterator<Item = (&'a str, &'a Value)>,
    body: &[u8],
) {
    put_opt_str(buf, correlation_id);
    put_opt_str(buf, message_type);
    buf.put_u8(priority);
    match ttl_millis {
        None => buf.put_u8(0),
        Some(ttl) => {
            buf.put_u8(1);
            buf.put_u64(ttl);
        }
    }
    buf.put_u32(properties.len() as u32);
    for (k, v) in properties {
        put_str(buf, k);
        put_value(buf, v);
    }
    buf.put_u32(body.len() as u32);
    buf.put_slice(body);
}

/// A message and the trace context behind it.
fn get_message(buf: &mut Bytes) -> Result<WireMessage, DecodeError> {
    let correlation_id = get_opt_str(buf)?;
    let message_type = get_opt_str(buf)?;
    let priority = get_u8(buf)?;
    let ttl_millis = match get_u8(buf)? {
        0 => None,
        1 => Some(get_u64(buf)?),
        other => return Err(DecodeError::new(format!("invalid ttl tag {other}"))),
    };
    let prop_count = get_u32(buf)? as usize;
    if prop_count > MAX_FRAME_LEN / 2 {
        return Err(DecodeError::new("property count exceeds frame"));
    }
    let mut properties = Vec::with_capacity(prop_count.min(1024));
    for _ in 0..prop_count {
        let k = get_str(buf)?;
        let v = get_value(buf)?;
        properties.push((k, v));
    }
    let body_len = get_u32(buf)? as usize;
    if buf.remaining() < body_len {
        return Err(DecodeError::new("body length exceeds frame"));
    }
    // Copied out, as the strings are: a message that outlives its frame must
    // not pin the read chunk (up to 64 KiB) the frame is a slice of.
    let body = Bytes::copy_from_slice(&buf[..body_len]);
    buf.advance(body_len);
    let trace = get_trace(buf)?;
    Ok(WireMessage { correlation_id, message_type, priority, ttl_millis, properties, body, trace })
}

fn put_trace(buf: &mut impl BufMut, t: &WireTrace) {
    buf.put_u64(t.trace_id);
    buf.put_u64(t.origin_ns);
}

fn get_trace(buf: &mut Bytes) -> Result<WireTrace, DecodeError> {
    let trace_id = get_u64(buf)?;
    if trace_id == 0 {
        return Err(DecodeError::new("trace id must be nonzero"));
    }
    let origin_ns = get_u64(buf)?;
    Ok(WireTrace { trace_id, origin_ns })
}

fn put_filter(buf: &mut impl BufMut, f: &WireFilter) {
    match f {
        WireFilter::None => buf.put_u8(0),
        WireFilter::CorrelationId(p) => {
            buf.put_u8(1);
            put_str(buf, p);
        }
        WireFilter::Selector(s) => {
            buf.put_u8(2);
            put_str(buf, s);
        }
    }
}

fn get_filter(buf: &mut Bytes) -> Result<WireFilter, DecodeError> {
    match get_u8(buf)? {
        0 => Ok(WireFilter::None),
        1 => Ok(WireFilter::CorrelationId(get_str(buf)?)),
        2 => Ok(WireFilter::Selector(get_str(buf)?)),
        other => Err(DecodeError::new(format!("invalid filter tag {other}"))),
    }
}

// --- frame encoders/decoders ----------------------------------------------

/// Reserves a frame's length prefix at the end of `out`; [`end_frame`]
/// fills it in once the body has been appended behind it.
fn begin_frame(out: &mut Vec<u8>) -> usize {
    let start = out.len();
    out.put_u32(0);
    start
}

fn end_frame(out: &mut [u8], start: usize) {
    let len = (out.len() - start - 4) as u32;
    out[start..start + 4].copy_from_slice(&len.to_be_bytes());
}

/// Encodes a request into one length-prefixed frame.
pub fn encode_request(req: &Request) -> Bytes {
    let mut out = Vec::with_capacity(64);
    let start = begin_frame(&mut out);
    match req {
        Request::CreateTopic { request_id, topic } => {
            out.put_u8(0x01);
            out.put_u32(*request_id);
            put_str(&mut out, topic);
        }
        Request::Publish { request_id, topic, message } => {
            out.put_u8(0x0A);
            out.put_u32(*request_id);
            put_str(&mut out, topic);
            put_message(&mut out, message);
        }
        Request::Subscribe { request_id, subscription_id, topic, filter } => {
            out.put_u8(0x03);
            out.put_u32(*request_id);
            out.put_u32(*subscription_id);
            put_str(&mut out, topic);
            put_filter(&mut out, filter);
        }
        Request::SubscribePattern { request_id, subscription_id, pattern, filter } => {
            out.put_u8(0x04);
            out.put_u32(*request_id);
            out.put_u32(*subscription_id);
            put_str(&mut out, pattern);
            put_filter(&mut out, filter);
        }
        Request::Unsubscribe { request_id, subscription_id } => {
            out.put_u8(0x05);
            out.put_u32(*request_id);
            out.put_u32(*subscription_id);
        }
        Request::SubscribeDurable { request_id, subscription_id, topic, name, filter } => {
            out.put_u8(0x07);
            out.put_u32(*request_id);
            out.put_u32(*subscription_id);
            put_str(&mut out, topic);
            put_str(&mut out, name);
            put_filter(&mut out, filter);
        }
        Request::UnsubscribeDurable { request_id, topic, name } => {
            out.put_u8(0x08);
            out.put_u32(*request_id);
            put_str(&mut out, topic);
            put_str(&mut out, name);
        }
        Request::Ping { request_id } => {
            out.put_u8(0x06);
            out.put_u32(*request_id);
        }
    }
    end_frame(&mut out, start);
    Bytes::from(out)
}

/// Encodes a response into one length-prefixed frame.
pub fn encode_response(resp: &Response) -> Bytes {
    let mut frame = Vec::with_capacity(64);
    encode_response_into(&mut frame, resp);
    Bytes::from(frame)
}

/// Appends a response to `out` as one length-prefixed frame, so a writer
/// can gather many frames into one buffer and one socket write.
pub fn encode_response_into(out: &mut Vec<u8>, resp: &Response) {
    let start = begin_frame(out);
    match resp {
        Response::Ok { request_id } => {
            out.put_u8(0x81);
            out.put_u32(*request_id);
        }
        Response::Error { request_id, message } => {
            out.put_u8(0x82);
            out.put_u32(*request_id);
            put_str(out, message);
        }
        Response::Delivery { subscription_id, message } => {
            out.put_u8(0x85);
            out.put_u32(*subscription_id);
            put_message(out, message);
        }
        Response::Pong { request_id } => {
            out.put_u8(0x84);
            out.put_u32(*request_id);
        }
        Response::PublishDenied { request_id, class, deferred, retry_after_ms } => {
            out.put_u8(0x87);
            out.put_u32(*request_id);
            out.put_u8(*class);
            out.put_u8(u8::from(*deferred));
            out.put_u64(*retry_after_ms);
        }
    }
    end_frame(out, start);
}

/// Appends the frame [`encode_response_into`] gives for a
/// [`Response::Delivery`] of [`WireMessage::from_message`]`(message)`,
/// encoding from the broker's message in place: no header string, property
/// or body is copied on the way.
pub fn encode_delivery_into(out: &mut Vec<u8>, subscription_id: u32, message: &Message) {
    let start = begin_frame(out);
    out.put_u8(0x85);
    out.put_u32(subscription_id);
    put_fields(
        out,
        message.correlation_id(),
        message.message_type(),
        message.priority().level(),
        remaining_ttl(message),
        message.properties().iter().map(|(k, v)| (k.as_str(), v)),
        message.body(),
    );
    put_trace(out, &trace_of(message));
    end_frame(out, start);
}

/// Decodes a request frame *body* (the bytes after the length prefix).
pub fn decode_request(mut body: Bytes) -> Result<Request, DecodeError> {
    let req = match get_u8(&mut body)? {
        0x01 => {
            Request::CreateTopic { request_id: get_u32(&mut body)?, topic: get_str(&mut body)? }
        }
        0x0A => Request::Publish {
            request_id: get_u32(&mut body)?,
            topic: get_str(&mut body)?,
            message: get_message(&mut body)?,
        },
        0x03 => Request::Subscribe {
            request_id: get_u32(&mut body)?,
            subscription_id: get_u32(&mut body)?,
            topic: get_str(&mut body)?,
            filter: get_filter(&mut body)?,
        },
        0x04 => Request::SubscribePattern {
            request_id: get_u32(&mut body)?,
            subscription_id: get_u32(&mut body)?,
            pattern: get_str(&mut body)?,
            filter: get_filter(&mut body)?,
        },
        0x05 => Request::Unsubscribe {
            request_id: get_u32(&mut body)?,
            subscription_id: get_u32(&mut body)?,
        },
        0x06 => Request::Ping { request_id: get_u32(&mut body)? },
        0x07 => Request::SubscribeDurable {
            request_id: get_u32(&mut body)?,
            subscription_id: get_u32(&mut body)?,
            topic: get_str(&mut body)?,
            name: get_str(&mut body)?,
            filter: get_filter(&mut body)?,
        },
        0x08 => Request::UnsubscribeDurable {
            request_id: get_u32(&mut body)?,
            topic: get_str(&mut body)?,
            name: get_str(&mut body)?,
        },
        other => return Err(DecodeError::new(format!("unknown request opcode {other:#x}"))),
    };
    ensure_drained(&body)?;
    Ok(req)
}

/// Decodes a response frame *body* (the bytes after the length prefix).
pub fn decode_response(mut body: Bytes) -> Result<Response, DecodeError> {
    let resp = match get_u8(&mut body)? {
        0x81 => Response::Ok { request_id: get_u32(&mut body)? },
        0x82 => Response::Error { request_id: get_u32(&mut body)?, message: get_str(&mut body)? },
        0x85 => Response::Delivery {
            subscription_id: get_u32(&mut body)?,
            message: get_message(&mut body)?,
        },
        0x84 => Response::Pong { request_id: get_u32(&mut body)? },
        0x87 => {
            let request_id = get_u32(&mut body)?;
            let class = get_u8(&mut body)?;
            let deferred = match get_u8(&mut body)? {
                0 => false,
                1 => true,
                other => return Err(DecodeError::new(format!("invalid deferred tag {other}"))),
            };
            let retry_after_ms = get_u64(&mut body)?;
            Response::PublishDenied { request_id, class, deferred, retry_after_ms }
        }
        other => return Err(DecodeError::new(format!("unknown response opcode {other:#x}"))),
    };
    ensure_drained(&body)?;
    Ok(resp)
}

/// The subscription a response frame body is a delivery for, from the opcode and the four
/// bytes behind it: all a reader needs to route it. `None` for any other frame, or a short one.
pub fn delivery_subscription(body: &[u8]) -> Option<u32> {
    match *body {
        [0x85, a, b, c, d, ..] => Some(u32::from_be_bytes([a, b, c, d])),
        _ => None,
    }
}

fn ensure_drained(body: &Bytes) -> Result<(), DecodeError> {
    if body.has_remaining() {
        Err(DecodeError::new(format!("{} trailing bytes in frame", body.remaining())))
    } else {
        Ok(())
    }
}

/// Size of a [`FrameReader`]'s buffer: one `read` can bring in this many
/// bytes of frames. Frames that do not fit get an allocation of their own.
const READ_BUFFER_LEN: usize = 64 * 1024;

fn oversized(len: usize) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("frame of {len} bytes exceeds limit"),
    )
}

/// Reads frame bodies from a blocking reader: one `read` takes whatever the
/// reader has, the complete frames in it leave the buffer as one shared copy
/// (a *chunk*, prefixes included) and are handed out as slices of it before
/// the next `read`; a queued frame keeps its chunk alive, the decoders copy out
/// of it. The connection loops of the server and the client read through this.
///
/// Whatever the reader returns per call — down to one byte — the frames
/// come out exactly as [`read_frame`] would return them: a frame is handed
/// out only once all of it has arrived, `Ok(None)` means EOF at a frame
/// boundary, EOF inside a prefix or a body is `UnexpectedEof`, and a
/// length above [`MAX_FRAME_LEN`] is `InvalidData` once the frames before
/// it have come out and before anything is allocated for it. After an error
/// the reader's position is unspecified.
pub struct FrameReader<R> {
    reader: R,
    /// Zero-filled once; `buf[..end]` holds the bytes read behind the last
    /// chunk: between calls, no complete frame.
    buf: Vec<u8>,
    end: usize,
    /// Complete frames with their prefixes, not yet handed out.
    chunk: Bytes,
}

impl<R> fmt::Debug for FrameReader<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FrameReader").field("buffered", &(self.chunk.len() + self.end)).finish()
    }
}

impl<R: std::io::Read> FrameReader<R> {
    /// Wraps `reader`; nothing is read until the first
    /// [`next_frame`](Self::next_frame).
    pub fn new(reader: R) -> Self {
        FrameReader { reader, buf: vec![0; READ_BUFFER_LEN], end: 0, chunk: Bytes::new() }
    }

    /// The length prefix at `buf[at..]` and the bytes read behind it.
    fn prefix_at(&self, at: usize) -> Option<(usize, &[u8])> {
        let (prefix, rest) = self.buf[at..self.end].split_first_chunk::<4>()?;
        Some((u32::from_be_bytes(*prefix) as usize, rest))
    }

    /// Whether the next [`next_frame`](Self::next_frame) returns without a
    /// `read`: with a frame of the last read, or refusing an oversized one.
    pub fn buffered(&self) -> bool {
        !self.chunk.is_empty() || self.prefix_at(0).is_some_and(|(len, _)| len > MAX_FRAME_LEN)
    }

    /// The next frame body (the bytes after the length prefix), blocking
    /// until all of it has arrived. `Ok(None)` on clean EOF.
    ///
    /// # Errors
    ///
    /// I/O errors, oversized frames, or EOF mid-frame.
    pub fn next_frame(&mut self) -> std::io::Result<Option<Bytes>> {
        use std::io::{Error, ErrorKind};
        loop {
            if let Some(prefix) = self.chunk.first_chunk::<4>() {
                let mut frame = self.chunk.split_to(4 + u32::from_be_bytes(*prefix) as usize);
                frame.advance(4);
                return Ok(Some(frame));
            }
            if let Some((len, rest)) = self.prefix_at(0) {
                if len > MAX_FRAME_LEN {
                    return Err(oversized(len));
                }
                if 4 + len > self.buf.len() {
                    // Larger than the buffer: it gets an allocation of its
                    // own, and the rest of it is read straight into that.
                    let mut body = vec![0; len];
                    let (head, tail) = body.split_at_mut(rest.len());
                    head.copy_from_slice(rest);
                    self.end = 0;
                    self.reader.read_exact(tail)?;
                    return Ok(Some(Bytes::from(body)));
                }
            }
            match self.reader.read(&mut self.buf[self.end..]) {
                Ok(0) if self.end == 0 => return Ok(None),
                Ok(0) => return Err(Error::new(ErrorKind::UnexpectedEof, "truncated frame")),
                Ok(n) => self.end += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
            let mut complete = 0;
            while let Some((len, rest)) = self.prefix_at(complete) {
                if rest.len() < len {
                    break;
                }
                complete += 4 + len;
            }
            if complete > 0 {
                self.chunk = Bytes::copy_from_slice(&self.buf[..complete]);
                // The partial frame behind them moves to the front, so that
                // the rest of it (at most `buf.len()` bytes in all) has room.
                self.buf.copy_within(complete..self.end, 0);
                self.end -= complete;
            }
        }
    }
}

/// Reads one frame body from a blocking reader (consuming the length
/// prefix) without reading past it. Returns `Ok(None)` on clean EOF at a
/// frame boundary. This is the unbuffered reference for [`FrameReader`],
/// which the connection loops use; a caller that reads single replies
/// from a raw stream can still use it.
///
/// # Errors
///
/// I/O errors, oversized frames, or EOF mid-frame.
pub fn read_frame<R: std::io::Read>(reader: &mut R) -> std::io::Result<Option<Bytes>> {
    use std::io::{Error, ErrorKind};
    let mut len_buf = [0u8; 4];
    // Distinguish clean EOF (no bytes) from a truncated prefix.
    let mut filled = 0;
    while filled < 4 {
        match reader.read(&mut len_buf[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => return Err(Error::new(ErrorKind::UnexpectedEof, "truncated frame length")),
            n => filled += n,
        }
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME_LEN {
        return Err(oversized(len));
    }
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body)?;
    Ok(Some(Bytes::from(body)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    fn roundtrip_request(req: Request) {
        let frame = encode_request(&req);
        // Strip the length prefix as read_frame would.
        let body = frame.slice(4..);
        assert_eq!(decode_request(body).unwrap(), req);
    }

    fn roundtrip_response(resp: Response) {
        let frame = encode_response(&resp);
        let body = frame.slice(4..);
        assert_eq!(decode_response(body).unwrap(), resp);
    }

    fn sample_message() -> WireMessage {
        WireMessage {
            correlation_id: Some("#7".into()),
            message_type: None,
            priority: 6,
            ttl_millis: Some(1500),
            properties: vec![
                ("color".into(), Value::Str("red".into())),
                ("weight".into(), Value::Int(-3)),
                ("ratio".into(), Value::Float(2.5)),
                ("urgent".into(), Value::Bool(true)),
            ],
            body: Bytes::from_static(b"payload"),
            trace: WireTrace { trace_id: 0xFEED_F00D, origin_ns: 1_700_000_000_000_000_000 },
        }
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_request(Request::CreateTopic { request_id: 1, topic: "a.b".into() });
        roundtrip_request(Request::Publish {
            request_id: 2,
            topic: "t".into(),
            message: sample_message(),
        });
        roundtrip_request(Request::Subscribe {
            request_id: 3,
            subscription_id: 9,
            topic: "t".into(),
            filter: WireFilter::Selector("a = 1".into()),
        });
        roundtrip_request(Request::SubscribePattern {
            request_id: 4,
            subscription_id: 10,
            pattern: "a.>".into(),
            filter: WireFilter::CorrelationId("[1;2]".into()),
        });
        roundtrip_request(Request::Unsubscribe { request_id: 5, subscription_id: 9 });
        roundtrip_request(Request::SubscribeDurable {
            request_id: 7,
            subscription_id: 11,
            topic: "t".into(),
            name: "worker".into(),
            filter: WireFilter::None,
        });
        roundtrip_request(Request::UnsubscribeDurable {
            request_id: 8,
            topic: "t".into(),
            name: "worker".into(),
        });
        roundtrip_request(Request::Ping { request_id: 6 });
    }

    #[test]
    fn response_roundtrips() {
        roundtrip_response(Response::Ok { request_id: 1 });
        roundtrip_response(Response::Error { request_id: 2, message: "nope".into() });
        roundtrip_response(Response::Delivery { subscription_id: 3, message: sample_message() });
        roundtrip_response(Response::Pong { request_id: 4 });
        roundtrip_response(Response::PublishDenied {
            request_id: 7,
            class: 1,
            deferred: true,
            retry_after_ms: 40,
        });
        roundtrip_response(Response::PublishDenied {
            request_id: 8,
            class: 0,
            deferred: false,
            retry_after_ms: 0,
        });
    }

    #[test]
    fn flow_frames_use_new_opcodes_and_reject_truncation() {
        let denied = encode_response(&Response::PublishDenied {
            request_id: 1,
            class: 2,
            deferred: false,
            retry_after_ms: 0,
        });
        assert_eq!(denied[4], 0x87);
        let body = denied.slice(4..);
        for cut in 0..body.len() {
            assert!(decode_response(body.slice(..cut)).is_err(), "cut at {cut} did not error");
        }
        // An out-of-range deferred tag is rejected.
        let mut forged = BytesMut::new();
        forged.put_u8(0x87);
        forged.put_u32(1);
        forged.put_u8(0);
        forged.put_u8(7); // invalid bool tag
        forged.put_u64(0);
        assert!(decode_response(forged.freeze()).is_err());
    }

    /// A message shaped like the ledger's (`#0`, `key` and `seq`, no TTL),
    /// with a fixed trace context.
    fn ledger_message() -> WireMessage {
        WireMessage {
            correlation_id: Some("#0".into()),
            message_type: None,
            priority: 4,
            ttl_millis: None,
            properties: vec![("key".into(), Value::Int(0)), ("seq".into(), Value::Int(5))],
            body: Bytes::from_static(b"body"),
            trace: WireTrace { trace_id: 0x0102_0304_0506_0708, origin_ns: 0x1112_1314_1516_1718 },
        }
    }

    /// The message's bytes, as both frames carry them.
    const LEDGER_MESSAGE_HEX: &str = concat!(
        "01000000022330",                   // correlation id "#0"
        "00",                               // no message type
        "04",                               // priority
        "00",                               // no TTL
        "00000002",                         // two properties
        "000000036b6579010000000000000000", // key = 0
        "00000003736571010000000000000005", // seq = 5
        "00000004626f6479",                 // body
        "01020304050607081112131415161718", // trace id, origin ns
    );

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn publish_and_delivery_frames_are_pinned_to_the_byte() {
        // Length, opcode 0x0A, request id 7, topic "ledger", the message.
        let publish =
            Request::Publish { request_id: 7, topic: "ledger".into(), message: ledger_message() };
        let expected =
            ["00000055", "0a", "00000007", "00000006", "6c6564676572", LEDGER_MESSAGE_HEX];
        assert_eq!(hex(&encode_request(&publish)), expected.concat());
        // Length, opcode 0x85, subscription id 3, the message; from the
        // wire message and in place from the broker's.
        let delivery = Response::Delivery { subscription_id: 3, message: ledger_message() };
        let expected = ["0000004b", "85", "00000003", LEDGER_MESSAGE_HEX].concat();
        assert_eq!(hex(&encode_response(&delivery)), expected);
        let mut in_place = Vec::new();
        encode_delivery_into(&mut in_place, 3, &ledger_message().into_message());
        assert_eq!(hex(&in_place), expected);
    }

    #[test]
    fn retired_opcodes_are_unknown() {
        // Each body is what the decoder took before: a publish (0x02) and a
        // delivery (0x83) without the trace context, a Hello (0x09).
        let untraced = |frame: Bytes| frame.slice(5..frame.len() - 16);
        let publish = encode_request(&Request::Publish {
            request_id: 1,
            topic: "t".into(),
            message: sample_message(),
        });
        let untraced_publish = [&[0x02][..], &untraced(publish)].concat();
        assert!(decode_request(untraced_publish.into()).is_err());
        let hello = [0x09, 0, 0, 0, 1, 0, 0, 0, 3];
        assert!(decode_request(Bytes::copy_from_slice(&hello)).is_err());
        let delivery =
            encode_response(&Response::Delivery { subscription_id: 1, message: sample_message() });
        let untraced_delivery = [&[0x83][..], &untraced(delivery)].concat();
        assert!(delivery_subscription(&untraced_delivery).is_none());
        assert!(decode_response(untraced_delivery.into()).is_err());
    }

    #[test]
    fn zero_trace_id_on_the_wire_is_rejected() {
        let mut frame = BytesMut::new();
        frame.put_u8(0x0A);
        frame.put_u32(1);
        put_str(&mut frame, "t");
        let forged = WireTrace { trace_id: 0, origin_ns: 42 };
        put_message(&mut frame, &WireMessage { trace: forged, ..sample_message() });
        assert!(decode_request(frame.freeze()).is_err());
    }

    #[test]
    fn wire_message_to_broker_message_and_back() {
        let wire = sample_message();
        let msg = wire.clone().into_message();
        assert_eq!(msg.correlation_id(), Some("#7"));
        assert_eq!(msg.priority().level(), 6);
        assert!(msg.expiration_millis().is_some());
        assert_eq!(msg.trace_id(), 0xFEED_F00D);
        assert_eq!(msg.trace_origin_ns(), 1_700_000_000_000_000_000);
        let back = WireMessage::from_message(&msg);
        assert!(back.ttl_millis.is_some());
        assert_eq!(back.trace, wire.trace);
        assert_eq!(back.correlation_id, wire.correlation_id);
        assert_eq!(back.priority, wire.priority);
        assert_eq!(back.body, wire.body);
        // Properties survive as a set (BTreeMap reorders them).
        let mut a = back.properties.clone();
        let mut b = wire.properties.clone();
        a.sort_by(|x, y| x.0.cmp(&y.0));
        b.sort_by(|x, y| x.0.cmp(&y.0));
        assert_eq!(a, b);
    }

    #[test]
    fn decode_rejects_unknown_opcode() {
        let body = Bytes::from_static(&[0x7f, 0, 0, 0, 1]);
        assert!(decode_request(body.clone()).is_err());
        assert!(decode_response(body).is_err());
        // 0x86, the retired credit grant, is as unknown as any other.
        assert!(decode_response(Bytes::from_static(&[0x86, 0, 0, 0, 64])).is_err());
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        let mut frame = BytesMut::new();
        frame.put_u8(0x06);
        frame.put_u32(1);
        frame.put_u8(0xaa); // trailing byte
        assert!(decode_request(frame.freeze()).is_err());
    }

    #[test]
    fn decode_rejects_truncation_everywhere() {
        // Truncate a valid publish frame at every byte offset: must error,
        // never panic.
        let message = sample_message();
        let frame = encode_request(&Request::Publish { request_id: 2, topic: "t".into(), message });
        let body = frame.slice(4..);
        for cut in 0..body.len() {
            let truncated = body.slice(..cut);
            assert!(decode_request(truncated).is_err(), "cut at {cut} did not error");
        }
    }

    #[test]
    fn read_frame_handles_eof() {
        use std::io::Cursor;
        // Clean EOF.
        let mut empty = Cursor::new(Vec::<u8>::new());
        assert!(read_frame(&mut empty).unwrap().is_none());
        // EOF mid-prefix.
        let mut partial = Cursor::new(vec![0u8, 0]);
        assert!(read_frame(&mut partial).is_err());
        // EOF mid-body.
        let mut short = Cursor::new(vec![0, 0, 0, 10, 1, 2]);
        assert!(read_frame(&mut short).is_err());
        // A full frame.
        let frame = encode_request(&Request::Ping { request_id: 9 });
        let mut full = Cursor::new(frame.to_vec());
        let body = read_frame(&mut full).unwrap().unwrap();
        assert_eq!(decode_request(body).unwrap(), Request::Ping { request_id: 9 });
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut data = Vec::new();
        data.extend_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_be_bytes());
        let mut cursor = std::io::Cursor::new(data);
        assert!(read_frame(&mut cursor).is_err());
    }
}
