//! The wire format: length-prefixed binary frames.
//!
//! Every frame is `u32 length (of the remainder) ++ u8 opcode ++ payload`,
//! every integer little-endian. This module knows the frames and their
//! opcodes; a string, a filter or a message inside one is laid out by
//! [`rjms_broker::codec`], the journal's codec (a message goes out with its
//! remaining time to live, and without id or timestamp). The format is
//! hand-rolled — the workspace carries no serde wire backend — and
//! round-trip property tested.
//!
//! There is one dialect and no handshake: a connection's first frame is a
//! request. Every publish (opcode 0x0A) and every delivery (0x85) carries
//! its message's trace context, and a publish that admission control turns
//! away is answered with [`Response::PublishDenied`]. Any opcode not listed
//! here is a protocol violation, on which the server drops the connection.
//!
//! A delivery is `0x85 ++ u32 count ++ count × u32 subscription id ++ the
//! message`: one frame per message per connection, replicated by the
//! client; [`Response::Delivery`] is the frame for one subscription. The
//! server groups the copies of one pass over its queues, at most one per
//! subscription, so no subscription's order can change; grouping across
//! passes could reorder one (DESIGN.md §3.6).

use bytes::{Buf, Bytes};
use rjms_broker::codec::{Fields, Put, Reader, Stamp};
use rjms_broker::message::{Message, Priority};
use rjms_selector::Value;
use std::fmt;

pub use rjms_broker::codec::{DecodeError, FilterSource as WireFilter};

/// Maximum accepted frame size (16 MiB) — guards against corrupt length
/// prefixes allocating unbounded memory.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

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
    /// A delivered message (not correlated to a request) for one subscription.
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
    /// `JMSReplyTo` header.
    pub reply_to: Option<String>,
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
    /// the wire trace context). Of a property name sent twice the last
    /// value wins.
    pub fn into_message(mut self) -> Message {
        let mut b = Message::builder()
            .priority(Priority::new(self.priority.min(9)))
            .trace_context(self.trace.trace_id, self.trace.origin_ns);
        if let Some(c) = self.correlation_id {
            b = b.correlation_id(c);
        }
        if let Some(t) = self.message_type {
            b = b.message_type(t);
        }
        if let Some(r) = self.reply_to {
            b = b.reply_to(r);
        }
        if let Some(ttl) = self.ttl_millis {
            b = b.time_to_live(std::time::Duration::from_millis(ttl));
        }
        // Stable, so a repeated name's last value stays last; in name order
        // every `property` appends or replaces the last entry, so names
        // sent in any order cost O(n log n), not an insert into the middle
        // each.
        self.properties.sort_by(|(a, _), (b, _)| a.cmp(b));
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
            reply_to: m.reply_to().map(str::to_owned),
            ttl_millis: remaining_ttl(m),
            properties: m.properties().map(|(k, v)| (k.to_owned(), v.clone())).collect(),
            body: m.body().clone(),
            trace: WireTrace { trace_id: m.trace_id(), origin_ns: m.trace_origin_ns() },
        }
    }
}

/// The time to live a message goes on the wire with.
fn remaining_ttl(m: &Message) -> Option<u64> {
    m.expiration_millis().map(|e| e.saturating_sub(m.timestamp_millis()))
}

/// A wire message's fields, as the codec writes them.
fn put_message(out: &mut Vec<u8>, m: &WireMessage) {
    out.fields(Fields {
        correlation_id: m.correlation_id.as_deref(),
        message_type: m.message_type.as_deref(),
        priority: m.priority,
        reply_to: m.reply_to.as_deref(),
        expiry: m.ttl_millis,
        properties: m.properties.iter().map(|(k, v)| (k.as_str(), v)),
        body: &m.body,
        trace_id: m.trace.trace_id,
        trace_origin_ns: m.trace.origin_ns,
    });
}

/// A wire message, as the codec reads it.
fn read_message(r: &mut Reader<'_>) -> Result<WireMessage, DecodeError> {
    let f = r.fields(|name, value| (name.to_owned(), value))?;
    Ok(WireMessage {
        correlation_id: f.correlation_id.map(str::to_owned),
        message_type: f.message_type.map(str::to_owned),
        priority: f.priority,
        reply_to: f.reply_to.map(str::to_owned),
        ttl_millis: f.expiry,
        properties: f.properties,
        body: Bytes::copy_from_slice(f.body),
        trace: WireTrace { trace_id: f.trace_id, origin_ns: f.trace_origin_ns },
    })
}

// --- frame encoders/decoders ----------------------------------------------

/// Reserves a frame's length prefix at the end of `out`; [`end_frame`]
/// fills it in once the body has been appended behind it.
fn begin_frame(out: &mut Vec<u8>) -> usize {
    let start = out.len();
    out.u32(0);
    start
}

fn end_frame(out: &mut [u8], start: usize) {
    let len = (out.len() - start - 4) as u32;
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
}

/// Encodes a request into one length-prefixed frame.
pub fn encode_request(req: &Request) -> Bytes {
    let mut out = Vec::with_capacity(64);
    let start = begin_frame(&mut out);
    match req {
        Request::CreateTopic { request_id, topic } => {
            out.push(0x01);
            out.u32(*request_id);
            out.str(topic);
        }
        Request::Publish { request_id, topic, message } => {
            out.push(0x0A);
            out.u32(*request_id);
            out.str(topic);
            put_message(&mut out, message);
        }
        Request::Subscribe { request_id, subscription_id, topic, filter } => {
            out.push(0x03);
            out.u32(*request_id);
            out.u32(*subscription_id);
            out.str(topic);
            out.filter(filter);
        }
        Request::SubscribePattern { request_id, subscription_id, pattern, filter } => {
            out.push(0x04);
            out.u32(*request_id);
            out.u32(*subscription_id);
            out.str(pattern);
            out.filter(filter);
        }
        Request::Unsubscribe { request_id, subscription_id } => {
            out.push(0x05);
            out.u32(*request_id);
            out.u32(*subscription_id);
        }
        Request::SubscribeDurable { request_id, subscription_id, topic, name, filter } => {
            out.push(0x07);
            out.u32(*request_id);
            out.u32(*subscription_id);
            out.str(topic);
            out.str(name);
            out.filter(filter);
        }
        Request::UnsubscribeDurable { request_id, topic, name } => {
            out.push(0x08);
            out.u32(*request_id);
            out.str(topic);
            out.str(name);
        }
        Request::Ping { request_id } => {
            out.push(0x06);
            out.u32(*request_id);
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
            out.push(0x81);
            out.u32(*request_id);
        }
        Response::Error { request_id, message } => {
            out.push(0x82);
            out.u32(*request_id);
            out.str(message);
        }
        Response::Delivery { subscription_id, message } => {
            put_delivery_head(out, std::iter::once(*subscription_id));
            put_message(out, message);
        }
        Response::Pong { request_id } => {
            out.push(0x84);
            out.u32(*request_id);
        }
        Response::PublishDenied { request_id, class, deferred, retry_after_ms } => {
            out.push(0x87);
            out.u32(*request_id);
            out.extend_from_slice(&[*class, u8::from(*deferred)]);
            out.u64(*retry_after_ms);
        }
    }
    end_frame(out, start);
}

/// A delivery frame's opcode and id list.
fn put_delivery_head(out: &mut Vec<u8>, ids: impl ExactSizeIterator<Item = u32>) {
    out.push(0x85);
    out.u32(ids.len() as u32);
    ids.for_each(|id| out.u32(id));
}

/// Appends one delivery frame of `message` for all of `subscription_ids`,
/// encoding from the broker's message in place: no header string, property
/// or body is copied on the way. For one id it is the frame
/// [`encode_response_into`] gives for a [`Response::Delivery`] of
/// [`WireMessage::from_message`]`(message)`.
pub fn encode_delivery_into(
    out: &mut Vec<u8>,
    subscription_ids: impl IntoIterator<Item = u32, IntoIter: ExactSizeIterator>,
    message: &Message,
) {
    let start = begin_frame(out);
    put_delivery_head(out, subscription_ids.into_iter());
    out.fields(Fields::of(message, remaining_ttl(message)));
    end_frame(out, start);
}

/// Decodes a request frame *body* (the bytes after the length prefix).
pub fn decode_request(body: Bytes) -> Result<Request, DecodeError> {
    let mut r = Reader::new(&body);
    let req = match r.u8()? {
        0x01 => Request::CreateTopic { request_id: r.u32()?, topic: r.string()? },
        0x0A => Request::Publish {
            request_id: r.u32()?,
            topic: r.string()?,
            message: read_message(&mut r)?,
        },
        0x03 => Request::Subscribe {
            request_id: r.u32()?,
            subscription_id: r.u32()?,
            topic: r.string()?,
            filter: r.filter()?,
        },
        0x04 => Request::SubscribePattern {
            request_id: r.u32()?,
            subscription_id: r.u32()?,
            pattern: r.string()?,
            filter: r.filter()?,
        },
        0x05 => Request::Unsubscribe { request_id: r.u32()?, subscription_id: r.u32()? },
        0x06 => Request::Ping { request_id: r.u32()? },
        0x07 => Request::SubscribeDurable {
            request_id: r.u32()?,
            subscription_id: r.u32()?,
            topic: r.string()?,
            name: r.string()?,
            filter: r.filter()?,
        },
        0x08 => Request::UnsubscribeDurable {
            request_id: r.u32()?,
            topic: r.string()?,
            name: r.string()?,
        },
        other => return Err(DecodeError::new(format!("unknown request opcode {other:#x}"))),
    };
    r.finish()?;
    Ok(req)
}

/// Decodes a response frame *body* (the bytes after the length prefix).
pub fn decode_response(body: Bytes) -> Result<Response, DecodeError> {
    let mut r = Reader::new(&body);
    let resp = match r.u8()? {
        0x81 => Response::Ok { request_id: r.u32()? },
        0x82 => Response::Error { request_id: r.u32()?, message: r.string()? },
        0x85 => {
            let Ok(id) = <[u8; 4]>::try_from(split_delivery(&body)?.0) else {
                return Err(DecodeError::new("a delivery for more than one subscription"));
            };
            let message = decode_delivery(&body)?;
            return Ok(Response::Delivery { subscription_id: u32::from_le_bytes(id), message });
        }
        0x84 => Response::Pong { request_id: r.u32()? },
        0x87 => Response::PublishDenied {
            request_id: r.u32()?,
            class: r.u8()?,
            deferred: r.flag()?,
            retry_after_ms: r.u64()?,
        },
        other => return Err(DecodeError::new(format!("unknown response opcode {other:#x}"))),
    };
    r.finish()?;
    Ok(resp)
}

/// A delivery frame body's id list, four bytes an id, and the message behind
/// it. An empty list, or one longer than the body, does not decode.
fn split_delivery(body: &[u8]) -> Result<(&[u8], &[u8]), DecodeError> {
    let (count, rest) = body
        .strip_prefix(&[0x85])
        .and_then(<[u8]>::split_first_chunk)
        .ok_or_else(|| DecodeError::new("not a delivery with an id count"))?;
    match u32::from_le_bytes(*count) as usize {
        count @ 1.. if count <= rest.len() / 4 => Ok(rest.split_at(4 * count)),
        count => Err(DecodeError::new(format!("{count} subscription ids in {} bytes", rest.len()))),
    }
}

/// The subscriptions a response frame body is a delivery for, from the
/// opcode and the id list behind it: all a reader needs to route it.
/// `Ok(None)` for any other frame.
pub fn delivery_subscriptions(
    body: &[u8],
) -> Result<Option<impl Iterator<Item = u32> + '_>, DecodeError> {
    if body.first() != Some(&0x85) {
        return Ok(None);
    }
    let ids = split_delivery(body)?.0.chunks_exact(4);
    Ok(Some(ids.map(|id| u32::from_le_bytes(id.try_into().expect("4 bytes")))))
}

/// The message of a delivery frame body: what each subscription it names
/// receives.
pub fn decode_delivery(body: &[u8]) -> Result<WireMessage, DecodeError> {
    let mut r = Reader::new(split_delivery(body)?.1);
    let message = read_message(&mut r)?;
    r.finish().map(|()| message)
}

/// [`decode_delivery`] straight into a broker [`Message`], stamped when it
/// is read ([`Stamp::Fresh`]): what the client hands each subscription.
pub fn read_delivery(body: &[u8]) -> Result<Message, DecodeError> {
    let mut r = Reader::new(split_delivery(body)?.1);
    let message = Message::read(&mut r, Stamp::Fresh)?;
    r.finish().map(|()| message)
}

/// Size of a [`FrameReader`]'s buffer: one `read` can bring in this many
/// bytes of frames. Frames that do not fit get an allocation of their own.
const READ_BUFFER_LEN: usize = 64 * 1024;

/// The error for a frame body of `len` bytes, above [`MAX_FRAME_LEN`]:
/// `InvalidData` when one is read, `InvalidInput` when one is to be sent.
pub(crate) fn oversized(kind: std::io::ErrorKind, len: usize) -> std::io::Error {
    std::io::Error::new(kind, format!("frame of {len} bytes exceeds limit"))
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
        Some((u32::from_le_bytes(*prefix) as usize, rest))
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
                let mut frame = self.chunk.split_to(4 + u32::from_le_bytes(*prefix) as usize);
                frame.advance(4);
                return Ok(Some(frame));
            }
            if let Some((len, rest)) = self.prefix_at(0) {
                if len > MAX_FRAME_LEN {
                    return Err(oversized(ErrorKind::InvalidData, len));
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
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME_LEN {
        return Err(oversized(ErrorKind::InvalidData, len));
    }
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body)?;
    Ok(Some(Bytes::from(body)))
}

#[cfg(test)]
mod tests {
    use super::*;

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
            reply_to: Some("replies".into()),
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
        let mut forged = vec![0x87];
        forged.u32(1);
        forged.extend_from_slice(&[0, 7]); // class 0, invalid bool tag
        forged.u64(0);
        assert!(decode_response(forged.into()).is_err());
    }

    /// A message shaped like the ledger's (`#0`, `key` and `seq`, no TTL),
    /// with a fixed trace context.
    fn ledger_message() -> WireMessage {
        WireMessage {
            correlation_id: Some("#0".into()),
            message_type: None,
            priority: 4,
            reply_to: None,
            ttl_millis: None,
            properties: vec![("key".into(), Value::Int(0)), ("seq".into(), Value::Int(5))],
            body: Bytes::from_static(b"body"),
            trace: WireTrace { trace_id: 0x0102_0304_0506_0708, origin_ns: 0x1112_1314_1516_1718 },
        }
    }

    /// The message's bytes, as both frames carry them.
    const LEDGER_MESSAGE_HEX: &str = concat!(
        "01020000002330",                   // correlation id "#0"
        "00",                               // no message type
        "04",                               // priority
        "00",                               // no reply-to
        "00",                               // no TTL
        "02000000",                         // two properties
        "030000006b6579010000000000000000", // key = 0
        "03000000736571010500000000000000", // seq = 5
        "04000000626f6479",                 // body
        "08070605040302011817161514131211", // trace id, origin ns
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
            ["56000000", "0a", "07000000", "06000000", "6c6564676572", LEDGER_MESSAGE_HEX];
        assert_eq!(hex(&encode_request(&publish)), expected.concat());
        // Length, opcode 0x85, one subscription id: 3, the message; from the
        // wire message and in place from the broker's.
        let delivery = Response::Delivery { subscription_id: 3, message: ledger_message() };
        let expected = ["50000000", "85", "01000000", "03000000", LEDGER_MESSAGE_HEX].concat();
        assert_eq!(hex(&encode_response(&delivery)), expected);
        let message = ledger_message().into_message();
        let mut in_place = Vec::new();
        encode_delivery_into(&mut in_place, [3], &message);
        assert_eq!(hex(&in_place), expected);
        // For four subscriptions: one frame, 16 bytes longer than the 0x4c
        // of a frame that named one subscription without a count.
        let ids = ["04000000", "00000000", "01000000", "02000000", "03000000"];
        let expected = ["5c000000", "85", &ids.concat(), LEDGER_MESSAGE_HEX].concat();
        in_place.clear();
        encode_delivery_into(&mut in_place, [0, 1, 2, 3], &message);
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
        let hello = [0x09, 1, 0, 0, 0, 3, 0, 0, 0];
        assert!(decode_request(Bytes::copy_from_slice(&hello)).is_err());
        let delivery =
            encode_response(&Response::Delivery { subscription_id: 1, message: sample_message() });
        let untraced_delivery = [&[0x83][..], &untraced(delivery)].concat();
        assert!(matches!(delivery_subscriptions(&untraced_delivery), Ok(None)));
        assert!(decode_response(untraced_delivery.into()).is_err());
    }

    /// A publish frame of `message`, encoded as it is: the decoder must
    /// judge what a peer could send.
    fn forged_publish(message: WireMessage) -> Bytes {
        let mut frame = vec![0x0A];
        frame.u32(1);
        frame.str("t");
        put_message(&mut frame, &message);
        frame.into()
    }

    #[test]
    fn zero_trace_id_on_the_wire_is_rejected() {
        let forged = WireTrace { trace_id: 0, origin_ns: 42 };
        assert!(decode_request(forged_publish(WireMessage { trace: forged, ..sample_message() }))
            .is_err());
    }

    #[test]
    fn priority_above_nine_on_the_wire_is_rejected() {
        let nine = forged_publish(WireMessage { priority: 9, ..sample_message() });
        assert!(decode_request(nine).is_ok());
        let ten = forged_publish(WireMessage { priority: 10, ..sample_message() });
        let e = decode_request(ten).unwrap_err();
        assert!(e.message.contains("priority 10"), "{e}");
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
        assert_eq!(msg.reply_to(), Some("replies"));
        assert_eq!(back.reply_to, wire.reply_to);
        assert_eq!(back.priority, wire.priority);
        assert_eq!(back.body, wire.body);
        // Properties survive as a set (the message keeps them in name order).
        let mut a = back.properties.clone();
        let mut b = wire.properties.clone();
        a.sort_by(|x, y| x.0.cmp(&y.0));
        b.sort_by(|x, y| x.0.cmp(&y.0));
        assert_eq!(a, b);
    }

    #[test]
    fn names_at_the_inline_limit_survive_a_frame_and_the_last_of_a_name_sent_twice_wins() {
        // 21, 22 and 23 bytes, and a two- and a four-byte character that
        // end at or straddle byte 22.
        let names = [
            "n".repeat(21),
            "n".repeat(22),
            "n".repeat(23),
            "x".repeat(21) + "é",
            "x".repeat(18) + "𝄞",
            "x".repeat(20) + "𝄞",
        ];
        let mut wire = sample_message();
        wire.properties = names.iter().map(|name| (name.clone(), Value::Int(1))).collect();
        wire.properties.push((names[1].clone(), Value::Int(2)));
        let publish = Request::Publish { request_id: 1, topic: "t".into(), message: wire };
        let Ok(Request::Publish { message, .. }) =
            decode_request(encode_request(&publish).slice(4..))
        else {
            panic!("not a publish");
        };
        let m = message.into_message();
        assert_eq!(m.properties().len(), names.len());
        for name in &names {
            let last = if *name == names[1] { 2 } else { 1 };
            assert_eq!(m.property(name), Some(&Value::Int(last)), "{name:?}");
        }
    }

    #[test]
    fn a_publish_with_many_names_in_reverse_order_converts_in_n_log_n() {
        // Inserting each name at the front would shift every entry stored
        // before it: ≈ 10^12 bytes moved for 200 000 names, a minute or
        // more of a connection thread instead of well under a second.
        let mut wire = sample_message();
        wire.properties = (0..200_000).rev().map(|i| (format!("p{i:06}"), Value::Int(i))).collect();
        let publish = Request::Publish { request_id: 1, topic: "t".into(), message: wire };
        let Ok(Request::Publish { message, .. }) =
            decode_request(encode_request(&publish).slice(4..))
        else {
            panic!("not a publish");
        };
        let start = std::time::Instant::now();
        let m = message.into_message();
        let took = start.elapsed();
        assert!(took < std::time::Duration::from_secs(10), "{took:?}");
        assert_eq!(m.properties().len(), 200_000);
        assert!(m.properties().map(|(_, v)| v.clone()).eq((0..200_000).map(Value::Int)));
    }

    #[test]
    fn decode_rejects_unknown_opcode() {
        let body = Bytes::from_static(&[0x7f, 1, 0, 0, 0]);
        assert!(decode_request(body.clone()).is_err());
        assert!(decode_response(body).is_err());
        // 0x86, the retired credit grant, is as unknown as any other.
        assert!(decode_response(Bytes::from_static(&[0x86, 64, 0, 0, 0])).is_err());
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        let mut frame = vec![0x06];
        frame.u32(1);
        frame.push(0xaa); // trailing byte
        assert!(decode_request(frame.into()).is_err());
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
        let mut short = Cursor::new(vec![10, 0, 0, 0, 1, 2]);
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
        data.u32(MAX_FRAME_LEN as u32 + 1);
        let mut cursor = std::io::Cursor::new(data);
        assert!(read_frame(&mut cursor).is_err());
    }
}
