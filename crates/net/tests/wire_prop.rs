//! Property tests for the wire codec: arbitrary frames round-trip, a
//! delivery for any id list routes to each id and decodes to its message,
//! the client's `read_delivery` reads the message `decode_delivery` decodes
//! and refuses what it refuses, the decoders are total (never panic) on
//! arbitrary bytes, and `FrameReader` finds the frames `read_frame` finds
//! however the stream is cut up. `PROPTEST_CASES` sets the case count (256
//! by default).

use bytes::Bytes;
use proptest::prelude::*;
use rjms_broker::Message;
use rjms_net::wire::{
    decode_delivery, decode_request, decode_response, delivery_subscriptions, encode_delivery_into,
    encode_request, encode_response, read_delivery, read_frame, FrameReader, Request, Response,
    WireFilter, WireMessage, WireTrace, MAX_FRAME_LEN,
};
use rjms_selector::Value;
use std::cell::Cell;
use std::io::ErrorKind;
use std::time::{Duration, Instant};

/// Property names of 0–40 bytes, multi-byte characters included: both
/// sides of the message's 22-byte inline limit.
fn name_strategy() -> impl Strategy<Value = String> {
    "[a-z_é€𝄞]{0,40}".prop_map(|mut name| {
        while name.len() > 40 {
            name.pop();
        }
        name
    })
}

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        // Finite floats only: NaN breaks PartialEq round-trip comparison.
        (-1e12f64..1e12).prop_map(Value::Float),
        "[a-zA-Z0-9 ]{0,16}".prop_map(Value::Str),
    ]
}

fn trace_strategy() -> impl Strategy<Value = WireTrace> {
    // `| 1` keeps ids nonzero: the decoder rejects a zero trace id.
    (any::<u64>(), any::<u64>()).prop_map(|(id, ns)| WireTrace { trace_id: id | 1, origin_ns: ns })
}

fn message_strategy() -> impl Strategy<Value = WireMessage> {
    (
        prop::option::of("[!-~]{0,24}"),
        prop::option::of("[a-z]{0,12}"),
        0u8..=9,
        prop::option::of("[a-z.]{0,12}"),
        prop::option::of(any::<u64>()),
        prop::collection::vec((name_strategy(), value_strategy()), 0..6),
        prop::collection::vec(any::<u8>(), 0..256),
        trace_strategy(),
    )
        .prop_map(
            |(
                correlation_id,
                message_type,
                priority,
                reply_to,
                ttl_millis,
                properties,
                body,
                trace,
            )| {
                WireMessage {
                    correlation_id,
                    message_type,
                    priority,
                    reply_to,
                    ttl_millis,
                    properties,
                    body: Bytes::from(body),
                    trace,
                }
            },
        )
}

fn filter_strategy() -> impl Strategy<Value = WireFilter> {
    prop_oneof![
        Just(WireFilter::None),
        "[!-~]{0,16}".prop_map(WireFilter::CorrelationId),
        "[ -~]{0,32}".prop_map(WireFilter::Selector),
    ]
}

fn request_strategy() -> impl Strategy<Value = Request> {
    prop_oneof![
        (any::<u32>(), "[a-z.]{1,20}")
            .prop_map(|(request_id, topic)| Request::CreateTopic { request_id, topic }),
        (any::<u32>(), "[a-z.]{1,20}", message_strategy()).prop_map(
            |(request_id, topic, message)| Request::Publish { request_id, topic, message }
        ),
        (any::<u32>(), any::<u32>(), "[a-z.]{1,20}", filter_strategy()).prop_map(
            |(request_id, subscription_id, topic, filter)| Request::Subscribe {
                request_id,
                subscription_id,
                topic,
                filter,
            }
        ),
        (any::<u32>(), any::<u32>(), "[a-z.*>]{1,20}", filter_strategy()).prop_map(
            |(request_id, subscription_id, pattern, filter)| Request::SubscribePattern {
                request_id,
                subscription_id,
                pattern,
                filter,
            }
        ),
        (any::<u32>(), any::<u32>()).prop_map(|(request_id, subscription_id)| {
            Request::Unsubscribe { request_id, subscription_id }
        }),
        any::<u32>().prop_map(|request_id| Request::Ping { request_id }),
    ]
}

fn response_strategy() -> impl Strategy<Value = Response> {
    prop_oneof![
        any::<u32>().prop_map(|request_id| Response::Ok { request_id }),
        (any::<u32>(), "[ -~]{0,40}")
            .prop_map(|(request_id, message)| Response::Error { request_id, message }),
        (any::<u32>(), message_strategy()).prop_map(|(subscription_id, message)| {
            Response::Delivery { subscription_id, message }
        }),
        any::<u32>().prop_map(|request_id| Response::Pong { request_id }),
    ]
}

/// A reader that returns the stream in pieces of the given sizes (cycled),
/// the way a socket hands out whatever has arrived, and counts its `read`s.
struct Chunked<'a> {
    data: &'a [u8],
    sizes: std::iter::Cycle<std::slice::Iter<'a, usize>>,
    reads: &'a Cell<usize>,
}

impl std::io::Read for Chunked<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.reads.set(self.reads.get() + 1);
        let size = *self.sizes.next().expect("cycle of a non-empty list");
        let n = size.min(buf.len()).min(self.data.len());
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

/// The frames a [`FrameReader`] finds in `data` when `read` returns pieces
/// of `sizes` (cycled), and how the stream ended. On the way, `buffered()`
/// must say before every `next_frame()` whether it will get by without a
/// `read`.
fn frames_in(data: &[u8], sizes: &[usize]) -> (Vec<Bytes>, std::io::Result<()>) {
    let reads = Cell::new(0);
    let mut reader = FrameReader::new(Chunked { data, sizes: sizes.iter().cycle(), reads: &reads });
    let mut frames = Vec::new();
    loop {
        let (buffered, reads_before) = (reader.buffered(), reads.get());
        let next = reader.next_frame();
        assert_eq!(buffered, reads.get() == reads_before, "after {} frames", frames.len());
        match next {
            Ok(Some(frame)) => frames.push(frame),
            Ok(None) => return (frames, Ok(())),
            Err(e) => return (frames, Err(e)),
        }
    }
}

#[test]
fn frame_reader_ends_like_read_frame() {
    let ping = encode_request(&Request::Ping { request_id: 9 }).to_vec();
    for chunk in [1, 3, 1 << 20] {
        // Clean EOF, with and without frames before it.
        assert!(matches!(frames_in(&[], &[chunk]), (f, Ok(())) if f.is_empty()));
        let (frames, end) = frames_in(&[ping.clone(), ping.clone()].concat(), &[chunk]);
        assert_eq!(frames, [Bytes::from(&ping[4..]), Bytes::from(&ping[4..])]);
        assert!(end.is_ok());
        // EOF mid-prefix and mid-body: the whole frames still come out.
        for cut in [2, 6] {
            let (frames, end) = frames_in(&[&ping[..], &ping[..cut]].concat(), &[chunk]);
            assert_eq!(frames.len(), 1);
            assert_eq!(end.unwrap_err().kind(), ErrorKind::UnexpectedEof, "cut at {cut}");
        }
        // An oversized length is refused on sight: no body follows it
        // here, so waiting or allocating for one would not get this far.
        let oversized = (MAX_FRAME_LEN as u32 + 1).to_le_bytes();
        let (frames, end) = frames_in(&[&ping[..], &oversized[..]].concat(), &[chunk]);
        assert_eq!(frames.len(), 1);
        assert_eq!(end.unwrap_err().kind(), ErrorKind::InvalidData);
    }
}

#[test]
fn frame_reader_passes_frames_larger_than_its_buffer() {
    // 200 KiB bodies against the reader's 64 KiB buffer.
    let large = Response::Error { request_id: 1, message: "x".repeat(200 * 1024) };
    let small = Response::Pong { request_id: 4 };
    let sent = [&small, &large, &small, &large, &small];
    let stream: Vec<u8> = sent.iter().flat_map(|r| encode_response(r).to_vec()).collect();
    // 1000-byte reads leave the large frame's head in the buffer and its
    // tail on the reader; one huge read has the buffer cut it instead.
    for chunk in [1000, usize::MAX] {
        let (frames, end) = frames_in(&stream, &[chunk]);
        assert!(end.is_ok());
        let received: Vec<_> = frames.into_iter().map(|f| decode_response(f).unwrap()).collect();
        assert_eq!(received.iter().collect::<Vec<_>>(), sent);
    }
    // EOF inside the tail of a large frame.
    let (frames, end) = frames_in(&stream[..stream.len() / 2], &[1000]);
    assert_eq!(frames.len(), 2);
    assert_eq!(end.unwrap_err().kind(), ErrorKind::UnexpectedEof);
}

/// The bytes of a message apart from its id, timestamp and expiration
/// base: two reads of one frame at different instants agree on these. A
/// time to live is counted from the timestamp, except at the `i64::MAX`
/// ceiling, where what is left depends on when the frame was read.
fn stamp_free(message: &Message) -> Bytes {
    let mut wire = WireMessage::from_message(message);
    if message.expiration_millis() == Some(i64::MAX as u64) {
        wire.ttl_millis = Some(u64::MAX);
    }
    encode_response(&Response::Delivery { subscription_id: 0, message: wire })
}

/// What the client's reader makes of a delivery frame body against the
/// `WireMessage` route it replaced: both accept it or both refuse it, and
/// what they accept is one message.
fn reads_like_the_wire_route(body: &[u8]) -> Result<bool, TestCaseError> {
    let read = read_delivery(body);
    let decoded = decode_delivery(body).map(WireMessage::into_message);
    prop_assert_eq!(read.is_ok(), decoded.is_ok());
    if let (Ok(read), Ok(decoded)) = (&read, &decoded) {
        prop_assert_eq!(stamp_free(read), stamp_free(decoded));
    }
    Ok(read.is_ok())
}

/// The body of a delivery frame of `wire` for `ids`, its properties sent
/// as they are: in their order, a name given twice sent twice.
fn delivery_body(ids: &[u32], wire: &WireMessage) -> Vec<u8> {
    let one = encode_response(&Response::Delivery { subscription_id: 0, message: wire.clone() });
    let mut body = vec![0x85];
    body.extend_from_slice(&(ids.len() as u32).to_le_bytes());
    ids.iter().for_each(|id| body.extend_from_slice(&id.to_le_bytes()));
    // Behind the length, the opcode, the count and the one id.
    body.extend_from_slice(&one[13..]);
    body
}

#[test]
fn a_delivery_with_many_names_in_reverse_order_reads_in_n_log_n() {
    // Inserting each name at its place would shift every entry read before
    // it: ≈ 10^12 bytes moved for 200 000 names, a minute or more of the
    // client's reader instead of well under a second.
    let names = (0..200_000).rev().map(|i| format!("p{i:06}"));
    let message = WireMessage {
        properties: names.zip(0..).map(|(name, i)| (name, Value::Int(i))).collect(),
        ..WireMessage::from_message(&Message::builder().build())
    };
    let body = delivery_body(&[1], &message);
    let start = Instant::now();
    let read = read_delivery(&body).unwrap();
    let took = start.elapsed();
    assert!(took < Duration::from_secs(10), "{took:?}");
    assert_eq!(read.properties().len(), 200_000);
    assert!(read.properties().map(|(_, v)| v.clone()).eq((0..200_000).rev().map(Value::Int)));
}

proptest! {
    #[test]
    fn frame_reader_agrees_with_read_frame_on_any_chunking(
        requests in prop::collection::vec(request_strategy(), 0..6),
        responses in prop::collection::vec(response_strategy(), 0..6),
        sizes in prop::collection::vec(1usize..300, 1..8),
        oversized_tail in any::<bool>(),
    ) {
        let mut stream = Vec::new();
        for (i, request) in requests.iter().enumerate() {
            stream.extend_from_slice(&encode_request(request));
            if let Some(response) = responses.get(i) {
                stream.extend_from_slice(&encode_response(response));
            }
        }
        if oversized_tail {
            stream.extend_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes());
        }
        let mut reference = std::io::Cursor::new(&stream);
        let mut expected = Vec::new();
        let expected_end = loop {
            match read_frame(&mut reference) {
                Ok(Some(frame)) => expected.push(frame),
                Ok(None) => break None,
                Err(e) => break Some(e.kind()),
            }
        };
        // Complete frames in front of an oversized prefix come out first,
        // however many of them shared a read with it.
        prop_assert_eq!(expected_end, oversized_tail.then_some(ErrorKind::InvalidData));
        let (frames, end) = frames_in(&stream, &sizes);
        prop_assert_eq!(end.err().map(|e| e.kind()), expected_end);
        prop_assert_eq!(&frames, &expected);
        // A frame that is a slice of a read's chunk decodes to what its
        // standalone copy decodes to, which is what was sent.
        let responses_of = |frames: Vec<Bytes>| -> Vec<Response> {
            let responses = frames.into_iter().filter(|f| f[0] >= 0x80);
            responses.map(|f| decode_response(f).unwrap()).collect()
        };
        let sent = &responses[..responses.len().min(requests.len())];
        prop_assert_eq!(&responses_of(frames)[..], sent);
        prop_assert_eq!(&responses_of(expected)[..], sent);
    }

    #[test]
    fn request_roundtrip(req in request_strategy()) {
        let frame = encode_request(&req);
        let body = frame.slice(4..);
        prop_assert_eq!(decode_request(body).unwrap(), req);
    }

    #[test]
    fn response_roundtrip(resp in response_strategy()) {
        let frame = encode_response(&resp);
        let body = frame.slice(4..);
        prop_assert_eq!(decode_response(body).unwrap(), resp);
    }

    /// The server's writer encodes deliveries straight from the broker's
    /// message; the `WireMessage` route is the reference it must equal.
    #[test]
    fn delivery_encoded_in_place_is_the_wire_messages_frame(
        subscription_id in any::<u32>(),
        wire in message_strategy(),
        behind in prop::collection::vec(any::<u8>(), 0..8),
    ) {
        let message = wire.into_message();
        let reference = WireMessage::from_message(&message);
        let expected = encode_response(&Response::Delivery { subscription_id, message: reference });
        // Appended: what is already in the buffer stays.
        let mut out = behind.clone();
        encode_delivery_into(&mut out, [subscription_id], &message);
        prop_assert_eq!(&out[..behind.len()], &behind[..]);
        prop_assert_eq!(&out[behind.len()..], &expected[..]);
    }

    /// One frame for any id list: the reader routes it to every id in
    /// order, each decodes the one message, and only a list of one is a
    /// `Response`.
    #[test]
    fn a_delivery_for_any_id_list_routes_to_each_and_decodes_its_message(
        ids in prop::collection::vec(any::<u32>(), 1..12),
        wire in message_strategy(),
    ) {
        let message = wire.into_message();
        let mut frame = Vec::new();
        encode_delivery_into(&mut frame, ids.iter().copied(), &message);
        let body = Bytes::from(frame).slice(4..);
        let routed: Vec<u32> =
            delivery_subscriptions(&body).unwrap().expect("a delivery").collect();
        prop_assert_eq!(&routed, &ids);
        prop_assert_eq!(decode_delivery(&body).unwrap(), WireMessage::from_message(&message));
        prop_assert!(reads_like_the_wire_route(&body)?);
        prop_assert_eq!(decode_response(body).is_ok(), ids.len() == 1);
    }

    /// The reader the client decodes with reads the message the
    /// `WireMessage` route builds, whatever the properties' order and
    /// repeated names; a byte behind the message is refused by both, and
    /// one byte changed anywhere in the frame is accepted by both or
    /// refused by both.
    #[test]
    fn read_delivery_reads_what_the_wire_route_builds(
        ids in prop::collection::vec(any::<u32>(), 1..6),
        wire in message_strategy(),
        // Names from a small set: most lists repeat one, out of order.
        repeated in prop::collection::vec(("[ab]{0,2}", value_strategy()), 0..8),
        at_ratio in 0.0f64..1.0,
        byte in any::<u8>(),
    ) {
        let mut wire = wire;
        wire.properties.extend(repeated);
        let mut body = delivery_body(&ids, &wire);
        prop_assert!(reads_like_the_wire_route(&body)?);
        prop_assert!(!reads_like_the_wire_route(&[&body[..], &[byte]].concat())?);
        let at = ((body.len() as f64) * at_ratio) as usize;
        body[at] = byte;
        reads_like_the_wire_route(&body)?;
    }

    /// A delivery for no subscription, or whose id list the frame cannot
    /// hold, does not route and does not decode; a cut anywhere in a
    /// delivery is refused and nothing panics.
    #[test]
    fn a_delivery_with_a_bad_id_list_or_cut_short_is_refused(
        ids in prop::collection::vec(any::<u32>(), 1..12),
        wire in message_strategy(),
        cut_ratio in 0.0f64..1.0,
        extra in 1u32..1000,
    ) {
        let message = wire.into_message();
        let mut frame = Vec::new();
        encode_delivery_into(&mut frame, ids.iter().copied(), &message);
        let body = frame[4..].to_vec();
        let refused = |body: &[u8]| {
            delivery_subscriptions(body).is_err()
                && decode_delivery(body).is_err()
                && read_delivery(body).is_err()
                && decode_response(Bytes::copy_from_slice(body)).is_err()
        };
        // More ids than the frame has room for behind the count.
        let room = (body.len() as u32 - 5) / 4;
        let mut long = body.clone();
        long[1..5].copy_from_slice(&(room + extra).to_le_bytes());
        prop_assert!(refused(&long));
        let mut none = Vec::new();
        encode_delivery_into(&mut none, [], &message);
        prop_assert!(refused(&none[4..]));
        // Cut inside the id list: unroutable; behind it: routable, but the
        // message does not decode.
        let cut = ((body.len() as f64) * cut_ratio) as usize;
        let short = &body[..cut];
        prop_assert!(decode_delivery(short).is_err());
        prop_assert!(!reads_like_the_wire_route(short)?);
        prop_assert!(decode_response(Bytes::copy_from_slice(short)).is_err());
        let routable = matches!(delivery_subscriptions(short), Ok(Some(_)));
        prop_assert_eq!(routable, cut >= 5 + 4 * ids.len());
    }

    #[test]
    fn decoder_total_on_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        // Must never panic; errors are fine.
        let _ = decode_request(Bytes::from(bytes.clone()));
        let _ = decode_response(Bytes::from(bytes.clone()));
        reads_like_the_wire_route(&bytes)?;
        let _ = delivery_subscriptions(&bytes).map(|ids| ids.map(Iterator::count));
    }

    /// Arbitrary bytes behind a delivery's opcode: the router and the
    /// decoders never panic, and agree on what is routable.
    #[test]
    fn delivery_decoders_total_behind_the_opcode(
        bytes in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let body = [&[0x85][..], &bytes].concat();
        let routable = delivery_subscriptions(&body).map(|ids| ids.map(Iterator::count));
        if reads_like_the_wire_route(&body)? {
            prop_assert!(matches!(routable, Ok(Some(n)) if n > 0));
        }
        if routable.is_err() {
            prop_assert!(decode_response(Bytes::from(body)).is_err());
        }
    }

    #[test]
    fn decoder_total_on_truncated_valid_frames(
        req in request_strategy(),
        cut_ratio in 0.0f64..1.0,
    ) {
        let frame = encode_request(&req);
        let body = frame.slice(4..);
        let cut = ((body.len() as f64) * cut_ratio) as usize;
        if cut < body.len() {
            // A strictly truncated frame must error, never panic or succeed.
            prop_assert!(decode_request(body.slice(..cut)).is_err());
        }
    }
}
