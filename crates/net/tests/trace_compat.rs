//! Trace-context wire compatibility: old-format clients interoperate with a
//! new server, and negotiated clients propagate trace ids end to end.

use bytes::Bytes;
use rjms_broker::{BrokerConfig, Message, TraceConfig};
use rjms_net::client::RemoteBroker;
use rjms_net::server::BrokerServer;
use rjms_net::wire::{
    decode_response, encode_request, read_frame, Request, Response, WireFilter, WireMessage,
};
use rjms_trace::{group_chains, Stage};
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

/// A minimal stand-in for a pre-trace client: it speaks only the original
/// opcodes (messages without context, no connect-time Hello) over a raw
/// socket.
struct OldClient {
    stream: TcpStream,
}

impl OldClient {
    fn connect(addr: std::net::SocketAddr) -> OldClient {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).ok();
        OldClient { stream }
    }

    fn send(&mut self, request: &Request) {
        let frame = encode_request(request);
        self.stream.write_all(&frame).expect("write frame");
    }

    /// Reads one frame and returns its raw body (opcode byte first).
    fn read_raw(&mut self) -> Bytes {
        read_frame(&mut self.stream).expect("read frame").expect("connection open")
    }
}

#[test]
fn old_format_client_interoperates_with_new_server() {
    let server = BrokerServer::start(
        BrokerConfig::builder().trace(TraceConfig::default()).build(),
        "127.0.0.1:0",
    )
    .expect("bind");
    let mut old = OldClient::connect(server.local_addr());

    // Pre-trace frames only: no Hello, message without context.
    old.send(&Request::CreateTopic { request_id: 1, topic: "t".into() });
    old.send(&Request::Subscribe {
        request_id: 2,
        subscription_id: 1,
        topic: "t".into(),
        filter: WireFilter::None,
    });
    let message = Message::builder().property("k", 7i64).build();
    let wire = WireMessage::from_message(&message).without_trace();
    let publish_frame =
        encode_request(&Request::Publish { request_id: 3, topic: "t".into(), message: wire });
    // The publish must itself be in the pre-trace format.
    assert_eq!(publish_frame[4], 0x02, "stripped publish keeps the original opcode");
    old.stream.write_all(&publish_frame).expect("write publish");

    // Collect responses until the delivery and all three replies have
    // arrived. Replies come in request order, but a delivery is not a reply:
    // the writer may take it before the Ok of the publish that caused it
    // (DESIGN.md §3.6b), so it is accepted at either side of the third Ok.
    // The delivery to a client that never sent Hello must use the
    // pre-trace opcode.
    let mut oks = 0;
    let mut delivery = None;
    while oks < 3 || delivery.is_none() {
        let body = old.read_raw();
        match body[0] {
            0x81 => oks += 1, // Ok
            0x83 | 0x85 if delivery.is_none() => delivery = Some(body),
            other => panic!("unexpected response opcode {other:#x}"),
        }
    }
    assert_eq!(oks, 3, "all three pre-trace requests answered Ok");
    let delivery_body = delivery.expect("one delivery");
    assert_eq!(delivery_body[0], 0x83, "delivery to an old client stays untraced");
    let decoded = decode_response(delivery_body).expect("decodable");
    match decoded {
        Response::Delivery { subscription_id, message } => {
            assert_eq!(subscription_id, 1);
            assert!(message.trace.is_none());
            assert_eq!(message.into_message().property("k"), Some(&7i64.into()));
        }
        other => panic!("expected delivery, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn trace_ids_propagate_publisher_to_subscriber() {
    let server = BrokerServer::start(BrokerConfig::default(), "127.0.0.1:0").expect("bind");
    let client = RemoteBroker::connect(server.local_addr()).unwrap();
    assert!(client.trace_negotiated(), "new server acknowledges the handshake");
    client.create_topic("t").unwrap();
    let sub = client.subscribe("t", WireFilter::None).unwrap();

    let message = Message::builder().property("k", 1i64).build();
    let published_id = message.trace_id();
    assert_ne!(published_id, 0);
    client.publish("t", &message).unwrap();

    let received = sub.receive_timeout(Duration::from_secs(5)).expect("delivery");
    assert_eq!(received.trace_id(), published_id, "trace id survives the full round trip");
    assert_eq!(received.trace_origin_ns(), message.trace_origin_ns());
    server.shutdown();
}

#[test]
fn wire_flush_spans_join_broker_chains() {
    // With tracing on and the tail threshold still at its initial zero,
    // every message's chain is kept, and deliveries flushed to a negotiated
    // client gain a fifth wire_flush span recorded by the writer thread.
    let server = BrokerServer::start(
        BrokerConfig::builder().trace(TraceConfig::default()).build(),
        "127.0.0.1:0",
    )
    .expect("bind");
    let client = RemoteBroker::connect(server.local_addr()).unwrap();
    client.create_topic("t").unwrap();
    let sub = client.subscribe("t", WireFilter::None).unwrap();

    let mut ids = Vec::new();
    for i in 0..20i64 {
        let message = Message::builder().property("seq", i).build();
        ids.push(message.trace_id());
        client.publish("t", &message).unwrap();
    }
    for _ in 0..20 {
        sub.receive_timeout(Duration::from_secs(5)).expect("delivery");
    }
    // The writer records the flush span right after write_all returns, so
    // once the last delivery is received all spans are in the recorder.
    std::thread::sleep(Duration::from_millis(50));

    let recorder = server.broker().tracer().expect("tracing enabled");
    let chains = group_chains(recorder.snapshot().events);
    for id in &ids {
        let chain = chains
            .iter()
            .find(|c| c.trace_id == *id)
            .unwrap_or_else(|| panic!("no chain for {id}"));
        assert!(chain.is_complete(), "broker stages incomplete for {id}: {chain:?}");
        assert!(chain.has_stage(Stage::WireFlush), "missing wire_flush span for {id}: {chain:?}");
        assert!(chain.timestamps_monotone(), "non-monotone chain for {id}: {chain:?}");
    }
    server.shutdown();
}
