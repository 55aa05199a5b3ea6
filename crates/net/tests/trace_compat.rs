//! Trace context on the wire: every publish and every delivery carries it,
//! so trace ids propagate end to end with nothing negotiated, and a peer
//! that speaks a retired frame (the Hello handshake, the untraced publish)
//! is dropped.

use rjms_broker::{BrokerConfig, Message, TraceConfig};
use rjms_net::client::RemoteBroker;
use rjms_net::server::BrokerServer;
use rjms_net::wire::{encode_request, read_frame, Request, WireFilter, WireMessage};
use rjms_trace::{group_chains, Stage};
use std::io::{ErrorKind, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A frame around `body`.
fn frame(body: &[u8]) -> Vec<u8> {
    [&(body.len() as u32).to_le_bytes()[..], body].concat()
}

#[test]
fn a_retired_frame_ends_the_connection() {
    let server = BrokerServer::start(BrokerConfig::default(), "127.0.0.1:0").expect("bind");
    server.broker().create_topic("t").unwrap();
    // A Hello (0x09: request id 1, feature bits 3), and a publish in the
    // untraced opcode 0x02: the traced frame less its context.
    let hello = [&[0x09][..], &1u32.to_le_bytes(), &3u32.to_le_bytes()].concat();
    let message = WireMessage::from_message(&Message::builder().build());
    let publish = encode_request(&Request::Publish { request_id: 1, topic: "t".into(), message });
    let untraced = [&[0x02][..], &publish[5..publish.len() - 16]].concat();
    for retired in [frame(&hello), frame(&untraced)] {
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let ping = encode_request(&Request::Ping { request_id: 2 });
        stream.write_all(&[&retired[..], &ping[..]].concat()).expect("send");
        // No reply to either: the server closed at the first frame (a reset
        // if the ping was still unread in its socket).
        let end = read_frame(&mut stream);
        let closed = match &end {
            Ok(None) => true,
            Ok(Some(_)) => false,
            Err(e) => e.kind() == ErrorKind::ConnectionReset,
        };
        assert!(closed, "opcode {:#x}: got {end:?}", retired[4]);
    }
    // The server itself is unaffected.
    RemoteBroker::connect(server.local_addr()).unwrap().ping().expect("a new connection");
    server.shutdown();
}

#[test]
fn trace_ids_propagate_publisher_to_subscriber() {
    let server = BrokerServer::start(BrokerConfig::default(), "127.0.0.1:0").expect("bind");
    let client = RemoteBroker::connect(server.local_addr()).unwrap();
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
    // every message's chain is kept, and deliveries flushed to a client
    // gain a fifth wire_flush span recorded by the writer thread.
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
