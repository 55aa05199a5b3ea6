//! What a subscriber sees when the stream goes wrong. The connection's
//! reader decodes each delivery frame as it reads it, so a frame that does
//! not decode ends the connection when the reader *reaches* it — everything
//! routed before it is delivered first — and a stream that merely arrives
//! in pieces loses nothing. The peer is a
//! scripted socket; nothing is timed beyond the guard on each test.

use rjms_broker::Message;
use rjms_net::client::{RemoteBroker, RemoteSubscriber};
use rjms_net::error::Error;
use rjms_net::wire::{
    decode_request, encode_response, read_frame, Request, Response, WireFilter, WireMessage,
};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc;
use std::time::Duration;

/// Runs `test` on a thread of its own and fails when it is not done within
/// five seconds: a hang is what most of these faults used to risk.
fn guarded(test: impl FnOnce() + Send + 'static) {
    let (done_tx, done_rx) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        test();
        let _ = done_tx.send(());
    });
    match done_rx.recv_timeout(Duration::from_secs(5)) {
        Ok(()) => runner.join().unwrap(),
        // The test thread panicked: pass its message on.
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(runner.join().unwrap_err())
        }
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("still running after 5 s"),
    }
}

/// A peer that accepts one connection, answers the subscribe of
/// subscription 1 with `Ok`, lets `script` write what it likes, and then
/// reads until the client closes.
fn scripted_peer(script: impl FnOnce(&mut TcpStream) + Send + 'static) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        stream.set_nodelay(true).unwrap();
        let request = read_frame(&mut stream).unwrap().expect("a request");
        let Request::Subscribe { request_id, .. } = decode_request(request).unwrap() else {
            panic!("not a subscribe")
        };
        stream.write_all(&encode_response(&Response::Ok { request_id })).unwrap();
        script(&mut stream);
        let _ = stream.read_to_end(&mut Vec::new());
    });
    addr
}

fn connect(addr: SocketAddr) -> (RemoteBroker, RemoteSubscriber) {
    let client = RemoteBroker::connect(addr).unwrap();
    let subscriber = client.subscribe("t", WireFilter::None).unwrap();
    assert_eq!(subscriber.id(), 1);
    (client, subscriber)
}

/// The `seq`-th good delivery for subscription 1: one property under the
/// key `kkkk`, a body of `seq` bytes.
fn delivery(seq: u8) -> Vec<u8> {
    let message = Message::builder()
        .correlation_id(format!("#{seq}"))
        .property("kkkk", i64::from(seq))
        .body(vec![seq; usize::from(seq)])
        .build();
    let message = WireMessage::from_message(&message);
    encode_response(&Response::Delivery { subscription_id: 1, message }).to_vec()
}

/// A frame around `body`.
fn frame(body: &[u8]) -> Vec<u8> {
    [&(body.len() as u32).to_le_bytes()[..], body].concat()
}

fn assert_good(message: &Message, seq: u8) {
    assert_eq!(message.correlation_id(), Some(format!("#{seq}").as_str()));
    assert_eq!(message.properties().len(), 1);
    assert_eq!(message.body().len(), usize::from(seq));
}

/// Three good deliveries, then `bad`: the three arrive in order, the call
/// that reaches `bad` fails as on a closed connection, and the connection
/// *is* closed — for publishers too, and for good.
fn three_good_then(bad: Vec<u8>) {
    guarded(move || {
        let addr = scripted_peer(move |stream| {
            let good: Vec<u8> = (1..=3).flat_map(delivery).collect();
            // Behind the bad frame, one that would decode: it is never seen.
            stream.write_all(&[good, bad, delivery(5)].concat()).unwrap();
        });
        let (client, subscriber) = connect(addr);
        for seq in 1..=3 {
            assert_good(&subscriber.receive().expect("a good delivery"), seq);
        }
        assert!(matches!(subscriber.receive(), Err(Error::Closed)));
        assert!(matches!(subscriber.receive(), Err(Error::Closed)), "it stays closed");
        assert!(subscriber.try_receive().is_none());
        assert!(subscriber.receive_timeout(Duration::from_millis(1)).is_none());
        let message = Message::builder().build();
        assert!(matches!(client.publish("t", &message), Err(Error::Closed)));
        drop(subscriber);
        drop(client); // joins the reader, which the shutdown has ended
    });
}

#[test]
fn invalid_utf8_in_a_property_key_closes_when_reached() {
    let mut bad = delivery(4);
    let key = bad.windows(4).position(|w| w == b"kkkk").expect("the key");
    bad[key] = 0xFF;
    three_good_then(bad);
}

#[test]
fn a_trailing_byte_closes_when_reached() {
    let good = delivery(4);
    three_good_then(frame(&[&good[4..], &[0xAA]].concat()));
}

#[test]
fn a_routable_frame_too_short_to_decode_closes_when_reached() {
    // Opcode, an id count of 1 and subscription id 1, nothing behind them.
    three_good_then(frame(&[0x85, 1, 0, 0, 0, 1, 0, 0, 0]));
}

#[test]
fn a_delivery_that_cannot_be_routed_closes_in_the_reader() {
    // A count cut short, an id list longer than the frame, no id at all.
    let unroutable: [&[u8]; 3] =
        [&[0x85, 1, 0], &[0x85, 2, 0, 0, 0, 1, 0, 0, 0], &[0x85, 0, 0, 0, 0, 1, 0, 0, 0]];
    for bad in unroutable {
        let bad = frame(bad);
        guarded(move || {
            let addr = scripted_peer(move |stream| {
                stream.write_all(&[delivery(1), bad].concat()).unwrap();
            });
            let (client, subscriber) = connect(addr);
            // What the reader held when it met the frame is still handed over.
            assert_good(&subscriber.receive().expect("the good delivery"), 1);
            assert!(matches!(subscriber.receive(), Err(Error::Closed)));
            assert!(matches!(client.ping(), Err(Error::Closed)));
        });
    }
}

#[test]
fn a_peer_gone_mid_frame_leaves_the_queued_deliveries() {
    guarded(|| {
        let addr = scripted_peer(|stream| {
            let cut = delivery(4);
            let sent = [delivery(1), delivery(2), delivery(3), cut[..cut.len() / 2].to_vec()];
            stream.write_all(&sent.concat()).unwrap();
            stream.shutdown(Shutdown::Both).unwrap();
        });
        let (client, subscriber) = connect(addr);
        for seq in 1..=3 {
            assert_good(&subscriber.receive().expect("a queued delivery"), seq);
        }
        assert!(matches!(subscriber.receive(), Err(Error::Closed)));
        assert!(matches!(client.ping(), Err(Error::Closed)));
    });
}

#[test]
fn a_stream_trickling_in_byte_by_byte_loses_nothing() {
    guarded(|| {
        let addr = scripted_peer(|stream| {
            for byte in (1..=6).flat_map(delivery) {
                stream.write_all(&[byte]).unwrap();
            }
        });
        let (_client, subscriber) = connect(addr);
        for seq in 1..=6 {
            assert_good(&subscriber.receive().expect("a delivery"), seq);
        }
        assert!(subscriber.try_receive().is_none());
    });
}
