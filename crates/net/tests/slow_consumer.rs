//! A TCP consumer that stops reading, or dies, is an in-process consumer
//! that does: its bounded subscriber queues fill, the broker's overflow
//! policy applies, server memory stays bounded, nothing wedges, and a
//! durable subscription keeps what the server had not written.

use bytes::Bytes;
use rjms_broker::{BrokerConfig, Message, OverflowPolicy, Publisher, TryPublishError};
use rjms_net::client::RemoteBroker;
use rjms_net::server::BrokerServer;
use rjms_net::wire::{
    decode_response, encode_request, read_frame, Request, Response, WireFilter, WireMessage,
};
use std::io::Write;
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

const QUEUE_CAPACITY: usize = 16;
const BODY_LEN: usize = 64 * 1024;

/// A client on a raw socket that reads only when told to.
struct RawClient {
    stream: TcpStream,
    requests: u32,
}

impl RawClient {
    fn connect(server: &BrokerServer) -> RawClient {
        RawClient { stream: TcpStream::connect(server.local_addr()).expect("connect"), requests: 0 }
    }

    /// Sends the request `make` builds for the next request id and reads
    /// its `Ok`; nothing else has been asked for yet, so it is the next
    /// frame.
    fn call(&mut self, make: impl FnOnce(u32) -> Request) {
        self.requests += 1;
        self.stream.write_all(&encode_request(&make(self.requests))).expect("write request");
        let reply = read_frame(&mut self.stream).expect("read reply").expect("connection open");
        let expected = Response::Ok { request_id: self.requests };
        assert_eq!(decode_response(reply).expect("decodable"), expected);
    }

    fn subscribe(&mut self, subscription_id: u32, topic: &str) {
        self.call(|request_id| Request::Subscribe {
            request_id,
            subscription_id,
            topic: topic.to_owned(),
            filter: WireFilter::None,
        });
    }

    /// Reads deliveries until one carries `seq`.
    fn read_until(&mut self, seq: i64) {
        loop {
            let frame = read_frame(&mut self.stream).expect("read delivery").expect("open");
            let Response::Delivery { message, .. } = decode_response(frame).expect("decodable")
            else {
                panic!("only deliveries are outstanding");
            };
            if message.into_message().property("seq") == Some(&seq.into()) {
                return;
            }
        }
    }
}

fn server(policy: OverflowPolicy) -> BrokerServer {
    let config = BrokerConfig::builder()
        .overflow_policy(policy)
        .subscriber_queue_capacity(QUEUE_CAPACITY)
        .publish_queue_capacity(8)
        .build();
    let server = BrokerServer::start(config, "127.0.0.1:0").expect("bind");
    server.broker().create_topic("t").unwrap();
    server
}

fn message(seq: i64, body: &Bytes) -> Message {
    Message::builder().property("seq", seq).body(body.clone()).build()
}

/// Publishes until the publish queue has stayed full for 100 ms, which it
/// only does behind a dispatcher that waits; returns the next `seq`.
/// Panics if that takes more than 2 s.
fn publish_until_pushed_back(publisher: &Publisher, body: &Bytes, mut seq: i64) -> i64 {
    let started = Instant::now();
    let mut full_since = None;
    loop {
        match publisher.try_publish(message(seq, body)) {
            Ok(()) => (seq, full_since) = (seq + 1, None),
            Err(TryPublishError::Full(_)) => {
                if full_since.get_or_insert_with(Instant::now).elapsed()
                    > Duration::from_millis(100)
                {
                    return seq;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(other) => panic!("unexpected {other:?}"),
        }
        assert!(started.elapsed() < Duration::from_secs(2), "no push-back after {seq} messages");
    }
}

/// Runs `work` on a thread and panics unless it is done within `limit`.
fn within<T: Send + 'static>(
    limit: Duration,
    what: &str,
    work: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || done_tx.send(work()));
    done_rx.recv_timeout(limit).unwrap_or_else(|_| panic!("{what} took more than {limit:?}"))
}

#[test]
fn drop_new_drops_for_a_stalled_client_and_its_queue_depth_stays_bounded() {
    let server = server(OverflowPolicy::DropNew);
    let mut client = RawClient::connect(&server);
    client.subscribe(1, "t");
    client.subscribe(2, "t");

    // 2 × 4 000 copies of 64 KiB against socket buffers of a few MiB: the
    // writer stalls, both queues fill and the rest is dropped.
    let publisher = server.broker().publisher("t").unwrap();
    let body = Bytes::from(vec![7u8; BODY_LEN]);
    let mut deepest = 0;
    for seq in 0..4_000 {
        publisher.publish(message(seq, &body)).unwrap();
        let gauges = server.metrics().snapshot().gauges;
        deepest = deepest.max(gauges["net.conn.1.queue_depth"]);
    }
    // Two subscriptions' queues and the doorbell's token; every reply was
    // read before the first publish.
    assert!(deepest <= 2 * QUEUE_CAPACITY as i64 + 1, "queue depth reached {deepest}");
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.broker().snapshot().messages.dropped == 0 {
        assert!(Instant::now() < deadline, "nothing dropped: {:?}", server.broker().snapshot());
        std::thread::sleep(Duration::from_millis(5));
    }
    within(Duration::from_secs(5), "shutdown", move || server.shutdown());
}

#[test]
fn block_pushes_back_on_publishers_until_the_client_reads_again() {
    let server = server(OverflowPolicy::Block);
    let mut client = RawClient::connect(&server);
    client.subscribe(1, "t");

    let publisher = server.broker().publisher("t").unwrap();
    let body = Bytes::from(vec![7u8; BODY_LEN]);
    let stalled_at = publish_until_pushed_back(&publisher, &body, 0);
    assert_eq!(server.broker().snapshot().messages.dropped, 0);

    // The client reads again: everything published comes out, in order
    // (`read_until` would otherwise wait for ever), and publishing resumes.
    let reader = std::thread::spawn(move || {
        client.read_until(stalled_at + 99);
        client
    });
    within(Duration::from_secs(5), "publishing to a client that reads", move || {
        for seq in stalled_at..stalled_at + 100 {
            publisher.publish(message(seq, &body)).unwrap();
        }
    });
    let _client = within(Duration::from_secs(5), "reading it all", move || reader.join().unwrap());
    server.shutdown();
}

#[test]
fn shutdown_returns_and_frees_the_dispatcher_while_a_client_is_stalled() {
    let server = server(OverflowPolicy::Block);
    let mut client = RawClient::connect(&server);
    client.subscribe(1, "t");
    let publisher = server.broker().publisher("t").unwrap();
    let body = Bytes::from(vec![7u8; BODY_LEN]);
    let seq = publish_until_pushed_back(&publisher, &body, 0);
    // The stalled client publishes, too, as fast as its socket takes it:
    // its connection's reader ends up waiting on the publish queue, which
    // waits on the dispatcher, which waits on the connection's writer.
    let publish = encode_request(&Request::Publish {
        request_id: 9,
        topic: "t".into(),
        message: WireMessage::from_message(&message(seq, &body)),
    });
    let mut publishing = client.stream.try_clone().unwrap();
    let flood = std::thread::spawn(move || while publishing.write_all(&publish).is_ok() {});
    std::thread::sleep(Duration::from_millis(200));
    assert!(!flood.is_finished());

    within(Duration::from_secs(5), "shutdown", move || server.shutdown());
    // The connection is gone, and so is what the dispatcher waited on: the
    // publish queue drains (or the broker stops with its last connection).
    let deadline = Instant::now() + Duration::from_secs(5);
    while let Err(TryPublishError::Full(_)) = publisher.try_publish(message(seq, &body)) {
        assert!(Instant::now() < deadline, "the dispatcher still waits on the dead connection");
        std::thread::sleep(Duration::from_millis(5));
    }
    within(Duration::from_secs(5), "the client noticing", move || flood.join().unwrap());
}

/// The most bytes the kernel can hold between the server's `write` and a
/// client that does not read: the largest send buffer plus the largest
/// receive buffer TCP autotuning may grow a socket to.
#[cfg(target_os = "linux")]
fn socket_buffer_bound() -> usize {
    let largest = |file: &str| -> usize {
        let limits = std::fs::read_to_string(file).unwrap_or_else(|e| panic!("{file}: {e}"));
        limits.split_whitespace().last().and_then(|max| max.parse().ok()).expect("min default max")
    };
    largest("/proc/sys/net/ipv4/tcp_wmem") + largest("/proc/sys/net/ipv4/tcp_rmem")
}

#[cfg(target_os = "linux")]
#[test]
fn a_dead_connection_loses_no_durable_message_the_server_had_not_written() {
    let server = BrokerServer::start(BrokerConfig::default(), "127.0.0.1:0").expect("bind");
    server.broker().create_topic("t").unwrap();
    let mut client = RawClient::connect(&server);
    client.call(|request_id| Request::SubscribeDurable {
        request_id,
        subscription_id: 1,
        topic: "t".into(),
        name: "d".into(),
        filter: WireFilter::None,
    });

    // What can be lost is what the server wrote and the client never read:
    // at most the socket buffers' worth of frames. The batch in flight when
    // the socket dies is handed back whole; one frame of slack for it.
    let written_bound = (socket_buffer_bound() / BODY_LEN + 1) as i64;
    let published = 2 * written_bound;
    let publisher = server.broker().publisher("t").unwrap();
    let body = Bytes::from(vec![7u8; BODY_LEN]);
    for seq in 0..published {
        publisher.publish(message(seq, &body)).unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.broker().snapshot().messages.dispatched < published as u64 {
        assert!(Instant::now() < deadline, "not dispatched");
        std::thread::sleep(Duration::from_millis(5));
    }
    // Let whatever runs behind the dispatcher take what it will take.
    std::thread::sleep(Duration::from_millis(200));
    drop(client);
    while server.broker().durable_connected("t", "d") {
        assert!(Instant::now() < deadline, "the dead connection keeps the subscription");
        std::thread::sleep(Duration::from_millis(5));
    }

    let client = RemoteBroker::connect(server.local_addr()).unwrap();
    let subscriber = client.subscribe_durable("t", "d", WireFilter::None).unwrap();
    let first = subscriber.receive_timeout(Duration::from_secs(5)).expect("nothing was retained");
    let Some(&rjms_selector::Value::Int(first)) = first.property("seq") else { panic!("no seq") };
    println!("seq 0..{first} of {published} were written, {written_bound} fit the socket buffers");
    assert!(first <= written_bound, "seq 0..{first} are lost, {written_bound} fit the socket");
    for seq in first + 1..published {
        let message = subscriber.receive_timeout(Duration::from_secs(5)).expect("retained message");
        assert_eq!(message.property("seq"), Some(&seq.into()));
    }
    server.shutdown();
}
