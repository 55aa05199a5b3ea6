//! End-to-end tests over real TCP sockets (localhost, ephemeral ports).

use rjms_broker::{BrokerConfig, Message};
use rjms_net::client::RemoteBroker;
use rjms_net::error::Error;
use rjms_net::server::BrokerServer;
use rjms_net::wire::{
    decode_response, encode_request, read_frame, Request, Response, WireFilter, WireMessage,
    MAX_FRAME_LEN,
};
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn server() -> BrokerServer {
    BrokerServer::start(BrokerConfig::default(), "127.0.0.1:0").expect("bind")
}

#[test]
fn publish_subscribe_over_tcp() {
    let server = server();
    let client = RemoteBroker::connect(server.local_addr()).unwrap();
    client.create_topic("t").unwrap();

    let sub = client.subscribe("t", WireFilter::None).unwrap();
    client.publish("t", &Message::builder().property("k", 7i64).body(&b"abc"[..]).build()).unwrap();

    let m = sub.receive_timeout(Duration::from_secs(5)).expect("delivery");
    assert_eq!(m.property("k"), Some(&7i64.into()));
    assert_eq!(m.body().as_ref(), b"abc");
    server.shutdown();
}

#[test]
fn selector_filtering_happens_server_side() {
    let server = server();
    let client = RemoteBroker::connect(server.local_addr()).unwrap();
    client.create_topic("t").unwrap();

    let reds = client.subscribe("t", WireFilter::Selector("color = 'red'".into())).unwrap();
    client.publish("t", &Message::builder().property("color", "blue").build()).unwrap();
    client.publish("t", &Message::builder().property("color", "red").build()).unwrap();

    let m = reds.receive_timeout(Duration::from_secs(5)).expect("red message");
    assert_eq!(m.property("color"), Some(&"red".into()));
    assert!(reds.receive_timeout(Duration::from_millis(100)).is_none());
    // The server-side broker saw both messages but dispatched one copy.
    let messages = server.broker().snapshot().messages;
    assert_eq!(messages.received, 2);
    assert_eq!(messages.dispatched, 1);
    server.shutdown();
}

#[test]
fn correlation_filters_and_patterns_over_tcp() {
    let server = server();
    let client = RemoteBroker::connect(server.local_addr()).unwrap();
    client.create_topic("sensors.kitchen").unwrap();

    let range =
        client.subscribe("sensors.kitchen", WireFilter::CorrelationId("[5;9]".into())).unwrap();
    let wild = client.subscribe_pattern("sensors.>", WireFilter::None).unwrap();

    // A topic created after the pattern subscription.
    client.create_topic("sensors.lab").unwrap();
    client.publish("sensors.kitchen", &Message::builder().correlation_id("#7").build()).unwrap();
    client.publish("sensors.lab", &Message::builder().correlation_id("#42").build()).unwrap();

    let m = range.receive_timeout(Duration::from_secs(5)).expect("range hit");
    assert_eq!(m.correlation_id(), Some("#7"));
    assert!(range.receive_timeout(Duration::from_millis(100)).is_none());

    // The wildcard sees both.
    assert!(wild.receive_timeout(Duration::from_secs(5)).is_some());
    assert!(wild.receive_timeout(Duration::from_secs(5)).is_some());
    server.shutdown();
}

#[test]
fn errors_propagate_to_the_client() {
    let server = server();
    let client = RemoteBroker::connect(server.local_addr()).unwrap();
    client.create_topic("t").unwrap();

    // Duplicate topic.
    match client.create_topic("t") {
        Err(Error::Remote { message }) => assert!(message.contains("already exists")),
        other => panic!("expected remote error, got {other:?}"),
    }
    // Unknown topic.
    assert!(matches!(
        client.publish("nope", &Message::builder().build()),
        Err(Error::Remote { .. })
    ));
    // Invalid selector.
    assert!(matches!(
        client.subscribe("t", WireFilter::Selector("((broken".into())),
        Err(Error::Remote { .. })
    ));
    // Invalid pattern.
    assert!(matches!(
        client.subscribe_pattern("a..b", WireFilter::None),
        Err(Error::Remote { .. })
    ));
    // The connection survives all of these.
    client.ping().unwrap();
    server.shutdown();
}

#[test]
fn two_clients_share_the_broker() {
    let server = server();
    let producer = RemoteBroker::connect(server.local_addr()).unwrap();
    let consumer = RemoteBroker::connect(server.local_addr()).unwrap();
    producer.create_topic("t").unwrap();

    let sub = consumer.subscribe("t", WireFilter::None).unwrap();
    for i in 0..50i64 {
        producer.publish("t", &Message::builder().property("seq", i).build()).unwrap();
    }
    for i in 0..50i64 {
        let m = sub.receive_timeout(Duration::from_secs(5)).expect("delivery");
        assert_eq!(m.property("seq"), Some(&i.into()), "cross-client FIFO broken");
    }
    server.shutdown();
}

#[test]
fn ttl_survives_the_wire() {
    let server = server();
    let client = RemoteBroker::connect(server.local_addr()).unwrap();
    client.create_topic("t").unwrap();
    let sub = client.subscribe("t", WireFilter::None).unwrap();

    // Already-expired message never arrives; fresh one does.
    client.publish("t", &Message::builder().time_to_live(Duration::ZERO).build()).unwrap();
    client.publish("t", &Message::builder().time_to_live(Duration::from_secs(60)).build()).unwrap();
    let m = sub.receive_timeout(Duration::from_secs(5)).expect("fresh message");
    assert!(m.expiration_millis().is_some());
    assert!(sub.receive_timeout(Duration::from_millis(100)).is_none());
    server.shutdown();
}

#[test]
fn the_largest_ttl_a_frame_can_carry_is_delivered_and_the_connection_stays_up() {
    let server = server();
    let client = RemoteBroker::connect(server.local_addr()).unwrap();
    client.create_topic("t").unwrap();
    let sub = client.subscribe("t", WireFilter::None).unwrap();

    // On a raw socket, so that no client-side conversion touches the TTL.
    let mut message = WireMessage::from_message(&Message::builder().property("k", 1i64).build());
    message.ttl_millis = Some(u64::MAX);
    let publish = encode_request(&Request::Publish { request_id: 1, topic: "t".into(), message });
    let ping = encode_request(&Request::Ping { request_id: 2 });
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    stream.write_all(&[&publish[..], &ping[..]].concat()).expect("send");
    for expected in [Response::Ok { request_id: 1 }, Response::Pong { request_id: 2 }] {
        let frame = read_frame(&mut stream).expect("read").expect("the connection is up");
        assert_eq!(decode_response(frame).unwrap(), expected);
    }

    let m = sub.receive_timeout(Duration::from_secs(5)).expect("delivered, not expired");
    assert_eq!(m.property("k"), Some(&1i64.into()));
    assert!(m.expiration_millis().is_some_and(|e| e > m.timestamp_millis()));
    server.shutdown();
}

#[test]
fn dropping_client_cleans_up_server_side_subscriptions() {
    let server = server();
    server.broker().create_topic("t").unwrap();
    {
        let client = RemoteBroker::connect(server.local_addr()).unwrap();
        let _sub = client.subscribe("t", WireFilter::None).unwrap();
        // Wait until the server registered the subscription.
        for _ in 0..100 {
            if server.broker().subscription_count("t") == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(server.broker().subscription_count("t"), 1);
    } // client drops: connection closes, its writer releases the subscriptions

    for _ in 0..200 {
        if server.broker().subscription_count("t") == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(server.broker().subscription_count("t"), 0);
    server.shutdown();
}

#[test]
fn requests_after_server_shutdown_fail_cleanly() {
    let server = server();
    let addr = server.local_addr();
    let client = RemoteBroker::connect(addr).unwrap();
    client.create_topic("t").unwrap();
    server.shutdown();
    // The next call errors (io/closed/timeout — anything but success or hang).
    let started = std::time::Instant::now();
    let result = client.create_topic("t2");
    assert!(result.is_err(), "got {result:?}");
    assert!(started.elapsed() < Duration::from_secs(15));
}

#[test]
fn large_message_roundtrip() {
    let server = server();
    let client = RemoteBroker::connect(server.local_addr()).unwrap();
    client.create_topic("t").unwrap();
    let sub = client.subscribe("t", WireFilter::None).unwrap();

    let body: Vec<u8> = (0..1_000_000u32).map(|i| (i % 251) as u8).collect();
    client.publish("t", &Message::builder().body(body.clone()).build()).unwrap();
    let m = sub.receive_timeout(Duration::from_secs(10)).expect("large delivery");
    assert_eq!(m.body().as_ref(), body.as_slice());
    server.shutdown();
}

#[test]
fn reply_to_survives_the_wire() {
    let server = server();
    let client = RemoteBroker::connect(server.local_addr()).unwrap();
    client.create_topic("t").unwrap();
    let local = server.broker().subscription("t").open().unwrap();
    let remote = client.subscribe("t", WireFilter::None).unwrap();

    client.publish("t", &Message::builder().reply_to("replies").build()).unwrap();
    let m = local.receive_timeout(Duration::from_secs(5)).expect("in-process delivery");
    assert_eq!(m.reply_to(), Some("replies"));
    let m = remote.receive_timeout(Duration::from_secs(5)).expect("remote delivery");
    assert_eq!(m.reply_to(), Some("replies"));
    server.shutdown();
}

#[test]
fn an_oversized_publish_fails_and_the_connection_stays_up() {
    let server = server();
    let client = RemoteBroker::connect(server.local_addr()).unwrap();
    client.create_topic("t").unwrap();
    let sub = client.subscribe("t", WireFilter::None).unwrap();

    // A frame the server would refuse by ending the connection.
    let huge = Message::builder().body(vec![0u8; MAX_FRAME_LEN + 1]).build();
    match client.publish("t", &huge) {
        Err(Error::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput, "{e}"),
        other => panic!("expected an InvalidInput error, got {other:?}"),
    }
    client.ping().expect("the connection survives the refusal");
    client.publish("t", &Message::builder().property("seq", 1i64).build()).unwrap();
    let m = sub.receive_timeout(Duration::from_secs(5)).expect("the subscription survives too");
    assert_eq!(m.property("seq"), Some(&1i64.into()));
    server.shutdown();
}

#[test]
fn an_oversized_delivery_is_left_out_and_counted_and_the_connection_stays_up() {
    let server = server();
    let client = RemoteBroker::connect(server.local_addr()).unwrap();
    client.create_topic("t").unwrap();
    let sub = client.subscribe("t", WireFilter::None).unwrap();

    // In process, where no frame limit applies on the way in: a frame the
    // client would refuse by ending the connection, then a small one.
    let publisher = server.broker().publisher("t").unwrap();
    publisher.publish(Message::builder().body(vec![0u8; MAX_FRAME_LEN + 1]).build()).unwrap();
    publisher.publish(Message::builder().body(vec![1u8; 8]).build()).unwrap();
    let m = sub.receive_timeout(Duration::from_secs(5)).expect("the small message arrives");
    assert_eq!(m.body().as_ref(), [1u8; 8]);
    client.ping().expect("the connection is up");
    assert!(sub.try_receive().is_none());
    assert_eq!(server.metrics().snapshot().counters["net.writer.oversized"], 1);
    server.shutdown();
}

#[test]
fn ping_pong() {
    let server = server();
    let client = RemoteBroker::connect(server.local_addr()).unwrap();
    for _ in 0..10 {
        client.ping().unwrap();
    }
    server.shutdown();
}

#[test]
fn durable_subscription_over_tcp() {
    let server = server();
    let client = RemoteBroker::connect(server.local_addr()).unwrap();
    client.create_topic("jobs").unwrap();

    // Connect, receive one live message, disconnect.
    {
        let worker = client.subscribe_durable("jobs", "worker-1", WireFilter::None).unwrap();
        client.publish("jobs", &Message::builder().property("seq", 0i64).build()).unwrap();
        let m = worker.receive_timeout(Duration::from_secs(5)).expect("live delivery");
        assert_eq!(m.property("seq"), Some(&0i64.into()));
        // A second consumer under the same name is rejected.
        assert!(matches!(
            client.subscribe_durable("jobs", "worker-1", WireFilter::None),
            Err(Error::Remote { .. })
        ));
    }
    // Close the whole connection, too, and check retention by publishing
    // from a second one while the subscription is offline. The server
    // notices a closed connection on its own time.
    drop(client);
    let client2 = RemoteBroker::connect(server.local_addr()).unwrap();
    for _ in 0..200 {
        if !server.broker().durable_connected("jobs", "worker-1") {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(!server.broker().durable_connected("jobs", "worker-1"));
    client2.publish("jobs", &Message::builder().property("seq", 1i64).build()).unwrap();
    client2.publish("jobs", &Message::builder().property("seq", 2i64).build()).unwrap();
    for _ in 0..100 {
        if server.broker().retained_count("jobs", "worker-1") == 2 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    // Reconnect: the backlog arrives first, in order.
    let worker = client2.subscribe_durable("jobs", "worker-1", WireFilter::None).unwrap();
    for seq in 1..=2i64 {
        let m = worker.receive_timeout(Duration::from_secs(5)).expect("retained delivery");
        assert_eq!(m.property("seq"), Some(&seq.into()));
    }

    // Clean up: disconnect, then remove the durable subscription remotely.
    // The server handles a connection's requests in order and releases the
    // subscription while it handles the unsubscribe: no waiting, no retry.
    drop(worker);
    client2.unsubscribe_durable("jobs", "worker-1").expect("released by the unsubscribe before it");
    assert!(server.broker().durable_names("jobs").is_empty());
    server.shutdown();
}

#[test]
fn wire_metrics_record_rtt_and_connections() {
    let server = server();
    let client = RemoteBroker::connect(server.local_addr()).unwrap();
    client.create_topic("t").unwrap();
    for _ in 0..8 {
        client.ping().unwrap();
    }
    let snap = client.metrics().snapshot();
    let rtt = snap.histogram("net.rtt_ns").expect("round-trips recorded");
    assert_eq!(rtt.count, 9); // create_topic + 8 pings
    assert!(rtt.min > 0);
    assert_eq!(snap.counters["net.requests"], 9);

    let server_snap = server.metrics().snapshot();
    assert_eq!(server_snap.gauges["net.connections.active"], 1);
    assert!(server_snap.gauges.keys().any(|k| k.ends_with(".queue_depth")));
    // Nine synchronous requests, nine replies: each was a write of one frame.
    let batches = server_snap.histogram("net.writer.batch_frames").expect("writes recorded");
    assert_eq!((batches.count, batches.sum), (9, 9));

    // Connection teardown returns the gauge to zero.
    drop(client);
    for _ in 0..200 {
        if server.metrics().snapshot().gauges["net.connections.active"] == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(server.metrics().snapshot().gauges["net.connections.active"], 0);
    server.shutdown();
}

/// Only live connections have a backlog gauge: connection churn does not
/// grow the server's registry.
#[test]
fn a_closed_connection_leaves_no_queue_depth_gauge() {
    let server = server();
    for _ in 0..20 {
        let client = RemoteBroker::connect(server.local_addr()).unwrap();
        client.ping().unwrap();
        drop(client);
    }
    let depth_gauges = |gauges: &std::collections::BTreeMap<String, i64>| {
        gauges.keys().filter(|k| k.starts_with("net.conn.")).count()
    };
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut gauges = server.metrics().snapshot().gauges;
    while (gauges["net.connections.active"] > 0 || depth_gauges(&gauges) > 0)
        && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(10));
        gauges = server.metrics().snapshot().gauges;
    }
    assert_eq!(gauges["net.connections.active"], 0);
    assert_eq!(depth_gauges(&gauges), 0, "{gauges:?}");
    server.shutdown();
}

#[test]
fn deliveries_in_flight_do_not_wait_for_a_delayed_ack() {
    // Closed loop on the delivery, four messages in flight, publisher and
    // subscriber on one connection: every message makes the server write
    // two small frames, the publish's Ok and the delivery. Written one by
    // one on a socket with Nagle on, the second waits for the ACK of the
    // first, which the client delays by tens of milliseconds because it
    // has nothing to send until that second frame arrives. One write per
    // batch on a TCP_NODELAY socket leaves nothing to wait for.
    let server = server();
    let client = RemoteBroker::connect(server.local_addr()).unwrap();
    client.create_topic("t").unwrap();
    let sub = client.subscribe("t", WireFilter::None).unwrap();

    let publish = || {
        let sent = Instant::now();
        client.publish("t", &Message::builder().body(&b"0123456789abcdef"[..]).build()).unwrap();
        sent
    };
    let mut sent: std::collections::VecDeque<Instant> = (0..4).map(|_| publish()).collect();
    let mut round_trips = Vec::with_capacity(500);
    for _ in 0..500 {
        sub.receive_timeout(Duration::from_secs(5)).expect("delivery");
        round_trips.push(sent.pop_front().expect("one per delivery").elapsed());
        sent.push_back(publish());
    }
    round_trips.sort();
    let median = round_trips[round_trips.len() / 2];
    assert!(median < Duration::from_millis(10), "median round trip {median:?}");
    server.shutdown();
}
