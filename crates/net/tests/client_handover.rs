//! Counted work on the client's delivery path: the reader hands delivery
//! frames to a subscriber once per subscription per socket `read`, not once
//! per frame. The reads are scripted — `RemoteBroker::over` takes the
//! reader — so the count is exact: nothing here depends on how a socket
//! would have cut the stream up, and nothing is timed beyond a 5 s guard.

use rjms_net::client::{RemoteBroker, RemoteSubscriber};
use rjms_net::wire::{
    decode_request, encode_response, read_frame, Request, Response, WireFilter, WireMessage,
    WireTrace,
};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::time::Duration;

/// How long a thread that must wake may take before the test fails instead of hanging.
const GUARD: Duration = Duration::from_secs(5);

/// The client's read side: every `read` returns the next piece the test
/// sent, waiting for it; EOF once the test has dropped the sender.
struct Scripted(mpsc::Receiver<Vec<u8>>);

impl std::io::Read for Scripted {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let Ok(piece) = self.0.recv() else { return Ok(0) };
        assert!(piece.len() <= buf.len(), "a scripted read must fit the reader's buffer");
        buf[..piece.len()].copy_from_slice(&piece);
        Ok(piece.len())
    }
}

/// A client whose reads the returned sender scripts, with `subscriptions`
/// subscriptions (ids 1, 2, …). Its requests go to the returned socket: the
/// subscribes have been read from it and answered, each `Ok` in a read of
/// its own.
fn scripted_client(
    subscriptions: u32,
) -> (RemoteBroker, Vec<RemoteSubscriber>, mpsc::Sender<Vec<u8>>, TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let (mut peer, _) = listener.accept().unwrap();
    let (reads, pieces) = mpsc::channel();
    let replies = reads.clone();
    // A reply is read only after its request was written, as on a socket:
    // the call is registered by then.
    let responder = std::thread::spawn(move || {
        for _ in 0..subscriptions {
            let request = read_frame(&mut peer).unwrap().expect("a request");
            let Request::Subscribe { request_id, .. } = decode_request(request).unwrap() else {
                panic!("not a subscribe")
            };
            replies.send(encode_response(&Response::Ok { request_id }).to_vec()).unwrap();
        }
        peer
    });
    let client = RemoteBroker::over(Scripted(pieces), stream);
    let subscribers: Vec<_> =
        (0..subscriptions).map(|_| client.subscribe("t", WireFilter::None).unwrap()).collect();
    assert!(subscribers.iter().map(RemoteSubscriber::id).eq(1..=subscriptions));
    (client, subscribers, reads, responder.join().unwrap())
}

/// The `seq`-th delivery frame of the script, for `subscription_id`.
fn delivery(subscription_id: u32, seq: usize) -> Vec<u8> {
    let message = WireMessage {
        correlation_id: Some(format!("#{seq}")),
        message_type: None,
        priority: 4,
        reply_to: None,
        ttl_millis: None,
        properties: vec![("seq".to_owned(), rjms_selector::Value::Int(seq as i64))],
        body: vec![seq as u8; seq % 40].into(),
        trace: WireTrace { trace_id: seq as u64 + 1, origin_ns: 7 },
    };
    encode_response(&Response::Delivery { subscription_id, message }).to_vec()
}

/// What is left on `subscriber` once the connection has closed, as
/// `(correlation id, body length)`.
fn drain(subscriber: &RemoteSubscriber) -> Vec<(String, usize)> {
    let received = std::iter::from_fn(|| subscriber.receive().ok());
    received.map(|m| (m.correlation_id().unwrap().to_owned(), m.body().len())).collect()
}

/// `(hand-overs, frames handed over)` so far.
fn handed_over(client: &RemoteBroker) -> (u64, u64) {
    let snapshot = client.metrics().snapshot();
    snapshot.histogram("net.client.batch_frames").map_or((0, 0), |h| (h.count, h.sum))
}

#[test]
fn hand_overs_are_one_per_subscription_per_read() {
    // 40 frames for three subscriptions, in runs of uneven length.
    const FRAMES: usize = 40;
    let subscription_of = |seq: usize| [1, 2, 3, 1, 1, 2, 3, 3, 3, 2, 1][seq % 11];
    let frames: Vec<Vec<u8>> = (0..FRAMES).map(|seq| delivery(subscription_of(seq), seq)).collect();
    let stream = frames.concat();
    // The offset behind each frame: a frame is complete in the read that
    // brings its last byte.
    let ends: Vec<usize> = frames
        .iter()
        .scan(0, |end, frame| {
            *end += frame.len();
            Some(*end)
        })
        .collect();

    // Everything in one read, a frame per read, a byte per read, and cuts
    // that fall anywhere.
    let per_frame: Vec<usize> = frames.iter().map(Vec::len).collect();
    let scripts: [(&str, &[usize]); 4] = [
        ("one read", &[usize::MAX]),
        ("a frame per read", &per_frame),
        ("a byte per read", &[1]),
        ("uneven reads", &[5, 211, 64, 1, 777, 30]),
    ];
    for (name, sizes) in scripts {
        let (client, subscribers, reads, _peer) = scripted_client(3);
        assert_eq!(handed_over(&client), (0, 0), "{name}: replies are not handed over");
        let (mut at, mut expected_hand_overs) = (0usize, 0u64);
        for size in sizes.iter().cycle() {
            let to = stream.len().min(at.saturating_add(*size));
            let mut completed: Vec<u32> = (0..FRAMES)
                .filter(|seq| at < ends[*seq] && ends[*seq] <= to)
                .map(subscription_of)
                .collect();
            completed.sort_unstable();
            completed.dedup();
            expected_hand_overs += completed.len() as u64;
            reads.send(stream[at..to].to_vec()).unwrap();
            at = to;
            if at == stream.len() {
                break;
            }
        }
        // EOF at a frame boundary: the reader hands over what it holds and
        // closes, and each subscriber drains to `Closed`.
        drop(reads);
        for subscriber in &subscribers {
            let expected: Vec<_> = (0..FRAMES)
                .filter(|seq| subscription_of(*seq) == subscriber.id())
                .map(|seq| (format!("#{seq}"), seq % 40))
                .collect();
            assert_eq!(drain(subscriber), expected, "{name}: subscription {}", subscriber.id());
        }
        assert_eq!(handed_over(&client), (expected_hand_overs, FRAMES as u64), "{name}");
        match name {
            "one read" => assert_eq!(expected_hand_overs, 3),
            "uneven reads" => assert!((3..FRAMES as u64).contains(&expected_hand_overs)),
            // What every script cost before: a send and a lock per frame.
            _ => assert_eq!(expected_hand_overs, FRAMES as u64),
        }
    }
}

#[test]
fn a_reply_follows_the_deliveries_that_preceded_it_on_the_wire() {
    let (client, subscribers, reads, mut peer) = scripted_client(3);
    std::thread::scope(|scope| {
        let ping = scope.spawn(|| client.ping());
        // Once the request is on the wire, its reply may be read.
        let request = read_frame(&mut peer).unwrap().expect("the ping");
        let Request::Ping { request_id } = decode_request(request).unwrap() else {
            panic!("not a ping")
        };
        let pong = encode_response(&Response::Pong { request_id }).to_vec();
        reads.send([delivery(1, 0), delivery(2, 1), pong, delivery(1, 2)].concat()).unwrap();
        ping.join().unwrap().expect("the pong reached the call");
    });
    // A ping is a barrier: what the wire had before the pong needs no waiting for.
    let next = |subscriber: &RemoteSubscriber| {
        subscriber.try_receive().map(|m| m.correlation_id().unwrap().to_owned())
    };
    assert_eq!(next(&subscribers[0]).as_deref(), Some("#0"));
    assert_eq!(next(&subscribers[1]).as_deref(), Some("#1"));
    drop(reads);
    assert_eq!(drain(&subscribers[0]), [("#2".to_owned(), 2)]);
    assert_eq!(drain(&subscribers[1]), []);
    assert_eq!(drain(&subscribers[2]), []);
    // One read: two subscriptions with frames before the reply, one behind it.
    assert_eq!(handed_over(&client), (3, 3));
}

#[test]
fn threads_sharing_a_subscriber_all_wake_for_one_hand_over() {
    let (client, subscribers, reads, _peer) = scripted_client(1);
    let subscriber = &subscribers[0];
    let (done, results) = mpsc::channel();
    std::thread::scope(|scope| {
        for _ in 0..2 {
            let done = done.clone();
            scope.spawn(move || {
                let received = subscriber.receive();
                done.send(received.map(|m| m.correlation_id().unwrap().to_owned()))
            });
        }
        // Lets both park, one waiting for frames and one for its turn. The
        // outcome does not depend on it; a lost wake-up would need it to show.
        std::thread::sleep(Duration::from_millis(50));
        let idle = subscriber.try_receive().is_none();
        reads.send([delivery(1, 0), delivery(1, 1)].concat()).unwrap();
        let woken: Vec<_> = (0..2).map(|_| results.recv_timeout(GUARD)).collect();
        // Whatever happened, nobody stays parked: EOF closes the connection.
        drop(reads);
        assert!(idle, "`try_receive` found nothing, and did not wait for a turn to say so");
        let mut received: Vec<String> = woken
            .into_iter()
            .map(|woke| woke.expect("both woke for the one hand-over").expect("with a message"))
            .collect();
        received.sort();
        assert_eq!(received, ["#0", "#1"]);
    });
    assert_eq!(handed_over(&client), (1, 2));
}
