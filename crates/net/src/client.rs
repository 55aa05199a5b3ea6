//! The remote client: connect to a [`BrokerServer`](crate::server::BrokerServer)
//! over TCP and publish / subscribe as if the broker were local.
//!
//! Every request/response pair is timed into the client's
//! [`MetricsRegistry`] (histogram `net.rtt_ns`), so a measurement driver
//! can separate broker service time from wire round-trip time — the
//! network component the 2006 testbed deliberately kept off the critical
//! path with its Gbit links.

use crate::error::Error;
use crate::wire::{
    decode_response, delivery_subscriptions, encode_request, oversized, read_delivery, FrameReader,
    Request, Response, WireFilter, WireMessage, MAX_FRAME_LEN,
};
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use parking_lot::Mutex;
use rjms_broker::Message;
use rjms_metrics::{Counter, Histogram, MetricsRegistry};
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long [`RemoteBroker`] waits for a request's response.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);

/// What one read held for one subscription, in wire order, each message shared.
type Frames = VecDeque<Arc<Message>>;

/// Shared client state touched by the background reader and subscriber
/// handles.
struct ClientShared {
    /// The write half of the connection.
    stream: Mutex<TcpStream>,
    /// request id → one-shot response channel.
    pending: Mutex<HashMap<u32, Sender<Response>>>,
    /// subscription id → delivery channel, one send per read that held frames for it.
    subscriptions: Mutex<HashMap<u32, Sender<Frames>>>,
    closed: AtomicBool,
    #[cfg(test)]
    counts: tests::Counts,
}

/// Ends the connection from this side, once; the reader's exit wakes every caller.
fn shut_down(shared: &ClientShared) {
    if !shared.closed.swap(true, Ordering::Relaxed) {
        #[cfg(test)]
        shared.counts.shutdowns.fetch_add(1, Ordering::Relaxed);
        let _ = shared.stream.lock().shutdown(std::net::Shutdown::Both);
    }
}

/// A connection to a remote broker.
///
/// Cloneless by design: share it behind an `Arc` if multiple threads need
/// it (all methods take `&self`).
pub struct RemoteBroker {
    shared: Arc<ClientShared>,
    next_request_id: AtomicU32,
    next_subscription_id: AtomicU32,
    reader: Option<JoinHandle<()>>,
    metrics: MetricsRegistry,
    rtt: Arc<Histogram>,
    requests: Arc<Counter>,
}

impl std::fmt::Debug for RemoteBroker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteBroker")
            .field("closed", &self.shared.closed.load(Ordering::Relaxed))
            .finish()
    }
}

impl RemoteBroker {
    /// Connects to a broker server. Nothing is exchanged before the first
    /// request, and there is no publish window to open: a publish's reply
    /// is its push-back.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the connection fails.
    pub fn connect(addr: impl std::net::ToSocketAddrs) -> Result<RemoteBroker, Error> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Self::over(stream.try_clone()?, stream))
    }

    /// [`connect`](Self::connect) reading from `reader`: the seam for tests that script reads.
    #[doc(hidden)]
    pub fn over(reader: impl Read + Send + 'static, stream: TcpStream) -> Self {
        let shared = Arc::new(ClientShared {
            stream: Mutex::new(stream),
            pending: Mutex::new(HashMap::new()),
            subscriptions: Mutex::new(HashMap::new()),
            closed: AtomicBool::new(false),
            #[cfg(test)]
            counts: tests::Counts::default(),
        });
        let metrics = MetricsRegistry::new();
        let reader_shared = Arc::clone(&shared);
        let batch_frames = metrics.histogram("net.client.batch_frames");
        let reader = std::thread::Builder::new()
            .name("rjms-net-client".to_owned())
            .spawn(move || client_reader_loop(reader, &reader_shared, &batch_frames))
            .expect("failed to spawn client reader");
        RemoteBroker {
            shared,
            next_request_id: AtomicU32::new(1),
            next_subscription_id: AtomicU32::new(1),
            reader: Some(reader),
            rtt: metrics.histogram("net.rtt_ns"),
            requests: metrics.counter("net.requests"),
            metrics,
        }
    }

    /// This client's instrument registry: histogram `net.rtt_ns` holds the
    /// wire round-trip latency of every answered request (send to response,
    /// in nanoseconds), counter `net.requests` the number sent, histogram
    /// `net.client.batch_frames` the delivery frames per hand-over to a subscriber.
    pub fn metrics(&self) -> MetricsRegistry {
        self.metrics.clone()
    }

    /// Creates a topic on the remote broker.
    ///
    /// # Errors
    ///
    /// [`Error::Remote`] carries the broker-side failure (duplicate or
    /// invalid name); transport failures surface as [`Error::Io`] /
    /// [`Error::Closed`].
    pub fn create_topic(&self, topic: &str) -> Result<(), Error> {
        let request_id = self.next_request_id();
        self.call(Request::CreateTopic { request_id, topic: topic.to_owned() }, request_id)
    }

    /// Publishes a message to a remote topic and waits for the broker's
    /// reply: that wait is the push-back, one publish in flight per calling
    /// thread. The receiving broker re-stamps the message id and timestamp
    /// and keeps its trace context.
    ///
    /// # Errors
    ///
    /// [`Error::Remote`] for unknown topics; transport errors otherwise.
    /// With flow control on broker-side, admission rejections surface as
    /// [`Error::PublishShed`] / [`Error::PublishDeferred`].
    pub fn publish(&self, topic: &str, message: &Message) -> Result<(), Error> {
        let request_id = self.next_request_id();
        let wire = WireMessage::from_message(message);
        let request = Request::Publish { request_id, topic: topic.to_owned(), message: wire };
        match self.call_raw(request, request_id)? {
            Response::Ok { .. } => Ok(()),
            Response::Error { message, .. } => Err(Error::Remote { message }),
            Response::PublishDenied { class, deferred: true, retry_after_ms, .. } => {
                Err(Error::PublishDeferred { class, retry_after_ms })
            }
            Response::PublishDenied { class, .. } => Err(Error::PublishShed { class }),
            other => Err(Error::Decode { detail: format!("unexpected response {other:?}") }),
        }
    }

    /// Subscribes to a remote topic; messages arrive on the returned
    /// [`RemoteSubscriber`].
    ///
    /// # Errors
    ///
    /// [`Error::Remote`] for unknown topics or invalid filters.
    pub fn subscribe(&self, topic: &str, filter: WireFilter) -> Result<RemoteSubscriber, Error> {
        self.subscribe_inner(|request_id, subscription_id| Request::Subscribe {
            request_id,
            subscription_id,
            topic: topic.to_owned(),
            filter: filter.clone(),
        })
    }

    /// Subscribes to a remote topic *pattern* (`orders.*`, `sensors.>`).
    ///
    /// # Errors
    ///
    /// [`Error::Remote`] for invalid patterns or filters.
    pub fn subscribe_pattern(
        &self,
        pattern: &str,
        filter: WireFilter,
    ) -> Result<RemoteSubscriber, Error> {
        self.subscribe_inner(|request_id, subscription_id| Request::SubscribePattern {
            request_id,
            subscription_id,
            pattern: pattern.to_owned(),
            filter: filter.clone(),
        })
    }

    /// Connects to (or creates) a named *durable* subscription on the
    /// remote broker: messages retained while no consumer was connected are
    /// delivered first (the remote counterpart of
    /// `broker.subscription(topic).durable(name)`).
    ///
    /// # Errors
    ///
    /// [`Error::Remote`] when the name is already connected or the topic
    /// is unknown.
    pub fn subscribe_durable(
        &self,
        topic: &str,
        name: &str,
        filter: WireFilter,
    ) -> Result<RemoteSubscriber, Error> {
        self.subscribe_inner(|request_id, subscription_id| Request::SubscribeDurable {
            request_id,
            subscription_id,
            topic: topic.to_owned(),
            name: name.to_owned(),
            filter: filter.clone(),
        })
    }

    /// Permanently removes a *disconnected* durable subscription on the
    /// remote broker.
    ///
    /// # Errors
    ///
    /// [`Error::Remote`] when the subscription is unknown or still
    /// connected.
    pub fn unsubscribe_durable(&self, topic: &str, name: &str) -> Result<(), Error> {
        let request_id = self.next_request_id();
        self.call(
            Request::UnsubscribeDurable {
                request_id,
                topic: topic.to_owned(),
                name: name.to_owned(),
            },
            request_id,
        )
    }

    /// Round-trip liveness probe.
    ///
    /// # Errors
    ///
    /// Transport errors / timeout.
    pub fn ping(&self) -> Result<(), Error> {
        let request_id = self.next_request_id();
        match self.call_raw(Request::Ping { request_id }, request_id)? {
            Response::Pong { .. } => Ok(()),
            Response::Error { message, .. } => Err(Error::Remote { message }),
            _ => Err(Error::Decode { detail: "unexpected response to ping".to_owned() }),
        }
    }

    fn subscribe_inner(
        &self,
        make_request: impl Fn(u32, u32) -> Request,
    ) -> Result<RemoteSubscriber, Error> {
        let subscription_id = self.next_subscription_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = unbounded();
        self.shared.subscriptions.lock().insert(subscription_id, tx);

        let request_id = self.next_request_id();
        match self.call(make_request(request_id, subscription_id), request_id) {
            Ok(()) => Ok(RemoteSubscriber {
                subscription_id,
                deliveries: rx,
                batch: Mutex::new(VecDeque::new()),
                shared: Arc::clone(&self.shared),
            }),
            Err(e) => {
                self.shared.subscriptions.lock().remove(&subscription_id);
                Err(e)
            }
        }
    }

    /// The next request id. It wraps past [`u32::MAX`] to 1: 0 is reserved
    /// for the fire-and-forget unsubscribe of [`RemoteSubscriber`]'s drop.
    fn next_request_id(&self) -> u32 {
        match self.next_request_id.fetch_add(1, Ordering::Relaxed) {
            0 => self.next_request_id.fetch_add(1, Ordering::Relaxed),
            id => id,
        }
    }

    /// Sends a request and waits for its Ok/Error response.
    fn call(&self, request: Request, request_id: u32) -> Result<(), Error> {
        match self.call_raw(request, request_id)? {
            Response::Ok { .. } => Ok(()),
            Response::Error { message, .. } => Err(Error::Remote { message }),
            other => Err(Error::Decode { detail: format!("unexpected response {other:?}") }),
        }
    }

    /// Sends a request and waits for its response. A frame the server would
    /// refuse by ending the connection (above [`MAX_FRAME_LEN`]) is refused here.
    fn call_raw(&self, request: Request, request_id: u32) -> Result<Response, Error> {
        if self.shared.closed.load(Ordering::Relaxed) {
            return Err(Error::Closed);
        }
        let frame = encode_request(&request);
        if frame.len() - 4 > MAX_FRAME_LEN {
            return Err(Error::Io(oversized(ErrorKind::InvalidInput, frame.len() - 4)));
        }
        let (tx, rx) = bounded(1);
        self.shared.pending.lock().insert(request_id, tx);

        self.requests.inc();
        let sent_at = Instant::now();
        {
            let mut stream = self.shared.stream.lock();
            if let Err(e) = stream.write_all(&frame) {
                self.shared.pending.lock().remove(&request_id);
                return Err(Error::Io(e));
            }
        }
        match rx.recv_timeout(REQUEST_TIMEOUT) {
            Ok(resp) => {
                self.rtt.record_duration(sent_at.elapsed());
                Ok(resp)
            }
            Err(_) => {
                self.shared.pending.lock().remove(&request_id);
                if self.shared.closed.load(Ordering::Relaxed) {
                    Err(Error::Closed)
                } else {
                    Err(Error::Timeout)
                }
            }
        }
    }
}

impl Drop for RemoteBroker {
    fn drop(&mut self) {
        shut_down(&self.shared);
        if let Some(handle) = self.reader.take() {
            let _ = handle.join();
        }
    }
}

/// Background reader: dispatches responses to pending calls and decodes each delivery
/// frame once, into one `Arc<Message>` cloned to every subscription its id list names,
/// handed over once per read or when a reply is next. A delivery that does not route or
/// decode ends the connection, after what was routed before it is handed over.
fn client_reader_loop(stream: impl Read, shared: &ClientShared, batch_frames: &Histogram) {
    let mut frames = FrameReader::new(stream);
    let mut routed: HashMap<u32, Frames> = HashMap::new();
    let hand_over = |routed: &mut HashMap<u32, Frames>| {
        for (subscription_id, batch) in routed.drain() {
            if let Some(tx) = shared.subscriptions.lock().get(&subscription_id) {
                batch_frames.record(batch.len() as u64);
                let _ = tx.send(batch);
            }
        }
    };
    while let Ok(Some(body)) = frames.next_frame() {
        match delivery_subscriptions(&body) {
            Ok(Some(ids)) => {
                #[cfg(test)]
                shared.counts.decodes.fetch_add(1, Ordering::Relaxed);
                let Ok(message) = read_delivery(&body).map(Arc::new) else { break };
                ids.for_each(|id| routed.entry(id).or_default().push_back(Arc::clone(&message)))
            }
            Ok(None) => match decode_response(body.clone()) {
                Ok(
                    response @ (Response::Ok { request_id }
                    | Response::Pong { request_id }
                    | Response::Error { request_id, .. }
                    | Response::PublishDenied { request_id, .. }),
                ) => {
                    // What preceded a reply on the wire is receivable when its call returns.
                    hand_over(&mut routed);
                    if let Some(tx) = shared.pending.lock().remove(&request_id) {
                        let _ = tx.send(response);
                    }
                }
                _ => break, // no response (a delivery was routed above)
            },
            Err(_) => break,
        }
        if !frames.buffered() {
            hand_over(&mut routed);
        }
    }
    hand_over(&mut routed);
    shut_down(shared);
    // Wake all blocked receivers by dropping their senders.
    shared.subscriptions.lock().clear();
    shared.pending.lock().clear();
}

/// A remote subscription's consuming handle.
///
/// The connection's reader decodes each delivery frame once, so a message gets its id,
/// `JMSTimestamp` and expiration base when it is read off the socket, and every copy of
/// one frame carries the same three, as in-process subscribers share one message; the
/// last subscription to take it moves it out, the others clone it. A frame that does not
/// decode ends the connection after the messages before it are delivered.
/// Threads sharing the handle take turns, a message each: a call waits behind
/// another thread's wait, except `try_receive`, which returns `None`.
/// Dropping the handle cancels the remote subscription best-effort.
pub struct RemoteSubscriber {
    subscription_id: u32,
    deliveries: Receiver<Frames>,
    /// Messages handed over and not yet taken, next one first; locked for a turn.
    batch: Mutex<Frames>,
    shared: Arc<ClientShared>,
}

impl std::fmt::Debug for RemoteSubscriber {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteSubscriber").field("subscription_id", &self.subscription_id).finish()
    }
}

impl RemoteSubscriber {
    /// The client-side subscription id.
    pub fn id(&self) -> u32 {
        self.subscription_id
    }

    /// Blocking receive; `Err` when the connection closed.
    ///
    /// # Errors
    ///
    /// [`Error::Closed`] once the connection is gone and the local
    /// buffer is drained.
    pub fn receive(&self) -> Result<Message, Error> {
        Self::next(&mut self.batch.lock(), || self.deliveries.recv().ok()).ok_or(Error::Closed)
    }

    /// Receive with a timeout; `None` on timeout or closed connection.
    pub fn receive_timeout(&self, timeout: Duration) -> Option<Message> {
        Self::next(&mut self.batch.lock(), || self.deliveries.recv_timeout(timeout).ok())
    }

    /// Non-blocking receive.
    pub fn try_receive(&self) -> Option<Message> {
        Self::next(&mut *self.batch.try_lock()?, || self.deliveries.try_recv().ok())
    }

    /// Takes the message at the front of `batch`, which `more` refills when
    /// it is empty: moved out by the frame's last holder, cloned by the others.
    fn next(batch: &mut Frames, more: impl Fn() -> Option<Frames>) -> Option<Message> {
        if batch.is_empty() {
            *batch = more()?;
        }
        Some(Arc::try_unwrap(batch.pop_front()?).unwrap_or_else(|shared| Message::clone(&shared)))
    }
}

impl Drop for RemoteSubscriber {
    fn drop(&mut self) {
        // Stop routing deliveries locally...
        self.shared.subscriptions.lock().remove(&self.subscription_id);
        // ...and tell the server to release the broker-side subscription,
        // fire-and-forget (request id 0 is reserved for uncorrelated
        // requests: the server's Ok{0} is dropped by the reader). Durable
        // subscriptions in particular must disconnect promptly so that the
        // broker retains messages and the name can be reconnected.
        if !self.shared.closed.load(Ordering::Relaxed) {
            let frame = encode_request(&Request::Unsubscribe {
                request_id: 0,
                subscription_id: self.subscription_id,
            });
            let _ = self.shared.stream.lock().write_all(&frame);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{decode_request, encode_delivery_into, encode_response, read_frame};
    use std::net::TcpListener;
    use std::sync::atomic::AtomicU64;

    /// What one connection did, counted where it happens, so that tests
    /// running side by side do not count each other.
    #[derive(Default)]
    pub(super) struct Counts {
        /// Delivery frames the reader decoded, or tried to.
        pub(super) decodes: AtomicU64,
        /// Shut-downs [`shut_down`] carried out.
        pub(super) shutdowns: AtomicU64,
    }

    /// How long a call that must return may wait before the test fails instead of hanging.
    const GUARD: Duration = Duration::from_secs(5);

    fn decodes(client: &RemoteBroker) -> u64 {
        client.shared.counts.decodes.load(Ordering::Relaxed)
    }

    /// A client with `subscriptions` subscriptions (ids 1, 2, …), the last one
    /// dropped when `drop_last`, connected to a peer that answers the
    /// subscribes, waits for that unsubscribe, writes `frames` and then reads
    /// until the client closes.
    fn client(
        subscriptions: u32,
        drop_last: bool,
        frames: Vec<u8>,
    ) -> (RemoteBroker, Vec<RemoteSubscriber>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            for _ in 0..subscriptions {
                let request = read_frame(&mut stream).unwrap().expect("a subscribe");
                let Request::Subscribe { request_id, .. } = decode_request(request).unwrap() else {
                    panic!("not a subscribe")
                };
                stream.write_all(&encode_response(&Response::Ok { request_id })).unwrap();
            }
            if drop_last {
                let request = read_frame(&mut stream).unwrap().expect("the unsubscribe");
                assert!(matches!(decode_request(request).unwrap(), Request::Unsubscribe { .. }));
            }
            stream.write_all(&frames).unwrap();
            let _ = stream.read_to_end(&mut Vec::new());
        });
        let client = RemoteBroker::connect(addr).unwrap();
        let mut subscribers: Vec<_> =
            (0..subscriptions).map(|_| client.subscribe("t", WireFilter::None).unwrap()).collect();
        if drop_last {
            drop(subscribers.pop());
        }
        (client, subscribers)
    }

    /// The delivery frame of message `#seq` for `ids`.
    fn frame(ids: &[u32], seq: u32) -> Vec<u8> {
        let message = Message::builder()
            .correlation_id(format!("#{seq}"))
            .property("seq", i64::from(seq))
            .body(vec![seq as u8; seq as usize % 40])
            .build();
        let mut out = Vec::new();
        encode_delivery_into(&mut out, ids.iter().copied(), &message);
        out
    }

    /// What is left on `subscriber` until the connection closes (or a guard passes
    /// without a message), as correlation ids.
    fn drain(subscriber: &RemoteSubscriber) -> Vec<String> {
        let received = std::iter::from_fn(|| subscriber.receive_timeout(GUARD));
        received.map(|m| m.correlation_id().unwrap().to_owned()).collect()
    }

    #[test]
    fn a_frame_is_decoded_and_built_once_for_all_the_subscriptions_it_names() {
        // One, two and four ids, and two of which the second was dropped.
        let lists: [&[u32]; 4] = [&[1], &[1, 2], &[1, 2, 3, 4], &[2, 5]];
        let frames = lists.iter().zip(1..).flat_map(|(ids, seq)| frame(ids, seq)).collect();
        let (client, subscribers) = client(5, true, frames);
        for (ids, seq) in lists.iter().zip(1..) {
            let copies: Vec<Message> = (ids.iter().filter(|id| **id <= 4))
                .map(|id| subscribers[*id as usize - 1].receive_timeout(GUARD).expect("a copy"))
                .collect();
            assert_eq!(copies[0].correlation_id(), Some(format!("#{seq}").as_str()));
            for copy in &copies[1..] {
                // `MessageId::next()` runs once per decode: one id is one decode.
                assert_eq!(copy.id(), copies[0].id(), "frame #{seq}");
                assert_eq!(copy.timestamp_millis(), copies[0].timestamp_millis());
                assert_eq!(copy, &copies[0]);
            }
        }
        assert_eq!(decodes(&client), lists.len() as u64, "one decode per frame");
        assert!(subscribers.iter().all(|s| s.try_receive().is_none()));
    }

    #[test]
    fn a_shared_frame_that_does_not_decode_closes_each_subscription_once_reached() {
        let mut bad = frame(&[1, 2], 4);
        bad.push(0xAA); // a trailing byte
        let len = bad.len() as u32 - 4;
        bad[..4].copy_from_slice(&len.to_le_bytes());
        let frames = [frame(&[1, 2], 1), frame(&[1], 2), frame(&[2], 3), bad, frame(&[1, 2], 5)];
        let (client, subscribers) = client(2, false, frames.concat());
        assert_eq!(drain(&subscribers[0]), ["#1", "#2"]);
        assert_eq!(drain(&subscribers[1]), ["#1", "#3"]);
        // The bad frame too was decoded once, and it ended the read.
        assert_eq!(decodes(&client), 4);
        assert_eq!(client.shared.counts.shutdowns.load(Ordering::Relaxed), 1);
        assert!(subscribers.iter().all(|s| s.try_receive().is_none()));
        assert!(matches!(client.ping(), Err(Error::Closed)));
    }

    #[test]
    fn two_threads_draining_two_subscriptions_share_each_frame_once() {
        const FRAMES: u32 = 2_000;
        let frames = (0..FRAMES).flat_map(|seq| frame(&[1, 2], seq)).collect();
        let (client, subscribers) = client(2, false, frames);
        let drained: Vec<Vec<Message>> = std::thread::scope(|scope| {
            let drains: Vec<_> = (subscribers.iter())
                .map(|subscriber| {
                    scope.spawn(move || {
                        (0..FRAMES)
                            .map(|_| subscriber.receive_timeout(GUARD).expect("a copy"))
                            .collect()
                    })
                })
                .collect();
            drains.into_iter().map(|drain| drain.join().unwrap()).collect()
        });
        assert_eq!(decodes(&client), u64::from(FRAMES), "one decode per frame");
        for (seq, (a, b)) in drained[0].iter().zip(&drained[1]).enumerate() {
            assert_eq!(a.correlation_id(), Some(format!("#{seq}").as_str()));
            assert_eq!(a, b, "frame #{seq}");
        }
        assert!(subscribers.iter().all(|s| s.try_receive().is_none()));
    }

    #[test]
    fn request_ids_wrap_past_the_reserved_zero() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Answers two pings and returns the request ids they carried.
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut ids = Vec::new();
            for _ in 0..2 {
                let request = read_frame(&mut stream).unwrap().expect("a request");
                let Request::Ping { request_id } = decode_request(request).unwrap() else {
                    panic!("not a ping")
                };
                ids.push(request_id);
                stream.write_all(&encode_response(&Response::Pong { request_id })).unwrap();
            }
            ids
        });
        let client = RemoteBroker::connect(addr).unwrap();
        client.next_request_id.store(u32::MAX, Ordering::Relaxed);
        client.ping().unwrap();
        client.ping().unwrap();
        assert_eq!(peer.join().unwrap(), [u32::MAX, 1]);
    }
}
