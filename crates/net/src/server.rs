//! The broker server: accepts TCP connections and bridges them onto an
//! embedded [`Broker`].
//!
//! Two threads per connection, whatever it subscribes to: `rjms-net-conn`
//! handles the client's requests, `rjms-net-writer` owns the socket's write
//! half. A delivery takes the in-process path up to the socket: dispatcher
//! → the subscription's bounded queue → the writer, which drains its
//! connection's subscriptions itself, a copy from each per pass, and encodes
//! one frame per message of a pass, in place from the broker's `&Message`,
//! naming every subscription that took it (DESIGN.md §3.6). A frame above
//! [`MAX_FRAME_LEN`], which the client would refuse, is left out and counted.
//!
//! The writer sleeps on one channel of [`Outbound`]s: replies, and a `Ring`
//! token. Every subscription is opened with the connection's doorbell as
//! its [`wake`](rjms_broker::SubscriptionBuilder::wake) hook — `if
//! !rung.swap(true) { send(Ring) }` after each copy queued — and the writer
//! clears `rung` *before* it reads the queues: at most one token is in
//! flight, a copy queued after the clear rings again, one queued before it
//! is seen by the drain that follows.
//!
//! A connection speaks [`wire`](crate::wire)'s one dialect from its first
//! frame. A publish that admission control turns away is answered with
//! [`Response::PublishDenied`]; a frame that does not decode, an unknown
//! opcode among them, drops the connection.
//!
//! A client that stops reading fills its *bounded* subscriber queues and
//! gets the broker's [`OverflowPolicy`](rjms_broker::OverflowPolicy) like
//! an in-process consumer: `Block` pushes back on publishers, `DropNew`
//! counts `dropped`. A connection holds at most R × the queue capacity in
//! messages, one batch, and the replies owed to its own requests (not
//! bounded yet). A failed write hands the batch back and releases the
//! subscriptions, so a durable one retains all that was not written.
//!
//! The server keeps its own [`MetricsRegistry`] (see
//! [`BrokerServer::metrics`]): gauge `net.connections.active` counts live
//! connections, gauge `net.conn.<id>.queue_depth` is what a live
//! connection has still to write (replies queued plus copies waiting in its
//! subscriptions' queues), so a saturated subscriber link shows up as a
//! depth at its bound and a closed connection leaves no series, histogram
//! `net.writer.batch_frames` has the frames per socket write (a delivery
//! frame once, however many subscriptions it names): the batch-size
//! distribution `X` a client sees, and counter `net.writer.oversized` the
//! copies left out.

use crate::wire::{
    decode_request, encode_delivery_into, encode_response_into, FrameReader, Request, Response,
    WireFilter, WireMessage, MAX_FRAME_LEN,
};
use crossbeam::channel::{unbounded, Receiver, Sender};
use rjms_broker::{
    Broker, BrokerConfig, Error, Message, Publisher, Subscriber, TopicPattern, Wake,
};
use rjms_metrics::{clock, Counter, Gauge, MetricsRegistry};
use rjms_trace::{FlightRecorder, SpanEvent, Stage};
use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A TCP front-end for an embedded [`Broker`].
///
/// # Examples
///
/// ```no_run
/// use rjms_net::server::BrokerServer;
/// use rjms_broker::BrokerConfig;
///
/// let server = BrokerServer::start(BrokerConfig::default(), "127.0.0.1:0")?;
/// println!("listening on {}", server.local_addr());
/// # Ok::<(), std::io::Error>(())
/// ```
pub struct BrokerServer {
    broker: Arc<Broker>,
    local_addr: SocketAddr,
    stopping: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    connections: Connections,
    metrics: MetricsRegistry,
}

/// The live connections by id: a clone of each one's stream, so shutdown
/// can tear it down (a closed stream ends the connection's reader loop), and
/// its write backlog, which the registry reports while the entry is here.
/// Each connection's handler removes its own on the way out.
type Connections = Arc<parking_lot::Mutex<HashMap<u64, (TcpStream, Arc<Gauge>)>>>;

impl std::fmt::Debug for BrokerServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BrokerServer").field("local_addr", &self.local_addr).finish()
    }
}

impl BrokerServer {
    /// Starts a broker and listens on `addr` (use port 0 for an ephemeral
    /// port).
    ///
    /// # Errors
    ///
    /// Returns the bind error if the address is unavailable.
    pub fn start(
        config: BrokerConfig,
        addr: impl std::net::ToSocketAddrs,
    ) -> std::io::Result<BrokerServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let broker = Arc::new(Broker::start(config));
        let stopping = Arc::new(AtomicBool::new(false));
        let metrics = MetricsRegistry::new();

        let connections: Connections = Arc::default();
        let live = Arc::clone(&connections);
        metrics.register_source(move |snapshot| {
            for (id, (_, depth)) in live.lock().iter() {
                snapshot.gauges.insert(format!("net.conn.{id}.queue_depth"), depth.get());
            }
        });
        let accept_broker = Arc::clone(&broker);
        let accept_stopping = Arc::clone(&stopping);
        let accept_connections = Arc::clone(&connections);
        let accept_metrics = metrics.clone();
        let accept_thread = std::thread::Builder::new()
            .name("rjms-net-accept".to_owned())
            .spawn(move || {
                let next_connection_id = AtomicU64::new(1);
                for stream in listener.incoming() {
                    if accept_stopping.load(Ordering::Relaxed) {
                        break;
                    }
                    match stream {
                        Ok(stream) => {
                            let connections = Arc::clone(&accept_connections);
                            let broker = Arc::clone(&accept_broker);
                            let stopping = Arc::clone(&accept_stopping);
                            let metrics = accept_metrics.clone();
                            let connection_id = next_connection_id.fetch_add(1, Ordering::Relaxed);
                            let _ = std::thread::Builder::new()
                                .name("rjms-net-conn".to_owned())
                                .spawn(move || {
                                    // Listed before `stopping` is read: a
                                    // shutdown that missed it is seen there.
                                    let depth = Arc::new(Gauge::new());
                                    if let Ok(clone) = stream.try_clone() {
                                        let entry = (clone, Arc::clone(&depth));
                                        connections.lock().insert(connection_id, entry);
                                    }
                                    handle_connection(broker, stopping, stream, metrics, depth);
                                    connections.lock().remove(&connection_id);
                                });
                        }
                        Err(_) => break,
                    }
                }
            })
            .expect("failed to spawn accept thread");

        Ok(BrokerServer {
            broker,
            local_addr,
            stopping,
            accept_thread: Some(accept_thread),
            connections,
            metrics,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The embedded broker, for local administration (creating topics,
    /// reading stats) alongside remote clients.
    pub fn broker(&self) -> &Broker {
        &self.broker
    }

    /// The server's wire-level instrument registry: gauge
    /// `net.connections.active`, what each live connection has still to
    /// write under `net.conn.<id>.queue_depth` (the series goes when the
    /// connection closes), histogram `net.writer.batch_frames`, the frames
    /// each socket write carried (all connections; one sample per write),
    /// and counter `net.writer.oversized`, the copies a writer left out
    /// because their message's frame is above [`MAX_FRAME_LEN`]: the
    /// subscription loses that message and the connection stays up.
    /// Broker-side instruments live in
    /// [`Broker::metrics`](rjms_broker::Broker::metrics) instead.
    pub fn metrics(&self) -> MetricsRegistry {
        self.metrics.clone()
    }

    /// Stops accepting connections and shuts the broker down. Established
    /// connections are torn down as their streams fail.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        // ORD: SeqCst swap — shutdown runs once per server lifetime, so
        // the strongest ordering is free and makes the stop flag a clean
        // happens-before anchor for the accept loop's load.
        if self.stopping.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop with a dummy connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        // Tear down live connections; their reader loops exit on the
        // closed streams and the embedded broker stops once the last
        // connection handler drops its handle.
        for (_, (stream, _)) in self.connections.lock().drain() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
    }
}

impl Drop for BrokerServer {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

/// What a connection's writer blocks on.
enum Outbound {
    /// A reply to one of the client's requests.
    Reply(Response),
    /// The doorbell's token: a subscription may have a copy queued.
    Ring,
    /// The reader is done: write the replies queued before this and stop.
    Close,
}

/// A connection's subscriptions by client-chosen id, shared by its reader
/// (subscribe, unsubscribe) and its writer (drain). A connection has few;
/// the writer holds the lock while it encodes, never across a write.
type Subscriptions = Arc<parking_lot::Mutex<Vec<(u32, Subscriber)>>>;

/// A connection's doorbell: the flag the writer clears, and the hook that
/// sets it and queues one [`Outbound::Ring`] on `out` if it was clear.
fn doorbell(out: Sender<Outbound>) -> (Arc<AtomicBool>, Wake) {
    let rung = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&rung);
    let ring = move || {
        // ORD: AcqRel swap, read by the writer's clearing swap: the copy
        // queued before this ring happens-before the drain after the clear.
        if !flag.swap(true, Ordering::AcqRel) {
            let _ = out.send(Outbound::Ring);
        }
    };
    (rung, Arc::new(ring))
}

/// The reader's half of one client connection.
struct Connection {
    broker: Arc<Broker>,
    out: Sender<Outbound>,
    publishers: HashMap<String, Publisher>,
    subscriptions: Subscriptions,
    /// The doorbell hook every subscription is opened with.
    ring: Wake,
}

fn handle_connection(
    broker: Arc<Broker>,
    stopping: Arc<AtomicBool>,
    stream: TcpStream,
    metrics: MetricsRegistry,
    depth: Arc<Gauge>,
) {
    if stopping.load(Ordering::Relaxed) {
        return;
    }
    let Ok(write_stream) = stream.try_clone() else { return };
    // The writer batches by itself; Nagle would only add a delayed-ACK
    // stall to a batch that ends in a partial segment.
    stream.set_nodelay(true).ok();
    let (out_tx, out_rx) = unbounded();
    let (rung, ring) = doorbell(out_tx.clone());
    let mut conn = Connection {
        broker,
        out: out_tx,
        publishers: HashMap::new(),
        subscriptions: Subscriptions::default(),
        ring,
    };

    let active = metrics.gauge("net.connections.active");
    active.add(1);
    let subscriptions = Arc::clone(&conn.subscriptions);
    let bell = (rung, Arc::clone(&conn.ring));
    let recorder = conn.broker.tracer();
    let writer = std::thread::Builder::new()
        .name("rjms-net-writer".to_owned())
        .spawn(move || {
            writer_loop(write_stream, out_rx, subscriptions, bell, depth, &metrics, recorder)
        })
        .expect("failed to spawn writer thread");

    reader_loop(stream, &mut conn);

    // Tear down: the writer sends the replies it still owes, releases the
    // subscriptions and stops.
    let _ = conn.out.send(Outbound::Close);
    let _ = writer.join();
    active.add(-1);
}

/// Most bytes the writer gathers before it writes. A constant, not a
/// setting: it only has to be large enough that the syscall is shared by
/// hundreds of small frames and small enough that the first frame of a
/// batch is not held back for long (64 KiB leave a loopback socket in tens
/// of microseconds). A single larger frame is still written whole.
const WRITE_BATCH_BYTES: usize = 64 * 1024;

/// The connection's writer: blocks for one [`Outbound`], encodes the
/// replies already queued, then its subscriptions' copies in turn (one
/// message each per pass, a durable's retained backlog first) until they
/// are empty or the batch has [`WRITE_BATCH_BYTES`], and sends the lot with
/// one `write_all`: a backlog costs one syscall per batch, an idle connection
/// still sends a lone reply at once, a reply waits behind one batch at most.
/// A pass's copies of one message go out as one frame (`encode_pass`).
fn writer_loop(
    mut stream: TcpStream,
    out: Receiver<Outbound>,
    subscriptions: Subscriptions,
    (rung, ring): (Arc<AtomicBool>, Wake),
    depth: Arc<Gauge>,
    metrics: &MetricsRegistry,
    recorder: Option<Arc<FlightRecorder>>,
) {
    let batch_frames = metrics.histogram("net.writer.batch_frames");
    let oversized = metrics.counter("net.writer.oversized");
    let mut batch = Vec::with_capacity(WRITE_BATCH_BYTES);
    // The batch's deliveries, kept until the write has returned.
    let mut taken: Vec<(u32, Arc<Message>)> = Vec::new();
    let mut open = true;
    while open {
        let Ok(first) = out.recv() else { break };
        let mut frames = 0;
        let mut next = Some(first);
        while let Some(outbound) = next {
            match outbound {
                Outbound::Reply(response) => {
                    encode_response_into(&mut batch, &response);
                    frames += 1;
                }
                // ORD: AcqRel swap, reads the doorbell's. Cleared before
                // the queues are read, so a later copy rings again.
                Outbound::Ring => _ = rung.swap(false, Ordering::AcqRel),
                Outbound::Close => open = false,
            }
            let more = open && batch.len() < WRITE_BATCH_BYTES;
            next = if more { out.try_recv().ok() } else { None };
        }
        if open {
            let subscriptions = subscriptions.lock();
            let mut found = true;
            while found && batch.len() < WRITE_BATCH_BYTES {
                let pass = taken.len();
                for (id, subscriber) in subscriptions.iter() {
                    taken.extend(subscriber.try_receive().map(|message| (*id, message)));
                }
                found = taken.len() > pass;
                frames += encode_pass(&mut batch, &mut taken, pass, &oversized);
            }
            let left: usize = subscriptions.iter().map(|(_, s)| s.queued()).sum();
            depth.set((out.len() + left) as i64);
            if left > 0 {
                ring(); // the batch filled up first
            }
        }
        if batch.is_empty() {
            // A ring whose copy an earlier drain had taken, or an oversized
            // frame that must not pin its allocation to the connection.
            batch.shrink_to(2 * WRITE_BATCH_BYTES);
            continue;
        }
        batch_frames.record(frames);
        // Every tail-sampled delivery of the batch gets a wire-flush span
        // on its chain: the one write that carried its bytes off the server.
        let recorder = recorder.as_ref().filter(|_| !taken.is_empty());
        let flush = recorder.map(|r| (r, clock::now()));
        if stream.write_all(&batch).is_err() {
            // Not written: back to the front of their queues, newest first,
            // so every subscription has them in order again.
            let subscriptions = subscriptions.lock();
            for (id, message) in taken.drain(..).rev() {
                if let Some((_, s)) = subscriptions.iter().find(|(i, _)| *i == id) {
                    s.return_message(message);
                }
            }
            break;
        }
        if let Some((recorder, start_ticks)) = flush {
            let duration_ns = clock::ticks_to_ns(clock::now().saturating_sub(start_ticks));
            for (id, message) in &taken {
                let trace_id = message.trace_id();
                if recorder.is_sampled(trace_id) {
                    recorder.record(SpanEvent {
                        trace_id,
                        stage: Stage::WireFlush,
                        start_ticks,
                        duration_ns,
                        aux: u64::from(*id),
                    });
                }
            }
        }
        taken.clear();
        batch.clear();
        // One oversized frame must not pin its allocation to the connection.
        batch.shrink_to(2 * WRITE_BATCH_BYTES);
    }
    // Over, whichever side ended it: a durable subscription retains what it
    // had, and a dispatcher waiting on one of these queues is freed (the
    // reader may itself be waiting on it to publish).
    subscriptions.lock().clear();
    depth.set(0);
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// Encodes the copies of one pass, `taken[pass..]`, as one frame per message
/// (in `Arc` address order: a pass has at most one copy per subscription) and
/// returns the frames. A message whose frame is above [`MAX_FRAME_LEN`] leaves
/// the batch and `taken`, its copies counted in `oversized`.
fn encode_pass(
    batch: &mut Vec<u8>,
    taken: &mut Vec<(u32, Arc<Message>)>,
    pass: usize,
    oversized: &Counter,
) -> u64 {
    taken[pass..].sort_by_key(|(_, message)| Arc::as_ptr(message));
    let (mut at, mut frames) = (pass, 0);
    while let Some((_, message)) = taken.get(at) {
        let copies = taken[at..].iter().take_while(|(_, m)| Arc::ptr_eq(m, message)).count();
        let start = batch.len();
        encode_delivery_into(batch, taken[at..at + copies].iter().map(|(id, _)| *id), message);
        if batch.len() - start - 4 <= MAX_FRAME_LEN {
            (at, frames) = (at + copies, frames + 1);
        } else {
            batch.truncate(start);
            taken.drain(at..at + copies);
            oversized.add(copies as u64);
        }
    }
    frames
}

fn reader_loop(stream: TcpStream, conn: &mut Connection) {
    let mut frames = FrameReader::new(stream);
    // A writer that failed shuts the socket down, which ends the read.
    while let Ok(Some(body)) = frames.next_frame() {
        let request = match decode_request(body) {
            Ok(r) => r,
            Err(_) => break, // protocol violation: drop the connection
        };
        if !handle_request(conn, request) {
            break;
        }
    }
}

/// Handles one request; returns `false` when the connection should close.
fn handle_request(conn: &mut Connection, request: Request) -> bool {
    let (request_id, outcome) = match request {
        Request::Ping { request_id } => {
            return conn.out.send(Outbound::Reply(Response::Pong { request_id })).is_ok();
        }
        Request::CreateTopic { request_id, topic } => {
            (request_id, conn.broker.create_topic(&topic).map_err(|e| e.to_string()))
        }
        Request::Publish { request_id, topic, message } => {
            return handle_publish(conn, request_id, &topic, message);
        }
        Request::Subscribe { request_id, subscription_id, topic, filter } => {
            (request_id, subscribe(conn, subscription_id, SubscribeTarget::Topic(topic), filter))
        }
        Request::SubscribePattern { request_id, subscription_id, pattern, filter } => (
            request_id,
            subscribe(conn, subscription_id, SubscribeTarget::Pattern(pattern), filter),
        ),
        Request::SubscribeDurable { request_id, subscription_id, topic, name, filter } => (
            request_id,
            subscribe(conn, subscription_id, SubscribeTarget::Durable { topic, name }, filter),
        ),
        Request::UnsubscribeDurable { request_id, topic, name } => {
            (request_id, conn.broker.unsubscribe_durable(&topic, &name).map_err(|e| e.to_string()))
        }
        Request::Unsubscribe { request_id, subscription_id } => {
            let removed = {
                let mut subscriptions = conn.subscriptions.lock();
                let at = subscriptions.iter().position(|(id, _)| *id == subscription_id);
                at.map(|at| subscriptions.remove(at))
            };
            // Dropped here, outside the lock and before the `Ok` is queued:
            // `Ok` means the broker-side subscription is released.
            let unknown = || format!("unknown subscription {subscription_id}");
            (request_id, removed.map(drop).ok_or_else(unknown))
        }
    };
    let response = match outcome {
        Ok(()) => Response::Ok { request_id },
        Err(message) => Response::Error { request_id, message },
    };
    conn.out.send(Outbound::Reply(response)).is_ok()
}

/// Handles one publish request end to end: admission and the outcome
/// response, the one push-back the wire carries. Returns `false` when the
/// connection should close.
fn handle_publish(
    conn: &mut Connection,
    request_id: u32,
    topic: &str,
    message: WireMessage,
) -> bool {
    let response = match publish(conn, topic, message) {
        Ok(()) => Response::Ok { request_id },
        Err(Error::PublishShed { class }) => {
            Response::PublishDenied { request_id, class, deferred: false, retry_after_ms: 0 }
        }
        Err(Error::PublishDeferred { class, retry_after_ms }) => {
            Response::PublishDenied { request_id, class, deferred: true, retry_after_ms }
        }
        Err(e) => Response::Error { request_id, message: e.to_string() },
    };
    conn.out.send(Outbound::Reply(response)).is_ok()
}

fn publish(conn: &mut Connection, topic: &str, message: WireMessage) -> Result<(), Error> {
    if !conn.publishers.contains_key(topic) {
        let publisher = conn.broker.publisher(topic)?;
        conn.publishers.insert(topic.to_owned(), publisher);
    }
    conn.publishers.get(topic).expect("just inserted").publish(message.into_message())
}

enum SubscribeTarget {
    Topic(String),
    Pattern(String),
    Durable { topic: String, name: String },
}

fn subscribe(
    conn: &mut Connection,
    subscription_id: u32,
    target: SubscribeTarget,
    filter: WireFilter,
) -> Result<(), String> {
    if conn.subscriptions.lock().iter().any(|(id, _)| *id == subscription_id) {
        return Err(format!("subscription id {subscription_id} already in use"));
    }
    let filter = filter.parse()?;
    let builder = match target {
        SubscribeTarget::Topic(topic) => conn.broker.subscription(&topic),
        SubscribeTarget::Pattern(pattern) => {
            // Validate eagerly so a malformed pattern reports its parse
            // error instead of falling through as an unknown literal topic.
            let _: TopicPattern = pattern
                .parse()
                .map_err(|e: rjms_broker::pattern::ParseTopicPatternError| e.to_string())?;
            conn.broker.subscription(&pattern)
        }
        SubscribeTarget::Durable { topic, name } => conn.broker.subscription(&topic).durable(&name),
    };
    let subscriber =
        builder.filter(filter).wake(Arc::clone(&conn.ring)).open().map_err(|e| e.to_string())?;
    conn.subscriptions.lock().push((subscription_id, subscriber));
    // Rung after the push: a copy queued before it (a durable's backlog,
    // a match right behind `open`) rang when the writer could not find it.
    (conn.ring)();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{delivery_subscriptions, encode_response, read_frame};
    use bytes::Bytes;
    use rjms_broker::Filter;
    use std::time::Duration;

    /// The writer against a raw socket, everything queued before it starts:
    /// every kind of reply on its channel, and in four subscriptions'
    /// queues deliveries enough to pass the batch cap a few times, one of
    /// them larger than the cap. Three subscriptions take every one of 700
    /// messages in the same pass: one frame each, naming all three. The
    /// reference for a subscription's bytes is the `WireMessage` route's
    /// frame for it alone.
    #[test]
    fn writer_puts_replies_and_queued_deliveries_on_the_socket_in_order_and_in_batches() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();

        let broker = Broker::start(BrokerConfig::default());
        broker.create_topic("t").unwrap();
        let open = |id: u32, filter: &str| {
            let filter = Filter::correlation_id(filter).unwrap();
            (id, broker.subscription("t").filter(filter).open().unwrap())
        };
        let subscriptions = vec![open(6, "#9"), open(0, "#1"), open(1, "#1"), open(2, "#1")];
        let publisher = broker.publisher("t").unwrap();
        let mut expected: HashMap<u32, Vec<Bytes>> = HashMap::new();
        let mut publish = |ids: &[u32], correlation_id: &str, len: usize| {
            let message = Message::builder().correlation_id(correlation_id).body(vec![7; len]);
            let message = message.build();
            for &subscription_id in ids {
                let message = WireMessage::from_message(&message);
                let frame = encode_response(&Response::Delivery { subscription_id, message });
                expected.entry(subscription_id).or_default().push(frame);
            }
            publisher.publish(message).unwrap();
        };
        publish(&[6], "#9", 3 * WRITE_BATCH_BYTES);
        (0..700).for_each(|_| publish(&[0, 1, 2], "#1", 100));
        let (copies, messages) = (1 + 3 * 700, 1 + 700);
        while subscriptions.iter().map(|(_, s)| s.queued()).sum::<usize>() < copies {
            std::thread::sleep(Duration::from_millis(1));
        }

        let replies = [
            Response::Ok { request_id: 1 },
            Response::Error { request_id: 2, message: "no".into() },
            Response::Pong { request_id: 3 },
            Response::PublishDenied { request_id: 5, class: 1, deferred: true, retry_after_ms: 6 },
        ];
        let (out_tx, out_rx) = unbounded();
        for reply in &replies {
            out_tx.send(Outbound::Reply(reply.clone())).unwrap();
        }
        let (rung, ring) = doorbell(out_tx.clone());
        ring();

        let metrics = MetricsRegistry::new();
        let subscriptions = Arc::new(parking_lot::Mutex::new(subscriptions));
        let (depth, registry) = (metrics.gauge("depth"), metrics.clone());
        let writer = std::thread::spawn(move || {
            writer_loop(stream, out_rx, subscriptions, (rung, ring), depth, &registry, None)
        });

        // Each delivery frame expanded into the frame its message would be
        // for each id it names alone.
        let mut reply_frames = Vec::new();
        let mut delivered: HashMap<u32, Vec<Bytes>> = HashMap::new();
        let mut id_lists: HashMap<Vec<u32>, usize> = HashMap::new();
        for _ in 0..replies.len() + messages {
            let body = read_frame(&mut peer).unwrap().expect("a frame");
            let Some(ids) = delivery_subscriptions(&body).unwrap() else {
                let frame = [&(body.len() as u32).to_le_bytes()[..], &body[..]].concat();
                reply_frames.push(Bytes::from(frame));
                continue;
            };
            let ids: Vec<u32> = ids.collect();
            let fields = &body[5 + 4 * ids.len()..];
            for &id in &ids {
                let len = (fields.len() as u32 + 9).to_le_bytes();
                let frame = [&len[..], &[0x85, 1, 0, 0, 0], &id.to_le_bytes(), fields].concat();
                delivered.entry(id).or_default().push(frame.into());
            }
            *id_lists.entry(ids).or_default() += 1;
        }
        out_tx.send(Outbound::Close).unwrap();
        writer.join().unwrap();
        assert!(read_frame(&mut peer).unwrap().is_none(), "bytes behind the last frame");

        let expected_replies: Vec<Bytes> = replies.iter().map(encode_response).collect();
        assert!(reply_frames == expected_replies, "replies differ from the frames in queue order");
        assert!(delivered == expected, "a subscription's bytes differ from its frames in order");
        // One frame per message: 700 name subscriptions 0, 1 and 2, not
        // 2 100 name one each.
        assert_eq!(id_lists, HashMap::from([(vec![6], 1), (vec![0, 1, 2], 700)]));
        // One sample per write, each frame counted once: the oversized
        // delivery closes the first batch, the rest go out a cap at a time.
        let snapshot = metrics.snapshot();
        let batches = snapshot.histogram("net.writer.batch_frames").expect("writes recorded");
        assert_eq!(batches.sum, (replies.len() + messages) as u64);
        assert!(batches.count < 10, "{} writes for {} frames", batches.count, batches.sum);
        assert_eq!(snapshot.gauges["depth"], 0);
        assert_eq!(snapshot.counters["net.writer.oversized"], 0);
        broker.shutdown();
    }
}
