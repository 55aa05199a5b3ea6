//! The broker server: accepts TCP connections and bridges them onto an
//! embedded [`Broker`].
//!
//! One thread per connection direction (reader / writer) plus one forwarder
//! thread per remote subscription — the same thread-per-component structure
//! as the 2006 testbed clients ("each publisher or subscriber is realized
//! as a single Java thread").
//!
//! The server keeps its own [`MetricsRegistry`] (see
//! [`BrokerServer::metrics`]): gauge `net.connections.active` counts live
//! connections and gauge `net.conn.<id>.queue_depth` tracks each
//! connection's outbound response backlog — the wire-side analogue of the
//! broker's publish queue, so a saturated subscriber link shows up as a
//! growing depth instead of silently inflating delivery latency.
//! Histogram `net.writer.batch_frames` has the number of frames per
//! socket write: the batch-size distribution `X` a client sees.

use crate::wire::{
    decode_request, encode_response_into, FrameReader, Request, Response, WireFilter, WireMessage,
    FEATURE_FLOW, FEATURE_TRACE,
};
use crossbeam::channel::{unbounded, Receiver, Sender};
use rjms_broker::{Broker, BrokerConfig, Error, Filter, FlowGate, Publisher, TopicPattern};
use rjms_flow::{CreditWindow, CREDIT_WINDOW};
use rjms_metrics::{clock, Gauge, Histogram, MetricsRegistry};
use rjms_trace::{FlightRecorder, SpanEvent, Stage};
use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

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
    /// Clones of accepted streams, so shutdown can tear live connections
    /// down (a closed stream ends the connection's reader loop).
    connections: Arc<parking_lot::Mutex<Vec<TcpStream>>>,
    metrics: MetricsRegistry,
}

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

        let connections = Arc::new(parking_lot::Mutex::new(Vec::new()));
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
                            if let Ok(clone) = stream.try_clone() {
                                accept_connections.lock().push(clone);
                            }
                            let broker = Arc::clone(&accept_broker);
                            let recorder = accept_broker.tracer();
                            let stopping = Arc::clone(&accept_stopping);
                            let metrics = accept_metrics.clone();
                            let connection_id = next_connection_id.fetch_add(1, Ordering::Relaxed);
                            let _ = std::thread::Builder::new()
                                .name("rjms-net-conn".to_owned())
                                .spawn(move || {
                                    handle_connection(
                                        broker,
                                        recorder,
                                        stopping,
                                        stream,
                                        metrics,
                                        connection_id,
                                    )
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
    /// `net.connections.active`, per-connection outbound queue depths
    /// under `net.conn.<id>.queue_depth` (reset to 0 when the connection
    /// closes), and histogram `net.writer.batch_frames`, the frames each
    /// socket write carried (all connections; one sample per write).
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
        for stream in self.connections.lock().drain(..) {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
    }
}

impl Drop for BrokerServer {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

/// Converts a wire filter into a broker filter.
fn build_filter(filter: WireFilter) -> Result<Filter, String> {
    match filter {
        WireFilter::None => Ok(Filter::None),
        WireFilter::CorrelationId(p) => Filter::correlation_id(&p).map_err(|e| e.to_string()),
        WireFilter::Selector(s) => Filter::selector(&s).map_err(|e| e.to_string()),
    }
}

/// State of one client connection.
struct Connection {
    broker: Arc<Broker>,
    out: Sender<Response>,
    publishers: HashMap<String, Publisher>,
    /// subscription id → cancel flag for its forwarder thread.
    subscriptions: HashMap<u32, Arc<AtomicBool>>,
    closed: Arc<AtomicBool>,
    /// Whether the client negotiated [`FEATURE_TRACE`] via
    /// [`Request::Hello`]. Deliveries to pre-handshake clients have their
    /// trace context stripped so they only ever see pre-trace opcodes.
    traced: Arc<AtomicBool>,
    /// The broker's admission gate, when flow control is enabled.
    gate: Option<Arc<FlowGate>>,
    /// Whether the client negotiated [`FEATURE_FLOW`] *and* the broker has
    /// flow control on. Only then do flow opcodes go on the wire.
    flow_negotiated: bool,
    /// Server-side credit accounting for a flow-negotiated peer: counts
    /// publishes and replenishes the client with [`Response::CreditGrant`]
    /// every half window.
    credit: Option<CreditWindow>,
}

fn handle_connection(
    broker: Arc<Broker>,
    recorder: Option<Arc<FlightRecorder>>,
    stopping: Arc<AtomicBool>,
    stream: TcpStream,
    metrics: MetricsRegistry,
    connection_id: u64,
) {
    if stopping.load(Ordering::Relaxed) {
        return;
    }
    let Ok(write_stream) = stream.try_clone() else { return };
    // The writer batches by itself; Nagle would only add a delayed-ACK
    // stall to a batch that ends in a partial segment.
    stream.set_nodelay(true).ok();
    let (out_tx, out_rx) = unbounded::<Response>();
    let closed = Arc::new(AtomicBool::new(false));

    let active = metrics.gauge("net.connections.active");
    active.add(1);
    let depth = metrics.gauge(&format!("net.conn.{connection_id}.queue_depth"));

    // Writer thread: serializes every outgoing response.
    let writer_closed = Arc::clone(&closed);
    let writer_depth = Arc::clone(&depth);
    let batch_frames = metrics.histogram("net.writer.batch_frames");
    let writer = std::thread::Builder::new()
        .name("rjms-net-writer".to_owned())
        .spawn(move || {
            writer_loop(write_stream, out_rx, writer_closed, writer_depth, batch_frames, recorder)
        })
        .expect("failed to spawn writer thread");

    let gate = broker.flow();
    let mut conn = Connection {
        broker,
        out: out_tx,
        publishers: HashMap::new(),
        subscriptions: HashMap::new(),
        closed: Arc::clone(&closed),
        traced: Arc::new(AtomicBool::new(false)),
        gate,
        flow_negotiated: false,
        credit: None,
    };
    reader_loop(stream, &mut conn);

    // Tear down: cancel forwarders, close the writer.
    closed.store(true, Ordering::Relaxed);
    for flag in conn.subscriptions.values() {
        flag.store(true, Ordering::Relaxed);
    }
    drop(conn); // drops the out sender; writer exits once forwarders do
    let _ = writer.join();
    depth.set(0);
    active.add(-1);
}

/// Most bytes the writer gathers before it writes. A constant, not a
/// setting: it only has to be large enough that the syscall is shared by
/// hundreds of small frames and small enough that the first frame of a
/// batch is not held back for long (64 KiB leave a loopback socket in tens
/// of microseconds). A single larger frame is still written whole.
const WRITE_BATCH_BYTES: usize = 64 * 1024;

/// Drains the connection's outbound queue onto the socket: blocks for one
/// response, then takes whatever else is already queued (up to
/// [`WRITE_BATCH_BYTES`]) and sends the lot with one `write_all`, so a
/// backlog costs one syscall per batch and an idle connection still sends
/// a lone response at once.
fn writer_loop(
    mut stream: TcpStream,
    out_rx: Receiver<Response>,
    closed: Arc<AtomicBool>,
    depth: Arc<Gauge>,
    batch_frames: Arc<Histogram>,
    recorder: Option<Arc<FlightRecorder>>,
) {
    let mut batch = Vec::with_capacity(WRITE_BATCH_BYTES);
    // `(trace id, subscription id)` of the batch's tail-sampled deliveries.
    let mut sampled = Vec::new();
    while let Ok(first) = out_rx.recv() {
        let mut frames = 0;
        let mut next = Some(first);
        while let Some(resp) = next {
            encode_response_into(&mut batch, &resp);
            frames += 1;
            if let (Some(r), Response::Delivery { subscription_id, message }) = (&recorder, &resp) {
                if let Some(t) = message.trace.filter(|t| r.is_sampled(t.trace_id)) {
                    sampled.push((t.trace_id, *subscription_id));
                }
            }
            next = if batch.len() < WRITE_BATCH_BYTES { out_rx.try_recv().ok() } else { None };
        }
        // Responses still queued behind the batch: the connection's
        // outbound backlog.
        depth.set(out_rx.len() as i64);
        batch_frames.record(frames);
        // Every sampled delivery in the batch gets a wire-flush span
        // appended to its chain: the one write that carried its bytes off
        // the server.
        let flush_start = (!sampled.is_empty()).then(|| (clock::now(), Instant::now()));
        if stream.write_all(&batch).is_err() {
            closed.store(true, Ordering::Relaxed);
            break;
        }
        if let (Some(r), Some((start_ticks, t0))) = (&recorder, flush_start) {
            let duration_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            for (trace_id, subscription_id) in sampled.drain(..) {
                r.record(SpanEvent {
                    trace_id,
                    stage: Stage::WireFlush,
                    start_ticks,
                    duration_ns,
                    aux: u64::from(subscription_id),
                });
            }
        }
        batch.clear();
        // One oversized frame must not pin its allocation to the connection.
        batch.shrink_to(2 * WRITE_BATCH_BYTES);
    }
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

fn reader_loop(stream: TcpStream, conn: &mut Connection) {
    let mut frames = FrameReader::new(stream);
    loop {
        if conn.closed.load(Ordering::Relaxed) {
            break;
        }
        let body = match frames.next_frame() {
            Ok(Some(body)) => body,
            Ok(None) | Err(_) => break,
        };
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
            return conn.out.send(Response::Pong { request_id }).is_ok();
        }
        Request::Hello { request_id, features } => {
            conn.traced.store(features & FEATURE_TRACE != 0, Ordering::Relaxed);
            // Flow control is only negotiated when both sides support it;
            // otherwise the client is paced by the compatibility throttle.
            conn.flow_negotiated = features & FEATURE_FLOW != 0 && conn.gate.is_some();
            if conn.out.send(Response::Ok { request_id }).is_err() {
                return false;
            }
            if conn.flow_negotiated {
                // Open the credit window with a full initial grant.
                conn.credit = Some(CreditWindow::new(CREDIT_WINDOW));
                return conn.out.send(Response::CreditGrant { credits: CREDIT_WINDOW }).is_ok();
            }
            return true;
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
            let outcome = match conn.subscriptions.remove(&subscription_id) {
                Some(flag) => {
                    flag.store(true, Ordering::Relaxed);
                    Ok(())
                }
                None => Err(format!("unknown subscription {subscription_id}")),
            };
            (request_id, outcome)
        }
    };
    let response = match outcome {
        Ok(()) => Response::Ok { request_id },
        Err(message) => Response::Error { request_id, message },
    };
    conn.out.send(response).is_ok()
}

/// Handles one publish request end to end: credit replenishment for flow
/// peers, admission, and the outcome response. Returns `false` when the
/// connection should close.
fn handle_publish(
    conn: &mut Connection,
    request_id: u32,
    topic: &str,
    message: WireMessage,
) -> bool {
    // The client spent one credit sending this publish, whatever its
    // outcome; replenish every half window.
    let grant = conn.credit.as_mut().and_then(CreditWindow::consume);
    let response = match publish(conn, topic, message) {
        Ok(()) => Response::Ok { request_id },
        Err(Error::PublishShed { class }) if conn.flow_negotiated => {
            Response::PublishDenied { request_id, class, deferred: false, retry_after_ms: 0 }
        }
        Err(Error::PublishDeferred { class, retry_after_ms }) if conn.flow_negotiated => {
            Response::PublishDenied { request_id, class, deferred: true, retry_after_ms }
        }
        // Pre-flow peers only ever see the original error frame.
        Err(e) => Response::Error { request_id, message: e.to_string() },
    };
    if conn.out.send(response).is_err() {
        return false;
    }
    match grant {
        Some(credits) => conn.out.send(Response::CreditGrant { credits }).is_ok(),
        None => true,
    }
}

/// Longest total delay the compatibility throttle puts on a pre-flow
/// client's deferred publish before it answers with an error frame: long
/// enough for a burst to drain, short of a client's request timeout.
const COMPAT_MAX_WAIT: Duration = Duration::from_millis(250);

fn publish(conn: &mut Connection, topic: &str, message: WireMessage) -> Result<(), Error> {
    if !conn.publishers.contains_key(topic) {
        let publisher = conn.broker.publisher(topic)?;
        conn.publishers.insert(topic.to_owned(), publisher);
    }
    let publisher = conn.publishers.get(topic).expect("just inserted");
    if conn.flow_negotiated || conn.gate.is_none() {
        return publisher.publish(message.into_message());
    }
    // Compatibility throttle: a pre-flow peer cannot understand the flow
    // opcodes, so deferred publishes are absorbed server-side — retry up
    // to `COMPAT_MAX_WAIT`, then fall back to a plain error frame.
    // Shed publishes fail immediately (waiting would not help).
    let deadline = Instant::now() + COMPAT_MAX_WAIT;
    loop {
        match publisher.publish(message.clone().into_message()) {
            Err(Error::PublishDeferred { class, retry_after_ms }) => {
                let retry = Duration::from_millis(retry_after_ms);
                if Instant::now() + retry > deadline {
                    return Err(Error::PublishDeferred { class, retry_after_ms });
                }
                std::thread::sleep(retry);
            }
            other => return other,
        }
    }
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
    if conn.subscriptions.contains_key(&subscription_id) {
        return Err(format!("subscription id {subscription_id} already in use"));
    }
    let filter = build_filter(filter)?;
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
    let subscriber = builder.filter(filter).open().map_err(|e| e.to_string())?;

    let cancel = Arc::new(AtomicBool::new(false));
    conn.subscriptions.insert(subscription_id, Arc::clone(&cancel));

    // Forwarder: pumps deliveries into the connection's writer.
    let out = conn.out.clone();
    let closed = Arc::clone(&conn.closed);
    let traced = Arc::clone(&conn.traced);
    std::thread::Builder::new()
        .name(format!("rjms-net-fwd-{subscription_id}"))
        .spawn(move || {
            while !cancel.load(Ordering::Relaxed) && !closed.load(Ordering::Relaxed) {
                match subscriber.receive_timeout(Duration::from_millis(50)) {
                    Some(message) => {
                        let mut wire = WireMessage::from_message(&message);
                        if !traced.load(Ordering::Relaxed) {
                            // Pre-handshake client: strip the context so the
                            // frame encodes with the original opcode.
                            wire = wire.without_trace();
                        }
                        let delivery = Response::Delivery { subscription_id, message: wire };
                        if out.send(delivery).is_err() {
                            // Connection died mid-delivery: hand the pulled
                            // message back so a durable subscription retains
                            // it instead of losing it.
                            subscriber.return_message(message);
                            break;
                        }
                    }
                    None => {
                        // Timeout: loop to re-check the cancel flags. A
                        // closed broker also lands here via the drained
                        // channel; detect it through the closed flag.
                    }
                }
            }
            // Dropping `subscriber` cancels the broker-side subscription.
        })
        .expect("failed to spawn forwarder thread");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::encode_response;
    use std::io::Read;

    #[test]
    fn writer_puts_queued_responses_on_the_socket_in_order_and_in_batches() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();

        // Every kind of response, then deliveries enough to pass the batch
        // cap a few times, all queued before the writer starts.
        let delivery = |subscription_id, len| Response::Delivery {
            subscription_id,
            message: WireMessage::from_message(
                &rjms_broker::Message::builder().correlation_id("#1").body(vec![7; len]).build(),
            ),
        };
        let mut queued = vec![
            Response::Ok { request_id: 1 },
            Response::Error { request_id: 2, message: "no".into() },
            Response::Pong { request_id: 3 },
            Response::CreditGrant { credits: 4 },
            Response::PublishDenied { request_id: 5, class: 1, deferred: true, retry_after_ms: 6 },
            delivery(6, 3 * WRITE_BATCH_BYTES),
        ];
        queued.extend((0..2_000).map(|i| delivery(i, 100)));
        let (out_tx, out_rx) = unbounded();
        for response in &queued {
            out_tx.send(response.clone()).unwrap();
        }
        drop(out_tx);

        let reader = std::thread::spawn(move || {
            let mut bytes = Vec::new();
            peer.read_to_end(&mut bytes).unwrap();
            bytes
        });
        let metrics = MetricsRegistry::new();
        let batch_frames = metrics.histogram("net.writer.batch_frames");
        let closed = Arc::new(AtomicBool::new(false));
        writer_loop(
            stream,
            out_rx,
            closed,
            metrics.gauge("depth"),
            Arc::clone(&batch_frames),
            None,
        );

        let expected: Vec<u8> = queued.iter().flat_map(|r| encode_response(r).to_vec()).collect();
        assert!(reader.join().unwrap() == expected, "bytes differ from the frames in queue order");
        // One sample per write, each frame counted once: the oversized
        // delivery closes the first batch, the rest go out a cap at a time.
        let batches = batch_frames.snapshot();
        assert_eq!(batches.sum, queued.len() as u64);
        assert!(batches.count < 10, "{} writes for {} frames", batches.count, queued.len());
    }
}
