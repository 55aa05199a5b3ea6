//! Dependency-free HTTP/1.1 exposition endpoint.
//!
//! Serves the broker's observability surfaces to scrapers and humans. The
//! routes are the rows of one table in this file, `ROUTES` — it drives
//! dispatch and the `/` index — and each row's handler documents what its
//! body carries and when the route is a 404 instead. Every JSON body is
//! written with [`rjms_metrics::JsonWriter`], each block that appears in
//! more than one body by one function (DESIGN.md §3.8 has the map).
//!
//! The server is deliberately minimal — blocking I/O, one thread per
//! connection, `Connection: close` on every response — because its
//! audience is a scraper polling every few seconds, not a serving
//! workload. It has no dependencies beyond the standard library, in
//! keeping with the offline build environment. It is nevertheless
//! defensive at the parsing layer: unknown paths get 404, non-GET methods
//! 405, malformed heads 400, an oversized request line 414, an oversized
//! header block 431, and a stalled or truncated head is abandoned on a
//! read timeout instead of hanging the connection thread.

use rjms_broker::{
    BrokerObserver, BrokerSnapshot, FlowGate, FlowSnapshot, ShardReport, TopicObservatorySnapshot,
    FLAG_RATIO, PER_TOPIC_SERIES,
};
use rjms_core::regression::{FittedCosts, RegressionVerdict};
use rjms_core::{CostParams, ModelVerdict};
use rjms_metrics::{clock, JsonWriter, MetricsRegistry};
use rjms_obs::{Forecast, ObsCore, Reduce};
use rjms_trace::{group_chains, FlightRecorder, TraceChain};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Everything the endpoint can expose. Build one with the chained setters,
/// then hand it to [`HttpServer::start`].
#[derive(Clone, Default)]
pub struct HttpState {
    registries: Vec<MetricsRegistry>,
    observer: Option<BrokerObserver>,
    recorder: Option<Arc<FlightRecorder>>,
    obs: Option<Arc<Mutex<ObsCore>>>,
    flow: Option<Arc<FlowGate>>,
}

impl std::fmt::Debug for HttpState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HttpState")
            .field("registries", &self.registries.len())
            .field("observer", &self.observer.is_some())
            .field("recorder", &self.recorder.is_some())
            .finish()
    }
}

impl HttpState {
    /// An empty state: every endpoint answers, with empty bodies where
    /// nothing is attached.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a metrics registry; `/metrics` and `/snapshot.json`
    /// concatenate all attached registries in order.
    #[must_use]
    pub fn registry(mut self, registry: MetricsRegistry) -> Self {
        self.registries.push(registry);
        self
    }

    /// Attaches the broker's read side: the counter snapshot for
    /// `/snapshot.json`, the model reports for `/shards` and `/model`, the
    /// observatory for `/topics`.
    #[must_use]
    pub fn observer(mut self, observer: BrokerObserver) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Attaches the span-event flight recorder for `/traces`.
    #[must_use]
    pub fn recorder(mut self, recorder: Arc<FlightRecorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Attaches the SLO engine for `/history` and `/slo` (typically [`rjms_obs::ObsRuntime::core`]).
    #[must_use]
    pub fn obs(mut self, core: Arc<Mutex<ObsCore>>) -> Self {
        self.obs = Some(core);
        self
    }

    /// Attaches the admission gate for `/flow` (typically
    /// [`rjms_broker::Broker::flow`]).
    #[must_use]
    pub fn flow(mut self, gate: Arc<FlowGate>) -> Self {
        self.flow = Some(gate);
        self
    }
}

/// The running exposition server; shuts down on [`HttpServer::shutdown`]
/// or drop.
pub struct HttpServer {
    addr: SocketAddr,
    stopping: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for HttpServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HttpServer").field("addr", &self.addr).finish()
    }
}

impl HttpServer {
    /// Binds and starts serving in a background thread.
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the address cannot be bound.
    pub fn start(state: HttpState, addr: impl ToSocketAddrs) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stopping = Arc::new(AtomicBool::new(false));
        let stop = Arc::clone(&stopping);
        let acceptor =
            std::thread::Builder::new().name("rjms-http".to_owned()).spawn(move || {
                for stream in listener.incoming() {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let state = state.clone();
                    // One short-lived thread per request: the endpoint is
                    // scraped every few seconds, not load-bearing.
                    let _ = std::thread::Builder::new()
                        .name("rjms-http-conn".to_owned())
                        .spawn(move || serve_connection(stream, &state));
                }
            })?;
        Ok(HttpServer { addr, stopping, acceptor: Some(acceptor) })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting and joins the acceptor thread. In-flight responses
    /// finish on their own threads.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.stopping.store(true, Ordering::Relaxed);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        if self.acceptor.is_some() {
            self.stop();
        }
    }
}

/// Why an endpoint has no body: the status line and a plain-text reason.
type Refusal = (&'static str, &'static str);
/// What a route's handler makes of the state and the query string.
type Reply = Result<String, Refusal>;
/// One route: its path, the content type of its 200, its line in the `/`
/// index, and the handler.
type Route = (&'static str, &'static str, &'static str, fn(&HttpState, &str) -> Reply);

const NOT_FOUND: &str = "404 Not Found";
const BAD_REQUEST: &str = "400 Bad Request";
const TEXT: &str = "text/plain; charset=utf-8";
const PROMETHEUS: &str = "text/plain; version=0.0.4; charset=utf-8";
const JSON: &str = "application/json";

/// Every route the endpoint serves: dispatch and the `/` index both read
/// this table (README.md and DESIGN.md §3.8 describe the same ten rows).
const ROUTES: &[Route] = &[
    ("/", TEXT, "this index", index),
    ("/metrics", PROMETHEUS, "Prometheus text format", metrics),
    ("/snapshot.json", JSON, "broker + registry snapshot (JSON)", snapshot),
    ("/traces", JSON, "tail-sampled message span chains (JSON)", traces),
    ("/model", TEXT, "per-shard analytic-model drift verdicts", model),
    ("/history", JSON, "metric history series (?metric=&window=&reduce=)", history),
    ("/slo", JSON, "objective burn rates, forecast and alert feed (JSON)", slo),
    ("/flow", JSON, "admission-gate calibration and counters (JSON)", flow),
    ("/shards", JSON, "per-shard model assessments + shard-skew measurement (JSON)", shards),
    ("/topics", JSON, "per-topic workload observatory (JSON)", topics),
];

fn serve_connection(mut stream: TcpStream, state: &HttpState) {
    stream.set_read_timeout(Some(Duration::from_secs(5))).ok();
    let refuse = |stream: &mut TcpStream, status, reason| respond(stream, status, TEXT, reason);
    let (method, target) = match read_request_head(&mut stream) {
        RequestHead::Ok { method, target } => (method, target),
        RequestHead::Closed => return, // nothing readable: don't guess a reply
        RequestHead::Malformed => return refuse(&mut stream, BAD_REQUEST, "malformed request\n"),
        RequestHead::LineTooLong => {
            return refuse(&mut stream, "414 URI Too Long", "request line too long\n")
        }
        RequestHead::HeadTooLarge => {
            let status = "431 Request Header Fields Too Large";
            return refuse(&mut stream, status, "request head too large\n");
        }
    };
    if method != "GET" {
        return refuse(&mut stream, "405 Method Not Allowed", "only GET is supported\n");
    }
    let (path, query) = target.split_once('?').unwrap_or((target.as_str(), ""));
    let Some(&(_, content_type, _, handler)) = ROUTES.iter().find(|route| route.0 == path) else {
        return refuse(&mut stream, NOT_FOUND, "unknown path\n");
    };
    match handler(state, query) {
        Ok(body) => respond(&mut stream, "200 OK", content_type, &body),
        Err((status, reason)) => refuse(&mut stream, status, reason),
    }
}

/// `/` — the routes of [`ROUTES`], one per line.
fn index(_: &HttpState, _: &str) -> Reply {
    let mut out = String::from("rjms exposition endpoints:\n");
    for (path, _, about, _) in ROUTES {
        out.push_str(&format!("{path:<16}{about}\n"));
    }
    Ok(out)
}

/// `/metrics` — Prometheus text format (version 0.0.4) rendered from every
/// attached [`MetricsRegistry`], in order: counters, gauges, and
/// histograms with cumulative buckets (`_ns` instruments are rewritten to
/// `_seconds` base units).
fn metrics(state: &HttpState, _: &str) -> Reply {
    Ok(state.registries.iter().map(|r| r.snapshot().render_prometheus()).collect())
}

/// `/snapshot.json` — the typed broker snapshot (message counters,
/// subscription topology, journal state, per-topic totals; `null` with no
/// broker attached) plus the full JSON form of every registry.
fn snapshot(state: &HttpState, _: &str) -> Reply {
    Ok(JsonWriter::document(|w| {
        w.object(|w| {
            let broker = state.observer.as_ref().map(BrokerObserver::snapshot);
            w.key("broker").optional(broker.as_ref(), broker_json);
            w.key("registries").array(|w| {
                state.registries.iter().for_each(|r| r.snapshot().write_json(w));
            });
        });
    }))
}

/// `/traces` — the flight recorder's span chains (see [`rjms_trace`]):
/// tail-sampled slow messages plus the uniform baseline, grouped per trace
/// id in pipeline order. 404 without tracing.
fn traces(state: &HttpState, _: &str) -> Reply {
    let recorder = state.recorder.as_ref().ok_or((NOT_FOUND, "tracing disabled\n"))?;
    let snap = recorder.snapshot();
    let chains = group_chains(snap.events);
    Ok(JsonWriter::document(|w| {
        chains_json(&chains, clock::ns_per_tick(), snap.recorded, snap.capacity, w);
    }))
}

/// `/model` — the analytic-model check as text, computed at request time
/// from the attached broker's per-shard reports: per shard that has served
/// messages, the Eq. 1 + M/GI/1 verdict and the measured-vs-predicted
/// table, then the slowest traced chains after a drift verdict.
fn model(state: &HttpState, _: &str) -> Reply {
    let text = state.observer.as_ref().map(BrokerObserver::model_text).unwrap_or_default();
    Ok(if text.is_empty() { "no model assessment yet\n".to_owned() } else { text })
}

/// `/slo` — burn rates, states and budget remaining for every objective,
/// the engine's latest saturation forecast (λ(t) trend, analytic breach
/// points, time-to-breach ETAs with confidence bands, the Little's-law
/// telemetry self-check) with the knobs it was computed under, and the
/// recent alert transitions with their evidence. 404 without the engine.
fn slo(state: &HttpState, _: &str) -> Reply {
    with_obs(state, |core| Ok(core.render_slo_json()))
}

/// `/history?metric=…&window=…&reduce=…` — per-slot series and
/// merged-window summary from the SLO engine's metric history
/// ([`rjms_obs::history`]). 404 without the engine.
fn history(state: &HttpState, query: &str) -> Reply {
    with_obs(state, |core| history_json(core, query))
}

/// `/flow` — the admission gate's live calibration (λ_max, its source,
/// bucket fill, per-class grant/defer/shed counters). 404 without flow
/// control.
fn flow(state: &HttpState, _: &str) -> Reply {
    let gate = state.flow.as_ref().ok_or((NOT_FOUND, "flow control disabled\n"))?;
    Ok(JsonWriter::document(|w| flow_json(&gate.snapshot(), w)))
}

/// `/shards` — per-shard model assessments (measured operating point vs
/// Eq. 1 + M/GI/1 evaluated per dispatcher shard; empty unless the broker
/// can anchor the model on a cost model or flow control). With the topic
/// observatory on, the body also carries a `rebalance` block: per-shard
/// load shares and the max/mean skew ratio.
/// 404 with no broker attached.
fn shards(state: &HttpState, _: &str) -> Reply {
    let observer = observer(state)?;
    let (reports, observatory) = (observer.shard_reports(), observer.topic_observatory());
    Ok(JsonWriter::document(|w| shards_json(&reports, observatory.as_ref(), state, w)))
}

/// `/topics` — the per-topic workload observatory: arrival rates, mean
/// filter/replication/service observations, online-fitted Eq. 1 cost
/// constants and drift verdicts per topic plus the pooled global fit. 404
/// unless the broker runs with `topic_obs` enabled.
fn topics(state: &HttpState, _: &str) -> Reply {
    let snap = observer(state)?.topic_observatory();
    let snap = snap.ok_or((NOT_FOUND, "topic observatory disabled\n"))?;
    Ok(JsonWriter::document(|w| topics_json(&snap, w)))
}

fn observer(state: &HttpState) -> Result<&BrokerObserver, Refusal> {
    state.observer.as_ref().ok_or((NOT_FOUND, "no broker attached\n"))
}

/// The body `render` makes from the SLO engine's state, when there is one.
fn with_obs(state: &HttpState, render: impl FnOnce(&ObsCore) -> Reply) -> Reply {
    let obs = state.obs.as_ref().ok_or((NOT_FOUND, "slo engine disabled\n"))?;
    obs.lock().map_or(Ok(String::new()), |core| render(&core))
}

/// Answers `/history?metric=…[&window=…][&reduce=…]`.
///
/// `window` accepts plain seconds or an `s`/`m`/`h` suffix (default
/// `60s`); `reduce` is `rate`, `level`, `count`, or a quantile like `q99`
/// (default: `q99` for `*_ns` instruments, `rate` otherwise).
fn history_json(core: &ObsCore, query: &str) -> Reply {
    let metric =
        query_param(query, "metric").ok_or((BAD_REQUEST, "missing ?metric= parameter\n"))?;
    let window = match query_param(query, "window") {
        None => Duration::from_secs(60),
        Some(raw) => parse_window(raw).ok_or((BAD_REQUEST, "bad window (try 90s, 5m, 2h)\n"))?,
    };
    let reduce = match query_param(query, "reduce") {
        None if metric.ends_with("_ns") => Reduce::Quantile(0.99),
        None => Reduce::Rate,
        Some(raw) => parse_reduce(raw).ok_or((
            BAD_REQUEST,
            "bad reduce (rate, level, count, mean, or q99-style quantile)\n",
        ))?,
    };
    Ok(core.render_history_json(metric, window, reduce))
}

/// First value of a `key=value` pair in a query string (no
/// percent-decoding: metric names are plain dotted identifiers).
fn query_param<'a>(query: &'a str, key: &str) -> Option<&'a str> {
    query.split('&').find_map(|pair| {
        let (k, v) = pair.split_once('=')?;
        (k == key).then_some(v)
    })
}

/// Parses `90`, `90s`, `5m`, or `2h` into a duration.
fn parse_window(raw: &str) -> Option<Duration> {
    let (digits, scale) = match raw.as_bytes().last()? {
        b's' => (&raw[..raw.len() - 1], 1),
        b'm' => (&raw[..raw.len() - 1], 60),
        b'h' => (&raw[..raw.len() - 1], 3600),
        _ => (raw, 1),
    };
    let n: u64 = digits.parse().ok()?;
    (n > 0).then(|| Duration::from_secs(n * scale))
}

/// Parses `rate`, `level`, `count`, `mean`, or `q<digits>` (`q99` →
/// 0.99, `q9999` → 0.9999).
fn parse_reduce(raw: &str) -> Option<Reduce> {
    match raw {
        "rate" => Some(Reduce::Rate),
        "level" => Some(Reduce::Level),
        "count" => Some(Reduce::Count),
        "mean" => Some(Reduce::Mean),
        _ => {
            let digits = raw.strip_prefix('q')?;
            if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
                return None;
            }
            let p: f64 = format!("0.{digits}").parse().ok()?;
            (p > 0.0 && p < 1.0).then_some(Reduce::Quantile(p))
        }
    }
}

/// Cap on the request line (method + target + version).
const MAX_REQUEST_LINE: usize = 4 * 1024;
/// Cap on the whole head (request line + headers + blank line).
const MAX_HEAD: usize = 16 * 1024;

/// Outcome of reading a request head.
enum RequestHead {
    /// A parseable request line arrived.
    Ok {
        /// The HTTP method token.
        method: String,
        /// The request target (path plus optional query).
        target: String,
    },
    /// The peer closed, stalled past the read timeout, or errored before a
    /// complete head arrived.
    Closed,
    /// A complete head arrived but the request line is not HTTP-shaped.
    Malformed,
    /// The request line exceeded [`MAX_REQUEST_LINE`].
    LineTooLong,
    /// The head exceeded [`MAX_HEAD`].
    HeadTooLarge,
}

/// Reads the request head (everything through the blank line), tolerating
/// arbitrary chunking of the incoming bytes. Bounded: the request line may
/// not exceed [`MAX_REQUEST_LINE`] bytes and the whole head
/// [`MAX_HEAD`]; a peer that stalls mid-head trips the stream's read
/// timeout and is abandoned.
fn read_request_head(stream: &mut TcpStream) -> RequestHead {
    let mut head = Vec::with_capacity(512);
    let mut buf = [0u8; 512];
    loop {
        // Size caps come before the terminator check so a head that blows
        // a cap is rejected even when its final chunk also carries the
        // terminating blank line.
        if !head[..head.len().min(MAX_REQUEST_LINE)].contains(&b'\n')
            && head.len() > MAX_REQUEST_LINE
        {
            return RequestHead::LineTooLong;
        }
        if head.len() > MAX_HEAD {
            return RequestHead::HeadTooLarge;
        }
        if head.windows(4).any(|w| w == b"\r\n\r\n") {
            break;
        }
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => return RequestHead::Closed,
            Ok(n) => head.extend_from_slice(&buf[..n]),
        }
    }
    let head = String::from_utf8_lossy(&head);
    let Some(line) = head.lines().next() else {
        return RequestHead::Malformed;
    };
    if line.len() > MAX_REQUEST_LINE {
        return RequestHead::LineTooLong;
    }
    let mut parts = line.split_whitespace();
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return RequestHead::Malformed;
    };
    if !version.starts_with("HTTP/") {
        return RequestHead::Malformed;
    }
    RequestHead::Ok { method: method.to_owned(), target: target.to_owned() }
}

/// Writes status line, headers, and body as one buffer with a single
/// `write_all`, so concurrent responses never interleave mid-line.
fn respond(stream: &mut TcpStream, status: &str, content_type: &str, body: &str) {
    let mut out = String::with_capacity(128 + body.len());
    out.push_str("HTTP/1.1 ");
    out.push_str(status);
    out.push_str("\r\nContent-Type: ");
    out.push_str(content_type);
    out.push_str("\r\nContent-Length: ");
    out.push_str(&body.len().to_string());
    out.push_str("\r\nConnection: close\r\n\r\n");
    out.push_str(body);
    let _ = stream.write_all(out.as_bytes());
    let _ = stream.flush();
}

/// The `granted` / `deferred` / `shed` members of an admission counter
/// block, written into the open object.
fn outcome_members(granted: u64, deferred: u64, shed: u64, w: &mut JsonWriter) {
    w.field("granted", granted);
    w.field("deferred", deferred);
    w.field("shed", shed);
}

/// The `t_rcv` / `t_fltr` / `t_tx` / `t_store` members of a set of Eq. 1
/// constants, written into the open object.
fn cost_members(p: &CostParams, w: &mut JsonWriter) {
    w.field("t_rcv", p.t_rcv);
    w.field("t_fltr", p.t_fltr);
    w.field("t_tx", p.t_tx);
    w.field("t_store", p.t_store);
}

/// One side of a model comparison — measured or predicted — as an object.
fn operating_point_json(rho: f64, service: f64, waiting: f64, q99: f64, w: &mut JsonWriter) {
    w.object(|w| {
        w.field("utilization", rho);
        w.field("mean_service_time", service);
        w.field("mean_waiting_time", waiting);
        w.field("q99", q99);
    });
}

/// The `broker` object of `/snapshot.json`.
fn broker_json(snap: &BrokerSnapshot, w: &mut JsonWriter) {
    w.object(|w| {
        let m = &snap.messages;
        w.key("messages").object(|w| {
            w.field("received", m.received);
            w.field("dispatched", m.dispatched);
            w.field("filter_evaluations", m.filter_evaluations);
            w.field("dropped", m.dropped);
            w.field("retained", m.retained);
            w.field("expired", m.expired);
        });
        let s = &snap.subscriptions;
        w.key("subscriptions").object(|w| {
            w.field("topics", s.topics);
            w.field("live", s.live);
            w.field("durable", s.durable);
            w.field("expired", s.expired);
        });
        w.key("journal").optional(snap.journal.as_ref(), |j, w| {
            w.object(|w| {
                w.field("appends", j.appends);
                w.field("bytes_appended", j.bytes_appended);
                w.field("fsyncs", j.fsyncs);
                w.field("frames_recovered", j.frames_recovered);
                w.field("torn_bytes_truncated", j.torn_bytes_truncated);
                w.field("segments_rotated", j.segments_rotated);
                w.field("segments_removed", j.segments_removed);
            });
        });
        w.key("flow").optional(snap.flow.as_ref(), |f, w| {
            w.object(|w| outcome_members(f.granted, f.deferred, f.shed, w));
        });
        // The `shards` key only appears for sharded brokers, keeping the
        // single-dispatcher snapshot body byte-identical to earlier releases.
        if let Some(shards) = &snap.shards {
            w.key("shards").array(|w| {
                for s in shards {
                    w.object(|w| {
                        w.field("shard", s.shard);
                        w.field("topics", s.topics);
                        w.field("received", s.received);
                        w.field("dispatched", s.dispatched);
                        w.field("filter_evaluations", s.filter_evaluations);
                    });
                }
            });
        }
        w.key("per_topic").object(|w| {
            for (name, t) in &snap.per_topic {
                w.key(name).object(|w| {
                    w.field("received", t.received);
                    w.field("dispatched", t.dispatched);
                });
            }
        });
        w.field("topics_overflowed", snap.topics_overflowed);
    });
}

/// The `/traces` body. `ns_per_tick` converts the stored tick timestamps
/// into per-event `offset_ns` values relative to each chain's start;
/// `recorded` and `capacity` come from the recorder snapshot the chains
/// were grouped from.
fn chains_json(
    chains: &[TraceChain],
    ns_per_tick: f64,
    recorded: u64,
    capacity: usize,
    w: &mut JsonWriter,
) {
    w.object(|w| {
        w.field("recorded", recorded);
        w.field("capacity", capacity);
        w.field("ns_per_tick", ns_per_tick);
        w.key("chains").array(|w| {
            for chain in chains {
                let start = chain.start_ticks();
                w.object(|w| {
                    w.field("trace_id", chain.trace_id);
                    w.field("start_ticks", start);
                    w.field("complete", chain.is_complete());
                    w.field("monotone", chain.timestamps_monotone());
                    w.field("total_duration_ns", chain.total_duration_ns());
                    w.key("events").array(|w| {
                        for e in &chain.events {
                            let offset = e.start_ticks.saturating_sub(start) as f64 * ns_per_tick;
                            w.object(|w| {
                                w.field("stage", e.stage.name());
                                w.field("start_ticks", e.start_ticks);
                                w.field("offset_ns", offset as u64);
                                w.field("duration_ns", e.duration_ns);
                                w.field("aux", e.aux);
                            });
                        }
                    });
                });
            }
        });
    });
}

/// The `/shards` body. When flow control is attached, each shard also
/// carries its own admission budget, its lane's `λ_max`
/// ([`FlowGate::shard_budget`]). When
/// the SLO engine is attached and judges as many shards, each shard carries
/// the engine's latest forecast for it ([`ObsCore::shards`]). When the
/// topic observatory is on, the body also carries its skew measurement as
/// the `rebalance` block.
fn shards_json(
    reports: &[ShardReport],
    observatory: Option<&TopicObservatorySnapshot>,
    state: &HttpState,
    w: &mut JsonWriter,
) {
    let obs_core = state.obs.as_ref().and_then(|o| o.lock().ok());
    let engine = obs_core.as_ref().map(|core| core.shards()).filter(|s| s.len() == reports.len());
    w.object(|w| {
        w.key("shards").array(|w| {
            for r in reports {
                let forecast = engine.and_then(|shards| shards[r.shard].forecast.as_ref());
                w.object(|w| {
                    w.field("shard", r.shard);
                    w.field("samples", r.samples);
                    w.field("arrival_rate", r.arrival_rate);
                    w.field("filters", r.filters);
                    w.field("replication_grade", r.replication_grade);
                    w.field("lambda_budget", state.flow.as_ref().map(|g| g.shard_budget(r.shard)));
                    w.key("verdict");
                    model_verdict_json(&r.verdict, w);
                    w.key("forecast").optional(forecast, Forecast::write_json);
                });
            }
        });
        w.key("rebalance").optional(observatory, rebalance_json);
    });
}

/// A shard's model verdict: its kind plus, for calibrated/drift, both
/// sides of the comparison and the number of violated tolerances.
fn model_verdict_json(verdict: &ModelVerdict, w: &mut JsonWriter) {
    w.object(|w| match verdict {
        ModelVerdict::Insufficient { samples, required } => {
            w.field("kind", "insufficient");
            w.field("samples", *samples);
            w.field("required", *required);
        }
        ModelVerdict::Overloaded { utilization } => {
            w.field("kind", "overloaded");
            w.field("utilization", *utilization);
        }
        ModelVerdict::Calibrated(report) | ModelVerdict::Drift(report) => {
            w.field("kind", if verdict.is_calibrated() { "calibrated" } else { "drift" });
            let (m, p) = (&report.measured, &report.predicted);
            let (service, waiting) = (m.mean_service_time, m.mean_waiting_time);
            operating_point_json(m.utilization, service, waiting, m.q99, w.key("measured"));
            let (service, waiting) = (p.mean_service_time, p.mean_waiting_time);
            operating_point_json(p.utilization, service, waiting, p.q99, w.key("predicted"));
            w.field("violations", report.violations.len());
        }
        // `ModelVerdict` is non-exhaustive: future variants degrade to
        // their kind name only.
        other => w.field("kind", format!("{other:?}")),
    });
}

/// The shard-skew measurement (ratio, flag, per-shard shares) of an
/// observatory snapshot: the `rebalance` block of `/shards`.
fn rebalance_json(snap: &TopicObservatorySnapshot, w: &mut JsonWriter) {
    let skew = snap.skew();
    w.object(|w| {
        w.field("max_mean_ratio", skew.max_mean_ratio);
        w.field("skewed", skew.skewed);
        w.field("flag_ratio", FLAG_RATIO);
        w.key("shares").array(|w| {
            for s in &skew.shares {
                w.object(|w| {
                    w.field("shard", s.shard);
                    w.field("offered_load", s.offered_load);
                    w.field("arrival_share", s.arrival_share);
                    w.field("load_share", s.load_share);
                });
            }
        });
    });
}

/// The `/topics` body.
fn topics_json(snap: &TopicObservatorySnapshot, w: &mut JsonWriter) {
    w.object(|w| {
        w.field("elapsed_secs", snap.elapsed.as_secs_f64());
        w.field("shards", snap.shards);
        w.field("per_topic_cap", PER_TOPIC_SERIES);
        w.field("overflowed_topics", snap.overflowed_topics);
        w.key("anchor").optional(snap.anchor.as_ref(), |a, w| w.object(|w| cost_members(a, w)));
        w.key("global").object(|w| {
            w.key("fitted").optional(snap.global_fitted.as_ref(), fitted_json);
            w.key("verdict").optional(snap.global_verdict.as_ref(), regression_verdict_json);
        });
        w.key("topics").array(|w| {
            for t in &snap.topics {
                w.object(|w| {
                    w.field("name", &t.name);
                    w.field("shard", t.shard);
                    w.field("messages", t.messages);
                    w.field("arrival_rate", t.arrival_rate);
                    w.field("mean_filters", t.mean_filters);
                    w.field("mean_replication", t.mean_replication);
                    w.field("mean_service_time", t.mean_service_time);
                    w.key("fitted").optional(t.fitted.as_ref(), fitted_json);
                    w.key("verdict").optional(t.verdict.as_ref(), regression_verdict_json);
                });
            }
        });
    });
}

/// An adaptive fit.
fn fitted_json(f: &FittedCosts, w: &mut JsonWriter) {
    w.object(|w| {
        w.field("mode", f.mode.to_string());
        cost_members(&f.params, w);
        w.field("residual_rms", f.residual_rms);
        w.field("r_squared", f.r_squared);
        w.field("observations", f.observations);
    });
}

/// A regression verdict: its kind plus, for stable/drift, the
/// out-of-tolerance components.
fn regression_verdict_json(verdict: &RegressionVerdict, w: &mut JsonWriter) {
    w.object(|w| {
        w.field("kind", verdict.kind());
        if let RegressionVerdict::Insufficient { samples, required } = verdict {
            w.field("samples", *samples);
            w.field("required", *required);
        }
        if let Some(report) = verdict.report() {
            w.key("deviations").array(|w| {
                for d in &report.deviations {
                    w.object(|w| {
                        w.field("component", d.component);
                        w.field("fitted", d.fitted);
                        w.field("configured", d.configured);
                        w.field("error", d.error);
                        w.field("tolerance", d.tolerance);
                    });
                }
            });
        }
    });
}

/// The `/flow` body.
fn flow_json(s: &FlowSnapshot, w: &mut JsonWriter) {
    w.object(|w| {
        w.field("lambda_max", s.lambda_max);
        w.field("rho_max", s.rho_max);
        w.field("w99_objective", s.w99_objective);
        w.field("headroom", s.headroom);
        w.field("source", s.source);
        w.field("refreshes", s.refreshes);
        w.field("classes", s.classes);
        w.field("bucket_level", s.bucket_level);
        w.field("bucket_burst", s.bucket_burst);
        w.field("producers", s.producers);
        w.key("per_class").array(|w| {
            for c in &s.per_class {
                w.object(|w| {
                    w.field("class", c.class);
                    outcome_members(c.granted, c.deferred, c.shed, w);
                });
            }
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use rjms_obs::{ForecastConfig, ObsConfig};

    fn server(state: HttpState) -> HttpServer {
        HttpServer::start(state, "127.0.0.1:0").expect("bind")
    }

    /// Sends raw bytes (in the given chunks, with a pause between them)
    /// and returns the full response text.
    fn raw_request(addr: SocketAddr, chunks: &[&[u8]]) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        for (i, chunk) in chunks.iter().enumerate() {
            if i > 0 {
                std::thread::sleep(Duration::from_millis(20));
            }
            stream.write_all(chunk).expect("write");
            stream.flush().ok();
        }
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        response
    }

    fn get(addr: SocketAddr, path: &str) -> String {
        raw_request(addr, &[format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes()])
    }

    fn status_of(response: &str) -> &str {
        response.split("\r\n").next().unwrap_or("")
    }

    #[test]
    fn unknown_path_is_404() {
        let s = server(HttpState::new());
        let r = get(s.local_addr(), "/nope");
        assert_eq!(status_of(&r), "HTTP/1.1 404 Not Found");
        s.shutdown();
    }

    #[test]
    fn non_get_method_is_405() {
        let s = server(HttpState::new());
        let r = raw_request(s.local_addr(), &[b"POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n"]);
        assert_eq!(status_of(&r), "HTTP/1.1 405 Method Not Allowed");
        s.shutdown();
    }

    #[test]
    fn malformed_request_line_is_400() {
        let s = server(HttpState::new());
        let r = raw_request(s.local_addr(), &[b"BOGUS\r\n\r\n"]);
        assert_eq!(status_of(&r), "HTTP/1.1 400 Bad Request");
        let r = raw_request(s.local_addr(), &[b"GET /metrics NOTHTTP\r\n\r\n"]);
        assert_eq!(status_of(&r), "HTTP/1.1 400 Bad Request");
        s.shutdown();
    }

    #[test]
    fn oversized_request_line_is_414() {
        let s = server(HttpState::new());
        let long_path = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_REQUEST_LINE + 10));
        let r = raw_request(s.local_addr(), &[long_path.as_bytes()]);
        assert_eq!(status_of(&r), "HTTP/1.1 414 URI Too Long");
        s.shutdown();
    }

    #[test]
    fn oversized_header_block_is_431() {
        let s = server(HttpState::new());
        let huge = format!("GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "b".repeat(MAX_HEAD + 10));
        let r = raw_request(s.local_addr(), &[huge.as_bytes()]);
        assert_eq!(status_of(&r), "HTTP/1.1 431 Request Header Fields Too Large");
        s.shutdown();
    }

    #[test]
    fn partial_writes_are_assembled() {
        let s = server(HttpState::new());
        let r = raw_request(s.local_addr(), &[b"GET / HT", b"TP/1.1\r\nHo", b"st: t\r\n", b"\r\n"]);
        assert_eq!(status_of(&r), "HTTP/1.1 200 OK");
        s.shutdown();
    }

    #[test]
    fn truncated_head_then_close_gets_no_response() {
        let s = server(HttpState::new());
        let mut stream = TcpStream::connect(s.local_addr()).expect("connect");
        stream.write_all(b"GET / HTTP/1.1\r\nHost: t\r\n").expect("write");
        // Half-close the write side: the server sees EOF mid-head and must
        // drop the connection rather than answer or hang.
        stream.shutdown(std::net::Shutdown::Write).expect("shutdown");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        assert!(response.is_empty(), "unexpected response: {response}");
        s.shutdown();
    }

    #[test]
    fn slo_endpoints_404_without_engine() {
        let s = server(HttpState::new());
        for path in ["/slo", "/history?metric=x", "/flow"] {
            let r = get(s.local_addr(), path);
            assert_eq!(status_of(&r), "HTTP/1.1 404 Not Found", "path {path}");
        }
        s.shutdown();
    }

    /// The `/` index lists exactly the table's paths, and on an empty state
    /// every one of them answers 200 or the 404 its handler documents.
    #[test]
    fn index_lists_the_route_table_and_every_route_answers() {
        let s = server(HttpState::new());
        let r = get(s.local_addr(), "/");
        let listed: Vec<&str> =
            r.lines().filter(|l| l.starts_with('/')).filter_map(|l| l.split(' ').next()).collect();
        let table: Vec<&str> = ROUTES.iter().map(|route| route.0).collect();
        assert_eq!(listed, table);
        assert_eq!(table.len(), 10);
        for path in table {
            let refusal = match path {
                "/traces" => Some("tracing disabled"),
                "/history" | "/slo" => Some("slo engine disabled"),
                "/flow" => Some("flow control disabled"),
                "/shards" | "/topics" => Some("no broker attached"),
                _ => None,
            };
            let r = get(s.local_addr(), path);
            match refusal {
                None => assert_eq!(status_of(&r), "HTTP/1.1 200 OK", "path {path}"),
                Some(reason) => {
                    assert_eq!(status_of(&r), "HTTP/1.1 404 Not Found", "path {path}");
                    assert!(r.ends_with(&format!("{reason}\n")), "path {path}: {r}");
                }
            }
        }
        s.shutdown();
    }

    #[test]
    fn flow_endpoint_renders_gate_snapshot() {
        use rjms_broker::FlowConfig;
        let gate = Arc::new(FlowGate::new(FlowConfig::default(), 1));
        let s = server(HttpState::new().flow(gate));
        let r = get(s.local_addr(), "/flow");
        assert_eq!(status_of(&r), "HTTP/1.1 200 OK");
        for key in ["\"lambda_max\":", "\"source\":\"analytic\"", "\"per_class\":["] {
            assert!(r.contains(key), "missing {key} in body: {r}");
        }
        s.shutdown();
    }

    fn obs_state() -> HttpState {
        let registry = MetricsRegistry::new();
        let waiting = registry.histogram("broker.waiting_ns");
        let mut core = ObsCore::new(ObsConfig::default());
        for t in 1..=3u64 {
            waiting.record(500_000);
            core.tick(Duration::from_secs(t), &registry.snapshot(), None);
        }
        HttpState::new().registry(registry).obs(Arc::new(Mutex::new(core)))
    }

    /// `/slo` carries what `/alerts` served (the transition feed; its
    /// `active` list was a projection of `objectives`), and both old routes
    /// are unknown paths now.
    #[test]
    fn slo_and_alerts_render_json() {
        let s = server(obs_state());
        let r = get(s.local_addr(), "/slo");
        assert_eq!(status_of(&r), "HTTP/1.1 200 OK");
        for key in ["\"objectives\":[{\"name\":", "\"state\":", "\"since_ms\":", "\"events\":["] {
            assert!(r.contains(key), "missing {key} in body: {r}");
        }
        for path in ["/alerts", "/forecast"] {
            let r = get(s.local_addr(), path);
            assert_eq!(status_of(&r), "HTTP/1.1 404 Not Found", "path {path}");
            assert!(r.ends_with("unknown path\n"), "path {path}: {r}");
        }
        s.shutdown();
    }

    /// `/slo` carries what `/forecast` served: the forecast and its knobs.
    #[test]
    fn forecast_endpoint_renders_knobs_and_forecast() {
        let s = server(obs_state());
        let r = get(s.local_addr(), "/slo");
        assert_eq!(status_of(&r), "HTTP/1.1 200 OK");
        for key in [
            "\"forecast_config\":{\"enabled\":true,\"horizon_ms\":",
            "\"trend_window_ms\":",
            "\"min_confidence\":",
            "\"forecast\":",
        ] {
            assert!(r.contains(key), "missing {key} in body: {r}");
        }
        s.shutdown();
    }

    /// A one-shard broker publishes no `{shard="0"}` series: its one server's
    /// series are the unlabeled ones, and its `/shards` row carries the
    /// forecast `/slo` shows.
    #[test]
    fn a_single_shard_row_carries_the_slo_forecast() {
        use rjms_obs::minijson::{parse, Value};
        let registry = MetricsRegistry::new();
        let waiting = registry.histogram("broker.waiting_ns");
        let service = registry.histogram("broker.service_ns");
        let forecast =
            ForecastConfig { trend_window: Duration::from_secs(10), ..Default::default() };
        let mut core = ObsCore::new(ObsConfig { forecast, ..ObsConfig::default() });
        for t in 1..=12u64 {
            for _ in 0..50 + 25 * t {
                waiting.record(500_000);
                service.record(1_000_000);
            }
            core.tick(Duration::from_secs(t), &registry.snapshot(), None);
        }
        let slo = parse(&core.render_slo_json()).unwrap();
        let state = HttpState::new().obs(Arc::new(Mutex::new(core)));
        let reports = &fixture::shard_reports(false)[..1];
        let shards =
            parse(&JsonWriter::document(|w| shards_json(reports, None, &state, w))).unwrap();
        let row = shards.get("shards").map(Value::items).unwrap_or_default();
        let forecast = row.first().and_then(|r| r.get("forecast")).expect("one row");
        assert_ne!(forecast, &Value::Null, "the ramp is forecast");
        assert_eq!(Some(forecast), slo.get("forecast"));
    }

    #[test]
    fn history_serves_backlog_mean_series() {
        let registry = MetricsRegistry::new();
        let waiting = registry.histogram("broker.waiting_ns");
        let backlog = registry.histogram("broker.backlog");
        let mut core = ObsCore::new(ObsConfig::default());
        for t in 1..=3u64 {
            waiting.record(500_000);
            backlog.record(4);
            core.tick(Duration::from_secs(t), &registry.snapshot(), None);
        }
        let s = server(HttpState::new().registry(registry).obs(Arc::new(Mutex::new(core))));
        let r = get(s.local_addr(), "/history?metric=broker.backlog&reduce=mean");
        assert_eq!(status_of(&r), "HTTP/1.1 200 OK");
        assert!(r.contains("\"reduce\":\"mean\""), "body: {r}");
        s.shutdown();
    }

    #[test]
    fn history_requires_metric_and_validates_params() {
        let s = server(obs_state());
        let r = get(s.local_addr(), "/history");
        assert_eq!(status_of(&r), "HTTP/1.1 400 Bad Request");
        let r = get(s.local_addr(), "/history?metric=broker.waiting_ns&window=soon");
        assert_eq!(status_of(&r), "HTTP/1.1 400 Bad Request");
        let r = get(s.local_addr(), "/history?metric=broker.waiting_ns&reduce=zigzag");
        assert_eq!(status_of(&r), "HTTP/1.1 400 Bad Request");
        let r = get(s.local_addr(), "/history?metric=broker.waiting_ns&window=5m&reduce=q99");
        assert_eq!(status_of(&r), "HTTP/1.1 200 OK");
        assert!(r.contains("\"points\":["), "body: {r}");
        assert!(r.contains("\"metric\":\"broker.waiting_ns\""), "body: {r}");
        s.shutdown();
    }

    #[test]
    fn topics_endpoint_404_without_observatory() {
        use rjms_broker::{Broker, BrokerConfig};
        // Observer attached but the observatory disabled: explicit 404.
        let broker = Broker::start(BrokerConfig::default());
        let s = server(HttpState::new().observer(broker.observer()));
        let r = get(s.local_addr(), "/topics");
        assert_eq!(status_of(&r), "HTTP/1.1 404 Not Found");
        assert!(r.contains("topic observatory disabled"), "body: {r}");
        s.shutdown();
        broker.shutdown();
        // No broker attached at all: also 404.
        let s = server(HttpState::new());
        let r = get(s.local_addr(), "/topics");
        assert_eq!(status_of(&r), "HTTP/1.1 404 Not Found");
        s.shutdown();
    }

    #[test]
    fn topics_and_rebalance_render_with_observatory() {
        use rjms_broker::{Broker, BrokerConfig, Message, TopicObsConfig};
        let broker =
            Broker::start(BrokerConfig::builder().topic_obs(TopicObsConfig::default()).build());
        broker.create_topic("t").unwrap();
        let sub = broker.subscription("t").open().unwrap();
        let publisher = broker.publisher("t").unwrap();
        for _ in 0..32 {
            publisher.publish(Message::builder().build()).unwrap();
        }
        for _ in 0..32 {
            sub.receive_timeout(Duration::from_secs(1)).expect("delivered");
        }
        let s = server(HttpState::new().observer(broker.observer()));
        // The dispatcher merges its staged observations when idle; poll
        // until the row shows up.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let body = loop {
            let r = get(s.local_addr(), "/topics");
            assert_eq!(status_of(&r), "HTTP/1.1 200 OK");
            if r.contains("\"name\":\"t\"") {
                break r;
            }
            assert!(std::time::Instant::now() < deadline, "no observatory row: {r}");
            std::thread::sleep(Duration::from_millis(20));
        };
        for key in
            ["\"per_topic_cap\":64", "\"overflowed_topics\":0", "\"global\":{", "\"arrival_rate\":"]
        {
            assert!(body.contains(key), "missing {key} in {body}");
        }
        // The observatory also feeds the /shards rebalance block.
        let r = get(s.local_addr(), "/shards");
        assert_eq!(status_of(&r), "HTTP/1.1 200 OK");
        for key in ["\"rebalance\":{", "\"max_mean_ratio\":", "\"shares\":["] {
            assert!(r.contains(key), "missing {key} in {r}");
        }
        // And the snapshot carries the overflow counter.
        let r = get(s.local_addr(), "/snapshot.json");
        assert!(r.contains("\"topics_overflowed\":0"), "body: {r}");
        s.shutdown();
        broker.shutdown();
    }

    #[test]
    fn window_and_reduce_parsers() {
        assert_eq!(parse_window("90"), Some(Duration::from_secs(90)));
        assert_eq!(parse_window("90s"), Some(Duration::from_secs(90)));
        assert_eq!(parse_window("5m"), Some(Duration::from_secs(300)));
        assert_eq!(parse_window("2h"), Some(Duration::from_secs(7200)));
        assert_eq!(parse_window("0"), None);
        assert_eq!(parse_window("m"), None);
        assert_eq!(parse_window("-5s"), None);
        assert_eq!(parse_reduce("rate"), Some(Reduce::Rate));
        assert_eq!(parse_reduce("mean"), Some(Reduce::Mean));
        assert_eq!(parse_reduce("q99"), Some(Reduce::Quantile(0.99)));
        assert_eq!(parse_reduce("q9999"), Some(Reduce::Quantile(0.9999)));
        assert_eq!(parse_reduce("q"), None);
        assert_eq!(parse_reduce("q0"), None);
        assert_eq!(parse_reduce("p99"), None);
    }

    /// The keys of a JSON text, in document order.
    fn member_order(json: &str) -> Vec<&str> {
        let mut keys = Vec::new();
        let mut rest = json;
        while let Some(open) = rest.find('"') {
            let body = &rest[open + 1..];
            let mut close = 0;
            while body.as_bytes()[close] != b'"' {
                close += if body.as_bytes()[close] == b'\\' { 2 } else { 1 };
            }
            rest = &body[close + 1..];
            if rest.starts_with(':') {
                keys.push(&body[..close]);
            }
        }
        keys
    }

    /// Each body against the one PR 19 (`38e064e`) rendered from the same
    /// input: equal parsed values and the same member order everywhere,
    /// the same bytes where no float is printed. The parent printed `f64`
    /// with `{}`; what it made of a NaN or an infinity did not parse.
    #[test]
    fn bodies_match_the_parents_goldens() {
        use rjms_obs::minijson::parse;
        let state = HttpState::new();
        let body = |bad: bool, name: &str| {
            JsonWriter::document(|w| match name {
                "broker" => broker_json(&fixture::broker(), w),
                "flow" => flow_json(&fixture::flow(bad), w),
                "topics" => topics_json(&fixture::observatory(bad), w),
                "shards" => {
                    let observatory = fixture::observatory(bad);
                    shards_json(&fixture::shard_reports(bad), Some(&observatory), &state, w);
                }
                _ => {
                    let ns_per_tick = if bad { f64::NAN } else { 0.25 };
                    chains_json(&fixture::chains(), ns_per_tick, 6, 1024, w);
                }
            })
        };
        for (name, parent) in [
            ("broker", BROKER),
            ("flow", FLOW),
            ("topics", TOPICS),
            ("shards", SHARDS),
            ("traces", TRACES),
        ] {
            let ours = body(false, name);
            assert_eq!(parse(&ours).unwrap(), parse(parent).unwrap(), "{name}: {ours}");
            assert_eq!(member_order(&ours), member_order(parent), "{name}: {ours}");
            if name == "broker" {
                assert_eq!(ours, parent, "integer-only bodies keep their bytes");
            }
            let hostile = body(true, name);
            assert!(parse(&hostile).is_ok(), "{name} with NaN and inf inputs: {hostile}");
        }
        // What the parent made of `fixture::flow(true)`'s `headroom`.
        assert!(parse(r#"{"headroom":NaN}"#).is_err());
        let empty = JsonWriter::document(|w| chains_json(&[], f64::INFINITY, 0, 16, w));
        assert_eq!(empty, r#"{"recorded":0,"capacity":16,"ns_per_tick":null,"chains":[]}"#);
    }

    const BROKER: &str = r#"{"messages":{"received":7,"dispatched":21,"filter_evaluations":14,"dropped":1,"retained":2,"expired":3},"subscriptions":{"topics":2,"live":3,"durable":1,"expired":4},"journal":{"appends":12,"bytes_appended":340,"fsyncs":3,"frames_recovered":7,"torn_bytes_truncated":5,"segments_rotated":2,"segments_removed":1},"flow":{"granted":6,"deferred":1,"shed":0},"shards":[{"shard":0,"topics":1,"received":3,"dispatched":9,"filter_evaluations":7},{"shard":1,"topics":1,"received":4,"dispatched":9,"filter_evaluations":7}],"per_topic":{"a\\b\"c{d=\"e\",f}":{"received":7,"dispatched":21},"plain":{"received":0,"dispatched":0}},"topics_overflowed":1}"#;
    // Less the parent's `credit_window` member: the wire has no credit window.
    const FLOW: &str = r#"{"lambda_max":159677.25,"rho_max":0.30000000000000004,"w99_objective":0.01,"headroom":1,"source":"analytic","refreshes":9,"classes":2,"bucket_level":0.0000001,"bucket_burst":1596,"producers":4,"per_class":[{"class":0,"granted":5,"deferred":1,"shed":0},{"class":1,"granted":5,"deferred":1,"shed":0}]}"#;
    const TOPICS: &str = r#"{"elapsed_secs":2.5,"shards":2,"per_topic_cap":64,"overflowed_topics":3,"anchor":{"t_rcv":0.000000852,"t_fltr":0.00000702,"t_tx":0.000017,"t_store":0},"global":{"fitted":{"mode":"full","t_rcv":0.00000085,"t_fltr":0.000007,"t_tx":0.000017,"t_store":0,"residual_rms":0.0000001,"r_squared":1,"observations":4096},"verdict":{"kind":"drift","deviations":[{"component":"t_fltr","fitted":0.000009,"configured":0.00000702,"error":0.30000000000000004,"tolerance":0.25}]}},"topics":[{"name":"a\\b\"c{d=\"e\",f}","shard":0,"messages":4096,"arrival_rate":20000,"mean_filters":1,"mean_replication":2.5,"mean_service_time":0.000024999999999999998,"fitted":{"mode":"full","t_rcv":0.00000085,"t_fltr":0.000009,"t_tx":0.000017,"t_store":0,"residual_rms":0.0000001,"r_squared":1,"observations":4096},"verdict":{"kind":"drift","deviations":[{"component":"t_fltr","fitted":0.000009,"configured":0.00000702,"error":0.30000000000000004,"tolerance":0.25}]}},{"name":"b","shard":0,"messages":4096,"arrival_rate":12000,"mean_filters":1,"mean_replication":2.5,"mean_service_time":0.000024999999999999998,"fitted":null,"verdict":{"kind":"insufficient","samples":12,"required":256}},{"name":"c","shard":1,"messages":4096,"arrival_rate":4000,"mean_filters":1,"mean_replication":2.5,"mean_service_time":0.000024999999999999998,"fitted":null,"verdict":null}]}"#;
    const SHARDS: &str = r#"{"shards":[{"shard":0,"samples":5000,"arrival_rate":12000,"filters":1,"replication_grade":2.5,"lambda_budget":null,"verdict":{"kind":"insufficient","samples":3,"required":1000},"forecast":null},{"shard":1,"samples":5000,"arrival_rate":12000,"filters":1,"replication_grade":2.5,"lambda_budget":null,"verdict":{"kind":"overloaded","utilization":1.25},"forecast":null},{"shard":2,"samples":5000,"arrival_rate":12000,"filters":1,"replication_grade":2.5,"lambda_budget":null,"verdict":{"kind":"calibrated","measured":{"utilization":0.30000000000000004,"mean_service_time":0.0000249,"mean_waiting_time":0.0000001,"q99":0.0001},"predicted":{"utilization":0.3,"mean_service_time":0.0000249,"mean_waiting_time":0.0000053,"q99":0.00006},"violations":0},"forecast":null},{"shard":3,"samples":5000,"arrival_rate":12000,"filters":1,"replication_grade":2.5,"lambda_budget":null,"verdict":{"kind":"drift","measured":{"utilization":0.30000000000000004,"mean_service_time":0.0000249,"mean_waiting_time":0.0000001,"q99":0.0001},"predicted":{"utilization":0.3,"mean_service_time":0.0000249,"mean_waiting_time":0.0000053,"q99":0.00006},"violations":0},"forecast":null}],"rebalance":{"max_mean_ratio":1.777777777777778,"skewed":true,"flag_ratio":1.25,"shares":[{"shard":0,"offered_load":0.7999999999999999,"arrival_share":0.8888888888888888,"load_share":0.888888888888889},{"shard":1,"offered_load":0.09999999999999999,"arrival_share":0.1111111111111111,"load_share":0.11111111111111112}]}}"#;
    const TRACES: &str = r#"{"recorded":6,"capacity":1024,"ns_per_tick":0.250000,"chains":[{"trace_id":7,"start_ticks":1000,"complete":true,"monotone":true,"total_duration_ns":1000,"events":[{"stage":"receive","start_ticks":1000,"offset_ns":0,"duration_ns":250,"aux":3},{"stage":"journal","start_ticks":1010,"offset_ns":2,"duration_ns":250,"aux":3},{"stage":"filter","start_ticks":1020,"offset_ns":5,"duration_ns":250,"aux":3},{"stage":"fanout","start_ticks":1030,"offset_ns":7,"duration_ns":250,"aux":3}]},{"trace_id":8,"start_ticks":2000,"complete":false,"monotone":true,"total_duration_ns":500,"events":[{"stage":"filter","start_ticks":2000,"offset_ns":0,"duration_ns":250,"aux":3},{"stage":"wire_flush","start_ticks":2040,"offset_ns":10,"duration_ns":250,"aux":3}]}]}"#;

    /// Fixed inputs for the golden bodies: values include `1.0`, `1e-7` and
    /// `0.1 + 0.2`; `bad` swaps two floats for NaN and +inf.
    mod fixture {
        use rjms_broker::{
            BrokerSnapshot, FlowCounters, FlowSnapshot, JournalStats, MessageCounters, ShardReport,
            ShardSnapshot, SubscriptionCounters, TopicObsRow, TopicObservatorySnapshot, TopicStats,
        };
        use rjms_core::monitor::{DriftReport, MeasuredSummary};
        use rjms_core::regression::{
            CostDeviation, FitMode, FittedCosts, RegressionReport, RegressionVerdict,
        };
        use rjms_core::{CostParams, ModelVerdict, WaitingTimeReport};
        use rjms_flow::ClassSnapshot;
        use rjms_trace::{group_chains, SpanEvent, Stage, TraceChain};
        use std::time::Duration;

        pub const HOSTILE: &str = "a\\b\"c{d=\"e\",f}";

        pub fn floats(bad: bool) -> (f64, f64) {
            [(1.0, 1e-7), (f64::NAN, f64::INFINITY)][usize::from(bad)]
        }

        pub fn broker() -> BrokerSnapshot {
            BrokerSnapshot {
                messages: MessageCounters {
                    received: 7,
                    dispatched: 21,
                    filter_evaluations: 14,
                    dropped: 1,
                    retained: 2,
                    expired: 3,
                },
                subscriptions: SubscriptionCounters { topics: 2, live: 3, durable: 1, expired: 4 },
                journal: Some(JournalStats {
                    appends: 12,
                    bytes_appended: 340,
                    fsyncs: 3,
                    frames_recovered: 7,
                    torn_bytes_truncated: 5,
                    segments_rotated: 2,
                    segments_removed: 1,
                }),
                flow: Some(FlowCounters { granted: 6, deferred: 1, shed: 0 }),
                shards: Some(
                    (0..2)
                        .map(|shard| ShardSnapshot {
                            shard,
                            topics: 1,
                            received: 3 + shard as u64,
                            dispatched: 9,
                            filter_evaluations: 7,
                        })
                        .collect(),
                ),
                per_topic: [
                    (HOSTILE.to_owned(), TopicStats { received: 7, dispatched: 21 }),
                    ("plain".to_owned(), TopicStats { received: 0, dispatched: 0 }),
                ]
                .into(),
                topics_overflowed: 1,
            }
        }

        pub fn flow(bad: bool) -> FlowSnapshot {
            let (one, tiny) = floats(bad);
            FlowSnapshot {
                lambda_max: 159_677.25,
                rho_max: 0.1 + 0.2,
                w99_objective: 0.01,
                headroom: one,
                source: "analytic",
                refreshes: 9,
                classes: 2,
                bucket_level: tiny,
                bucket_burst: 1596.0,
                producers: 4,
                per_class: (0..2)
                    .map(|class| ClassSnapshot { class, granted: 5, deferred: 1, shed: 0 })
                    .collect(),
            }
        }

        fn fitted(t_fltr: f64) -> FittedCosts {
            FittedCosts {
                params: CostParams { t_rcv: 8.5e-7, t_fltr, t_tx: 1.7e-5, t_store: 0.0 },
                mode: FitMode::Full,
                residual_rms: 1e-7,
                r_squared: 1.0,
                observations: 4096,
            }
        }

        pub fn observatory(bad: bool) -> TopicObservatorySnapshot {
            let (one, tiny) = floats(bad);
            let anchor = CostParams::CORRELATION_ID;
            let drift = RegressionVerdict::Drift(RegressionReport {
                fitted: fitted(9e-6),
                anchor,
                deviations: vec![CostDeviation {
                    component: "t_fltr",
                    fitted: 9e-6,
                    configured: 7.02e-6,
                    error: 0.1 + 0.2,
                    tolerance: 0.25,
                }],
            });
            let row = |name: &str, shard, arrival_rate, fitted, verdict| TopicObsRow {
                name: name.to_owned(),
                shard,
                messages: 4096,
                arrival_rate,
                mean_filters: one,
                mean_replication: 2.5,
                mean_service_time: tiny * 250.0,
                fitted,
                verdict,
            };
            let warming = RegressionVerdict::Insufficient { samples: 12, required: 256 };
            TopicObservatorySnapshot {
                elapsed: Duration::from_millis(2500),
                anchor: Some(anchor),
                shards: 2,
                overflowed_topics: 3,
                global_fitted: Some(fitted(7e-6)),
                global_verdict: Some(drift.clone()),
                topics: vec![
                    row(HOSTILE, 0, 20_000.0, Some(fitted(9e-6)), Some(drift)),
                    row("b", 0, 12_000.0, None, Some(warming)),
                    row("c", 1, 4_000.0, None, None),
                ],
            }
        }

        pub fn shard_reports(bad: bool) -> Vec<ShardReport> {
            let (one, tiny) = floats(bad);
            let measured = MeasuredSummary {
                samples: 5000,
                arrival_rate: 12_000.0,
                mean_service_time: 2.49e-5,
                service_cvar: 0.0,
                utilization: 0.1 + 0.2,
                mean_waiting_time: tiny,
                q99: 1e-4,
                q9999: 2e-4,
            };
            let predicted = WaitingTimeReport {
                utilization: 0.3,
                mean_service_time: 2.49e-5,
                service_cvar: 0.0,
                arrival_rate: 12_000.0,
                mean_waiting_time: 5.3e-6,
                q99: 6e-5,
                q9999: 1.2e-4,
                mean_queue_length: 0.064,
            };
            let report = DriftReport { measured, predicted, violations: Vec::new() };
            [
                ModelVerdict::Insufficient { samples: 3, required: 1000 },
                ModelVerdict::Overloaded { utilization: 1.25 },
                ModelVerdict::Calibrated(report.clone()),
                ModelVerdict::Drift(report),
            ]
            .into_iter()
            .enumerate()
            .map(|(shard, verdict)| ShardReport {
                shard,
                samples: 5000,
                arrival_rate: 12_000.0,
                filters: one,
                replication_grade: 2.5,
                verdict,
            })
            .collect()
        }

        pub fn chains() -> Vec<TraceChain> {
            let event = |trace_id, stage, start_ticks| SpanEvent {
                trace_id,
                stage,
                start_ticks,
                duration_ns: 250,
                aux: 3,
            };
            let mut events: Vec<SpanEvent> = Stage::BROKER_STAGES
                .iter()
                .enumerate()
                .map(|(i, stage)| event(7, *stage, 1000 + 10 * i as u64))
                .collect();
            events.push(event(8, Stage::Filter, 2000));
            events.push(event(8, Stage::WireFlush, 2040));
            group_chains(events)
        }
    }
}
