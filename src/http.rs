//! Dependency-free HTTP/1.1 exposition endpoint.
//!
//! Serves the broker's observability surfaces to scrapers and humans:
//!
//! * `GET /metrics` — Prometheus text format (version 0.0.4) rendered from
//!   every attached [`MetricsRegistry`]: counters, gauges, and histograms
//!   with cumulative buckets (`_ns` instruments are rewritten to
//!   `_seconds` base units).
//! * `GET /snapshot.json` — the typed broker snapshot (message counters,
//!   subscription topology, journal state, per-topic totals) plus the full
//!   JSON form of every registry.
//! * `GET /traces` — the flight recorder's span chains as JSON (see
//!   [`rjms_trace`]): tail-sampled slow messages plus the uniform baseline,
//!   grouped per trace id in pipeline order.
//! * `GET /model` — the latest analytic-model verdict text (Eq. 1 +
//!   M/GI/1 drift check), when the host wires one in.
//! * `GET /history?metric=…&window=…&reduce=…` — per-slot series and
//!   merged-window summary from the SLO engine's metric history
//!   ([`rjms_obs::history`]), when one is attached.
//! * `GET /slo` — burn rates, states, and budget remaining for every
//!   objective, plus the engine's latest saturation forecast.
//! * `GET /forecast` — the predictive layer on its own: λ(t) trend,
//!   analytic breach points, time-to-breach ETAs with confidence bands,
//!   and the Little's-law telemetry self-check.
//! * `GET /alerts` — active alert states plus the recent transition feed
//!   with evidence.
//! * `GET /flow` — the admission gate's live calibration (λ_max, its
//!   source, bucket fill, per-class grant/defer/shed counters) as JSON,
//!   when flow control is enabled.
//! * `GET /shards` — per-shard model assessments (measured operating
//!   point vs Eq. 1 + M/GI/1 evaluated per dispatcher shard) as JSON,
//!   when a broker observer is attached and the broker can anchor the
//!   model (a cost model or flow control). With the topic observatory on,
//!   the body also carries a `rebalance` block: per-shard load shares,
//!   the max/mean skew ratio, and the advisor's topic moves.
//! * `GET /topics` — the per-topic workload observatory (arrival rates,
//!   mean filter/replication/service observations, online-fitted Eq. 1
//!   cost constants and drift verdicts per topic plus the pooled global
//!   fit), when the broker runs with `topic_obs` enabled.
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
    BrokerObserver, BrokerSnapshot, FlowGate, ShardReport, TopicObsRow, TopicObservatorySnapshot,
};
use rjms_core::regression::{FittedCosts, RegressionVerdict};
use rjms_core::ModelVerdict;
use rjms_metrics::json::write_escaped;
use rjms_metrics::{clock, labeled, MetricsRegistry};
use rjms_obs::slo::{SERVICE_METRIC, WAITING_METRIC};
use rjms_obs::topics::{analyze_skew, SkewConfig, TopicLoad};
use rjms_obs::{ObsCore, Reduce, BACKLOG_METRIC};
use rjms_trace::{group_chains, render_chains_json, FlightRecorder};
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
    model: Arc<Mutex<String>>,
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

    /// Attaches the broker counter snapshot source for `/snapshot.json`.
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

    /// The shared text buffer behind `/model`. A monitoring thread can
    /// lock it and replace the contents with each new verdict; the
    /// endpoint serves whatever is current.
    pub fn model_text(&self) -> Arc<Mutex<String>> {
        Arc::clone(&self.model)
    }

    /// Attaches the SLO engine for `/history`, `/slo`, and `/alerts`
    /// (typically [`rjms_obs::ObsRuntime::core`]).
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

/// Why a JSON endpoint has no body: the status line and a plain-text reason.
type Refusal = (&'static str, &'static str);

const NOT_FOUND: &str = "404 Not Found";
const BAD_REQUEST: &str = "400 Bad Request";

fn serve_connection(mut stream: TcpStream, state: &HttpState) {
    stream.set_read_timeout(Some(Duration::from_secs(5))).ok();
    let refuse =
        |stream: &mut TcpStream, status, reason| respond(stream, status, "text/plain", reason);
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
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target.as_str(), ""),
    };
    // The text endpoints answer directly; every JSON endpoint yields its
    // body, or the reason there is none.
    let observer = state.observer.as_ref().ok_or((NOT_FOUND, "no broker attached\n"));
    let json: Result<String, Refusal> = match path {
        "/" => {
            let index = "rjms exposition endpoints:\n\
             /metrics        Prometheus text format\n\
             /snapshot.json  broker + registry snapshot (JSON)\n\
             /traces         tail-sampled message span chains (JSON)\n\
             /model          latest analytic-model drift verdict\n\
             /history        metric history series (?metric=&window=&reduce=)\n\
             /slo            objective burn rates and budgets (JSON)\n\
             /forecast       time-to-breach saturation forecast (JSON)\n\
             /alerts         alert states and transition feed (JSON)\n\
             /flow           admission-gate calibration and counters (JSON)\n\
             /shards         per-shard model assessments + rebalance advice (JSON)\n\
             /topics         per-topic workload observatory (JSON)\n";
            return respond(&mut stream, "200 OK", "text/plain; charset=utf-8", index);
        }
        "/metrics" => {
            let mut body = String::new();
            for registry in &state.registries {
                body.push_str(&registry.snapshot().render_prometheus());
            }
            let content_type = "text/plain; version=0.0.4; charset=utf-8";
            return respond(&mut stream, "200 OK", content_type, &body);
        }
        "/model" => {
            let text = state.model.lock().map(|t| t.clone()).unwrap_or_default();
            let body = if text.is_empty() { "no model assessment yet\n" } else { &text };
            return respond(&mut stream, "200 OK", "text/plain; charset=utf-8", body);
        }
        "/snapshot.json" => Ok(render_snapshot_json(state)),
        "/traces" => state.recorder.as_ref().ok_or((NOT_FOUND, "tracing disabled\n")).map(|r| {
            let snap = r.snapshot();
            let chains = group_chains(snap.events);
            render_chains_json(&chains, clock::ns_per_tick(), snap.recorded, snap.capacity)
        }),
        "/slo" => obs_json(state, |core| Ok(core.render_slo_json())),
        "/forecast" => obs_json(state, |core| Ok(core.render_forecast_json())),
        "/alerts" => obs_json(state, |core| Ok(core.render_alerts_json())),
        "/history" => obs_json(state, |core| history_json(core, query)),
        "/flow" => match &state.flow {
            Some(gate) => Ok(render_flow_json(gate)),
            None => Err((NOT_FOUND, "flow control disabled\n")),
        },
        "/shards" => observer
            .map(|o| render_shards_json(&o.shard_reports(), o.topic_observatory().as_ref(), state)),
        "/topics" => observer.and_then(|o| match o.topic_observatory() {
            Some(snap) => Ok(render_topics_json(&snap)),
            None => Err((NOT_FOUND, "topic observatory disabled\n")),
        }),
        _ => Err((NOT_FOUND, "unknown path\n")),
    };
    match json {
        Ok(body) => respond(&mut stream, "200 OK", "application/json", &body),
        Err((status, reason)) => refuse(&mut stream, status, reason),
    }
}

/// The body `render` makes from the SLO engine's state, when there is one.
fn obs_json(
    state: &HttpState,
    render: impl FnOnce(&ObsCore) -> Result<String, Refusal>,
) -> Result<String, Refusal> {
    let obs = state.obs.as_ref().ok_or((NOT_FOUND, "slo engine disabled\n"))?;
    obs.lock().map_or(Ok(String::new()), |core| render(&core))
}

/// Answers `/history?metric=…[&window=…][&reduce=…]`.
///
/// `window` accepts plain seconds or an `s`/`m`/`h` suffix (default
/// `60s`); `reduce` is `rate`, `level`, `count`, or a quantile like `q99`
/// (default: `q99` for `*_ns` instruments, `rate` otherwise).
fn history_json(core: &ObsCore, query: &str) -> Result<String, Refusal> {
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

fn render_snapshot_json(state: &HttpState) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str("{\"broker\":");
    match &state.observer {
        Some(observer) => render_broker_json(&mut out, &observer.snapshot()),
        None => out.push_str("null"),
    }
    out.push_str(",\"registries\":[");
    for (i, registry) in state.registries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&registry.snapshot().to_json());
    }
    out.push_str("]}");
    out
}

fn render_broker_json(out: &mut String, snap: &BrokerSnapshot) {
    use std::fmt::Write;
    let m = &snap.messages;
    let _ = write!(
        out,
        "{{\"messages\":{{\"received\":{},\"dispatched\":{},\"filter_evaluations\":{},\
         \"dropped\":{},\"retained\":{},\"expired\":{}}}",
        m.received, m.dispatched, m.filter_evaluations, m.dropped, m.retained, m.expired
    );
    let s = &snap.subscriptions;
    let _ = write!(
        out,
        ",\"subscriptions\":{{\"topics\":{},\"live\":{},\"durable\":{},\"expired\":{}}}",
        s.topics, s.live, s.durable, s.expired
    );
    match &snap.journal {
        Some(j) => {
            let _ = write!(
                out,
                ",\"journal\":{{\"appends\":{},\"bytes_appended\":{},\"fsyncs\":{},\
                 \"frames_recovered\":{},\"torn_bytes_truncated\":{},\"segments_rotated\":{},\
                 \"segments_removed\":{}}}",
                j.appends,
                j.bytes_appended,
                j.fsyncs,
                j.frames_recovered,
                j.torn_bytes_truncated,
                j.segments_rotated,
                j.segments_removed
            );
        }
        None => out.push_str(",\"journal\":null"),
    }
    match &snap.flow {
        Some(fc) => {
            let _ = write!(
                out,
                ",\"flow\":{{\"granted\":{},\"deferred\":{},\"shed\":{}}}",
                fc.granted, fc.deferred, fc.shed
            );
        }
        None => out.push_str(",\"flow\":null"),
    }
    // The `shards` key only appears for sharded brokers, keeping the
    // single-dispatcher snapshot body byte-identical to earlier releases.
    if let Some(shards) = &snap.shards {
        out.push_str(",\"shards\":[");
        for (i, s) in shards.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"shard\":{},\"topics\":{},\"received\":{},\"dispatched\":{},\
                 \"filter_evaluations\":{}}}",
                s.shard, s.topics, s.received, s.dispatched, s.filter_evaluations
            );
        }
        out.push(']');
    }
    out.push_str(",\"per_topic\":{");
    for (i, (name, t)) in snap.per_topic.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_escaped(out, name);
        let _ = write!(out, ":{{\"received\":{},\"dispatched\":{}}}", t.received, t.dispatched);
    }
    out.push('}');
    let _ = write!(out, ",\"topics_overflowed\":{}", snap.topics_overflowed);
    out.push('}');
}

/// Renders the per-shard model reports as the `/shards` JSON body. When
/// flow control is attached, each shard also carries its slice of the
/// admission budget (`lambda_max / shards` — the controller holds every
/// shard at the same inverted utilisation). When the topic observatory is
/// on, the body also carries the skew analyzer's `rebalance` block. When
/// the SLO engine is attached, each shard carries its own saturation
/// forecast computed over its labeled instrument twins.
fn render_shards_json(
    reports: &[ShardReport],
    observatory: Option<&TopicObservatorySnapshot>,
    state: &HttpState,
) -> String {
    use std::fmt::Write;
    let obs_core = state.obs.as_ref().and_then(|o| o.lock().ok());
    let lambda_budget = state
        .flow
        .as_ref()
        .filter(|_| !reports.is_empty())
        .map(|gate| gate.snapshot().lambda_max / reports.len() as f64);
    let mut out = String::with_capacity(512);
    out.push_str("{\"shards\":[");
    for (i, r) in reports.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"shard\":{},\"samples\":{},\"arrival_rate\":{},\"filters\":{},\
             \"replication_grade\":{}",
            r.shard, r.samples, r.arrival_rate, r.filters, r.replication_grade
        );
        match lambda_budget {
            Some(b) => {
                let _ = write!(out, ",\"lambda_budget\":{b}");
            }
            None => out.push_str(",\"lambda_budget\":null"),
        }
        out.push_str(",\"verdict\":");
        match &r.verdict {
            ModelVerdict::Insufficient { samples, required } => {
                let _ = write!(
                    out,
                    "{{\"kind\":\"insufficient\",\"samples\":{samples},\"required\":{required}}}"
                );
            }
            ModelVerdict::Overloaded { utilization } => {
                let _ = write!(out, "{{\"kind\":\"overloaded\",\"utilization\":{utilization}}}");
            }
            verdict @ (ModelVerdict::Calibrated(report) | ModelVerdict::Drift(report)) => {
                let kind = if verdict.is_calibrated() { "calibrated" } else { "drift" };
                let m = &report.measured;
                let p = &report.predicted;
                let _ = write!(
                    out,
                    "{{\"kind\":\"{kind}\",\"measured\":{{\"utilization\":{},\
                     \"mean_service_time\":{},\"mean_waiting_time\":{},\"q99\":{}}},\
                     \"predicted\":{{\"utilization\":{},\"mean_service_time\":{},\
                     \"mean_waiting_time\":{},\"q99\":{}}},\"violations\":{}}}",
                    m.utilization,
                    m.mean_service_time,
                    m.mean_waiting_time,
                    m.q99,
                    p.utilization,
                    p.mean_service_time,
                    p.mean_waiting_time,
                    p.q99,
                    report.violations.len()
                );
            }
            // `ModelVerdict` is non-exhaustive: future variants degrade to
            // their kind name only.
            other => {
                let _ = write!(out, "{{\"kind\":\"{other:?}\"}}");
            }
        }
        out.push_str(",\"forecast\":");
        let forecast = obs_core.as_ref().and_then(|core| {
            let shard = r.shard.to_string();
            let twin = |base: &str| labeled(base, &[("shard", &shard)]);
            core.forecast_for(&twin(WAITING_METRIC), &twin(SERVICE_METRIC), &twin(BACKLOG_METRIC))
        });
        match forecast {
            Some(f) => out.push_str(&f.render_json()),
            None => out.push_str("null"),
        }
        out.push('}');
    }
    out.push(']');
    out.push_str(",\"rebalance\":");
    match observatory {
        Some(snap) => render_rebalance_json(&mut out, snap),
        None => out.push_str("null"),
    }
    out.push('}');
    out
}

/// Renders the skew analyzer's report (shares, ratio, advised moves) from
/// an observatory snapshot.
fn render_rebalance_json(out: &mut String, snap: &TopicObservatorySnapshot) {
    use std::fmt::Write;
    let loads: Vec<TopicLoad> = snap
        .topics
        .iter()
        .map(|t| TopicLoad {
            name: t.name.clone(),
            shard: t.shard,
            arrival_rate: t.arrival_rate,
            mean_service_time: t.mean_service_time,
        })
        .collect();
    let config = SkewConfig {
        shards: snap.shards,
        flag_ratio: snap.config.flag_ratio,
        target_ratio: snap.config.target_ratio,
    };
    let report = analyze_skew(&loads, &config);
    let _ = write!(
        out,
        "{{\"max_mean_ratio\":{},\"skewed\":{},\"flag_ratio\":{},\"target_ratio\":{},\
         \"post_ratio\":{},\"shares\":[",
        report.max_mean_ratio,
        report.skewed,
        config.flag_ratio,
        config.target_ratio,
        report.post_ratio
    );
    for (i, s) in report.shares.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"shard\":{},\"offered_load\":{},\"arrival_share\":{},\"load_share\":{},\
             \"topics\":{}}}",
            s.shard, s.offered_load, s.arrival_share, s.load_share, s.topics
        );
    }
    out.push_str("],\"moves\":[");
    for (i, m) in report.moves.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"topic\":");
        write_escaped(out, &m.topic);
        let _ = write!(out, ",\"from\":{},\"to\":{},\"load\":{}}}", m.from, m.to, m.load);
    }
    out.push_str("]}");
}

/// Renders the observatory snapshot as the `/topics` JSON body.
fn render_topics_json(snap: &TopicObservatorySnapshot) -> String {
    use std::fmt::Write;
    let mut out = String::with_capacity(1024);
    let _ = write!(
        out,
        "{{\"elapsed_secs\":{},\"shards\":{},\"per_topic_cap\":{},\"overflowed_topics\":{},",
        snap.elapsed.as_secs_f64(),
        snap.shards,
        snap.config.per_topic_cap,
        snap.overflowed_topics
    );
    out.push_str("\"anchor\":");
    match &snap.anchor {
        Some(a) => {
            let _ = write!(
                out,
                "{{\"t_rcv\":{},\"t_fltr\":{},\"t_tx\":{},\"t_store\":{}}}",
                a.t_rcv, a.t_fltr, a.t_tx, a.t_store
            );
        }
        None => out.push_str("null"),
    }
    out.push_str(",\"global\":{\"fitted\":");
    render_fitted_json(&mut out, snap.global_fitted.as_ref());
    out.push_str(",\"verdict\":");
    render_regression_verdict_json(&mut out, snap.global_verdict.as_ref());
    out.push_str("},\"topics\":[");
    for (i, t) in snap.topics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        render_topic_row_json(&mut out, t);
    }
    out.push_str("]}");
    out
}

/// Renders one observatory row.
fn render_topic_row_json(out: &mut String, t: &TopicObsRow) {
    use std::fmt::Write;
    out.push_str("{\"name\":");
    write_escaped(out, &t.name);
    let _ = write!(
        out,
        ",\"shard\":{},\"messages\":{},\"arrival_rate\":{},\"mean_filters\":{},\
         \"mean_replication\":{},\"mean_service_time\":{},\"fitted\":",
        t.shard,
        t.messages,
        t.arrival_rate,
        t.mean_filters,
        t.mean_replication,
        t.mean_service_time
    );
    render_fitted_json(out, t.fitted.as_ref());
    out.push_str(",\"verdict\":");
    render_regression_verdict_json(out, t.verdict.as_ref());
    out.push('}');
}

/// Renders an adaptive fit (or `null`).
fn render_fitted_json(out: &mut String, fitted: Option<&FittedCosts>) {
    use std::fmt::Write;
    match fitted {
        Some(f) => {
            let p = &f.params;
            let _ = write!(
                out,
                "{{\"mode\":\"{}\",\"t_rcv\":{},\"t_fltr\":{},\"t_tx\":{},\"t_store\":{},\
                 \"residual_rms\":{},\"r_squared\":{},\"observations\":{}}}",
                f.mode,
                p.t_rcv,
                p.t_fltr,
                p.t_tx,
                p.t_store,
                f.residual_rms,
                f.r_squared,
                f.observations
            );
        }
        None => out.push_str("null"),
    }
}

/// Renders a regression verdict (or `null`): its kind plus, for
/// stable/drift, the out-of-tolerance components.
fn render_regression_verdict_json(out: &mut String, verdict: Option<&RegressionVerdict>) {
    use std::fmt::Write;
    let Some(verdict) = verdict else {
        out.push_str("null");
        return;
    };
    let _ = write!(out, "{{\"kind\":\"{}\"", verdict.kind());
    if let RegressionVerdict::Insufficient { samples, required } = verdict {
        let _ = write!(out, ",\"samples\":{samples},\"required\":{required}");
    }
    if let Some(report) = verdict.report() {
        out.push_str(",\"deviations\":[");
        for (i, d) in report.deviations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"component\":\"{}\",\"fitted\":{},\"configured\":{},\"error\":{},\
                 \"tolerance\":{}}}",
                d.component, d.fitted, d.configured, d.error, d.tolerance
            );
        }
        out.push(']');
    }
    out.push('}');
}

/// Renders the admission gate's [`FlowSnapshot`](rjms_broker::FlowSnapshot)
/// as the `/flow` JSON body.
fn render_flow_json(gate: &FlowGate) -> String {
    use std::fmt::Write;
    let s = gate.snapshot();
    let mut out = String::with_capacity(512);
    let _ = write!(
        out,
        "{{\"lambda_max\":{},\"rho_max\":{},\"w99_objective\":{},\"headroom\":{},\
         \"source\":\"{}\",\"refreshes\":{},\"classes\":{},\"bucket_level\":{},\
         \"bucket_burst\":{},\"credit_window\":{},\"producers\":{},\"per_class\":[",
        s.lambda_max,
        s.rho_max,
        s.w99_objective,
        s.headroom,
        s.source,
        s.refreshes,
        s.classes,
        s.bucket_level,
        s.bucket_burst,
        s.credit_window,
        s.producers
    );
    for (i, c) in s.per_class.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"class\":{},\"granted\":{},\"deferred\":{},\"shed\":{}}}",
            c.class, c.granted, c.deferred, c.shed
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rjms_obs::ObsConfig;

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
        for path in ["/slo", "/alerts", "/forecast", "/history?metric=x", "/flow"] {
            let r = get(s.local_addr(), path);
            assert_eq!(status_of(&r), "HTTP/1.1 404 Not Found", "path {path}");
        }
        s.shutdown();
    }

    #[test]
    fn flow_endpoint_renders_gate_snapshot() {
        use rjms_broker::FlowConfig;
        let gate = Arc::new(FlowGate::new(FlowConfig::default()));
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

    #[test]
    fn slo_and_alerts_render_json() {
        let s = server(obs_state());
        let r = get(s.local_addr(), "/slo");
        assert_eq!(status_of(&r), "HTTP/1.1 200 OK");
        assert!(r.contains("\"objectives\":["), "body: {r}");
        assert!(r.contains("\"forecast\":"), "body: {r}");
        let r = get(s.local_addr(), "/alerts");
        assert_eq!(status_of(&r), "HTTP/1.1 200 OK");
        assert!(r.contains("\"active\":["), "body: {r}");
        s.shutdown();
    }

    #[test]
    fn forecast_endpoint_renders_knobs_and_forecast() {
        let s = server(obs_state());
        let r = get(s.local_addr(), "/forecast");
        assert_eq!(status_of(&r), "HTTP/1.1 200 OK");
        for key in ["\"enabled\":true", "\"horizon_ms\":", "\"min_confidence\":", "\"forecast\":"] {
            assert!(r.contains(key), "missing {key} in body: {r}");
        }
        s.shutdown();
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
        for key in ["\"rebalance\":{", "\"max_mean_ratio\":", "\"moves\":[", "\"shares\":["] {
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
}
