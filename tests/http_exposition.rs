//! End-to-end exposition test: a traced broker server, a TCP client
//! workload, and the HTTP endpoint serving Prometheus metrics, the JSON
//! snapshot, and complete span chains.

use rjms::broker::{Broker, BrokerConfig, Message, TopicObsConfig, TraceConfig};
use rjms::http::{HttpServer, HttpState};
use rjms::net::client::RemoteBroker;
use rjms::net::server::BrokerServer;
use rjms::net::wire::WireFilter;
use rjms::obs::minijson;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Minimal HTTP GET: returns `(status_line, body)`.
fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect http");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n")
        .expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    let status = head.lines().next().unwrap_or("").to_owned();
    (status, body.to_owned())
}

struct Fixture {
    server: BrokerServer,
    http: HttpServer,
}

fn start_traced_stack() -> Fixture {
    let server = BrokerServer::start(
        BrokerConfig::builder().trace(TraceConfig::default()).build(),
        "127.0.0.1:0",
    )
    .expect("bind broker");
    let state = HttpState::new()
        .observer(server.broker().observer())
        .registry(server.broker().metrics().expect("trace implies metrics"))
        .registry(server.metrics())
        .recorder(server.broker().tracer().expect("tracing enabled"));
    let http = HttpServer::start(state, "127.0.0.1:0").expect("bind http");
    Fixture { server, http }
}

/// Publishes `count` messages through TCP and waits for their delivery.
/// Returns the published trace ids.
fn drive_workload(fixture: &Fixture, count: usize) -> Vec<u64> {
    let client = RemoteBroker::connect(fixture.server.local_addr()).unwrap();
    client.create_topic("t").unwrap();
    let sub = client.subscribe("t", WireFilter::None).unwrap();
    let mut ids = Vec::with_capacity(count);
    for i in 0..count {
        let message = Message::builder().property("seq", i as i64).build();
        ids.push(message.trace_id());
        client.publish("t", &message).unwrap();
    }
    for _ in 0..count {
        sub.receive_timeout(Duration::from_secs(5)).expect("delivery");
    }
    // Allow the final dispatcher commit and wire-flush span to land.
    std::thread::sleep(Duration::from_millis(100));
    ids
}

#[test]
fn traces_endpoint_serves_complete_chains_for_kept_messages() {
    let fixture = start_traced_stack();
    // Default refresh_every is 1024, so the tail threshold stays at its
    // initial 0 for this whole run: every message is over-threshold and
    // must be kept with a full chain.
    let ids = drive_workload(&fixture, 200);

    let (status, body) = http_get(fixture.http.local_addr(), "/traces");
    assert_eq!(status, "HTTP/1.1 200 OK");
    // The acceptance bar: ≥99% of over-threshold messages expose complete
    // five-stage monotone chains under their published trace id.
    let complete = ids
        .iter()
        .filter(|id| {
            // A complete chain renders with its five stage names; find the
            // chain object for this trace id and check its flags.
            body.split("{\"trace_id\":")
                .skip(1)
                .find(|chunk| chunk.starts_with(&id.to_string()))
                .is_some_and(|chunk| {
                    let chain = chunk.split("]}").next().unwrap_or("");
                    chain.contains("\"complete\":true")
                        && chain.contains("\"monotone\":true")
                        && chain.contains("\"stage\":\"wire_flush\"")
                })
        })
        .count();
    assert!(
        complete * 100 >= ids.len() * 99,
        "only {complete}/{} messages have complete monotone 5-stage chains",
        ids.len()
    );

    fixture.http.shutdown();
    fixture.server.shutdown();
}

#[test]
fn metrics_endpoint_renders_prometheus_text() {
    let fixture = start_traced_stack();
    drive_workload(&fixture, 50);

    let (status, body) = http_get(fixture.http.local_addr(), "/metrics");
    assert_eq!(status, "HTTP/1.1 200 OK");

    // Per-topic labeled counters carry the full workload.
    assert!(body.contains("broker_topic_received{topic=\"t\"} 50"));
    assert!(body.contains("broker_topic_dispatched{topic=\"t\"} 50"));
    // All 50 chains were kept (threshold still 0), split between the tail
    // and uniform counters.
    let kept: u64 = body
        .lines()
        .filter(|l| l.starts_with("trace_chains_"))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<u64>().ok())
        .sum();
    assert_eq!(kept, 50);
    // The connection gauge from the wire registry rides along.
    assert!(body.contains("# TYPE net_connections_active gauge"));
    // Every histogram family is typed, ends with +Inf, and its cumulative
    // bucket counts never decrease.
    let mut bucket_counts: Vec<u64> = Vec::new();
    let mut last_family = String::new();
    for line in body.lines() {
        if line.starts_with("# TYPE") {
            bucket_counts.clear();
            last_family = line.split_whitespace().nth(2).unwrap_or("").to_owned();
            continue;
        }
        if let Some(rest) = line.strip_prefix(&format!("{last_family}_bucket{{le=\"")) {
            let count: u64 =
                rest.rsplit(' ').next().and_then(|v| v.parse().ok()).expect("bucket count");
            if let Some(prev) = bucket_counts.last() {
                assert!(count >= *prev, "non-monotone buckets in {last_family}: {line}");
            }
            bucket_counts.push(count);
        }
    }
    assert!(body.contains("_bucket{le=\"+Inf\"}"), "histograms end with the +Inf bucket");
    assert!(body.contains("# TYPE broker_sojourn_seconds histogram"));

    fixture.http.shutdown();
    fixture.server.shutdown();
}

#[test]
fn snapshot_model_and_unknown_paths() {
    let fixture = start_traced_stack();
    drive_workload(&fixture, 10);

    let (status, body) = http_get(fixture.http.local_addr(), "/snapshot.json");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(body.contains("\"received\":10"));
    assert!(body.contains("\"per_topic\":{\"t\""));
    assert_eq!(
        body.matches(['{', '[']).count(),
        body.matches(['}', ']']).count(),
        "unbalanced JSON: {body}"
    );

    let (status, body) = http_get(fixture.http.local_addr(), "/model");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert_eq!(body, "no model assessment yet\n");

    let (status, _) = http_get(fixture.http.local_addr(), "/nope");
    assert_eq!(status, "HTTP/1.1 404 Not Found");

    let (status, body) = http_get(fixture.http.local_addr(), "/");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(body.contains("/metrics"));

    fixture.http.shutdown();
    fixture.server.shutdown();
}

#[test]
fn traces_endpoint_is_404_without_tracing() {
    let server = BrokerServer::start(BrokerConfig::default(), "127.0.0.1:0").expect("bind broker");
    let state = HttpState::new().observer(server.broker().observer()).registry(server.metrics());
    let http = HttpServer::start(state, "127.0.0.1:0").expect("bind http");
    let (status, _) = http_get(http.local_addr(), "/traces");
    assert_eq!(status, "HTTP/1.1 404 Not Found");
    http.shutdown();
    server.shutdown();
}

/// The JSON twin of `prometheus.rs::hostile_topic_name_round_trips_through_exposition`:
/// a topic name carrying both characters JSON strings must escape survives
/// `/snapshot.json` and `/topics` and parses back to itself.
#[test]
fn hostile_topic_name_round_trips_through_json_endpoints() {
    let topic = "a\\b\"c{d=\"e\",f}";
    let broker =
        Broker::start(BrokerConfig::builder().topic_obs(TopicObsConfig::default()).build());
    broker.create_topic(topic).unwrap();
    let sub = broker.subscription(topic).open().unwrap();
    broker.publisher(topic).unwrap().publish(Message::builder().build()).unwrap();
    sub.receive_timeout(Duration::from_secs(5)).expect("delivery");
    let http = HttpServer::start(HttpState::new().observer(broker.observer()), "127.0.0.1:0")
        .expect("bind http");
    // Shutdown runs the dispatcher's final flush, so the observatory row
    // is in place; the observer keeps serving the stopped broker's state.
    broker.shutdown();

    let (status, body) = http_get(http.local_addr(), "/snapshot.json");
    assert_eq!(status, "HTTP/1.1 200 OK");
    let snapshot = minijson::parse(&body).unwrap_or_else(|e| panic!("{e}: {body}"));
    let per_topic = snapshot.get("broker").and_then(|b| b.get("per_topic")).expect("per_topic");
    let received = per_topic.get(topic).and_then(|t| t.get("received"));
    assert_eq!(received.and_then(|v| v.as_u64()), Some(1), "body: {body}");

    let (status, body) = http_get(http.local_addr(), "/topics");
    assert_eq!(status, "HTTP/1.1 200 OK");
    let topics = minijson::parse(&body).unwrap_or_else(|e| panic!("{e}: {body}"));
    let names: Vec<&str> = topics
        .get("topics")
        .expect("topics")
        .items()
        .iter()
        .filter_map(|row| row.get("name")?.as_str())
        .collect();
    assert_eq!(names, [topic], "body: {body}");
    http.shutdown();
}
