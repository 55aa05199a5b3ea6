//! Overload lifecycle integration test for the SLO engine.
//!
//! A Table-I-calibrated M/D/1 workload (correlation-ID cost constants,
//! 100 filters) runs at the plan point `ρ = 0.5`, is forced to `ρ = 0.98`,
//! then dropped back. The `W99` objective — its limit twice the W99 the
//! paper's own analysis predicts at the plan point — must:
//!
//! 1. stay `ok` through the healthy phase,
//! 2. fire within two fast windows of saturation,
//! 3. resolve after the load drops and the slow window drains,
//!
//! and the `/slo` HTTP endpoint must return the firing record carrying
//! its evidence: the offending window's histogram and the analytic model's
//! prediction at the measured (overloaded) operating point.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rjms::desim::random::sample_exponential;
use rjms::http::{HttpServer, HttpState};
use rjms::metrics::{Histogram, MetricsRegistry};
use rjms::model::model::ServerModel;
use rjms::model::monitor::ModelMonitor;
use rjms::model::params::CostParams;
use rjms::model::waiting::WaitingTimeAnalysis;
use rjms::obs::minijson::{self, Value};
use rjms::obs::{AlertEvent, AlertState, ForecastConfig, ObsConfig, ObsCore, SloSpec};
use rjms::queueing::replication::ReplicationModel;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const FAST: Duration = Duration::from_secs(5);
const SLOW: Duration = Duration::from_secs(15);

/// One second of M/D/1 traffic via the Lindley recursion: exponential
/// arrivals at `rate`, deterministic service `e_b` seconds. Waiting and
/// service samples land in the instruments; `w` carries the queue state
/// across calls.
fn drive_second(
    rng: &mut StdRng,
    rate: f64,
    e_b: f64,
    w: &mut f64,
    waiting: &Histogram,
    service: &Histogram,
) {
    let service_ns = (e_b * 1e9) as u64;
    for _ in 0..rate.round() as u64 {
        waiting.record((*w * 1e9) as u64);
        service.record(service_ns);
        let interarrival = sample_exponential(rng, rate);
        *w = (*w + e_b - interarrival).max(0.0);
    }
}

/// Minimal HTTP GET: returns `(status_line, body)`.
fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect http");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n")
        .expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    (head.lines().next().unwrap_or("").to_owned(), body.to_owned())
}

#[test]
fn overload_drives_w99_through_the_alert_lifecycle() {
    let params = CostParams::CORRELATION_ID;
    let n_fltr = 100u32;
    let replication = ReplicationModel::deterministic(1.0);
    let model = ServerModel::new(params, n_fltr);
    let e_b = params.mean_service_time(n_fltr, 1.0);

    // The W99 limit comes from the paper's machinery: plan at rho = 0.5
    // with 2x headroom, then shrink the windows to keep the test fast.
    let plan = WaitingTimeAnalysis::for_model(&model, replication, 0.5).expect("stable plan");
    let limit_ns = (2.0 * plan.report().q99 * 1e9) as u64;
    let w99_spec = SloSpec::latency("w99", "broker.waiting_ns", 0.99, limit_ns).windows(FAST, SLOW);
    let config = ObsConfig { slos: vec![w99_spec], forecast: ForecastConfig::default() };
    let monitor = ModelMonitor::new(ServerModel::new(params, n_fltr), replication);
    let mut core = ObsCore::new(config);
    core.set_monitors(vec![Some(monitor)]);
    let core = Arc::new(Mutex::new(core));

    let registry = MetricsRegistry::new();
    let waiting = registry.histogram("broker.waiting_ns");
    let service = registry.histogram("broker.service_ns");
    let mut rng = StdRng::seed_from_u64(2006);
    let mut w = 0.0f64;
    let mut now = Duration::ZERO;
    let mut events: Vec<AlertEvent> = Vec::new();

    let healthy_rate = 0.5 / e_b;
    let overload_rate = 0.98 / e_b;
    assert!(healthy_rate >= 100.0, "workload too slow for 1 s ticks: {healthy_rate}/s");

    // Phase 1 — plan-point traffic: no transitions, objective ok.
    for _ in 0..10 {
        drive_second(&mut rng, healthy_rate, e_b, &mut w, &waiting, &service);
        now += Duration::from_secs(1);
        events.extend(core.lock().unwrap().tick(now, &registry.snapshot(), None));
    }
    assert!(events.is_empty(), "healthy phase must not alert: {events:?}");
    assert_eq!(core.lock().unwrap().status()[0].state, AlertState::Ok);

    // Phase 2 — saturation at rho = 0.98: the queue explodes past the
    // 2x-headroom limit and the objective must fire within two fast
    // windows of the onset.
    let saturation_start = now;
    for _ in 0..10 {
        drive_second(&mut rng, overload_rate, e_b, &mut w, &waiting, &service);
        now += Duration::from_secs(1);
        events.extend(core.lock().unwrap().tick(now, &registry.snapshot(), None));
    }
    let fired_at = events
        .iter()
        .find(|e| e.to == AlertState::Firing)
        .map(|e| e.at)
        .expect("W99 objective never fired under rho=0.98");
    assert!(
        fired_at <= saturation_start + 2 * FAST,
        "fired at {fired_at:?}, later than two fast windows after {saturation_start:?}"
    );

    // Phase 3 — load drops to the plan point (queue drains): once the slow
    // window flushes the incident and the minute of quiet passes, resolved.
    w = 0.0;
    let mut resolved = false;
    for _ in 0..90 {
        drive_second(&mut rng, healthy_rate, e_b, &mut w, &waiting, &service);
        now += Duration::from_secs(1);
        for event in core.lock().unwrap().tick(now, &registry.snapshot(), None) {
            resolved |= event.to == AlertState::Resolved;
            events.push(event);
        }
        if resolved {
            break;
        }
    }
    assert!(resolved, "alert never resolved after the load dropped: {events:?}");

    // The exposition layer returns the firing record with its evidence.
    let http =
        HttpServer::start(HttpState::new().obs(Arc::clone(&core)), "127.0.0.1:0").expect("bind");
    let (status, body) = http_get(http.local_addr(), "/slo");
    assert!(status.contains(" 200 "), "unexpected /slo status: {status}");
    let doc = minijson::parse(&body).expect("/slo body parses");
    let events_json = doc.get("events").map(Value::items).unwrap_or_default();
    let firing = events_json
        .iter()
        .find(|e| e.get("to").and_then(Value::as_str) == Some("firing"))
        .expect("no firing record in /slo");
    let evidence = firing.get("evidence").expect("firing record carries evidence");
    let count = evidence
        .get("window")
        .and_then(|w| w.get("count"))
        .and_then(Value::as_u64)
        .expect("evidence window histogram present");
    assert!(count > 0, "evidence histogram is empty");
    let q99 = evidence
        .get("window")
        .and_then(|w| w.get("q99_ns"))
        .and_then(Value::as_u64)
        .expect("evidence q99 present");
    assert!(
        q99 > limit_ns,
        "offending window's q99 ({q99} ns) should exceed the limit ({limit_ns} ns)"
    );
    let rho = evidence
        .get("prediction")
        .and_then(|p| p.get("utilization"))
        .and_then(Value::as_f64)
        .expect("model prediction attached to the firing record");
    // The alert fires within a tick or two of the onset, so the evidence
    // window still mixes plan-point seconds with overload seconds: the
    // measured utilization sits between 0.5 and 0.98, strictly above plan.
    assert!(rho > 0.55, "prediction should sit above the rho=0.5 plan point, got {rho}");
    http.shutdown();
}
