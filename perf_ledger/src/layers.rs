//! Single-layer measurements taken from outside: timed calls of public
//! functions of each layer, and the paper's own method — saturated
//! throughput over an `n_fltr × R` grid fitted with Eq. 1 — applied to
//! the broker at native speed.

use crate::drive::{self, Plan};
use crate::inputs::MessageFactory;
use crate::stats::median_of;
use crate::workloads::{self, Filters, Route, TOPIC};
use rjms_broker::{BrokerConfig, Filter};
use rjms_core::calibrate::{fit_cost_params, CalibrationError, Observation};
use rjms_journal::{FsyncPolicy, Journal, JournalConfig};
use rjms_metrics::{clock, Histogram};
use rjms_net::wire::{
    decode_request, decode_response, encode_request, encode_response, Request, Response,
    WireMessage,
};
use rjms_net::{BrokerServer, RemoteBroker};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Mean nanoseconds per call of `call` over `iterations` calls.
fn ns_per_call(iterations: u32, mut call: impl FnMut()) -> f64 {
    // Touch code and data once before timing.
    call();
    let start = Instant::now();
    for _ in 0..iterations {
        call();
    }
    start.elapsed().as_nanos() as f64 / f64::from(iterations)
}

/// The timed calls, by per-layer metric name.
pub fn micro_timings(seed: u64, scratch: &Path) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    let small = MessageFactory::new(seed, 64).message(1);
    let large = MessageFactory::new(seed, 1024).message(1);

    // selector: one evaluation that does not match, as 255 of the 256
    // filters of `inproc_filter` do.
    let selector = Filter::selector("key = 7").expect("selector");
    out.push((
        "selector.match_ns",
        ns_per_call(1_000_000, || {
            black_box(selector.matches(black_box(&small)));
        }),
    ));
    let corrid = Filter::correlation_id("#7").expect("pattern");
    out.push((
        "selector.corrid_match_ns",
        ns_per_call(1_000_000, || {
            black_box(corrid.matches(black_box(&small)));
        }),
    ));

    // crossbeam shim: the queue hop without and with a thread wake-up.
    let (tx, rx) = crossbeam::channel::bounded::<u64>(1024);
    out.push((
        "crossbeam.send_recv_ns",
        ns_per_call(1_000_000, || {
            tx.send(black_box(1)).expect("receiver alive");
            black_box(rx.recv().expect("sender alive"));
        }),
    ));
    out.push(("crossbeam.pingpong_ns", pingpong_ns(20_000)));

    // journal: appending one frame-sized record, no fsync.
    let frame = encode_request(&publish_request(&small));
    let dir = scratch.join("micro-journal");
    let config = JournalConfig::new(&dir)
        .fsync(FsyncPolicy::Never)
        .segment_max_bytes(16 << 20)
        .max_sealed_segments(4);
    let (mut journal, _) = Journal::open(config).expect("journal in scratch dir");
    out.push((
        "journal.append_ns",
        ns_per_call(100_000, || {
            black_box(journal.append(black_box(&frame)).expect("append"));
        }),
    ));
    drop(journal);
    let _ = std::fs::remove_dir_all(&dir);

    // net: the wire codec on the two message sizes the workloads use.
    let codec = [
        (
            &small,
            [
                "net.encode_publish_ns.64b",
                "net.decode_publish_ns.64b",
                "net.encode_delivery_ns.64b",
                "net.decode_delivery_ns.64b",
            ],
        ),
        (
            &large,
            [
                "net.encode_publish_ns.1k",
                "net.decode_publish_ns.1k",
                "net.encode_delivery_ns.1k",
                "net.decode_delivery_ns.1k",
            ],
        ),
    ];
    for (message, names) in codec {
        let request = publish_request(message);
        let request_body = encode_request(&request).slice(4..);
        let response =
            Response::Delivery { subscription_id: 1, message: WireMessage::from_message(message) };
        let response_body = encode_response(&response).slice(4..);
        let iterations = 200_000;
        out.push((
            names[0],
            ns_per_call(iterations, || {
                black_box(encode_request(black_box(&request)));
            }),
        ));
        out.push((
            names[1],
            ns_per_call(iterations, || {
                black_box(decode_request(black_box(request_body.clone())).expect("own frame"));
            }),
        ));
        out.push((
            names[2],
            ns_per_call(iterations, || {
                black_box(encode_response(black_box(&response)));
            }),
        ));
        out.push((
            names[3],
            ns_per_call(iterations, || {
                black_box(decode_response(black_box(response_body.clone())).expect("own frame"));
            }),
        ));
    }
    out.push(("net.ping_rtt_ns_p50", ping_rtt_p50_ns(2_000)));

    // metrics: what one recorded sample and one clock read cost.
    let histogram = Histogram::new();
    let mut value = 1u64;
    out.push((
        "metrics.histogram_record_ns",
        ns_per_call(1_000_000, || {
            value = value.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            histogram.record(black_box(value >> 40));
        }),
    ));
    out.push((
        "metrics.clock_now_ns",
        ns_per_call(1_000_000, || {
            black_box(clock::now());
        }),
    ));
    out
}

fn publish_request(message: &rjms_broker::Message) -> Request {
    Request::Publish {
        request_id: 1,
        topic: TOPIC.to_owned(),
        message: WireMessage::from_message(message),
    }
}

/// Nanoseconds per round trip between two threads over two bounded
/// channels: each hop parks one thread and wakes the other.
fn pingpong_ns(round_trips: u32) -> f64 {
    let (ping_tx, ping_rx) = crossbeam::channel::bounded::<u32>(1);
    let (pong_tx, pong_rx) = crossbeam::channel::bounded::<u32>(1);
    std::thread::scope(|scope| {
        scope.spawn(move || {
            while let Ok(v) = ping_rx.recv() {
                if pong_tx.send(v).is_err() {
                    break;
                }
            }
        });
        let ns = ns_per_call(round_trips, || {
            ping_tx.send(1).expect("echo thread alive");
            black_box(pong_rx.recv().expect("echo thread alive"));
        });
        drop(ping_tx);
        ns
    })
}

/// Median `ping()` round trip on an otherwise idle loopback connection.
fn ping_rtt_p50_ns(pings: u32) -> f64 {
    let server = BrokerServer::start(BrokerConfig::default(), "127.0.0.1:0").expect("bind");
    let client = RemoteBroker::connect(server.local_addr()).expect("connect");
    let mut samples: Vec<u64> = (0..pings)
        .map(|_| {
            let start = Instant::now();
            client.ping().expect("ping on a live connection");
            start.elapsed().as_nanos() as u64
        })
        .collect();
    drop(client);
    server.shutdown();
    median_of(&mut samples).unwrap_or(0) as f64
}

/// `(n_fltr, R)` points of the correlation-ID grid; they vary in both.
const GRID: [(u32, u32); 6] = [(6, 1), (120, 1), (10, 5), (60, 5), (30, 10), (60, 20)];

/// Our own Table I: saturated throughput at each grid point, fitted
/// with `E[B] = t_rcv + n_fltr·t_fltr + R·t_tx`. The residual is the
/// share of the service time the model does not explain.
pub fn model_fit(seed: u64, seconds: f64, scratch: &Path) -> Vec<(&'static str, f64)> {
    let per_point = seconds / GRID.len() as f64;
    let observations: Vec<Observation> = GRID
        .iter()
        .map(|&(n_fltr, replication)| {
            let filters = Filters::CorrelationId(n_fltr);
            let point = workloads::closed("model_grid", "", Route::Inproc, filters, replication);
            let setup = workloads::set_up(&point, seed, false, scratch.join("unused"));
            let plan = Plan::new(per_point * 0.8, per_point * 0.2, false, 16);
            let phase = drive::run_phase(&setup.env, &setup.factory, plan, seed, None);
            setup.tear_down();
            let (first, last) = (&phase.marks[0], &phase.marks[1]);
            let received_per_sec =
                (last.completed - first.completed) as f64 / (last.at - first.at).as_secs_f64();
            Observation { n_fltr, mean_replication: f64::from(replication), received_per_sec }
        })
        .collect();

    // A fit with a negative component is still the least-squares answer;
    // report it as it is, the residual says how far to trust it.
    let (t_rcv, t_fltr, t_tx) = match fit_cost_params(&observations) {
        Ok(fit) => (fit.params.t_rcv, fit.params.t_fltr, fit.params.t_tx),
        Err(CalibrationError::NegativeCost { fitted }) => fitted,
        Err(e) => panic!("the grid cannot be fitted: {e}"),
    };
    let mean_service =
        observations.iter().map(Observation::mean_service_time).sum::<f64>() / GRID.len() as f64;
    let residual_rms = (observations
        .iter()
        .map(|o| {
            let predicted = t_rcv + f64::from(o.n_fltr) * t_fltr + o.mean_replication * t_tx;
            (o.mean_service_time() - predicted).powi(2)
        })
        .sum::<f64>()
        / GRID.len() as f64)
        .sqrt();
    vec![
        ("model.t_rcv_ns", t_rcv * 1e9),
        ("model.t_fltr_ns", t_fltr * 1e9),
        ("model.t_tx_ns", t_tx * 1e9),
        ("model.fit_residual_pct", 100.0 * residual_rms / mean_service),
    ]
}
