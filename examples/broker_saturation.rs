//! Saturated-broker measurement on the *real* threaded broker: reproduces
//! the paper's measurement setup in wall-clock time. The broker's dispatcher
//! burns the Table I costs per message / filter / copy; saturated publishers
//! experience push-back; measured throughput must follow
//! `1/(t_rcv + n_fltr·t_fltr + R·t_tx)` — Eq. 1 live.
//!
//! Run with: `cargo run --release --example broker_saturation`

use rjms::broker::{Broker, BrokerConfig, Filter, Message, ThroughputProbe};
use rjms::model::calibrate::{fit_cost_params_fixed_rcv, Observation};
use rjms::model::model::ServerModel;
use rjms::model::params::CostParams;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn measure(n_fltr: u32, replication: u32, window: Duration) -> (f64, f64) {
    let cost = CostParams::CORRELATION_ID;
    let broker = Broker::start(
        BrokerConfig::builder()
            .publish_queue_capacity(64)
            .subscriber_queue_capacity(1 << 16)
            .cost_model(cost)
            .build(),
    );
    broker.create_topic("bench").unwrap();

    // `replication` matching subscribers + (n_fltr - replication) others.
    let mut subscribers = Vec::new();
    for _ in 0..replication {
        subscribers.push(
            broker
                .subscription("bench")
                .filter(Filter::correlation_id("#0").unwrap())
                .open()
                .unwrap(),
        );
    }
    for i in replication..n_fltr {
        subscribers.push(
            broker
                .subscription("bench")
                .filter(Filter::correlation_id(&format!("#{}", i + 1)).unwrap())
                .open()
                .unwrap(),
        );
    }
    // Drain matching subscribers in background so their queues never fill.
    let stop = Arc::new(AtomicBool::new(false));
    let drains: Vec<_> = subscribers
        .into_iter()
        .map(|sub| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let _ = sub.receive_timeout(Duration::from_millis(20));
                }
            })
        })
        .collect();

    // Saturated publishers (the paper uses 5).
    let publishers: Vec<_> = (0..5)
        .map(|_| {
            let p = broker.publisher("bench").unwrap();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    if p.publish(Message::builder().correlation_id("#0").build()).is_err() {
                        break;
                    }
                }
            })
        })
        .collect();

    // Warm up, then measure a trimmed window.
    std::thread::sleep(Duration::from_millis(300));
    let probe = ThroughputProbe::begin(&broker);
    std::thread::sleep(window);
    let throughput = probe.end(&broker);

    stop.store(true, Ordering::Relaxed);
    for h in publishers {
        let _ = h.join();
    }
    for h in drains {
        let _ = h.join();
    }
    broker.shutdown();

    (throughput.received_per_sec, throughput.replication_grade().unwrap_or(0.0))
}

fn main() {
    println!("saturated wall-clock measurement of the threaded broker");
    println!("(dispatcher burns the paper's Table I costs; 5 saturated publishers)\n");

    // Step 1 — measure a grid, exactly like the paper measured FioranoMQ.
    // n_fltr and R must vary independently or the fit cannot separate
    // t_fltr from t_tx (and the intercept t_rcv becomes meaningless).
    let grid = [
        (6u32, 1u32),
        (30, 1),
        (120, 1),
        (10, 5),
        (60, 5),
        (30, 10),
        (120, 10),
        (60, 20),
        (120, 40),
    ];
    let mut observations = Vec::new();
    let mut measured_points = Vec::new();
    for (n_fltr, r) in grid {
        let (received, obs_r) = measure(n_fltr, r, Duration::from_secs(2));
        observations.push(Observation {
            n_fltr,
            mean_replication: obs_r,
            received_per_sec: received,
        });
        measured_points.push((n_fltr, r, received, obs_r));
    }

    // Step 2 — fit this broker's own cost constants (its "Table I").
    // The intercept is fixed at the configured spin t_rcv: it is orders of
    // magnitude below the slope terms and a free intercept soaks up the
    // broker's mild non-linearity instead.
    let calibration = fit_cost_params_fixed_rcv(&observations, CostParams::CORRELATION_ID.t_rcv)
        .expect("well-conditioned grid");
    println!("configured spin costs : {}", CostParams::CORRELATION_ID);
    println!("fitted broker costs   : {}", calibration.params);
    println!(
        "fit quality           : R² = {:.4} (excess over spin = native dispatch cost)\n",
        calibration.r_squared
    );

    // Step 3 — the fitted model predicts the measurements, as in Fig. 4.
    println!(
        "{:>7} {:>4} {:>15} {:>15} {:>9}",
        "n_fltr", "R", "measured msg/s", "model msg/s", "rel err"
    );
    for (n_fltr, r, received, _) in measured_points {
        let model = ServerModel::new(calibration.params, n_fltr).predict_throughput(r as f64);
        let rel = (model.received_per_sec - received).abs() / received;
        println!(
            "{:>7} {:>4} {:>15.0} {:>15.0} {:>8.1}%",
            n_fltr,
            r,
            received,
            model.received_per_sec,
            rel * 100.0
        );
    }

    println!();
    println!("the real broker's saturated throughput follows the linear cost model");
    println!("(Eq. 1); fitting its own constants — the paper's methodology — absorbs");
    println!("the native dispatch overhead on top of the configured spin costs.");
}
