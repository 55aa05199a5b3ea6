//! The paper's measurement setup over real TCP: a broker process boundary
//! between saturated publishers, the server, and draining subscribers —
//! §III-A's five-machine testbed, shrunk onto localhost.
//!
//! The server burns the Table I costs per message; the remote publishers
//! saturate it through the network; throughput is measured on the server's
//! own counters over a trimmed window and compared against Eq. 1.
//!
//! Run with: `cargo run --release --example networked_measurement`

use rjms::broker::{BrokerConfig, Message, ThroughputProbe};
use rjms::model::model::ServerModel;
use rjms::model::params::CostParams;
use rjms::net::client::RemoteBroker;
use rjms::net::server::BrokerServer;
use rjms::net::wire::WireFilter;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Inflate the paper's costs 20× so that TCP overhead is negligible
    // relative to the modeled CPU costs, keeping the run short.
    let scale = 20.0;
    let params = CostParams::new(8.52e-7 * scale, 7.02e-6 * scale, 1.70e-5 * scale);

    let n_fltr = 30u32;
    let replication = 5u32;

    let server = BrokerServer::start(
        BrokerConfig::builder().publish_queue_capacity(64).cost_model(params).build(),
        "127.0.0.1:0",
    )?;
    let addr = server.local_addr();
    println!("server with calibrated cost model on {addr}");
    server.broker().create_topic("bench")?;

    // Subscriber "machine": `replication` matching + rest non-matching, each
    // drained by a thread.
    let consumer = RemoteBroker::connect(addr)?;
    let stop = Arc::new(AtomicBool::new(false));
    let mut drains = Vec::new();
    for i in 0..n_fltr {
        let pattern = if i < replication { "#0".to_owned() } else { format!("#{}", i + 1) };
        let sub = consumer.subscribe("bench", WireFilter::CorrelationId(pattern))?;
        let stop = Arc::clone(&stop);
        drains.push(std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let _ = sub.receive_timeout(Duration::from_millis(20));
            }
        }));
    }

    // Publisher "machines": 3 connections publishing flat out.
    let mut publishers = Vec::new();
    for _ in 0..3 {
        let client = RemoteBroker::connect(addr)?;
        let stop = Arc::clone(&stop);
        publishers.push(std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                if client
                    .publish("bench", &Message::builder().correlation_id("#0").build())
                    .is_err()
                {
                    break;
                }
            }
        }));
    }

    // Warmup, then a trimmed measurement window (paper methodology).
    std::thread::sleep(Duration::from_millis(500));
    let probe = ThroughputProbe::begin(server.broker());
    std::thread::sleep(Duration::from_secs(3));
    let throughput = probe.end(server.broker());

    stop.store(true, Ordering::Relaxed);
    for h in publishers.into_iter().chain(drains) {
        let _ = h.join();
    }

    let predicted = ServerModel::new(params, n_fltr).predict_throughput(replication as f64);
    println!(
        "measured : {:.1} msg/s received, R = {:.2}",
        throughput.received_per_sec,
        throughput.replication_grade().unwrap_or(0.0)
    );
    println!("model    : {:.1} msg/s received (Eq. 1)", predicted.received_per_sec);
    let rel = (predicted.received_per_sec - throughput.received_per_sec).abs()
        / throughput.received_per_sec;
    println!("rel. err : {:.1}%  (model excludes network + native dispatch overhead)", rel * 100.0);

    server.shutdown();
    Ok(())
}
