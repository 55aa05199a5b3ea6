//! **Ablation**: identical vs distinct filters (paper §II-B / §III-B.2).
//!
//! The paper measured FioranoMQ with `n` filters all looking for the *same*
//! value and with `n` filters looking for *different* values, found the
//! same throughput, and concluded that FioranoMQ implements no
//! identical-filter optimization [15]. Our broker scans subscriptions
//! brute-force by construction; this ablation runs the paper's check
//! against the real threaded broker to demonstrate the same behaviour (and
//! to document what an optimizing broker would change).
//!
//! The check runs twice. On correlation-ID filters under the Table I spin
//! it compares saturated throughput, as the paper did. On
//! application-property selectors at native speed — where the filters of a
//! topic share one resolved property array but each of them is still
//! evaluated for every message — end-to-end throughput on a small host is
//! mostly thread scheduling, so it compares what the dispatcher itself
//! books: filter evaluations per message (a count) and the time of the
//! filter stage.

use rjms_bench::{experiment_header, Table};
use rjms_broker::{Broker, BrokerConfig, Filter, Message, MetricsConfig, ThroughputProbe};
use rjms_core::CostParams;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One saturated run.
struct Measured {
    msgs_per_s: f64,
    /// Filter evaluations per received message.
    evaluations: f64,
    /// Mean of the dispatcher's filter stage, in nanoseconds.
    scan_ns: f64,
}

/// Saturates a broker with the given subscriber filters, none of which
/// matches; one extra matching subscriber keeps the replication grade 1.
/// Without a cost model the broker runs at native speed and the filters'
/// own evaluation is the work.
fn measure(filters: Vec<Filter>, cost_model: Option<CostParams>) -> Measured {
    let mut config = BrokerConfig::builder()
        .publish_queue_capacity(64)
        .subscriber_queue_capacity(1 << 15)
        .metrics(MetricsConfig::default());
    if let Some(cost_model) = cost_model {
        config = config.cost_model(cost_model);
    }
    let broker = Broker::start(config.build());
    broker.create_topic("t").unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let mut workers = Vec::new();

    let matching =
        broker.subscription("t").filter(Filter::correlation_id("#0").unwrap()).open().unwrap();
    {
        let stop = Arc::clone(&stop);
        workers.push(std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let _ = matching.receive_timeout(Duration::from_millis(10));
            }
        }));
    }
    let _subs: Vec<_> =
        filters.into_iter().map(|f| broker.subscription("t").filter(f).open().unwrap()).collect();

    for _ in 0..4 {
        let publisher = broker.publisher("t").unwrap();
        let stop = Arc::clone(&stop);
        workers.push(std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let message = Message::builder().correlation_id("#0").property("key", 0i64);
                if publisher.publish(message.build()).is_err() {
                    break;
                }
            }
        }));
    }

    std::thread::sleep(Duration::from_millis(200));
    let probe = ThroughputProbe::begin(&broker);
    std::thread::sleep(Duration::from_millis(1500));
    let throughput = probe.end(&broker);
    stop.store(true, Ordering::Relaxed);
    for w in workers {
        let _ = w.join();
    }
    let messages = broker.snapshot().messages;
    let scan = broker.metrics().expect("metrics are on").snapshot();
    let scan = scan.histogram("broker.stage.filter_ns").expect("the filter stage was sampled");
    broker.shutdown();
    Measured {
        msgs_per_s: throughput.received_per_sec,
        evaluations: messages.filter_evaluations as f64 / messages.received as f64,
        scan_ns: scan.sum as f64 / scan.count as f64,
    }
}

fn main() {
    experiment_header(
        "ablation_filter_identity",
        "§II-B / §III-B.2 observation",
        "n identical vs n distinct non-matching filters: same throughput?",
    );

    println!("correlation-ID filters `#i`, Table I spin:");
    let mut table = Table::new(&["n filters", "identical msgs/s", "distinct msgs/s", "ratio"]);
    for n in [8usize, 32, 96] {
        let filter = |i: usize| Filter::correlation_id(&format!("#{i}")).unwrap();
        let cost = Some(CostParams::CORRELATION_ID);
        let identical = measure((0..n).map(|_| filter(1)).collect(), cost).msgs_per_s;
        let distinct = measure((0..n).map(|i| filter(i + 1)).collect(), cost).msgs_per_s;
        table.row_strings(vec![
            n.to_string(),
            format!("{identical:.0}"),
            format!("{distinct:.0}"),
            format!("{:.3}", identical / distinct),
        ]);
    }
    table.print();

    println!();
    println!("application-property selectors `key = i`, native speed:");
    let mut table = Table::new(&[
        "n filters",
        "identical evals/msg",
        "distinct evals/msg",
        "identical scan ns",
        "distinct scan ns",
        "ratio",
    ]);
    for n in [32usize, 96, 256] {
        let filter = |i: usize| Filter::selector(&format!("key = {i}")).unwrap();
        let identical = measure((0..n).map(|_| filter(1)).collect(), None);
        let distinct = measure((0..n).map(|i| filter(i + 1)).collect(), None);
        table.row_strings(vec![
            n.to_string(),
            format!("{:.2}", identical.evaluations),
            format!("{:.2}", distinct.evaluations),
            format!("{:.0}", identical.scan_ns),
            format!("{:.0}", distinct.scan_ns),
            format!("{:.3}", identical.scan_ns / distinct.scan_ns),
        ]);
    }
    table.print();

    println!();
    println!("ratio ≈ 1: like FioranoMQ, this broker evaluates every subscription's");
    println!("filter independently — installing the *same* filter n times costs as");
    println!("much as n different filters. A broker with filter-identity hashing or");
    println!("predicate indexing [15] would show throughput ratios ≫ 1, and fewer than");
    println!("n + 1 evaluations per message, on the identical columns. The paper's");
    println!("linear n_fltr·t_fltr model only holds for brute-force scans.");
}
