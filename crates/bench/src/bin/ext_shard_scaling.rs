//! `ext_shard_scaling` — throughput scaling of the sharded dispatcher.
//!
//! The single-dispatcher broker serializes Eq. 1 on one thread: its
//! capacity is `1/E[B]` no matter how many cores the host has. The
//! sharded broker hashes topics onto `N` dispatcher threads, so for a
//! topic-parallel workload the capacity should approach `N/E[B]`. This
//! experiment offers the *same* saturating workload — four topics, 50
//! spinning filter evaluations per message, Table-I-shaped constants —
//! to a 1-shard and a 4-shard broker and gates on the ratio.
//!
//! **Gate (CI):** with 4+ cores, 4 shards must clear at least 2× the
//! single-dispatcher throughput at the same per-message work. On smaller
//! hosts the dispatchers time-slice one core and the ratio is
//! meaningless, so the gate degrades to a report-only run — the
//! measurement is still printed for the record.
//!
//! Methodology is that of [`rjms_bench::overhead`] — the same saturated
//! fixed-count run, the same alternating pairs — with the median *ratio*
//! in place of the relative difference; the `shard scaling … [GATE: …]`
//! line on stdout, non-zero exit on a blown gate:
//!
//! ```text
//! cargo run --release -p rjms-bench --bin ext_shard_scaling -- --smoke
//! ```

use rjms_bench::overhead::{median, paired, saturated_run};
use rjms_bench::{experiment_header, Table};
use rjms_broker::{shard_of, Broker, BrokerConfig, OverflowPolicy};
use rjms_core::CostParams;

/// Acceptance gate: 4-shard throughput over 1-shard throughput.
const MIN_RATIO: f64 = 2.0;

/// Cores needed for the hard gate (4 dispatchers must actually overlap).
const GATE_CORES: usize = 4;

/// Topics in the workload, one per shard at `SHARDS = 4`.
const TOPICS: usize = 4;

/// Always-evaluated subscriptions per topic (the `n_fltr` spin count).
const FILTERS: usize = 50;

/// Per-message constants: Table-I correlation-ID shape, inflated so the
/// spin dominates native dispatch overhead (`E[B] ≈ 370 µs` at 50
/// filters — one dispatcher saturates near 2.7k msg/s).
fn cost() -> CostParams {
    CostParams::new(0.85e-6, 7.02e-6, 17.0e-6)
}

fn cores() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// One saturated fixed-count run; returns received msgs/s.
///
/// The publisher round-robins the four topics and blocks on full shard
/// queues, so every dispatcher's queue stays non-empty — the measured
/// rate is the broker's capacity, not the offered load.
fn measure(shards: usize, n_per_topic: u64) -> f64 {
    let broker = Broker::start(
        BrokerConfig::builder()
            .shards(shards)
            .cost_model(cost())
            .publish_queue_capacity(64)
            .subscriber_queue_capacity(1 << 12)
            .overflow_policy(OverflowPolicy::DropNew)
            .build(),
    );
    // One topic per shard of the 4-shard layout; at shards = 1 the same
    // names all land on the lone dispatcher, keeping the work identical.
    let mut names = vec![None; TOPICS];
    let mut found = 0;
    for trial in 0.. {
        let name = format!("bench-{trial}");
        let shard = shard_of(&name, TOPICS);
        if names[shard].is_none() {
            names[shard] = Some(name);
            found += 1;
            if found == TOPICS {
                break;
            }
        }
    }
    let topics: Vec<String> = names.into_iter().map(Option::unwrap).collect();
    let mut subscribers = Vec::new();
    let mut publishers = Vec::new();
    for topic in &topics {
        broker.create_topic(topic).unwrap();
        for _ in 0..FILTERS {
            subscribers.push(broker.subscription(topic).open().unwrap());
        }
        publishers.push(broker.publisher(topic).unwrap());
    }

    let rate = saturated_run(&broker, &publishers, n_per_topic * TOPICS as u64);
    broker.shutdown();
    rate
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (reps, n_per_topic) = if smoke { (3, 400) } else { (5, 1_000) };
    let gated = cores() >= GATE_CORES;

    experiment_header(
        "ext_shard_scaling",
        "extension (sharded dispatch)",
        "saturated throughput, 4 dispatcher shards vs 1, same per-message work; gate at 2x",
    );
    if smoke {
        println!("smoke mode: reduced counts and repetitions, CI regression gate\n");
    }
    println!(
        "workload: {TOPICS} topics x {FILTERS} filters, E[B] = {:.0} us/msg; host cores: {}",
        cost().mean_service_time(FILTERS as u32, 1.0) * 1e6,
        cores(),
    );
    if !gated {
        println!("fewer than {GATE_CORES} cores: dispatchers time-slice, ratio is report-only\n");
    } else {
        println!();
    }

    let mut table = Table::new(&["rep", "1 shard (msg/s)", "4 shards (msg/s)", "ratio"]);
    let pairs = paired(reps, |sharded| measure(if sharded { 4 } else { 1 }, n_per_topic));
    for (rep, pair) in pairs.iter().enumerate() {
        table.row(&[
            &(rep + 1),
            &format!("{:.0}", pair.off),
            &format!("{:.0}", pair.on),
            &format!("{:.2}x", pair.on / pair.off),
        ]);
    }
    table.print();
    let ratio = median(pairs.iter().map(|pair| pair.on / pair.off).collect());

    println!();
    println!(
        "shard scaling (median ratio): {ratio:.2}x  [GATE: >= {MIN_RATIO:.1}x on {GATE_CORES}+ cores]"
    );

    if gated && ratio < MIN_RATIO {
        println!("FAIL: sharded dispatch does not scale throughput on this host");
        std::process::exit(1);
    }
    println!("PASS: sharded dispatch meets the scaling gate");
}
