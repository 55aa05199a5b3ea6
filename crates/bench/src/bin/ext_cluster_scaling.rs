//! **Extension** (the paper's announced future work, §V): capacity of a
//! subscriber-partitioned broker *cluster* — `k` brokers, each carrying
//! `m/k` subscribers' filters, publishers multicasting to all `k`.
//!
//! Also demonstrates the work-conservation ablation: under brute-force
//! filtering, a `k`-broker cluster and `k` PSR brokers perform the same
//! total filter work, so their system capacities nearly coincide; the
//! cluster's advantage is structural (publisher-count independence, one
//! logical server), and SSR is recovered as the `k = m` corner case.

use rjms_bench::{experiment_header, Table};
use rjms_core::architecture::{ClusterScenario, DistributedScenario};
use rjms_core::params::CostParams;

fn main() {
    experiment_header(
        "ext_cluster_scaling",
        "extension of §IV-C / §V",
        "subscriber-partitioned cluster capacity vs broker count k",
    );

    let m = 10_000u32;
    let base = ClusterScenario {
        params: CostParams::CORRELATION_ID,
        brokers: 1,
        subscribers: m,
        filters_per_subscriber: 10,
        mean_replication: 1.0,
        rho: 0.9,
    };
    let psr_base = DistributedScenario {
        params: CostParams::CORRELATION_ID,
        publishers: 1,
        subscribers: m,
        filters_per_subscriber: 10,
        mean_replication: 1.0,
        rho: 0.9,
    };
    let ssr = psr_base.ssr_capacity();

    println!("m = {m} subscribers, 10 filters each, E[R] = 1, rho = 0.9\n");
    let mut table = Table::new(&["k brokers", "cluster msgs/s", "PSR(n=k) msgs/s", "SSR msgs/s"]);
    for k in [1u32, 2, 5, 10, 50, 100, 500, 1_000, 10_000] {
        let clus = ClusterScenario { brokers: k, ..base };
        let psr = DistributedScenario { publishers: k, ..psr_base };
        table.row_strings(vec![
            k.to_string(),
            format!("{:.1}", clus.capacity()),
            format!("{:.1}", psr.psr_capacity()),
            format!("{ssr:.0}"),
        ]);
    }
    table.print();

    println!();
    println!("observations:");
    println!("  - cluster capacity scales ~linearly in k (filter partitioning),");
    println!("    independently of the number of publishers,");
    println!("  - cluster ≈ PSR at equal broker count: brute-force filter work is");
    println!("    conserved whether messages or filters are partitioned,");
    println!("  - k = m recovers SSR (one broker per subscriber).");

    println!();
    println!("cluster sizing (brokers needed for a target received rate):");
    for target in [100.0, 1_000.0, 5_000.0, 10_000.0] {
        match base.brokers_needed_for(target) {
            Some(k) => println!("  {target:>8.0} msgs/s → k = {k}"),
            None => println!("  {target:>8.0} msgs/s → unreachable (t_rcv floor)"),
        }
    }
}
