//! **Extension** (beyond the paper's in-memory measurements): the cost of
//! persistent messaging as an extra additive service-time term.
//!
//! The paper's Eq. 1 model `E[B] = t_rcv + n_fltr·t_fltr + E[R]·t_tx` was
//! fitted to a JMS server whose persistence settings were fixed. This
//! experiment measures the per-message write-ahead journal cost `t_store`
//! of `rjms-journal` under each fsync policy, extends the model to
//! `E[B] = t_rcv + n_fltr·t_fltr + E[R]·t_tx + t_store`, and reports how
//! server capacity (Eq. 2) and the mean waiting time (Fig. 10 pipeline)
//! move as durability is tightened from `Never` to `Always`.
//!
//! The broker's dispatcher writes the publishes it finds queued as one
//! *run* (group commit, DESIGN.md §3.3b), so the second table prices a
//! record as a function of the run it is written in and fits
//! `t_store(run) ≈ t_frame + t_write/run`: the fixed cost per commit that
//! `Mg1::mean_waiting_time_batched` amortises over a batch.
//!
//! Exits 1 if, without fsync, a record in a run of 64 is not cheaper than
//! a single append (the CI smoke check).

use rjms_bench::{experiment_header, Table};
use rjms_broker::persist::{encode_publish, encode_publish_into};
use rjms_broker::Message;
use rjms_core::capacity::server_capacity;
use rjms_core::model::ServerModel;
use rjms_core::params::CostParams;
use rjms_core::waiting::WaitingTimeAnalysis;
use rjms_journal::{scratch_dir, FsyncPolicy, Journal, JournalConfig};
use rjms_queueing::replication::ReplicationModel;
use std::time::{Duration, Instant};

/// The runs the batched cost is measured at: a lone message, a short run
/// and the dispatcher's bound.
const RUNS: [u64; 3] = [1, 8, 64];

/// Measured storage cost for one fsync policy.
struct StoreCost {
    policy: FsyncPolicy,
    /// Mean wall-clock seconds per single journal append (including its
    /// share of fsyncs), i.e. the measured `t_store` of a run of one whose
    /// payload is already encoded.
    t_store: f64,
    fsyncs_per_msg: f64,
    frame_bytes: usize,
    /// Mean seconds per record, encoded in place and committed in runs of
    /// [`RUNS`].
    batched: [f64; 3],
}

impl StoreCost {
    /// `(t_frame, t_write)` of `t_store(run) = t_frame + t_write/run`
    /// through the shortest and the longest of [`RUNS`]: what every record
    /// costs, and what every commit costs (the `write`, and the `fdatasync`
    /// when the policy has one per commit).
    fn fit(&self) -> (f64, f64) {
        let (lone, full) = (self.batched[0], self.batched[2]);
        let run = RUNS[2] as f64;
        let t_write = (lone - full) * run / (run - 1.0);
        (lone - t_write, t_write)
    }
}

fn representative_message() -> Message {
    Message::builder()
        .correlation_id("order-4711")
        .property("symbol", "ACME")
        .property("price", 42.5)
        .body(vec![0xA5; 64])
        .build()
}

/// Opens a warmed-up scratch journal, times `timed` on it and returns the
/// elapsed seconds and the fsyncs issued meanwhile.
fn timed_on_scratch_journal(policy: FsyncPolicy, timed: impl FnOnce(&mut Journal)) -> (f64, u64) {
    let dir = scratch_dir("ext-persistence");
    let config = JournalConfig::new(&dir).fsync(policy);
    let (mut journal, _) = Journal::open(config).expect("open scratch journal");

    // Warm up the file and the frame buffer outside the timed window.
    let warmup = encode_publish("stocks", &representative_message());
    for _ in 0..64 {
        journal.append(&warmup).expect("warmup append");
    }
    journal.sync().expect("warmup sync");
    let base = journal.stats();

    let start = Instant::now();
    timed(&mut journal);
    let elapsed = start.elapsed().as_secs_f64();
    let fsyncs = journal.stats().fsyncs - base.fsyncs;
    drop(journal);
    let _ = std::fs::remove_dir_all(&dir);
    (elapsed, fsyncs)
}

/// Appends `n` copies of a representative publish record one by one, then
/// again in runs, and returns the mean per-record wall-clock costs.
fn measure(policy: FsyncPolicy, n: u64) -> StoreCost {
    let message = representative_message();
    let payload = encode_publish("stocks", &message);
    let (elapsed, fsyncs) = timed_on_scratch_journal(policy, |journal| {
        for _ in 0..n {
            journal.append(&payload).expect("timed append");
        }
    });
    let batched = RUNS.map(|run| {
        let (elapsed, _) = timed_on_scratch_journal(policy, |journal| {
            for _ in 0..n / run {
                journal
                    .batch(|batch| {
                        for _ in 0..run {
                            batch
                                .append_with(|out| encode_publish_into(out, "stocks", &message))?;
                        }
                        Ok(())
                    })
                    .expect("timed run");
            }
        });
        elapsed / n as f64
    });
    StoreCost {
        policy,
        t_store: elapsed / n as f64,
        fsyncs_per_msg: fsyncs as f64 / n as f64,
        frame_bytes: payload.len(),
        batched,
    }
}

fn main() {
    experiment_header(
        "ext_persistence_cost",
        "extension of Eq. 1/Eq. 2 (persistent messaging)",
        "measured journal t_store per fsync policy and its capacity/waiting-time impact",
    );

    // Fewer timed appends where every append pays a disk round-trip
    // (multiples of 64, so that every run length divides them).
    let sweep: &[(FsyncPolicy, u64)] = &[
        (FsyncPolicy::Never, 51_200),
        (FsyncPolicy::Interval(Duration::from_millis(1)), 19_200),
        (FsyncPolicy::EveryN(64), 19_200),
        (FsyncPolicy::EveryN(8), 5_120),
        (FsyncPolicy::Always, 1_024),
    ];
    let costs: Vec<StoreCost> = sweep.iter().map(|&(policy, n)| measure(policy, n)).collect();

    // Model operating point: the paper's running example — correlation-ID
    // filtering, n_fltr = 100 filters, E[R] = 10 copies (binomial matching,
    // p = 0.1), utilization budget rho = 0.9.
    let n_fltr = 100u32;
    let replication = ReplicationModel::binomial(n_fltr as f64, 0.1);
    let mean_r = replication.mean();
    let rho = 0.9;
    let memory_only = CostParams::CORRELATION_ID;
    let base_capacity = server_capacity(&memory_only, n_fltr, mean_r, rho);

    let mut table = Table::new(&[
        "fsync policy",
        "t_store",
        "fsync/msg",
        "E[B]",
        "lambda_max",
        "capacity vs mem",
        "E[W] rho=0.9",
    ]);
    for cost in &costs {
        let params = memory_only.with_t_store(cost.t_store);
        let capacity = server_capacity(&params, n_fltr, mean_r, rho);
        let analysis =
            WaitingTimeAnalysis::for_model(&ServerModel::new(params, n_fltr), replication, rho)
                .expect("stable at rho < 1");
        let report = analysis.report();
        table.row_strings(vec![
            cost.policy.label(),
            format!("{:.2}us", cost.t_store * 1e6),
            format!("{:.3}", cost.fsyncs_per_msg),
            format!("{:.1}us", params.mean_service_time(n_fltr, mean_r) * 1e6),
            format!("{capacity:.0}/s"),
            format!("{:.1}%", 100.0 * capacity / base_capacity),
            format!("{:.3}ms", report.mean_waiting_time * 1e3),
        ]);
    }
    table.print();

    // What a record costs as a function of the run it is committed in.
    println!();
    let mut runs = Table::new(&[
        "fsync policy",
        "single append",
        "run of 1",
        "run of 8",
        "run of 64",
        "t_frame",
        "t_write",
    ]);
    for cost in &costs {
        let us = |seconds: f64| format!("{:.3}us", seconds * 1e6);
        let (t_frame, t_write) = cost.fit();
        runs.row_strings(vec![
            cost.policy.label(),
            us(cost.t_store),
            us(cost.batched[0]),
            us(cost.batched[1]),
            us(cost.batched[2]),
            us(t_frame),
            us(t_write),
        ]);
    }
    runs.print();
    let never = &costs[0];

    println!();
    println!(
        "operating point: correlation-ID Table I params, n_fltr={n_fltr}, \
         E[R]={mean_r:.0}, {}-byte journal frames, memory-only capacity \
         {base_capacity:.0} msgs/s",
        costs[0].frame_bytes,
    );
    println!();
    println!("findings:");
    println!("  - t_store is an additive term in E[B], so its capacity impact shrinks");
    println!("    as n_fltr or E[R] grow: at the paper's operating point the service");
    println!("    time is dominated by filtering + replication, and only fsync-heavy");
    println!("    policies move the capacity curve materially,");
    println!("  - syncing every N records or every interval amortizes the disk");
    println!("    round-trip and keeps t_store within a small factor of the no-sync cost,");
    println!("  - t_store(run) = t_frame + t_write/run: a record written in a run of");
    println!(
        "    64 costs {:.2}x a single append without fsync; the per-commit cost",
        never.batched[2] / never.t_store
    );
    println!("    t_write is this repository's batch overhead (the M^X/G/1 shape of");
    println!("    Mg1::mean_waiting_time_batched), and under fsync=always it is the flush,");
    println!("  - fsync=always prices each message at a full disk flush; the measured");
    println!("    t_store then dominates E[B] and capacity collapses accordingly —");
    println!("    quantifying the durability/throughput trade the paper left out.");
    println!();
    println!("note: wall-clock measurements; absolute numbers vary with the machine");
    println!("and filesystem, ratios between policies are the robust signal.");

    if never.batched[2] >= never.t_store {
        eprintln!(
            "FAIL: without fsync a record in a run of 64 costs {:.3}us, a single append {:.3}us",
            never.batched[2] * 1e6,
            never.t_store * 1e6
        );
        std::process::exit(1);
    }
}
