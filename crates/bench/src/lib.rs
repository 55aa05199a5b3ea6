//! # rjms-bench
//!
//! Experiment harness regenerating every table and figure of the paper's
//! evaluation. Each experiment is a binary (`cargo run -p rjms-bench
//! --release --bin <name>`) that prints the same rows/series the paper
//! reports; `EXPERIMENTS.md` at the repository root records paper-vs-measured
//! for each. The `benches/` directory additionally holds Criterion
//! micro-benchmarks for the runtime-critical components.
//!
//! This library crate carries the shared plumbing: a fixed-width text-table
//! writer, the experiment registry used to index the binaries, and the
//! paired overhead gates ([`overhead`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod overhead;
pub mod report;
pub mod table;

pub use report::BenchReport;
pub use table::Table;

/// The experiment ids, one per paper artifact, as `(binary, paper artifact,
/// what it reproduces)`.
pub const EXPERIMENTS: &[(&str, &str, &str)] = &[
    ("table1_calibration", "Table I", "fit (t_rcv, t_fltr, t_tx) from simulated measurements"),
    ("fig4_throughput", "Fig. 4", "overall throughput vs n_fltr and R, measured vs model"),
    ("fig5_service_time", "Fig. 5", "mean service time E[B] vs n_fltr and E[R]"),
    ("fig6_capacity", "Fig. 6", "server capacity at rho=0.9 vs n_fltr and E[R]"),
    ("eq3_filter_benefit", "Eq. 3", "break-even filter match probabilities"),
    ("fig8_cvar_bernoulli", "Fig. 8", "c_var[B] vs n_fltr, scaled Bernoulli R"),
    ("fig9_cvar_binomial", "Fig. 9", "c_var[B] vs n_fltr, binomial R"),
    ("fig10_mean_waiting", "Fig. 10", "normalized mean waiting time vs utilization"),
    ("fig11_waiting_cdf", "Fig. 11", "waiting-time CCDF at rho=0.9, analytic vs simulated"),
    ("fig12_quantiles", "Fig. 12", "99% and 99.99% waiting-time quantiles vs utilization"),
    ("fig15_psr_ssr", "Fig. 15", "PSR vs SSR distributed capacity vs n and m"),
];

/// Prints the standard experiment header.
pub fn experiment_header(id: &str, artifact: &str, description: &str) {
    println!("================================================================");
    println!("{id} — reproduces {artifact}");
    println!("{description}");
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_experiment_has_unique_binary_name() {
        let mut names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
        assert_eq!(before, 11);
    }
}
