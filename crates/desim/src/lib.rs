//! # rjms-desim
//!
//! Simulation references for the JMS performance study (the paper's
//! measurement grid runs on the broker itself, `rjms-bench`'s `grid`):
//!
//! * [`random`] — exponential / replication-grade / service-time samplers
//!   that share their distributions with the analytic crate so simulation
//!   and analysis cannot drift apart,
//! * [`mg1sim`] — an `M/GI/1-∞` simulator (the Lindley recursion) used to
//!   validate the Pollaczek–Khinchine formulas and the Gamma approximation
//!   of the waiting time,
//! * [`distributed`] — the bottleneck broker of the PSR / SSR architectures
//!   (§IV-C), each broker one Lindley queue,
//! * [`stats`] — online statistics and empirical quantiles for simulation
//!   output.
//!
//! ## Example: validating E[W] against theory
//!
//! ```
//! use rjms_desim::mg1sim::{simulate_lindley, Mg1SimConfig};
//! use rjms_desim::random::ExponentialService;
//!
//! // M/M/1 at ρ = 0.5 with unit-mean service: E[W] = 1.
//! let cfg = Mg1SimConfig { arrival_rate: 0.5, samples: 100_000, warmup: 10_000, seed: 1 };
//! let result = simulate_lindley(&cfg, &ExponentialService { mean: 1.0 });
//! assert!((result.waiting.mean() - 1.0).abs() < 0.15);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod distributed;
pub mod mg1sim;
pub mod random;
pub mod stats;

pub use mg1sim::{simulate_lindley, Mg1SimConfig, Mg1SimResult};
pub use stats::{OnlineStats, SampleQuantiles};
