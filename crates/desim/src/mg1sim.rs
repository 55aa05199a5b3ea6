//! Discrete-event simulation of the `M/GI/1-∞` queue.
//!
//! Used to *validate* the analytic waiting-time results of
//! [`rjms_queueing::mg1`]: Poisson arrivals, one server, FIFO order,
//! unbounded buffer. The simulator records every message's waiting time
//! (time from arrival to start of service) and summarizes mean, moments and
//! empirical quantiles.
//!
//! For a FIFO single server the Lindley recursion
//! `W_{n+1} = max(0, W_n + B_n − A_{n+1})` *is* the waiting-time process,
//! so no event calendar is needed: one pass draws a service time and an
//! exponential gap per message.

use crate::random::ServiceSampler;
use crate::stats::{OnlineStats, SampleQuantiles};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Configuration of an M/G/1 simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Mg1SimConfig {
    /// Poisson arrival rate λ (messages per second).
    pub arrival_rate: f64,
    /// Number of *recorded* waiting-time samples.
    pub samples: usize,
    /// Number of initial samples discarded as warmup.
    pub warmup: usize,
    /// RNG seed for reproducibility.
    pub seed: u64,
}

impl Default for Mg1SimConfig {
    fn default() -> Self {
        Self { arrival_rate: 1.0, samples: 100_000, warmup: 10_000, seed: 42 }
    }
}

/// Results of an M/G/1 simulation run.
#[derive(Debug)]
pub struct Mg1SimResult {
    /// Waiting-time summary statistics.
    pub waiting: OnlineStats,
    /// All recorded waiting-time samples (for quantiles / CDF comparison).
    pub waiting_samples: SampleQuantiles,
    /// Service-time summary (sanity check against the configured sampler).
    pub service: OnlineStats,
    /// Fraction of messages that had to wait (should approach ρ).
    pub waiting_probability: f64,
}

/// Runs the M/G/1 simulation with the (fast) Lindley recursion.
///
/// # Panics
///
/// Panics if the configured utilization `λ·E[B] >= 1` (no steady state) or
/// `samples` is 0.
///
/// # Examples
///
/// ```
/// use rjms_desim::mg1sim::{simulate_lindley, Mg1SimConfig};
/// use rjms_desim::random::ExponentialService;
///
/// // M/M/1 at ρ = 0.5: E[W] = 1.0 for unit-mean service.
/// let cfg = Mg1SimConfig { arrival_rate: 0.5, samples: 200_000, warmup: 10_000, seed: 7 };
/// let res = simulate_lindley(&cfg, &ExponentialService { mean: 1.0 });
/// assert!((res.waiting.mean() - 1.0).abs() < 0.1);
/// ```
pub fn simulate_lindley<S: ServiceSampler>(config: &Mg1SimConfig, service: &S) -> Mg1SimResult {
    validate(config, service);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut waiting = OnlineStats::new();
    let mut waiting_samples = SampleQuantiles::with_capacity(config.samples);
    let mut service_stats = OnlineStats::new();
    let mut delayed = 0u64;

    let mut w = 0.0f64; // waiting time of the current message
    let total = config.warmup + config.samples;
    for i in 0..total {
        let b = service.sample(&mut rng);
        let a = crate::random::sample_exponential(&mut rng, config.arrival_rate);
        if i >= config.warmup {
            waiting.push(w);
            waiting_samples.push(w);
            service_stats.push(b);
            if w > 0.0 {
                delayed += 1;
            }
        }
        // Lindley recursion: waiting time of the next arrival.
        w = (w + b - a).max(0.0);
    }

    Mg1SimResult {
        waiting,
        waiting_samples,
        service: service_stats,
        waiting_probability: delayed as f64 / config.samples as f64,
    }
}

fn validate<S: ServiceSampler>(config: &Mg1SimConfig, service: &S) {
    assert!(config.samples > 0, "samples must be > 0");
    let rho = config.arrival_rate * service.mean();
    assert!(
        rho < 1.0,
        "unstable configuration: utilization {rho} >= 1 (λ={}, E[B]={})",
        config.arrival_rate,
        service.mean()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::{DeterministicService, ExponentialService};

    #[test]
    fn mm1_lindley_matches_theory() {
        // M/M/1, ρ = 0.8, unit service: E[W] = ρ/(1-ρ) = 4.
        let cfg = Mg1SimConfig { arrival_rate: 0.8, samples: 400_000, warmup: 50_000, seed: 3 };
        let res = simulate_lindley(&cfg, &ExponentialService { mean: 1.0 });
        assert!((res.waiting.mean() - 4.0).abs() < 0.25, "E[W] = {}", res.waiting.mean());
        assert!((res.waiting_probability - 0.8).abs() < 0.02);
    }

    #[test]
    fn md1_lindley_matches_theory() {
        // M/D/1, ρ = 0.6, b = 1: E[W] = ρ b/(2(1-ρ)) = 0.75.
        let cfg = Mg1SimConfig { arrival_rate: 0.6, samples: 400_000, warmup: 50_000, seed: 5 };
        let res = simulate_lindley(&cfg, &DeterministicService { duration: 1.0 });
        assert!((res.waiting.mean() - 0.75).abs() < 0.05, "E[W] = {}", res.waiting.mean());
    }

    /// Mean wait in `M^X/G/1` by the Lindley recursion: a message that
    /// shares its batch with the next one is followed at distance 0, the
    /// last of a batch by an exponential gap. Batch sizes are geometric
    /// with mean `1/p`.
    fn batched_mean_wait<S: ServiceSampler>(service: &S, message_rate: f64, p: f64) -> f64 {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(17);
        let mut waiting = OnlineStats::new();
        let (mut w, mut behind_in_batch) = (0.0f64, 0u32);
        for i in 0..1_050_000 {
            if i >= 50_000 {
                waiting.push(w);
            }
            let gap = if behind_in_batch > 0 {
                behind_in_batch -= 1;
                0.0
            } else {
                while !rng.gen_bool(p) {
                    behind_in_batch += 1;
                }
                crate::random::sample_exponential(&mut rng, message_rate * p)
            };
            w = (w + service.sample(&mut rng) - gap).max(0.0);
        }
        waiting.mean()
    }

    #[test]
    fn geometric_batches_match_the_batched_mean_waiting_time() {
        use rjms_queueing::{Mg1, Moments3};
        // Batches of mean 4 at message rate 0.6, unit mean service.
        let (p, message_rate) = (0.25, 0.6);
        let (batch_m1, batch_m2) = (1.0 / p, (2.0 - p) / (p * p));
        let simulated = [
            (
                batched_mean_wait(&DeterministicService { duration: 1.0 }, message_rate, p),
                Moments3::constant(1.0),
            ),
            (
                batched_mean_wait(&ExponentialService { mean: 1.0 }, message_rate, p),
                Moments3::new(1.0, 2.0, 6.0),
            ),
        ];
        for (simulated, service) in simulated {
            let model = Mg1::new(message_rate, service).unwrap();
            let batched = model.mean_waiting_time_batched(batch_m1, batch_m2);
            let error = (simulated - batched) / batched;
            assert!(error.abs() < 0.05, "simulated {simulated} vs model {batched}");
            // Most of this wait is the batching: arriving singly, the same
            // messages would wait less than a quarter as long.
            assert!(model.mean_waiting_time() < 0.25 * simulated);
        }
    }

    #[test]
    fn zero_load_never_waits() {
        let cfg = Mg1SimConfig { arrival_rate: 1e-6, samples: 1_000, warmup: 0, seed: 1 };
        let res = simulate_lindley(&cfg, &DeterministicService { duration: 0.001 });
        assert_eq!(res.waiting.max(), 0.0);
        assert_eq!(res.waiting_probability, 0.0);
    }

    #[test]
    #[should_panic(expected = "unstable configuration")]
    fn rejects_overload() {
        let cfg = Mg1SimConfig { arrival_rate: 2.0, samples: 10, warmup: 0, seed: 1 };
        simulate_lindley(&cfg, &DeterministicService { duration: 1.0 });
    }

    #[test]
    fn reproducible_with_same_seed() {
        let cfg = Mg1SimConfig { arrival_rate: 0.5, samples: 10_000, warmup: 100, seed: 99 };
        let a = simulate_lindley(&cfg, &ExponentialService { mean: 1.0 });
        let b = simulate_lindley(&cfg, &ExponentialService { mean: 1.0 });
        assert_eq!(a.waiting.mean(), b.waiting.mean());
        assert_eq!(a.waiting.count(), b.waiting.count());
    }
}
