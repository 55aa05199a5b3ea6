//! Inverting the waiting-time model into an arrival-rate budget.
//!
//! Eq. 1 gives the mean service time `E[B] = t_rcv + n_fltr·t_fltr +
//! E[R]·t_tx`; the `M/GI/1-∞` machinery (Eqs. 4–20) turns `(B, ρ)` into a
//! waiting-time distribution. The controller runs that machinery
//! *backwards*: given a `W99` objective it finds, by bisection over `ρ`
//! (see [`max_utilization_for_quantile`]), the largest utilization whose
//! predicted 99th percentile still fits, and publishes the corresponding
//! arrival-rate budget `λ_max = ρ_max / E[B]`.
//!
//! The budget is not static. [`FlowController::refresh`] consumes the
//! drift verdicts produced by [`ModelMonitor`](rjms_core::ModelMonitor):
//!
//! * `Calibrated` — the live broker matches the analytic model; the
//!   budget returns to (or stays at) the analytic inversion.
//! * `Drift` — the measured service moments disagree with the model; the
//!   controller re-inverts with a service time rebuilt from the *measured*
//!   `E[B]` and `c_var[B]`, so a slower or more variable server
//!   automatically tightens `λ_max`.
//! * `Overloaded` — the measured operating point is at or past `ρ = 1`
//!   and no finite prediction exists; the budget takes a multiplicative
//!   emergency cut (floored so it can recover).
//! * `Insufficient` — not enough samples; the budget is left alone.

use crate::config::{FlowConfig, HEADROOM, REPLICATION_GRADE};
use rjms_core::{
    max_utilization_for_quantile, measured_service, CostParams, ModelVerdict, ReplicationModel,
    ServerModel, ServiceTime,
};
use serde::{Deserialize, Serialize};
use std::sync::Mutex;

/// Where the current `λ_max` came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CalibrationSource {
    /// The analytic model at the configured cost constants.
    Analytic,
    /// Re-inverted from measured service moments after a drift verdict.
    Measured,
    /// Emergency multiplicative cut after an overloaded verdict.
    Tightened,
}

impl CalibrationSource {
    /// Stable lowercase name for JSON exposition.
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Analytic => "analytic",
            Self::Measured => "measured",
            Self::Tightened => "tightened",
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct ControllerState {
    rho_max: f64,
    lambda_max: f64,
    source: CalibrationSource,
    refreshes: u64,
}

/// The analytic seed model the calibrated/overloaded verdicts fall back
/// to. Kept behind its own lock so the measured journal cost can re-seed
/// it at runtime (see [`FlowController::reseed_store_cost`]).
#[derive(Debug)]
struct SeedModel {
    /// Eq. 1 service time at the seeded cost constants.
    analytic: ServiceTime,
    /// Aggregate `λ_max` of the analytic inversion: the recovery ceiling
    /// and the floor (times [`FlowController::TIGHTEN_FLOOR`]) for
    /// emergency cuts.
    analytic_lambda: f64,
    /// The `t_store` currently baked into `analytic`.
    t_store: f64,
}

/// Computes and maintains the maximum sustainable arrival rate `λ_max`
/// for a `W99` objective. See the [module docs](self).
///
/// # Examples
///
/// ```
/// use rjms_flow::{FlowConfig, FlowController};
///
/// let controller = FlowController::new(&FlowConfig::default(), 1);
/// // A finite budget exists for any positive objective.
/// assert!(controller.lambda_max() > 0.0);
/// assert!(controller.rho_max() <= 0.999);
/// ```
#[derive(Debug)]
pub struct FlowController {
    /// Inversion target: `w99_objective / HEADROOM`, seconds.
    target: f64,
    objective: f64,
    /// Seed cost constants (without `t_store`, which the seed model
    /// tracks) and filter count, kept so the seed can be rebuilt when the
    /// measured journal cost arrives.
    params: CostParams,
    filters: u32,
    seed: Mutex<SeedModel>,
    /// Number of dispatcher shards sharing the budget. Each shard is one
    /// M/GI/1 server held at `rho_max`, so every inversion's per-server
    /// rate is multiplied by this to form the aggregate budget.
    shards: f64,
    state: Mutex<ControllerState>,
}

impl FlowController {
    /// Emergency cuts never push `λ_max` below this fraction of the
    /// analytic budget, so the gate keeps admitting a trickle and the
    /// monitor can gather the samples needed to recover.
    const TIGHTEN_FLOOR: f64 = 0.05;

    /// An `Overloaded` verdict halves `λ_max`: measured ρ > 1 leaves no
    /// model to invert, and halving reaches any sustainable rate within a
    /// few refreshes.
    const OVERLOAD_TIGHTEN: f64 = 0.5;

    /// Builds the controller from the seed model in `config` and performs
    /// the initial analytic inversion. The budget is split across `shards`
    /// dispatchers, each one M/GI/1 server held at the inverted
    /// utilisation, so the aggregate budget is `shards · λ_per_shard`; `1`
    /// is the single-server budget.
    pub fn new(config: &FlowConfig, shards: usize) -> Self {
        let analytic = seed_service(config.params, config.filters);
        let target = config.w99_objective / HEADROOM;
        let shards = shards.max(1) as f64;
        let (rho_max, per_shard) = invert(&analytic, target);
        let lambda_max = per_shard * shards;
        Self {
            target,
            objective: config.w99_objective,
            params: config.params,
            filters: config.filters,
            seed: Mutex::new(SeedModel {
                analytic,
                analytic_lambda: lambda_max,
                t_store: config.params.t_store,
            }),
            shards,
            state: Mutex::new(ControllerState {
                rho_max,
                lambda_max,
                source: CalibrationSource::Analytic,
                refreshes: 0,
            }),
        }
    }

    /// The maximum sustainable arrival rate, messages per second.
    pub fn lambda_max(&self) -> f64 {
        self.state.lock().unwrap().lambda_max
    }

    /// The utilization ceiling behind the current `λ_max`.
    pub fn rho_max(&self) -> f64 {
        self.state.lock().unwrap().rho_max
    }

    /// The configured `W99` objective, seconds.
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// Where the current budget came from.
    pub fn source(&self) -> CalibrationSource {
        self.state.lock().unwrap().source
    }

    /// How many verdicts have changed the budget since construction.
    pub fn refreshes(&self) -> u64 {
        self.state.lock().unwrap().refreshes
    }

    /// Feeds one drift verdict into the budget. Returns the new `λ_max`
    /// if the verdict changed it, `None` if the budget was left alone.
    pub fn refresh(&self, verdict: &ModelVerdict) -> Option<f64> {
        let mut state = self.state.lock().unwrap();
        let (rho, lambda, source) = match verdict {
            ModelVerdict::Insufficient { .. } => return None,
            ModelVerdict::Calibrated(_) => {
                let seed = self.seed.lock().unwrap();
                let (rho, lambda) = invert(&seed.analytic, self.target);
                (rho, lambda * self.shards, CalibrationSource::Analytic)
            }
            ModelVerdict::Drift(report) => {
                let m = &report.measured;
                let service = measured_service(m.mean_service_time, m.service_cvar)?;
                let (rho, lambda) = invert(&service, self.target);
                (rho, lambda * self.shards, CalibrationSource::Measured)
            }
            ModelVerdict::Overloaded { .. } => {
                let floor = self.seed.lock().unwrap().analytic_lambda * Self::TIGHTEN_FLOOR;
                let cut = (state.lambda_max * Self::OVERLOAD_TIGHTEN).max(floor);
                (state.rho_max, cut, CalibrationSource::Tightened)
            }
            // `ModelVerdict` is non_exhaustive: unknown future verdicts
            // leave the budget untouched.
            _ => return None,
        };
        if lambda == state.lambda_max && source == state.source {
            return None;
        }
        state.rho_max = rho;
        state.lambda_max = lambda;
        state.source = source;
        state.refreshes += 1;
        Some(lambda)
    }

    /// Re-seeds the analytic model with a *measured* per-message store
    /// cost (seconds) — the journal's mean append + amortized fsync time —
    /// closing Eq. 1's `t_store` term over the live system instead of a
    /// configured guess.
    ///
    /// Changes smaller than 5% of the seed's mean service time are
    /// ignored (the measurement jitters; re-inverting on every refresh
    /// would churn the budget). When the current budget *is* the analytic
    /// one, the re-seeded inversion is applied immediately and the new
    /// aggregate `λ_max` is returned; otherwise the new seed only takes
    /// effect at the next calibrated verdict and `None` is returned.
    pub fn reseed_store_cost(&self, t_store: f64) -> Option<f64> {
        if !(t_store.is_finite() && t_store >= 0.0) {
            return None;
        }
        let mut seed = self.seed.lock().unwrap();
        if (t_store - seed.t_store).abs() < 0.05 * seed.analytic.mean() {
            return None;
        }
        let analytic = seed_service(self.params.with_t_store(t_store), self.filters);
        let (rho, per_shard) = invert(&analytic, self.target);
        let lambda = per_shard * self.shards;
        seed.analytic = analytic;
        seed.analytic_lambda = lambda;
        seed.t_store = t_store;
        drop(seed);

        let mut state = self.state.lock().unwrap();
        if state.source != CalibrationSource::Analytic || state.lambda_max == lambda {
            return None;
        }
        state.rho_max = rho;
        state.lambda_max = lambda;
        state.refreshes += 1;
        Some(lambda)
    }

    /// The `t_store` currently baked into the analytic seed model,
    /// seconds: the configured value until the first
    /// [`FlowController::reseed_store_cost`], the measured one after.
    pub fn seeded_t_store(&self) -> f64 {
        self.seed.lock().unwrap().t_store
    }
}

/// Eq. 1's service time at the seed model's operating point.
fn seed_service(params: CostParams, filters: u32) -> ServiceTime {
    ServerModel::new(params, filters)
        .service_time(ReplicationModel::deterministic(REPLICATION_GRADE))
}

/// The core inversion: largest `ρ` whose predicted `W99` fits `target`,
/// and the arrival rate it implies.
fn invert(service: &ServiceTime, target: f64) -> (f64, f64) {
    let rho = max_utilization_for_quantile(service, 0.99, target);
    (rho, rho / service.mean())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rjms_core::ModelMonitor;
    use rjms_metrics::Histogram;
    use std::time::Duration;

    /// A 2.5 ms objective: the inversion targets 2 ms after the headroom.
    fn config() -> FlowConfig {
        FlowConfig::default().w99_objective(0.0025).filters(100)
    }

    /// Builds a verdict by feeding synthetic waiting/service histograms
    /// (given in seconds) through the real monitor. The synthetic waiting
    /// samples are point masses, which no queueing distribution matches,
    /// so the waiting tolerances are disabled: the controller only reacts
    /// to *service* drift here.
    fn verdict(service_s: f64, waiting_s: f64, rate: f64) -> ModelVerdict {
        let c = config();
        let tolerance = rjms_core::DriftTolerance {
            waiting_mean: f64::INFINITY,
            waiting_q99: f64::INFINITY,
            ..Default::default()
        };
        let monitor = ModelMonitor::new(
            ServerModel::new(c.params, c.filters),
            ReplicationModel::deterministic(REPLICATION_GRADE),
        )
        .with_tolerance(tolerance);
        let waiting = Histogram::new();
        let service = Histogram::new();
        let n = 2000u64;
        for _ in 0..n {
            waiting.record((waiting_s * 1e9) as u64);
            service.record((service_s * 1e9) as u64);
        }
        let elapsed = Duration::from_secs_f64(n as f64 / rate);
        monitor.assess(&waiting.snapshot(), &service.snapshot(), elapsed)
    }

    #[test]
    fn inversion_meets_the_objective() {
        let c = config();
        let controller = FlowController::new(&c, 1);
        let service = seed_service(c.params, c.filters);
        let rho = controller.rho_max();
        assert!(rho > 0.0 && rho <= 0.999);
        // The predicted W99 at the ceiling fits the target.
        let analysis = rjms_core::WaitingTimeAnalysis::for_service_time(service, rho).unwrap();
        assert!(analysis.distribution().quantile(0.99) <= c.w99_objective / HEADROOM * 1.001);
        assert!((controller.lambda_max() - rho / service.mean()).abs() < 1e-9);
    }

    #[test]
    fn sharded_budget_scales_linearly() {
        let one = FlowController::new(&config(), 1);
        let four = FlowController::new(&config(), 4);
        // Same per-shard utilisation ceiling, 4x the aggregate rate.
        assert_eq!(one.rho_max(), four.rho_max());
        assert!((four.lambda_max() - 4.0 * one.lambda_max()).abs() < 1e-9);

        // Recalibration from a drift verdict keeps the shard multiplier.
        let c = config();
        let e_b = c.params.mean_service_time(c.filters, REPLICATION_GRADE);
        let v = verdict(3.0 * e_b, 2.0 * e_b, 0.3 / e_b);
        let one_after = one.refresh(&v).expect("drift refreshes");
        let four_after = four.refresh(&v).expect("drift refreshes");
        assert!((four_after - 4.0 * one_after).abs() < 1e-9);
    }

    #[test]
    fn tighter_objective_means_smaller_budget() {
        let loose = FlowController::new(&config().w99_objective(0.01), 1);
        let tight = FlowController::new(&config().w99_objective(0.001), 1);
        assert!(tight.lambda_max() < loose.lambda_max());
    }

    #[test]
    fn drift_with_slower_service_tightens_the_budget() {
        let c = config();
        let controller = FlowController::new(&c, 1);
        let before = controller.lambda_max();
        let e_b = c.params.mean_service_time(c.filters, REPLICATION_GRADE);
        // Server measured 3x slower than the model at a modest load: the
        // monitor flags drift and the budget shrinks roughly 3x.
        let v = verdict(3.0 * e_b, 2.0 * e_b, 0.3 / e_b);
        assert!(matches!(v, ModelVerdict::Drift(_)), "expected drift, got {v:?}");
        let after = controller.refresh(&v).expect("drift must refresh the budget");
        assert!(after < before * 0.5, "budget {after} should tighten well below {before}");
        assert_eq!(controller.source(), CalibrationSource::Measured);

        // A calibrated verdict restores the analytic budget.
        let v = verdict(e_b, 0.2 * e_b, 0.3 / e_b);
        assert!(matches!(v, ModelVerdict::Calibrated(_)), "expected calibrated, got {v:?}");
        controller.refresh(&v).expect("recovery must refresh the budget");
        assert_eq!(controller.source(), CalibrationSource::Analytic);
        assert!((controller.lambda_max() - before).abs() < 1e-9);
    }

    #[test]
    fn overload_applies_emergency_cut_with_floor() {
        let c = config();
        let controller = FlowController::new(&c, 1);
        let before = controller.lambda_max();
        let e_b = c.params.mean_service_time(c.filters, REPLICATION_GRADE);
        // Measured rho > 1: no finite prediction, budget halves.
        let v = verdict(e_b, 10.0 * e_b, 1.5 / e_b);
        assert!(matches!(v, ModelVerdict::Overloaded { .. }), "expected overload, got {v:?}");
        controller.refresh(&v).expect("overload must cut the budget");
        assert_eq!(controller.source(), CalibrationSource::Tightened);
        assert!((controller.lambda_max() - before * FlowController::OVERLOAD_TIGHTEN).abs() < 1e-9);
        // Repeated cuts bottom out at the floor instead of collapsing to 0.
        for _ in 0..64 {
            controller.refresh(&v);
        }
        assert!(controller.lambda_max() >= before * FlowController::TIGHTEN_FLOOR - 1e-9);
    }

    #[test]
    fn reseed_store_cost_tightens_analytic_budget() {
        let c = config();
        let controller = FlowController::new(&c, 1);
        let before = controller.lambda_max();
        assert_eq!(controller.seeded_t_store(), 0.0);
        // A measured store cost comparable to E[B] roughly doubles the
        // service time; the analytic budget shrinks immediately.
        let e_b = c.params.mean_service_time(c.filters, REPLICATION_GRADE);
        let after = controller.reseed_store_cost(e_b).expect("budget must re-invert");
        assert!(after < before * 0.7, "budget {after} should tighten below {before}");
        assert_eq!(controller.seeded_t_store(), e_b);
        assert_eq!(controller.source(), CalibrationSource::Analytic);
        assert_eq!(controller.lambda_max(), after);

        // Jitter below 5% of E[B] is ignored.
        assert!(controller.reseed_store_cost(e_b * 1.01).is_none());
        assert_eq!(controller.seeded_t_store(), e_b);
        // Garbage measurements are ignored.
        assert!(controller.reseed_store_cost(f64::NAN).is_none());
        assert!(controller.reseed_store_cost(-1.0).is_none());
    }

    #[test]
    fn reseed_while_measured_waits_for_recalibration() {
        let c = config();
        let controller = FlowController::new(&c, 1);
        let e_b = c.params.mean_service_time(c.filters, REPLICATION_GRADE);
        // Drift first: the live budget comes from measured moments.
        let v = verdict(3.0 * e_b, 2.0 * e_b, 0.3 / e_b);
        controller.refresh(&v).expect("drift refreshes");
        let measured = controller.lambda_max();

        // Re-seeding must not clobber the measured budget...
        assert!(controller.reseed_store_cost(e_b).is_none());
        assert_eq!(controller.lambda_max(), measured);
        assert_eq!(controller.source(), CalibrationSource::Measured);

        // ...but the next calibrated verdict lands on the new seed, below
        // the original store-free analytic budget.
        let analytic_free = FlowController::new(&c, 1).lambda_max();
        let v = verdict(e_b, 0.2 * e_b, 0.3 / e_b);
        assert!(matches!(v, ModelVerdict::Calibrated(_)), "expected calibrated, got {v:?}");
        controller.refresh(&v).expect("recovery refreshes");
        assert_eq!(controller.source(), CalibrationSource::Analytic);
        assert!(controller.lambda_max() < analytic_free * 0.7);
    }

    #[test]
    fn insufficient_samples_leave_the_budget_alone() {
        let controller = FlowController::new(&config(), 1);
        let before = controller.lambda_max();
        let v = ModelVerdict::Insufficient { samples: 1, required: 1000 };
        assert!(controller.refresh(&v).is_none());
        assert_eq!(controller.lambda_max(), before);
        assert_eq!(controller.refreshes(), 0);
    }
}
