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
//! A seed service time, when the caller has one, sets the first budget
//! only; without one the budget is unbounded until the first measurement.
//! After that, [`FlowController::refresh`] re-inverts from what the
//! dispatcher measured — the paper's method, measure the service time and
//! predict the waiting time from it: a service time rebuilt from the
//! measured `E[B]` and `c_var[B]`, so a slower or more variable server
//! tightens `λ_max` and a faster one loosens it. A controller budgets one
//! server: on a sharded broker each dispatcher has its own, fed that
//! shard's own measurement ([`FlowGate`](crate::FlowGate)'s lanes).

use crate::config::{FlowConfig, HEADROOM};
use rjms_core::{max_utilization_for_quantile, measured_service, MeasuredSummary, ServiceTime};
use serde::{Deserialize, Serialize};
use std::sync::Mutex;

/// Where the current `λ_max` came from; a measured budget orders after the
/// analytic seed, and that after none.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum CalibrationSource {
    /// No seed: the budget is unbounded until the first measured refresh.
    Unseeded,
    /// The seed service time, before the first measured refresh.
    Analytic,
    /// Re-inverted from the measured service moments.
    Measured,
}

impl CalibrationSource {
    /// Stable lowercase name for JSON exposition.
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Unseeded => "unseeded",
            Self::Analytic => "analytic",
            Self::Measured => "measured",
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

/// Computes and maintains the maximum sustainable arrival rate `λ_max`
/// for a `W99` objective. See the [module docs](self).
///
/// # Examples
///
/// ```
/// use rjms_core::{CostParams, ReplicationModel, ServerModel};
/// use rjms_flow::{FlowConfig, FlowController};
///
/// let seed = ServerModel::new(CostParams::CORRELATION_ID, 100)
///     .service_time(ReplicationModel::deterministic(1.0));
/// let controller = FlowController::new(&FlowConfig::default(), Some(&seed));
/// // A finite budget exists for any positive objective.
/// assert!(controller.lambda_max() > 0.0);
/// assert!(controller.rho_max() <= 0.999);
/// ```
#[derive(Debug)]
pub struct FlowController {
    /// Inversion target: `w99_objective / HEADROOM`, seconds.
    target: f64,
    state: Mutex<ControllerState>,
}

impl FlowController {
    /// Builds the controller for `config`'s objective. With a `seed` service
    /// time it performs the initial inversion: the budget of one M/GI/1
    /// server held at the inverted utilisation. Without one, `λ_max` and
    /// `ρ_max` are infinite until the first [`refresh`](Self::refresh).
    pub fn new(config: &FlowConfig, seed: Option<&ServiceTime>) -> Self {
        let target = config.w99_objective / HEADROOM;
        let ((rho_max, lambda_max), source) = match seed {
            Some(seed) => (invert(seed, target), CalibrationSource::Analytic),
            None => ((f64::INFINITY, f64::INFINITY), CalibrationSource::Unseeded),
        };
        Self {
            target,
            state: Mutex::new(ControllerState { rho_max, lambda_max, source, refreshes: 0 }),
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

    /// Where the current budget came from.
    pub fn source(&self) -> CalibrationSource {
        self.state.lock().unwrap().source
    }

    /// How many measurements have changed the budget since construction.
    pub fn refreshes(&self) -> u64 {
        self.state.lock().unwrap().refreshes
    }

    /// Re-inverts the budget from the server's measured service moments:
    /// `λ_max = ρ_max / E[B]`. Returns the new `λ_max` if it changed, `None`
    /// if the budget was left alone — also for a degenerate measurement
    /// ([`measured_service`]).
    pub fn refresh(&self, measured: &MeasuredSummary) -> Option<f64> {
        let service = measured_service(measured.mean_service_time, measured.service_cvar)?;
        let (rho, lambda) = invert(&service, self.target);
        let mut state = self.state.lock().unwrap();
        if lambda == state.lambda_max && state.source == CalibrationSource::Measured {
            return None;
        }
        *state = ControllerState {
            rho_max: rho,
            lambda_max: lambda,
            source: CalibrationSource::Measured,
            refreshes: state.refreshes + 1,
        };
        Some(lambda)
    }
}

/// The core inversion: largest `ρ` whose predicted `W99` fits `target`,
/// and the arrival rate it implies.
fn invert(service: &ServiceTime, target: f64) -> (f64, f64) {
    let rho = max_utilization_for_quantile(service, 0.99, target);
    (rho, rho / service.mean())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rjms_core::{CostParams, ReplicationModel, ServerModel};

    /// A 2.5 ms objective: the inversion targets 2 ms after the headroom.
    fn config() -> FlowConfig {
        FlowConfig::default().w99_objective(0.0025)
    }

    /// The seed the tests budget from: Table I's service time at 100
    /// filters and one copy, 720 µs.
    pub(crate) fn seed() -> ServiceTime {
        let table_one = ServerModel::new(CostParams::CORRELATION_ID, 100);
        table_one.service_time(ReplicationModel::deterministic(1.0))
    }

    /// A window that measured a deterministic service of `service_s`
    /// seconds at `rate` messages per second. The waiting fields do not
    /// enter the budget.
    pub(crate) fn measured(service_s: f64, rate: f64) -> MeasuredSummary {
        MeasuredSummary {
            samples: 2000,
            arrival_rate: rate,
            mean_service_time: service_s,
            service_cvar: 0.0,
            utilization: rate * service_s,
            mean_waiting_time: 0.0,
            q99: 0.0,
            q9999: 0.0,
        }
    }

    #[test]
    fn inversion_meets_the_objective() {
        let controller = FlowController::new(&config(), Some(&seed()));
        let service = seed();
        let rho = controller.rho_max();
        assert!(rho > 0.0 && rho <= 0.999);
        // The predicted W99 at the ceiling fits the target.
        let analysis = rjms_core::WaitingTimeAnalysis::for_service_time(service, rho).unwrap();
        assert!(
            analysis.distribution().quantile(0.99) <= config().w99_objective / HEADROOM * 1.001
        );
        assert!((controller.lambda_max() - rho / service.mean()).abs() < 1e-9);

        // A measured refresh is the same inversion of the measured service:
        // the budget is `ρ_max / E[B]` of the one server.
        let e_b = 3.0 * service.mean();
        let lambda = controller.refresh(&measured(e_b, 0.1 / e_b)).expect("refreshes");
        assert!((lambda - controller.rho_max() / e_b).abs() < 1e-9);
    }

    #[test]
    fn tighter_objective_means_smaller_budget() {
        let loose = FlowController::new(&config().w99_objective(0.01), Some(&seed()));
        let tight = FlowController::new(&config().w99_objective(0.001), Some(&seed()));
        assert!(tight.lambda_max() < loose.lambda_max());
    }

    #[test]
    fn a_slower_measured_service_tightens_the_budget() {
        // An objective of a thousand service times holds both servers near
        // the utilisation cap, so the budget tracks `1 / E[B]`.
        let controller = FlowController::new(&config().w99_objective(1.0), Some(&seed()));
        let before = controller.lambda_max();
        // A server measured 3x slower than the seed: the budget shrinks
        // about 3x.
        let e_b = seed().mean();
        let after = controller.refresh(&measured(3.0 * e_b, 0.3 / e_b)).expect("refreshes");
        let ratio = before / after;
        assert!((2.7..3.3).contains(&ratio), "budget {before} → {after}, {ratio:.2}x");
        assert_eq!(controller.source(), CalibrationSource::Measured);
        assert_eq!(controller.refreshes(), 1);
    }

    #[test]
    fn a_measurement_at_the_seed_returns_the_analytic_budget() {
        let analytic = FlowController::new(&config(), Some(&seed())).lambda_max();
        let controller = FlowController::new(&config(), Some(&seed()));
        let e_b = seed().mean();
        controller.refresh(&measured(3.0 * e_b, 0.3 / e_b)).expect("refreshes");
        let back = controller.refresh(&measured(e_b, 0.3 / e_b)).expect("refreshes");
        assert!((back / analytic - 1.0).abs() < 0.05, "measured {back} vs analytic {analytic}");
        // The same measurement again changes nothing.
        assert_eq!(controller.refresh(&measured(e_b, 0.3 / e_b)), None);
        assert_eq!(controller.refreshes(), 2);
    }

    #[test]
    fn a_degenerate_measurement_leaves_the_budget_alone() {
        let controller = FlowController::new(&config(), Some(&seed()));
        let before = controller.lambda_max();
        for service_s in [0.0, f64::NAN] {
            assert!(controller.refresh(&measured(service_s, 1000.0)).is_none());
        }
        assert_eq!(controller.lambda_max(), before);
        assert_eq!(controller.refreshes(), 0);
    }
}
