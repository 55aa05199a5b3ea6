//! Analytic derivation of waiting-time SLO targets (paper §IV-B applied
//! to operations).
//!
//! The paper's waiting-time machinery answers "what does `W` look like at
//! utilization `ρ`?" — this module runs it in both directions to produce
//! *service-level objectives* an alerting engine can evaluate:
//!
//! * **forward**: at a planned operating point `ρ_plan`, the Gamma
//!   approximation (Eq. 20) predicts `W99`/`W99.99`; multiplying by a
//!   headroom factor yields defensible latency limits instead of folklore
//!   round numbers, and
//! * **inverse**: given a latency limit, [`max_utilization_for_quantile`]
//!   binary-searches the highest `ρ` whose predicted quantile still meets
//!   it — the utilization ceiling at which the latency budget is exactly
//!   exhausted (the Fig. 12 curves read right-to-left).
//!
//! The derived [`AnalyticSlo`] carries the predicted operating point so an
//! alert that fires against these targets can attach the model's own
//! expectation as evidence.

use crate::model::ServerModel;
use crate::waiting::{WaitingTimeAnalysis, WaitingTimeReport};
use rjms_queueing::mg1::Mg1Error;
use rjms_queueing::replication::ReplicationModel;
use rjms_queueing::service::ServiceTime;
use serde::{Deserialize, Serialize};

/// Latency/utilization objectives derived from the analytic model at a
/// planned operating point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AnalyticSlo {
    /// 99th-percentile waiting-time limit, seconds.
    pub w99_limit: f64,
    /// 99.99th-percentile waiting-time limit, seconds.
    pub w9999_limit: f64,
    /// Utilization ceiling: the `ρ` at which the predicted `W99` exactly
    /// exhausts `w99_limit`. Always at least the planned `ρ`.
    pub rho_ceiling: f64,
    /// The model's prediction at the planned operating point — attached to
    /// alerts as the analytic side of the evidence.
    pub plan: WaitingTimeReport,
}

impl AnalyticSlo {
    /// Derives objectives for a server model under a replication-grade
    /// distribution at planned utilization `rho_plan`, with `headroom`
    /// (e.g. `1.5` = targets 50% looser than the prediction, `1.0` =
    /// targets exactly at the prediction).
    ///
    /// # Errors
    ///
    /// Returns [`Mg1Error`] if `rho_plan >= 1` (no stationary regime) and
    /// panics if `headroom < 1`.
    pub fn derive(
        model: &ServerModel,
        replication: ReplicationModel,
        rho_plan: f64,
        headroom: f64,
    ) -> Result<Self, Mg1Error> {
        Self::for_service_time(model.service_time(replication), rho_plan, headroom)
    }

    /// [`AnalyticSlo::derive`] for an explicit service time.
    ///
    /// # Errors
    ///
    /// Returns [`Mg1Error`] if `rho_plan >= 1`.
    pub fn for_service_time(
        service: ServiceTime,
        rho_plan: f64,
        headroom: f64,
    ) -> Result<Self, Mg1Error> {
        assert!(headroom >= 1.0, "headroom must be >= 1, got {headroom}");
        let analysis = WaitingTimeAnalysis::for_service_time(service, rho_plan)?;
        let plan = analysis.report();
        let w99_limit = plan.q99 * headroom;
        let w9999_limit = plan.q9999 * headroom;
        let rho_ceiling = max_utilization_for_quantile(analysis.service(), 0.99, w99_limit);
        Ok(Self { w99_limit, w9999_limit, rho_ceiling, plan })
    }
}

/// The highest utilization `ρ` at which the predicted waiting-time
/// quantile `W_p` still meets `limit_seconds` — the latency budget's
/// utilization ceiling.
///
/// `W_p(ρ)` is strictly increasing in `ρ`, so a binary search over
/// `(0, 1)` converges; the answer is clamped to `[0, MAX_RHO]` where
/// `MAX_RHO = 0.999` keeps the queue analysis numerically sane. Returns
/// `0.0` when even a nearly idle server misses the limit.
pub fn max_utilization_for_quantile(service: &ServiceTime, p: f64, limit_seconds: f64) -> f64 {
    const MAX_RHO: f64 = 0.999;
    assert!((0.0..1.0).contains(&p) && p > 0.0, "quantile requires p in (0, 1), got {p}");
    let quantile_at = |rho: f64| -> f64 {
        WaitingTimeAnalysis::for_service_time(*service, rho)
            .expect("rho < 1 by construction")
            .distribution()
            .quantile(p)
    };
    if quantile_at(MAX_RHO) <= limit_seconds {
        return MAX_RHO;
    }
    let (mut lo, mut hi) = (0.0f64, MAX_RHO);
    // 60 halvings push the bracket width below f64 resolution on (0, 1).
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if quantile_at(mid) <= limit_seconds {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// A service-time model rebuilt from measured moments, for the inversion
/// above: `B = mean · R` with `E[R] = 1` and `Var[R] = c_var²` moment-matched
/// onto a scaled Bernoulli. `None` for degenerate measurements (a mean that
/// is not positive and finite, a `c_var` that is negative or not finite).
pub fn measured_service(mean_seconds: f64, cvar: f64) -> Option<ServiceTime> {
    if !(mean_seconds.is_finite() && mean_seconds > 0.0 && cvar.is_finite() && cvar >= 0.0) {
        return None;
    }
    let replication =
        ReplicationModel::scaled_bernoulli_from_moments(1.0, 1.0 + cvar * cvar).ok()?;
    Some(ServiceTime::new(0.0, mean_seconds, replication))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CostParams;

    fn model() -> ServerModel {
        ServerModel::new(CostParams::CORRELATION_ID, 50)
    }

    fn slo(rho: f64, headroom: f64) -> AnalyticSlo {
        AnalyticSlo::derive(&model(), ReplicationModel::binomial(50.0, 0.2), rho, headroom).unwrap()
    }

    #[test]
    fn limits_scale_with_headroom_and_sit_above_prediction() {
        let tight = slo(0.9, 1.0);
        let loose = slo(0.9, 2.0);
        assert!((tight.w99_limit - tight.plan.q99).abs() < 1e-12);
        assert!((loose.w99_limit - 2.0 * tight.w99_limit).abs() < 1e-12);
        assert!(loose.w9999_limit > loose.w99_limit);
    }

    #[test]
    fn ceiling_is_where_the_budget_is_exhausted() {
        let s = slo(0.8, 1.5);
        assert!(s.rho_ceiling >= 0.8, "ceiling {} below plan", s.rho_ceiling);
        assert!(s.rho_ceiling < 1.0);
        // At the ceiling the predicted W99 matches the limit (up to the
        // binary-search bracket).
        let at_ceiling = WaitingTimeAnalysis::for_model(
            &model(),
            ReplicationModel::binomial(50.0, 0.2),
            s.rho_ceiling,
        )
        .unwrap()
        .report();
        assert!(
            (at_ceiling.q99 - s.w99_limit).abs() / s.w99_limit < 1e-6,
            "q99 at ceiling {} vs limit {}",
            at_ceiling.q99,
            s.w99_limit
        );
    }

    #[test]
    fn headroom_one_puts_ceiling_at_plan() {
        let s = slo(0.7, 1.0);
        assert!((s.rho_ceiling - 0.7).abs() < 1e-6, "ceiling {}", s.rho_ceiling);
    }

    #[test]
    fn generous_limit_saturates_ceiling() {
        let service = model().service_time(ReplicationModel::deterministic(5.0));
        let rho = max_utilization_for_quantile(&service, 0.99, 3600.0);
        assert!((rho - 0.999).abs() < 1e-12);
    }

    #[test]
    fn zero_limit_ceiling_is_the_waiting_atom() {
        // W has an atom at zero with mass 1-ρ, so W99 = 0 exactly while
        // ρ ≤ 0.01; a zero-latency budget is met up to that utilization.
        let service = model().service_time(ReplicationModel::deterministic(5.0));
        let rho = max_utilization_for_quantile(&service, 0.99, 0.0);
        assert!((rho - 0.01).abs() < 1e-6, "rho {rho}");
    }

    #[test]
    fn ceiling_monotone_in_limit() {
        let service = model().service_time(ReplicationModel::binomial(50.0, 0.2));
        let w99_at_06 = WaitingTimeAnalysis::for_service_time(service, 0.6)
            .unwrap()
            .distribution()
            .quantile(0.99);
        let lo = max_utilization_for_quantile(&service, 0.99, w99_at_06);
        let hi = max_utilization_for_quantile(&service, 0.99, 2.0 * w99_at_06);
        assert!((lo - 0.6).abs() < 1e-6, "inverse of forward should recover rho, got {lo}");
        assert!(hi > lo);
    }

    #[test]
    #[should_panic(expected = "headroom must be >= 1")]
    fn sub_unit_headroom_rejected() {
        slo(0.9, 0.5);
    }
}
