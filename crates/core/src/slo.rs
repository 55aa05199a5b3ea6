//! The waiting-time quantile inverted (paper §IV-B applied to operations).
//!
//! The paper's waiting-time machinery answers "what does `W` look like at
//! utilization `ρ`?". Given a latency limit, [`max_utilization_for_quantile`]
//! binary-searches the highest `ρ` whose predicted quantile still meets it
//! — the utilization ceiling at which the latency budget is exactly
//! exhausted (the Fig. 12 curves read right-to-left). The flow gate budgets
//! admission with it, and the forecaster places its W99 breach point with
//! it, both over [`measured_service`]: the service time as measured.

use crate::waiting::WaitingTimeAnalysis;
use rjms_queueing::replication::ReplicationModel;
use rjms_queueing::service::ServiceTime;

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
    use crate::model::ServerModel;
    use crate::params::CostParams;

    fn model() -> ServerModel {
        ServerModel::new(CostParams::CORRELATION_ID, 50)
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
}
