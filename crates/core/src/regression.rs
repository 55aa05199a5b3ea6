//! Online least-squares regression of the Eq. 1 cost constants.
//!
//! [`crate::calibrate`] fits `(t_rcv, t_fltr, t_tx)` offline from a grid of
//! saturated-throughput runs. This module performs the same fit *online*,
//! from the broker's live stream of per-message observations
//! `(n_fltr, R, B)`: [`CostRegression`] accumulates the normal-equation
//! sums incrementally (O(1) memory, O(1) per observation, mergeable across
//! dispatcher threads), and [`CostRegression::assess`] turns the current
//! fit into a confidence-gated verdict against the configured
//! [`CostParams`] — the per-topic analogue of
//! [`crate::monitor::ModelMonitor`].
//!
//! ## Identifiability
//!
//! The full 3-parameter fit needs the design to vary in *both* `n_fltr`
//! and `E[R]`. A single topic usually sees a constant filter count, which
//! makes the intercept and the filter slope collinear; and a topic whose
//! subscribers all match sees a constant `R` on top of that. The fit is
//! therefore *adaptive*, degrading gracefully through three modes:
//!
//! 1. [`FitMode::Full`] — all three constants free (global stream, where
//!    `n_fltr` varies across topics),
//! 2. [`FitMode::FixedReceive`] — `t_rcv + t_store` anchored to the
//!    configured params, `(t_fltr, t_tx)` fitted (typical per-topic case:
//!    constant `n_fltr`, varying `R`),
//! 3. [`FitMode::FixedFilter`] — only `t_tx` fitted (degenerate topic:
//!    constant `n_fltr` *and* nearly constant `R`).
//!
//! ## Example
//!
//! ```
//! use rjms_core::params::CostParams;
//! use rjms_core::regression::{CostRegression, RegressionVerdict};
//!
//! let truth = CostParams::CORRELATION_ID;
//! let mut reg = CostRegression::new();
//! // A topic with 40 filters whose replication alternates between 2 and 8.
//! for i in 0..1000u32 {
//!     let r = if i % 2 == 0 { 2.0 } else { 8.0 };
//!     reg.observe(40, r, truth.mean_service_time(40, r));
//! }
//! let verdict = reg.assess(&truth);
//! assert!(matches!(verdict, RegressionVerdict::Stable(_)));
//! ```

use crate::calibrate::{solve_2x2, solve_3x3, NEG_TOL};
use crate::params::CostParams;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which parameters the adaptive fit left free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FitMode {
    /// All of `(t_rcv, t_fltr, t_tx)` fitted. The fitted intercept lumps
    /// the receive and storage overheads together (the stream observes
    /// only their sum).
    Full,
    /// Intercept anchored to the configured `t_rcv + t_store`;
    /// `(t_fltr, t_tx)` fitted.
    FixedReceive,
    /// Intercept and filter slope anchored; only `t_tx` fitted.
    FixedFilter,
}

impl fmt::Display for FitMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Full => f.write_str("full"),
            Self::FixedReceive => f.write_str("fixed-rcv"),
            Self::FixedFilter => f.write_str("fixed-fltr"),
        }
    }
}

/// The result of one adaptive online fit.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FittedCosts {
    /// The fitted cost constants. Anchored components are copied from the
    /// reference params; in [`FitMode::Full`] the whole fitted intercept is
    /// reported as `t_rcv` (with `t_store = 0`), since the observation
    /// stream cannot separate the two.
    pub params: CostParams,
    /// Which parameters were actually fitted.
    pub mode: FitMode,
    /// Root-mean-square of the service-time residuals, seconds.
    pub residual_rms: f64,
    /// Coefficient of determination (1 = perfect; 0 when the target does
    /// not vary).
    pub r_squared: f64,
    /// Observations behind the fit.
    pub observations: u64,
}

/// Largest relative error of the fitted intercept vs `t_rcv + t_store`.
const T_RCV_TOLERANCE: f64 = 0.50;
/// Largest relative error of the fitted `t_fltr`.
const T_FLTR_TOLERANCE: f64 = 0.25;
/// Largest relative error of the fitted `t_tx`.
const T_TX_TOLERANCE: f64 = 0.25;
/// Fewest observations for a meaningful verdict, or to anchor a model.
pub const MIN_SAMPLES: u64 = 256;

/// One fitted component that exceeded its tolerance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostDeviation {
    /// Which constant drifted (`"t_rcv"`, `"t_fltr"`, `"t_tx"`).
    pub component: &'static str,
    /// The fitted value, seconds.
    pub fitted: f64,
    /// The configured reference value, seconds.
    pub configured: f64,
    /// The relative error that exceeded the tolerance.
    pub error: f64,
    /// The tolerance it exceeded.
    pub tolerance: f64,
}

/// Side-by-side fitted and configured constants plus any deviations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegressionReport {
    /// The adaptive fit.
    pub fitted: FittedCosts,
    /// The configured reference the fit was compared against.
    pub anchor: CostParams,
    /// Components that exceeded tolerance (empty when stable).
    pub deviations: Vec<CostDeviation>,
}

/// The regressor's conclusion about the stream so far.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RegressionVerdict {
    /// Too few observations to judge.
    Insufficient {
        /// Observations seen.
        samples: u64,
        /// Observations a verdict requires.
        required: u64,
    },
    /// Enough observations, but the design does not identify even a single
    /// slope (e.g. every message identical), or the best fit was physically
    /// meaningless (materially negative cost).
    Unidentifiable {
        /// Observations seen.
        samples: u64,
    },
    /// Every fitted component agrees with the configured params.
    Stable(RegressionReport),
    /// At least one fitted component exceeded its tolerance.
    Drift(RegressionReport),
}

impl RegressionVerdict {
    /// Short lowercase tag for rendering (`"insufficient"`,
    /// `"unidentifiable"`, `"stable"`, `"drift"`).
    pub fn kind(&self) -> &'static str {
        match self {
            Self::Insufficient { .. } => "insufficient",
            Self::Unidentifiable { .. } => "unidentifiable",
            Self::Stable(_) => "stable",
            Self::Drift(_) => "drift",
        }
    }

    /// The underlying report, when a fit was produced.
    pub fn report(&self) -> Option<&RegressionReport> {
        match self {
            Self::Stable(r) | Self::Drift(r) => Some(r),
            _ => None,
        }
    }
}

/// Why [`CostRegression::fit`] could not produce parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RegressionError {
    /// Fewer than 2 observations.
    TooFewObservations {
        /// How many were accumulated.
        got: u64,
    },
    /// No fit mode was identifiable (the design never varies).
    Unidentifiable,
    /// The best identifiable fit produced a materially negative cost.
    NegativeCost {
        /// The offending fitted `(t_rcv, t_fltr, t_tx)` triple.
        fitted: (f64, f64, f64),
    },
}

impl fmt::Display for RegressionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::TooFewObservations { got } => {
                write!(f, "need at least 2 observations, got {got}")
            }
            Self::Unidentifiable => {
                f.write_str("design never varies: no cost component is identifiable")
            }
            Self::NegativeCost { fitted } => write!(
                f,
                "fit produced negative cost component (t_rcv={:.3e}, t_fltr={:.3e}, t_tx={:.3e})",
                fitted.0, fitted.1, fitted.2
            ),
        }
    }
}

impl std::error::Error for RegressionError {}

/// Incremental normal-equation sums for the Eq. 1 design
/// `B = t_rcv' + n_fltr·t_fltr + R·t_tx` (where `t_rcv'` lumps receive and
/// storage overheads).
///
/// The accumulator is a plain value type: `Copy`-cheap to stage in
/// per-thread scratch space and [`merge`](Self::merge)-able into a shared
/// table, exactly like the broker's histogram scratch buffers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct CostRegression {
    n: u64,
    rejected: u64,
    // Σ over observations of: f = n_fltr, r = R, y = B (seconds).
    sf: f64,
    sr: f64,
    sy: f64,
    sff: f64,
    sfr: f64,
    srr: f64,
    sfy: f64,
    sry: f64,
    syy: f64,
}

impl CostRegression {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds in one observation: a message that traversed `n_fltr`
    /// installed filters, was replicated to `r` subscribers, and took
    /// `service_time` seconds of server time.
    ///
    /// Non-finite or non-positive service times and negative or non-finite
    /// replication grades are counted in [`rejected`](Self::rejected) and
    /// otherwise ignored — the live stream occasionally produces zero-tick
    /// timings from clock granularity.
    pub fn observe(&mut self, n_fltr: u32, r: f64, service_time: f64) {
        if !(service_time > 0.0 && service_time.is_finite() && r >= 0.0 && r.is_finite()) {
            self.rejected += 1;
            return;
        }
        self.accumulate(n_fltr as f64, r, service_time);
    }

    /// Adds one already validated design row `[1, f, r]` with target `y`.
    pub(crate) fn accumulate(&mut self, f: f64, r: f64, y: f64) {
        self.n += 1;
        self.sf += f;
        self.sr += r;
        self.sy += y;
        self.sff += f * f;
        self.sfr += f * r;
        self.srr += r * r;
        self.sfy += f * y;
        self.sry += r * y;
        self.syy += y * y;
    }

    /// Least-squares `[c0, c1, c2]` of `y = c0 + c1·f + c2·r`; `None` when
    /// the design is (numerically) singular.
    pub(crate) fn solve_full(&self) -> Option<[f64; 3]> {
        let n = self.n as f64;
        let ata =
            [[n, self.sf, self.sr], [self.sf, self.sff, self.sfr], [self.sr, self.sfr, self.srr]];
        solve_3x3(ata, [self.sy, self.sfy, self.sry])
    }

    /// Least-squares slopes `(c1, c2)` of `y − intercept = c1·f + c2·r`
    /// for a fixed intercept; `None` when `f` and `r` are collinear.
    pub(crate) fn solve_slopes(&self, intercept: f64) -> Option<(f64, f64)> {
        let b = [self.sfy - intercept * self.sf, self.sry - intercept * self.sr];
        solve_2x2(self.sff, self.sfr, self.srr, b)
    }

    /// Folds another accumulator into this one (sums are additive).
    pub fn merge(&mut self, other: &CostRegression) {
        self.n += other.n;
        self.rejected += other.rejected;
        self.sf += other.sf;
        self.sr += other.sr;
        self.sy += other.sy;
        self.sff += other.sff;
        self.sfr += other.sfr;
        self.srr += other.srr;
        self.sfy += other.sfy;
        self.sry += other.sry;
        self.syy += other.syy;
    }

    /// Observations accumulated.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// Whether no observation has been accumulated.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Observations dropped as invalid (see [`observe`](Self::observe)).
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    fn mean(&self, sum: f64) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            sum / self.n as f64
        }
    }

    /// Mean filter count over the accumulated stream (0 when empty).
    pub fn mean_filters(&self) -> f64 {
        self.mean(self.sf)
    }

    /// Mean replication grade over the accumulated stream (0 when empty).
    pub fn mean_replication(&self) -> f64 {
        self.mean(self.sr)
    }

    /// Mean service time over the accumulated stream, seconds (0 when
    /// empty).
    pub fn mean_service_time(&self) -> f64 {
        self.mean(self.sy)
    }

    /// Runs the adaptive fit: [`FitMode::Full`] when the design identifies
    /// all three constants, degrading to [`FitMode::FixedReceive`] and
    /// [`FitMode::FixedFilter`] with the missing components taken from
    /// `anchor`.
    ///
    /// # Errors
    ///
    /// See [`RegressionError`].
    pub fn fit(&self, anchor: &CostParams) -> Result<FittedCosts, RegressionError> {
        if self.n < 2 {
            return Err(RegressionError::TooFewObservations { got: self.n });
        }
        // Anchored deterministic intercept: receive + storage overhead.
        let d0 = anchor.t_rcv + anchor.t_store;

        // 1. Full 3-parameter solve (needs n >= 3 and a non-singular
        //    design: variation in both n_fltr and R).
        if self.n >= 3 {
            if let Some([c0, c1, c2]) = self.solve_full() {
                if c0 >= NEG_TOL && c1 >= NEG_TOL && c2 >= NEG_TOL {
                    let params = CostParams::new(c0.max(0.0), c1.max(0.0), c2.max(0.0));
                    return Ok(self.diagnose(params, FitMode::Full));
                }
                // Materially negative full fit: fall through to the
                // anchored modes, which are better conditioned.
            }
        }

        // 2. Anchored intercept, 2×2 over rows [n_fltr, R] against
        //    y − (t_rcv + t_store).
        if let Some((t_fltr, t_tx)) = self.solve_slopes(d0) {
            if t_fltr < NEG_TOL || t_tx < NEG_TOL {
                return Err(RegressionError::NegativeCost { fitted: (anchor.t_rcv, t_fltr, t_tx) });
            }
            let params = CostParams::new(anchor.t_rcv, t_fltr.max(0.0), t_tx.max(0.0))
                .with_t_store(anchor.t_store);
            return Ok(self.diagnose(params, FitMode::FixedReceive));
        }

        // 3. Anchored intercept and filter slope; 1-parameter solve for
        //    t_tx against y − (t_rcv + t_store + n_fltr·t_fltr).
        if self.srr > 0.0 {
            let t_tx = (self.sry - d0 * self.sr - anchor.t_fltr * self.sfr) / self.srr;
            if t_tx < NEG_TOL {
                return Err(RegressionError::NegativeCost {
                    fitted: (anchor.t_rcv, anchor.t_fltr, t_tx),
                });
            }
            let params = CostParams::new(anchor.t_rcv, anchor.t_fltr, t_tx.max(0.0))
                .with_t_store(anchor.t_store);
            return Ok(self.diagnose(params, FitMode::FixedFilter));
        }

        Err(RegressionError::Unidentifiable)
    }

    /// Residual diagnostics for a candidate fit, from the closed-form sums.
    fn diagnose(&self, params: CostParams, mode: FitMode) -> FittedCosts {
        let n = self.n as f64;
        // ŷ = c0 + c1·f + c2·r with c0 the full deterministic intercept.
        let c0 = params.t_rcv + params.t_store;
        let (c1, c2) = (params.t_fltr, params.t_tx);
        // ss_res = Σy² − 2Σy·ŷ + Σŷ², all expressible in the sums; clamp
        // away the tiny negatives floating cancellation can produce.
        let sy_hat = c0 * self.sy + c1 * self.sfy + c2 * self.sry;
        let s_hat2 = c0 * c0 * n
            + c1 * c1 * self.sff
            + c2 * c2 * self.srr
            + 2.0 * (c0 * c1 * self.sf + c0 * c2 * self.sr + c1 * c2 * self.sfr);
        let ss_res = (self.syy - 2.0 * sy_hat + s_hat2).max(0.0);
        let ss_tot = (self.syy - self.sy * self.sy / n).max(0.0);
        FittedCosts {
            params,
            mode,
            residual_rms: (ss_res / n).sqrt(),
            r_squared: if ss_tot > 0.0 { 1.0 - ss_res / ss_tot } else { 1.0 },
            observations: self.n,
        }
    }

    /// Judges the accumulated stream against the configured `anchor`
    /// params: the online analogue of
    /// [`ModelMonitor::assess`](crate::monitor::ModelMonitor::assess).
    ///
    /// Slopes are compared relatively. The intercept (`t_rcv + t_store`)
    /// is the least identified quantity — orders of magnitude below the
    /// slope terms at realistic filter counts — so its tolerance is loose,
    /// and it is only checked at all when the fit left it free
    /// ([`FitMode::Full`]).
    pub fn assess(&self, anchor: &CostParams) -> RegressionVerdict {
        if self.n < MIN_SAMPLES {
            return RegressionVerdict::Insufficient { samples: self.n, required: MIN_SAMPLES };
        }
        let fitted = match self.fit(anchor) {
            Ok(f) => f,
            Err(_) => return RegressionVerdict::Unidentifiable { samples: self.n },
        };

        let mut deviations = Vec::new();
        let mut check = |component, value: f64, reference: f64, tol: f64| {
            let error = if reference != 0.0 {
                ((value - reference) / reference).abs()
            } else {
                value.abs()
            };
            if error > tol {
                deviations.push(CostDeviation {
                    component,
                    fitted: value,
                    configured: reference,
                    error,
                    tolerance: tol,
                });
            }
        };
        // Only the components the mode actually fitted can deviate.
        if fitted.mode == FitMode::Full {
            // The fitted intercept lumps receive + storage cost.
            check(
                "t_rcv",
                fitted.params.t_rcv + fitted.params.t_store,
                anchor.t_rcv + anchor.t_store,
                T_RCV_TOLERANCE,
            );
        }
        if fitted.mode != FitMode::FixedFilter {
            check("t_fltr", fitted.params.t_fltr, anchor.t_fltr, T_FLTR_TOLERANCE);
        }
        check("t_tx", fitted.params.t_tx, anchor.t_tx, T_TX_TOLERANCE);

        let report = RegressionReport { fitted, anchor: *anchor, deviations };
        if report.deviations.is_empty() {
            RegressionVerdict::Stable(report)
        } else {
            RegressionVerdict::Drift(report)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic multiplicative noise without pulling in `rand`.
    fn xorshift_noise(seed: u64) -> impl FnMut(f64) -> f64 {
        let mut state = seed.max(1);
        move |amp: f64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let u = (state >> 11) as f64 / (1u64 << 53) as f64;
            1.0 + amp * (2.0 * u - 1.0)
        }
    }

    #[test]
    fn full_fit_recovers_ground_truth_when_design_varies() {
        let truth = CostParams::CORRELATION_ID;
        let mut reg = CostRegression::new();
        for n in [5u32, 20, 80, 160] {
            for r in [1.0f64, 4.0, 16.0, 40.0] {
                for _ in 0..8 {
                    reg.observe(n, r, truth.mean_service_time(n, r));
                }
            }
        }
        let fit = reg.fit(&CostParams::APPLICATION_PROPERTY).unwrap();
        assert_eq!(fit.mode, FitMode::Full);
        assert!((fit.params.t_rcv - truth.t_rcv).abs() / truth.t_rcv < 1e-6);
        assert!((fit.params.t_fltr - truth.t_fltr).abs() / truth.t_fltr < 1e-9);
        assert!((fit.params.t_tx - truth.t_tx).abs() / truth.t_tx < 1e-9);
        assert!(fit.r_squared > 1.0 - 1e-9);
    }

    #[test]
    fn constant_filters_falls_back_to_anchored_fit() {
        // Per-topic stream: n_fltr is constant, R varies — the 3-parameter
        // design is singular, the anchored 2-parameter fit is not.
        let truth = CostParams::CORRELATION_ID;
        let mut reg = CostRegression::new();
        for i in 0..500u32 {
            let r = 1.0 + (i % 7) as f64;
            reg.observe(50, r, truth.mean_service_time(50, r));
        }
        let fit = reg.fit(&truth).unwrap();
        assert_eq!(fit.mode, FitMode::FixedReceive);
        assert!((fit.params.t_fltr - truth.t_fltr).abs() / truth.t_fltr < 1e-6);
        assert!((fit.params.t_tx - truth.t_tx).abs() / truth.t_tx < 1e-6);
    }

    #[test]
    fn constant_design_falls_back_to_tx_only_fit() {
        let truth = CostParams::CORRELATION_ID;
        let mut reg = CostRegression::new();
        for _ in 0..100 {
            reg.observe(50, 6.0, truth.mean_service_time(50, 6.0));
        }
        let fit = reg.fit(&truth).unwrap();
        assert_eq!(fit.mode, FitMode::FixedFilter);
        assert!((fit.params.t_tx - truth.t_tx).abs() / truth.t_tx < 1e-6);
    }

    #[test]
    fn zero_replication_constant_design_is_unidentifiable() {
        let mut reg = CostRegression::new();
        for _ in 0..100 {
            reg.observe(50, 0.0, 1e-4);
        }
        assert!(matches!(
            reg.fit(&CostParams::CORRELATION_ID),
            Err(RegressionError::Unidentifiable)
        ));
    }

    #[test]
    fn too_few_observations_rejected() {
        let mut reg = CostRegression::new();
        reg.observe(1, 1.0, 1e-4);
        assert!(matches!(
            reg.fit(&CostParams::CORRELATION_ID),
            Err(RegressionError::TooFewObservations { got: 1 })
        ));
    }

    #[test]
    fn invalid_observations_are_counted_not_accumulated() {
        let mut reg = CostRegression::new();
        reg.observe(1, 1.0, 0.0);
        reg.observe(1, 1.0, f64::NAN);
        reg.observe(1, -1.0, 1e-4);
        assert_eq!(reg.len(), 0);
        assert_eq!(reg.rejected(), 3);
    }

    #[test]
    fn merge_matches_single_accumulator() {
        let truth = CostParams::APPLICATION_PROPERTY;
        let (mut a, mut b, mut whole) =
            (CostRegression::new(), CostRegression::new(), CostRegression::new());
        let mut noise = xorshift_noise(11);
        for i in 0..600u32 {
            let (n, r) = (10 + (i % 3) * 40, 1.0 + (i % 9) as f64);
            let y = truth.mean_service_time(n, r) * noise(0.01);
            if i % 2 == 0 {
                a.observe(n, r, y)
            } else {
                b.observe(n, r, y)
            }
            whole.observe(n, r, y);
        }
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(merged.len(), whole.len());
        let f1 = merged.fit(&truth).unwrap();
        let f2 = whole.fit(&truth).unwrap();
        assert!((f1.params.t_fltr - f2.params.t_fltr).abs() < 1e-12);
        assert!((f1.params.t_tx - f2.params.t_tx).abs() < 1e-12);
    }

    #[test]
    fn assess_is_insufficient_below_min_samples() {
        let truth = CostParams::CORRELATION_ID;
        let mut reg = CostRegression::new();
        for i in 0..10u32 {
            reg.observe(5, 1.0 + i as f64, truth.mean_service_time(5, 1.0 + i as f64));
        }
        match reg.assess(&truth) {
            RegressionVerdict::Insufficient { samples: 10, required } => {
                assert_eq!(required, MIN_SAMPLES);
            }
            other => panic!("expected insufficient, got {other:?}"),
        }
    }

    #[test]
    fn assess_flags_drift_when_costs_move() {
        let configured = CostParams::CORRELATION_ID;
        // The live server's true filter cost is 2× the configured one.
        let actual = CostParams::new(configured.t_rcv, configured.t_fltr * 2.0, configured.t_tx);
        let mut reg = CostRegression::new();
        let mut noise = xorshift_noise(3);
        for i in 0..2000u32 {
            let r = 1.0 + (i % 11) as f64;
            reg.observe(80, r, actual.mean_service_time(80, r) * noise(0.02));
        }
        match reg.assess(&configured) {
            RegressionVerdict::Drift(report) => {
                assert!(report.deviations.iter().any(|d| d.component == "t_fltr"));
            }
            other => panic!("expected drift, got {other:?}"),
        }
    }

    #[test]
    fn assess_is_stable_on_model_with_noise() {
        let truth = CostParams::APPLICATION_PROPERTY;
        let mut reg = CostRegression::new();
        let mut noise = xorshift_noise(17);
        for i in 0..4000u32 {
            let r = (i % 13) as f64;
            reg.observe(30, r, truth.mean_service_time(30, r) * noise(0.05));
        }
        let verdict = reg.assess(&truth);
        assert!(matches!(verdict, RegressionVerdict::Stable(_)), "{verdict:?}");
    }

    #[test]
    fn verdict_kind_tags() {
        assert_eq!(
            RegressionVerdict::Insufficient { samples: 0, required: 1 }.kind(),
            "insufficient"
        );
        assert_eq!(RegressionVerdict::Unidentifiable { samples: 9 }.kind(), "unidentifiable");
    }

    #[test]
    fn anchored_fit_respects_t_store() {
        let anchor = CostParams::CORRELATION_ID.with_t_store(5e-6);
        let mut reg = CostRegression::new();
        for i in 0..500u32 {
            let r = 1.0 + (i % 5) as f64;
            reg.observe(40, r, anchor.mean_service_time(40, r));
        }
        let fit = reg.fit(&anchor).unwrap();
        assert_eq!(fit.mode, FitMode::FixedReceive);
        assert_eq!(fit.params.t_store, anchor.t_store);
        assert!((fit.params.t_fltr - anchor.t_fltr).abs() / anchor.t_fltr < 1e-6);
        assert!((fit.params.t_tx - anchor.t_tx).abs() / anchor.t_tx < 1e-6);
    }
}
