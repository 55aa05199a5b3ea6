//! Calibration: fitting [`CostParams`] from throughput measurements.
//!
//! The paper derives Table I by fitting the linear model
//! `E[B] = t_rcv + n_fltr·t_fltr + E[R]·t_tx` to measured saturated
//! throughputs (`E[B] = 1/throughput_received`). This module implements that
//! fit as ordinary least squares over the design matrix
//! `[1, n_fltr, E[R]]`, solved via the normal equations with partial
//! pivoting, plus residual diagnostics.

use crate::params::CostParams;
use crate::regression::CostRegression;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One measured operating point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Observation {
    /// Number of installed filters during the run.
    pub n_fltr: u32,
    /// Mean replication grade during the run.
    pub mean_replication: f64,
    /// Measured received throughput at saturation, messages/s.
    pub received_per_sec: f64,
}

impl Observation {
    /// The implied mean service time `E[B] = 1/throughput`.
    ///
    /// # Panics
    ///
    /// Panics if the throughput is not strictly positive.
    pub fn mean_service_time(&self) -> f64 {
        assert!(
            self.received_per_sec > 0.0,
            "throughput must be > 0, got {}",
            self.received_per_sec
        );
        1.0 / self.received_per_sec
    }
}

/// Why a calibration attempt was rejected.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CalibrationError {
    /// Fewer than 3 observations — the model has 3 parameters.
    TooFewObservations {
        /// How many were supplied.
        got: usize,
    },
    /// The design matrix is (numerically) singular: the observations do not
    /// vary independently in `n_fltr` and `E[R]`.
    SingularDesign,
    /// An observation carried a non-positive throughput.
    InvalidObservation {
        /// Index of the offending observation.
        index: usize,
    },
    /// The best fit produced a negative cost component, which is physically
    /// meaningless — the measurements do not follow the linear cost model.
    NegativeCost {
        /// The fitted (t_rcv, t_fltr, t_tx) triple.
        fitted: (f64, f64, f64),
    },
}

impl fmt::Display for CalibrationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::TooFewObservations { got } => {
                write!(f, "need at least 3 observations to fit 3 parameters, got {got}")
            }
            Self::SingularDesign => {
                f.write_str("singular design: observations must vary in both n_fltr and E[R]")
            }
            Self::InvalidObservation { index } => {
                write!(f, "observation {index} has non-positive throughput")
            }
            Self::NegativeCost { fitted } => write!(
                f,
                "fit produced negative cost component (t_rcv={:.3e}, t_fltr={:.3e}, t_tx={:.3e})",
                fitted.0, fitted.1, fitted.2
            ),
        }
    }
}

impl std::error::Error for CalibrationError {}

/// The result of a successful calibration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Calibration {
    /// The fitted cost parameters.
    pub params: CostParams,
    /// Root-mean-square of the service-time residuals, seconds.
    pub residual_rms: f64,
    /// Coefficient of determination of the fit (1 = perfect).
    pub r_squared: f64,
    /// Number of observations used.
    pub observations: usize,
}

/// Fits [`CostParams`] to a set of measured operating points by ordinary
/// least squares on the mean service time.
///
/// # Errors
///
/// See [`CalibrationError`]; in particular the observation grid must vary in
/// *both* the filter count and the replication grade (the paper's grid
/// crosses `R ∈ {1..40}` with `n ∈ {5..160}`).
///
/// # Examples
///
/// ```
/// use rjms_core::calibrate::{fit_cost_params, Observation};
/// use rjms_core::params::CostParams;
///
/// // Perfect synthetic measurements from known ground truth.
/// let truth = CostParams::CORRELATION_ID;
/// let mut obs = Vec::new();
/// for n in [5u32, 50, 150] {
///     for r in [1.0f64, 10.0, 40.0] {
///         let e_b = truth.mean_service_time(n, r);
///         obs.push(Observation { n_fltr: n, mean_replication: r, received_per_sec: 1.0 / e_b });
///     }
/// }
/// let cal = fit_cost_params(&obs).unwrap();
/// assert!((cal.params.t_fltr - truth.t_fltr).abs() / truth.t_fltr < 1e-9);
/// assert!(cal.r_squared > 0.999999);
/// ```
pub fn fit_cost_params(observations: &[Observation]) -> Result<Calibration, CalibrationError> {
    let sums = accumulate(observations, 3)?;
    let [t_rcv, t_fltr, t_tx] = sums.solve_full().ok_or(CalibrationError::SingularDesign)?;
    // Tiny negative intercepts can emerge from noise; tolerate a small
    // negative t_rcv by clamping, reject anything materially negative.
    if t_rcv < NEG_TOL || t_fltr < NEG_TOL || t_tx < NEG_TOL {
        return Err(CalibrationError::NegativeCost { fitted: (t_rcv, t_fltr, t_tx) });
    }
    let params = CostParams::new(t_rcv.max(0.0), t_fltr.max(0.0), t_tx.max(0.0));
    Ok(diagnose(params, observations))
}

/// Fits only the slopes `(t_fltr, t_tx)` with a *fixed* receive overhead
/// `t_rcv`.
///
/// Real servers deviate slightly from linearity (caches, contention), which
/// can drive the free intercept of the 3-parameter fit negative — the
/// intercept is the least identified parameter since `t_rcv` is orders of
/// magnitude below the slope terms. When the receive overhead is known (or
/// irrelevant), this constrained fit is better behaved.
///
/// # Errors
///
/// Same conditions as [`fit_cost_params`], with `NegativeCost` raised when a
/// fitted slope is materially negative.
pub fn fit_cost_params_fixed_rcv(
    observations: &[Observation],
    t_rcv: f64,
) -> Result<Calibration, CalibrationError> {
    let sums = accumulate(observations, 2)?;
    let (t_fltr, t_tx) = sums.solve_slopes(t_rcv).ok_or(CalibrationError::SingularDesign)?;
    if t_fltr < NEG_TOL || t_tx < NEG_TOL {
        return Err(CalibrationError::NegativeCost { fitted: (t_rcv, t_fltr, t_tx) });
    }
    let params = CostParams::new(t_rcv, t_fltr.max(0.0), t_tx.max(0.0));
    Ok(diagnose(params, observations))
}

/// Validates the observations and folds them into the `[1, n_fltr, E[R]]`
/// normal-equation sums with `y = 1/throughput`.
fn accumulate(
    observations: &[Observation],
    parameters: usize,
) -> Result<CostRegression, CalibrationError> {
    if observations.len() < parameters {
        return Err(CalibrationError::TooFewObservations { got: observations.len() });
    }
    let mut sums = CostRegression::new();
    for (index, o) in observations.iter().enumerate() {
        let valid =
            o.received_per_sec > 0.0 && o.received_per_sec.is_finite() && o.mean_replication >= 0.0;
        if !valid {
            return Err(CalibrationError::InvalidObservation { index });
        }
        sums.accumulate(o.n_fltr as f64, o.mean_replication, o.mean_service_time());
    }
    Ok(sums)
}

/// Residual diagnostics of a fit, taken point by point (the closed-form
/// sums lose the last digits an exact fit is tested to).
fn diagnose(params: CostParams, observations: &[Observation]) -> Calibration {
    let n = observations.len() as f64;
    let mean_y: f64 = observations.iter().map(|o| o.mean_service_time()).sum::<f64>() / n;
    let (mut ss_res, mut ss_tot) = (0.0, 0.0);
    for o in observations {
        let y = o.mean_service_time();
        let y_hat = params.mean_service_time(o.n_fltr, o.mean_replication);
        ss_res += (y - y_hat) * (y - y_hat);
        ss_tot += (y - mean_y) * (y - mean_y);
    }
    Calibration {
        params,
        residual_rms: (ss_res / n).sqrt(),
        r_squared: if ss_tot > 0.0 { 1.0 - ss_res / ss_tot } else { 1.0 },
        observations: observations.len(),
    }
}

/// Noise-driven tiny negative components are clamped to 0 rather than
/// rejected; anything below this is a failed fit.
pub(crate) const NEG_TOL: f64 = -1e-7;
/// Scale-relative singularity threshold of both solvers.
const SINGULAR_EPS: f64 = 1e-12;

/// Solves the symmetric 2×2 system `[[a11, a12], [a12, a22]] x = b` by
/// Cramer's rule; `None` when (numerically) singular.
pub(crate) fn solve_2x2(a11: f64, a12: f64, a22: f64, b: [f64; 2]) -> Option<(f64, f64)> {
    let det = a11 * a22 - a12 * a12;
    let scale = a11.abs().max(a22.abs()).max(a12.abs());
    if scale == 0.0 || det.abs() < SINGULAR_EPS * scale * scale {
        return None;
    }
    Some(((b[0] * a22 - b[1] * a12) / det, (a11 * b[1] - a12 * b[0]) / det))
}

/// Solves a 3×3 linear system by Gaussian elimination with partial
/// pivoting; `None` when (numerically) singular.
pub(crate) fn solve_3x3(mut a: [[f64; 3]; 3], mut b: [f64; 3]) -> Option<[f64; 3]> {
    // Scale-aware singularity threshold.
    let scale: f64 = a.iter().flat_map(|r| r.iter()).fold(0.0f64, |m, v| m.max(v.abs()));
    if scale == 0.0 {
        return None;
    }
    let eps = SINGULAR_EPS * scale;

    for col in 0..3 {
        // Pivot.
        let pivot_row = (col..3)
            .max_by(|&i, &j| a[i][col].abs().partial_cmp(&a[j][col].abs()).expect("finite"))
            .expect("non-empty range");
        if a[pivot_row][col].abs() < eps {
            return None;
        }
        a.swap(col, pivot_row);
        b.swap(col, pivot_row);
        // Eliminate below.
        for row in (col + 1)..3 {
            let factor = a[row][col] / a[col][col];
            let pivot = a[col];
            for (entry, p) in a[row].iter_mut().zip(pivot.iter()).skip(col) {
                *entry -= factor * p;
            }
            b[row] -= factor * b[col];
        }
    }
    // Back-substitute.
    let mut x = [0.0f64; 3];
    for row in (0..3).rev() {
        let mut acc = b[row];
        for k in (row + 1)..3 {
            acc -= a[row][k] * x[k];
        }
        x[row] = acc / a[row][row];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic_grid(truth: CostParams, noise: Option<(f64, u64)>) -> Vec<Observation> {
        // Simple xorshift for deterministic noise without pulling rand into
        // the unit tests.
        let mut state = noise.map(|(_, seed)| seed.max(1)).unwrap_or(1);
        let mut next_noise = |amp: f64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let u = (state >> 11) as f64 / (1u64 << 53) as f64;
            1.0 + amp * (2.0 * u - 1.0)
        };
        let mut obs = Vec::new();
        for n in [5u32, 10, 20, 40, 80, 160] {
            for r in [1.0f64, 2.0, 5.0, 10.0, 20.0, 40.0] {
                let mut e_b = truth.mean_service_time(n, r);
                if let Some((amp, _)) = noise {
                    e_b *= next_noise(amp);
                }
                obs.push(Observation {
                    n_fltr: n,
                    mean_replication: r,
                    received_per_sec: 1.0 / e_b,
                });
            }
        }
        obs
    }

    #[test]
    fn exact_fit_recovers_ground_truth() {
        for truth in [CostParams::CORRELATION_ID, CostParams::APPLICATION_PROPERTY] {
            let cal = fit_cost_params(&synthetic_grid(truth, None)).unwrap();
            assert!((cal.params.t_rcv - truth.t_rcv).abs() / truth.t_rcv < 1e-6);
            assert!((cal.params.t_fltr - truth.t_fltr).abs() / truth.t_fltr < 1e-9);
            assert!((cal.params.t_tx - truth.t_tx).abs() / truth.t_tx < 1e-9);
            assert!(cal.r_squared > 1.0 - 1e-12);
            assert!(cal.residual_rms < 1e-12);
        }
    }

    #[test]
    fn noisy_fit_recovers_slopes_within_tolerance() {
        let truth = CostParams::CORRELATION_ID;
        let cal = fit_cost_params(&synthetic_grid(truth, Some((0.02, 7)))).unwrap();
        // Slopes are well identified by the grid even with 2% noise.
        assert!((cal.params.t_fltr - truth.t_fltr).abs() / truth.t_fltr < 0.05);
        assert!((cal.params.t_tx - truth.t_tx).abs() / truth.t_tx < 0.05);
        assert!(cal.r_squared > 0.99);
    }

    #[test]
    fn too_few_observations_rejected() {
        let obs = synthetic_grid(CostParams::CORRELATION_ID, None);
        assert!(matches!(
            fit_cost_params(&obs[..2]),
            Err(CalibrationError::TooFewObservations { got: 2 })
        ));
    }

    #[test]
    fn singular_design_rejected() {
        // All observations at the same (n_fltr, R): infinitely many fits.
        let o = Observation { n_fltr: 10, mean_replication: 2.0, received_per_sec: 1000.0 };
        assert!(matches!(fit_cost_params(&[o, o, o, o]), Err(CalibrationError::SingularDesign)));
    }

    #[test]
    fn collinear_design_rejected() {
        // n_fltr and E[R] perfectly correlated → t_fltr and t_tx not
        // separable.
        let truth = CostParams::CORRELATION_ID;
        let obs: Vec<Observation> = [1u32, 2, 4, 8]
            .iter()
            .map(|&k| Observation {
                n_fltr: 10 * k,
                mean_replication: 5.0 * k as f64,
                received_per_sec: 1.0 / truth.mean_service_time(10 * k, 5.0 * k as f64),
            })
            .collect();
        assert!(matches!(fit_cost_params(&obs), Err(CalibrationError::SingularDesign)));
    }

    #[test]
    fn invalid_observation_rejected() {
        let mut obs = synthetic_grid(CostParams::CORRELATION_ID, None);
        obs[3].received_per_sec = 0.0;
        assert!(matches!(
            fit_cost_params(&obs),
            Err(CalibrationError::InvalidObservation { index: 3 })
        ));
    }

    #[test]
    fn fixed_rcv_fit_recovers_slopes() {
        let truth = CostParams::CORRELATION_ID;
        let obs = synthetic_grid(truth, None);
        let cal = fit_cost_params_fixed_rcv(&obs, truth.t_rcv).unwrap();
        assert!((cal.params.t_fltr - truth.t_fltr).abs() / truth.t_fltr < 1e-9);
        assert!((cal.params.t_tx - truth.t_tx).abs() / truth.t_tx < 1e-9);
        assert_eq!(cal.params.t_rcv, truth.t_rcv);
        assert!(cal.r_squared > 1.0 - 1e-12);
    }

    #[test]
    fn fixed_rcv_fit_rejects_collinear() {
        let truth = CostParams::CORRELATION_ID;
        let obs: Vec<Observation> = [1u32, 2, 4]
            .iter()
            .map(|&k| Observation {
                n_fltr: 10 * k,
                mean_replication: 10.0 * k as f64,
                received_per_sec: 1.0 / truth.mean_service_time(10 * k, 10.0 * k as f64),
            })
            .collect();
        assert!(matches!(
            fit_cost_params_fixed_rcv(&obs, truth.t_rcv),
            Err(CalibrationError::SingularDesign)
        ));
    }

    #[test]
    fn fixed_rcv_fit_needs_two_points() {
        let o = Observation { n_fltr: 1, mean_replication: 1.0, received_per_sec: 100.0 };
        assert!(matches!(
            fit_cost_params_fixed_rcv(&[o], 0.0),
            Err(CalibrationError::TooFewObservations { got: 1 })
        ));
    }

    #[test]
    fn solve_3x3_known_system() {
        // x + y + z = 6; 2y + 5z = -4; 2x + 5y - z = 27 → x=5, y=3, z=-2.
        let a = [[1.0, 1.0, 1.0], [0.0, 2.0, 5.0], [2.0, 5.0, -1.0]];
        let b = [6.0, -4.0, 27.0];
        let x = solve_3x3(a, b).unwrap();
        assert!((x[0] - 5.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
        assert!((x[2] + 2.0).abs() < 1e-12);
    }

    #[test]
    fn solve_3x3_singular_returns_none() {
        let a = [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [1.0, 1.0, 1.0]];
        assert!(solve_3x3(a, [1.0, 2.0, 3.0]).is_none());
    }
}
