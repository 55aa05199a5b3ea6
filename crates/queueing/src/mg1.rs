//! The `M/GI/1-∞` queueing model of the JMS server (paper §IV-B).
//!
//! Messages arrive in a Poisson stream of rate `λ` (the aggregate rate of all
//! publishers) and are served sequentially with a generally distributed
//! service time `B`. [`Mg1`] computes:
//!
//! * the server utilization `ρ = λ·E[B]` (Eq. 6),
//! * the first two moments of the waiting time `W` by the Pollaczek–Khinchine
//!   formulas (Eqs. 4–5),
//! * the moments of the *conditional* waiting time `W₁` of delayed messages
//!   (Eq. 19),
//! * a Gamma approximation of the full waiting-time distribution (Eq. 20)
//!   with CDF, complementary CDF, and quantiles (used for Figs. 10–12).

use crate::gamma_dist::Gamma;
use crate::moments::Moments3;
use serde::{Deserialize, Serialize};

/// Error constructing an [`Mg1`] model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Mg1Error {
    /// The offered load `ρ = λ·E[B]` is ≥ 1, so no stationary regime exists.
    Unstable {
        /// The offered load that was requested.
        rho: f64,
    },
    /// The arrival rate was negative or non-finite.
    InvalidArrivalRate {
        /// The offending rate.
        lambda: f64,
    },
}

impl std::fmt::Display for Mg1Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Unstable { rho } => {
                write!(f, "queue is unstable: utilization {rho} >= 1")
            }
            Self::InvalidArrivalRate { lambda } => {
                write!(f, "invalid arrival rate {lambda}")
            }
        }
    }
}

impl std::error::Error for Mg1Error {}

/// A stationary `M/GI/1-∞` queue.
///
/// # Examples
///
/// ```
/// use rjms_queueing::moments::Moments3;
/// use rjms_queueing::mg1::Mg1;
///
/// // M/M/1 with rate-1 service at ρ = 0.5: E[W] = ρ/(μ(1-ρ)) = 1.
/// let exp_service = Moments3::new(1.0, 2.0, 6.0);
/// let q = Mg1::new(0.5, exp_service)?;
/// assert!((q.mean_waiting_time() - 1.0).abs() < 1e-12);
/// # Ok::<(), rjms_queueing::mg1::Mg1Error>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Mg1 {
    lambda: f64,
    service: Moments3,
}

impl Mg1 {
    /// Creates the queue from the arrival rate `λ` and the first three raw
    /// moments of the service time.
    ///
    /// # Errors
    ///
    /// Returns [`Mg1Error::Unstable`] if `ρ = λ·E[B] >= 1` and
    /// [`Mg1Error::InvalidArrivalRate`] if `λ` is negative or non-finite.
    pub fn new(lambda: f64, service: Moments3) -> Result<Self, Mg1Error> {
        if !(lambda >= 0.0 && lambda.is_finite()) {
            return Err(Mg1Error::InvalidArrivalRate { lambda });
        }
        let rho = lambda * service.m1;
        if rho >= 1.0 {
            return Err(Mg1Error::Unstable { rho });
        }
        Ok(Self { lambda, service })
    }

    /// Creates the queue that runs at a target utilization `ρ` for the given
    /// service-time moments (`λ = ρ/E[B]`).
    ///
    /// The paper's normalized studies (Figs. 10–12) sweep `ρ` directly; this
    /// constructor avoids computing `λ` by hand.
    ///
    /// # Errors
    ///
    /// Returns [`Mg1Error::Unstable`] if `rho >= 1`, and
    /// [`Mg1Error::InvalidArrivalRate`] if `rho < 0` or the service mean is 0
    /// while `rho > 0`.
    pub fn with_utilization(rho: f64, service: Moments3) -> Result<Self, Mg1Error> {
        if rho >= 1.0 {
            return Err(Mg1Error::Unstable { rho });
        }
        if rho.is_nan() || rho < 0.0 {
            return Err(Mg1Error::InvalidArrivalRate { lambda: rho });
        }
        if service.m1 == 0.0 {
            return if rho == 0.0 {
                Ok(Self { lambda: 0.0, service })
            } else {
                Err(Mg1Error::InvalidArrivalRate { lambda: f64::INFINITY })
            };
        }
        Self::new(rho / service.m1, service)
    }

    /// Arrival rate `λ` in messages per second.
    pub fn arrival_rate(&self) -> f64 {
        self.lambda
    }

    /// Raw moments of the service time `B`.
    pub fn service_moments(&self) -> Moments3 {
        self.service
    }

    /// Server utilization `ρ = λ·E[B]` (Eq. 6).
    ///
    /// In an `M/GI/1` queue this also equals the probability that an arriving
    /// message must wait (`p_w = ρ`, PASTA).
    pub fn utilization(&self) -> f64 {
        self.lambda * self.service.m1
    }

    /// Mean waiting time `E[W]` (Pollaczek–Khinchine, Eq. 4).
    pub fn mean_waiting_time(&self) -> f64 {
        let rho = self.utilization();
        self.lambda * self.service.m2 / (2.0 * (1.0 - rho))
    }

    /// Mean waiting time when the same messages arrive in Poisson *batches*
    /// of `X` at a time (`M^X/G/1`), which is what the client of a
    /// coalescing writer sees; `batch_m1 = E[X]`, `batch_m2 = E[X²]`.
    /// This queue's `λ` stays the message rate, so batches come at rate
    /// `λ/E[X]` and `ρ` is unchanged:
    ///
    /// `E[W] = λ·E[B²]/(2(1−ρ)) + E[X(X−1)]·E[B]/(2·E[X]·(1−ρ))`.
    ///
    /// The first term is [`mean_waiting_time`](Self::mean_waiting_time); the
    /// second is the wait behind the earlier messages of the same batch and
    /// what their service adds to the backlog, and vanishes at `X ≡ 1`.
    ///
    /// # Panics
    ///
    /// Panics if no batch size `X ≥ 1` has these moments
    /// (`batch_m1 < 1` or `batch_m2 < batch_m1²`).
    pub fn mean_waiting_time_batched(&self, batch_m1: f64, batch_m2: f64) -> f64 {
        assert!(
            batch_m1 >= 1.0 && batch_m2 >= batch_m1 * batch_m1,
            "no batch size has E[X] = {batch_m1}, E[X^2] = {batch_m2}"
        );
        let within_batch =
            (batch_m2 - batch_m1) * self.service.m1 / (2.0 * batch_m1 * (1.0 - self.utilization()));
        self.mean_waiting_time() + within_batch
    }

    /// Second raw moment of the waiting time `E[W²]` (Eq. 5).
    pub fn waiting_time_m2(&self) -> f64 {
        let rho = self.utilization();
        let ew = self.mean_waiting_time();
        2.0 * ew * ew + self.lambda * self.service.m3 / (3.0 * (1.0 - rho))
    }

    /// Mean sojourn (response) time `E[T] = E[W] + E[B]`.
    pub fn mean_sojourn_time(&self) -> f64 {
        self.mean_waiting_time() + self.service.m1
    }

    /// Mean number of messages in the queue (excluding the one in service),
    /// by Little's law: `E[L_q] = λ·E[W]`.
    ///
    /// The paper uses the waiting-time quantiles as an estimate of the buffer
    /// space required at the JMS server; this is the corresponding mean.
    pub fn mean_queue_length(&self) -> f64 {
        self.lambda * self.mean_waiting_time()
    }

    /// First and second moment of the conditional waiting time `W₁` of
    /// messages that are actually delayed (Eq. 19):
    /// `E[W₁] = E[W]/ρ`, `E[W₁²] = E[W²]/ρ`.
    ///
    /// Returns `None` when `ρ = 0` (no message ever waits).
    pub fn delayed_waiting_moments(&self) -> Option<(f64, f64)> {
        let rho = self.utilization();
        if rho == 0.0 {
            return None;
        }
        Some((self.mean_waiting_time() / rho, self.waiting_time_m2() / rho))
    }

    /// Buffer-space estimate (paper §V): the number of message slots the
    /// server must provision so that a message's queueing backlog exceeds it
    /// only with probability `1 − p`. Computed as `⌈λ · Q_p[W]⌉` — the
    /// arrivals accumulating over a `p`-quantile waiting period.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1)`.
    pub fn required_buffer(&self, p: f64) -> u64 {
        let q = self.waiting_time_distribution().quantile(p);
        (self.lambda * q).ceil() as u64
    }

    /// The Gamma-approximated waiting-time distribution (Eq. 20).
    ///
    /// The conditional waiting time `W₁` is fitted by a Gamma distribution on
    /// its first two moments; the unconditional distribution then has an atom
    /// of mass `1-ρ` at zero:
    /// `P(W <= t) = (1-ρ) + ρ·P(W₁ <= t)`.
    ///
    /// The paper notes this approximation is exact for exponential service
    /// times and very accurate otherwise (validated in
    /// `tests/mg1_simulation.rs` against discrete-event simulation).
    pub fn waiting_time_distribution(&self) -> WaitingTimeDistribution {
        let rho = self.utilization();
        let delayed = self.delayed_waiting_moments().and_then(|(m1, m2)| {
            let var = (m2 - m1 * m1).max(0.0);
            if m1 <= 0.0 {
                return None;
            }
            let cvar = var.sqrt() / m1;
            if cvar <= 0.0 {
                // Degenerate conditional waiting time — approximate by a very
                // peaked Gamma to keep the distribution object total.
                Some(Gamma::from_mean_cvar(m1, 1e-9))
            } else {
                Some(Gamma::from_mean_cvar(m1, cvar))
            }
        });
        WaitingTimeDistribution { rho, delayed }
    }
}

/// The (approximate) distribution of the message waiting time `W`:
/// an atom `1-ρ` at zero plus `ρ` times a Gamma-distributed delay (Eq. 20).
///
/// Produced by [`Mg1::waiting_time_distribution`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WaitingTimeDistribution {
    rho: f64,
    /// Gamma fit of the conditional delay `W₁`; `None` when `ρ = 0`.
    delayed: Option<Gamma>,
}

impl WaitingTimeDistribution {
    /// The probability that a message waits at all (`p_w = ρ`).
    pub fn waiting_probability(&self) -> f64 {
        self.rho
    }

    /// `P(W <= t)` (Eq. 20).
    pub fn cdf(&self, t: f64) -> f64 {
        if t < 0.0 {
            return 0.0;
        }
        match &self.delayed {
            None => 1.0,
            Some(g) => (1.0 - self.rho) + self.rho * g.cdf(t),
        }
    }

    /// Complementary CDF `P(W > t)`, computed with full tail precision
    /// (`ρ·Q(α, t/β)` rather than `1 - cdf`), as plotted in Fig. 11.
    pub fn ccdf(&self, t: f64) -> f64 {
        if t < 0.0 {
            return 1.0;
        }
        match &self.delayed {
            None => 0.0,
            Some(g) => self.rho * g.sf(t),
        }
    }

    /// The `p`-quantile `Q_p[W]`: the smallest `t` with `P(W <= t) >= p`.
    ///
    /// For `p <= 1-ρ` the quantile is 0 (the message does not wait at all);
    /// otherwise it is the `(p-(1-ρ))/ρ` quantile of the Gamma delay. Used
    /// for the 99% / 99.99% quantile study (Fig. 12).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1)`.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..1.0).contains(&p), "quantile requires p in [0, 1), got {p}");
        let atom = 1.0 - self.rho;
        if p <= atom {
            return 0.0;
        }
        match &self.delayed {
            None => 0.0,
            Some(g) => g.quantile((p - atom) / self.rho),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Raw moments of Exp(rate).
    fn exp_moments(rate: f64) -> Moments3 {
        Moments3::new(1.0 / rate, 2.0 / (rate * rate), 6.0 / (rate * rate * rate))
    }

    #[test]
    fn mm1_mean_waiting_matches_closed_form() {
        // M/M/1: E[W] = ρ/(μ-λ).
        let mu = 2.0;
        for &lambda in &[0.2, 1.0, 1.8] {
            let q = Mg1::new(lambda, exp_moments(mu)).unwrap();
            let rho = lambda / mu;
            let expect = rho / (mu - lambda);
            assert!((q.mean_waiting_time() - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn batched_mean_reduces_to_pollaczek_khinchine_for_single_arrivals() {
        let q = Mg1::new(0.7, exp_moments(1.0)).unwrap();
        assert_eq!(q.mean_waiting_time_batched(1.0, 1.0), q.mean_waiting_time());
        // M^X/M/1 with X ≡ 2 at message rate 0.7, μ = 1: half the messages
        // also wait for their batch mate, E[W] = (ρ + 1/2)/(μ(1−ρ)).
        let expect = (0.7 + 0.5) / 0.3;
        assert!((q.mean_waiting_time_batched(2.0, 4.0) - expect).abs() < 1e-12);
    }

    #[test]
    fn mm1_waiting_distribution_is_exact() {
        // M/M/1: P(W > t) = ρ·e^{-(μ-λ)t}; the Gamma fit is exact here.
        let (lambda, mu) = (0.9, 1.0);
        let q = Mg1::new(lambda, exp_moments(mu)).unwrap();
        let w = q.waiting_time_distribution();
        for &t in &[0.5, 2.0, 10.0, 50.0] {
            let expect = 0.9 * (-(mu - lambda) * t).exp();
            let got = w.ccdf(t);
            assert!(((got - expect) / expect).abs() < 1e-6, "t={t}: got {got}, expected {expect}");
        }
    }

    #[test]
    fn md1_mean_waiting_matches_closed_form() {
        // M/D/1: E[W] = ρ·b/(2(1-ρ)).
        let b = 0.5;
        let lambda = 1.2; // ρ = 0.6
        let q = Mg1::new(lambda, Moments3::constant(b)).unwrap();
        let rho = lambda * b;
        let expect = rho * b / (2.0 * (1.0 - rho));
        assert!((q.mean_waiting_time() - expect).abs() < 1e-12);
    }

    #[test]
    fn utilization_equals_waiting_probability() {
        let q = Mg1::with_utilization(0.7, exp_moments(1.0)).unwrap();
        assert!((q.utilization() - 0.7).abs() < 1e-12);
        assert!((q.waiting_time_distribution().waiting_probability() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn with_utilization_sets_lambda() {
        let m = Moments3::constant(0.01);
        let q = Mg1::with_utilization(0.9, m).unwrap();
        assert!((q.arrival_rate() - 90.0).abs() < 1e-9);
    }

    #[test]
    fn unstable_queue_rejected() {
        let err = Mg1::new(2.0, exp_moments(1.0)).unwrap_err();
        assert!(matches!(err, Mg1Error::Unstable { .. }));
        assert!(Mg1::with_utilization(1.0, exp_moments(1.0)).is_err());
    }

    #[test]
    fn invalid_lambda_rejected() {
        assert!(matches!(
            Mg1::new(f64::NAN, exp_moments(1.0)),
            Err(Mg1Error::InvalidArrivalRate { .. })
        ));
        assert!(matches!(
            Mg1::new(-1.0, exp_moments(1.0)),
            Err(Mg1Error::InvalidArrivalRate { .. })
        ));
    }

    #[test]
    fn zero_load_queue_never_waits() {
        let q = Mg1::new(0.0, exp_moments(1.0)).unwrap();
        assert_eq!(q.mean_waiting_time(), 0.0);
        assert_eq!(q.delayed_waiting_moments(), None);
        let w = q.waiting_time_distribution();
        assert_eq!(w.cdf(0.0), 1.0);
        assert_eq!(w.ccdf(5.0), 0.0);
        assert_eq!(w.quantile(0.9999), 0.0);
    }

    #[test]
    fn delayed_moments_relation() {
        let q = Mg1::with_utilization(0.5, exp_moments(1.0)).unwrap();
        let (m1, m2) = q.delayed_waiting_moments().unwrap();
        assert!((m1 - q.mean_waiting_time() / 0.5).abs() < 1e-12);
        assert!((m2 - q.waiting_time_m2() / 0.5).abs() < 1e-12);
    }

    #[test]
    fn quantile_has_atom_at_zero() {
        let q = Mg1::with_utilization(0.3, exp_moments(1.0)).unwrap();
        let w = q.waiting_time_distribution();
        // 70% of messages do not wait: quantiles up to 0.7 are zero.
        assert_eq!(w.quantile(0.5), 0.0);
        assert_eq!(w.quantile(0.7), 0.0);
        assert!(w.quantile(0.71) > 0.0);
    }

    #[test]
    fn quantile_inverts_cdf() {
        let q = Mg1::with_utilization(0.9, exp_moments(1.0)).unwrap();
        let w = q.waiting_time_distribution();
        for &p in &[0.2, 0.9, 0.99, 0.9999] {
            let t = w.quantile(p);
            if t > 0.0 {
                assert!((w.cdf(t) - p).abs() < 1e-8, "p={p}: cdf(q)={}", w.cdf(t));
            } else {
                assert!(w.cdf(0.0) >= p);
            }
        }
    }

    #[test]
    fn required_buffer_scales_with_load_and_percentile() {
        let low = Mg1::with_utilization(0.5, exp_moments(1.0)).unwrap();
        let high = Mg1::with_utilization(0.95, exp_moments(1.0)).unwrap();
        assert!(high.required_buffer(0.9999) > low.required_buffer(0.9999));
        assert!(high.required_buffer(0.9999) >= high.required_buffer(0.99));
        // Zero load needs no buffer.
        let idle = Mg1::new(0.0, exp_moments(1.0)).unwrap();
        assert_eq!(idle.required_buffer(0.9999), 0);
    }

    #[test]
    fn mean_queue_length_littles_law() {
        let q = Mg1::with_utilization(0.8, exp_moments(2.0)).unwrap();
        assert!((q.mean_queue_length() - q.arrival_rate() * q.mean_waiting_time()).abs() < 1e-12);
    }

    #[test]
    fn sojourn_is_wait_plus_service() {
        let q = Mg1::with_utilization(0.6, exp_moments(4.0)).unwrap();
        assert!((q.mean_sojourn_time() - q.mean_waiting_time() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn deterministic_service_distribution_total() {
        // cvar[B] = 0 still yields a positive-variance W₁; the distribution
        // object must be usable.
        let q = Mg1::with_utilization(0.9, Moments3::constant(0.02)).unwrap();
        let w = q.waiting_time_distribution();
        assert!(w.cdf(1.0) > 0.9);
        assert!(w.quantile(0.9999) > 0.0);
    }

    #[test]
    fn higher_cvar_shifts_tail_right() {
        // Paper Fig. 11: larger service variability → heavier waiting tail.
        let det = Mg1::with_utilization(0.9, Moments3::constant(1.0)).unwrap();
        let exp = Mg1::with_utilization(0.9, exp_moments(1.0)).unwrap();
        let t = 10.0;
        assert!(exp.waiting_time_distribution().ccdf(t) > det.waiting_time_distribution().ccdf(t));
    }
}
