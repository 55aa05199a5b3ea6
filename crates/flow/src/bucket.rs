//! A token bucket with a caller-supplied clock.
//!
//! The bucket is the mechanical half of admission control: the
//! [`FlowController`](crate::FlowController) turns the waiting-time model
//! into a rate `λ_max`, and the bucket meters arrivals against it with a
//! bounded burst allowance. Time is passed in explicitly (nanoseconds on
//! any monotone axis), so tests drive the bucket deterministically and the
//! gate feeds it a single `Instant`-derived epoch in production.

/// A token bucket refilled continuously at `rate` tokens per second up to
/// a `burst` ceiling.
///
/// Invariants (property-tested in `tests/invariants_prop.rs`):
///
/// * the token level always stays in `[0, burst]`,
/// * refill is monotone in time — a clock that jumps backwards is ignored,
///   never refunded,
/// * [`try_take`](Self::try_take) only succeeds when a whole token is
///   available, so the level never goes negative.
///
/// # Examples
///
/// ```
/// use rjms_flow::TokenBucket;
///
/// let mut bucket = TokenBucket::new(1000.0, 10.0); // 1k/s, burst of 10
/// for _ in 0..10 {
///     assert!(bucket.try_take(0)); // burst drains the full bucket
/// }
/// assert!(!bucket.try_take(0)); // empty: over budget
/// assert!(bucket.try_take(1_000_000)); // 1 ms later one token is back
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TokenBucket {
    rate: f64,
    burst: f64,
    tokens: f64,
    last_ns: u64,
}

impl TokenBucket {
    /// Creates a bucket that starts full. A bucket of infinite rate and
    /// burst never runs dry: every take succeeds and it stays full.
    ///
    /// # Panics
    ///
    /// Panics unless `rate > 0` and `burst >= 1` (a bucket that can never
    /// hold a whole token can never admit anything).
    pub fn new(rate: f64, burst: f64) -> Self {
        assert!(rate > 0.0, "token rate must be > 0, got {rate}");
        assert!(burst >= 1.0, "burst must be >= 1, got {burst}");
        Self { rate, burst, tokens: burst, last_ns: 0 }
    }

    /// Credits tokens for the time elapsed since the last refill. A
    /// `now_ns` at or before the last observed time is a no-op.
    pub fn refill(&mut self, now_ns: u64) {
        if now_ns > self.last_ns {
            let dt = (now_ns - self.last_ns) as f64 * 1e-9;
            self.tokens = (self.tokens + dt * self.rate).min(self.burst);
            self.last_ns = now_ns;
        }
    }

    /// Refills to `now_ns`, then takes one token if a whole one is
    /// available.
    pub fn try_take(&mut self, now_ns: u64) -> bool {
        self.refill(now_ns);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Current token level (call [`refill`](Self::refill) first for an
    /// up-to-date reading).
    pub fn level(&self) -> f64 {
        self.tokens
    }

    /// The burst ceiling.
    pub fn burst(&self) -> f64 {
        self.burst
    }

    /// Fraction of the burst ceiling currently filled, in `[0, 1]`; an
    /// infinite bucket's ∞/∞ is NaN, which `min` reads as full.
    pub fn fill_fraction(&self) -> f64 {
        (self.tokens / self.burst).min(1.0)
    }

    /// Swaps the refill rate and the burst ceiling (budget refresh) and
    /// keeps the [fill fraction](Self::fill_fraction), so a bucket that was
    /// a third full is a third full at its new depth. Elapsed time is
    /// credited at the *old* rate first so the change never retro-credits
    /// the past.
    ///
    /// # Panics
    ///
    /// Panics on the arguments [`new`](Self::new) refuses.
    pub fn set_rate(&mut self, rate: f64, burst: f64, now_ns: u64) {
        self.refill(now_ns);
        let fill = self.fill_fraction();
        *self = Self { tokens: fill * burst, last_ns: self.last_ns, ..Self::new(rate, burst) };
    }

    /// Nanoseconds until the level reaches `target` tokens at the current
    /// rate (0 if already there). Used to compute `retry_after` hints.
    pub fn nanos_until(&self, target: f64) -> u64 {
        let deficit = target.min(self.burst) - self.tokens;
        if deficit <= 0.0 {
            0
        } else {
            (deficit / self.rate * 1e9).ceil() as u64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_full_and_caps_at_burst() {
        let mut b = TokenBucket::new(100.0, 5.0);
        assert_eq!(b.level(), 5.0);
        b.refill(10_000_000_000); // 10 s cannot overfill
        assert_eq!(b.level(), 5.0);
        assert_eq!(b.fill_fraction(), 1.0);
    }

    #[test]
    fn drains_and_refills_at_rate() {
        let mut b = TokenBucket::new(1000.0, 2.0);
        assert!(b.try_take(0));
        assert!(b.try_take(0));
        assert!(!b.try_take(0));
        // 1 ms at 1000/s = exactly one token.
        assert!(b.try_take(1_000_000));
        assert!(!b.try_take(1_000_000));
    }

    #[test]
    fn backwards_clock_is_ignored() {
        let mut b = TokenBucket::new(1000.0, 4.0);
        assert!(b.try_take(2_000_000));
        let level = b.level();
        b.refill(1_000_000); // earlier than last seen
        assert_eq!(b.level(), level);
    }

    #[test]
    fn set_rate_credits_the_past_at_the_old_rate() {
        let mut b = TokenBucket::new(1000.0, 10.0);
        for _ in 0..10 {
            assert!(b.try_take(0));
        }
        // 1 ms elapsed at the old 1000/s rate = 1 token, even though the
        // new rate is 1M/s.
        b.set_rate(1_000_000.0, 10.0, 1_000_000);
        assert!((b.level() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn set_rate_keeps_the_fill_fraction_at_the_new_depth() {
        let mut b = TokenBucket::new(1000.0, 40.0);
        for _ in 0..30 {
            assert!(b.try_take(0));
        }
        // A quarter full at 40 tokens is a quarter full at 400.
        b.set_rate(10_000.0, 400.0, 0);
        assert_eq!((b.burst(), b.level()), (400.0, 100.0));
        // It refills at the new rate: 10 tokens a millisecond.
        b.refill(1_000_000);
        assert!((b.level() - 110.0).abs() < 1e-9);
        // And at a shallower depth.
        b.set_rate(100.0, 4.0, 1_000_000);
        assert!((b.level() - 4.0 * 0.275).abs() < 1e-9);
    }

    #[test]
    fn nanos_until_inverts_the_rate() {
        let mut b = TokenBucket::new(1000.0, 2.0);
        assert!(b.try_take(0));
        assert!(b.try_take(0));
        // Empty; 2 tokens at 1000/s is 2 ms.
        assert_eq!(b.nanos_until(2.0), 2_000_000);
        assert_eq!(b.nanos_until(0.0), 0);
    }

    #[test]
    #[should_panic(expected = "token rate")]
    fn zero_rate_panics() {
        TokenBucket::new(0.0, 2.0);
    }

    #[test]
    #[should_panic(expected = "burst")]
    fn sub_token_burst_panics() {
        TokenBucket::new(10.0, 0.5);
    }
}
