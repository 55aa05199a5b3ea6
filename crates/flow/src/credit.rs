//! Credit accounting for the wire-level flow control.
//!
//! rjms-net negotiates `FEATURE_FLOW` in the Hello handshake; the server
//! then meters a client's publish stream with a credit window. The two
//! halves of the bookkeeping live here, free of any I/O, so the
//! invariants (credits never go negative, replenishment grants exactly
//! what was consumed) are property-testable in isolation:
//!
//! * [`CreditWindow`] — server side, one per connection: counts admitted
//!   publishes and emits a replenishment grant every half-window.
//! * [`CreditBalance`] — client side: tracks granted minus consumed. A
//!   balance that has never received a grant is *inactive* (the server is
//!   pre-flow or flow is disabled) and admits everything.

/// Publish credits a `FEATURE_FLOW` connection is granted per window: a
/// client may run this many publishes ahead of the server's admission.
pub const CREDIT_WINDOW: u32 = 64;

/// Server-side per-connection credit window.
///
/// The server sends an initial grant of the full window right after the
/// handshake, then one replenishment grant per consumed half-window, so a
/// well-behaved client's balance oscillates in `[window/2, window]` and
/// in-flight credit never exceeds `window`.
///
/// # Examples
///
/// ```
/// use rjms_flow::CreditWindow;
///
/// let mut window = CreditWindow::new(8);
/// assert_eq!(window.initial_grant(), 8);
/// let grants: Vec<_> = (0..8).filter_map(|_| window.consume()).collect();
/// // Two half-window replenishments over one full window.
/// assert_eq!(grants, vec![4, 4]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CreditWindow {
    window: u32,
    consumed: u32,
}

impl CreditWindow {
    /// Creates a window of the given size.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: u32) -> Self {
        assert!(window > 0, "credit window must be > 0");
        Self { window, consumed: 0 }
    }

    /// The grant to send right after the handshake.
    pub fn initial_grant(&self) -> u32 {
        self.window
    }

    /// Records one admitted publish. Returns `Some(grant)` when the
    /// half-window threshold is crossed: the server should send a
    /// CreditGrant for exactly that many credits (what was consumed since
    /// the last grant), restoring the client to a full window.
    pub fn consume(&mut self) -> Option<u32> {
        self.consumed += 1;
        if self.consumed >= self.window.div_ceil(2) {
            let grant = self.consumed;
            self.consumed = 0;
            Some(grant)
        } else {
            None
        }
    }

    /// Publishes consumed since the last replenishment.
    pub fn consumed(&self) -> u32 {
        self.consumed
    }
}

/// Client-side credit balance.
///
/// Starts *inactive*: until the first CreditGrant arrives the client
/// cannot know whether the server runs flow control at all, so every
/// publish is admitted. The first grant activates metering.
///
/// # Examples
///
/// ```
/// use rjms_flow::CreditBalance;
///
/// let mut balance = CreditBalance::new();
/// assert!(balance.try_consume()); // inactive: unlimited
/// balance.grant(2);
/// assert!(balance.try_consume());
/// assert!(balance.try_consume());
/// assert!(!balance.try_consume()); // exhausted, wait for a grant
/// assert_eq!(balance.available(), Some(0));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CreditBalance {
    credits: Option<u64>,
    granted: u64,
    consumed: u64,
}

impl CreditBalance {
    /// Creates an inactive balance (no grant seen yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// True once a grant has activated metering.
    pub fn active(&self) -> bool {
        self.credits.is_some()
    }

    /// Adds `credits` from a CreditGrant frame, activating the balance.
    pub fn grant(&mut self, credits: u32) {
        self.granted += u64::from(credits);
        *self.credits.get_or_insert(0) += u64::from(credits);
    }

    /// Takes one credit. Always succeeds while inactive; once active,
    /// fails (without going negative) when the balance is exhausted.
    pub fn try_consume(&mut self) -> bool {
        match &mut self.credits {
            None => true,
            Some(credits) => {
                if *credits == 0 {
                    false
                } else {
                    *credits -= 1;
                    self.consumed += 1;
                    true
                }
            }
        }
    }

    /// Remaining credits, or `None` while inactive (unlimited).
    pub fn available(&self) -> Option<u64> {
        self.credits
    }

    /// Total credits ever granted.
    pub fn total_granted(&self) -> u64 {
        self.granted
    }

    /// Total credits ever consumed.
    pub fn total_consumed(&self) -> u64 {
        self.consumed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_replenishes_exactly_what_was_consumed() {
        let mut w = CreditWindow::new(10);
        let mut granted = u64::from(w.initial_grant());
        let mut consumed = 0u64;
        for _ in 0..1000 {
            consumed += 1;
            if let Some(g) = w.consume() {
                granted += u64::from(g);
            }
        }
        // Outstanding client balance = granted - consumed, always in
        // (0, window].
        let balance = granted - consumed;
        assert!(balance > 0 && balance <= 10, "balance {balance} escaped the window");
    }

    #[test]
    fn odd_window_rounds_the_threshold_up() {
        let mut w = CreditWindow::new(1);
        // Threshold ceil(1/2) = 1: every consume replenishes immediately.
        assert_eq!(w.consume(), Some(1));
        assert_eq!(w.consume(), Some(1));
    }

    #[test]
    fn balance_is_unlimited_until_first_grant() {
        let mut b = CreditBalance::new();
        assert!(!b.active());
        for _ in 0..100 {
            assert!(b.try_consume());
        }
        assert_eq!(b.available(), None);
        b.grant(1);
        assert!(b.active());
        assert!(b.try_consume());
        assert!(!b.try_consume());
        assert_eq!(b.available(), Some(0));
        assert_eq!(b.total_consumed(), 1);
    }

    #[test]
    #[should_panic(expected = "credit window")]
    fn zero_window_panics() {
        CreditWindow::new(0);
    }
}
