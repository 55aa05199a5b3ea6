//! Synthetic per-message CPU cost.
//!
//! The paper's measurements ran a commercial JMS server on 2006-era hardware
//! whose per-message costs are the Table I constants. To reproduce the
//! *shape* of those measurements on arbitrary modern hardware, the broker can
//! be configured with [`CostParams`](rjms_core::CostParams)
//! ([`BrokerConfig::cost_model`](crate::BrokerConfig::cost_model)): the
//! dispatcher then burns `t_rcv` per received message, `t_fltr` per filter
//! evaluation and `t_tx` per dispatched copy — the three cost components of
//! the paper's Eq. 1 — so a saturated broker's wall-clock throughput follows
//! `1 / (t_rcv + n_fltr·t_fltr + R·t_tx)` like the original server. `t_store`
//! is never spun: the journal stage is real I/O.

use std::time::{Duration, Instant};

/// Burns CPU for one Eq. 1 term of `seconds`, busy-waiting: sleeping is
/// useless at microsecond scales (timer granularity), and a spin models CPU
/// consumption, which is what saturates the paper's server.
pub(crate) fn spin_secs(seconds: f64) {
    let duration = Duration::from_secs_f64(seconds);
    if duration.is_zero() {
        return;
    }
    let start = Instant::now();
    while start.elapsed() < duration {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spin_secs_waits_at_least_the_term() {
        let start = Instant::now();
        spin_secs(300e-6);
        assert!(start.elapsed() >= Duration::from_micros(300));
    }

    #[test]
    fn spin_secs_of_zero_returns_immediately() {
        spin_secs(0.0);
    }
}
