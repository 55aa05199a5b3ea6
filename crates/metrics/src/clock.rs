//! A low-overhead monotonic tick counter: the one clock of the per-message
//! instruments. The broker's dispatcher reads it through its `Tsc` clock
//! (`rjms-broker`'s `probe.rs`; tests put virtual time in its place) to stamp
//! every Eq. 1 stage boundary, the TCP writer a traced delivery's socket
//! write, so every stage and span is a difference of two readings. `Instant::now()` goes through the vDSO (tens of nanoseconds
//! plus register pressure); on x86-64 this module reads the invariant TSC
//! directly (single-digit nanoseconds) and converts ticks to nanoseconds
//! with a once-per-process calibration against the OS monotonic clock. On
//! other architectures it falls back to `Instant`, where a tick *is* a ns.
//!
//! Readings are monotonic per core and synchronized across cores on any
//! CPU with an invariant TSC (everything current); the nanosecond
//! conversion is calibrated, not exact, which is fine for statistical
//! instruments. Use [`std::time::Instant`] when exactness matters.

use std::sync::OnceLock;
use std::time::Instant;

/// The current reading of the instrumentation clock, in ticks.
///
/// Only differences between readings are meaningful; convert them with
/// [`ticks_to_ns`]. Miri cannot execute the `rdtsc` intrinsic, so under
/// Miri the `Instant` fallback below is used on every architecture.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[inline]
pub fn now() -> u64 {
    // SAFETY: RDTSC has no preconditions; it is available on every x86-64.
    unsafe { core::arch::x86_64::_rdtsc() }
}

/// The current reading of the instrumentation clock, in ticks.
///
/// Fallback: nanoseconds since an arbitrary process-local epoch.
#[cfg(any(not(target_arch = "x86_64"), miri))]
#[inline]
pub fn now() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Nanoseconds per tick (1.0 on the `Instant` fallback), calibrated once
/// per process on first use; inline, so a conversion is a load and a multiply.
#[inline]
pub fn ns_per_tick() -> f64 {
    static NS_PER_TICK: OnceLock<f64> = OnceLock::new();
    *NS_PER_TICK.get_or_init(calibrate)
}

/// Converts a tick difference from [`now`] into nanoseconds.
#[inline]
pub fn ticks_to_ns(ticks: u64) -> u64 {
    (ticks as f64 * ns_per_tick()) as u64
}

#[cfg(all(target_arch = "x86_64", not(miri)))]
fn calibrate() -> f64 {
    let started = Instant::now();
    let first = now();
    std::thread::sleep(std::time::Duration::from_millis(10));
    let elapsed_ns = started.elapsed().as_nanos() as f64;
    let elapsed_ticks = now().wrapping_sub(first) as f64;
    if elapsed_ticks > 0.0 {
        elapsed_ns / elapsed_ticks
    } else {
        1.0 // non-monotonic TSC: degrade to "a tick is a nanosecond"
    }
}

#[cfg(any(not(target_arch = "x86_64"), miri))]
fn calibrate() -> f64 {
    1.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn ticks_advance_and_convert_to_plausible_ns() {
        let t0 = now();
        std::thread::sleep(Duration::from_millis(20));
        let dt = ticks_to_ns(now().wrapping_sub(t0));
        // 20 ms sleep: between 15 ms and 5 s even on a loaded machine.
        assert!(dt > 15_000_000, "{dt} ns is too short for a 20 ms sleep");
        assert!(dt < 5_000_000_000, "{dt} ns is implausibly long");
    }

    #[test]
    fn ns_per_tick_is_positive_and_stable() {
        let a = ns_per_tick();
        let b = ns_per_tick();
        assert!(a > 0.0);
        assert!((a - b).abs() < f64::EPSILON, "calibration must be cached");
    }
}
