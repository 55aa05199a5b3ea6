//! Property tests for the flow-control accounting invariants:
//!
//! * a token bucket's level always stays in `[0, burst]` and refill is
//!   monotone in time (a backwards clock never credits or debits),
//! * the admission gate partitions offered load exactly — grants +
//!   deferrals + sheds == offered — and never sheds the top class,
//! * client credit balances never go negative under arbitrary
//!   grant/consume interleavings, and the server's replenishment window
//!   keeps a well-behaved client's outstanding credit inside the window.

use proptest::prelude::*;
use rjms_flow::{AdmissionOutcome, CreditBalance, CreditWindow, FlowConfig, FlowGate, TokenBucket};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Bucket level ∈ [0, burst] after any op sequence; refill with a
    /// non-advancing clock is a no-op.
    #[test]
    fn bucket_level_stays_bounded(
        rate in 1.0f64..1e6,
        burst in 1.0f64..1e4,
        ops in prop::collection::vec((any::<bool>(), 0u64..2_000_000_000), 1..200),
    ) {
        let mut bucket = TokenBucket::new(rate, burst);
        let mut now = 0u64;
        for (take, dt) in ops {
            // Mix forward steps with deliberate backwards reads.
            let at = if dt % 3 == 0 { now.saturating_sub(dt) } else { now + dt };
            if take {
                bucket.try_take(at);
            } else {
                bucket.refill(at);
            }
            now = now.max(at);
            prop_assert!(bucket.level() >= 0.0, "level went negative: {}", bucket.level());
            prop_assert!(
                bucket.level() <= bucket.burst() + 1e-9,
                "level {} escaped burst {}", bucket.level(), bucket.burst()
            );
        }
    }

    /// Refill is monotone: advancing the clock never lowers the level,
    /// and a backwards clock never changes it.
    #[test]
    fn bucket_refill_is_monotone_in_time(
        rate in 1.0f64..1e6,
        burst in 1.0f64..1e4,
        steps in prop::collection::vec(0u64..1_000_000_000, 1..100),
    ) {
        let mut bucket = TokenBucket::new(rate, burst);
        bucket.try_take(0);
        let mut now = 0u64;
        for dt in steps {
            let before = bucket.level();
            bucket.refill(now.saturating_sub(1)); // backwards: no-op
            prop_assert_eq!(bucket.level(), before);
            now += dt;
            bucket.refill(now);
            prop_assert!(bucket.level() >= before - 1e-9, "refill lowered the level");
        }
    }

    /// grants + deferrals + sheds == offered, for every class, and the
    /// top class is never shed.
    #[test]
    fn gate_partitions_offered_load(
        classes in 1u8..=10,
        share in 0.1f64..=1.0,
        offered in prop::collection::vec(
            (0u64..5, 0u8..10, any::<bool>(), 0u64..100_000_000),
            1..500,
        ),
    ) {
        let gate = FlowGate::new(
            FlowConfig::default()
                .w99_objective(0.002)
                .classes(classes)
                .producer_share(share),
            1,
        );
        let mut now = 0u64;
        let top = classes - 1;
        for (producer, priority, durable, dt) in offered.iter().copied() {
            now += dt;
            let outcome = gate.admit_at(producer, priority, durable, now);
            if let AdmissionOutcome::Shed { class } = outcome {
                prop_assert!(class < top || classes == 1, "top class was shed");
                prop_assert!(!durable, "durable publish was shed");
            }
        }
        let snapshot = gate.snapshot();
        let total: u64 = snapshot.per_class.iter().map(|c| c.granted + c.deferred + c.shed).sum();
        prop_assert_eq!(total, offered.len() as u64, "outcomes do not partition offered load");
    }

    /// Client credits never go negative and consumption never exceeds
    /// grants once metering is active.
    #[test]
    fn credit_balance_never_goes_negative(
        ops in prop::collection::vec((any::<bool>(), 1u32..100), 1..300),
    ) {
        let mut balance = CreditBalance::new();
        for (consume, amount) in ops {
            if consume {
                let before = balance.available();
                let ok = balance.try_consume();
                if let Some(0) = before {
                    prop_assert!(!ok, "consumed from an empty balance");
                }
            } else {
                balance.grant(amount);
            }
            if let Some(available) = balance.available() {
                prop_assert_eq!(
                    available,
                    balance.total_granted() - balance.total_consumed(),
                    "balance accounting identity broken"
                );
            }
        }
    }

    /// A well-behaved client driven by the server's window keeps its
    /// outstanding credit in (0, window] forever: the protocol can
    /// neither starve nor over-credit it.
    #[test]
    fn credit_window_keeps_client_inside_the_window(
        window in 1u32..256,
        publishes in 1usize..2000,
    ) {
        let mut server = CreditWindow::new(window);
        let mut client = CreditBalance::new();
        client.grant(server.initial_grant());
        for _ in 0..publishes {
            prop_assert!(client.try_consume(), "client starved mid-window");
            if let Some(grant) = server.consume() {
                client.grant(grant);
            }
            let available = client.available().expect("active after initial grant");
            prop_assert!(available <= u64::from(window), "over-credited past the window");
        }
    }
}
