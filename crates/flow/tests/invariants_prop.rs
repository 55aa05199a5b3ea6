//! Property tests for the flow-control accounting invariants:
//!
//! * a token bucket's level always stays in `[0, burst]` and refill is
//!   monotone in time (a backwards clock never credits or debits),
//! * the admission gate partitions offered load exactly — grants +
//!   deferrals + sheds == offered — and never sheds the top class.

use proptest::prelude::*;
use rjms_core::{CostParams, ReplicationModel, ServerModel};
use rjms_flow::{AdmissionOutcome, FlowConfig, FlowGate, TokenBucket};

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
        offered in prop::collection::vec(
            (0u64..5, 0u8..10, any::<bool>(), 0u64..100_000_000),
            1..500,
        ),
    ) {
        // Five producers, each capped at half the budget: some publishes
        // are deferred by their producer's bucket, not the lane's. The
        // lanes are seeded with Table I's service time (100 filters).
        let seed = ServerModel::new(CostParams::CORRELATION_ID, 100)
            .service_time(ReplicationModel::deterministic(1.0));
        let config = FlowConfig::default().w99_objective(0.002).classes(classes);
        let gate = FlowGate::new(config, 1, Some(seed));
        let mut now = 0u64;
        let top = classes - 1;
        for (producer, priority, durable, dt) in offered.iter().copied() {
            now += dt;
            let outcome = gate.admit_at(0, producer, priority, durable, now);
            if let AdmissionOutcome::Shed { class } = outcome {
                prop_assert!(class < top || classes == 1, "top class was shed");
                prop_assert!(!durable, "durable publish was shed");
            }
        }
        let snapshot = gate.snapshot();
        let total: u64 = snapshot.per_class.iter().map(|c| c.granted + c.deferred + c.shed).sum();
        prop_assert_eq!(total, offered.len() as u64, "outcomes do not partition offered load");
    }
}
