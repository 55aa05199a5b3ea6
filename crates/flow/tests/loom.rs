//! Loom models for the flow-control accounting (DESIGN.md §3.14).
//!
//! Built only under `RUSTFLAGS="--cfg loom"`; the CI `loom` job runs
//! `cargo test --release -p rjms-flow --test loom` with that flag. The
//! gate's shared state lives behind the `rjms-conc` facade (a loom
//! `Mutex` plus relaxed outcome counters), so these models explore the
//! exact production lock/counter protocol, not a test double.
#![cfg(loom)]

use loom::sync::{Arc, Mutex};
use loom::thread;
use rjms_flow::{AdmissionOutcome, FlowConfig, FlowGate, TokenBucket};

/// Two producers race for the last token in a shared bucket: exactly one
/// grant is issued, never zero, never two. (The bucket itself is `&mut`
/// state — the property under test is the gate's locking discipline
/// around it, here reduced to its smallest form.)
#[test]
fn bucket_grants_are_conserved_under_contention() {
    loom::model(|| {
        // Rate must be positive; 1e-9 tokens/s at t=0 means no refill can
        // mint a second token under this model.
        let bucket = Arc::new(Mutex::new(TokenBucket::new(1e-9, 1.0)));
        let racer = {
            let bucket = Arc::clone(&bucket);
            thread::spawn(move || bucket.lock().unwrap().try_take(0))
        };
        let mine = bucket.lock().unwrap().try_take(0);
        let theirs = racer.join().unwrap();
        assert!(
            mine ^ theirs,
            "one token must yield exactly one grant (mine={mine}, theirs={theirs})"
        );
        let level = bucket.lock().unwrap().level();
        assert!(level < 1.0, "the taken token resurfaced (level {level})");
    });
}

/// Two producers race through the full admission gate: durable publishes
/// ride the top class (never shed), and the per-class outcome counters
/// account for every decision — admissions are neither lost nor
/// double-counted in any interleaving.
#[test]
fn gate_accounts_for_every_racing_admission() {
    loom::model(|| {
        let gate = Arc::new(FlowGate::new(FlowConfig::default(), 1));
        let racer = {
            let gate = Arc::clone(&gate);
            thread::spawn(move || gate.admit_at(0, 1, 9, true, 0))
        };
        let mine = gate.admit_at(0, 2, 9, true, 0);
        let theirs = racer.join().unwrap();
        for outcome in [&mine, &theirs] {
            assert!(
                !matches!(outcome, AdmissionOutcome::Shed { .. }),
                "durable publishes must never be shed"
            );
        }

        let snap = gate.snapshot();
        let accounted: u64 = snap.per_class.iter().map(|c| c.granted + c.deferred + c.shed).sum();
        assert_eq!(accounted, 2, "an admission outcome went missing from the counters");
        let top = snap.per_class.last().expect("at least one class");
        assert_eq!(top.granted + top.deferred, 2, "durable admissions must land in the top class");
    });
}
