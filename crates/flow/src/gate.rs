//! The admission gate: priority-class token-bucket enforcement of the
//! controllers' arrival-rate budgets.
//!
//! The gate has one lane per dispatcher shard, because each dispatcher is
//! one M/GI/1 server and a topic is pinned to one of them: a lane is that
//! server's [`FlowController`], a lane bucket refilled at its `λ_max`, and
//! the buckets of the producers publishing to it, refilled at half of it.
//! A publish is admitted by its own shard's lane only, so a hot shard
//! drains its own bucket and no other. JMS priorities 0–9 map
//! proportionally onto `classes` priority classes, and each class `c` may
//! only draw from the lane bucket while its fill fraction is at least
//! `(classes − 1 − c) / classes`: as the bucket drains under overload the
//! lowest class is locked out (and shed) first, then the middle classes,
//! while the top class — where durable/persistent publishes are pinned —
//! needs only a single token and is *deferred*, never shed.
//!
//! Each decision is counted once, in its class's atomics; the `/flow`
//! snapshot, the broker's snapshot and the registry's `flow.*` counters
//! ([`FlowGate::bind_registry`]) all read those.

use crate::bucket::TokenBucket;
use crate::config::{FlowConfig, BURST_SECONDS, HEADROOM, PRODUCER_SHARE};
use crate::controller::{CalibrationSource, FlowController};
use rjms_core::{MeasuredSummary, ServiceTime};
use rjms_metrics::{labeled, Histogram, MetricsRegistry};
use serde::{Deserialize, Serialize};
// Sync primitives come through the rjms-conc facade so the loom models
// in `tests/loom.rs` exercise exactly this code (DESIGN.md §3.14).
use rjms_conc::sync::atomic::{AtomicU64, Ordering};
use rjms_conc::sync::{Arc, Mutex, OnceLock};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Producer buckets a lane tracks before it stops allocating new ones
/// (protects the map from unbounded producer-id churn; overflow producers
/// are only subject to the lane bucket).
const MAX_TRACKED_PRODUCERS: usize = 8192;

/// The typed result of one admission decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionOutcome {
    /// The publish may proceed.
    Granted,
    /// Over budget, but capacity is expected back: retry after the hint.
    Deferred {
        /// Priority class the message mapped to (0 = lowest).
        class: u8,
        /// How long until the bucket is expected to admit this class.
        retry_after: Duration,
    },
    /// Over budget and below this class's reserve: the message is dropped
    /// to protect higher classes. Only non-top classes are ever shed.
    Shed {
        /// Priority class the message mapped to (0 = lowest).
        class: u8,
    },
}

impl AdmissionOutcome {
    /// True for [`AdmissionOutcome::Granted`].
    pub fn is_granted(&self) -> bool {
        matches!(self, Self::Granted)
    }
}

/// Per-class decision counters: the one count of each decision.
#[derive(Debug, Default)]
struct ClassCounters {
    granted: AtomicU64,
    deferred: AtomicU64,
    shed: AtomicU64,
}

/// Relaxed loads of each class's counters, in class order.
fn class_counts(counters: &[ClassCounters]) -> impl Iterator<Item = ClassSnapshot> + '_ {
    counters.iter().enumerate().map(|(class, c)| ClassSnapshot {
        class: class as u8,
        granted: c.granted.load(Ordering::Relaxed),
        deferred: c.deferred.load(Ordering::Relaxed),
        shed: c.shed.load(Ordering::Relaxed),
    })
}

/// Point-in-time view of one priority class, for `/flow` exposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClassSnapshot {
    /// Class index (0 = lowest priority, shed first).
    pub class: u8,
    /// Publishes admitted.
    pub granted: u64,
    /// Publishes deferred with a retry hint.
    pub deferred: u64,
    /// Publishes shed.
    pub shed: u64,
}

/// Point-in-time view of the whole gate, for `/flow` exposition. The
/// budgets, counts and buckets are the sums over the lanes, so at one shard
/// they are that lane's; one unseeded lane makes `lambda_max` and the
/// bucket sums infinite (`null` in `/flow`), whatever the others measured.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowSnapshot {
    /// Current arrival-rate budget, messages per second.
    pub lambda_max: f64,
    /// Utilization ceiling behind the budget: the smallest lane's.
    pub rho_max: f64,
    /// Configured `W99` objective, seconds.
    pub w99_objective: f64,
    /// Inversion headroom factor.
    pub headroom: f64,
    /// `measured` once any lane was re-inverted from a measurement, else
    /// `analytic` for a seeded gate and `unseeded` for one without a seed.
    pub source: &'static str,
    /// Budget refreshes applied since start.
    pub refreshes: u64,
    /// Number of priority classes.
    pub classes: u8,
    /// Lane bucket level, tokens.
    pub bucket_level: f64,
    /// Lane bucket ceiling, tokens.
    pub bucket_burst: f64,
    /// Producer buckets currently tracked.
    pub producers: u64,
    /// Per-class outcome counters.
    pub per_class: Vec<ClassSnapshot>,
}

/// The admission gate. See the [module docs](self) and the
/// [crate docs](crate). A method that takes a `shard` panics unless it is
/// below the shard count the gate was built for.
///
/// # Examples
///
/// ```
/// use rjms_flow::{AdmissionOutcome, FlowConfig, FlowGate};
///
/// let gate = FlowGate::new(FlowConfig::default(), 2, None);
/// // An unseeded lane admits the first message of any class, on either shard.
/// assert!(gate.admit(0, 1, 0, false).is_granted());
/// assert!(gate.admit(1, 2, 0, false).is_granted());
/// assert_eq!(gate.snapshot().per_class[0].granted, 2);
/// ```
pub struct FlowGate {
    config: FlowConfig,
    /// One per dispatcher shard, in shard order.
    lanes: Vec<Lane>,
    /// Shared with the registry source [`Self::bind_registry`] registers.
    counters: Arc<Vec<ClassCounters>>,
    /// Per-class admission-decision latency histograms (nanoseconds),
    /// bound by [`Self::bind_registry`].
    decision_ns: OnceLock<Vec<Arc<Histogram>>>,
    epoch: Instant,
}

/// One dispatcher shard's admission: the budget of that one server, its
/// bucket, and the buckets of the producers that publish to it.
struct Lane {
    controller: FlowController,
    bucket: Mutex<TokenBucket>,
    producers: Mutex<HashMap<u64, TokenBucket>>,
}

impl std::fmt::Debug for FlowGate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlowGate")
            .field("lambda_max", &self.lambda_max())
            .field("classes", &self.config.classes)
            .finish_non_exhaustive()
    }
}

impl FlowGate {
    /// Builds a gate from the config with one lane for each of `shards`
    /// dispatchers (at least one), each starting with a full bucket. With a
    /// `seed` service time each lane runs the initial inversion of one
    /// server ([`FlowController::new`]); without one a lane's buckets are
    /// infinite, so it grants every publish through the same two bucket
    /// checks until its first measured refresh.
    pub fn new(config: FlowConfig, shards: usize, seed: Option<ServiceTime>) -> Self {
        let lane = || {
            let controller = FlowController::new(&config, seed.as_ref());
            let bucket = Mutex::new(bucket_for(controller.lambda_max(), config.classes));
            Lane { controller, bucket, producers: Mutex::new(HashMap::new()) }
        };
        let lanes = (0..shards.max(1)).map(|_| lane()).collect();
        let counters = (0..config.classes).map(|_| ClassCounters::default()).collect();
        Self {
            config,
            lanes,
            counters: Arc::new(counters),
            decision_ns: OnceLock::new(),
            epoch: Instant::now(),
        }
    }

    /// The gate's configuration.
    pub fn config(&self) -> &FlowConfig {
        &self.config
    }

    /// Current arrival-rate budget, messages per second: the sum of the
    /// lanes' budgets.
    pub fn lambda_max(&self) -> f64 {
        self.lanes.iter().map(|lane| lane.controller.lambda_max()).sum()
    }

    /// The arrival-rate budget of `shard`'s lane, messages per second.
    pub fn shard_budget(&self, shard: usize) -> f64 {
        self.lanes[shard].controller.lambda_max()
    }

    /// Maps a JMS priority (0–9) to a class index; durable/persistent
    /// publishes are pinned to the top class regardless of priority.
    pub fn class_of(&self, priority: u8, durable: bool) -> u8 {
        let k = self.config.classes;
        if durable {
            return k - 1;
        }
        (u16::from(priority.min(9)) * u16::from(k) / 10) as u8
    }

    /// Admission decision by `shard`'s lane on the gate's own monotone
    /// clock.
    pub fn admit(
        &self,
        shard: usize,
        producer: u64,
        priority: u8,
        durable: bool,
    ) -> AdmissionOutcome {
        let started = Instant::now();
        let now_ns = (started - self.epoch).as_nanos() as u64;
        let outcome = self.admit_at(shard, producer, priority, durable, now_ns);
        if let Some(decision_ns) = self.decision_ns.get() {
            let class = usize::from(self.class_of(priority, durable));
            decision_ns[class].record(started.elapsed().as_nanos() as u64);
        }
        outcome
    }

    /// Admission decision by `shard`'s lane with a caller-supplied clock
    /// (nanoseconds on any monotone axis). Deterministic: this is the entry
    /// point the overload test and the property tests drive.
    pub fn admit_at(
        &self,
        shard: usize,
        producer: u64,
        priority: u8,
        durable: bool,
        now_ns: u64,
    ) -> AdmissionOutcome {
        let class = self.class_of(priority, durable);
        let k = self.config.classes;
        let lane = &self.lanes[shard];
        let outcome = {
            let mut shared = lane.bucket.lock().unwrap();
            shared.refill(now_ns);
            let mut producers = lane.producers.lock().unwrap();
            if !producers.contains_key(&producer) && producers.len() < MAX_TRACKED_PRODUCERS {
                let rate = lane.controller.lambda_max() * PRODUCER_SHARE;
                producers.insert(producer, bucket_for(rate, k));
            }
            let mut producer_bucket = producers.get_mut(&producer);
            // How long until the producer has a whole token (0: it has one
            // now). A deferral's hint is the later of this and the lane's
            // wait, so a retry after it finds both buckets ready.
            let producer_wait = match producer_bucket.as_mut() {
                Some(bucket) => {
                    bucket.refill(now_ns);
                    bucket.nanos_until(1.0)
                }
                None => 0,
            };
            // Class c may only draw while the lane's fill fraction is at
            // or above its reserve threshold. The class policy dominates:
            // the per-producer cap only converts an otherwise-grantable
            // publish into a defer, it never turns one into a shed.
            let reserve = f64::from(k - 1 - class) / f64::from(k);
            if shared.level() >= 1.0 && shared.fill_fraction() >= reserve {
                if producer_wait == 0 {
                    shared.try_take(now_ns);
                    if let Some(bucket) = producer_bucket {
                        bucket.try_take(now_ns);
                    }
                    AdmissionOutcome::Granted
                } else {
                    AdmissionOutcome::Deferred { class, retry_after: clamp_retry(producer_wait) }
                }
            } else if class == k - 1 {
                // Top class (durable/persistent): never shed.
                let retry = shared.nanos_until(1.0).max(producer_wait);
                AdmissionOutcome::Deferred { class, retry_after: clamp_retry(retry) }
            } else if class == 0 || shared.fill_fraction() < reserve / 2.0 {
                AdmissionOutcome::Shed { class }
            } else {
                let target = reserve * shared.burst() + 1.0;
                let retry = shared.nanos_until(target).max(producer_wait);
                AdmissionOutcome::Deferred { class, retry_after: clamp_retry(retry) }
            }
        };
        let counters = &self.counters[usize::from(class)];
        match outcome {
            AdmissionOutcome::Granted => counters.granted.fetch_add(1, Ordering::Relaxed),
            AdmissionOutcome::Deferred { .. } => counters.deferred.fetch_add(1, Ordering::Relaxed),
            AdmissionOutcome::Shed { .. } => counters.shed.fetch_add(1, Ordering::Relaxed),
        };
        outcome
    }

    /// Feeds `shard`'s own measurement to its lane's controller
    /// ([`FlowController::refresh`]); if the budget changed, re-rates the
    /// lane's bucket and its producers' buckets and re-sizes each to
    /// [`BURST_SECONDS`] of its new rate, at the fill fraction it had.
    pub fn refresh(&self, shard: usize, measured: &MeasuredSummary) {
        let lane = &self.lanes[shard];
        let Some(lambda) = lane.controller.refresh(measured) else { return };
        let now_ns = self.epoch.elapsed().as_nanos() as u64;
        let classes = self.config.classes;
        let rerate = |bucket: &mut TokenBucket, rate| {
            bucket.set_rate(rate, burst_for(rate, classes), now_ns);
        };
        rerate(&mut lane.bucket.lock().unwrap(), lambda);
        for bucket in lane.producers.lock().unwrap().values_mut() {
            rerate(bucket, lambda * PRODUCER_SHARE);
        }
    }

    /// Registers per-class decision-latency histograms in `registry`, and a
    /// source that reports the per-class outcome counters as labeled
    /// `flow.{granted,deferred,shed}{class="c"}` series plus their unlabeled
    /// totals (what the obs history rings record, so `rjms-top` can plot
    /// grant/shed *rates* on the same timeline as W99). The broker calls
    /// this when metrics are enabled. The first binding wins: the
    /// histograms sit on the publish hot path behind a lock-free
    /// [`OnceLock`], so they cannot be rebound.
    pub fn bind_registry(&self, registry: &MetricsRegistry) {
        let decision_ns = (0..self.config.classes)
            .map(|c| registry.histogram(&labeled("flow.decision_ns", &[("class", &c.to_string())])))
            .collect();
        if self.decision_ns.set(decision_ns).is_err() {
            return;
        }
        let counters = Arc::clone(&self.counters);
        registry.register_source(move |snapshot| {
            for class in class_counts(&counters) {
                let label = class.class.to_string();
                for (base, n) in [
                    ("flow.granted", class.granted),
                    ("flow.deferred", class.deferred),
                    ("flow.shed", class.shed),
                ] {
                    snapshot.counters.insert(labeled(base, &[("class", &label)]), n);
                    *snapshot.counters.entry(base.to_owned()).or_default() += n;
                }
            }
        });
    }

    /// Point-in-time view for the `/flow` endpoint and the dashboard.
    pub fn snapshot(&self) -> FlowSnapshot {
        let now_ns = self.epoch.elapsed().as_nanos() as u64;
        let source = self.lanes.iter().map(|lane| lane.controller.source()).max();
        let mut snapshot = FlowSnapshot {
            lambda_max: 0.0,
            rho_max: f64::INFINITY,
            w99_objective: self.config.w99_objective,
            headroom: HEADROOM,
            source: source.unwrap_or(CalibrationSource::Unseeded).as_str(),
            refreshes: 0,
            classes: self.config.classes,
            bucket_level: 0.0,
            bucket_burst: 0.0,
            producers: 0,
            per_class: self.class_counts().collect(),
        };
        for lane in &self.lanes {
            let controller = &lane.controller;
            let mut bucket = lane.bucket.lock().unwrap();
            bucket.refill(now_ns);
            snapshot.lambda_max += controller.lambda_max();
            snapshot.rho_max = snapshot.rho_max.min(controller.rho_max());
            snapshot.refreshes += controller.refreshes();
            snapshot.bucket_level += bucket.level();
            snapshot.bucket_burst += bucket.burst();
            snapshot.producers += lane.producers.lock().unwrap().len() as u64;
        }
        snapshot
    }

    /// The per-class outcome counters, the one count of each decision:
    /// relaxed loads only, without the bucket locks [`Self::snapshot`]
    /// takes.
    pub fn class_counts(&self) -> impl Iterator<Item = ClassSnapshot> + '_ {
        class_counts(&self.counters)
    }
}

/// Bucket depth for a given rate: [`BURST_SECONDS`] worth of tokens,
/// floored so each of the `classes` reserve bands can hold at least one
/// token.
fn burst_for(rate: f64, classes: u8) -> f64 {
    (rate * BURST_SECONDS).max(f64::from(classes))
}

/// A full bucket refilled at `rate`, [`burst_for`] deep.
fn bucket_for(rate: f64, classes: u8) -> TokenBucket {
    TokenBucket::new(rate, burst_for(rate, classes))
}

/// Retry hints stay in a sane band regardless of bucket geometry.
fn clamp_retry(nanos: u64) -> Duration {
    Duration::from_nanos(nanos.clamp(1_000_000, 1_000_000_000))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::tests::{measured, seed};

    fn gate() -> FlowGate {
        // Seeded with Table I's service time and a tight objective, so
        // lambda_max is small and tests drain the bucket quickly. A producer
        // may take half the bucket, so the tests that drain it give each
        // publish a producer of its own.
        FlowGate::new(FlowConfig::default().w99_objective(0.0025), 1, Some(seed()))
    }

    #[test]
    fn class_mapping_is_proportional_and_durable_pins_top() {
        let g = gate(); // 3 classes
        assert_eq!(g.class_of(0, false), 0);
        assert_eq!(g.class_of(3, false), 0);
        assert_eq!(g.class_of(4, false), 1);
        assert_eq!(g.class_of(6, false), 1);
        assert_eq!(g.class_of(7, false), 2);
        assert_eq!(g.class_of(9, false), 2);
        assert_eq!(g.class_of(0, true), 2);
        assert_eq!(g.class_of(15, false), 2); // out-of-range clamps
    }

    #[test]
    fn drained_bucket_sheds_low_class_first_and_never_sheds_top() {
        let g = gate();
        // Drain the whole bucket with top-class messages at t=0.
        let mut granted = 0u64;
        while g.admit_at(0, granted, 9, false, 0).is_granted() {
            granted += 1;
        }
        assert!(granted >= 1);
        // Low class is locked out well before the bucket empties, so at
        // empty it is shed; the top class is deferred, never shed.
        assert!(matches!(g.admit_at(0, 1, 0, false, 0), AdmissionOutcome::Shed { class: 0 }));
        assert!(matches!(
            g.admit_at(0, 1, 9, false, 0),
            AdmissionOutcome::Deferred { class: 2, .. }
        ));
        assert!(matches!(
            g.admit_at(0, 1, 0, true, 0),
            AdmissionOutcome::Deferred { class: 2, .. }
        ));
    }

    #[test]
    fn low_class_locks_out_before_high_class() {
        let g = gate();
        // Drain until the fill fraction drops below the class-0 reserve
        // (2/3): class 0 blocked, class 2 still granted.
        let burst = g.lanes[0].bucket.lock().unwrap().burst();
        let to_drain = (burst / 2.0).ceil() as u64; // fill ~0.5 < 2/3
        for producer in 0..to_drain {
            assert!(g.admit_at(0, producer, 9, false, 0).is_granted());
        }
        assert!(!g.admit_at(0, to_drain, 0, false, 0).is_granted());
        assert!(g.admit_at(0, to_drain + 1, 9, false, 0).is_granted());
    }

    #[test]
    fn producer_share_defers_a_hog_while_others_proceed() {
        let g = FlowGate::new(FlowConfig::default().w99_objective(0.0125), 1, Some(seed()));
        // Producer 1 exhausts its half of the bucket; producer 2 is still
        // granted from the other half.
        let mut outcome = g.admit_at(0, 1, 9, false, 0);
        while outcome.is_granted() {
            outcome = g.admit_at(0, 1, 9, false, 0);
        }
        assert!(matches!(outcome, AdmissionOutcome::Deferred { .. }));
        assert!(g.admit_at(0, 2, 9, false, 0).is_granted());
    }

    /// A top-class publish deferred by an empty lane from a producer that
    /// is short as well: the hint covers the producer's slower refill, so
    /// the retry it names is admitted and one a millisecond earlier is not.
    #[test]
    fn a_deferral_hint_waits_for_the_producer_too() {
        let g = gate();
        let rate = g.shard_budget(0);
        let hint = |outcome| match outcome {
            AdmissionOutcome::Deferred { class: 2, retry_after } => retry_after.as_nanos() as u64,
            other => panic!("the top class got {other:?}"),
        };
        // Producer 1 empties its bucket, then takes the token the producer
        // cap's hint says it refilled: it is left with well under half a
        // token, which at λ/2 takes longer than any lane refill (1/λ).
        while g.admit_at(0, 1, 9, false, 0).is_granted() {}
        let now = hint(g.admit_at(0, 1, 9, false, 0));
        assert!(g.admit_at(0, 1, 9, false, now).is_granted());
        // Other producers empty the lane.
        let mut producer = 2;
        while g.lanes[0].bucket.lock().unwrap().level() >= 1.0 {
            if !g.admit_at(0, producer, 9, false, now).is_granted() {
                producer += 1;
            }
        }
        let retry = hint(g.admit_at(0, 1, 9, false, now));
        assert!(retry as f64 > 1.5e9 / rate, "hint {retry} ns at λ = {rate}/s");
        assert!(!g.admit_at(0, 1, 9, false, now + retry - 1_000_000).is_granted());
        assert!(g.admit_at(0, 1, 9, false, now + retry).is_granted());
    }

    #[test]
    fn counters_partition_offered_load() {
        let g = gate();
        let offered = 5000u64;
        for i in 0..offered {
            g.admit_at(0, i % 7, (i % 10) as u8, false, i * 1_000);
        }
        let snap = g.snapshot();
        let total: u64 = snap.per_class.iter().map(|c| c.granted + c.deferred + c.shed).sum();
        assert_eq!(total, offered);
    }

    #[test]
    fn bound_on_tracked_producers_holds() {
        let g = gate();
        for producer in 0..(MAX_TRACKED_PRODUCERS as u64 + 100) {
            g.admit_at(0, producer, 9, false, u64::MAX / 2);
        }
        assert!(g.snapshot().producers <= MAX_TRACKED_PRODUCERS as u64);
    }

    #[test]
    fn each_shard_is_admitted_and_refreshed_by_its_own_lane() {
        let g = FlowGate::new(FlowConfig::default().w99_objective(0.0025), 2, Some(seed()));
        let seed = g.shard_budget(0);
        assert_eq!(g.shard_budget(1), seed);
        assert_eq!(g.lambda_max(), 2.0 * seed);
        // Drain lane 0 with top-class publishes: lane 1 still grants.
        let mut producer = 0;
        while g.admit_at(0, producer, 9, false, 0).is_granted() {
            producer += 1;
        }
        assert!(g.admit_at(1, producer, 0, false, 0).is_granted());

        // A measurement of shard 1 moves lane 1's budget only.
        g.refresh(1, &measured(1e-6, 300_000.0));
        assert_eq!(g.shard_budget(0), seed);
        assert!(g.shard_budget(1) > 100.0 * seed, "lane 1 at {}/s", g.shard_budget(1));
        let snapshot = g.snapshot();
        assert_eq!((snapshot.source, snapshot.refreshes), ("measured", 1));
        assert_eq!(snapshot.lambda_max, g.shard_budget(0) + g.shard_budget(1));
        // Lane 1's bucket is re-sized to 50 ms of its new rate, and lane 0's
        // stays drained.
        let lane1 = g.lanes[1].bucket.lock().unwrap().burst();
        assert!((lane1 - g.shard_budget(1) * BURST_SECONDS).abs() < 1e-6);
        assert!(!g.admit_at(0, producer, 0, false, 0).is_granted());
    }

    /// An unseeded lane grants every publish of every class, however many
    /// come at once from one producer, until its first refresh gives it a
    /// finite budget and full buckets of 50 ms of it.
    #[test]
    fn an_unseeded_lane_grants_everything_until_measured() {
        let g = FlowGate::new(FlowConfig::default(), 1, None);
        assert!((0..10_000).all(|i| g.admit_at(0, 1, (i % 10) as u8, false, 0).is_granted()));
        assert_eq!((g.snapshot().source, g.lambda_max()), ("unseeded", f64::INFINITY));
        g.refresh(0, &measured(1e-3, 100.0));
        let (lambda, bucket) = (g.shard_budget(0), g.lanes[0].bucket.lock().unwrap().clone());
        assert!(lambda.is_finite() && lambda > 0.0 && g.snapshot().source == "measured");
        assert_eq!((bucket.level(), bucket.burst()), (bucket.burst(), lambda * BURST_SECONDS));
    }

    /// The registry reports the gate's own counts, per class and in total;
    /// a second binding is ignored, so nothing is counted twice.
    #[test]
    fn registry_binding_mirrors_decisions() {
        let registry = MetricsRegistry::new();
        let g = gate();
        g.bind_registry(&registry);
        g.bind_registry(&registry);
        assert!(g.admit(0, 1, 9, false).is_granted());
        let snap = registry.snapshot();
        assert_eq!(snap.counters.get("flow.granted{class=\"2\"}"), Some(&1));
        assert!(snap.histogram("flow.decision_ns{class=\"2\"}").is_some());
        // Unlabeled aggregates track the same decisions for the history
        // rings (the rjms-top sheds timeline).
        assert_eq!(snap.counters.get("flow.granted"), Some(&1));
        assert_eq!(snap.counters.get("flow.shed"), Some(&0));
        assert_eq!(snap.counters.get("flow.deferred"), Some(&0));
    }
}
