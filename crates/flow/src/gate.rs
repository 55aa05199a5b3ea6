//! The admission gate: priority-class token-bucket enforcement of the
//! controller's arrival-rate budget.
//!
//! One global [`TokenBucket`] refills at `λ_max`; per-producer buckets
//! refill at half of it. JMS priorities 0–9 map
//! proportionally onto `classes` priority classes, and each class `c` may
//! only draw from the global bucket while its fill fraction is at least
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
use crate::controller::FlowController;
use rjms_core::MeasuredSummary;
use rjms_metrics::{labeled, Histogram, MetricsRegistry};
use serde::{Deserialize, Serialize};
// Sync primitives come through the rjms-conc facade so the loom models
// in `tests/loom.rs` exercise exactly this code (DESIGN.md §3.14).
use rjms_conc::sync::atomic::{AtomicU64, Ordering};
use rjms_conc::sync::{Arc, Mutex, OnceLock};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Producer buckets tracked before the gate stops allocating new ones
/// (protects the map from unbounded producer-id churn; overflow producers
/// are only subject to the global gate).
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

/// Point-in-time view of the whole gate, for `/flow` exposition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowSnapshot {
    /// Current arrival-rate budget, messages per second.
    pub lambda_max: f64,
    /// Utilization ceiling behind the budget.
    pub rho_max: f64,
    /// Configured `W99` objective, seconds.
    pub w99_objective: f64,
    /// Inversion headroom factor.
    pub headroom: f64,
    /// Where the budget came from (`analytic`, `measured`).
    pub source: &'static str,
    /// Budget refreshes applied since start.
    pub refreshes: u64,
    /// Number of priority classes.
    pub classes: u8,
    /// Global bucket level, tokens.
    pub bucket_level: f64,
    /// Global bucket ceiling, tokens.
    pub bucket_burst: f64,
    /// Producer buckets currently tracked.
    pub producers: u64,
    /// Per-class outcome counters.
    pub per_class: Vec<ClassSnapshot>,
}

/// The admission gate. See the [module docs](self) and the
/// [crate docs](crate).
///
/// # Examples
///
/// ```
/// use rjms_flow::{AdmissionOutcome, FlowConfig, FlowGate};
///
/// let gate = FlowGate::new(FlowConfig::default(), 1);
/// // A full bucket admits the first message of any class.
/// assert!(gate.admit(1, 0, false).is_granted());
/// assert!(gate.snapshot().per_class[0].granted >= 1);
/// ```
pub struct FlowGate {
    config: FlowConfig,
    controller: FlowController,
    global: Mutex<TokenBucket>,
    producers: Mutex<HashMap<u64, TokenBucket>>,
    /// Shared with the registry source [`Self::bind_registry`] registers.
    counters: Arc<Vec<ClassCounters>>,
    /// Per-class admission-decision latency histograms (nanoseconds),
    /// bound by [`Self::bind_registry`].
    decision_ns: OnceLock<Vec<Arc<Histogram>>>,
    epoch: Instant,
}

impl std::fmt::Debug for FlowGate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlowGate")
            .field("lambda_max", &self.controller.lambda_max())
            .field("classes", &self.config.classes)
            .finish_non_exhaustive()
    }
}

impl FlowGate {
    /// Builds a gate from the config for a broker of `shards` dispatchers
    /// (see [`FlowController::new`]): runs the initial analytic inversion
    /// and fills the global bucket.
    pub fn new(config: FlowConfig, shards: usize) -> Self {
        let controller = FlowController::new(&config, shards);
        let lambda = controller.lambda_max();
        let global = TokenBucket::new(lambda, burst_for(lambda, config.classes));
        let counters = (0..config.classes).map(|_| ClassCounters::default()).collect();
        Self {
            config,
            controller,
            global: Mutex::new(global),
            producers: Mutex::new(HashMap::new()),
            counters: Arc::new(counters),
            decision_ns: OnceLock::new(),
            epoch: Instant::now(),
        }
    }

    /// The gate's configuration.
    pub fn config(&self) -> &FlowConfig {
        &self.config
    }

    /// The budget controller.
    pub fn controller(&self) -> &FlowController {
        &self.controller
    }

    /// Current arrival-rate budget, messages per second.
    pub fn lambda_max(&self) -> f64 {
        self.controller.lambda_max()
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

    /// Admission decision on the gate's own monotone clock.
    pub fn admit(&self, producer: u64, priority: u8, durable: bool) -> AdmissionOutcome {
        let started = Instant::now();
        let now_ns = (started - self.epoch).as_nanos() as u64;
        let outcome = self.admit_at(producer, priority, durable, now_ns);
        if let Some(decision_ns) = self.decision_ns.get() {
            let class = usize::from(self.class_of(priority, durable));
            decision_ns[class].record(started.elapsed().as_nanos() as u64);
        }
        outcome
    }

    /// Admission decision with a caller-supplied clock (nanoseconds on
    /// any monotone axis). Deterministic: this is the entry point the
    /// overload test and the property tests drive.
    pub fn admit_at(
        &self,
        producer: u64,
        priority: u8,
        durable: bool,
        now_ns: u64,
    ) -> AdmissionOutcome {
        let class = self.class_of(priority, durable);
        let k = self.config.classes;
        let outcome = {
            let mut global = self.global.lock().unwrap();
            global.refill(now_ns);
            let mut producers = self.producers.lock().unwrap();
            if !producers.contains_key(&producer) && producers.len() < MAX_TRACKED_PRODUCERS {
                producers.insert(producer, self.producer_bucket());
            }
            let mut producer_bucket = producers.get_mut(&producer);
            let producer_ready = match producer_bucket.as_mut() {
                Some(bucket) => {
                    bucket.refill(now_ns);
                    bucket.level() >= 1.0
                }
                None => true,
            };
            // Class c may only draw while the global fill fraction is at
            // or above its reserve threshold. The class policy dominates:
            // the per-producer cap only converts an otherwise-grantable
            // publish into a defer, it never turns one into a shed.
            let reserve = f64::from(k - 1 - class) / f64::from(k);
            if global.level() >= 1.0 && global.fill_fraction() >= reserve {
                if producer_ready {
                    global.try_take(now_ns);
                    if let Some(bucket) = producer_bucket {
                        bucket.try_take(now_ns);
                    }
                    AdmissionOutcome::Granted
                } else {
                    let retry = producer_bucket.map(|b| b.nanos_until(1.0)).unwrap_or(0);
                    AdmissionOutcome::Deferred { class, retry_after: clamp_retry(retry) }
                }
            } else if class == k - 1 {
                // Top class (durable/persistent): never shed.
                let retry = global.nanos_until(1.0);
                AdmissionOutcome::Deferred { class, retry_after: clamp_retry(retry) }
            } else if class == 0 || global.fill_fraction() < reserve / 2.0 {
                AdmissionOutcome::Shed { class }
            } else {
                let target = reserve * global.burst() + 1.0;
                let retry = global.nanos_until(target);
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

    /// Feeds the busiest shard's measurement, and the `servers` its load
    /// is a share of, to the controller ([`FlowController::refresh`]); if
    /// the budget changed, re-rates the global and producer buckets.
    pub fn refresh(&self, busiest: &MeasuredSummary, servers: f64) {
        if let Some(lambda) = self.controller.refresh(busiest, servers) {
            self.apply_rate(lambda);
        }
    }

    /// Applies a new aggregate budget to the global and producer buckets.
    fn apply_rate(&self, lambda: f64) {
        let now_ns = self.epoch.elapsed().as_nanos() as u64;
        self.global.lock().unwrap().set_rate(lambda, now_ns);
        let producer_rate = lambda * PRODUCER_SHARE;
        for bucket in self.producers.lock().unwrap().values_mut() {
            bucket.set_rate(producer_rate, now_ns);
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
        let (bucket_level, bucket_burst) = {
            let mut global = self.global.lock().unwrap();
            global.refill(self.epoch.elapsed().as_nanos() as u64);
            (global.level(), global.burst())
        };
        FlowSnapshot {
            lambda_max: self.controller.lambda_max(),
            rho_max: self.controller.rho_max(),
            w99_objective: self.controller.objective(),
            headroom: HEADROOM,
            source: self.controller.source().as_str(),
            refreshes: self.controller.refreshes(),
            classes: self.config.classes,
            bucket_level,
            bucket_burst,
            producers: self.producers.lock().unwrap().len() as u64,
            per_class: self.class_counts().collect(),
        }
    }

    /// The per-class outcome counters, the one count of each decision:
    /// relaxed loads only, without the bucket locks [`Self::snapshot`]
    /// takes.
    pub fn class_counts(&self) -> impl Iterator<Item = ClassSnapshot> + '_ {
        class_counts(&self.counters)
    }

    fn producer_bucket(&self) -> TokenBucket {
        let rate = self.controller.lambda_max() * PRODUCER_SHARE;
        TokenBucket::new(rate, burst_for(rate, self.config.classes))
    }
}

/// Bucket depth for a given rate: [`BURST_SECONDS`] worth of tokens,
/// floored so each of the `classes` reserve bands can hold at least one
/// token.
fn burst_for(rate: f64, classes: u8) -> f64 {
    (rate * BURST_SECONDS).max(f64::from(classes))
}

/// Retry hints stay in a sane band regardless of bucket geometry.
fn clamp_retry(nanos: u64) -> Duration {
    Duration::from_nanos(nanos.clamp(1_000_000, 1_000_000_000))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate() -> FlowGate {
        // Tight objective so lambda_max is small and tests drain the
        // bucket quickly. A producer may take half the bucket, so the
        // tests that drain it give each publish a producer of its own.
        FlowGate::new(FlowConfig::default().w99_objective(0.0025), 1)
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
        while g.admit_at(granted, 9, false, 0).is_granted() {
            granted += 1;
        }
        assert!(granted >= 1);
        // Low class is locked out well before the bucket empties, so at
        // empty it is shed; the top class is deferred, never shed.
        assert!(matches!(g.admit_at(1, 0, false, 0), AdmissionOutcome::Shed { class: 0 }));
        assert!(matches!(g.admit_at(1, 9, false, 0), AdmissionOutcome::Deferred { class: 2, .. }));
        assert!(matches!(g.admit_at(1, 0, true, 0), AdmissionOutcome::Deferred { class: 2, .. }));
    }

    #[test]
    fn low_class_locks_out_before_high_class() {
        let g = gate();
        // Drain until the fill fraction drops below the class-0 reserve
        // (2/3): class 0 blocked, class 2 still granted.
        let burst = g.global.lock().unwrap().burst();
        let to_drain = (burst / 2.0).ceil() as u64; // fill ~0.5 < 2/3
        for producer in 0..to_drain {
            assert!(g.admit_at(producer, 9, false, 0).is_granted());
        }
        assert!(!g.admit_at(to_drain, 0, false, 0).is_granted());
        assert!(g.admit_at(to_drain + 1, 9, false, 0).is_granted());
    }

    #[test]
    fn producer_share_defers_a_hog_while_others_proceed() {
        let g = FlowGate::new(FlowConfig::default().w99_objective(0.0125), 1);
        // Producer 1 exhausts its half of the bucket; producer 2 is still
        // granted from the other half.
        let mut outcome = g.admit_at(1, 9, false, 0);
        while outcome.is_granted() {
            outcome = g.admit_at(1, 9, false, 0);
        }
        assert!(matches!(outcome, AdmissionOutcome::Deferred { .. }));
        assert!(g.admit_at(2, 9, false, 0).is_granted());
    }

    #[test]
    fn counters_partition_offered_load() {
        let g = gate();
        let offered = 5000u64;
        for i in 0..offered {
            g.admit_at(i % 7, (i % 10) as u8, false, i * 1_000);
        }
        let snap = g.snapshot();
        let total: u64 = snap.per_class.iter().map(|c| c.granted + c.deferred + c.shed).sum();
        assert_eq!(total, offered);
    }

    #[test]
    fn bound_on_tracked_producers_holds() {
        let g = gate();
        for producer in 0..(MAX_TRACKED_PRODUCERS as u64 + 100) {
            g.admit_at(producer, 9, false, u64::MAX / 2);
        }
        assert!(g.snapshot().producers <= MAX_TRACKED_PRODUCERS as u64);
    }

    /// The registry reports the gate's own counts, per class and in total;
    /// a second binding is ignored, so nothing is counted twice.
    #[test]
    fn registry_binding_mirrors_decisions() {
        let registry = MetricsRegistry::new();
        let g = gate();
        g.bind_registry(&registry);
        g.bind_registry(&registry);
        assert!(g.admit(1, 9, false).is_granted());
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
