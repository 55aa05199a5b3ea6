//! Fixed-memory multi-resolution metric history.
//!
//! The registry's instruments are cumulative: counters only grow and
//! histograms only accumulate. A single snapshot therefore answers "what
//! happened since boot", but SLO evaluation needs "what happened in the
//! last 5 minutes". This module keeps a bounded ring of **per-interval
//! deltas** — each slot holds the counter increments and the bucket-wise
//! histogram delta ([`HistogramSnapshot::delta`]) between two consecutive
//! cumulative snapshots — so any trailing window is reconstructed by
//! merging its slots ([`HistogramSnapshot::merge`] is exact, bucket-wise).
//!
//! Two resolutions bound memory while covering both alerting windows:
//!
//! * a **fine** ring of 600 slots (10 min at one snapshot a second) feeding
//!   the fast burn-rate window and the console sparklines, and
//! * a **coarse** ring of 720 slots (2 h at one snapshot a second) built by
//!   merging every 10 fine slots — the property tests in
//!   `tests/history_prop.rs` verify the merge reproduces the coarse
//!   counts and quantile bounds exactly.
//!
//! A slot is as wide as the interval between two recorded snapshots, which
//! the caller picks ([`crate::ObsRuntime::start`]'s `interval`). Memory is
//! `O(slots × live series)` and independent of uptime; slots store only
//! non-empty deltas.

use rjms_metrics::{HistogramSnapshot, RegistrySnapshot};
use std::collections::{BTreeMap, VecDeque};
use std::time::Duration;

/// Fine slots retained.
const FINE_SLOTS: usize = 600;
/// Fine slots merged into one coarse slot.
const COARSE_FACTOR: usize = 10;
/// Coarse slots retained.
const COARSE_SLOTS: usize = 720;

/// One interval's worth of activity: deltas for counters and histograms,
/// the last observed value for gauges (gauges are levels, not flows).
#[derive(Debug, Clone, Default)]
pub struct HistorySlot {
    /// Elapsed time at the slot's start (relative to the history's epoch).
    pub start: Duration,
    /// Elapsed time at the slot's end.
    pub end: Duration,
    /// Counter increments within the slot (absent = zero).
    pub counters: BTreeMap<String, u64>,
    /// Gauge values at the slot's end.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram sample deltas within the slot (absent = no samples).
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl HistorySlot {
    /// Folds another slot into this one (interval concatenation).
    fn absorb(&mut self, other: &HistorySlot) {
        self.end = other.end.max(self.end);
        for (name, v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, v) in &other.gauges {
            self.gauges.insert(name.clone(), *v);
        }
        for (name, h) in &other.histograms {
            self.histograms
                .entry(name.clone())
                .and_modify(|acc| acc.merge(h))
                .or_insert_with(|| h.clone());
        }
    }
}

/// A trailing window reconstructed from the rings: merged deltas plus the
/// actual span covered (which may be shorter than requested while the
/// history warms up).
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Elapsed time at the window's start.
    pub start: Duration,
    /// Elapsed time at the window's end (the most recent sample).
    pub end: Duration,
    /// Number of slots merged.
    pub slots: usize,
    /// Summed counter increments.
    pub counters: BTreeMap<String, u64>,
    /// Most recent gauge values.
    pub gauges: BTreeMap<String, i64>,
    /// Merged histogram deltas.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Window {
    /// The wall-clock span actually covered.
    pub fn span(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }

    /// Per-second rate of a counter over the window (0 when absent or the
    /// window is empty).
    pub fn rate(&self, counter: &str) -> f64 {
        let span = self.span().as_secs_f64();
        if span <= 0.0 {
            return 0.0;
        }
        *self.counters.get(counter).unwrap_or(&0) as f64 / span
    }

    /// The merged histogram delta for an instrument, if it saw samples.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }
}

/// One point of a [`MetricHistory::series`] readout.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesPoint {
    /// Elapsed time at the slot's end, milliseconds.
    pub elapsed_ms: u64,
    /// The slot's value under the requested reduction.
    pub value: f64,
}

/// How to reduce one slot of a metric to a scalar for [`MetricHistory::series`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Reduce {
    /// Counter increments per second within the slot.
    Rate,
    /// Gauge level at the slot's end.
    Level,
    /// Histogram quantile (nanoseconds) of the slot's samples; 0 when the
    /// slot saw none.
    Quantile(f64),
    /// Histogram sample count within the slot.
    Count,
    /// Histogram sample mean within the slot; 0 when the slot saw none.
    /// For the backlog instrument this is the slot's average observed
    /// queue length — the measured `L` of the Little's-law check.
    Mean,
}

/// The multi-resolution delta ring. See the [module docs](self).
#[derive(Debug, Default)]
pub struct MetricHistory {
    /// Last cumulative snapshot, the subtrahend for the next delta.
    last: Option<(Duration, RegistrySnapshot)>,
    fine: VecDeque<HistorySlot>,
    /// Fine slots accumulated toward the next coarse slot.
    pending_coarse: Option<HistorySlot>,
    pending_count: usize,
    coarse: VecDeque<HistorySlot>,
    samples: u64,
}

impl MetricHistory {
    /// Cumulative snapshots recorded so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Records one cumulative snapshot taken at `elapsed` (monotonic time
    /// since an arbitrary epoch, e.g. process start).
    ///
    /// The first call only establishes the baseline; each subsequent call
    /// appends one fine slot holding the delta since the previous call.
    /// Out-of-order calls (`elapsed` not after the previous) are ignored.
    pub fn record(&mut self, elapsed: Duration, snapshot: &RegistrySnapshot) {
        self.samples += 1;
        let Some((prev_elapsed, prev)) = self.last.replace((elapsed, snapshot.clone())) else {
            return;
        };
        if elapsed <= prev_elapsed {
            // Restore the newer baseline semantics: keep the latest
            // snapshot but drop the nonsensical interval.
            return;
        }
        let slot = delta_slot(prev_elapsed, elapsed, &prev, snapshot);
        self.push_fine(slot);
    }

    fn push_fine(&mut self, slot: HistorySlot) {
        match &mut self.pending_coarse {
            Some(pending) => pending.absorb(&slot),
            None => self.pending_coarse = Some(slot.clone()),
        }
        self.pending_count += 1;
        if self.pending_count >= COARSE_FACTOR {
            let coarse = self.pending_coarse.take().expect("pending tracked with count");
            self.pending_count = 0;
            if self.coarse.len() == COARSE_SLOTS {
                self.coarse.pop_front();
            }
            self.coarse.push_back(coarse);
        }
        if self.fine.len() == FINE_SLOTS {
            self.fine.pop_front();
        }
        self.fine.push_back(slot);
    }

    /// The most recent recorded elapsed time, if any.
    pub fn latest(&self) -> Option<Duration> {
        self.last.as_ref().map(|(t, _)| *t)
    }

    /// Reconstructs the trailing window of length `span` by merging ring
    /// slots: the fine ring when it covers the span, the coarse ring plus
    /// the still-pending fine tail otherwise. Returns an empty window when
    /// nothing has been recorded.
    pub fn window(&self, span: Duration) -> Window {
        let Some(end) = self.fine.back().map(|s| s.end) else {
            return Window::default();
        };
        let cutoff = end.saturating_sub(span);
        let fine_covers = self.fine.front().map(|s| s.start <= cutoff).unwrap_or(false);
        let mut out = Window { start: end, end, ..Window::default() };
        let mut absorb = |slot: &HistorySlot| {
            if slot.end <= cutoff {
                return;
            }
            out.start = out.start.min(slot.start.max(cutoff));
            out.slots += 1;
            for (name, v) in &slot.counters {
                *out.counters.entry(name.clone()).or_insert(0) += v;
            }
            for (name, v) in &slot.gauges {
                out.gauges.insert(name.clone(), *v);
            }
            for (name, h) in &slot.histograms {
                out.histograms
                    .entry(name.clone())
                    .and_modify(|acc| acc.merge(h))
                    .or_insert_with(|| h.clone());
            }
        };
        if fine_covers || self.coarse.is_empty() {
            for slot in &self.fine {
                absorb(slot);
            }
        } else {
            // Coarse ring for the deep past, plus the fine slots newer than
            // the last completed coarse slot (the pending tail).
            let coarse_end = self.coarse.back().map(|s| s.end).unwrap_or(Duration::ZERO);
            for slot in &self.coarse {
                absorb(slot);
            }
            for slot in self.fine.iter().filter(|s| s.start >= coarse_end) {
                absorb(slot);
            }
        }
        out
    }

    /// Per-slot scalar readout of one metric over the trailing `span`,
    /// oldest first — the console's sparkline feed. Slots come from the
    /// fine ring when it covers the span; otherwise the coarse ring for
    /// the deep past plus the still-pending fine tail, mirroring
    /// [`MetricHistory::window`].
    pub fn series(&self, metric: &str, span: Duration, reduce: Reduce) -> Vec<SeriesPoint> {
        let Some(end) = self.fine.back().map(|s| s.end) else {
            return Vec::new();
        };
        let cutoff = end.saturating_sub(span);
        let fine_covers = self.fine.front().map(|s| s.start <= cutoff).unwrap_or(false);
        let mut slots: Vec<&HistorySlot> = Vec::new();
        if fine_covers || self.coarse.is_empty() {
            slots.extend(self.fine.iter());
        } else {
            let coarse_end = self.coarse.back().map(|s| s.end).unwrap_or(Duration::ZERO);
            slots.extend(self.coarse.iter());
            slots.extend(self.fine.iter().filter(|s| s.start >= coarse_end));
        }
        slots
            .into_iter()
            .filter(|s| s.end > cutoff)
            .map(|slot| {
                let value = match reduce {
                    Reduce::Rate => {
                        let width = slot.end.saturating_sub(slot.start).as_secs_f64();
                        if width > 0.0 {
                            *slot.counters.get(metric).unwrap_or(&0) as f64 / width
                        } else {
                            0.0
                        }
                    }
                    Reduce::Level => *slot.gauges.get(metric).unwrap_or(&0) as f64,
                    Reduce::Quantile(p) => {
                        slot.histograms.get(metric).and_then(|h| h.quantile(p)).unwrap_or(0) as f64
                    }
                    Reduce::Count => {
                        slot.histograms.get(metric).map(|h| h.count).unwrap_or(0) as f64
                    }
                    Reduce::Mean => slot.histograms.get(metric).map(|h| h.mean()).unwrap_or(0.0),
                };
                SeriesPoint { elapsed_ms: slot.end.as_millis() as u64, value }
            })
            .collect()
    }
}

/// Builds one slot from two consecutive cumulative snapshots.
fn delta_slot(
    start: Duration,
    end: Duration,
    prev: &RegistrySnapshot,
    next: &RegistrySnapshot,
) -> HistorySlot {
    let mut slot = HistorySlot { start, end, ..HistorySlot::default() };
    for (name, value) in &next.counters {
        let before = prev.counters.get(name).copied().unwrap_or(0);
        let delta = value.saturating_sub(before);
        if delta > 0 {
            slot.counters.insert(name.clone(), delta);
        }
    }
    slot.gauges = next.gauges.clone();
    for (name, h) in &next.histograms {
        let window = match prev.histograms.get(name) {
            Some(before) => h.delta(before),
            None => h.clone(),
        };
        if window.count > 0 {
            slot.histograms.insert(name.clone(), window);
        }
    }
    slot
}

#[cfg(test)]
mod tests {
    use super::*;
    use rjms_metrics::MetricsRegistry;

    #[test]
    fn series_spanning_past_the_fine_ring_appends_the_pending_tail() {
        let registry = MetricsRegistry::new();
        let c = registry.counter("msgs");
        // The fine ring holds the last 600 of 607 slots; coarse slots are
        // 10 fine slots wide.
        let mut history = MetricHistory::default();
        for t in 0..=607u64 {
            c.add(100);
            history.record(Duration::from_secs(t), &registry.snapshot());
        }
        // Requesting more than the fine ring covers must not drop the
        // fine slots newer than the last completed coarse slot.
        let points = history.series("msgs", Duration::from_secs(700), Reduce::Rate);
        // Coarse slots 0-10, …, 590-600 for the deep past, then the pending
        // fine slots 600-601, …, 606-607: complete coverage, nothing double
        // counted.
        let ends: Vec<u64> = points.iter().map(|p| p.elapsed_ms).collect();
        let coarse = (1..=60).map(|slot| slot * 10_000);
        let pending = (601..=607).map(|end| end * 1_000);
        assert_eq!(ends, coarse.chain(pending).collect::<Vec<u64>>(), "{points:?}");
        assert!(points.iter().all(|p| (p.value - 100.0).abs() < 1e-9), "{points:?}");
    }

    #[test]
    fn window_recovers_counter_deltas_and_rates() {
        let registry = MetricsRegistry::new();
        let c = registry.counter("msgs");
        let mut history = MetricHistory::default();
        for t in 0..=6u64 {
            c.add(100);
            history.record(Duration::from_secs(t), &registry.snapshot());
        }
        // Baseline at t=0, six slots of +100 each afterwards.
        let w = history.window(Duration::from_secs(3));
        assert_eq!(w.counters.get("msgs"), Some(&300));
        assert!((w.rate("msgs") - 100.0).abs() < 1e-9);
        let all = history.window(Duration::from_secs(60));
        assert_eq!(all.counters.get("msgs"), Some(&600));
    }

    #[test]
    fn window_merges_histogram_deltas() {
        let registry = MetricsRegistry::new();
        let h = registry.histogram("lat_ns");
        let mut history = MetricHistory::default();
        history.record(Duration::from_secs(0), &registry.snapshot());
        h.record(1_000);
        history.record(Duration::from_secs(1), &registry.snapshot());
        h.record(1_000_000);
        history.record(Duration::from_secs(2), &registry.snapshot());
        let last = history.window(Duration::from_secs(1));
        assert_eq!(last.histogram("lat_ns").unwrap().count, 1);
        let q = last.histogram("lat_ns").unwrap().quantile(0.5).unwrap();
        assert!((1_000_000..=1_050_000).contains(&q), "q {q}");
        let both = history.window(Duration::from_secs(2));
        assert_eq!(both.histogram("lat_ns").unwrap().count, 2);
    }

    #[test]
    fn fine_ring_evicts_but_coarse_retains() {
        let registry = MetricsRegistry::new();
        let c = registry.counter("msgs");
        let mut history = MetricHistory::default();
        for t in 0..=620u64 {
            c.add(10);
            history.record(Duration::from_secs(t), &registry.snapshot());
        }
        // 620 slots recorded; the fine ring holds only the last 600, but a
        // 610 s window is still answerable from the coarse ring.
        let deep = history.window(Duration::from_secs(610));
        assert_eq!(deep.counters.get("msgs"), Some(&6_100), "slots {}", deep.slots);
    }

    #[test]
    fn series_reports_per_slot_rates_oldest_first() {
        let registry = MetricsRegistry::new();
        let c = registry.counter("msgs");
        let mut history = MetricHistory::default();
        history.record(Duration::from_secs(0), &registry.snapshot());
        for t in 1..=3u64 {
            c.add(t * 10);
            history.record(Duration::from_secs(t), &registry.snapshot());
        }
        let pts = history.series("msgs", Duration::from_secs(10), Reduce::Rate);
        assert_eq!(pts.len(), 3);
        let values: Vec<f64> = pts.iter().map(|p| p.value).collect();
        assert_eq!(values, vec![10.0, 20.0, 30.0]);
        assert!(pts.windows(2).all(|w| w[0].elapsed_ms < w[1].elapsed_ms));
    }

    #[test]
    fn mean_reduce_is_per_slot_sample_mean() {
        let registry = MetricsRegistry::new();
        let h = registry.histogram("broker.backlog");
        let mut history = MetricHistory::default();
        history.record(Duration::from_secs(0), &registry.snapshot());
        // Slot 1: samples {2, 4} → mean 3; slot 2: none → 0; slot 3: {9}.
        h.record(2);
        h.record(4);
        history.record(Duration::from_secs(1), &registry.snapshot());
        history.record(Duration::from_secs(2), &registry.snapshot());
        h.record(9);
        history.record(Duration::from_secs(3), &registry.snapshot());
        let pts = history.series("broker.backlog", Duration::from_secs(10), Reduce::Mean);
        let values: Vec<f64> = pts.iter().map(|p| p.value).collect();
        assert_eq!(values, vec![3.0, 0.0, 9.0]);
    }

    #[test]
    fn out_of_order_snapshots_are_dropped() {
        let registry = MetricsRegistry::new();
        let c = registry.counter("msgs");
        let mut history = MetricHistory::default();
        history.record(Duration::from_secs(5), &registry.snapshot());
        c.add(7);
        history.record(Duration::from_secs(5), &registry.snapshot());
        assert_eq!(history.window(Duration::from_secs(60)).slots, 0);
        c.add(3);
        history.record(Duration::from_secs(6), &registry.snapshot());
        // The delta is taken against the *latest* baseline (t=5 snapshot,
        // counter already at 7), so only the +3 lands in the slot.
        let w = history.window(Duration::from_secs(60));
        assert_eq!(w.counters.get("msgs"), Some(&3));
    }

    #[test]
    fn warmup_window_reports_actual_span() {
        let registry = MetricsRegistry::new();
        registry.counter("msgs").add(1);
        let mut history = MetricHistory::default();
        history.record(Duration::from_secs(0), &registry.snapshot());
        registry.counter("msgs").add(1);
        history.record(Duration::from_secs(1), &registry.snapshot());
        let w = history.window(Duration::from_secs(300));
        assert_eq!(w.span(), Duration::from_secs(1));
        assert_eq!(w.slots, 1);
    }

    #[test]
    fn gauges_report_latest_level() {
        let registry = MetricsRegistry::new();
        let g = registry.gauge("depth");
        let mut history = MetricHistory::default();
        g.set(5);
        history.record(Duration::from_secs(0), &registry.snapshot());
        g.set(9);
        history.record(Duration::from_secs(1), &registry.snapshot());
        g.set(2);
        history.record(Duration::from_secs(2), &registry.snapshot());
        let w = history.window(Duration::from_secs(10));
        assert_eq!(w.gauges.get("depth"), Some(&2));
    }
}
