//! Named-instrument registry with snapshot and text/JSON export.
//!
//! A [`MetricsRegistry`] hands out shared [`Counter`]/[`Gauge`]/[`Histogram`]
//! instruments keyed by dotted names (`dispatch.waiting_ns`). Instruments
//! are created on first request and returned as `Arc`s; recording never
//! touches the registry lock again. `snapshot()` walks the registry once
//! and produces an immutable [`RegistrySnapshot`] that renders as aligned
//! text or JSON. A value another component already owns (a count it keeps
//! anyway, a sum over other series) is not copied into an instrument on
//! the hot path: a snapshot-time source
//! ([`MetricsRegistry::register_source`]) writes it into each snapshot.

use crate::counter::{Counter, Gauge};
use crate::histogram::{Histogram, HistogramSnapshot};
use crate::json::JsonWriter;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex};

/// A snapshot-time source ([`MetricsRegistry::register_source`]).
type Source = Arc<dyn Fn(&mut RegistrySnapshot) + Send + Sync>;

/// Shared home for named instruments. Cheap to clone (`Arc` inside);
/// clones observe the same instruments.
///
/// # Examples
///
/// ```
/// use rjms_metrics::MetricsRegistry;
/// let registry = MetricsRegistry::new();
/// registry.counter("messages.received").add(3);
/// registry.gauge("connections.active").set(2);
/// let snap = registry.snapshot();
/// assert_eq!(snap.counters["messages.received"], 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<Inner>>,
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    histograms: BTreeMap<String, Arc<Histogram>>,
    sources: Vec<Source>,
}

impl fmt::Debug for Inner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Inner")
            .field("counters", &self.counters)
            .field("gauges", &self.gauges)
            .field("histograms", &self.histograms)
            .field("sources", &self.sources.len())
            .finish()
    }
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the counter named `name`, creating it if absent.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut inner = self.inner.lock().unwrap();
        Arc::clone(inner.counters.entry(name.to_string()).or_default())
    }

    /// Returns the gauge named `name`, creating it if absent.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut inner = self.inner.lock().unwrap();
        Arc::clone(inner.gauges.entry(name.to_string()).or_default())
    }

    /// Returns the histogram named `name`, creating it if absent.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut inner = self.inner.lock().unwrap();
        Arc::clone(inner.histograms.entry(name.to_string()).or_default())
    }

    /// Registers a snapshot-time source: every [`Self::snapshot`] runs
    /// `source` over its copy of the instruments, in registration order,
    /// after the registry's lock is released. A source reports values the
    /// registry does not own — read off their one owner, or derived from
    /// the other series — so they cost the recording path nothing.
    pub fn register_source(&self, source: impl Fn(&mut RegistrySnapshot) + Send + Sync + 'static) {
        let mut inner = self.inner.lock().expect("a registry user panicked holding its lock");
        inner.sources.push(Arc::new(source));
    }

    /// Snapshots every registered instrument, then runs the sources.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let (mut snapshot, sources) = {
            let inner = self.inner.lock().expect("a registry user panicked holding its lock");
            let snapshot = RegistrySnapshot {
                counters: inner.counters.iter().map(|(k, v)| (k.clone(), v.get())).collect(),
                gauges: inner.gauges.iter().map(|(k, v)| (k.clone(), v.get())).collect(),
                histograms: inner
                    .histograms
                    .iter()
                    .map(|(k, v)| (k.clone(), v.snapshot()))
                    .collect(),
            };
            (snapshot, inner.sources.clone())
        };
        sources.iter().for_each(|source| source(&mut snapshot));
        snapshot
    }
}

/// A point-in-time copy of every instrument in a [`MetricsRegistry`],
/// ordered by name.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RegistrySnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl RegistrySnapshot {
    /// The histogram snapshot named `name`, if present and non-empty.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name).filter(|h| h.count > 0)
    }

    /// Renders a human-readable report: one line per counter/gauge, one
    /// summary line per histogram (count, mean, p50/p99/p99.99, max in
    /// milliseconds assuming nanosecond samples).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let width = self
            .counters
            .keys()
            .chain(self.gauges.keys())
            .chain(self.histograms.keys())
            .map(|k| k.len())
            .max()
            .unwrap_or(0);
        for (name, v) in &self.counters {
            out.push_str(&format!("{name:width$}  {v}\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("{name:width$}  {v}\n"));
        }
        let ms = |ns: u64| ns as f64 / 1e6;
        for (name, h) in &self.histograms {
            if h.count == 0 {
                out.push_str(&format!("{name:width$}  (empty)\n"));
                continue;
            }
            out.push_str(&format!(
                "{name:width$}  n={} mean={:.3}ms p50={:.3}ms p99={:.3}ms p99.99={:.3}ms max={:.3}ms\n",
                h.count,
                h.mean() / 1e6,
                ms(h.quantile(0.5).unwrap_or(0)),
                ms(h.quantile(0.99).unwrap_or(0)),
                ms(h.quantile(0.9999).unwrap_or(0)),
                ms(h.max),
            ));
        }
        out
    }

    /// Renders the snapshot as a JSON document.
    pub fn to_json(&self) -> String {
        JsonWriter::document(|w| self.write_json(w))
    }

    /// Writes the snapshot as one JSON object at the writer's position.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.key("counters").object(|w| self.counters.iter().for_each(|(k, v)| w.field(k, *v)));
            w.key("gauges").object(|w| self.gauges.iter().for_each(|(k, v)| w.field(k, *v)));
            w.key("histograms").object(|w| {
                for (name, h) in &self.histograms {
                    w.key(name).object(|w| {
                        w.field("count", h.count);
                        w.field("sum", h.sum);
                        w.field("min", h.min);
                        w.field("max", h.max);
                        w.field("mean", h.mean());
                        w.field("cvar", h.cvar());
                        w.field("p50", h.quantile(0.5).unwrap_or(0));
                        w.field("p99", h.quantile(0.99).unwrap_or(0));
                        w.field("p9999", h.quantile(0.9999).unwrap_or(0));
                        w.key("buckets").array(|w| {
                            for b in &h.buckets {
                                w.array(|w| {
                                    w.value(b.upper);
                                    w.value(b.count);
                                });
                            }
                        });
                    });
                }
            });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instruments_are_shared_by_name() {
        let r = MetricsRegistry::new();
        r.counter("a").inc();
        r.counter("a").inc();
        assert_eq!(r.counter("a").get(), 2);

        let clone = r.clone();
        clone.counter("a").inc();
        assert_eq!(r.snapshot().counters["a"], 3);
    }

    /// A source reports a value the registry does not own, read when the
    /// snapshot is taken, and sees the instruments the registry does; it
    /// runs outside the lock, so it may use the registry itself.
    #[test]
    fn sources_write_into_each_snapshot() {
        let r = MetricsRegistry::new();
        let owned = Arc::new(Histogram::new());
        let (clone, read) = (r.clone(), Arc::clone(&owned));
        r.register_source(move |snap| {
            snap.histograms.insert("journal.append_ns".into(), read.snapshot());
            let doubled = 2 * snap.counters.get("a").copied().unwrap_or(0);
            snap.counters.insert("a.doubled".into(), doubled + clone.counter("b").get());
        });
        r.counter("a").add(3);
        owned.record(100);
        let snap = r.snapshot();
        assert_eq!(snap.histogram("journal.append_ns").unwrap().count, 1);
        assert_eq!(snap.counters["a.doubled"], 6);
        assert!(snap.histogram("missing").is_none());
        owned.record(200);
        assert_eq!(r.snapshot().histogram("journal.append_ns").unwrap().count, 2);
    }

    #[test]
    fn text_and_json_render() {
        let r = MetricsRegistry::new();
        r.counter("messages.received").add(10);
        r.gauge("connections.active").set(-1);
        r.histogram("dispatch.waiting_ns").record(1_000_000);
        r.histogram("empty.hist");
        let snap = r.snapshot();

        let text = snap.render_text();
        assert!(text.contains("messages.received"));
        assert!(text.contains("n=1"));
        assert!(text.contains("(empty)"));

        let json = snap.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains(r#""messages.received":10"#));
        assert!(json.contains(r#""connections.active":-1"#));
        assert!(json.contains(r#""dispatch.waiting_ns":{"count":1"#));
        // Balanced braces as a cheap well-formedness check.
        let open = json.matches(['{', '[']).count();
        let close = json.matches(['}', ']']).count();
        assert_eq!(open, close);
    }
}
