//! Span-chain reconstruction.
//!
//! The ring stores flat events; readers group them by trace id into
//! [`TraceChain`]s at snapshot time. Within a chain, events are sorted
//! into pipeline order (receive → journal → filter → fan-out →
//! wire-flush): record order cannot be trusted because net writer threads
//! may push a wire-flush span into the ring before the dispatcher commits
//! the broker stages of the same message.

use crate::recorder::{SpanEvent, Stage};

/// All recorded events of one message, in pipeline-stage order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceChain {
    /// The message's trace id.
    pub trace_id: u64,
    /// The chain's events (at least one).
    pub events: Vec<SpanEvent>,
}

impl TraceChain {
    /// Whether the chain carries at least one event of `stage`.
    pub fn has_stage(&self, stage: Stage) -> bool {
        self.events.iter().any(|e| e.stage == stage)
    }

    /// Whether all four broker-side stages are present (wire-flush events
    /// exist only for networked deliveries and are judged separately).
    pub fn is_complete(&self) -> bool {
        Stage::BROKER_STAGES.iter().all(|s| self.has_stage(*s))
    }

    /// Whether the event timestamps never go backwards along the pipeline
    /// (the order [`group_chains`] sorts into). A fan-out stamped before
    /// its filter scan, say, fails this.
    pub fn timestamps_monotone(&self) -> bool {
        self.events.windows(2).all(|w| w[0].start_ticks <= w[1].start_ticks)
    }

    /// The first event's timestamp (chain start), in clock ticks.
    pub fn start_ticks(&self) -> u64 {
        self.events.first().map_or(0, |e| e.start_ticks)
    }

    /// Sum of all stage durations, in nanoseconds.
    pub fn total_duration_ns(&self) -> u64 {
        self.events.iter().map(|e| e.duration_ns).sum()
    }
}

/// Groups flat ring events into per-message chains. Chains appear in
/// first-appearance record order; each chain's events are sorted into
/// pipeline-stage order (ties broken by timestamp), because wire-flush
/// spans recorded by net writer threads can precede the dispatcher's
/// broker-stage commit in the ring.
///
/// A chain whose receive event was evicted by ring wrap-around still
/// groups — it will simply be incomplete, which
/// [`TraceChain::is_complete`] reports.
pub fn group_chains(events: Vec<SpanEvent>) -> Vec<TraceChain> {
    let mut chains: Vec<TraceChain> = Vec::new();
    for event in events {
        match chains.iter_mut().rev().find(|c| c.trace_id == event.trace_id) {
            Some(chain) => chain.events.push(event),
            None => chains.push(TraceChain { trace_id: event.trace_id, events: vec![event] }),
        }
    }
    for chain in &mut chains {
        chain.events.sort_by_key(|e| (e.stage as u8, e.start_ticks));
    }
    chains
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(trace_id: u64, stage: Stage, start: u64) -> SpanEvent {
        SpanEvent { trace_id, stage, start_ticks: start, duration_ns: 5, aux: 0 }
    }

    fn full_chain(trace_id: u64, base: u64) -> Vec<SpanEvent> {
        Stage::BROKER_STAGES
            .iter()
            .enumerate()
            .map(|(i, s)| ev(trace_id, *s, base + i as u64 * 10))
            .collect()
    }

    #[test]
    fn groups_interleaved_chains_by_trace_id() {
        let mut events = Vec::new();
        for i in 0..4 {
            events.push(ev(1, Stage::BROKER_STAGES[i], 100 + i as u64));
            events.push(ev(2, Stage::BROKER_STAGES[i], 200 + i as u64));
        }
        let chains = group_chains(events);
        assert_eq!(chains.len(), 2);
        assert_eq!(chains[0].trace_id, 1);
        assert_eq!(chains[1].trace_id, 2);
        assert!(chains.iter().all(|c| c.is_complete() && c.timestamps_monotone()));
    }

    #[test]
    fn incomplete_and_non_monotone_chains_detected() {
        let partial = group_chains(vec![ev(3, Stage::Filter, 10), ev(3, Stage::Fanout, 20)]);
        assert!(!partial[0].is_complete());
        assert!(partial[0].timestamps_monotone());

        let backwards = group_chains(vec![ev(4, Stage::Receive, 20), ev(4, Stage::Journal, 10)]);
        assert!(!backwards[0].timestamps_monotone());
    }

    #[test]
    fn wire_flush_rides_along_after_broker_stages() {
        let mut events = full_chain(9, 100);
        events.push(ev(9, Stage::WireFlush, 500));
        let chains = group_chains(events);
        assert_eq!(chains.len(), 1);
        assert!(chains[0].is_complete());
        assert!(chains[0].has_stage(Stage::WireFlush));
        assert_eq!(chains[0].events.len(), 5);
        assert!(chains[0].timestamps_monotone());
    }

    #[test]
    fn early_recorded_wire_flush_sorts_into_pipeline_order() {
        // A writer thread can push its flush span into the ring before the
        // dispatcher commits the broker stages; grouping must still yield a
        // pipeline-ordered, monotone chain.
        let mut events = vec![ev(9, Stage::WireFlush, 500)];
        events.extend(full_chain(9, 100));
        let chains = group_chains(events);
        assert_eq!(chains[0].events.last().unwrap().stage, Stage::WireFlush);
        assert!(chains[0].timestamps_monotone());
        assert_eq!(chains[0].start_ticks(), 100);
    }

    #[test]
    fn totals_and_start() {
        let chains = group_chains(full_chain(1, 1000));
        assert_eq!(chains[0].start_ticks(), 1000);
        assert_eq!(chains[0].total_duration_ns(), 20);
    }
}
