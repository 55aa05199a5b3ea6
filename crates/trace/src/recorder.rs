//! The lock-free span-event ring and the sampled-trace-id set.
//!
//! Writers claim a slot with one `fetch_add` and publish the event under a
//! per-slot sequence counter (a seqlock): a compare-exchange advances the
//! sequence to the odd value `2·claim + 1` while the slot is being written
//! and a release store sets `2·claim + 2` once complete, so a reader can
//! copy the five event words and validate the copy by re-reading the
//! sequence. Torn copies are discarded, never trusted.
//!
//! The compare-exchange claim makes slot write sections mutually
//! exclusive: a writer that stalls mid-write for a full ring lap keeps
//! ownership of its slot, and a lapping writer whose claim fails *drops*
//! its event instead of interleaving word stores with the stalled one.
//! (An earlier revision marked the slot with a plain store; the loom
//! model `slot_reclaim_drops_but_never_tears` in `tests/loom.rs` found
//! the resulting lap race, where mixed words from two writers survive the
//! sequence validation.) With capacities in the thousands the drop window
//! requires a writer to stall for a full lap, which is immaterial for a
//! diagnostic recorder — and the failure mode is a dropped event, never a
//! corrupt one.

// Atomics come through the rjms-conc facade so the loom models in
// `tests/loom.rs` exercise exactly this seqlock code (DESIGN.md §3.14).
use rjms_conc::sync::atomic::{fence, AtomicU64, Ordering};
use std::fmt;

/// Smallest ring the recorder will allocate.
///
/// Under `cfg(loom)` the floor drops to 2 slots: every atomic access is a
/// model scheduling point, and the wrap-around/reclaim interleavings only
/// stay exhaustively explorable with a tiny ring. The claim/publish/read
/// protocol is identical at any capacity.
#[cfg(not(loom))]
const MIN_CAPACITY: usize = 16;
#[cfg(loom)]
const MIN_CAPACITY: usize = 2;

/// One stage of a message's dispatch pipeline (the Eq. 1 terms plus the
/// wire flush on the way out).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Publish received: the dispatcher popped the message (`t_rcv`).
    Receive,
    /// Write-ahead journal append (`t_store`); zero-duration when the
    /// broker runs without persistence, so chains always carry the stage.
    Journal,
    /// Brute-force filter scan over the topic's subscriptions
    /// (`n_fltr · t_fltr`).
    Filter,
    /// Per-subscriber enqueue / copy fan-out (`R · t_tx`).
    Fanout,
    /// A delivery frame for this message was flushed to a client socket
    /// (recorded by the wire layer, once per traced delivery).
    WireFlush,
}

impl Stage {
    /// The broker-side stages every committed chain must carry, in
    /// pipeline order. [`Stage::WireFlush`] is emitted by the wire layer
    /// and only exists for networked deliveries.
    pub const BROKER_STAGES: [Stage; 4] =
        [Stage::Receive, Stage::Journal, Stage::Filter, Stage::Fanout];

    /// Stable lowercase name used in the JSON exposition.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Receive => "receive",
            Stage::Journal => "journal",
            Stage::Filter => "filter",
            Stage::Fanout => "fanout",
            Stage::WireFlush => "wire_flush",
        }
    }

    fn to_u64(self) -> u64 {
        match self {
            Stage::Receive => 0,
            Stage::Journal => 1,
            Stage::Filter => 2,
            Stage::Fanout => 3,
            Stage::WireFlush => 4,
        }
    }

    fn from_u64(raw: u64) -> Option<Stage> {
        Some(match raw {
            0 => Stage::Receive,
            1 => Stage::Journal,
            2 => Stage::Filter,
            3 => Stage::Fanout,
            4 => Stage::WireFlush,
            _ => return None,
        })
    }
}

/// One recorded pipeline stage of one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// The message's trace id (nonzero; assigned at the publisher).
    pub trace_id: u64,
    /// Which pipeline stage this event covers.
    pub stage: Stage,
    /// Stage start in instrumentation-clock ticks (`rjms_metrics::clock`
    /// domain), as measured when the stage was first entered.
    pub start_ticks: u64,
    /// Stage duration in nanoseconds.
    pub duration_ns: u64,
    /// Stage-specific payload: waiting time (receive), journal offset
    /// (journal), filter evaluations (filter), copies (fan-out),
    /// subscription id (wire flush).
    pub aux: u64,
}

/// Words per ring slot (the five `SpanEvent` fields).
const WORDS: usize = 5;

/// Probe window of the open-addressed sampled-id set.
const PROBE: usize = 16;

struct Slot {
    /// 0 = never written; `2·claim + 1` = write in progress;
    /// `2·claim + 2` = complete.
    seq: AtomicU64,
    words: [AtomicU64; WORDS],
}

impl Slot {
    fn empty() -> Slot {
        Slot { seq: AtomicU64::new(0), words: [const { AtomicU64::new(0) }; WORDS] }
    }
}

/// Approximate lock-free set of sampled trace ids, sized with the ring.
///
/// The wire layer consults it long after the dispatcher's sampling
/// decision, from its own writer threads, so membership must be readable
/// without locks. Collisions beyond the probe window overwrite the oldest
/// candidate: a false negative costs one wire-flush event on one chain,
/// never correctness.
struct SampledSet {
    slots: Box<[AtomicU64]>,
    mask: usize,
}

impl SampledSet {
    fn new(capacity: usize) -> SampledSet {
        let size = capacity.next_power_of_two().max(1024);
        SampledSet {
            slots: (0..size).map(|_| AtomicU64::new(0)).collect::<Vec<_>>().into_boxed_slice(),
            mask: size - 1,
        }
    }

    fn insert(&self, id: u64) {
        if id == 0 {
            return;
        }
        let h = mix(id) as usize & self.mask;
        for i in 0..PROBE {
            let slot = &self.slots[(h + i) & self.mask];
            let cur = slot.load(Ordering::Relaxed);
            if cur == id {
                return;
            }
            if cur == 0
                && slot.compare_exchange(0, id, Ordering::Relaxed, Ordering::Relaxed).is_ok()
            {
                return;
            }
        }
        // Probe window full: evict the home slot (bounded memory wins).
        // ORD: Relaxed — the sampled set publishes nothing through this
        // store; membership is a standalone heuristic and a racy miss
        // only costs one wire-flush event (not part of the seqlock).
        self.slots[h].store(id, Ordering::Relaxed);
    }

    fn contains(&self, id: u64) -> bool {
        if id == 0 {
            return false;
        }
        let h = mix(id) as usize & self.mask;
        (0..PROBE).any(|i| self.slots[(h + i) & self.mask].load(Ordering::Relaxed) == id)
    }
}

/// SplitMix64 finalizer: spreads sequential trace ids across the table.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Fixed-capacity, constant-memory, lock-free ring of [`SpanEvent`]s.
///
/// Multiple threads may [`record`](FlightRecorder::record) concurrently
/// (the dispatcher commits broker-stage chains; wire writer threads append
/// flush events). [`snapshot`](FlightRecorder::snapshot) can run at any
/// time from any thread and returns only internally consistent events, in
/// record order.
pub struct FlightRecorder {
    slots: Box<[Slot]>,
    mask: usize,
    /// Total events ever claimed; the next claim index.
    head: AtomicU64,
    sampled: SampledSet,
}

impl fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.slots.len())
            .field("recorded", &self.head.load(Ordering::Relaxed))
            .finish()
    }
}

impl FlightRecorder {
    /// Creates a recorder holding `capacity` events (rounded up to a power
    /// of two, minimum 16). Memory use is fixed at construction.
    pub fn new(capacity: usize) -> FlightRecorder {
        let size = capacity.next_power_of_two().max(MIN_CAPACITY);
        FlightRecorder {
            slots: (0..size).map(|_| Slot::empty()).collect::<Vec<_>>().into_boxed_slice(),
            mask: size - 1,
            head: AtomicU64::new(0),
            sampled: SampledSet::new(size),
        }
    }

    /// The ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events recorded since construction (including evicted ones).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Appends one event, overwriting the oldest when full. Lock-free and
    /// allocation-free; safe from any thread.
    pub fn record(&self, event: SpanEvent) {
        // ORD: Relaxed is enough for the claim — fetch_add is an atomic
        // RMW, so every writer still gets a unique claim index; nothing
        // is published through `head` itself (the per-slot seqlock below
        // carries all the publish edges).
        let claim = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[claim as usize & self.mask];
        // Claim the slot's write section. The sequence may only advance
        // from its previous even (complete) value to this writer's odd
        // (in-progress) value in one atomic step; if the slot is still
        // owned by a writer that stalled for a full ring lap (odd), or a
        // newer lapping claim already moved the sequence past ours, this
        // event is dropped rather than interleaving two writers' word
        // stores in one slot. `recorded` still counts the claim, so the
        // snapshot reports the gap.
        // ORD: Relaxed load + CAS — mutual exclusion comes from the
        // atomicity of compare_exchange (one writer per even value); the
        // publish edges are the fence below and the final Release store.
        let prev = slot.seq.load(Ordering::Relaxed);
        if prev % 2 == 1
            || prev > 2 * claim
            || slot
                .seq
                .compare_exchange(prev, 2 * claim + 1, Ordering::Relaxed, Ordering::Relaxed)
                .is_err()
        {
            return;
        }
        // ORD: Release fence — pairs with the reader's Acquire fence so
        // the odd seq value is visible before any partially-written word.
        fence(Ordering::Release);
        // The fence above and the Release publish below carry all the
        // ordering edges; a reader only trusts these words after
        // re-reading an unchanged even sequence.
        // ORD: Relaxed word stores inside the seqlock write window.
        slot.words[0].store(event.trace_id, Ordering::Relaxed);
        slot.words[1].store(event.stage.to_u64(), Ordering::Relaxed);
        slot.words[2].store(event.start_ticks, Ordering::Relaxed);
        // ORD: (same seqlock write window as the stores above.)
        slot.words[3].store(event.duration_ns, Ordering::Relaxed);
        slot.words[4].store(event.aux, Ordering::Relaxed);
        // ORD: Release publish of the even (complete) sequence — pairs
        // with the reader's Acquire load of `seq`; observing this value
        // guarantees all five word stores are visible.
        slot.seq.store(2 * claim + 2, Ordering::Release);
    }

    /// Marks a trace id as sampled so the wire layer records flush events
    /// for its deliveries.
    pub fn mark_sampled(&self, trace_id: u64) {
        self.sampled.insert(trace_id);
    }

    /// Whether a trace id was marked sampled. May rarely report a stale
    /// `false` under heavy churn (the set is approximate, see module docs).
    pub fn is_sampled(&self, trace_id: u64) -> bool {
        self.sampled.contains(trace_id)
    }

    /// Copies every consistent event out of the ring, in record order.
    pub fn snapshot(&self) -> RecorderSnapshot {
        let mut tagged: Vec<(u64, SpanEvent)> = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            // Bounded retries: a slot rewritten mid-copy is retried a few
            // times, then skipped (it will appear in the next snapshot).
            for _ in 0..4 {
                // ORD: Acquire pairs with the writer's Release publish —
                // an even value here means the slot's words are visible.
                let s1 = slot.seq.load(Ordering::Acquire);
                if s1 == 0 || s1 % 2 == 1 {
                    break;
                }
                let words = [
                    slot.words[0].load(Ordering::Relaxed),
                    slot.words[1].load(Ordering::Relaxed),
                    slot.words[2].load(Ordering::Relaxed),
                    slot.words[3].load(Ordering::Relaxed),
                    slot.words[4].load(Ordering::Relaxed),
                ];
                // Orders the word loads above before the seq re-read
                // below, so an unchanged sequence validates the copy.
                // ORD: Acquire fence pairing the writer's Release fence;
                // the validated re-read itself can then be Relaxed.
                fence(Ordering::Acquire);
                let s2 = slot.seq.load(Ordering::Relaxed);
                if s1 != s2 {
                    continue;
                }
                let claim = s2 / 2 - 1;
                if let Some(stage) = Stage::from_u64(words[1]) {
                    tagged.push((
                        claim,
                        SpanEvent {
                            trace_id: words[0],
                            stage,
                            start_ticks: words[2],
                            duration_ns: words[3],
                            aux: words[4],
                        },
                    ));
                }
                break;
            }
        }
        tagged.sort_unstable_by_key(|(claim, _)| *claim);
        RecorderSnapshot {
            events: tagged.into_iter().map(|(_, e)| e).collect(),
            recorded: self.recorded(),
            capacity: self.capacity(),
        }
    }
}

/// A point-in-time copy of the ring contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecorderSnapshot {
    /// Consistent events in record order (oldest first).
    pub events: Vec<SpanEvent>,
    /// Total events ever recorded; `recorded - events.len()` were evicted
    /// (or skipped as in-flight during the copy).
    pub recorded: u64,
    /// Ring capacity in events.
    pub capacity: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn event(trace_id: u64, stage: Stage, start: u64) -> SpanEvent {
        SpanEvent { trace_id, stage, start_ticks: start, duration_ns: 10, aux: trace_id }
    }

    #[test]
    fn records_and_snapshots_in_order() {
        let r = FlightRecorder::new(64);
        for i in 1..=5u64 {
            r.record(event(i, Stage::Receive, 100 * i));
        }
        let snap = r.snapshot();
        assert_eq!(snap.recorded, 5);
        assert_eq!(snap.events.len(), 5);
        let ids: Vec<u64> = snap.events.iter().map(|e| e.trace_id).collect();
        assert_eq!(ids, vec![1, 2, 3, 4, 5]);
        assert_eq!(snap.events[0].stage, Stage::Receive);
        assert_eq!(snap.events[0].start_ticks, 100);
    }

    #[test]
    fn ring_overwrites_oldest_when_full() {
        let r = FlightRecorder::new(16);
        assert_eq!(r.capacity(), 16);
        for i in 1..=40u64 {
            r.record(event(i, Stage::Fanout, i));
        }
        let snap = r.snapshot();
        assert_eq!(snap.recorded, 40);
        assert_eq!(snap.events.len(), 16);
        // Only the newest 16 events survive, still in record order.
        let ids: Vec<u64> = snap.events.iter().map(|e| e.trace_id).collect();
        assert_eq!(ids, (25..=40).collect::<Vec<u64>>());
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        assert_eq!(FlightRecorder::new(0).capacity(), 16);
        assert_eq!(FlightRecorder::new(100).capacity(), 128);
        assert_eq!(FlightRecorder::new(4096).capacity(), 4096);
    }

    #[test]
    fn sampled_set_membership() {
        let r = FlightRecorder::new(64);
        assert!(!r.is_sampled(7));
        r.mark_sampled(7);
        r.mark_sampled(7); // idempotent
        assert!(r.is_sampled(7));
        assert!(!r.is_sampled(8));
        assert!(!r.is_sampled(0)); // zero is reserved / never sampled
    }

    #[test]
    fn sampled_set_survives_heavy_insertion() {
        let r = FlightRecorder::new(1024);
        for id in 1..=10_000u64 {
            r.mark_sampled(id);
        }
        // Recent ids should mostly still be present despite evictions.
        let recent_hits = (9_900..=10_000u64).filter(|id| r.is_sampled(*id)).count();
        assert!(recent_hits > 50, "only {recent_hits} of the last 101 ids survived");
    }

    #[test]
    #[cfg_attr(miri, ignore = "80k-event stress loop; the loom model and lighter tests cover Miri")]
    fn concurrent_writers_never_produce_torn_events() {
        // Invariant: every event carries trace_id == aux. A torn copy
        // mixing two writers' words would (with high probability across
        // many rounds) violate it — the seqlock must filter those out.
        let r = Arc::new(FlightRecorder::new(256));
        let writers: Vec<_> = (0..4)
            .map(|w| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for i in 0..20_000u64 {
                        let id = w * 1_000_000 + i + 1;
                        r.record(SpanEvent {
                            trace_id: id,
                            stage: Stage::Filter,
                            start_ticks: id,
                            duration_ns: id,
                            aux: id,
                        });
                    }
                })
            })
            .collect();
        // Read concurrently with the writers.
        for _ in 0..50 {
            for e in r.snapshot().events {
                assert_eq!(e.trace_id, e.aux, "torn event escaped the seqlock");
                assert_eq!(e.trace_id, e.start_ticks);
            }
        }
        for w in writers {
            w.join().unwrap();
        }
        let snap = r.snapshot();
        assert_eq!(snap.recorded, 80_000);
        assert_eq!(snap.events.len(), 256);
        for e in snap.events {
            assert_eq!(e.trace_id, e.aux);
        }
    }

    #[test]
    fn stage_names_are_stable() {
        assert_eq!(Stage::Receive.name(), "receive");
        assert_eq!(Stage::WireFlush.name(), "wire_flush");
        for stage in Stage::BROKER_STAGES {
            assert_eq!(Stage::from_u64(stage.to_u64()), Some(stage));
        }
        assert_eq!(Stage::from_u64(99), None);
    }
}
