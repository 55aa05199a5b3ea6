//! Property tests: window reconstruction from the history rings is
//! bucket-exact. A trailing window built by merging 1 s fine slots — or,
//! when the window reaches past the 600-slot fine ring, coarse slots plus
//! the pending fine tail — must reproduce exactly the histogram a single
//! continuous recording over that window would have produced: same total
//! count, same sum, and the same quantile at every probe point (merging
//! log-linear histograms is per-bucket addition, so nothing is re-bucketed
//! and no extra quantile error can appear).

use proptest::prelude::*;
use rjms_metrics::{Histogram, MetricsRegistry};
use rjms_obs::MetricHistory;
use std::time::Duration;

/// Records `lead` empty seconds, then replays `seconds` (one inner vec of
/// samples per 1 s interval) through a history, and checks the merged
/// trailing window over all of it against a direct histogram of the same
/// samples.
fn check(seconds: &[Vec<u64>], lead: usize) {
    let registry = MetricsRegistry::new();
    let live = registry.histogram("w");
    let direct = Histogram::new();
    let mut history = MetricHistory::default();
    history.record(Duration::ZERO, &registry.snapshot()); // baseline
    let quiet = Vec::new();
    for (i, values) in std::iter::repeat_n(&quiet, lead).chain(seconds).enumerate() {
        for &v in values {
            live.record(v);
            direct.record(v);
        }
        history.record(Duration::from_secs(i as u64 + 1), &registry.snapshot());
    }
    let expected = direct.snapshot();
    let window = history.window(Duration::from_secs((lead + seconds.len()) as u64));
    let Some(merged) = window.histogram("w") else {
        assert_eq!(expected.count, 0, "window lost every sample");
        return;
    };
    assert_eq!(merged.count, expected.count, "merged count diverges from direct recording");
    assert_eq!(merged.sum, expected.sum, "merged sum diverges from direct recording");
    for p in [0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 0.9999] {
        assert_eq!(merged.quantile(p), expected.quantile(p), "quantile p={p} diverges");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn merged_slots_reproduce_the_direct_window(
        seconds in prop::collection::vec(
            prop::collection::vec(
                prop_oneof![0u64..1_000u64, 10_000u64..10_000_000u64, any::<u64>()],
                0..40,
            ),
            1..12,
        )
    ) {
        // Fine path: the ring holds every slot, the window is a pure
        // fine-slot merge.
        check(&seconds, 0);
        // Coarse path: after 600 empty seconds the fine ring no longer
        // reaches back to the window's start, so the window must stitch
        // completed coarse slots (the one holding the first samples among
        // them) with the pending fine tail. Same samples, same answer.
        check(&seconds, 600);
    }
}
