//! Shard-skew analysis and the rebalance advisor.
//!
//! The broker pins each topic to a shard by FNV-1a hash, which balances
//! *counts* but not *load*: one hot topic with many filters and a high
//! replication grade can saturate its shard while the others idle — the
//! blind spot the per-topic observatory exists to close. This module takes
//! the observatory's per-topic rows (`λ_t`, `E[B_t]`, current shard) and
//! computes each shard's offered load `ρ_s = Σ λ_t·E[B_t]`, flags skew
//! when the max/mean ratio exceeds [`FLAG_RATIO`], and proposes the smallest
//! greedy set of topic moves that brings the ratio back under target.
//!
//! The greedy is largest-first: repeatedly move the heaviest topic on the
//! most loaded shard that fits on the least loaded shard without pushing
//! it past the target; when none fits, move the heaviest one whose move
//! still lowers the maximum (`min + l < max`). It stops when no move
//! strictly shrinks the spread. Since the mean shard load is invariant
//! under moves, shrinking the maximum is exactly shrinking the max/mean
//! ratio.
//!
//! ## Example
//!
//! ```
//! use rjms_obs::topics::{analyze_skew, TopicLoad};
//!
//! let topics = vec![
//!     TopicLoad { name: "hot".into(), shard: 0, arrival_rate: 900.0, mean_service_time: 1e-3 },
//!     TopicLoad { name: "warm".into(), shard: 0, arrival_rate: 300.0, mean_service_time: 1e-3 },
//!     TopicLoad { name: "cold".into(), shard: 1, arrival_rate: 100.0, mean_service_time: 1e-3 },
//! ];
//! let report = analyze_skew(&topics, 2, 1.10);
//! assert!(report.skewed);
//! assert_eq!(report.moves.len(), 1); // move "warm" to shard 1
//! assert!(report.post_ratio < report.max_mean_ratio);
//! ```

use serde::{Deserialize, Serialize};

/// One topic's contribution to its shard, as observed by the per-topic
/// accounting table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopicLoad {
    /// Topic name.
    pub name: String,
    /// The shard the topic is currently pinned to (FNV-1a placement).
    pub shard: usize,
    /// Observed arrival rate `λ_t`, messages/s.
    pub arrival_rate: f64,
    /// Observed mean service time `E[B_t]`, seconds.
    pub mean_service_time: f64,
}

impl TopicLoad {
    /// The topic's offered load `λ_t · E[B_t]` (its share of one shard's
    /// utilization).
    pub fn offered_load(&self) -> f64 {
        self.arrival_rate * self.mean_service_time
    }
}

/// Max/mean shard-load ratio above which skew is flagged. An advisor's
/// target ratio below it gives the advice hysteresis.
pub const FLAG_RATIO: f64 = 1.25;

/// One shard's slice of the total offered work.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShardShare {
    /// Shard index.
    pub shard: usize,
    /// Offered load `ρ_s = Σ λ_t·E[B_t]` over the shard's topics.
    pub offered_load: f64,
    /// Fraction of the total arrival rate landing on this shard.
    pub arrival_share: f64,
    /// Fraction of the total offered load landing on this shard.
    pub load_share: f64,
    /// Topics currently pinned here.
    pub topics: usize,
}

/// One advised move.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopicMove {
    /// Topic to move.
    pub topic: String,
    /// Its current shard.
    pub from: usize,
    /// The advised destination shard.
    pub to: usize,
    /// The offered load that moves with it.
    pub load: f64,
}

/// The analyzer's output: shares, verdict, and advised moves.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SkewReport {
    /// Per-shard load shares, indexed by shard.
    pub shares: Vec<ShardShare>,
    /// Max/mean shard-load ratio as observed (1.0 = perfectly balanced).
    pub max_mean_ratio: f64,
    /// Whether the observed ratio exceeds [`FLAG_RATIO`].
    pub skewed: bool,
    /// Greedy largest-first moves bringing the ratio under target (empty
    /// when already under, or when no move helps).
    pub moves: Vec<TopicMove>,
    /// The max/mean ratio after applying `moves`.
    pub post_ratio: f64,
}

/// Computes per-shard load shares from the per-topic table over `shards`
/// dispatcher shards and advises the moves that bring the max/mean ratio
/// under `target_ratio`. See the [module docs](self) for the method.
///
/// Topics whose `shard` is out of range, and non-finite or negative loads,
/// are ignored. With `shards <= 1` the report is trivially balanced.
pub fn analyze_skew(topics: &[TopicLoad], shards: usize, target_ratio: f64) -> SkewReport {
    let shards = shards.max(1);
    let mut load = vec![0.0f64; shards];
    let mut rate = vec![0.0f64; shards];
    let mut count = vec![0usize; shards];
    // Candidate moves: (load, index into `topics`), heaviest first.
    let mut usable: Vec<usize> = Vec::new();
    for (i, t) in topics.iter().enumerate() {
        let l = t.offered_load();
        if t.shard >= shards || !l.is_finite() || l < 0.0 || t.arrival_rate < 0.0 {
            continue;
        }
        load[t.shard] += l;
        rate[t.shard] += t.arrival_rate;
        count[t.shard] += 1;
        usable.push(i);
    }

    let total_load: f64 = load.iter().sum();
    let total_rate: f64 = rate.iter().sum();
    let mean = total_load / shards as f64;
    let ratio_of = |load: &[f64]| -> f64 {
        let max = load.iter().cloned().fold(0.0f64, f64::max);
        if mean > 0.0 {
            max / mean
        } else {
            1.0
        }
    };
    let max_mean_ratio = ratio_of(&load);

    let shares = (0..shards)
        .map(|s| ShardShare {
            shard: s,
            offered_load: load[s],
            arrival_share: if total_rate > 0.0 { rate[s] / total_rate } else { 0.0 },
            load_share: if total_load > 0.0 { load[s] / total_load } else { 0.0 },
            topics: count[s],
        })
        .collect();

    // Greedy largest-first advisor. Work on a copy of the shard loads and
    // a per-shard list of movable (load, topic) pairs.
    let mut moves = Vec::new();
    let mut post_ratio = max_mean_ratio;
    if shards > 1 && mean > 0.0 && max_mean_ratio > target_ratio {
        let mut pinned: Vec<Vec<(f64, usize)>> = vec![Vec::new(); shards];
        for &i in &usable {
            pinned[topics[i].shard].push((topics[i].offered_load(), i));
        }
        for list in &mut pinned {
            // Heaviest last, so `pop`-order scans go largest-first.
            list.sort_by(|a, b| a.0.total_cmp(&b.0));
        }
        // Each usable topic moves at most once, so this terminates.
        let target_load = target_ratio * mean;
        for _ in 0..usable.len() {
            if ratio_of(&load) <= target_ratio {
                break;
            }
            let (max_s, _) =
                load.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).expect("shards >= 1");
            let (min_s, min_l) = load
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(b.1))
                .map(|(s, &l)| (s, l))
                .expect("shards >= 1");
            // Largest topic on the hottest shard that still fits on the
            // coldest shard without pushing *it* past the target; failing
            // that, the largest whose move still lowers the maximum.
            let headroom = target_load - min_l;
            let pick =
                pinned[max_s].iter().rposition(|&(l, _)| l > 0.0 && l <= headroom).or_else(|| {
                    pinned[max_s].iter().rposition(|&(l, _)| l > 0.0 && min_l + l < load[max_s])
                });
            let Some(pos) = pick else { break };
            let (l, idx) = pinned[max_s].remove(pos);
            load[max_s] -= l;
            load[min_s] += l;
            moves.push(TopicMove {
                topic: topics[idx].name.clone(),
                from: max_s,
                to: min_s,
                load: l,
            });
        }
        post_ratio = ratio_of(&load);
    }

    SkewReport { shares, max_mean_ratio, skewed: max_mean_ratio > FLAG_RATIO, moves, post_ratio }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TARGET: f64 = 1.10;

    fn topic(name: &str, shard: usize, rate: f64, e_b: f64) -> TopicLoad {
        TopicLoad { name: name.into(), shard, arrival_rate: rate, mean_service_time: e_b }
    }

    #[test]
    fn balanced_load_is_not_skewed_and_needs_no_moves() {
        let topics = vec![
            topic("a", 0, 100.0, 1e-3),
            topic("b", 1, 100.0, 1e-3),
            topic("c", 2, 100.0, 1e-3),
        ];
        let report = analyze_skew(&topics, 3, TARGET);
        assert!(!report.skewed);
        assert!(report.moves.is_empty());
        assert!((report.max_mean_ratio - 1.0).abs() < 1e-12);
        assert_eq!(report.shares.len(), 3);
        for s in &report.shares {
            assert!((s.load_share - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn hot_shard_is_flagged_and_fixed_by_moves() {
        // Shard 0 carries 4× the load of shard 1.
        let topics = vec![
            topic("hot", 0, 500.0, 1e-3),
            topic("warm", 0, 300.0, 1e-3),
            topic("cool", 1, 200.0, 1e-3),
        ];
        let report = analyze_skew(&topics, 2, TARGET);
        assert!(report.skewed, "ratio {}", report.max_mean_ratio);
        // One move suffices: "warm" (the largest topic that fits on shard
        // 1 without overloading it) balances the pair exactly.
        assert_eq!(report.moves.len(), 1);
        assert!(report.post_ratio <= 1.10 + 1e-12, "post {}", report.post_ratio);
        assert_eq!(report.moves[0].topic, "warm");
        assert_eq!(report.moves[0].from, 0);
        assert_eq!(report.moves[0].to, 1);
    }

    #[test]
    fn advisor_is_greedy_largest_first() {
        let topics = vec![
            topic("xl", 0, 400.0, 1e-3),
            topic("l", 0, 300.0, 1e-3),
            topic("m", 0, 200.0, 1e-3),
            topic("s", 1, 50.0, 1e-3),
            topic("t", 2, 50.0, 1e-3),
        ];
        let report = analyze_skew(&topics, 3, TARGET);
        // "xl" alone carries 0.4 of a 0.333 mean: ratio 1.2 is the best any
        // placement can do, and the advisor gets there.
        assert!(report.post_ratio <= 1.20 + 1e-12, "post {}", report.post_ratio);
        assert!(report.post_ratio < report.max_mean_ratio);
        // Moves come out in non-increasing load order.
        for pair in report.moves.windows(2) {
            assert!(pair[0].load >= pair[1].load);
        }
    }

    #[test]
    fn unmovable_monolith_breaks_without_looping() {
        // One topic is the entire load: no move can help (moving it just
        // relocates the hot spot), the advisor must terminate empty.
        let topics = vec![topic("monolith", 0, 1000.0, 1e-3)];
        let report = analyze_skew(&topics, 4, TARGET);
        assert!(report.skewed);
        assert!(report.moves.is_empty());
        assert_eq!(report.post_ratio, report.max_mean_ratio);
    }

    #[test]
    fn single_shard_is_trivially_balanced() {
        let topics = vec![topic("a", 0, 100.0, 1e-3)];
        let report = analyze_skew(&topics, 1, TARGET);
        assert!(!report.skewed);
        assert!((report.max_mean_ratio - 1.0).abs() < 1e-12);
        assert!(report.moves.is_empty());
    }

    #[test]
    fn out_of_range_and_invalid_rows_are_ignored() {
        let topics = vec![
            topic("ok", 0, 100.0, 1e-3),
            topic("oob", 9, 100.0, 1e-3),
            topic("nan", 1, f64::NAN, 1e-3),
            topic("neg", 1, -5.0, 1e-3),
        ];
        let report = analyze_skew(&topics, 2, TARGET);
        assert_eq!(report.shares[0].topics, 1);
        assert_eq!(report.shares[1].topics, 0);
    }

    #[test]
    fn empty_table_yields_neutral_report() {
        let report = analyze_skew(&[], 4, TARGET);
        assert!(!report.skewed);
        assert_eq!(report.shares.len(), 4);
        assert!((report.max_mean_ratio - 1.0).abs() < 1e-12);
    }

    #[test]
    fn a_move_past_the_target_is_taken_when_it_lowers_the_maximum() {
        // Eight topics pinned hot, one measured heavier than its peers. Once
        // the other shards sit near the target no topic of 150 fits, but
        // moving one still lowers the maximum, and the advisor goes on.
        let mut topics: Vec<TopicLoad> =
            (0..7).map(|i| topic(&format!("hot{i}"), 0, 150.0, 1e-3)).collect();
        topics.push(topic("heavy", 0, 185.0, 1e-3));
        topics.extend((1..4).map(|s| topic(&format!("cold{s}"), s, 40.0, 1e-3)));
        let report = analyze_skew(&topics, 4, TARGET);
        assert!(report.post_ratio <= TARGET, "post {} via {:?}", report.post_ratio, report.moves);
        assert_eq!(report.moves.len(), 7);
    }

    #[test]
    fn moves_actually_reduce_the_ratio_when_applied() {
        // Re-derive the post ratio by applying the moves to the input and
        // re-analyzing: the two must agree.
        let topics = vec![
            topic("a", 0, 700.0, 1e-3),
            topic("b", 0, 280.0, 1e-3),
            topic("c", 0, 120.0, 1e-3),
            topic("d", 1, 100.0, 1e-3),
        ];
        let report = analyze_skew(&topics, 2, TARGET);
        let mut applied = topics.clone();
        for m in &report.moves {
            applied.iter_mut().find(|t| t.name == m.topic).unwrap().shard = m.to;
        }
        let after = analyze_skew(&applied, 2, TARGET);
        assert!((after.max_mean_ratio - report.post_ratio).abs() < 1e-9);
        assert!(after.max_mean_ratio < report.max_mean_ratio);
    }
}
