//! Order statistics used for every reported number.

/// The nearest-rank `q`-quantile (`0 < q <= 1`) of `sorted`, which must be
/// in ascending order and non-empty.
pub fn quantile_sorted<T: Copy>(sorted: &[T], q: f64) -> T {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `samples` and returns their nearest-rank median; `None` when empty.
pub fn median_of<T: Copy + Ord>(samples: &mut [T]) -> Option<T> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable();
    Some(quantile_sorted(samples, 0.5))
}

/// The highest percentile of an `n`-sample that still has at least ten
/// samples beyond it, capped at p99; `None` when `n` is too small for any.
pub fn tail_quantile(n: usize) -> Option<f64> {
    if n < 20 {
        return None;
    }
    Some((1.0 - 10.0 / n as f64).min(0.99))
}

/// Median of a small set of per-window values (mean of the middle two for
/// an even count). Panics on an empty set: every phase has a window.
pub fn median_f64(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no windows");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (the exclusive method), which is what the acceptance
/// check of the benchmark contract uses. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median_f64(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50);
        assert_eq!(quantile_sorted(&v, 0.99), 99);
        assert_eq!(quantile_sorted(&v, 1.0), 100);
        assert_eq!(quantile_sorted(&v, 0.001), 1);
        assert_eq!(quantile_sorted(&[7u32], 0.5), 7);
        assert_eq!(median_of(&mut [3u32, 1, 2]), Some(2));
        assert_eq!(median_of::<u32>(&mut []), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(19), None);
        assert_eq!(tail_quantile(100), Some(0.9));
        assert_eq!(tail_quantile(1000), Some(0.99));
        assert_eq!(tail_quantile(1_000_000), Some(0.99));
    }

    #[test]
    fn window_median() {
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]), (1.5, 12.0));
        assert_eq!(iqr_share(&[1.0, 2.0, 4.0, 8.0, 16.0]), 10.5 / 4.0);
    }
}
