//! Exact order statistics over raw samples.
//!
//! Percentiles come from the sorted samples themselves (nearest rank),
//! never from a bucketed histogram: power-of-two buckets can move a
//! reported median by a factor of two between identical runs.

/// Samples that must lie strictly beyond a percentile before it is
/// reported; with fewer, the "percentile" is just one of the slowest
/// few samples and is not printed.
pub const TAIL_FLOOR: usize = 10;

/// Nearest-rank `q`-quantile (`0 < q < 1`) of `sorted` (ascending), or
/// `None` when fewer than [`TAIL_FLOOR`] samples lie beyond it.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "input must be sorted"
    );
    let n = sorted.len();
    if n == 0 || !(q > 0.0 && q < 1.0) {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < TAIL_FLOOR {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Sorts `samples` ascending (NaN-free input).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Median of any non-empty sample (mean of the middle pair for even
/// counts). Used for repeated whole-run timings, where the floor rule
/// does not apply: the median of three set-ups is still a median.
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples.to_vec());
    let n = s.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Arithmetic mean (0 for an empty sample).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_is_the_exact_nearest_rank() {
        let s = ramp(1000);
        assert_eq!(percentile(&s, 0.5), Some(500.0));
        assert_eq!(percentile(&s, 0.99), Some(990.0));
        // Not bucketed: 31..36 µs samples stay 31..36, never 24 or 49.
        let s = sorted(vec![
            31.0, 36.0, 33.0, 34.0, 32.0, 35.0, 33.5, 34.5, 32.5, 31.5, 35.5, 33.25, 34.25, 32.25,
            31.25, 35.25, 33.75, 34.75, 32.75, 31.75, 35.75, 36.0,
        ]);
        let p50 = percentile(&s, 0.5).expect("22 samples support a median");
        assert!((31.0..=36.0).contains(&p50));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p99 of 1000: rank 990, exactly 10 beyond → reported.
        assert!(percentile(&ramp(1000), 0.99).is_some());
        // p99 of 999: rank 990, 9 beyond → refused.
        assert_eq!(percentile(&ramp(999), 0.99), None);
        // p50 needs 20 samples: rank 10 of 20 leaves 10 beyond.
        assert!(percentile(&ramp(20), 0.5).is_some());
        assert_eq!(percentile(&ramp(19), 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_and_mean_of_small_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
