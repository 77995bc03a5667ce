//! The benchmark's own arithmetic: percentiles, medians, spreads.

/// Ceil nearest-rank percentile (rank `⌈p·n⌉`, 1-indexed): the smallest
/// sample covering the requested fraction. This is the estimator
/// `serve::http` uses for `/metrics`, not `serve_bench`'s
/// `round((n−1)·p)`, so bench and production quantiles cannot drift.
/// `samples` need not be sorted; an empty slice yields `NaN`.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (sorted.len() as f64 * p).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median as the mean of the two middle samples for even counts (used for
/// segment values and layer probes, where interpolation is harmless;
/// latency percentiles go through [`percentile`]).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Distance between the first and third quartile (linear interpolation)
/// as a share of the median: how unsteady a metric's segment values were.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if values.is_empty() || m == 0.0 {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let x = q * (sorted.len() - 1) as f64;
        let (i, f) = (x as usize, x.fract());
        match sorted.get(i + 1) {
            Some(next) => sorted[i] * (1.0 - f) + next * f,
            None => sorted[i],
        }
    };
    (at(0.75) - at(0.25)) / m.abs()
}

/// A metric over the measured window: its value in the segment where it
/// read best, and the spread of its per-segment values.
#[derive(Debug, Clone, Copy)]
pub struct Segmented {
    pub value: f64,
    pub spread: f64,
}

/// `higher_is_better` picks the largest segment value, else the smallest.
/// A segment without samples reads `NaN` and is never the best; a window
/// without any sample yields `NaN`.
pub fn best_segment(values: &[f64], higher_is_better: bool) -> Segmented {
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    let value = if higher_is_better {
        finite.iter().copied().fold(f64::NAN, f64::max)
    } else {
        finite.iter().copied().fold(f64::NAN, f64::min)
    };
    Segmented {
        value,
        spread: spread(&finite),
    }
}

/// The highest percentile a sample of `n` supports: at least ten samples
/// must lie beyond it.
pub fn supports_percentile(n: usize, p: f64) -> bool {
    (n as f64 * (1.0 - p)).floor() >= 10.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_ceil_nearest_rank() {
        // Single sample: every percentile is that sample.
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        // Even count: p50 is rank n/2 (the lower middle), not n/2 + 1.
        assert_eq!(percentile(&[4.0, 1.0, 3.0, 2.0], 0.5), 2.0);
        // Odd count: the true middle.
        assert_eq!(percentile(&[5.0, 1.0, 3.0, 2.0, 4.0], 0.5), 3.0);
        // p95 of 20 samples is rank 19; of 21 samples rank 20.
        let v20: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v20, 0.95), 19.0);
        let v21: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(percentile(&v21, 0.95), 20.0);
        // p99 on 67 samples is rank 67 (round((n−1)p) would pick 66).
        let v67: Vec<f64> = (1..=67).map(f64::from).collect();
        assert_eq!(percentile(&v67, 0.99), 67.0);
        assert_eq!(percentile(&v20, 1.0), 20.0);
        assert_eq!(percentile(&v20, 0.0), 1.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn median_spread_and_best_segment() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // Quartiles of 1..=5 are 2 and 4; the median is 3.
        assert!((spread(&[5.0, 1.0, 4.0, 2.0, 3.0]) - 2.0 / 3.0).abs() < 1e-12);
        // Quartiles of [9, 10, 12] interpolate to 9.5 and 11.
        assert!((spread(&[9.0, 10.0, 12.0]) - 0.15).abs() < 1e-12);
        let values = [2.0, f64::NAN, 4.0, 3.0];
        assert_eq!(best_segment(&values, false).value, 2.0);
        assert_eq!(best_segment(&values, true).value, 4.0);
        assert!((best_segment(&values, true).spread - 1.0 / 3.0).abs() < 1e-12);
        assert!(best_segment(&[f64::NAN], false).value.is_nan());
        assert!(best_segment(&[], true).value.is_nan());
    }

    #[test]
    fn tail_support_needs_ten_samples_beyond() {
        assert!(supports_percentile(200, 0.95));
        assert!(!supports_percentile(199, 0.95));
        assert!(supports_percentile(1000, 0.99));
        assert!(!supports_percentile(480, 0.99));
    }
}
