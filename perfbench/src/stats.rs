//! Order statistics for the reported timings.

/// Median of `values` (mean of the middle pair for an even count; 0 for
/// an empty slice).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// A tail latency: the highest nearest-rank percentile that still has at
/// least [`TAIL_BEYOND`] samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, in percent.
    pub percentile: f64,
    /// The sample at that rank.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly beyond the reported rank (`TAIL_BEYOND`, or 0
    /// when there are too few samples and the maximum is reported).
    pub beyond: usize,
}

/// Samples a tail percentile must leave above it.
pub const TAIL_BEYOND: usize = 10;

/// The tail rule: with `n` samples sorted ascending, the sample at
/// 0-based rank `n − 1 − TAIL_BEYOND` is the highest one with
/// `TAIL_BEYOND` samples beyond it; its nearest-rank percentile is
/// `100·(n − TAIL_BEYOND)/n`. With `n ≤ TAIL_BEYOND` no rank qualifies,
/// and the maximum is reported as p100 with nothing beyond it.
pub fn tail(values: &[f64]) -> Tail {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return Tail {
            percentile: 100.0,
            value: 0.0,
            samples: 0,
            beyond: 0,
        };
    }
    if n <= TAIL_BEYOND {
        return Tail {
            percentile: 100.0,
            value: sorted[n - 1],
            samples: n,
            beyond: 0,
        };
    }
    let rank = n - 1 - TAIL_BEYOND;
    Tail {
        percentile: 100.0 * (rank + 1) as f64 / n as f64,
        value: sorted[rank],
        samples: n,
        beyond: TAIL_BEYOND,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        // 1..=100: the 90th sample (value 90) has 10 above it, p90.
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&values);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.samples, 100);
        assert_eq!(t.beyond, 10);
        let above = values.iter().filter(|&&v| v > t.value).count();
        assert_eq!(above, TAIL_BEYOND);

        // 1000 samples reach p99; 11 samples only reach their minimum.
        let many: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(tail(&many).percentile, 99.0);
        assert_eq!(tail(&many).value, 990.0);
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&eleven).value, 1.0);
    }

    #[test]
    fn too_few_samples_fall_back_to_the_maximum() {
        let t = tail(&[5.0, 9.0, 7.0]);
        assert_eq!(t.value, 9.0);
        assert_eq!(t.percentile, 100.0);
        assert_eq!(t.beyond, 0);
    }
}
