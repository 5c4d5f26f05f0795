//! Order statistics for latency samples and run summaries.

/// A percentile is emitted only when at least this many samples lie
/// strictly beyond it; otherwise it is one or two samples wide and says
/// nothing about the distribution.
pub const MIN_BEYOND: usize = 10;

/// A nearest-rank percentile together with the sample count it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub value: f64,
    pub samples: usize,
}

/// The nearest-rank `p`-th percentile of `samples` (`0 < p <= 100`): the
/// smallest sample with at least `p`% of all samples at or below it. `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond that rank.
pub fn percentile(samples: &[f64], p: f64) -> Option<Percentile> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Percentile {
        value: sorted[rank - 1],
        samples: n,
    })
}

/// The median of `values` (mean of the middle pair for even counts), or 0
/// for an empty slice. Used for run summaries, not for latency percentiles.
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
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_sample_emits_no_percentile() {
        assert_eq!(percentile(&[12.5], 50.0), None);
        assert_eq!(percentile(&[12.5], 90.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentiles_need_ten_samples_beyond_them() {
        let samples: Vec<f64> = (1..=19).map(f64::from).collect();
        // Rank 10 of 19 leaves 9 beyond it: not enough.
        assert_eq!(percentile(&samples, 50.0), None);
        let samples: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(
            percentile(&samples, 50.0),
            Some(Percentile {
                value: 10.0,
                samples: 20
            })
        );
        let samples: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&samples, 90.0), None);
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(
            percentile(&samples, 90.0),
            Some(Percentile {
                value: 90.0,
                samples: 100
            })
        );
    }

    #[test]
    fn nearest_rank_picks_a_real_sample_regardless_of_order() {
        let mut samples: Vec<f64> = (0..40).map(|i| f64::from(i) * 1.5).collect();
        samples.reverse();
        // ceil(0.5 * 40) = rank 20, the 20th smallest sample.
        assert_eq!(percentile(&samples, 50.0).unwrap().value, 19.0 * 1.5);
        // ceil(0.25 * 40) = rank 10.
        assert_eq!(percentile(&samples, 25.0).unwrap().value, 9.0 * 1.5);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
