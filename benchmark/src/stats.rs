//! Order statistics for latency samples and repetition medians, over
//! the repo's own nearest-rank `scdb_telemetry::percentile`.

/// Nearest-rank percentile (`p` in `[0, 100]`) of an unsorted sample;
/// 0 for an empty one (a bypassed layer).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    scdb_telemetry::percentile(&sorted, p / 100.0)
}

/// Median of an unsorted sample; 0 for an empty one.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Mean of what is left after the lowest and the highest `trim` share
/// of the sample (rounded down) are set aside; 0 for an empty sample.
pub fn trimmed_mean(values: &[f64], trim: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = (sorted.len() as f64 * trim) as usize;
    mean(&sorted[cut..sorted.len() - cut])
}

/// `num / den`, 0 when the denominator is 0 (a bypassed layer).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn percentiles_are_nearest_rank_over_the_sorted_sample() {
        let sample: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&sample, 0.0), 1.0);
        assert_eq!(percentile(&sample, 50.0), 50.0);
        assert_eq!(percentile(&sample, 95.0), 95.0);
        assert_eq!(percentile(&sample, 99.0), 99.0);
        assert_eq!(percentile(&sample, 100.0), 100.0);
        assert_eq!(percentile(&[10.0, 20.0], 75.0), 20.0);
    }

    #[test]
    fn trimmed_mean_sets_both_ends_aside() {
        assert_eq!(trimmed_mean(&[100.0, 1.0, 2.0, 3.0, -50.0], 0.2), 2.0);
        assert_eq!(trimmed_mean(&[4.0, 2.0], 0.2), 3.0);
        assert_eq!(trimmed_mean(&[], 0.2), 0.0);
    }

    #[test]
    fn mean_and_ratio_guard_empty_inputs() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
