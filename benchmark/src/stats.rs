//! Order statistics used for every reported number.

/// The `q`-quantile (`q` in `[0, 1]`) of `values` by linear interpolation
/// between the two closest ranks. Panics on an empty slice: every metric is
/// taken over at least one sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The median of `values`, or 0 when there are none: a layer the workload
/// never entered.
pub fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

/// The arithmetic mean of `values`; 0 for no samples.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when nothing was counted. Per-layer ratios use this so
/// a layer a workload never enters reads 0 instead of NaN.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        // rank 0.95 * 4 = 3.8 -> 4 + 0.8 * (5 - 4)
        assert!((quantile(&v, 0.95) - 4.8).abs() < 1e-12);
        // 101 samples 0..=100: the p-th percentile is p.
        let w: Vec<f64> = (0..=100).map(f64::from).collect();
        assert!((quantile(&w, 0.99) - 99.0).abs() < 1e-12);
    }

    #[test]
    fn mean_and_ratio_handle_empty_inputs() {
        assert_eq!(median_or_zero(&[]), 0.0);
        assert_eq!(median_or_zero(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(6.0, 3.0), 2.0);
    }
}
