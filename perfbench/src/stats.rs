//! Order statistics over exact samples.

/// The median of `values` (the mean of the two middle values for an even
/// count); `0.0` for no values.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The tail of a sample: the highest percentile that still has at least
/// ten samples beyond it, as `(percentile, value)`. `None` with fewer than
/// eleven samples.
#[must_use]
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let sorted = sorted(values);
    let n = sorted.len();
    (n > 10).then(|| (100.0 * (n - 10) as f64 / n as f64, sorted[n - 11]))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
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
        let values: Vec<f64> = (1..=56).map(f64::from).collect();
        let (pct, value) = tail(&values).expect("enough samples");
        assert_eq!(value, 46.0, "ten samples (47..=56) lie beyond the tail value");
        assert!((pct - 100.0 * 46.0 / 56.0).abs() < 1e-12);
        assert_eq!(tail(&values[..10]), None);
        assert_eq!(tail(&values[..11]), Some((100.0 / 11.0, 1.0)));
    }
}
