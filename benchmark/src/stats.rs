//! Medians and percentiles over timing samples.

/// Median (mean of the middle two for even counts). `NaN` for no samples,
/// which the output check turns into a failed run rather than a silent 0.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// The `q`-quantile by nearest rank, but only when at least ten samples
/// lie beyond it — below that the value is one slow answer, not a tail.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((s.len() as f64) * q).ceil() as usize;
    if rank == 0 || s.len() < rank + 10 {
        return None;
    }
    Some(s[rank - 1])
}

/// The largest sample.
pub fn max(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::NAN, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let s: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.95), Some(190.0));
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.95), None, "only 5 samples beyond p95");
        assert_eq!(percentile(&s, 0.5), Some(50.0));
    }
}
