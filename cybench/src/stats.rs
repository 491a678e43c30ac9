//! Order statistics used by every report: medians, the quartile spread
//! the contract judges steadiness by, and a percentile helper that
//! refuses to answer from too few samples.

/// A percentile is reported only when at least ten samples lie beyond
/// it; for p99 that is 1 000 samples.
pub const MIN_SAMPLES_P99: usize = 1_000;

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles Python's `statistics.quantiles(v, n=4)`
/// gives (the "exclusive" method) — the same number the driver computes
/// over ten runs. `None` below two values.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let quartile = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((quartile(3) - quartile(1)) / median(&v))
}

/// Nearest-rank percentile `q` of an ascending slice, or `None` when the
/// slice holds fewer than `min_samples`.
pub fn percentile(sorted: &[u64], q: f64, min_samples: usize) -> Option<u64> {
    if sorted.is_empty() || sorted.len() < min_samples {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = quartile_spread(&v).unwrap();
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert!((quartile_spread(&[3.0, 1.0, 2.0]).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[1.0]), None);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        let few: Vec<u64> = (0..999).collect();
        assert_eq!(percentile(&few, 0.99, MIN_SAMPLES_P99), None);
        let enough: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&enough, 0.99, MIN_SAMPLES_P99), Some(990));
        assert_eq!(percentile(&enough, 0.50, 1), Some(500));
    }
}
