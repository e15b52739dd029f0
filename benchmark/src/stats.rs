//! Order statistics and means over latency samples.

/// Quantiles the benchmark reports, highest first.
const LADDER: [f64; 5] = [0.99, 0.95, 0.90, 0.75, 0.50];

/// Samples a percentile needs beyond it before it is worth reporting.
const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice (`q` in `[0, 1]`).
///
/// # Panics
///
/// Panics on an empty slice: every workload times at least one request.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Samples strictly above the nearest-rank `q` percentile of `n` samples.
fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// The highest quantile of the ladder (p99, p95, p90, p75, p50) that
/// still leaves at least ten of `n` samples beyond it.
pub fn supported_quantile(n: usize) -> f64 {
    LADDER
        .into_iter()
        .find(|&q| beyond(n, q) >= MIN_BEYOND)
        .unwrap_or(0.50)
}

/// The tail quantile a workload reports: the one fixed in its source,
/// lowered only when a run collected too few samples to support it — so
/// faster code, which collects more samples, never moves the definition.
pub fn tail_quantile(fixed: f64, n: usize) -> f64 {
    fixed.min(supported_quantile(n))
}

/// Sorts ascending; latencies are never NaN.
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Median (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    sort(&mut v);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Geometric mean of positive values.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of no samples");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// First and third quartile, by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method), which is how
/// the benchmark contract measures spread.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let at = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median.
pub fn spread_share(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn supported_quantile_keeps_ten_samples_beyond() {
        // p99 of 1000 leaves exactly 10 beyond; of 999 only 9.
        assert_eq!(supported_quantile(1000), 0.99);
        assert_eq!(supported_quantile(999), 0.95);
        assert_eq!(supported_quantile(200), 0.95);
        assert_eq!(supported_quantile(199), 0.90);
        assert_eq!(supported_quantile(100), 0.90);
        assert_eq!(supported_quantile(99), 0.75);
        assert_eq!(supported_quantile(40), 0.75);
        assert_eq!(supported_quantile(39), 0.50);
        assert_eq!(supported_quantile(3), 0.50);
        for n in [20usize, 57, 176, 450, 12_345] {
            let q = supported_quantile(n);
            assert!(beyond(n, q) >= MIN_BEYOND, "n={n} q={q}");
        }
    }

    #[test]
    fn tail_quantile_never_exceeds_the_fixed_one() {
        assert_eq!(tail_quantile(0.90, 100_000), 0.90);
        assert_eq!(tail_quantile(0.99, 100_000), 0.99);
        assert_eq!(tail_quantile(0.99, 150), 0.90);
    }

    #[test]
    fn geomean_and_median() {
        assert!((geomean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn median_of_rounds_ignores_one_bad_round() {
        // Five rounds, one disturbed by a noisy neighbour.
        let rounds = [101.0, 99.0, 100.0, 250.0, 100.5];
        assert_eq!(median(&rounds), 100.5);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((spread_share(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), (1.0, 3.0));
    }
}
