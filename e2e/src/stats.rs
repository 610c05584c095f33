//! Order statistics shared by the report, the comparison and the tests.

/// Samples that must lie beyond a reported tail percentile for it to
/// be trusted.
pub const TAIL_BEYOND: usize = 10;

/// Sorts a sample set ascending (NaN-free by construction: every
/// sample is a measured duration or a count).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `q` of the set at or below it. 0 for an empty set.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile not above `q` that still has
/// [`TAIL_BEYOND`] samples beyond it, with the percentile actually
/// used. Never below the median: a set too small for any tail
/// reports its median.
pub fn tail(sorted: &[f64], q: f64) -> (f64, f64) {
    let n = sorted.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    let wanted = ((q * n as f64).ceil() as usize).clamp(1, n);
    let rank = wanted.min(n.saturating_sub(TAIL_BEYOND)).max(n.div_ceil(2));
    (sorted[rank - 1], rank as f64 / n as f64)
}

pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `a / b`, or 0 when the base is 0 — every `*_share` and `*_per_req`
/// metric prints its base beside it, so a 0 base is visible.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The quartiles Python's `statistics.quantiles(values, n=4)` returns
/// (exclusive method) — the acceptance rule for this benchmark is
/// stated in those terms, so the comparison uses the same arithmetic.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(values.to_vec());
    let n = s.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    Some(out)
}

/// Inter-quartile distance as a share of the median; 0 for fewer than
/// two samples (a single run has no spread to report).
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some([q1, q2, q3]) => ratio(q3 - q1, q2.abs()),
        None => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 0.50), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        // 4 samples: p50 is the 2nd, p51 already the 3rd.
        assert_eq!(percentile(&ramp(4), 0.50), 2.0);
        assert_eq!(percentile(&ramp(4), 0.51), 3.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 1,000 samples: p99 is rank 990, exactly ten beyond it.
        let (v, q) = tail(&ramp(1000), 0.99);
        assert_eq!((v, q), (990.0, 0.99));
        // 2,000 samples: p99 has twenty beyond; nothing to lower.
        assert_eq!(tail(&ramp(2000), 0.99).0, 1980.0);
        // 500 samples: p99 would leave five beyond, so the tail drops
        // to rank 490 (p98).
        let (v, q) = tail(&ramp(500), 0.99);
        assert_eq!(v, 490.0);
        assert!((q - 0.98).abs() < 1e-12);
        // Too few samples for any tail: the median stands in.
        assert_eq!(tail(&ramp(8), 0.99), (4.0, 0.5));
        assert_eq!(tail(&ramp(11), 0.99).0, 6.0);
        assert_eq!(tail(&ramp(25), 0.99).0, 15.0);
        assert_eq!(tail(&[], 0.99), (0.0, 0.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[3.0]), None);
        assert!((spread(&ramp(10)) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0]), 0.0);
    }

    #[test]
    fn medians_and_ratios() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
