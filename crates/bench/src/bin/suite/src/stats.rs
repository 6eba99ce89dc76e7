//! Order statistics used for every reported number.

/// The `q`-quantile of `samples` (`0 <= q <= 1`), interpolating linearly
/// between the two nearest order statistics (the rule NumPy uses by
/// default): `q = 0.5` on an even count is the mean of the two middle
/// values. Returns NaN for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Fewest requests in a timed run: at least ten of them lie beyond the
/// 90th percentile, so a p90 is never one or two unlucky requests.
pub const MIN_REQUESTS_FOR_P90: usize = 100;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p50_on_even_count_is_the_mean_of_the_middle_pair() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn p90_leaves_at_least_ten_samples_beyond_it() {
        for n in [MIN_REQUESTS_FOR_P90, 112, 128, 4000] {
            let samples: Vec<f64> = (1..=n).rev().map(|i| i as f64).collect();
            let p90 = quantile(&samples, 0.9);
            let beyond = samples.iter().filter(|&&x| x > p90).count();
            assert!(beyond >= 10, "n = {n}: {beyond} beyond p90 = {p90}");
        }
    }

    #[test]
    fn quantile_endpoints_and_empty_input() {
        let s = [3.0, 1.0, 2.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 3.0);
        assert!(quantile(&[], 0.5).is_nan());
    }
}
