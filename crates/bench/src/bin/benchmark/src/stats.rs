//! Order statistics over timing samples.

/// Samples sorted ascending. Timings are finite, so `total_cmp` is the
/// plain numeric order.
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median: the middle sample, or the mean of the two middle ones.
/// `NaN` for no samples.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p`% of
/// the samples at or below it. `NaN` for no samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let v = sorted(samples);
    if v.is_empty() {
        return f64::NAN;
    }
    // Snap a rank that is whole up to rounding error (p = 100·k/n) to
    // that whole number, so it does not round up to the next sample.
    let x = p / 100.0 * v.len() as f64;
    let rank = if (x - x.round()).abs() < 1e-9 {
        x.round()
    } else {
        x.ceil()
    } as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// First quartile, median and third quartile, computed like Python's
/// `statistics.quantiles(samples, n=4)` (the "exclusive" method), so a
/// spread printed here reads the same as one computed from the JSON
/// results. A single sample is its own quartiles; `NaN` for none.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    let v = sorted(samples);
    match v.len() {
        0 => [f64::NAN; 3],
        1 => [v[0]; 3],
        n => {
            let m = n + 1;
            [1, 2, 3].map(|i| {
                // Position i*m/4 in 1-based ranks, clamped to the data.
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 / 4.0 - j as f64;
                v[j - 1] + delta * (v[j] - v[j - 1])
            })
        }
    }
}

/// The highest nearest-rank percentile that still has at least
/// `beyond` samples above it, out of `n`: the tail a run of `n` samples
/// can report without resting on a handful of outliers. `None` when
/// `n <= beyond`.
pub fn highest_supported_percentile(n: usize, beyond: usize) -> Option<f64> {
    (n > beyond).then(|| 100.0 * (n - beyond) as f64 / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        // Fewer than ten samples: p90 is the largest one.
        assert_eq!(percentile(&[5.0, 1.0, 3.0], 90.0), 5.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), [1.25, 2.5, 3.75]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[9.0]), [9.0; 3]);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(10, 10), None);
        assert_eq!(highest_supported_percentile(11, 10), Some(100.0 / 11.0));
        assert_eq!(highest_supported_percentile(100, 10), Some(90.0));
        assert_eq!(highest_supported_percentile(1000, 10), Some(99.0));
        // The reported percentile really leaves `beyond` samples above it.
        let n = 330;
        let p = highest_supported_percentile(n, 10).unwrap();
        let v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        let at = percentile(&v, p);
        assert_eq!(v.iter().filter(|&&x| x > at).count(), 10);
    }
}
