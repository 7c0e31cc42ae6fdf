//! Order statistics over timing and objective samples.

/// Sorted copy of `v` (total order, so NaN cannot panic the sort).
fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median; 0 for no samples.
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// Mean of the samples ranked between quantiles `lo` and `hi` (at least
/// one sample); 0 for no samples.
fn band_mean(v: &[f64], lo: f64, hi: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let s = sorted(v);
    let last = (s.len() - 1) as f64;
    let (lo, hi) = ((lo * last).floor() as usize, (hi * last).ceil() as usize);
    s[lo..=hi].iter().sum::<f64>() / (hi - lo + 1) as f64
}

/// A smoothed median: the mean of the samples ranked between the 40th
/// and 60th percentile. Service latencies come in steps of fixed delays,
/// and a plain median jumps between steps from run to run; the band mean
/// moves with them smoothly.
pub fn p50(v: &[f64]) -> f64 {
    band_mean(v, 0.4, 0.6)
}

/// A smoothed 90th percentile: the mean of the samples ranked between the
/// 85th and 95th percentile.
pub fn p90(v: &[f64]) -> f64 {
    band_mean(v, 0.85, 0.95)
}

/// The `p`-th percentile by linear interpolation between closest ranks;
/// 0 for no samples.
fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let s = sorted(v);
    let pos = (p / 100.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// First and third quartile by the "exclusive" method (Python's
/// `statistics.quantiles(v, n=4)` default); both equal the single value
/// for one sample, and 0 for none.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    match v.len() {
        0 => (0.0, 0.0),
        1 => (v[0], v[0]),
        n => {
            let s = sorted(v);
            let at = |j: f64| {
                let pos = j * (n + 1) as f64 / 4.0;
                let i = (pos.floor() as usize).clamp(1, n - 1);
                let frac = pos - i as f64;
                s[i - 1] + (s[i] - s[i - 1]) * frac.clamp(0.0, 1.0)
            };
            (at(1.0), at(3.0))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        assert_eq!(percentile(&v, 90.0), 9.1);
        // Ranks 3..=6 of 10 (0-based) lie in the 40–60% band.
        assert_eq!(p50(&v), 5.5);
        assert_eq!(p50(&[3.0]), 3.0);
        // Ranks 7..=9 of 10 lie in the 85–95% band.
        assert_eq!(p90(&v), 9.0);
    }
}
