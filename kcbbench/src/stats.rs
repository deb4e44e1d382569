//! The arithmetic every reported figure goes through: medians of in-run
//! repetitions, exact-sample percentiles, and residuals that close a
//! phase's breakdown against its wall time.

/// Median of `xs`; the mean of the two middle values for an even count.
/// `NaN` for an empty slice, so a missing sample cannot pass as a zero.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Arithmetic mean; `NaN` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Nearest-rank percentile over exact samples: the smallest sample with at
/// least `p` percent of all samples at or below it. `NaN` when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// What a phase's wall time leaves unexplained by its measured parts.
pub fn residual(wall: f64, parts: &[f64]) -> f64 {
    wall - parts.iter().sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[0.047]), 0.047);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn median_of_repetitions_ignores_one_stalled_repetition() {
        let reps = [0.049, 0.051, 0.048, 0.350, 0.050];
        assert_eq!(median(&reps), 0.050);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        // Order of the input does not matter, and a single sample is
        // every percentile.
        assert_eq!(percentile(&[5.0, 1.0, 3.0], 50.0), 3.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn parts_plus_residual_equal_the_wall() {
        let parts = [1.25, 0.5, 2.0];
        let r = residual(4.0, &parts);
        assert_eq!(r, 0.25);
        assert_eq!(parts.iter().sum::<f64>() + r, 4.0);
        // Parts that overrun the wall give a negative residual rather
        // than being clipped.
        assert_eq!(residual(1.0, &[0.75, 0.5]), -0.25);
    }

    #[test]
    fn mean_is_additive_across_parts() {
        // The warm breakdown averages per-repetition parts; means add up
        // where medians would not.
        let a = [1.0, 2.0, 6.0];
        let b = [3.0, 0.5, 0.5];
        let walls: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        assert!((mean(&walls) - (mean(&a) + mean(&b))).abs() < 1e-12);
        assert_eq!(median(&walls), 4.0);
        assert_eq!(median(&a) + median(&b), 2.5);
    }
}
