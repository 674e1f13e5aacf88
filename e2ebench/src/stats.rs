//! Order statistics for pass timings.
//!
//! A tail percentile is only reported when at least [`MIN_BEYOND`]
//! samples lie beyond it, so a run's p90 is never decided by one or two
//! slow passes.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The median (mean of the middle pair for an even count); 0 for no data.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
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

/// A tail percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The nearest-rank percentile value.
    pub value: f64,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
    /// Samples the percentile was taken over.
    pub samples: usize,
}

/// 1-based nearest rank of percentile `p` (0 < p < 1) over `n` samples.
fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// The nearest-rank `p` percentile of `xs`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn tail(xs: &[f64], p: f64) -> Option<Tail> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let r = rank(p, v.len());
    let beyond = v.len() - r;
    (beyond >= MIN_BEYOND).then(|| Tail {
        value: v[r - 1],
        beyond,
        samples: v.len(),
    })
}

/// The fewest samples for which [`tail`] reports percentile `p`.
pub fn min_samples(p: f64) -> usize {
    (1..)
        .find(|&n| n - rank(p, n) >= MIN_BEYOND)
        .expect("some sample count leaves MIN_BEYOND samples beyond any p < 1")
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
    fn p90_needs_ten_samples_beyond_and_reports_the_count() {
        assert_eq!(min_samples(0.9), 100);
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail(&xs, 0.9), None, "99 samples leave only 9 beyond p90");
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(
            tail(&xs, 0.9),
            Some(Tail {
                value: 90.0,
                beyond: 10,
                samples: 100
            })
        );
        let xs: Vec<f64> = (1..=250).rev().map(f64::from).collect();
        let t = tail(&xs, 0.9).expect("250 samples suffice");
        assert_eq!((t.value, t.beyond, t.samples), (225.0, 25, 250));
    }
}
