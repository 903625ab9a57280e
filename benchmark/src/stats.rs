//! Order statistics for timing samples: medians, quartiles, and the
//! "highest percentile with at least ten samples beyond it" rule.

/// Linear-interpolated quantile `q` in `[0, 1]` of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples), 0.5)
}

/// Median, quartiles and extremes of a sample set, with its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let s = sorted(samples);
        Summary {
            n: s.len(),
            min: s[0],
            q1: quantile(&s, 0.25),
            median: quantile(&s, 0.5),
            q3: quantile(&s, 0.75),
            max: s[s.len() - 1],
        }
    }

    /// Interquartile range as a share of the median: the run-to-run
    /// spread `compare` weighs against a metric's bound.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The highest of p50/p90/p95/p99 that still has at least ten samples
/// beyond it — a tail percentile backed by fewer is one outlier's
/// opinion. `None` below 20 samples (even the median has fewer than ten
/// on either side).
pub fn highest_backed_percentile(n: usize) -> Option<u32> {
    [99u32, 95, 90, 50]
        .into_iter()
        .find(|&p| n as f64 * f64::from(100 - p) / 100.0 >= 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(
            (s.n, s.min, s.q1, s.median, s.q3, s.max),
            (5, 1.0, 2.0, 3.0, 4.0, 5.0)
        );
        assert!((s.spread() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(Summary::of(&[7.0]).q3, 7.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        assert_eq!(highest_backed_percentile(19), None);
        assert_eq!(highest_backed_percentile(20), Some(50));
        assert_eq!(highest_backed_percentile(99), Some(50));
        assert_eq!(highest_backed_percentile(100), Some(90));
        assert_eq!(highest_backed_percentile(199), Some(90));
        assert_eq!(highest_backed_percentile(200), Some(95));
        assert_eq!(highest_backed_percentile(1000), Some(99));
    }

    #[test]
    fn quantile_clamps_and_hits_extremes() {
        let s = [1.0, 10.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 10.0);
        assert_eq!(quantile(&s, 2.0), 10.0);
        assert_eq!(quantile(&s, 0.9), 9.1);
    }
}
