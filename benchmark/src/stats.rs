//! Order statistics over timed samples.

/// Summary of one timed cell's repetitions.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
}

/// The `q`-quantile of `sorted` by linear interpolation between the
/// two nearest ranks.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `samples`: what every timed metric reports.
pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples), 0.5)
}

/// Median, quartiles, extremes and count of `samples`.
pub fn summarize(samples: &[f64]) -> Summary {
    let v = sorted(samples);
    Summary {
        n: v.len(),
        min: v[0],
        q1: quantile(&v, 0.25),
        median: quantile(&v, 0.5),
        q3: quantile(&v, 0.75),
        max: v[v.len() - 1],
    }
}

/// The tail percentile a sample of `n` latencies supports: the 95th
/// with 200 samples or more, otherwise the highest percentile that
/// still has ten samples beyond it, and the median when even that is
/// missing.
pub fn tail_quantile(n: usize) -> f64 {
    if n >= 200 {
        0.95
    } else if n > 20 {
        1.0 - 10.0 / n as f64
    } else {
        0.5
    }
}

/// `(value, quantile used)` of the tail latency of `samples`.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let q = tail_quantile(samples.len());
    (quantile(&sorted(samples), q), q)
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "median {:.4} [q1 {:.4}, q3 {:.4}] min {:.4} max {:.4} n={}",
            self.median, self.q1, self.q3, self.min, self.max, self.n
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_of_a_ramp() {
        let s = summarize(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(
            (s.min, s.q1, s.median, s.q3, s.max, s.n),
            (1.0, 2.0, 3.0, 4.0, 5.0, 5)
        );
        assert_eq!(median(&[1.0, 2.0]), 1.5);
    }

    #[test]
    fn tail_needs_samples_beyond_it() {
        assert_eq!(tail_quantile(7), 0.5);
        assert_eq!(tail_quantile(40), 0.75);
        assert_eq!(tail_quantile(5000), 0.95);
    }
}
