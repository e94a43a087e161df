//! Statistics collection: streaming moments and batch means.
//!
//! §4 of the paper: "Each simulation experiment was run until the network
//! reached its steady state, that is, until a further increase in simulated
//! network cycles does not change the collected statistics appreciably."
//! We implement the standard machinery for that: warm-up deletion (handled
//! by the engine: messages born during warm-up are unmeasured), Welford
//! streaming moments, and non-overlapping batch means with a Student-t
//! confidence interval to quantify "does not change appreciably".

/// Streaming mean/variance accumulator (Welford).
#[derive(Clone, Debug, Default)]
pub struct StreamingStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl StreamingStats {
    /// Fresh accumulator.
    pub fn new() -> Self {
        StreamingStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (NaN when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Largest observation (NaN when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.max
        }
    }
}

/// Non-overlapping batch means over a fixed number of batches.
///
/// Observations are assigned to batches round-robin-free: the first
/// `per_batch` observations form batch 0, the next batch 1, … (completion
/// order, the standard construction).  The confidence half-width uses the
/// Student-t quantile for the batch count.
#[derive(Clone, Debug)]
pub struct BatchMeans {
    batches: Vec<StreamingStats>,
    per_batch: u64,
    seen: u64,
}

impl BatchMeans {
    /// `n_batches` batches of `per_batch` observations each; observations
    /// past the last batch spill into it.
    pub fn new(n_batches: u32, per_batch: u64) -> Self {
        assert!(n_batches >= 1 && per_batch >= 1);
        BatchMeans {
            batches: vec![StreamingStats::new(); n_batches as usize],
            per_batch,
            seen: 0,
        }
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        let idx = ((self.seen / self.per_batch) as usize).min(self.batches.len() - 1);
        self.batches[idx].push(x);
        self.seen += 1;
    }

    /// Observations so far.
    pub fn count(&self) -> u64 {
        self.seen
    }

    /// Grand mean over all observations.
    pub fn mean(&self) -> f64 {
        let total: u64 = self.batches.iter().map(|b| b.count()).sum();
        if total == 0 {
            return 0.0;
        }
        self.batches
            .iter()
            .map(|b| b.mean() * b.count() as f64)
            .sum::<f64>()
            / total as f64
    }

    /// Number of non-empty batches.
    pub fn filled_batches(&self) -> usize {
        self.batches.iter().filter(|b| b.count() > 0).count()
    }

    /// 95% confidence half-width of the mean from the batch means, or
    /// `None` with fewer than two non-empty batches.
    pub fn confidence_half_width(&self) -> Option<f64> {
        let means: Vec<f64> = self
            .batches
            .iter()
            .filter(|b| b.count() > 0)
            .map(|b| b.mean())
            .collect();
        let n = means.len();
        if n < 2 {
            return None;
        }
        let grand = means.iter().sum::<f64>() / n as f64;
        let var = means.iter().map(|m| (m - grand) * (m - grand)).sum::<f64>() / (n - 1) as f64;
        let se = (var / n as f64).sqrt();
        Some(t_quantile_975(n - 1) * se)
    }
}

/// Two-sided 95% Student-t quantile for `dof` degrees of freedom
/// (tabulated; asymptote 1.96 past 30).
fn t_quantile_975(dof: usize) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    if dof == 0 {
        f64::INFINITY
    } else if dof <= TABLE.len() {
        TABLE[dof - 1]
    } else {
        1.96
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_moments_match_direct_computation() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut s = StreamingStats::new();
        for &x in &xs {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Direct unbiased variance: Σ(x-5)²/7 = 32/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = StreamingStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert!(s.min().is_nan());
    }

    #[test]
    fn batch_means_mean_matches_grand_mean() {
        let mut bm = BatchMeans::new(5, 10);
        let mut sum = 0.0;
        for i in 0..50 {
            let x = (i % 7) as f64;
            bm.push(x);
            sum += x;
        }
        assert!((bm.mean() - sum / 50.0).abs() < 1e-12);
        assert_eq!(bm.filled_batches(), 5);
    }

    #[test]
    fn iid_confidence_interval_covers_truth() {
        // Deterministic pseudo-random uniform [0,1): mean 0.5.
        let mut bm = BatchMeans::new(10, 500);
        let mut state = 0x12345678u64;
        for _ in 0..5000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = (state >> 11) as f64 / (1u64 << 53) as f64;
            bm.push(u);
        }
        let hw = bm.confidence_half_width().unwrap();
        assert!((bm.mean() - 0.5).abs() < 3.0 * hw.max(0.005));
        assert!(hw < 0.05);
    }

    #[test]
    fn too_few_batches_yield_no_interval() {
        let mut bm = BatchMeans::new(4, 100);
        for _ in 0..50 {
            bm.push(1.0);
        }
        // All 50 observations landed in batch 0.
        assert_eq!(bm.filled_batches(), 1);
        assert!(bm.confidence_half_width().is_none());
    }

    #[test]
    fn spill_goes_to_last_batch() {
        let mut bm = BatchMeans::new(2, 3);
        for i in 0..10 {
            bm.push(i as f64);
        }
        assert_eq!(bm.count(), 10);
        assert_eq!(bm.filled_batches(), 2);
        // Batch 0 has 0,1,2; batch 1 has the remaining 7 observations.
        assert!((bm.mean() - 4.5).abs() < 1e-12);
    }
}
