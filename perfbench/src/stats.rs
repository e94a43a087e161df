//! The summary arithmetic behind every reported number: medians, the
//! tail-percentile rule, failure fractions and the FNV output digest.

use std::collections::BTreeMap;

/// A tail percentile must leave at least this many samples beyond it, so
/// that one outlier cannot set it.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count);
/// NaN for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// A tail percentile and its nearest-rank value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// Whole percentile, 1..=99.
    pub percentile: u32,
    /// The nearest-rank sample at that percentile.
    pub value: f64,
}

/// The highest whole percentile whose nearest-rank sample has at least
/// [`MIN_BEYOND`] samples ranked above it, or `None` when there are too
/// few samples for any percentile to qualify.
///
/// Nearest rank: percentile `p` of `n` sorted samples is the sample of
/// 1-based rank `ceil(p·n/100)`, and `n − rank` samples lie beyond it.
pub fn tail_percentile(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    (1..=99u32).rev().find_map(|p| {
        let rank = (p as usize * n).div_ceil(100);
        (rank >= 1 && n - rank >= MIN_BEYOND).then(|| Tail {
            percentile: p,
            value: sorted[rank - 1],
        })
    })
}

/// Median latency per request kind, combined across kinds by geometric
/// mean.  A kind is one request of the round's fixed sequence (the same
/// sim point or fault set every round), so each median compares like with
/// like; with a single kind this is the plain median.  NaN when empty.
pub fn kind_median(samples: &[(usize, f64)]) -> f64 {
    let mut by_kind: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for &(kind, x) in samples {
        by_kind.entry(kind).or_default().push(x);
    }
    let logs: Vec<f64> = by_kind.values().map(|xs| median(xs).ln()).collect();
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

/// Failed operations as a share of those attempted (0 when nothing was
/// attempted).
pub fn failed_frac(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// FNV-1a over the bit patterns of every number a workload got back, so
/// two builds can be shown to produce bit-identical outputs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn bytes(&mut self, bytes: impl IntoIterator<Item = u8>) {
        for byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Fold eight little-endian bytes into the digest.
    pub fn word(&mut self, word: u64) {
        self.bytes(word.to_le_bytes());
    }

    /// Fold the bit pattern of a float.
    pub fn num(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    /// Fold every byte of a string (its length first, so concatenations
    /// of different splits differ).
    pub fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        self.bytes(s.bytes());
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        // 200 samples: p95 has rank 190 and leaves exactly 10 above it;
        // p96 (rank 192) would leave only 8.
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        let tail = tail_percentile(&xs).expect("200 samples qualify");
        assert_eq!(tail.percentile, 95);
        assert_eq!(tail.value, 190.0);
        let beyond = xs.iter().filter(|&&x| x > tail.value).count();
        assert_eq!(beyond, MIN_BEYOND);
    }

    #[test]
    fn tail_is_order_independent_and_needs_eleven_samples() {
        let mut xs: Vec<f64> = (0..100).map(|i| f64::from((i * 37) % 100)).collect();
        let tail = tail_percentile(&xs).unwrap();
        assert_eq!(tail.percentile, 90);
        assert_eq!(tail.value, 89.0);
        xs.reverse();
        assert_eq!(tail_percentile(&xs), Some(tail));

        assert_eq!(tail_percentile(&[1.0; 10]), None);
        let eleven: Vec<f64> = (0..11).map(f64::from).collect();
        let tail = tail_percentile(&eleven).unwrap();
        assert_eq!(tail.percentile, 9);
        assert_eq!(tail.value, 0.0);
    }

    #[test]
    fn kind_median_compares_like_with_like() {
        assert_eq!(kind_median(&[(0, 3.0), (0, 1.0), (0, 2.0)]), 2.0);
        let mixed = [(0, 1.0), (1, 4.0), (0, 1.0), (1, 100.0), (0, 1.0), (1, 4.0)];
        assert!((kind_median(&mixed) - 2.0).abs() < 1e-12);
        assert!(kind_median(&[]).is_nan());
    }

    #[test]
    fn failed_frac_counts_against_attempted() {
        assert_eq!(failed_frac(0, 0), 0.0);
        assert_eq!(failed_frac(0, 40), 0.0);
        assert_eq!(failed_frac(3, 12), 0.25);
    }

    #[test]
    fn digest_sees_every_bit() {
        let mut a = Digest::default();
        a.num(1.0);
        let mut b = Digest::default();
        b.num(f64::from_bits(1.0f64.to_bits() + 1));
        assert_ne!(a, b);
        let mut c = Digest::default();
        c.text("ab");
        c.text("c");
        let mut d = Digest::default();
        d.text("a");
        d.text("bc");
        assert_ne!(c, d);
    }
}
