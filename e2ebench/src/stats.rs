//! Seeded randomness, latency percentiles and result digests.

/// SplitMix64: a tiny seeded generator, so an op stream depends only on
/// the seed and on this file, never on a dependency's version.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    /// An independent stream for one purpose (`salt`) under one seed.
    pub fn derive(seed: u64, salt: u64) -> Rng {
        let mut r = Rng::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt);
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        let span = (hi - lo + 1) as u64;
        lo + (self.next() % span) as i64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A seeded permutation of `items` (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Expands `(item, weight)` pairs into one block of `Σ weight` slots and
/// shuffles it: a stream drawn block by block hits every weight exactly,
/// so a percentile cannot drift across the boundary between two kinds'
/// latency ranges from one seed to the next.
pub fn weighted_block<T: Copy>(rng: &mut Rng, weights: &[(T, usize)]) -> Vec<T> {
    let mut block: Vec<T> = weights
        .iter()
        .flat_map(|&(t, w)| std::iter::repeat_n(t, w))
        .collect();
    rng.shuffle(&mut block);
    block
}

/// The fewest samples for which a p95 has ten samples beyond it.
pub const MIN_SAMPLES_FOR_P95: usize = 200;

/// Nearest-rank percentile of unsorted samples (`q` in `0..=1`).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// FNV-1a over byte strings: a stable, dependency-free result digest.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // A separator, so ["ab","c"] and ["a","bc"] differ.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of a set of rendered rows, independent of their order: plans
/// that differ only in the order they emit rows digest alike.
pub fn digest_rows(mut rows: Vec<String>) -> u64 {
    rows.sort_unstable();
    let mut d = Digest::default();
    for row in &rows {
        d.write(row.as_bytes());
    }
    d.finish()
}

/// Digest of a rendered result (`Relation`'s `Display`: a header line,
/// then one line per row), independent of row order.
pub fn digest_rendered(text: &str) -> u64 {
    digest_rows(text.lines().map(str::to_string).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 100.0);
        assert_eq!(percentile(&xs, 0.95), 190.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }

    #[test]
    fn weighted_blocks_hit_weights_exactly() {
        let mut rng = Rng::new(7);
        let block = weighted_block(&mut rng, &[('a', 3), ('b', 1)]);
        assert_eq!(block.len(), 4);
        assert_eq!(block.iter().filter(|c| **c == 'a').count(), 3);
    }

    #[test]
    fn row_digest_ignores_order() {
        let a = digest_rows(vec!["x".into(), "y".into()]);
        let b = digest_rows(vec!["y".into(), "x".into()]);
        assert_eq!(a, b);
        assert_ne!(a, digest_rows(vec!["x".into(), "z".into()]));
    }
}
