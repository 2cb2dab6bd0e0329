//! Deterministic random numbers for reproducible experiments.
//!
//! All stochastic behaviour in the workspace (workload key choice, vibration
//! phase, retry jitter) flows through [`SimRng`], a seeded PRNG with a few
//! domain helpers. Two runs with the same seed produce identical results.

use rand::distributions::Distribution;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// The workspace-wide default seed, used when an experiment does not care.
pub const DEFAULT_SEED: u64 = 0x5EED_D339; // "AQ339", the paper's speaker.

/// A deterministic, seedable random number generator.
///
/// Wraps [`rand::rngs::StdRng`] and adds helpers used across the
/// reproduction (uniform draws over a range, Bernoulli trials for
/// per-operation success).
///
/// # Example
///
/// ```
/// use deepnote_sim::SimRng;
///
/// let mut a = SimRng::seeded(42);
/// let mut b = SimRng::seeded(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: StdRng,
}

impl SimRng {
    /// Creates a generator from an explicit seed.
    pub fn seeded(seed: u64) -> Self {
        SimRng {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// Creates a generator with the workspace default seed.
    pub fn new() -> Self {
        Self::seeded(DEFAULT_SEED)
    }

    /// Derives an independent child generator; useful to give each
    /// component its own stream without correlation.
    pub fn fork(&mut self, label: u64) -> SimRng {
        let seed = self.inner.gen::<u64>() ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        SimRng::seeded(seed)
    }

    /// A uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// A uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        self.inner.gen_range(0..n)
    }

    /// A uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        self.inner.gen_range(lo..hi)
    }

    /// Bernoulli trial: `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.inner.gen::<f64>() < p
        }
    }

    /// A uniform phase in `[0, 2π)`, used to randomize vibration phase
    /// relative to sector windows.
    pub fn phase(&mut self) -> f64 {
        self.inner.gen::<f64>() * std::f64::consts::TAU
    }

    /// Samples from an arbitrary `rand` distribution.
    pub fn sample<T, D: Distribution<T>>(&mut self, dist: &D) -> T {
        dist.sample(&mut self.inner)
    }

    /// Fills `buf` with deterministic pseudo-random bytes.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        self.inner.fill_bytes(buf);
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
}

impl Default for SimRng {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seeded(7);
        let mut b = SimRng::seeded(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seeded(1);
        let mut b = SimRng::seeded(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn fork_streams_are_independent_and_deterministic() {
        let mut root1 = SimRng::seeded(9);
        let mut root2 = SimRng::seeded(9);
        let mut c1 = root1.fork(1);
        let mut c2 = root2.fork(1);
        assert_eq!(c1.next_u64(), c2.next_u64());
        let mut other = root1.fork(2);
        assert_ne!(c1.next_u64(), other.next_u64());
    }

    #[test]
    fn below_and_range_respect_bounds() {
        let mut r = SimRng::seeded(3);
        for _ in 0..1000 {
            assert!(r.below(10) < 10);
            let v = r.range(5, 8);
            assert!((5..8).contains(&v));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::seeded(4);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-1.0));
        assert!(r.chance(2.0));
    }

    #[test]
    fn chance_probability_roughly_holds() {
        let mut r = SimRng::seeded(5);
        let hits = (0..10_000).filter(|_| r.chance(0.3)).count();
        assert!((2_700..3_300).contains(&hits), "hits={hits}");
    }

    #[test]
    fn phase_in_range() {
        let mut r = SimRng::seeded(8);
        for _ in 0..1000 {
            let p = r.phase();
            assert!((0.0..std::f64::consts::TAU).contains(&p));
        }
    }
}
