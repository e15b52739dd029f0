//! Deterministic seeded data generation.
//!
//! Every workload matrix in the repository comes from here, so that each
//! experiment (and every test) is reproducible bit-for-bit across runs and
//! machines. Values are drawn uniformly from `[-1, 1)`, matching the
//! magnitude regime of normalised transformer activations and keeping f32
//! accumulation error small relative to tile sums.
//!
//! The generator is a self-contained [SplitMix64] stream (no external
//! crates): fast, well-distributed for data generation, and trivially
//! portable, which is all the repository needs — nothing here is
//! cryptographic.
//!
//! [SplitMix64]: https://prng.di.unimi.it/splitmix64.c

use crate::matrix::Matrix;

/// A SplitMix64 pseudo-random stream.
///
/// # Example
///
/// ```
/// use flashfuser_tensor::rng::SplitMix64;
///
/// let mut a = SplitMix64::new(7);
/// let mut b = SplitMix64::new(7);
/// assert_eq!(a.next_u64(), b.next_u64()); // fully deterministic
/// ```
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a stream from a seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)` (53 mantissa bits).
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform `f32` in `[lo, hi)`.
    fn next_f32_range(&mut self, lo: f32, hi: f32) -> f32 {
        let x = lo + (self.next_f64() as f32) * (hi - lo);
        // f32 rounding can land exactly on the open upper bound.
        if x >= hi {
            lo
        } else {
            x
        }
    }

    /// Uniform `usize` in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn next_index(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty index range");
        (self.next_u64() % n as u64) as usize
    }

    /// Picks one element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.next_index(items.len())]
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn next_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

/// Creates a `rows x cols` matrix with uniform `[-1, 1)` entries drawn from
/// a [`SplitMix64`] stream seeded with `seed`.
///
/// # Example
///
/// ```
/// use flashfuser_tensor::rng::seeded_matrix;
///
/// let a = seeded_matrix(4, 4, 42);
/// let b = seeded_matrix(4, 4, 42);
/// assert_eq!(a, b); // fully deterministic
/// ```
pub fn seeded_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = SplitMix64::new(seed);
    let data = (0..rows * cols)
        .map(|_| rng.next_f32_range(-1.0, 1.0))
        .collect();
    Matrix::from_vec(rows, cols, data).expect("generated data length matches shape")
}

/// Derives a sub-seed from a base seed and a label, so that one workload
/// seed can deterministically generate several distinct matrices
/// (`A`, `B`, `D`, ...) without collisions.
pub fn derive_seed(base: u64, label: &str) -> u64 {
    // FNV-1a over the label, mixed with the base seed.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ base.rotate_left(17);
    for b in label.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_matrix() {
        assert_eq!(seeded_matrix(5, 7, 1), seeded_matrix(5, 7, 1));
    }

    #[test]
    fn different_seed_different_matrix() {
        assert_ne!(seeded_matrix(5, 7, 1), seeded_matrix(5, 7, 2));
    }

    #[test]
    fn values_in_range() {
        let m = seeded_matrix(32, 32, 9);
        assert!(m.as_slice().iter().all(|&x| (-1.0..1.0).contains(&x)));
    }

    #[test]
    fn stream_covers_unit_interval() {
        let mut rng = SplitMix64::new(3);
        let draws: Vec<f64> = (0..4096).map(|_| rng.next_f64()).collect();
        assert!(draws.iter().all(|&x| (0.0..1.0).contains(&x)));
        let mean = draws.iter().sum::<f64>() / draws.len() as f64;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn next_bool_respects_probability_extremes() {
        let mut rng = SplitMix64::new(5);
        for _ in 0..64 {
            assert!(rng.next_bool(1.0));
            assert!(!rng.next_bool(0.0));
        }
        let hits = (0..4096).filter(|_| rng.next_bool(0.25)).count();
        let rate = hits as f64 / 4096.0;
        assert!((rate - 0.25).abs() < 0.05, "rate {rate}");
    }

    #[test]
    fn pick_and_index_bounded() {
        let mut rng = SplitMix64::new(11);
        let items = [10, 20, 30];
        for _ in 0..100 {
            assert!(items.contains(rng.pick(&items)));
            assert!(rng.next_index(5) < 5);
        }
    }

    #[test]
    fn derive_seed_separates_labels() {
        let a = derive_seed(42, "A");
        let b = derive_seed(42, "B");
        let a2 = derive_seed(43, "A");
        assert_ne!(a, b);
        assert_ne!(a, a2);
        assert_eq!(a, derive_seed(42, "A"));
    }
}
