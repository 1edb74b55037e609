//! Deterministic random data generation.
//!
//! All stochastic pieces of the reproduction (weight init, k-means seeding,
//! synthetic datasets) draw from [`DataRng`], a thin wrapper over a seeded
//! `StdRng`, so every experiment is bit-reproducible from its seed.

use rand::distributions::Distribution;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::Matrix;

/// A seeded random source for matrices and datasets.
///
/// # Example
///
/// ```rust
/// use pimdl_tensor::rng::DataRng;
///
/// let mut rng = DataRng::new(42);
/// let a = rng.uniform_matrix(2, 2, -1.0, 1.0);
/// let b = DataRng::new(42).uniform_matrix(2, 2, -1.0, 1.0);
/// assert_eq!(a, b); // deterministic per seed
/// ```
#[derive(Debug)]
pub struct DataRng {
    inner: StdRng,
}

impl DataRng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        DataRng {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// Uniform sample in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        if lo == hi {
            return lo;
        }
        self.inner.gen_range(lo..hi)
    }

    /// Standard normal sample (Box–Muller).
    pub fn normal(&mut self, mean: f32, std: f32) -> f32 {
        // Box-Muller keeps us off rand_distr (not in the approved set).
        let u1: f32 = self.inner.gen_range(f32::EPSILON..1.0);
        let u2: f32 = self.inner.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos();
        mean + std * z
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index bound must be positive");
        self.inner.gen_range(0..n)
    }

    /// Bernoulli sample with probability `p`.
    pub fn bool(&mut self, p: f64) -> bool {
        self.inner.gen_bool(p.clamp(0.0, 1.0))
    }

    /// Matrix of i.i.d. uniform samples in `[lo, hi)`.
    pub fn uniform_matrix(&mut self, rows: usize, cols: usize, lo: f32, hi: f32) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| self.uniform(lo, hi))
    }

    /// Matrix of i.i.d. normal samples.
    pub fn normal_matrix(&mut self, rows: usize, cols: usize, mean: f32, std: f32) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| self.normal(mean, std))
    }

    /// Xavier/Glorot-uniform initialized weight matrix of shape
    /// `fan_out x fan_in` (rows are output features).
    pub fn xavier_matrix(&mut self, fan_out: usize, fan_in: usize) -> Matrix {
        let bound = (6.0 / (fan_in + fan_out).max(1) as f32).sqrt();
        self.uniform_matrix(fan_out, fan_in, -bound, bound)
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.inner.gen_range(0..=i);
            items.swap(i, j);
        }
    }

    /// Samples from an arbitrary `rand` distribution.
    pub fn sample<T, D: Distribution<T>>(&mut self, dist: &D) -> T {
        dist.sample(&mut self.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a = DataRng::new(7).uniform_matrix(3, 3, 0.0, 1.0);
        let b = DataRng::new(7).uniform_matrix(3, 3, 0.0, 1.0);
        let c = DataRng::new(8).uniform_matrix(3, 3, 0.0, 1.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn uniform_bounds() {
        let mut rng = DataRng::new(1);
        for _ in 0..1000 {
            let v = rng.uniform(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&v));
        }
        assert_eq!(rng.uniform(5.0, 5.0), 5.0);
    }

    #[test]
    fn normal_moments() {
        let mut rng = DataRng::new(2);
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| rng.normal(1.0, 2.0)).collect();
        let mean = samples.iter().sum::<f32>() / n as f32;
        let var = samples.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n as f32;
        assert!((mean - 1.0).abs() < 0.1, "mean={mean}");
        assert!((var - 4.0).abs() < 0.4, "var={var}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = DataRng::new(5);
        let mut items: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn xavier_bound() {
        let mut rng = DataRng::new(6);
        let w = rng.xavier_matrix(64, 64);
        let bound = (6.0 / 128.0_f32).sqrt();
        assert!(w.max_abs() <= bound);
    }
}
