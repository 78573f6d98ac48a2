//! Normal (Gaussian) random variables: density, CDF, quantiles, sampling.
//!
//! Gate delays in the paper are modeled as normally distributed random
//! variables ("we assume that every gate delay in the circuit is represented
//! by a normally distributed random variable which is consistent with the
//! literature", §3). This module provides the concrete distribution type the
//! rest of the workspace builds on.

use crate::erf::{phi_cdf, phi_inv, phi_pdf};
use crate::moments::Moments;
use rand::Rng;

/// A normal distribution `N(mean, sigma²)`.
///
/// # Example
///
/// ```
/// use vartol_stats::Normal;
///
/// let n = Normal::new(100.0, 5.0);
/// assert!((n.cdf(100.0) - 0.5).abs() < 1e-12);
/// assert!(n.pdf(100.0) > n.pdf(110.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Normal {
    mean: f64,
    sigma: f64,
}

impl Normal {
    /// Creates a normal distribution from mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or either argument is non-finite.
    #[must_use]
    pub fn new(mean: f64, sigma: f64) -> Self {
        assert!(mean.is_finite(), "mean must be finite, got {mean}");
        assert!(
            sigma.is_finite() && sigma >= 0.0,
            "sigma must be finite and non-negative, got {sigma}"
        );
        Self { mean, sigma }
    }

    /// The standard normal `N(0, 1)`.
    #[must_use]
    pub fn standard() -> Self {
        Self {
            mean: 0.0,
            sigma: 1.0,
        }
    }

    /// Builds a normal matching the given first two moments.
    #[must_use]
    pub fn from_moments(m: Moments) -> Self {
        Self::new(m.mean, m.std())
    }

    /// The mean.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The standard deviation.
    #[must_use]
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// The first two moments of this distribution.
    #[must_use]
    pub fn moments(&self) -> Moments {
        Moments::from_mean_std(self.mean, self.sigma)
    }

    /// Probability density at `x`. A zero-sigma (degenerate) distribution
    /// returns `f64::INFINITY` at its mean and `0.0` elsewhere.
    #[must_use]
    pub fn pdf(&self, x: f64) -> f64 {
        if self.sigma == 0.0 {
            return if x == self.mean { f64::INFINITY } else { 0.0 };
        }
        phi_pdf((x - self.mean) / self.sigma) / self.sigma
    }

    /// Cumulative distribution `P(X ≤ x)`.
    #[must_use]
    pub fn cdf(&self, x: f64) -> f64 {
        if self.sigma == 0.0 {
            return if x >= self.mean { 1.0 } else { 0.0 };
        }
        phi_cdf((x - self.mean) / self.sigma)
    }

    /// Quantile function: the `x` with `P(X ≤ x) = p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not strictly inside `(0, 1)`.
    #[must_use]
    pub fn quantile(&self, p: f64) -> f64 {
        if self.sigma == 0.0 {
            assert!(p > 0.0 && p < 1.0, "quantile requires p in (0,1), got {p}");
            return self.mean;
        }
        self.mean + self.sigma * phi_inv(p)
    }

    /// Draws one sample using the Box–Muller transform.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mean + self.sigma * standard_normal_sample(rng)
    }

    /// Draws `n` samples.
    pub fn sample_n<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

impl std::fmt::Display for Normal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "N({:.4}, {:.4}²)", self.mean, self.sigma)
    }
}

/// One standard-normal sample via the Box–Muller transform.
///
/// Uses a fresh pair of uniforms per call and discards the second
/// variate. That waste is pinned: every seeded Monte Carlo result, and
/// the service's cached `Yield` answers, are bit-identical only while
/// each sample consumes exactly two uniforms in this order. Sampling is
/// not a cold path: it dominates Monte Carlo time, and with it the
/// service's `Yield` verb, so cheaper sampling means changing those
/// answers on purpose.
pub fn standard_normal_sample<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Guard u1 away from zero so ln is finite.
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn standard_normal_properties() {
        let n = Normal::standard();
        assert_eq!(n.mean(), 0.0);
        assert_eq!(n.sigma(), 1.0);
        assert!((n.cdf(0.0) - 0.5).abs() < 1e-12);
        assert!((n.pdf(0.0) - 0.398_942_280_4).abs() < 1e-9);
    }

    #[test]
    fn cdf_matches_tables() {
        let n = Normal::new(0.0, 1.0);
        assert!((n.cdf(1.0) - 0.841_344_746).abs() < 1e-6);
        assert!((n.cdf(-1.0) - 0.158_655_254).abs() < 1e-6);
        assert!((n.cdf(2.0) - 0.977_249_868).abs() < 1e-6);
    }

    #[test]
    fn scaled_distribution() {
        let n = Normal::new(50.0, 10.0);
        // P(X <= mean + sigma) == Phi(1)
        assert!((n.cdf(60.0) - 0.841_344_746).abs() < 1e-6);
        assert!((n.quantile(0.841_344_746) - 60.0).abs() < 1e-4);
    }

    #[test]
    fn quantile_inverts_cdf() {
        let n = Normal::new(-3.0, 2.5);
        for i in 1..20 {
            let p = f64::from(i) / 20.0;
            assert!((n.cdf(n.quantile(p)) - p).abs() < 1e-6);
        }
    }

    #[test]
    fn degenerate_distribution() {
        let n = Normal::new(7.0, 0.0);
        assert_eq!(n.cdf(6.999), 0.0);
        assert_eq!(n.cdf(7.0), 1.0);
        assert_eq!(n.quantile(0.3), 7.0);
        assert_eq!(n.pdf(1.0), 0.0);
    }

    #[test]
    fn sampling_moments_converge() {
        let mut rng = StdRng::seed_from_u64(42);
        let n = Normal::new(100.0, 15.0);
        let xs = n.sample_n(&mut rng, 200_000);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((mean - 100.0).abs() < 0.2, "sample mean {mean}");
        assert!(
            (var.sqrt() - 15.0).abs() < 0.2,
            "sample sigma {}",
            var.sqrt()
        );
    }

    #[test]
    fn moments_round_trip() {
        let m = Moments::from_mean_std(12.0, 3.0);
        assert_eq!(Normal::from_moments(m).moments(), m);
    }

    #[test]
    #[should_panic(expected = "sigma must be finite and non-negative")]
    fn negative_sigma_panics() {
        let _ = Normal::new(0.0, -1.0);
    }

    #[test]
    fn display_contains_parameters() {
        let s = Normal::new(1.0, 2.0).to_string();
        assert!(s.contains("1.0000") && s.contains("2.0000"));
    }
}
