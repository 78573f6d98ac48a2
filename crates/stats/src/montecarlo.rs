//! Monte-Carlo estimators used as a golden reference.
//!
//! Nothing here runs in the optimizer's hot path; these routines validate
//! Clark's formulas, the fast max approximation, and the discrete-PDF engine
//! in tests and in the accuracy sections of the `ablation` bench.

use crate::accumulator::RunningMoments;
use crate::moments::Moments;
use crate::normal::standard_normal_sample;
use rand::Rng;

/// Empirical summary of a sampled scalar distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McSummary {
    /// Sample mean.
    pub mean: f64,
    /// Unbiased sample variance.
    pub var: f64,
    /// Number of samples.
    pub n: usize,
}

impl McSummary {
    /// Standard deviation of the samples.
    #[must_use]
    pub fn std(&self) -> f64 {
        self.var.sqrt()
    }

    /// As a [`Moments`] value.
    #[must_use]
    pub fn moments(&self) -> Moments {
        Moments::new(self.mean, self.var.max(0.0))
    }
}

/// Summarizes a slice of samples (mean, unbiased variance) via a single
/// Welford pass ([`RunningMoments`]), robust at large means.
///
/// # Panics
///
/// Panics if fewer than two samples are provided.
#[must_use]
pub fn summarize(samples: &[f64]) -> McSummary {
    assert!(
        samples.len() >= 2,
        "need at least two samples, got {}",
        samples.len()
    );
    let acc: RunningMoments = samples.iter().copied().collect();
    McSummary {
        mean: acc.mean(),
        var: acc.sample_variance(),
        n: samples.len(),
    }
}

/// Monte-Carlo moments of `max(A, B)` for normals with correlation `rho`.
///
/// # Panics
///
/// Panics if `rho` is outside `[-1, 1]` or `n < 2`.
pub fn mc_max_two_correlated<R: Rng + ?Sized>(
    a: Moments,
    b: Moments,
    rho: f64,
    n: usize,
    rng: &mut R,
) -> McSummary {
    assert!(
        (-1.0..=1.0).contains(&rho),
        "correlation must be in [-1,1], got {rho}"
    );
    let complement = (1.0 - rho * rho).max(0.0).sqrt();
    let samples: Vec<f64> = (0..n)
        .map(|_| {
            let z1 = standard_normal_sample(rng);
            let z2 = standard_normal_sample(rng);
            let xa = a.mean + a.std() * z1;
            let xb = b.mean + b.std() * (rho * z1 + complement * z2);
            xa.max(xb)
        })
        .collect();
    summarize(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn summarize_basic() {
        let s = summarize(&[1.0, 2.0, 3.0]);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!((s.var - 1.0).abs() < 1e-12);
        assert_eq!(s.n, 3);
    }

    #[test]
    #[should_panic(expected = "need at least two samples")]
    fn summarize_rejects_single() {
        let _ = summarize(&[1.0]);
    }

    #[test]
    fn correlated_max_with_rho_one_is_pointwise() {
        // rho = 1, equal sigma: max is just the larger-mean variable.
        let mut rng = StdRng::seed_from_u64(9);
        let a = Moments::from_mean_std(10.0, 2.0);
        let b = Moments::from_mean_std(5.0, 2.0);
        let mc = mc_max_two_correlated(a, b, 1.0, 100_000, &mut rng);
        assert!((mc.mean - 10.0).abs() < 0.05);
        assert!((mc.std() - 2.0).abs() < 0.05);
    }

    #[test]
    fn summary_moments_conversion() {
        let s = McSummary {
            mean: 2.0,
            var: 4.0,
            n: 10,
        };
        assert_eq!(s.std(), 2.0);
        assert_eq!(s.moments(), Moments::new(2.0, 4.0));
    }
}
