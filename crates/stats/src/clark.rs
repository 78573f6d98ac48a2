//! Clark's moments of the maximum of (correlated) normal random variables.
//!
//! C. E. Clark, *"The greatest of a finite set of random variables"*,
//! Operations Research 9 (1961) — reference \[22\] of the paper. Given normals
//! `A ~ N(μA, σA²)` and `B ~ N(μB, σB²)` with correlation `ρ`, define
//!
//! ```text
//! a² = σA² + σB² − 2·ρ·σA·σB,      α = (μA − μB) / a
//! ν₁ = μA·Φ(α) + μB·Φ(−α) + a·φ(α)
//! ν₂ = (μA² + σA²)·Φ(α) + (μB² + σB²)·Φ(−α) + (μA + μB)·a·φ(α)
//! Var(max) = ν₂ − ν₁²
//! ```
//!
//! These are the paper's equations (1)–(3) (with ρ = 0). This module is the
//! *accurate* evaluation — exact `Φ` via [`crate::erf::phi_cdf`] — used as a
//! baseline against which the fast approximation in [`crate::fast_max`] is
//! validated.

use crate::erf::{phi_cdf, phi_pdf};
use crate::moments::Moments;

/// Result of Clark's max: moments of `max(A, B)` plus the *tightness*
/// `P(A ≥ B) = Φ(α)`, i.e. the probability that input A determines the max.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClarkMax {
    /// Moments of `max(A, B)`.
    pub max: Moments,
    /// `P(A ≥ B)`: probability the first argument is the larger one.
    pub tightness_a: f64,
}

/// Moments of `max(A, B)` for **independent** normals (ρ = 0), the form the
/// paper states in equations (1)–(3).
///
/// # Example
///
/// ```
/// use vartol_stats::{Moments, clark_max};
///
/// let a = Moments::from_mean_std(10.0, 2.0);
/// let b = Moments::from_mean_std(10.0, 2.0);
/// let m = clark_max(a, b);
/// // max of two iid normals is strictly larger in mean...
/// assert!(m.max.mean > 10.0);
/// // ...and has smaller variance than either input.
/// assert!(m.max.var < 4.0);
/// assert!((m.tightness_a - 0.5).abs() < 1e-12);
/// ```
#[must_use]
pub fn clark_max(a: Moments, b: Moments) -> ClarkMax {
    clark_max_correlated(a, b, 0.0)
}

/// Moments of `max(A, B)` for normals with correlation `rho`.
///
/// # Panics
///
/// Panics if `rho` is outside `[-1, 1]`.
#[must_use]
pub fn clark_max_correlated(a: Moments, b: Moments, rho: f64) -> ClarkMax {
    assert!(
        (-1.0..=1.0).contains(&rho),
        "correlation must be in [-1,1], got {rho}"
    );

    let var_gap = a.var + b.var - 2.0 * rho * a.std() * b.std();
    // Degenerate case: A − B is (numerically) deterministic, so the max is
    // simply the input with the larger mean.
    if var_gap <= f64::EPSILON * (a.var + b.var).max(1.0) {
        return if a.mean >= b.mean {
            ClarkMax {
                max: a,
                tightness_a: 1.0,
            }
        } else {
            ClarkMax {
                max: b,
                tightness_a: 0.0,
            }
        };
    }

    let gap_sigma = var_gap.sqrt();
    let alpha = (a.mean - b.mean) / gap_sigma;
    let t = phi_cdf(alpha);
    let t_c = phi_cdf(-alpha);
    let pdf = phi_pdf(alpha);

    let nu1 = a.mean * t + b.mean * t_c + gap_sigma * pdf;
    let nu2 = (a.mean * a.mean + a.var) * t
        + (b.mean * b.mean + b.var) * t_c
        + (a.mean + b.mean) * gap_sigma * pdf;
    // Guard tiny negative variance from floating-point cancellation.
    let var = (nu2 - nu1 * nu1).max(0.0);

    ClarkMax {
        max: Moments::new(nu1, var),
        tightness_a: t,
    }
}

/// Moments of `min(A, B)` for independent normals, via the identity
/// `min(A, B) = −max(−A, −B)`. Used by backward (required-time)
/// propagation in statistical slack analysis.
///
/// # Example
///
/// ```
/// use vartol_stats::{Moments, clark::clark_min};
///
/// let a = Moments::from_mean_std(10.0, 2.0);
/// let m = clark_min(a, a);
/// // min of two iid normals is below either mean.
/// assert!(m.mean < 10.0);
/// ```
#[must_use]
pub fn clark_min(a: Moments, b: Moments) -> Moments {
    let neg = |m: Moments| Moments::new(-m.mean, m.var);
    neg(clark_max(neg(a), neg(b)).max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::montecarlo::mc_max_two_correlated;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const MC_N: usize = 300_000;

    fn assert_close(x: f64, y: f64, tol: f64, what: &str) {
        assert!((x - y).abs() < tol, "{what}: {x} vs {y}");
    }

    #[test]
    fn iid_standard_normals_match_theory() {
        // For iid N(0,1): E[max] = 1/sqrt(pi), Var = 1 - 1/pi.
        let a = Moments::from_mean_std(0.0, 1.0);
        let m = clark_max(a, a).max;
        assert_close(m.mean, 1.0 / std::f64::consts::PI.sqrt(), 1e-6, "mean");
        assert_close(m.var, 1.0 - 1.0 / std::f64::consts::PI, 1e-6, "var");
    }

    #[test]
    fn dominant_input_passes_through() {
        let a = Moments::from_mean_std(1000.0, 1.0);
        let b = Moments::from_mean_std(0.0, 1.0);
        let m = clark_max(a, b);
        assert_close(m.max.mean, 1000.0, 1e-6, "mean");
        assert_close(m.max.var, 1.0, 1e-6, "var");
        assert_close(m.tightness_a, 1.0, 1e-9, "tightness");
    }

    #[test]
    fn symmetric_in_arguments() {
        let a = Moments::from_mean_std(5.0, 2.0);
        let b = Moments::from_mean_std(6.0, 3.0);
        let ab = clark_max(a, b);
        let ba = clark_max(b, a);
        assert_close(ab.max.mean, ba.max.mean, 1e-12, "mean symmetric");
        assert_close(ab.max.var, ba.max.var, 1e-12, "var symmetric");
        assert_close(
            ab.tightness_a,
            1.0 - ba.tightness_a,
            1e-12,
            "tightness complements",
        );
    }

    #[test]
    fn max_mean_at_least_each_input_mean() {
        let pairs = [
            (
                Moments::from_mean_std(3.0, 1.0),
                Moments::from_mean_std(2.0, 5.0),
            ),
            (
                Moments::from_mean_std(0.0, 0.1),
                Moments::from_mean_std(0.0, 10.0),
            ),
            (
                Moments::from_mean_std(-5.0, 2.0),
                Moments::from_mean_std(5.0, 2.0),
            ),
        ];
        for (a, b) in pairs {
            let m = clark_max(a, b).max;
            assert!(m.mean >= a.mean.max(b.mean) - 1e-9);
        }
    }

    #[test]
    fn matches_monte_carlo_independent() {
        let mut rng = StdRng::seed_from_u64(7);
        let cases = [
            (
                Moments::from_mean_std(320.0, 27.0),
                Moments::from_mean_std(310.0, 45.0),
            ),
            (
                Moments::from_mean_std(100.0, 10.0),
                Moments::from_mean_std(100.0, 30.0),
            ),
            (
                Moments::from_mean_std(50.0, 5.0),
                Moments::from_mean_std(70.0, 5.0),
            ),
        ];
        for (a, b) in cases {
            let mc = mc_max_two_correlated(a, b, 0.0, MC_N, &mut rng);
            let cl = clark_max(a, b).max;
            assert_close(cl.mean, mc.mean, 0.5, "mean vs MC");
            assert_close(cl.std(), mc.std(), 0.5, "sigma vs MC");
        }
    }

    #[test]
    fn matches_monte_carlo_correlated() {
        let mut rng = StdRng::seed_from_u64(11);
        let a = Moments::from_mean_std(100.0, 12.0);
        let b = Moments::from_mean_std(104.0, 9.0);
        for rho in [-0.8, -0.3, 0.0, 0.5, 0.9] {
            let mc = mc_max_two_correlated(a, b, rho, MC_N, &mut rng);
            let cl = clark_max_correlated(a, b, rho).max;
            assert_close(cl.mean, mc.mean, 0.3, "mean vs MC");
            assert_close(cl.std(), mc.std(), 0.3, "sigma vs MC");
        }
    }

    #[test]
    fn perfectly_correlated_equal_sigmas_degenerate() {
        // With rho=1 and equal sigmas, A-B is deterministic: max = larger mean.
        let a = Moments::from_mean_std(10.0, 2.0);
        let b = Moments::from_mean_std(8.0, 2.0);
        let m = clark_max_correlated(a, b, 1.0);
        assert_eq!(m.max, a);
        assert_eq!(m.tightness_a, 1.0);
    }

    #[test]
    fn min_mirrors_max() {
        let a = Moments::from_mean_std(10.0, 3.0);
        let b = Moments::from_mean_std(12.0, 2.0);
        let mx = clark_max(a, b).max;
        let mn = clark_min(a, b);
        // E[min] + E[max] = E[A] + E[B] for any pair.
        assert!((mn.mean + mx.mean - (a.mean + b.mean)).abs() < 1e-9);
        assert!(mn.mean <= a.mean.min(b.mean) + 1e-9);
    }

    #[test]
    fn min_matches_monte_carlo() {
        let mut rng = StdRng::seed_from_u64(21);
        let a = Moments::from_mean_std(100.0, 15.0);
        let b = Moments::from_mean_std(105.0, 10.0);
        let samples: Vec<f64> = (0..MC_N)
            .map(|_| {
                let xa = a.mean + a.std() * crate::normal::standard_normal_sample(&mut rng);
                let xb = b.mean + b.std() * crate::normal::standard_normal_sample(&mut rng);
                xa.min(xb)
            })
            .collect();
        let mc = crate::montecarlo::summarize(&samples);
        let cl = clark_min(a, b);
        assert_close(cl.mean, mc.mean, 0.3, "min mean vs MC");
        assert_close(cl.std(), mc.std(), 0.3, "min sigma vs MC");
    }

    #[test]
    #[should_panic(expected = "correlation must be in [-1,1]")]
    fn bad_rho_panics() {
        let a = Moments::from_mean_std(0.0, 1.0);
        let _ = clark_max_correlated(a, a, 1.5);
    }
}
