//! The paper's fast approximation of the statistical max (FASSTA core).
//!
//! Statistical max via Clark's formulas requires the normal CDF `Φ`, which
//! is expensive in an optimizer inner loop that evaluates millions of maxima.
//! §4.3 of the paper derives two accelerations:
//!
//! 1. **Dominance shortcuts** (equations 5 and 6). With
//!    `a² = σA² + σB²` and `α = (μA − μB)/a`, if `α ≥ 2.6` then under the
//!    quadratic erf approximation `Φ(α) = 1`, `Φ(−α) = 0`, `φ(α) ≈ 0`, so
//!    `max(A,B)` has exactly A's mean and variance — no computation needed.
//!    Symmetrically for `α ≤ −2.6`. The paper observes that "in the vast
//!    majority of cases" one of the two shortcuts applies.
//! 2. **Quadratic Φ** otherwise: Clark's ν₁/ν₂ evaluated with the cheap
//!    piecewise-quadratic CDF of [`crate::erf::phi_cdf_quadratic`].
//!
//! Independence of the inputs is assumed throughout — the paper accepts this
//! for small subcircuits, leaving correlation tracking to the outer
//! discrete-PDF engine.

use crate::erf::{phi_cdf_quadratic, phi_pdf, SATURATION};
use crate::moments::Moments;

/// The paper's dominance threshold: 2.6 standard deviations of the gap
/// variable, the point where the quadratic erf approximation saturates.
pub const DOMINANCE_THRESHOLD: f64 = SATURATION;

/// Which input statistically dominates a pairwise max, if either.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dominance {
    /// `(μA − μB)/a ≥ 2.6`: the max is statistically identical to A.
    First,
    /// `(μA − μB)/a ≤ −2.6`: the max is statistically identical to B.
    Second,
    /// Neither shortcut applies; Clark's formulas were evaluated.
    Neither,
}

/// Result of the fast max: the approximated moments plus which dominance
/// shortcut (if any) fired. Exposing the shortcut supports both the WNSS
/// path tracer and the ablation experiment measuring the hit rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FastMax {
    /// Approximate moments of `max(A, B)`.
    pub max: Moments,
    /// Which input dominated, if either.
    pub dominance: Dominance,
}

/// The normalized mean gap `α = (μA − μB) / sqrt(σA² + σB²)`.
///
/// Returns `+∞`/`−∞` when both variances are zero and the means differ, and
/// `0.0` when the inputs are identical deterministic values.
#[must_use]
pub fn normalized_gap(a: Moments, b: Moments) -> f64 {
    let gap_var = a.var + b.var;
    let diff = a.mean - b.mean;
    if gap_var == 0.0 {
        return if diff > 0.0 {
            f64::INFINITY
        } else if diff < 0.0 {
            f64::NEG_INFINITY
        } else {
            0.0
        };
    }
    diff / gap_var.sqrt()
}

/// Fast approximate `max(A, B)` with dominance classification.
///
/// Implements the full §4.3 procedure: dominance shortcuts at ±2.6, else
/// Clark with the quadratic CDF.
///
/// # Example
///
/// ```
/// use vartol_stats::{Moments, fast_max_with_dominance, Dominance};
///
/// // A dominated pair: the shortcut fires and no arithmetic is needed.
/// let a = Moments::from_mean_std(392.0, 35.0);
/// let b = Moments::from_mean_std(190.0, 41.0);
/// let r = fast_max_with_dominance(a, b);
/// assert_eq!(r.dominance, Dominance::First);
/// assert_eq!(r.max, a);
///
/// // A close race: Clark with the quadratic CDF.
/// let c = Moments::from_mean_std(320.0, 27.0);
/// let d = Moments::from_mean_std(310.0, 45.0);
/// let r = fast_max_with_dominance(c, d);
/// assert_eq!(r.dominance, Dominance::Neither);
/// assert!(r.max.mean > 320.0);
/// ```
#[must_use]
pub fn fast_max_with_dominance(a: Moments, b: Moments) -> FastMax {
    let alpha = normalized_gap(a, b);
    if alpha >= DOMINANCE_THRESHOLD {
        return FastMax {
            max: a,
            dominance: Dominance::First,
        };
    }
    if alpha <= -DOMINANCE_THRESHOLD {
        return FastMax {
            max: b,
            dominance: Dominance::Second,
        };
    }

    // Both deterministic and equal: alpha == 0 with zero gap variance.
    let gap_var = a.var + b.var;
    if gap_var == 0.0 {
        return FastMax {
            max: a,
            dominance: Dominance::Neither,
        };
    }
    let gap_sigma = gap_var.sqrt();

    let t = phi_cdf_quadratic(alpha);
    let t_c = 1.0 - t;
    let pdf = phi_pdf(alpha);

    let nu1 = a.mean * t + b.mean * t_c + gap_sigma * pdf;
    let nu2 = (a.mean * a.mean + a.var) * t
        + (b.mean * b.mean + b.var) * t_c
        + (a.mean + b.mean) * gap_sigma * pdf;
    let var = (nu2 - nu1 * nu1).max(0.0);

    FastMax {
        max: Moments::new(nu1, var),
        dominance: Dominance::Neither,
    }
}

/// Fast approximate `max(A, B)`, moments only.
///
/// # Example
///
/// ```
/// use vartol_stats::{Moments, fast_max_moments};
///
/// let a = Moments::from_mean_std(100.0, 10.0);
/// let m = fast_max_moments(a, a);
/// assert!(m.mean > 100.0); // max of iid inputs exceeds either mean
/// ```
#[must_use]
pub fn fast_max_moments(a: Moments, b: Moments) -> Moments {
    fast_max_with_dominance(a, b).max
}

/// Statistics on dominance-shortcut usage across a batch of pairwise maxima.
/// Supports the paper's claim that "in the vast majority of cases" one of
/// equations (5)/(6) applies (the `fastmax` section of the `ablation`
/// bench counts them).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DominanceStats {
    /// Count of maxima where the first input dominated.
    pub first: u64,
    /// Count of maxima where the second input dominated.
    pub second: u64,
    /// Count of maxima requiring full Clark evaluation.
    pub neither: u64,
}

impl DominanceStats {
    /// Creates empty statistics.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one classified max.
    pub fn record(&mut self, d: Dominance) {
        match d {
            Dominance::First => self.first += 1,
            Dominance::Second => self.second += 1,
            Dominance::Neither => self.neither += 1,
        }
    }

    /// Total maxima recorded.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.first + self.second + self.neither
    }

    /// Fraction of maxima resolved by a dominance shortcut (0 if empty).
    #[must_use]
    pub fn shortcut_rate(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            (self.first + self.second) as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clark::clark_max;

    #[test]
    fn dominance_first_returns_a_exactly() {
        let a = Moments::from_mean_std(500.0, 10.0);
        let b = Moments::from_mean_std(100.0, 10.0);
        let r = fast_max_with_dominance(a, b);
        assert_eq!(r.dominance, Dominance::First);
        assert_eq!(r.max, a);
    }

    #[test]
    fn dominance_second_returns_b_exactly() {
        let a = Moments::from_mean_std(100.0, 10.0);
        let b = Moments::from_mean_std(500.0, 10.0);
        let r = fast_max_with_dominance(a, b);
        assert_eq!(r.dominance, Dominance::Second);
        assert_eq!(r.max, b);
    }

    #[test]
    fn threshold_is_inclusive() {
        // Exactly 2.6 sigma gap: sqrt(3^2+4^2)=5, gap = 13.0.
        let a = Moments::from_mean_std(113.0, 3.0);
        let b = Moments::from_mean_std(100.0, 4.0);
        assert!((normalized_gap(a, b) - 2.6).abs() < 1e-12);
        assert_eq!(fast_max_with_dominance(a, b).dominance, Dominance::First);
    }

    #[test]
    fn just_below_threshold_uses_clark() {
        let a = Moments::from_mean_std(112.9, 3.0);
        let b = Moments::from_mean_std(100.0, 4.0);
        assert_eq!(fast_max_with_dominance(a, b).dominance, Dominance::Neither);
    }

    #[test]
    fn close_to_exact_clark_in_overlap_region() {
        // Within the overlap region the quadratic CDF is within 0.011 of
        // exact, so moments should track Clark closely (relative to sigma).
        let cases = [
            (
                Moments::from_mean_std(320.0, 27.0),
                Moments::from_mean_std(310.0, 45.0),
            ),
            (
                Moments::from_mean_std(100.0, 10.0),
                Moments::from_mean_std(100.0, 10.0),
            ),
            (
                Moments::from_mean_std(100.0, 10.0),
                Moments::from_mean_std(110.0, 20.0),
            ),
            (
                Moments::from_mean_std(0.0, 1.0),
                Moments::from_mean_std(1.0, 2.0),
            ),
        ];
        for (a, b) in cases {
            let fast = fast_max_moments(a, b);
            let exact = clark_max(a, b).max;
            let scale = exact.std().max(1e-9);
            assert!(
                (fast.mean - exact.mean).abs() / scale < 0.15,
                "mean: fast {} vs exact {}",
                fast.mean,
                exact.mean
            );
            assert!(
                (fast.std() - exact.std()).abs() / scale < 0.15,
                "sigma: fast {} vs exact {}",
                fast.std(),
                exact.std()
            );
        }
    }

    #[test]
    fn commutative_in_moments() {
        let a = Moments::from_mean_std(10.0, 2.0);
        let b = Moments::from_mean_std(11.0, 1.0);
        let ab = fast_max_moments(a, b);
        let ba = fast_max_moments(b, a);
        assert!((ab.mean - ba.mean).abs() < 1e-9);
        assert!((ab.var - ba.var).abs() < 1e-9);
    }

    #[test]
    fn deterministic_inputs() {
        let a = Moments::deterministic(5.0);
        let b = Moments::deterministic(3.0);
        assert_eq!(fast_max_moments(a, b), a);
        assert_eq!(fast_max_moments(b, a), a);
        assert_eq!(fast_max_moments(a, a), a);
    }

    #[test]
    fn normalized_gap_degenerate_cases() {
        let a = Moments::deterministic(2.0);
        let b = Moments::deterministic(1.0);
        assert_eq!(normalized_gap(a, b), f64::INFINITY);
        assert_eq!(normalized_gap(b, a), f64::NEG_INFINITY);
        assert_eq!(normalized_gap(a, a), 0.0);
    }

    #[test]
    fn dominance_stats_accumulate() {
        let mut s = DominanceStats::new();
        s.record(Dominance::First);
        s.record(Dominance::First);
        s.record(Dominance::Second);
        s.record(Dominance::Neither);
        assert_eq!(s.total(), 4);
        assert!((s.shortcut_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn dominance_stats_empty_rate_is_zero() {
        assert_eq!(DominanceStats::new().shortcut_rate(), 0.0);
    }

    #[test]
    fn max_mean_never_below_inputs() {
        // Holds for Clark; the quadratic approximation can dip a hair below
        // in the overlap region, so allow a small epsilon relative to sigma.
        let grid = [-2.0, -0.5, 0.0, 0.5, 2.0];
        for &da in &grid {
            for &sa in &[0.5, 1.0, 3.0] {
                for &sb in &[0.5, 1.0, 3.0] {
                    let a = Moments::from_mean_std(da, sa);
                    let b = Moments::from_mean_std(0.0, sb);
                    let m = fast_max_moments(a, b);
                    let floor = a.mean.max(b.mean);
                    assert!(
                        m.mean >= floor - 0.05 * (sa + sb),
                        "max mean {} below floor {floor}",
                        m.mean
                    );
                }
            }
        }
    }
}
