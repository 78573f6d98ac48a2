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
/// Uses a fresh pair of uniforms per call ([`box_muller_uniforms`]) and
/// discards the second variate. That waste is pinned: every seeded Monte
/// Carlo result, and the service's cached `Yield` answers, are
/// bit-identical only while each sample consumes exactly two uniforms in
/// this order. Sampling dominates Monte Carlo time, so the transform has
/// a cheaper twin, [`box_muller_fast`], within [`Z_ERR`] of this one.
/// Cheaper draws need not change answers: a threshold count can run on
/// fast draws and redo, from the kept uniforms, only the samples whose
/// fast result lies within the error band of the threshold (the
/// certified count behind the service's `Yield`, `count_within` on the
/// Monte Carlo timer). That count also runs up to four seeded streams in
/// lockstep, but each stream still yields its uniforms in this order,
/// two per gate, so the pairs it transforms are the ones this function
/// would.
pub fn standard_normal_sample<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let (u1, u2) = box_muller_uniforms(rng);
    box_muller(u1, u2)
}

/// The two uniforms one [`standard_normal_sample`] consumes, in draw
/// order: `u1 ∈ [MIN_POSITIVE, 1)` (guarded away from zero so `ln` is
/// finite) and `u2 ∈ [0, 1)`.
pub fn box_muller_uniforms<R: Rng + ?Sized>(rng: &mut R) -> (f64, f64) {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen::<f64>();
    (u1, u2)
}

/// The Box–Muller transform of one uniform pair, with the platform's
/// `ln` and `cos`: the exact draw every seeded result is pinned to.
#[must_use]
pub fn box_muller(u1: f64, u2: f64) -> f64 {
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Absolute bound on `|box_muller_fast(u1, u2) − box_muller(u1, u2)|`
/// for every `u1 ∈ [MIN_POSITIVE, 1)` and `u2 ∈ [0, 1)`.
///
/// Both transforms compute `√(−2 ln u1) · cos(θ)` with the same rounded
/// angle `θ = fl(2π·u2)`. [`box_muller_fast`]'s `ln` and `cos` are the
/// fdlibm kernels, and both they and the platform's are within one ulp
/// of the true value. So the two `ln` values differ by at most two ulps
/// of `|ln u1| ≤ 709`, which moves `√(−2 ln u1) ≤ 37.7` by at most four
/// of its ulps (≤ 2.9e-14), and the cosines differ by at most 2.3e-16,
/// which the radius scales to ≤ 8.7e-15. With the final product's
/// rounding the analytic worst case is below 5e-14, 200× under this
/// bound. `crates/stats/tests/fast_normal.rs` checks `Z_ERR / 100` on
/// 10⁶ seeded pairs, the edge uniforms and every binade of `u1`; the
/// largest deviation seen over 2·10⁷ pairs was 1.1e-14.
pub const Z_ERR: f64 = 1e-11;

/// [`box_muller`] without the platform's `ln` and `cos`: branch-free,
/// straight-line arithmetic on the float bits, so a loop over a slice of
/// uniform pairs auto-vectorizes. Within [`Z_ERR`] of [`box_muller`].
#[inline]
#[must_use]
pub fn box_muller_fast(u1: f64, u2: f64) -> f64 {
    (-2.0 * ln_fast(u1)).sqrt() * cos_fast(2.0 * std::f64::consts::PI * u2)
}

/// Natural log of a positive normal `x` (fdlibm's `log`, branch-free):
/// `x = 2^k·m` with `m ∈ [√½, √2)`, then `ln m = 2·atanh(f / (2 + f))`
/// for `f = m − 1`, summed with `k·ln 2` in two parts.
#[inline]
fn ln_fast(x: f64) -> f64 {
    // fdlibm's constants, as shortest round-trip decimals.
    const LN2_HI: f64 = 0.6931471803691238;
    const LN2_LO: f64 = 1.9082149292705877e-10;
    const LG1: f64 = 0.6666666666666735;
    const LG2: f64 = 0.3999999999940942;
    const LG3: f64 = 0.2857142874366239;
    const LG4: f64 = 0.22222198432149784;
    const LG5: f64 = 0.1818357216161805;
    const LG6: f64 = 0.15313837699209373;
    const LG7: f64 = 0.14798198605116586;
    // √½ truncated to its high word: the bottom of the reduced range.
    const OFF: u64 = 0x3fe6_a09e_0000_0000;
    const MANTISSA: u64 = (1 << 52) - 1;
    // `TWO52 | e` is the float 2^52 + e for any 12-bit `e`, so
    // subtracting `BIAS` turns `e = k + 2048` into `k` without an
    // int-to-float cast (which SSE2 lacks for 64-bit lanes).
    const TWO52: u64 = 0x4330_0000_0000_0000;
    const BIAS: f64 = 4_503_599_627_370_496.0 + 2048.0;
    // Offsetting by 2^63 keeps `k + 2048` non-negative in the top 12
    // bits; the low 52 are `m`'s mantissa relative to OFF.
    let tmp = x.to_bits().wrapping_sub(OFF).wrapping_add(1 << 63);
    let k = f64::from_bits(TWO52 | (tmp >> 52)) - BIAS;
    let m = f64::from_bits(OFF + (tmp & MANTISSA));
    let f = m - 1.0;
    let hfsq = 0.5 * f * f;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * (LG2 + w * (LG4 + w * LG6));
    let t2 = z * (LG1 + w * (LG3 + w * (LG5 + w * LG7)));
    let r = t2 + t1;
    s * (hfsq + r) + k * LN2_LO - hfsq + f + k * LN2_HI
}

/// `cos θ` for `θ ∈ [0, 2π]` (fdlibm's `cos`, branch-free): `θ` is
/// reduced by the nearest multiple `n·π/2` to `y₀ + y₁ ∈ [−π/4, π/4]`
/// (π/2 in two parts, exact for `n ≤ 4`), both the sine and the cosine
/// kernels run, and the quadrant `n mod 4` picks one and its sign by
/// bit masks.
#[inline]
fn cos_fast(theta: f64) -> f64 {
    // fdlibm's constants, as shortest round-trip decimals.
    const TOINT: f64 = 1.5 * 4_503_599_627_370_496.0;
    const PIO2_1: f64 = 1.5707963267341256;
    const PIO2_1T: f64 = 6.077100506506192e-11;
    const S1: f64 = -0.16666666666666632;
    const S2: f64 = 0.00833333333332249;
    const S3: f64 = -0.0001984126982985795;
    const S4: f64 = 2.7557313707070068e-06;
    const S5: f64 = -2.5050760253406863e-08;
    const S6: f64 = 1.58969099521155e-10;
    const C1: f64 = 0.0416666666666666;
    const C2: f64 = -0.001388888888887411;
    const C3: f64 = 2.480158728947673e-05;
    const C4: f64 = -2.7557314351390663e-07;
    const C5: f64 = 2.087572321298175e-09;
    const C6: f64 = -1.1359647557788195e-11;
    // Round θ·2/π to an integer: its low bits land in the mantissa.
    let t = theta * std::f64::consts::FRAC_2_PI + TOINT;
    let quadrant = t.to_bits() & 3;
    let n = t - TOINT;
    let r = theta - n * PIO2_1;
    let w = n * PIO2_1T;
    let y0 = r - w;
    let y1 = (r - y0) - w;

    let z = y0 * y0;
    let zz = z * z;
    // fdlibm's __kernel_sin(y0, y1, 1).
    let rs = S2 + z * (S3 + z * S4) + z * zz * (S5 + z * S6);
    let v = z * y0;
    let sin = y0 - ((z * (0.5 * y1 - v * rs) - y1) - v * S1);
    // fdlibm's __kernel_cos(y0, y1).
    let rc = z * (C1 + z * (C2 + z * C3)) + zz * zz * (C4 + z * (C5 + z * C6));
    let hz = 0.5 * z;
    let one_minus = 1.0 - hz;
    let cos = one_minus + (((1.0 - one_minus) - hz) + (z * rc - y0 * y1));

    // Quadrants 0..3 give cos, −sin, −cos, sin.
    let odd = 0u64.wrapping_sub(quadrant & 1);
    let magnitude = (cos.to_bits() & !odd) | (sin.to_bits() & odd);
    let sign = ((quadrant + 1) & 2) << 62;
    f64::from_bits(magnitude ^ sign)
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
