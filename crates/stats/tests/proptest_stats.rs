//! Property-based tests of the statistical toolkit's invariants.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vartol_stats::clark::{clark_max, clark_max_correlated};
use vartol_stats::correlation::{CorrelationMatrix, PcaModel};
use vartol_stats::erf::{erf, half_erf_quadratic, phi_cdf, phi_inv};
use vartol_stats::fast_max::{fast_max_moments, fast_max_with_dominance, Dominance};
use vartol_stats::{DiscretePdf, Moments, RunningMoments};

fn moment_strategy() -> impl Strategy<Value = Moments> {
    ((-1000.0f64..1000.0), (0.0f64..100.0))
        .prop_map(|(mean, std)| Moments::from_mean_std(mean, std))
}

proptest! {
    #[test]
    fn erf_odd_and_bounded(x in -20.0f64..20.0) {
        let v = erf(x);
        prop_assert!((-1.0..=1.0).contains(&v));
        prop_assert!((erf(-x) + v).abs() < 1e-12);
    }

    #[test]
    fn phi_cdf_monotone(a in -8.0f64..8.0, b in -8.0f64..8.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(phi_cdf(lo) <= phi_cdf(hi) + 1e-15);
    }

    #[test]
    fn quadratic_erf_two_decimal_claim(x in -10.0f64..10.0) {
        let exact = phi_cdf(x) - 0.5;
        prop_assert!((half_erf_quadratic(x) - exact).abs() < 0.011);
    }

    #[test]
    fn phi_inv_round_trip(p in 0.001f64..0.999) {
        prop_assert!((phi_cdf(phi_inv(p)) - p).abs() < 1e-6);
    }

    #[test]
    fn clark_mean_dominates_inputs(a in moment_strategy(), b in moment_strategy()) {
        let m = clark_max(a, b).max;
        prop_assert!(m.mean >= a.mean.max(b.mean) - 1e-6);
        prop_assert!(m.var >= -1e-12);
    }

    #[test]
    fn clark_symmetric(a in moment_strategy(), b in moment_strategy()) {
        let ab = clark_max(a, b);
        let ba = clark_max(b, a);
        prop_assert!((ab.max.mean - ba.max.mean).abs() < 1e-7 * (1.0 + ab.max.mean.abs()));
        prop_assert!((ab.max.var - ba.max.var).abs() < 1e-6 * (1.0 + ab.max.var));
        prop_assert!((ab.tightness_a + ba.tightness_a - 1.0).abs() < 1e-9);
    }

    #[test]
    fn clark_monotone_in_mean_shift(
        a in moment_strategy(),
        b in moment_strategy(),
        shift in 0.0f64..100.0,
    ) {
        let base = clark_max(a, b).max;
        let shifted = clark_max(a.shift(shift), b).max;
        prop_assert!(shifted.mean >= base.mean - 1e-9);
    }

    #[test]
    fn clark_correlated_variance_bounded(
        a in moment_strategy(),
        b in moment_strategy(),
        rho in -1.0f64..1.0,
    ) {
        let m = clark_max_correlated(a, b, rho).max;
        // Var(max) never exceeds the larger input variance plus the gap
        // variance (a loose but always-valid bound).
        let bound = a.var.max(b.var) + (a.mean - b.mean).powi(2) + 1e-9;
        prop_assert!(m.var <= bound + 1e-6 * bound);
    }

    #[test]
    fn fast_max_classification_consistent(a in moment_strategy(), b in moment_strategy()) {
        let r = fast_max_with_dominance(a, b);
        match r.dominance {
            Dominance::First => prop_assert_eq!(r.max, a),
            Dominance::Second => prop_assert_eq!(r.max, b),
            Dominance::Neither => {
                prop_assert!(r.max.mean >= a.mean.min(b.mean) - 1e-9);
            }
        }
    }

    #[test]
    fn fast_max_tracks_clark_in_overlap(
        mean_a in -100.0f64..100.0,
        mean_b in -100.0f64..100.0,
        sa in 1.0f64..50.0,
        sb in 1.0f64..50.0,
    ) {
        let a = Moments::from_mean_std(mean_a, sa);
        let b = Moments::from_mean_std(mean_b, sb);
        let fast = fast_max_moments(a, b);
        let exact = clark_max(a, b).max;
        let scale = exact.std().max(1.0);
        // Within the dominance region the error is the truncated tail; in
        // the overlap region the quadratic CDF is within 0.011. Either way
        // the approximation stays within a few sigma-units.
        prop_assert!((fast.mean - exact.mean).abs() / scale < 0.5);
    }

    #[test]
    fn moments_sum_commutative_associative(
        a in moment_strategy(),
        b in moment_strategy(),
        c in moment_strategy(),
    ) {
        let left = (a + b) + c;
        let right = a + (b + c);
        prop_assert!((left.mean - right.mean).abs() < 1e-9);
        prop_assert!((left.var - right.var).abs() < 1e-9);
    }

    #[test]
    fn pdf_from_normal_preserves_moments(
        mean in -500.0f64..500.0,
        sigma in 0.01f64..50.0,
        n in 8usize..40,
    ) {
        let pdf = DiscretePdf::from_normal(mean, sigma, n);
        prop_assert!((pdf.mean() - mean).abs() < 0.05 * sigma + 1e-9);
        prop_assert!((pdf.std() - sigma).abs() < 0.10 * sigma + 1e-9);
    }

    #[test]
    fn pdf_add_moments_exact(
        ma in -100.0f64..100.0,
        sa in 0.1f64..20.0,
        mb in -100.0f64..100.0,
        sb in 0.1f64..20.0,
    ) {
        let a = DiscretePdf::from_normal(ma, sa, 12);
        let b = DiscretePdf::from_normal(mb, sb, 12);
        let c = a.add(&b);
        prop_assert!((c.mean() - (a.mean() + b.mean())).abs() < 1e-6);
        prop_assert!((c.var() - (a.var() + b.var())).abs() < 1e-6 * (1.0 + c.var()));
    }

    #[test]
    fn pdf_max_stochastically_dominates_inputs(
        ma in -100.0f64..100.0,
        sa in 0.1f64..20.0,
        mb in -100.0f64..100.0,
        sb in 0.1f64..20.0,
        x in -200.0f64..200.0,
    ) {
        let a = DiscretePdf::from_normal(ma, sa, 12);
        let b = DiscretePdf::from_normal(mb, sb, 12);
        let m = a.max(&b);
        // F_max(x) = F_a(x) * F_b(x) <= min(F_a, F_b)
        prop_assert!(m.cdf(x) <= a.cdf(x).min(b.cdf(x)) + 1e-9);
    }

    #[test]
    fn pdf_rebin_preserves_first_two_moments(
        ma in -100.0f64..100.0,
        sa in 0.5f64..20.0,
        n in 4usize..16,
    ) {
        let big = DiscretePdf::from_normal(ma, sa, 64);
        let small = big.rebin(n);
        prop_assert!(small.len() <= n);
        prop_assert!((small.mean() - big.mean()).abs() < 1e-9);
        prop_assert!((small.var() - big.var()).abs() < 1e-9 * (1.0 + big.var()));
    }

    #[test]
    fn pdf_quantile_cdf_consistency(
        ma in -100.0f64..100.0,
        sa in 0.5f64..20.0,
        p in 0.01f64..0.99,
    ) {
        let pdf = DiscretePdf::from_normal(ma, sa, 20);
        let q = pdf.quantile(p);
        prop_assert!(pdf.cdf(q) >= p - 1e-12);
    }

    // The parallel Monte-Carlo determinism contract's numerical half:
    // accumulating a stream chunk-by-chunk and merging the chunk
    // accumulators in chunk order reproduces the single-pass moments —
    // for any chunk size, stream length, and mean offset (including
    // offsets where the naive sum-of-squares formula cancels away).
    #[test]
    fn chunk_merged_moments_equal_single_pass(
        len in 2usize..400,
        chunk in 1usize..64,
        seed in any::<u64>(),
        offset in -1.0e8f64..1.0e8,
        spread in 0.1f64..100.0,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let xs: Vec<f64> = (0..len)
            .map(|_| offset + spread * (rng.gen::<f64>() - 0.5))
            .collect();
        let whole: RunningMoments = xs.iter().copied().collect();
        let merged = xs
            .chunks(chunk)
            .map(|c| c.iter().copied().collect::<RunningMoments>())
            .fold(RunningMoments::new(), RunningMoments::merge);
        prop_assert_eq!(merged.count(), whole.count());
        prop_assert!(
            (merged.mean() - whole.mean()).abs() <= 1e-9 * (1.0 + offset.abs()),
            "mean {} vs {}", merged.mean(), whole.mean()
        );
        // Rounding floor: every centered delta carries an absolute error
        // of ~ulp(offset), so m2 terms are good to ~eps·|offset|·spread.
        let var_tol = 1e-9 * (1.0 + whole.variance())
            + 64.0 * f64::EPSILON * (offset.abs() + spread) * spread;
        prop_assert!(
            (merged.variance() - whole.variance()).abs() <= var_tol,
            "var {} vs {}", merged.variance(), whole.variance()
        );
        prop_assert!(merged.variance() >= 0.0);
    }

    #[test]
    fn with_moments_hits_target(
        src in moment_strategy().prop_filter("spread", |m| m.var > 1e-6),
        dst in moment_strategy().prop_filter("spread", |m| m.var > 1e-6),
    ) {
        let pdf = DiscretePdf::from_moments(src, 12);
        let out = pdf.with_moments(dst, 12);
        prop_assert!((out.mean() - dst.mean).abs() < 1e-6 * (1.0 + dst.mean.abs()));
        prop_assert!((out.var() - dst.var).abs() < 1e-6 * (1.0 + dst.var));
    }
}

// ---------------------------------------------------------------------
// PCA of correlated variation sources — the decomposition the ssta
// crate's correlated `VariationModel` builds its spatial field on.
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn pca_reconstructs_spatial_grid_covariance(
        rows in 1usize..5,
        cols in 1usize..5,
        len in 0.2f64..8.0,
        seed in any::<u64>(),
    ) {
        let n = rows * cols;
        let mut rng = StdRng::seed_from_u64(seed);
        let sigmas: Vec<f64> = (0..n).map(|_| 0.01 + 50.0 * rng.gen::<f64>()).collect();
        let positions: Vec<(f64, f64)> = (0..n)
            .map(|c| ((c % cols) as f64, (c / cols) as f64))
            .collect();
        let corr = CorrelationMatrix::spatial(&positions, len);
        let moments: Vec<Moments> = sigmas
            .iter()
            .map(|&s| Moments::from_mean_std(0.0, s))
            .collect();
        let pca = PcaModel::decompose(&moments, &corr);
        prop_assert_eq!(pca.len(), n);
        // Every pairwise covariance implied by the loadings matches the
        // input grid model within tolerance.
        for i in 0..n {
            for j in 0..n {
                let want = sigmas[i] * sigmas[j] * corr.get(i, j);
                let got = pca.covariance(i, j);
                let tol = 1e-8 * (1.0 + want.abs());
                prop_assert!(
                    (got - want).abs() < tol,
                    "cov({}, {}): {} vs {}", i, j, got, want
                );
            }
        }
        // All the variance is explained by the full component set, and
        // explained variance is monotone in the component count.
        prop_assert!((pca.explained_variance(n) - 1.0).abs() < 1e-9);
        for k in 0..n {
            prop_assert!(
                pca.explained_variance(k) <= pca.explained_variance(k + 1) + 1e-12
            );
        }
    }

    #[test]
    fn eigen_decomposition_preserves_trace_and_orthonormality(
        rows in 1usize..5,
        cols in 1usize..5,
        len in 0.2f64..8.0,
    ) {
        let n = rows * cols;
        let positions: Vec<(f64, f64)> = (0..n)
            .map(|c| ((c % cols) as f64, (c / cols) as f64))
            .collect();
        let corr = CorrelationMatrix::spatial(&positions, len);
        let (values, vectors) = corr.eigen_decompose();
        let trace: f64 = values.iter().sum();
        prop_assert!((trace - n as f64).abs() < 1e-7, "trace {}", trace);
        for v in &values {
            prop_assert!(*v > -1e-9, "correlation matrices are PSD: {}", v);
        }
        for a in 0..n {
            for b in 0..n {
                let dot: f64 = vectors[a].iter().zip(&vectors[b]).map(|(x, y)| x * y).sum();
                let want = if a == b { 1.0 } else { 0.0 };
                prop_assert!((dot - want).abs() < 1e-7, "v{}·v{} = {}", a, b, dot);
            }
        }
    }
}

/// A verbatim copy of `DiscretePdf`'s operations as they were before the
/// merged-runs convolution (general sort in `from_points`, `max` over a
/// chained-sorted-deduplicated support, `rebin` through two bin arrays),
/// kept as the oracle the current ones must match bit for bit.
mod oracle {
    use vartol_stats::{Moments, Normal};

    const SUPPORT_SIGMAS: f64 = 4.0;

    #[derive(Debug, Clone)]
    pub struct Pdf {
        pub values: Vec<f64>,
        pub probs: Vec<f64>,
    }

    impl Pdf {
        pub fn from_points(points: Vec<(f64, f64)>) -> Self {
            assert!(
                !points.is_empty(),
                "a discrete pdf needs at least one point"
            );
            let mut pts: Vec<(f64, f64)> = points;
            for &(v, p) in &pts {
                assert!(v.is_finite(), "support value must be finite, got {v}");
                assert!(
                    p.is_finite() && p >= 0.0,
                    "probability must be finite and non-negative, got {p}"
                );
            }
            pts.sort_by(|x, y| x.0.total_cmp(&y.0));

            let mut values = Vec::with_capacity(pts.len());
            let mut probs = Vec::with_capacity(pts.len());
            for (v, p) in pts {
                if p == 0.0 {
                    continue;
                }
                if let Some(last) = values.last() {
                    if v - last == 0.0 {
                        *probs.last_mut().expect("probs parallel to values") += p;
                        continue;
                    }
                }
                values.push(v);
                probs.push(p);
            }
            assert!(
                !values.is_empty(),
                "total probability mass must be positive"
            );
            let total: f64 = probs.iter().sum();
            assert!(total > 0.0, "total probability mass must be positive");
            for p in &mut probs {
                *p /= total;
            }
            Self { values, probs }
        }

        pub fn deterministic(value: f64) -> Self {
            Self::from_points(vec![(value, 1.0)])
        }

        pub fn from_normal(mean: f64, sigma: f64, n: usize) -> Self {
            assert!(n > 0, "need at least one sample point");
            if sigma == 0.0 {
                return Self::deterministic(mean);
            }
            let dist = Normal::new(mean, sigma);
            let lo = mean - SUPPORT_SIGMAS * sigma;
            let hi = mean + SUPPORT_SIGMAS * sigma;
            let width = (hi - lo) / n as f64;
            let mut points = Vec::with_capacity(n);
            for i in 0..n {
                let a = lo + i as f64 * width;
                let b = a + width;
                let mass = dist.cdf(b) - dist.cdf(a);
                points.push((0.5 * (a + b), mass));
            }
            Self::from_points(points)
        }

        pub fn from_moments(m: Moments, n: usize) -> Self {
            Self::from_normal(m.mean, m.std(), n)
        }

        fn len(&self) -> usize {
            self.values.len()
        }

        pub fn mean(&self) -> f64 {
            self.values
                .iter()
                .zip(&self.probs)
                .map(|(v, p)| v * p)
                .sum()
        }

        pub fn var(&self) -> f64 {
            let m = self.mean();
            let v: f64 = self
                .values
                .iter()
                .zip(&self.probs)
                .map(|(v, p)| (v - m) * (v - m) * p)
                .sum();
            v.max(0.0)
        }

        pub fn add(&self, other: &Self) -> Self {
            let mut points = Vec::with_capacity(self.len() * other.len());
            for (va, pa) in self.values.iter().zip(&self.probs) {
                for (vb, pb) in other.values.iter().zip(&other.probs) {
                    points.push((va + vb, pa * pb));
                }
            }
            Self::from_points(points)
        }

        pub fn max(&self, other: &Self) -> Self {
            let mut support: Vec<f64> = self
                .values
                .iter()
                .chain(other.values.iter())
                .copied()
                .collect();
            support.sort_by(f64::total_cmp);
            support.dedup();

            let mut points = Vec::with_capacity(support.len());
            let mut prev = 0.0;
            let (mut ia, mut ib) = (0usize, 0usize);
            let (mut fa, mut fb) = (0.0f64, 0.0f64);
            for &x in &support {
                while ia < self.len() && self.values[ia] <= x {
                    fa += self.probs[ia];
                    ia += 1;
                }
                while ib < other.len() && other.values[ib] <= x {
                    fb += other.probs[ib];
                    ib += 1;
                }
                let f = (fa * fb).min(1.0);
                let mass = f - prev;
                if mass > 0.0 {
                    points.push((x, mass));
                }
                prev = f;
            }
            Self::from_points(points)
        }

        pub fn rebin(&self, n: usize) -> Self {
            assert!(n > 0, "need at least one bin");
            if self.len() <= n {
                return self.clone();
            }
            let lo = self.values[0];
            let hi = *self.values.last().expect("non-empty");
            if hi - lo <= 0.0 {
                return Self::deterministic(lo);
            }
            let target_mean = self.mean();
            let target_var = self.var();

            let width = (hi - lo) / n as f64;
            let mut mass = vec![0.0f64; n];
            let mut weighted = vec![0.0f64; n];
            for (v, p) in self.values.iter().zip(&self.probs) {
                let idx = (((v - lo) / width) as usize).min(n - 1);
                mass[idx] += p;
                weighted[idx] += p * v;
            }
            let coarse = Self::from_points(
                mass.iter()
                    .zip(&weighted)
                    .filter(|(m, _)| **m > 0.0)
                    .map(|(m, w)| (w / m, *m))
                    .collect(),
            );

            let got_var = coarse.var();
            if got_var <= 0.0 || target_var <= 0.0 {
                return coarse;
            }
            let k = (target_var / got_var).sqrt();
            Self {
                values: coarse
                    .values
                    .iter()
                    .map(|v| target_mean + k * (v - target_mean))
                    .collect(),
                probs: coarse.probs,
            }
        }

        pub fn with_moments(&self, target: Moments, fallback_samples: usize) -> Self {
            let v0 = self.var();
            if target.var <= 0.0 {
                return Self::deterministic(target.mean);
            }
            if v0 <= 0.0 {
                return Self::from_moments(target, fallback_samples);
            }
            let m0 = self.mean();
            let k = (target.var / v0).sqrt();
            Self {
                values: self
                    .values
                    .iter()
                    .map(|x| target.mean + k * (x - m0))
                    .collect(),
                probs: self.probs.clone(),
            }
        }
    }
}

fn pdf_bits(values: &[f64], probs: &[f64]) -> (Vec<u64>, Vec<u64>) {
    (
        values.iter().map(|v| v.to_bits()).collect(),
        probs.iter().map(|p| p.to_bits()).collect(),
    )
}

fn assert_same(what: &str, case: usize, got: &DiscretePdf, want: &oracle::Pdf) {
    assert_eq!(
        pdf_bits(got.values(), got.probs()),
        pdf_bits(&want.values, &want.probs),
        "{what} differs from the oracle in case {case}: {got:?} vs {want:?}"
    );
}

/// Raw `(value, mass)` points for the oracle comparison, drawn to hit the
/// cases where a merge could disagree with a sort: values on a coarse
/// grid (so sums tie three ways and more, with masses whose summation
/// order shows in the bits), negative supports, signed zeros, negative
/// subnormals (whose products round to -0.0), zero masses and masses so
/// small that their products underflow to zero.
fn oracle_points(rng: &mut StdRng) -> Vec<(f64, f64)> {
    let k = if rng.gen_bool(0.15) {
        1
    } else {
        rng.gen_range(1..=16usize)
    };
    let mode = rng.gen_range(0..4u32);
    let step = [0.25, 0.5, 1.0][rng.gen_range(0..3usize)];
    let mut points: Vec<(f64, f64)> = (0..k)
        .map(|_| {
            let v = match mode {
                0 => f64::from(rng.gen_range(-6..=6i32)) * step,
                1 => -1000.0 + 2000.0 * rng.gen::<f64>(),
                2 => -f64::from(rng.gen_range(0..=20u32)) * 5e-324,
                _ => [0.0, -0.0, 1.0, -1.0][rng.gen_range(0..4usize)],
            };
            let p = match rng.gen_range(0..8u32) {
                0 => 0.0,
                1 => 1e-170,
                2 => 0.5,
                _ => rng.gen::<f64>(),
            };
            (v, p)
        })
        .collect();
    if points.iter().all(|&(_, p)| p == 0.0) {
        points[0].1 = 1.0;
    }
    points
}

/// The merged-runs `add`, the one-pass `rebin` and the merge-based `max`
/// reproduce the old algorithms bit for bit.
#[test]
fn discrete_pdf_ops_match_the_sorting_oracle_bit_for_bit() {
    // The one-pass rebin folds its mean by hand from -0.0; that equals
    // `f64`'s `Sum` only because `Sum` folds from -0.0 too.
    assert_eq!(
        [-0.0f64].into_iter().sum::<f64>().to_bits(),
        (-0.0f64).to_bits()
    );
    let mut rng = StdRng::seed_from_u64(0x0dac_1501);
    for case in 0..10_000 {
        let (pa, pb) = (oracle_points(&mut rng), oracle_points(&mut rng));
        let n = rng.gen_range(1..=16usize);
        let (a, b) = (
            DiscretePdf::from_points(pa.clone()),
            DiscretePdf::from_points(pb.clone()),
        );
        let (oa, ob) = (oracle::Pdf::from_points(pa), oracle::Pdf::from_points(pb));
        assert_same("from_points", case, &a, &oa);
        assert_same("from_points", case, &b, &ob);

        let (sum, osum) = (a.add(&b), oa.add(&ob));
        assert_same("add", case, &sum, &osum);
        assert_same("add_rebinned", case, &a.add_rebinned(&b, n), &osum.rebin(n));
        assert_same("rebin", case, &sum.rebin(n), &osum.rebin(n));
        assert_same("rebin", case, &a.rebin(n), &oa.rebin(n));

        let (max, omax) = (a.max(&b), oa.max(&ob));
        assert_same("max", case, &max, &omax);
        assert_same("max_rebinned", case, &a.max_rebinned(&b, n), &omax.rebin(n));

        let target = match rng.gen_range(0..3u32) {
            0 => Moments::deterministic(-5.0 + 10.0 * rng.gen::<f64>()),
            _ => Moments::new(-5.0 + 10.0 * rng.gen::<f64>(), 4.0 * rng.gen::<f64>()),
        };
        let (stretched, ostretched) = (max.with_moments(target, n), omax.with_moments(target, n));
        assert_same(
            "with_moments+rebin",
            case,
            &stretched.rebin(n),
            &ostretched.rebin(n),
        );
        // A stretched support feeds the next sum, as in FULLSSTA.
        assert_same(
            "with_moments+add_rebinned",
            case,
            &b.add_rebinned(&stretched, n),
            &ob.add(&ostretched).rebin(n),
        );
    }
}

/// The result of `f` as bits, or its panic message.
fn outcome(f: impl FnOnce() -> (Vec<f64>, Vec<f64>)) -> Result<(Vec<u64>, Vec<u64>), String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .map(|(v, p)| pdf_bits(&v, &p))
        .map_err(|e| {
            e.downcast_ref::<String>()
                .cloned()
                .or_else(|| e.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_default()
        })
}

fn parts(p: &DiscretePdf) -> (Vec<f64>, Vec<f64>) {
    (p.values().to_vec(), p.probs().to_vec())
}

fn oracle_parts(p: &oracle::Pdf) -> (Vec<f64>, Vec<f64>) {
    (p.values.clone(), p.probs.clone())
}

/// A FULLSSTA-shaped pair: a wide arrival (a rebinned sum) and a narrow
/// gate delay whose support is `ratio` times the arrival's spacing, so
/// the convolution's rows are disjoint (small ratios), partly
/// interleaved, or tied across rows (`a` and `b` on one grid).
fn fullssta_pair(rng: &mut StdRng) -> [Vec<(f64, f64)>; 2] {
    let n = rng.gen_range(2..=12usize);
    let m = rng.gen_range(1..=12usize);
    if rng.gen_bool(0.3) {
        // One grid: row `i` ends exactly where row `i + k` starts.
        let step = [0.25, 0.5, 1.0][rng.gen_range(0..3usize)];
        let span = rng.gen_range(0..=3usize) as f64;
        let a = (0..n)
            .map(|i| (100.0 + i as f64 * step, rng.gen::<f64>() + 1e-3))
            .collect();
        let b = (0..m)
            .map(|j| {
                let x = if m == 1 {
                    0.0
                } else {
                    span * step * j as f64 / (m - 1) as f64
                };
                (3.0 + x, rng.gen::<f64>() + 1e-3)
            })
            .collect();
        return [a, b];
    }
    let (mean, sigma) = (1000.0 * rng.gen::<f64>(), 1.0 + 200.0 * rng.gen::<f64>());
    let arrival = DiscretePdf::from_normal(mean, sigma, 24).rebin(n);
    let spacing = 8.0 * sigma / n as f64;
    let ratio = [0.05, 0.5, 0.95, 1.0, 1.5, 3.0][rng.gen_range(0..6usize)];
    let delay = DiscretePdf::from_normal(20.0, ratio * spacing / 8.0, m);
    let pts = |p: &DiscretePdf| {
        p.values()
            .iter()
            .copied()
            .zip(p.probs().iter().copied())
            .collect()
    };
    [pts(&arrival), pts(&delay)]
}

/// The convolution and its rebin on FULLSSTA-shaped rows — disjoint,
/// partly interleaved and tied across rows — match the sorting oracle.
#[test]
fn fullssta_shaped_sums_match_the_sorting_oracle_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(0x0dac_1901);
    for case in 0..4_000 {
        let [pa, pb] = fullssta_pair(&mut rng);
        let n = rng.gen_range(1..=16usize);
        let (a, b) = (
            DiscretePdf::from_points(pa.clone()),
            DiscretePdf::from_points(pb.clone()),
        );
        let (oa, ob) = (oracle::Pdf::from_points(pa), oracle::Pdf::from_points(pb));
        let osum = oa.add(&ob);
        assert_same("add", case, &a.add(&b), &osum);
        assert_same("add_rebinned", case, &a.add_rebinned(&b, n), &osum.rebin(n));
        assert_same(
            "add_rebinned (swapped)",
            case,
            &b.add_rebinned(&a, n),
            &ob.add(&oa).rebin(n),
        );
    }
}

/// The oracle's `from_normal` outcome with its one panic replaced: where
/// σ is too small for any bin to hold mass it panicked, and `from_normal`
/// now answers the σ = 0 point mass at `mean` instead.
fn massless_is_a_point_mass(
    mean: f64,
    want: Result<(Vec<u64>, Vec<u64>), String>,
) -> Result<(Vec<u64>, Vec<u64>), String> {
    match want {
        Err(e) if e == "total probability mass must be positive" => {
            outcome(|| oracle_parts(&oracle::Pdf::deterministic(mean)))
        }
        other => other,
    }
}

/// `from_normal` (and `from_moments`) against the oracle's two CDFs per
/// bin, over seeded `(mean, σ, n)` — one bin, zero σ, σ so small that
/// the bins collapse, and σ so large that the edges lose precision.
#[test]
fn from_normal_matches_the_two_cdf_oracle_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(0x0dac_1902);
    let sigmas = [0.0, 5e-324, 1e-300, 1e-12, 1e-3, 1.0, 37.5, 1e6, 1e150];
    for case in 0..6_000 {
        let mean = match rng.gen_range(0..4u32) {
            0 => 0.0,
            1 => -1e4 + 2e4 * rng.gen::<f64>(),
            2 => 1e3 * f64::from(rng.gen_range(-5..=5i32)),
            _ => 1e-3 * rng.gen::<f64>(),
        };
        let sigma = if rng.gen_bool(0.3) {
            sigmas[rng.gen_range(0..sigmas.len())]
        } else {
            100.0 * rng.gen::<f64>()
        };
        let n = if rng.gen_bool(0.15) {
            1
        } else {
            rng.gen_range(1..=40usize)
        };
        let got = outcome(|| parts(&DiscretePdf::from_normal(mean, sigma, n)));
        let want = massless_is_a_point_mass(
            mean,
            outcome(|| oracle_parts(&oracle::Pdf::from_normal(mean, sigma, n))),
        );
        assert_eq!(got, want, "from_normal({mean}, {sigma}, {n}), case {case}");
        let m = Moments::from_mean_std(mean, sigma);
        let got = outcome(|| parts(&DiscretePdf::from_moments(m, n)));
        let want = massless_is_a_point_mass(
            m.mean,
            outcome(|| oracle_parts(&oracle::Pdf::from_moments(m, n))),
        );
        assert_eq!(got, want, "from_moments({m:?}, {n}), case {case}");
    }
}

/// The fused correlated max equals `max → with_moments → rebin` of the
/// oracle, on raw points and on FULLSSTA-shaped pairs, for point-mass,
/// spread and stretching targets.
#[test]
fn fused_correlated_max_matches_the_oracle_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(0x0dac_1903);
    for case in 0..6_000 {
        let [pa, pb] = if rng.gen_bool(0.5) {
            [oracle_points(&mut rng), oracle_points(&mut rng)]
        } else {
            fullssta_pair(&mut rng)
        };
        let n = rng.gen_range(1..=16usize);
        let (a, b) = (
            DiscretePdf::from_points(pa.clone()),
            DiscretePdf::from_points(pb.clone()),
        );
        let (oa, ob) = (oracle::Pdf::from_points(pa), oracle::Pdf::from_points(pb));
        let omax = oa.max(&ob);
        let m = a.max(&b).moments();
        let target = match rng.gen_range(0..4u32) {
            0 => Moments::deterministic(m.mean),
            1 => m,
            2 => Moments::new(
                m.mean + 10.0 * rng.gen::<f64>(),
                m.var * 4.0 * rng.gen::<f64>(),
            ),
            _ => Moments::new(-5.0 + 10.0 * rng.gen::<f64>(), 4.0 * rng.gen::<f64>()),
        };
        let got = outcome(|| parts(&a.max_with_moments(&b, target, n)));
        let want = outcome(|| oracle_parts(&omax.with_moments(target, n).rebin(n)));
        assert_eq!(got, want, "max_with_moments, case {case}");
        assert_same("max_rebinned", case, &a.max_rebinned(&b, n), &omax.rebin(n));
    }
}
