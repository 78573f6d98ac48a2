//! Discretized probability density functions and the `sum`/`max` operations
//! of the accurate SSTA engine (FULLSSTA).
//!
//! Following Liou et al. (DAC'01, the paper's reference \[15\] and the basis of
//! its FULLSSTA component), arrival-time distributions are discretized at a
//! user-controlled sampling rate — the paper uses 10–15 samples per PDF as a
//! speed/accuracy tradeoff. Propagation needs two operations:
//!
//! * **sum** — convolution of independent PDFs (arrival + arc delay),
//! * **max** — for independent arrivals, the CDF of the max is the product
//!   of the input CDFs.
//!
//! After every operation the support is re-discretized ("rebinned") back to
//! the configured sample count so cost stays bounded along arbitrarily deep
//! circuits.
//!
//! # Cost and bit-identity
//!
//! Each operation gives the same bits as its textbook form: build every
//! point, stably sort them, merge duplicates, normalize, then bin into
//! arrays. FULLSSTA's node kernel — [`add_rebinned`](DiscretePdf::add_rebinned),
//! [`max_rebinned`](DiscretePdf::max_rebinned) and
//! [`max_with_moments`](DiscretePdf::max_with_moments) — gets there with
//! less work:
//!
//! * **One slice form per kernel.** [`PdfOut`] runs each of
//!   FULLSSTA's kernels — [`from_moments`](PdfOut::from_moments),
//!   [`add_rebinned`](PdfOut::add_rebinned),
//!   [`max_rebinned`](PdfOut::max_rebinned) and
//!   [`max_with_moments`](PdfOut::max_with_moments) — on borrowed
//!   inputs ([`PdfRef`]) and writes the result into the caller's
//!   buffers, one stride of a flat PDF store, allocating nothing. The
//!   [`DiscretePdf`] methods of the same names run the same code into a
//!   thread-local stride and copy the result out: its two vectors are
//!   their only allocations.
//! * **One fused pass per kernel.** The convolution or the max goes into
//!   a thread's reused scratch arrays, is deduplicated and normalized
//!   there, and is rebinned straight from those arrays into the result.
//!   Inputs too large for the retained scratch (over 256 points) get
//!   scratch of their own, so what a thread keeps stays bounded.
//! * **sum** merges the convolution's rows instead of sorting them. Row
//!   `i` (`a_i + b_j` over increasing `j`) is already sorted, since
//!   rounding is monotone and `x + y` is -0.0 only when both terms are.
//!   When every row ends at or before the next one starts — a wide
//!   arrival plus a narrow delay, FULLSSTA's usual shape — the rows are
//!   already in order and nothing moves. Otherwise a stable bottom-up
//!   merge copies each run pair's non-overlapping head and tail (the
//!   whole pair when it is already in order) and picks the overlap
//!   without branches. A tie takes the left run first, so ties keep
//!   row-major order, exactly as a stable sort does. Points carry the
//!   integer key that `f64::total_cmp` compares; the key maps back to
//!   the value, so a point is 16 bytes.
//! * **max** merges its two sorted supports with the same stable merge.
//! * **rebin** takes the mean and the bin sums in one pass. Sorted points
//!   visit the bins in order, so a bin's sums are final once the next bin
//!   starts.
//! * **The correlated max** ([`max_with_moments`](DiscretePdf::max_with_moments))
//!   stretches the max's shape to the target moments in place, with the
//!   stretch [`with_moments`](DiscretePdf::with_moments) uses, and
//!   rebins it, instead of building the max and the stretched copy.
//! * **from_normal** shares a bin edge's CDF with the next bin when the
//!   two edges are the same `f64`: the CDF is a pure function of its
//!   argument, so the shared value is the one a second call returns. Its
//!   bins are already in `total_cmp` order, so they are normalized where
//!   they are written, with no sort.
//!
//! The rules that keep the bits equal:
//!
//! * Sums fold left to right from -0.0, as `f64`'s `Sum` does.
//! * Zero-mass points are dropped before duplicate values merge.
//! * Divisions stay divisions: no reciprocal, no `mul_add`.
//!
//! The merges rely on every support being sorted under `total_cmp`. Every
//! constructor keeps it so: `shift`, `scale` and the moment-matching
//! stretches are monotone maps, and they never turn a `+0.0` before a
//! `-0.0`. Debug builds assert it.
//!
//! `tests/proptest_stats.rs` pins all of this against a verbatim copy of
//! the old algorithms, and `tests/kernel_allocations.rs` counts the
//! kernels' allocations: two for a warm [`DiscretePdf`] kernel, none for
//! a slice form.

use std::cell::RefCell;

use crate::moments::Moments;
use crate::normal::Normal;

/// Default number of support points per PDF; the paper's recommended range
/// is 10–15 ("a reasonable tradeoff between accuracy and speed").
pub const DEFAULT_SAMPLES: usize = 12;

/// How many standard deviations of support to cover when discretizing a
/// normal distribution.
const SUPPORT_SIGMAS: f64 = 4.0;

/// The most points a kernel keeps in its thread's reused scratch: a
/// 16 × 16 convolution. At that size the four buffers hold 12 KiB; at
/// the default 12 samples, 6.75 KiB.
const SCRATCH_POINTS: usize = 256;

/// A discrete probability distribution: sorted support points with
/// associated probability masses summing to 1.
///
/// # Example
///
/// ```
/// use vartol_stats::DiscretePdf;
///
/// let a = DiscretePdf::from_normal(100.0, 10.0, 15);
/// let b = DiscretePdf::from_normal(95.0, 20.0, 15);
/// let arrival = a.max(&b).rebin(15);
/// assert!(arrival.mean() > 100.0);
/// assert!(arrival.std() < 20.0);
/// ```
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DiscretePdf {
    /// Support values, strictly increasing.
    values: Vec<f64>,
    /// Probability mass at each support value; sums to 1.
    probs: Vec<f64>,
}

impl DiscretePdf {
    /// Creates a PDF from raw `(value, probability)` pairs.
    ///
    /// Pairs are sorted by value, duplicate values merged, and probabilities
    /// normalized to sum to 1. Zero-probability points are dropped.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty, any probability is negative, the total
    /// mass is zero, or any value is non-finite.
    #[must_use]
    pub fn from_points(points: Vec<(f64, f64)>) -> Self {
        let mut points: Vec<Keyed> = points.into_iter().map(keyed).collect();
        check_points(&points);
        points.sort_by_key(|x| x.0);
        Self::from_sorted(&points)
    }

    /// The tail of [`from_points`](Self::from_points): merges duplicate
    /// values and normalizes `points`, which are checked and stably
    /// sorted by key.
    fn from_sorted(points: &[Keyed]) -> Self {
        let mut values = vec![0.0; points.len()];
        let mut probs = vec![0.0; points.len()];
        let len = normalize(
            points,
            &mut PdfOut {
                values: &mut values,
                probs: &mut probs,
            },
        );
        values.truncate(len);
        probs.truncate(len);
        Self { values, probs }
    }

    /// A deterministic distribution: all mass on one value.
    #[must_use]
    pub fn deterministic(value: f64) -> Self {
        Self::from_points(vec![(value, 1.0)])
    }

    /// Discretizes `N(mean, sigma²)` into `n` equal-width bins spanning
    /// ±4σ, each bin represented by its midpoint with the bin's exact
    /// normal probability mass.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `sigma < 0`.
    #[must_use]
    pub fn from_normal(mean: f64, sigma: f64, n: usize) -> Self {
        with_out(n, n, |s, out| s.normal(mean, sigma, n, out))
    }

    /// Discretizes a normal given as [`Moments`].
    #[must_use]
    pub fn from_moments(m: Moments, n: usize) -> Self {
        Self::from_normal(m.mean, m.std(), n)
    }

    /// This distribution borrowed, as the slice kernels read it.
    #[must_use]
    pub fn view(&self) -> PdfRef<'_> {
        PdfRef {
            values: &self.values,
            probs: &self.probs,
        }
    }

    /// Overwrites this distribution with `src`, reusing its buffers: no
    /// allocation when they already hold `src.len()` points.
    pub fn assign(&mut self, src: PdfRef<'_>) {
        self.values.clear();
        self.values.extend_from_slice(src.values);
        self.probs.clear();
        self.probs.extend_from_slice(src.probs);
    }

    /// The support values (strictly increasing).
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The probability masses (parallel to [`values`](Self::values)).
    #[must_use]
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// Number of support points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if the distribution is a single point mass.
    #[must_use]
    pub fn is_deterministic(&self) -> bool {
        self.values.len() == 1
    }

    /// Always false: a valid PDF has at least one point.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Mean of the distribution.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.view().mean()
    }

    /// Variance of the distribution.
    #[must_use]
    pub fn var(&self) -> f64 {
        self.view().var()
    }

    /// Standard deviation.
    #[must_use]
    pub fn std(&self) -> f64 {
        self.var().sqrt()
    }

    /// First two moments as a [`Moments`] value.
    #[must_use]
    pub fn moments(&self) -> Moments {
        self.view().moments()
    }

    /// Smallest support value.
    #[must_use]
    pub fn min_value(&self) -> f64 {
        self.values[0]
    }

    /// Largest support value.
    #[must_use]
    pub fn max_value(&self) -> f64 {
        *self.values.last().expect("non-empty by construction")
    }

    /// `P(X ≤ x)` (right-continuous step function).
    #[must_use]
    pub fn cdf(&self, x: f64) -> f64 {
        self.view().cdf(x)
    }

    /// Smallest support value `x` with `P(X ≤ x) ≥ p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, p: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&p),
            "quantile requires p in [0,1], got {p}"
        );
        let mut acc = 0.0;
        for (v, q) in self.values.iter().zip(&self.probs) {
            acc += q;
            if acc >= p {
                return *v;
            }
        }
        self.max_value()
    }

    /// Shifts the distribution by a constant.
    #[must_use]
    pub fn shift(&self, delta: f64) -> Self {
        Self {
            values: self.values.iter().map(|v| v + delta).collect(),
            probs: self.probs.clone(),
        }
    }

    /// Scales the underlying random variable by a positive constant.
    ///
    /// # Panics
    ///
    /// Panics if `k <= 0` (a non-positive scale would reverse or collapse
    /// the support ordering).
    #[must_use]
    pub fn scale(&self, k: f64) -> Self {
        assert!(k > 0.0, "scale factor must be positive, got {k}");
        Self {
            values: self.values.iter().map(|v| v * k).collect(),
            probs: self.probs.clone(),
        }
    }

    /// Sum of independent random variables (full discrete convolution).
    ///
    /// The result has up to `self.len() * other.len()` points; callers in
    /// propagation loops should use [`add_rebinned`](Self::add_rebinned).
    #[must_use]
    pub fn add(&self, other: &Self) -> Self {
        with_scratch(self.len() * other.len(), |s| {
            s.work.convolve(self.view(), other.view());
            Self::from_sorted(&s.work.points)
        })
    }

    /// Max of independent random variables via CDF multiplication:
    /// `F_max(x) = F_A(x) · F_B(x)` evaluated on the merged support.
    #[must_use]
    pub fn max(&self, other: &Self) -> Self {
        with_scratch(self.len() + other.len(), |s| {
            s.work.max_points(self.view(), other.view());
            Self::from_sorted(&s.work.points)
        })
    }

    /// Re-discretizes onto at most `n` equal-width bins spanning the current
    /// support. Each bin is represented by its conditional mean, then the
    /// support is rescaled about the overall mean so the **first two moments
    /// are preserved exactly** — without this correction, the within-bin
    /// variance discarded at every propagation step compounds into a large
    /// systematic sigma underestimate on deep circuits.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn rebin(&self, n: usize) -> Self {
        let cap = n.min(self.len());
        with_out(cap, cap, |s, out| {
            rebin_into(self.view(), n, &mut s.points, out)
        })
    }

    /// Affinely rescales the support so the distribution matches `target`
    /// moments exactly, keeping the (normalized) shape. Used by
    /// correlation-aware propagation: the *shape* of a max comes from the
    /// independent CDF product while the *moments* come from Clark's
    /// correlated formulas.
    ///
    /// Falls back to a discretized normal with `fallback_samples` points
    /// when this distribution is (numerically) a point mass but the target
    /// has spread.
    #[must_use]
    pub fn with_moments(&self, target: Moments, fallback_samples: usize) -> Self {
        let mut values = self.values.clone();
        match stretch(&mut values, &self.probs, target) {
            None => Self {
                values,
                probs: self.probs.clone(),
            },
            Some(Fallback::PointMass) => Self::deterministic(target.mean),
            Some(Fallback::Normal) => Self::from_moments(target, fallback_samples),
        }
    }

    /// `add` followed by `rebin(n)`, without building the convolution as
    /// a PDF: FULLSSTA's per-node sum ([`PdfOut::add_rebinned`], into a
    /// new PDF).
    #[must_use]
    pub fn add_rebinned(&self, other: &Self, n: usize) -> Self {
        let points = self.len() * other.len();
        with_out(points, n.min(points), |s, out| {
            s.add_rebinned(self.view(), other.view(), n, out)
        })
    }

    /// `max` followed by `rebin(n)`, without building the max as a PDF
    /// ([`PdfOut::max_rebinned`], into a new PDF).
    #[must_use]
    pub fn max_rebinned(&self, other: &Self, n: usize) -> Self {
        let points = self.len() + other.len();
        with_out(points, n.min(points), |s, out| {
            s.max_rebinned(self.view(), other.view(), n, out)
        })
    }

    /// The correlated max of FULLSSTA: the shape of the independent max,
    /// stretched to `target` moments (Clark's correlated ones) and
    /// rebinned to `n` points. Equals
    /// `self.max(other).with_moments(target, n).rebin(n)` bit for bit,
    /// without building the max or the stretched copy
    /// ([`PdfOut::max_with_moments`], into a new PDF).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn max_with_moments(&self, other: &Self, target: Moments, n: usize) -> Self {
        with_out(self.len() + other.len(), n, |s, out| {
            s.max_with_moments(self.view(), other.view(), target, n, out)
        })
    }
}

/// A borrowed discrete PDF: sorted support values and their masses. The
/// slice kernels ([`PdfOut`]) read it; [`DiscretePdf::view`] lends one
/// and a flat store of PDFs ([`PdfRef::from_stride`]) holds them without
/// a heap block each.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PdfRef<'a> {
    values: &'a [f64],
    probs: &'a [f64],
}

impl<'a> PdfRef<'a> {
    /// The PDF `(values, probs)`, as a [`DiscretePdf`] holds them:
    /// values sorted and distinct, masses positive and summing to 1.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ or are zero.
    #[must_use]
    pub fn new(values: &'a [f64], probs: &'a [f64]) -> Self {
        assert!(
            values.len() == probs.len() && !values.is_empty(),
            "a pdf needs as many masses as values, and at least one"
        );
        Self { values, probs }
    }

    /// The first `len` points of one stride `buf` that a
    /// [`PdfOut::new`] of the same buffer wrote: values in its first
    /// half, masses in its second.
    #[must_use]
    pub fn from_stride(buf: &'a [f64], len: usize) -> Self {
        let cap = buf.len() / 2;
        Self::new(&buf[..len], &buf[cap..cap + len])
    }

    /// The support values.
    #[must_use]
    pub fn values(self) -> &'a [f64] {
        self.values
    }

    /// The probability masses.
    #[must_use]
    pub fn probs(self) -> &'a [f64] {
        self.probs
    }

    /// Number of support points.
    #[must_use]
    pub fn len(self) -> usize {
        self.values.len()
    }

    /// Always false: a valid PDF has at least one point.
    #[must_use]
    pub fn is_empty(self) -> bool {
        false
    }

    /// Mean of the distribution.
    #[must_use]
    pub fn mean(self) -> f64 {
        mean_of(self.values, self.probs)
    }

    /// Variance of the distribution.
    #[must_use]
    pub fn var(self) -> f64 {
        var_about(self.values, self.probs, self.mean())
    }

    /// First two moments as a [`Moments`] value.
    #[must_use]
    pub fn moments(self) -> Moments {
        Moments::new(self.mean(), self.var())
    }

    /// `P(X ≤ x)` (right-continuous step function).
    #[must_use]
    pub fn cdf(self, x: f64) -> f64 {
        let mut acc = 0.0;
        for (v, p) in self.values.iter().zip(self.probs) {
            if *v <= x {
                acc += p;
            } else {
                break;
            }
        }
        acc.min(1.0)
    }

    /// An owned copy.
    #[must_use]
    pub fn to_pdf(self) -> DiscretePdf {
        DiscretePdf {
            values: self.values.to_vec(),
            probs: self.probs.to_vec(),
        }
    }
}

/// A caller's buffers that one slice kernel writes a PDF into: room for
/// as many points as the kernel's result can have (`n` for a kernel
/// given `n`). Each kernel returns the [`PdfRef`] of what it wrote and
/// allocates nothing once this thread's scratch is sized.
#[derive(Debug)]
pub struct PdfOut<'a> {
    values: &'a mut [f64],
    probs: &'a mut [f64],
}

impl<'a> PdfOut<'a> {
    /// One stride of a flat PDF store: values go into the first half of
    /// `buf` and masses into the second ([`PdfRef::from_stride`] reads
    /// them back).
    #[must_use]
    pub fn new(buf: &'a mut [f64]) -> Self {
        let cap = buf.len() / 2;
        let (values, rest) = buf.split_at_mut(cap);
        Self {
            values,
            probs: &mut rest[..cap],
        }
    }

    /// [`DiscretePdf::from_moments`]: `N(m)` in `n` bins.
    pub fn from_moments(mut self, m: Moments, n: usize) -> PdfRef<'a> {
        let len = with_scratch(n, |s| s.work.normal(m.mean, m.std(), n, &mut self));
        self.written(len)
    }

    /// [`DiscretePdf::add_rebinned`] of `a` and `b`.
    pub fn add_rebinned(mut self, a: PdfRef<'_>, b: PdfRef<'_>, n: usize) -> PdfRef<'a> {
        let len = with_scratch(a.len() * b.len(), |s| {
            s.work.add_rebinned(a, b, n, &mut self)
        });
        self.written(len)
    }

    /// [`DiscretePdf::max_rebinned`] of `a` and `b`.
    pub fn max_rebinned(mut self, a: PdfRef<'_>, b: PdfRef<'_>, n: usize) -> PdfRef<'a> {
        let len = with_scratch(a.len() + b.len(), |s| {
            s.work.max_rebinned(a, b, n, &mut self)
        });
        self.written(len)
    }

    /// [`DiscretePdf::max_with_moments`] of `a` and `b`.
    pub fn max_with_moments(
        mut self,
        a: PdfRef<'_>,
        b: PdfRef<'_>,
        target: Moments,
        n: usize,
    ) -> PdfRef<'a> {
        let len = with_scratch((a.len() + b.len()).max(n), |s| {
            s.work.max_with_moments(a, b, target, n, &mut self)
        });
        self.written(len)
    }

    /// A copy of `src`.
    pub fn copy(self, src: PdfRef<'_>) -> PdfRef<'a> {
        let len = src.len();
        self.values[..len].copy_from_slice(src.values);
        self.probs[..len].copy_from_slice(src.probs);
        self.written(len)
    }

    /// The first `len` points written.
    fn written(self, len: usize) -> PdfRef<'a> {
        let (values, probs): (&'a [f64], &'a [f64]) = (self.values, self.probs);
        PdfRef {
            values: &values[..len],
            probs: &probs[..len],
        }
    }

    /// All mass on `value`, as [`DiscretePdf::deterministic`] builds it.
    fn point_mass(&mut self, value: f64) -> usize {
        assert!(
            value.is_finite(),
            "support value must be finite, got {value}"
        );
        self.values[0] = value;
        self.probs[0] = 1.0;
        1
    }
}

/// A support point with its sort key: `(total_key(value), mass)`. The key
/// maps back to the value ([`key_value`]).
type Keyed = (i64, f64);

/// `(value, mass)` with its sort key.
fn keyed((v, p): (f64, f64)) -> Keyed {
    (total_key(v), p)
}

/// The input checks of [`DiscretePdf::from_points`], in its order.
fn check_points(points: &[Keyed]) {
    assert!(
        !points.is_empty(),
        "a discrete pdf needs at least one point"
    );
    for &(key, p) in points {
        let v = key_value(key);
        assert!(v.is_finite(), "support value must be finite, got {v}");
        assert!(
            p.is_finite() && p >= 0.0,
            "probability must be finite and non-negative, got {p}"
        );
    }
}

/// The integer whose order is `f64::total_cmp`'s order — the transform
/// `total_cmp` itself applies, done once per point instead of per
/// comparison.
fn total_key(v: f64) -> i64 {
    flip_magnitude(v.to_bits() as i64)
}

/// The value whose [`total_key`] is `key`.
fn key_value(key: i64) -> f64 {
    f64::from_bits(flip_magnitude(key) as u64)
}

/// Flips the 63 magnitude bits of a negative number: its own inverse.
fn flip_magnitude(bits: i64) -> i64 {
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// `Σ v·p`, folded from -0.0 as `f64`'s `Sum` does.
fn mean_of(values: &[f64], probs: &[f64]) -> f64 {
    values.iter().zip(probs).map(|(v, p)| v * p).sum()
}

/// The variance of `(values, probs)` given their mean `m`.
fn var_about(values: &[f64], probs: &[f64], m: f64) -> f64 {
    let v: f64 = values
        .iter()
        .zip(probs)
        .map(|(v, p)| (v - m) * (v - m) * p)
        .sum();
    v.max(0.0)
}

/// What [`stretch`] could not do: the distribution to use instead, at
/// the target's moments.
enum Fallback {
    /// A target without spread: a point mass at its mean.
    PointMass,
    /// A shape without spread: a discretized normal.
    Normal,
}

/// The stretch of [`DiscretePdf::with_moments`]: maps `values` in place,
/// `x → target.mean + k·(x − m0)`, so that `(values, probs)` has the
/// `target` moments, and returns `None`. When no stretch can — a target
/// without spread, or a shape without spread — it leaves `values` alone
/// and says what to use instead.
fn stretch(values: &mut [f64], probs: &[f64], target: Moments) -> Option<Fallback> {
    if target.var <= 0.0 {
        return Some(Fallback::PointMass);
    }
    let m0 = mean_of(values, probs);
    let v0 = var_about(values, probs, m0);
    if v0 <= 0.0 {
        return Some(Fallback::Normal);
    }
    let k = (target.var / v0).sqrt();
    for x in values {
        *x = target.mean + k * (*x - m0);
    }
    None
}

/// Merges the duplicate values of checked, stably key-sorted `points`,
/// dropping zero masses first, and normalizes them into `out`; returns
/// how many points it wrote.
fn normalize(points: &[Keyed], out: &mut PdfOut<'_>) -> usize {
    let (values, probs) = (&mut *out.values, &mut *out.probs);
    // The total folds each merged mass once it is final, from -0.0 as
    // `f64`'s `Sum` does.
    let mut total = -0.0;
    let mut len = 0;
    for &(key, p) in points {
        if p == 0.0 {
            continue;
        }
        let v = key_value(key);
        if len > 0 {
            if v - values[len - 1] == 0.0 {
                probs[len - 1] += p;
                continue;
            }
            total += probs[len - 1];
        }
        values[len] = v;
        probs[len] = p;
        len += 1;
    }
    assert!(len > 0, "total probability mass must be positive");
    total += probs[len - 1];
    assert!(total > 0.0, "total probability mass must be positive");
    for p in &mut probs[..len] {
        *p /= total;
    }
    len
}

/// [`DiscretePdf::rebin`] of `pdf` into `out`; `coarse` is scratch for
/// the bins. Returns how many points it wrote.
fn rebin_into(pdf: PdfRef<'_>, n: usize, coarse: &mut Vec<Keyed>, out: &mut PdfOut<'_>) -> usize {
    assert!(n > 0, "need at least one bin");
    let (values, probs) = (pdf.values, pdf.probs);
    if values.len() <= n {
        out.values[..values.len()].copy_from_slice(values);
        out.probs[..probs.len()].copy_from_slice(probs);
        return values.len();
    }
    let lo = values[0];
    let hi = values[values.len() - 1];
    if hi - lo <= 0.0 {
        return out.point_mass(lo);
    }
    let width = (hi - lo) / n as f64;
    // One pass: the mean, plus the bins — sorted points visit them
    // in order, so a bin's sums are final once the next bin starts.
    // The mean folds from -0.0, as `f64`'s `Sum` does.
    debug_assert!(values.is_sorted_by(|x, y| x.total_cmp(y).is_le()));
    coarse.clear();
    coarse.reserve_exact(n);
    let mut target_mean = -0.0;
    let (mut bin, mut mass, mut weighted) = (0, 0.0f64, 0.0f64);
    for (&v, &p) in values.iter().zip(probs) {
        target_mean += v * p;
        let idx = (((v - lo) / width) as usize).min(n - 1);
        if idx != bin {
            if mass > 0.0 {
                coarse.push(keyed((weighted / mass, mass)));
            }
            (bin, mass, weighted) = (idx, 0.0, 0.0);
        }
        mass += p;
        weighted += p * v;
    }
    if mass > 0.0 {
        coarse.push(keyed((weighted / mass, mass)));
    }
    let target_var = var_about(values, probs, target_mean);
    check_points(coarse);
    coarse.sort_by_key(|x| x.0);
    let len = normalize(coarse, out);

    // Variance correction: stretch the support about the mean.
    let got_var = PdfRef::new(&out.values[..len], &out.probs[..len]).var();
    if got_var <= 0.0 || target_var <= 0.0 {
        return len;
    }
    let k = (target_var / got_var).sqrt();
    for v in &mut out.values[..len] {
        *v = target_mean + k * (*v - target_mean);
    }
    len
}

/// A thread's reused kernel scratch: the working arrays, plus the result
/// buffer of the allocating [`DiscretePdf`] wrappers.
#[derive(Default)]
struct Scratch {
    work: Work,
    /// One stride ([`PdfOut::new`]) a wrapper's result is written into
    /// before it is copied out.
    out: Vec<f64>,
}

/// The working arrays of the fused kernels.
#[derive(Default)]
struct Work {
    /// Keyed points: a convolution, a max or a normal's bins before
    /// normalization, then a rebin's bins.
    points: Vec<Keyed>,
    /// The merge's second buffer.
    spare: Vec<Keyed>,
    /// A normalized distribution (or a max's merged support).
    values: Vec<f64>,
    probs: Vec<f64>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Runs `f` on this thread's reused scratch, or on scratch of its own
/// when a buffer may need more than [`SCRATCH_POINTS`] points.
fn with_scratch<R>(points: usize, f: impl FnOnce(&mut Scratch) -> R) -> R {
    if points > SCRATCH_POINTS {
        return f(&mut Scratch::default());
    }
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

/// Runs `kernel` on this thread's scratch into a result buffer of `cap`
/// points and copies the result out: its two vectors are the only
/// allocations once the scratch is sized.
fn with_out(
    points: usize,
    cap: usize,
    kernel: impl FnOnce(&mut Work, &mut PdfOut<'_>) -> usize,
) -> DiscretePdf {
    with_scratch(points.max(cap), |s| {
        if s.out.len() < 2 * cap {
            s.out.resize(2 * cap, 0.0);
        }
        let (values, rest) = s.out.split_at_mut(cap);
        let probs = &mut rest[..cap];
        let len = kernel(
            &mut s.work,
            &mut PdfOut {
                values: &mut *values,
                probs: &mut *probs,
            },
        );
        DiscretePdf {
            values: values[..len].to_vec(),
            probs: probs[..len].to_vec(),
        }
    })
}

impl Work {
    /// [`DiscretePdf::from_normal`] into `out`.
    fn normal(&mut self, mean: f64, sigma: f64, n: usize, out: &mut PdfOut<'_>) -> usize {
        assert!(n > 0, "need at least one sample point");
        if sigma == 0.0 {
            return out.point_mass(mean);
        }
        let dist = Normal::new(mean, sigma);
        let lo = mean - SUPPORT_SIGMAS * sigma;
        let hi = mean + SUPPORT_SIGMAS * sigma;
        let width = (hi - lo) / n as f64;
        let points = &mut self.points;
        points.clear();
        // The previous bin's upper edge and its CDF: a lower edge that is
        // the same `f64` has the same CDF.
        let mut edge: Option<(u64, f64)> = None;
        for i in 0..n {
            let a = lo + i as f64 * width;
            let b = a + width;
            let cdf_a = match edge {
                Some((bits, cdf)) if bits == a.to_bits() => cdf,
                _ => dist.cdf(a),
            };
            let cdf_b = dist.cdf(b);
            points.push(keyed((0.5 * (a + b), cdf_b - cdf_a)));
            edge = Some((b.to_bits(), cdf_b));
        }
        // A σ below the mean's resolution rounds every bin edge to one
        // value, leaving no mass anywhere: that is the point mass σ = 0
        // gives.
        if points.iter().all(|&(_, mass)| mass == 0.0) {
            return out.point_mass(mean);
        }
        check_points(points);
        // Every step from `i` to a midpoint is a monotone rounding, and
        // a midpoint is -0.0 only below every +0.0 one, so the bins are
        // already in `total_cmp` order: the stable sort of `from_points`
        // would move nothing.
        debug_assert!(points.is_sorted_by_key(|x| x.0));
        normalize(points, out)
    }

    /// The convolution of `a` and `b` into `points`, checked and stably
    /// sorted by key.
    fn convolve(&mut self, a: PdfRef<'_>, b: PdfRef<'_>) {
        let points = &mut self.points;
        points.clear();
        points.reserve_exact(a.len() * b.len());
        let mut valid = true;
        for (&va, &pa) in a.values.iter().zip(a.probs) {
            points.extend(b.values.iter().zip(b.probs).map(|(&vb, &pb)| {
                let (v, p) = (va + vb, pa * pb);
                valid &= v.is_finite() & p.is_finite() & (p >= 0.0);
                (total_key(v), p)
            }));
        }
        if !valid {
            check_points(points);
        }
        // With `b` sorted, row `i` — `a_i + b_j` over increasing `j` — is
        // sorted too (rounding is monotone, and `x + y` is -0.0 only when
        // both are), so merging the rows is the stable sort.
        merge_runs(points, &mut self.spare, b.len());
    }

    /// The masses of `F_a · F_b` over the merged support of `a` and `b`
    /// into `points`, checked and sorted.
    fn max_points(&mut self, a: PdfRef<'_>, b: PdfRef<'_>) {
        let support = &mut self.values;
        support.clear();
        support.resize(a.len() + b.len(), 0.0);
        merge_pair(a.values, b.values, support, total_key);

        // Running CDFs over the merged support, then difference to masses.
        // A repeated value adds no mass.
        let points = &mut self.points;
        points.clear();
        let mut prev = 0.0;
        let (mut ia, mut ib) = (0usize, 0usize);
        let (mut fa, mut fb) = (0.0f64, 0.0f64);
        for &x in support.iter() {
            while ia < a.len() && a.values[ia] <= x {
                fa += a.probs[ia];
                ia += 1;
            }
            while ib < b.len() && b.values[ib] <= x {
                fb += b.probs[ib];
                ib += 1;
            }
            let f = (fa * fb).min(1.0);
            let mass = f - prev;
            if mass > 0.0 {
                points.push(keyed((x, mass)));
            }
            prev = f;
        }
        // `support` is sorted, so `points` is too.
        check_points(points);
    }

    /// `points`, deduplicated and normalized into `values` and `probs`.
    fn normalize_points(&mut self) {
        let len = self.points.len();
        self.values.resize(len, 0.0);
        self.probs.resize(len, 0.0);
        let kept = normalize(
            &self.points,
            &mut PdfOut {
                values: &mut self.values,
                probs: &mut self.probs,
            },
        );
        self.values.truncate(kept);
        self.probs.truncate(kept);
    }

    /// `(values, probs)` rebinned to `n` points into `out`.
    fn rebinned(&mut self, n: usize, out: &mut PdfOut<'_>) -> usize {
        rebin_into(
            PdfRef::new(&self.values, &self.probs),
            n,
            &mut self.points,
            out,
        )
    }

    /// [`DiscretePdf::add_rebinned`] into `out`.
    fn add_rebinned(
        &mut self,
        a: PdfRef<'_>,
        b: PdfRef<'_>,
        n: usize,
        out: &mut PdfOut<'_>,
    ) -> usize {
        self.convolve(a, b);
        self.normalize_points();
        self.rebinned(n, out)
    }

    /// [`DiscretePdf::max_rebinned`] into `out`.
    fn max_rebinned(
        &mut self,
        a: PdfRef<'_>,
        b: PdfRef<'_>,
        n: usize,
        out: &mut PdfOut<'_>,
    ) -> usize {
        self.max_points(a, b);
        self.normalize_points();
        self.rebinned(n, out)
    }

    /// [`DiscretePdf::max_with_moments`] into `out`.
    fn max_with_moments(
        &mut self,
        a: PdfRef<'_>,
        b: PdfRef<'_>,
        target: Moments,
        n: usize,
        out: &mut PdfOut<'_>,
    ) -> usize {
        assert!(n > 0, "need at least one bin");
        self.max_points(a, b);
        self.normalize_points();
        // A fallback — a point mass or a normal of `n` points — is
        // already rebinned.
        match stretch(&mut self.values, &self.probs, target) {
            None => self.rebinned(n, out),
            Some(Fallback::PointMass) => out.point_mass(target.mean),
            Some(Fallback::Normal) => self.normal(target.mean, target.std(), n, out),
        }
    }
}

/// Stable bottom-up merge of `points`, given as consecutive sorted runs
/// of `run` points (the last may be shorter), into one sorted sequence;
/// `spare` is the second buffer. On a tie the left run — the earlier
/// points — goes first, which is exactly the order a stable sort keeps.
fn merge_runs(points: &mut Vec<Keyed>, spare: &mut Vec<Keyed>, mut run: usize) {
    let len = points.len();
    if run == 0 || run >= len {
        return;
    }
    // Every run ends at or before the next one starts: already sorted.
    if (run..len)
        .step_by(run)
        .all(|start| points[start - 1].0 <= points[start].0)
    {
        return;
    }
    spare.clear();
    spare.resize(len, (0, 0.0));
    while run < len {
        for start in (0..len).step_by(2 * run) {
            let mid = (start + run).min(len);
            let end = (start + 2 * run).min(len);
            merge_pair(
                &points[start..mid],
                &points[mid..end],
                &mut spare[start..end],
                |x| x.0,
            );
        }
        std::mem::swap(points, spare);
        run *= 2;
    }
}

/// Stable merge of the runs `left` and `right`, sorted by `key`, into
/// `out`.
fn merge_pair<T: Copy>(left: &[T], right: &[T], out: &mut [T], key: impl Fn(T) -> i64) {
    debug_assert!(left.is_sorted_by_key(|&x| key(x)) && right.is_sorted_by_key(|&x| key(x)));
    let l = left.len();
    // Only the overlap interleaves: the left points up to `right[0]` go
    // first and the right points from `left[l - 1]` on go last (ties to
    // the left run). Runs already in order are two copies.
    let head = right
        .first()
        .map_or(l, |&first| left.partition_point(|&x| key(x) <= key(first)));
    let tail = left
        .last()
        .map_or(0, |&last| right.partition_point(|&x| key(x) < key(last)));
    out[..head].copy_from_slice(&left[..head]);
    out[l + tail..].copy_from_slice(&right[tail..]);
    // `right[..tail]` runs out first: each of its points is below
    // `left[l - 1]`, which therefore goes after all of them.
    let (mut i, mut j) = (head, 0);
    while j < tail {
        let take_right = key(right[j]) < key(left[i]);
        out[i + j] = if take_right { right[j] } else { left[i] };
        i += usize::from(!take_right);
        j += usize::from(take_right);
    }
    out[i + tail..l + tail].copy_from_slice(&left[i..]);
}

impl std::fmt::Display for DiscretePdf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "DiscretePdf({} pts, μ={:.4}, σ={:.4})",
            self.len(),
            self.mean(),
            self.std()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clark::clark_max;

    #[test]
    fn from_points_normalizes() {
        let pdf = DiscretePdf::from_points(vec![(1.0, 2.0), (2.0, 2.0)]);
        assert_eq!(pdf.probs(), &[0.5, 0.5]);
        assert!((pdf.mean() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn from_points_sorts_and_merges() {
        let pdf = DiscretePdf::from_points(vec![(2.0, 0.25), (1.0, 0.5), (2.0, 0.25)]);
        assert_eq!(pdf.values(), &[1.0, 2.0]);
        assert_eq!(pdf.probs(), &[0.5, 0.5]);
    }

    #[test]
    fn from_points_drops_zero_mass() {
        let pdf = DiscretePdf::from_points(vec![(1.0, 0.0), (2.0, 1.0)]);
        assert_eq!(pdf.len(), 1);
        assert!(pdf.is_deterministic());
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn empty_points_panics() {
        let _ = DiscretePdf::from_points(vec![]);
    }

    #[test]
    #[should_panic(expected = "probability must be finite and non-negative")]
    fn negative_probability_panics() {
        let _ = DiscretePdf::from_points(vec![(1.0, -0.5), (2.0, 1.5)]);
    }

    #[test]
    fn normal_discretization_preserves_moments() {
        for &(m, s) in &[(0.0, 1.0), (100.0, 10.0), (320.0, 27.0)] {
            for &n in &[10usize, 12, 15, 50] {
                let pdf = DiscretePdf::from_normal(m, s, n);
                assert!((pdf.mean() - m).abs() < 0.02 * s + 1e-9, "mean n={n}");
                // Discretization slightly shrinks sigma (±4σ truncation).
                assert!(
                    (pdf.std() - s).abs() < 0.08 * s + 1e-9,
                    "std n={n}: {}",
                    pdf.std()
                );
            }
        }
    }

    #[test]
    fn from_normal_below_the_means_resolution_is_a_point_mass() {
        // σ > 0, but every bin edge rounds to the mean: no bin has mass.
        for (mean, sigma) in [(100.0, 1e-15), (1000.0, 1e-300), (1.0, 5e-324)] {
            let pdf = DiscretePdf::from_normal(mean, sigma, 12);
            assert_eq!(pdf, DiscretePdf::deterministic(mean), "N({mean}, {sigma})");
        }
        // A σ the edges still resolve keeps its spread.
        assert_eq!(DiscretePdf::from_normal(0.0, 5e-324, 12).len(), 7);
        assert_eq!(DiscretePdf::from_normal(100.0, 1e-14, 12).len(), 3);
    }

    #[test]
    fn deterministic_pdf() {
        let pdf = DiscretePdf::deterministic(5.0);
        assert!(pdf.is_deterministic());
        assert_eq!(pdf.mean(), 5.0);
        assert_eq!(pdf.var(), 0.0);
        assert_eq!(pdf.cdf(4.9), 0.0);
        assert_eq!(pdf.cdf(5.0), 1.0);
    }

    #[test]
    fn zero_sigma_normal_is_deterministic() {
        let pdf = DiscretePdf::from_normal(3.0, 0.0, 15);
        assert!(pdf.is_deterministic());
        assert_eq!(pdf.mean(), 3.0);
    }

    #[test]
    fn add_means_and_variances() {
        let a = DiscretePdf::from_normal(100.0, 10.0, 15);
        let b = DiscretePdf::from_normal(50.0, 5.0, 15);
        let c = a.add(&b);
        assert!((c.mean() - 150.0).abs() < 0.1);
        let want_var = a.var() + b.var();
        assert!((c.var() - want_var).abs() < 0.01 * want_var);
    }

    #[test]
    fn add_with_deterministic_is_shift() {
        let a = DiscretePdf::from_normal(10.0, 2.0, 12);
        let c = a.add(&DiscretePdf::deterministic(5.0));
        assert!((c.mean() - (a.mean() + 5.0)).abs() < 1e-9);
        assert!((c.var() - a.var()).abs() < 1e-9);
    }

    #[test]
    fn max_matches_clark_for_normals() {
        let am = Moments::from_mean_std(320.0, 27.0);
        let bm = Moments::from_mean_std(310.0, 45.0);
        let a = DiscretePdf::from_moments(am, 60);
        let b = DiscretePdf::from_moments(bm, 60);
        let got = a.max(&b);
        let want = clark_max(am, bm).max;
        assert!(
            (got.mean() - want.mean).abs() < 1.0,
            "mean {} vs {}",
            got.mean(),
            want.mean
        );
        assert!(
            (got.std() - want.std()).abs() < 1.5,
            "std {} vs {}",
            got.std(),
            want.std()
        );
    }

    #[test]
    fn max_with_dominated_input_is_identity_like() {
        let a = DiscretePdf::from_normal(1000.0, 5.0, 15);
        let b = DiscretePdf::from_normal(0.0, 5.0, 15);
        let c = a.max(&b);
        assert!((c.mean() - a.mean()).abs() < 1e-6);
        assert!((c.std() - a.std()).abs() < 1e-6);
    }

    #[test]
    fn max_is_commutative() {
        let a = DiscretePdf::from_normal(10.0, 2.0, 12);
        let b = DiscretePdf::from_normal(11.0, 3.0, 12);
        let ab = a.max(&b);
        let ba = b.max(&a);
        assert!((ab.mean() - ba.mean()).abs() < 1e-12);
        assert!((ab.var() - ba.var()).abs() < 1e-12);
    }

    #[test]
    fn cdf_is_monotone_and_bounded() {
        let pdf = DiscretePdf::from_normal(0.0, 1.0, 15);
        let mut prev = 0.0;
        for i in -50..=50 {
            let f = pdf.cdf(f64::from(i) / 10.0);
            assert!(f >= prev && (0.0..=1.0).contains(&f));
            prev = f;
        }
        assert!((pdf.cdf(10.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_consistent_with_cdf() {
        let pdf = DiscretePdf::from_normal(50.0, 10.0, 30);
        for &p in &[0.05, 0.25, 0.5, 0.75, 0.95] {
            let q = pdf.quantile(p);
            assert!(pdf.cdf(q) >= p - 1e-12);
        }
        assert_eq!(pdf.quantile(0.0), pdf.min_value());
        assert_eq!(pdf.quantile(1.0), pdf.max_value());
    }

    #[test]
    fn shift_and_scale() {
        let pdf = DiscretePdf::from_normal(10.0, 2.0, 12);
        let s = pdf.shift(5.0);
        assert!((s.mean() - 15.0).abs() < 0.05);
        assert!((s.var() - pdf.var()).abs() < 1e-12);
        let k = pdf.scale(3.0);
        assert!((k.mean() - 30.0).abs() < 0.15);
        assert!((k.var() - 9.0 * pdf.var()).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "scale factor must be positive")]
    fn scale_rejects_nonpositive() {
        let _ = DiscretePdf::deterministic(1.0).scale(0.0);
    }

    #[test]
    fn rebin_preserves_mean_and_roughly_variance() {
        let a = DiscretePdf::from_normal(100.0, 10.0, 40);
        let b = DiscretePdf::from_normal(95.0, 12.0, 40);
        let big = a.add(&b); // 1600 points
        let small = big.rebin(12);
        assert!(small.len() <= 12);
        assert!(
            (small.mean() - big.mean()).abs() < 1e-9,
            "rebin preserves mean exactly"
        );
        assert!((small.std() - big.std()).abs() < 0.05 * big.std());
    }

    #[test]
    fn rebin_noop_when_already_small() {
        let pdf = DiscretePdf::from_normal(0.0, 1.0, 8);
        assert_eq!(pdf.rebin(12), pdf);
    }

    #[test]
    fn deep_propagation_stays_bounded_and_sane() {
        // Chain of 64 sums, rebinned at 12 points each step: variance should
        // grow linearly (independent sums), mean exactly linearly.
        let arc = DiscretePdf::from_normal(10.0, 1.0, 12);
        let mut acc = DiscretePdf::deterministic(0.0);
        for _ in 0..64 {
            acc = acc.add_rebinned(&arc, 12);
            assert!(acc.len() <= 12);
        }
        assert!((acc.mean() - 640.0).abs() < 1.0);
        let want_std = (64.0f64 * arc.var()).sqrt();
        assert!(
            (acc.std() - want_std).abs() < 0.15 * want_std,
            "std {} vs {want_std}",
            acc.std()
        );
    }

    #[test]
    fn with_moments_matches_target_exactly() {
        let pdf = DiscretePdf::from_normal(10.0, 2.0, 15);
        let target = Moments::from_mean_std(50.0, 7.0);
        let out = pdf.with_moments(target, 15);
        assert!((out.mean() - 50.0).abs() < 1e-9);
        assert!((out.std() - 7.0).abs() < 1e-9);
        assert_eq!(out.len(), pdf.len(), "shape preserved");
    }

    #[test]
    fn with_moments_degenerate_cases() {
        let point = DiscretePdf::deterministic(3.0);
        let spread = point.with_moments(Moments::from_mean_std(5.0, 2.0), 12);
        assert!((spread.mean() - 5.0).abs() < 0.05);
        assert!(spread.len() > 1, "fallback produces a real distribution");

        let pdf = DiscretePdf::from_normal(0.0, 1.0, 12);
        let collapsed = pdf.with_moments(Moments::deterministic(9.0), 12);
        assert!(collapsed.is_deterministic());
        assert_eq!(collapsed.mean(), 9.0);
    }

    #[test]
    fn display_mentions_moments() {
        let s = DiscretePdf::from_normal(1.0, 1.0, 10).to_string();
        assert!(s.contains("μ=") && s.contains("pts"));
    }
}
