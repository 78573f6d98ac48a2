//! The correlated process-variation model shared by every engine.
//!
//! # Why the independent model is not enough
//!
//! The library's per-gate [`vartol_liberty::VariationModel`] assigns each
//! gate delay a standard deviation σ (proportional component shrinking
//! with drive strength plus a random floor), and the engines historically
//! sampled every gate **independently** from `N(nominal, σ²)`. Real
//! process variation is not independent: die-to-die (D2D) parameter
//! shifts move *every* gate on a die together, and within-die systematic
//! variation is **spatially correlated** — nearby gates see nearly the
//! same deviation (Chang & Sapatnekar, ICCAD'03). Both effects change
//! circuit-level statistics dramatically: perfectly correlated variation
//! does not average down along a path the way independent variation
//! does, so the σ of the circuit delay grows, while the relative spread
//! between parallel paths shrinks.
//!
//! # The decomposition
//!
//! [`VariationModel`] decomposes each gate's delay deviation into three
//! zero-mean components, scaled by the gate's own σ from the library
//! model (so upsizing a gate still shrinks *all* of its variation):
//!
//! ```text
//! delay_i = nominal_i + σ_i · ( local · ε_i                       (independent)
//!                             + Σ_g  s_g · G_g                    (global / die-to-die)
//!                             + s_sp · S(x_i, y_i) )              (spatially correlated)
//! ```
//!
//! * `ε_i` — independent standard normals, one per gate (the legacy
//!   model); `local` is [`VariationModel::local_sigma_scale`].
//! * `G_g` — one standard normal **per global source** `g`, shared by
//!   every gate on the die ([`GlobalSource::sigma_scale`] is `s_g`).
//! * `S(x, y)` — a unit-variance spatially correlated Gaussian field
//!   sampled at the gate's position, with
//!   `Corr(S(p), S(q)) = exp(-d(p,q)/L)` ([`SpatialGrid`]).
//!
//! The marginal per-gate variance is
//! `σ_i² · (local² + Σ s_g² + s_sp²)`; models built with
//! [`VariationModel::normalized`] keep that factor at exactly 1 so the
//! per-gate marginals match the legacy independent model and only the
//! *correlations* change.
//!
//! # PCA of the spatial field
//!
//! The spatial field is discretized onto a small grid: every gate maps
//! to a cell (deterministically, from its topological level and its rank
//! within the level — netlists carry no placement, so this synthetic
//! floorplan stands in for one), and the cell-to-cell correlation matrix
//! `exp(-d/L)` is decomposed with the principal-component analysis in
//! [`vartol_stats::correlation`]: each cell's field value becomes a
//! linear combination of **independent** standard-normal components,
//! `S_c = Σ_k loadings[c][k] · Z_k` with
//! `Σ_k loadings[c][k]·loadings[d][k] = Corr(c, d)` (see
//! [`vartol_stats::correlation::PcaModel::covariance`]). Sampling
//! engines draw the `Z_k` once per sample; the covariance they induce is
//! exact (no truncation — the grid is small).
//!
//! # Gauss–Hermite conditioning for the analytic engines
//!
//! FULLSSTA, FASSTA, and DSTA cannot sample, so they **condition** on
//! the global sources. Because every gate carries the same loadings
//! `s_g`, the sources only enter through the scalar
//! `Y = Σ_g s_g · G_g ~ N(0, ρ²)` with `ρ² = Σ_g s_g²` — so
//! conditioning is one-dimensional regardless of how many sources the
//! model declares. For each node `y_q` of an `n`-point Gauss–Hermite
//! rule (nodes `x_q`, weights `w_q` for a standard normal,
//! [`gauss_hermite`]), the engine runs its ordinary propagation with
//! every gate delay transformed as
//!
//! ```text
//! mean_i(q) = nominal_i + σ_i · ρ · x_q        (the shared shift)
//! var_i(q)  = σ_i² · (local² + s_sp²)          (the residual variance)
//! ```
//!
//! and the unconditional moments of any arrival `X` recombine by the law
//! of total expectation/variance:
//!
//! ```text
//! E[X]   = Σ_q w_q · μ_q
//! Var[X] = Σ_q w_q · (σ_q² + μ_q²) − E[X]²
//! ```
//!
//! This happens *per node inside the propagation state*, so incremental
//! sessions still recompute only the fanout cone of an edit — each cone
//! node is simply refreshed in all `n` conditional "lanes" at once. The
//! spatial component is **not** conditioned on (that would be a
//! many-dimensional grid); analytic engines keep it in the residual
//! variance — its per-gate marginal is exact, only the path *covariance*
//! it induces is ignored — while the Monte-Carlo engine models it fully.
//!
//! # Worked example (c17)
//!
//! ```
//! use vartol_liberty::Library;
//! use vartol_netlist::iscas::parse_bench;
//! use vartol_ssta::{FullSsta, SstaConfig, TimingEngine, VariationModel};
//!
//! // The smallest ISCAS-85 benchmark: six NAND2 gates.
//! let lib = Library::synthetic_90nm();
//! let c17 = parse_bench(
//!     "INPUT(G1)\nINPUT(G2)\nINPUT(G3)\nINPUT(G6)\nINPUT(G7)\n\
//!      OUTPUT(G22)\nOUTPUT(G23)\n\
//!      G10 = NAND(G1, G3)\nG11 = NAND(G3, G6)\nG16 = NAND(G2, G11)\n\
//!      G19 = NAND(G11, G7)\nG22 = NAND(G10, G16)\nG23 = NAND(G16, G19)\n",
//!     "c17",
//! ).expect("well-formed bench text");
//!
//! // Legacy: every gate independent.
//! let independent = SstaConfig::default();
//! let base = FullSsta::new(&lib, &independent).analyze(&c17).circuit_moments();
//!
//! // 60% of each gate's delay variance moves with the die; per-gate
//! // marginals stay identical (`normalized` sets local = sqrt(0.4)).
//! let d2d = independent.clone().with_model(VariationModel::die_to_die(0.6));
//! let corr = FullSsta::new(&lib, &d2d).analyze(&c17).circuit_moments();
//!
//! // Correlated variation cannot average down along a path: the circuit
//! // sigma grows even though every individual gate varies just as much.
//! assert!((corr.mean - base.mean).abs() / base.mean < 0.05);
//! assert!(corr.std() > base.std());
//! ```

use vartol_netlist::Netlist;
use vartol_stats::correlation::{CorrelationMatrix, PcaModel};
use vartol_stats::Moments;

/// Default number of Gauss–Hermite points the analytic engines condition
/// with (exact for polynomial statistics up to degree `2·7−1 = 13`).
pub const DEFAULT_QUADRATURE_POINTS: usize = 7;

/// One die-wide variation source: a standard-normal deviate shared by
/// every gate, entering each gate's delay as `σ_gate · sigma_scale · G`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct GlobalSource {
    /// Human-readable source name (`"d2d"`, `"vth_global"`, …).
    pub name: String,
    /// Fraction of each gate's σ carried by this source; the source's
    /// share of the gate's delay *variance* is `sigma_scale²`.
    pub sigma_scale: f64,
}

impl GlobalSource {
    /// Creates a named source carrying `share` of each gate's delay
    /// variance (`sigma_scale = sqrt(share)`).
    ///
    /// # Panics
    ///
    /// Panics if `share` is not in `[0, 1]`.
    #[must_use]
    pub fn with_variance_share(name: impl Into<String>, share: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&share),
            "variance share must be in [0,1], got {share}"
        );
        Self {
            name: name.into(),
            sigma_scale: share.sqrt(),
        }
    }
}

/// The spatially correlated within-die component: a unit-variance
/// Gaussian field with `exp(-d/L)` correlation, discretized on a
/// `rows × cols` grid of unit-spaced cells.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SpatialGrid {
    /// Grid rows (≥ 1).
    pub rows: usize,
    /// Grid columns (≥ 1).
    pub cols: usize,
    /// Correlation length `L` in cell units: two cells a distance `d`
    /// apart correlate as `exp(-d/L)`.
    pub correlation_length: f64,
    /// Fraction of each gate's σ carried by the field (the field's share
    /// of the gate's delay variance is `sigma_scale²`).
    pub sigma_scale: f64,
}

impl SpatialGrid {
    /// Creates a grid carrying `share` of each gate's delay variance.
    ///
    /// # Panics
    ///
    /// Panics if a dimension is zero, `correlation_length <= 0`, or
    /// `share` is outside `[0, 1]`.
    #[must_use]
    pub fn with_variance_share(
        rows: usize,
        cols: usize,
        correlation_length: f64,
        share: f64,
    ) -> Self {
        assert!(rows > 0 && cols > 0, "grid needs at least one cell");
        assert!(
            correlation_length > 0.0,
            "correlation length must be positive"
        );
        assert!(
            (0.0..=1.0).contains(&share),
            "variance share must be in [0,1], got {share}"
        );
        Self {
            rows,
            cols,
            correlation_length,
            sigma_scale: share.sqrt(),
        }
    }

    /// Number of grid cells.
    #[must_use]
    pub fn cells(&self) -> usize {
        self.rows * self.cols
    }
}

/// The correlated process-variation model threaded through every engine
/// (see the [module docs](self) for the decomposition and its math).
///
/// The default — [`VariationModel::none`] — has no shared sources and
/// `local_sigma_scale = 1`, under which **every engine is bit-identical
/// to the legacy independent model** (the correlated code paths are not
/// even entered).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct VariationModel {
    /// Die-wide sources shared by every gate.
    pub global: Vec<GlobalSource>,
    /// The spatially correlated within-die component, if any.
    pub spatial: Option<SpatialGrid>,
    /// Fraction of each gate's σ that remains gate-local (independent).
    pub local_sigma_scale: f64,
    /// Gauss–Hermite points the analytic engines condition with.
    pub quadrature_points: usize,
}

impl VariationModel {
    /// The legacy model: all variation gate-local and independent.
    #[must_use]
    pub fn none() -> Self {
        Self {
            global: Vec::new(),
            spatial: None,
            local_sigma_scale: 1.0,
            quadrature_points: DEFAULT_QUADRATURE_POINTS,
        }
    }

    /// A pure die-to-die model: one global source carrying `share` of
    /// each gate's delay variance, the rest gate-local
    /// (per-gate marginals match the independent model exactly).
    ///
    /// # Panics
    ///
    /// Panics if `share` is outside `[0, 1]`.
    #[must_use]
    pub fn die_to_die(share: f64) -> Self {
        Self::none()
            .with_global_source(GlobalSource::with_variance_share("d2d", share))
            .normalized()
    }

    /// Adds a global source (keeps `local_sigma_scale` untouched; call
    /// [`VariationModel::normalized`] to re-balance).
    #[must_use]
    pub fn with_global_source(mut self, source: GlobalSource) -> Self {
        self.global.push(source);
        self
    }

    /// Sets the spatial component (keeps `local_sigma_scale` untouched;
    /// call [`VariationModel::normalized`] to re-balance).
    #[must_use]
    pub fn with_spatial(mut self, grid: SpatialGrid) -> Self {
        self.spatial = Some(grid);
        self
    }

    /// Sets the Gauss–Hermite point count for analytic conditioning.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > 64` (the same range [`gauss_hermite`]
    /// and [`VariationModel::validate`] enforce — failing here keeps the
    /// panic at the misconfiguration site instead of deep inside a later
    /// analysis).
    #[must_use]
    pub fn with_quadrature_points(mut self, n: usize) -> Self {
        assert!(n > 0, "need at least one quadrature point");
        assert!(n <= 64, "quadrature order capped at 64, got {n}");
        self.quadrature_points = n;
        self
    }

    /// Rebalances `local_sigma_scale` so the total variance factor
    /// `local² + Σ s_g² + s_sp²` is exactly 1 — per-gate marginal
    /// variance then matches the legacy independent model.
    ///
    /// # Panics
    ///
    /// Panics if the shared components already claim more than the whole
    /// variance (`Σ s_g² + s_sp² > 1`).
    #[must_use]
    pub fn normalized(mut self) -> Self {
        let shared = self.shared_variance_fraction();
        assert!(
            shared <= 1.0 + 1e-12,
            "shared sources claim {shared:.4} of the variance (> 1)"
        );
        self.local_sigma_scale = (1.0 - shared).max(0.0).sqrt();
        self
    }

    /// Whether the model adds nothing over the independent one: no
    /// global sources, no spatial component, and an unscaled local term.
    /// Engines take the legacy bit-identical code paths when this holds;
    /// any non-empty model (including a bare `local_sigma_scale != 1`)
    /// is honored by every engine — the Monte-Carlo sampler applies the
    /// component scales per draw, and the analytic engines scale the
    /// per-gate residual variance to match even when there is nothing to
    /// condition on.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.global.is_empty() && self.spatial.is_none() && self.local_sigma_scale == 1.0
    }

    /// Whether any global (die-to-die) source is present — the condition
    /// under which analytic engines run Gauss–Hermite lanes.
    #[must_use]
    pub fn has_global(&self) -> bool {
        !self.global.is_empty()
    }

    /// `ρ = sqrt(Σ s_g²)`: the standard deviation of the combined global
    /// shift `Y = Σ s_g G_g` in per-gate σ units.
    #[must_use]
    pub fn global_shift_sigma(&self) -> f64 {
        self.global
            .iter()
            .map(|s| s.sigma_scale * s.sigma_scale)
            .sum::<f64>()
            .sqrt()
    }

    /// Variance fraction claimed by the shared components
    /// (`Σ s_g² + s_sp²`).
    #[must_use]
    pub fn shared_variance_fraction(&self) -> f64 {
        let global: f64 = self
            .global
            .iter()
            .map(|s| s.sigma_scale * s.sigma_scale)
            .sum();
        let spatial = self
            .spatial
            .as_ref()
            .map_or(0.0, |g| g.sigma_scale * g.sigma_scale);
        global + spatial
    }

    /// Variance fraction left after conditioning on the global sources
    /// (`local² + s_sp²`) — the per-lane residual of the analytic
    /// engines.
    #[must_use]
    pub fn conditioned_residual_fraction(&self) -> f64 {
        let local = self.local_sigma_scale * self.local_sigma_scale;
        let spatial = self
            .spatial
            .as_ref()
            .map_or(0.0, |g| g.sigma_scale * g.sigma_scale);
        local + spatial
    }

    /// Total variance scale factor `local² + Σ s_g² + s_sp²` (1 for
    /// normalized models).
    #[must_use]
    pub fn total_variance_scale(&self) -> f64 {
        self.local_sigma_scale * self.local_sigma_scale + self.shared_variance_fraction()
    }

    /// Validates every parameter, for models arriving over a service
    /// boundary (the typed constructors enforce this at build time).
    ///
    /// # Errors
    ///
    /// Returns a message naming the first offending field.
    pub fn validate(&self) -> Result<(), String> {
        let check_scale = |what: &str, s: f64| -> Result<(), String> {
            if s.is_finite() && (0.0..=1.0).contains(&s) {
                Ok(())
            } else {
                Err(format!("{what} sigma_scale must be in [0,1], got {s}"))
            }
        };
        check_scale("local", self.local_sigma_scale)?;
        for g in &self.global {
            check_scale(&format!("global source `{}`", g.name), g.sigma_scale)?;
        }
        if let Some(grid) = &self.spatial {
            check_scale("spatial", grid.sigma_scale)?;
            if grid.rows == 0 || grid.cols == 0 {
                return Err("spatial grid needs at least one cell".into());
            }
            if grid.cells() > 1024 {
                return Err(format!(
                    "spatial grid has {} cells; the PCA is dense, keep it <= 1024",
                    grid.cells()
                ));
            }
            if !grid.correlation_length.is_finite() || grid.correlation_length <= 0.0 {
                return Err(format!(
                    "spatial correlation length must be positive, got {}",
                    grid.correlation_length
                ));
            }
        }
        if self.shared_variance_fraction() > 1.0 + 1e-9 {
            return Err(format!(
                "shared sources claim {:.4} of the variance (> 1)",
                self.shared_variance_fraction()
            ));
        }
        if self.quadrature_points == 0 || self.quadrature_points > 64 {
            return Err(format!(
                "quadrature_points must be in 1..=64, got {}",
                self.quadrature_points
            ));
        }
        Ok(())
    }

    /// The conditioning lanes of the analytic engines: one
    /// `(shift, weight)` pair per Gauss–Hermite node, where `shift`
    /// (in per-gate σ units, `ρ·x_q`) displaces every gate's mean delay
    /// by `σ_gate · shift`. Empty when no global source is present.
    #[must_use]
    pub fn conditioning_lanes(&self) -> Vec<(f64, f64)> {
        if !self.has_global() {
            return Vec::new();
        }
        let rho = self.global_shift_sigma();
        let (nodes, weights) = gauss_hermite(self.quadrature_points);
        nodes
            .into_iter()
            .zip(weights)
            .map(|(x, w)| (rho * x, w))
            .collect()
    }

    /// The delay moments of a gate **conditioned** on the combined
    /// global shift being `shift` σ-units: the mean moves by
    /// `σ·shift`, the variance shrinks to the residual fraction.
    #[must_use]
    pub fn conditioned_delay(&self, m: Moments, shift: f64) -> Moments {
        condition_moments(m, shift, self.conditioned_residual_fraction())
    }
}

impl Default for VariationModel {
    fn default() -> Self {
        Self::none()
    }
}

impl std::fmt::Display for VariationModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_empty() {
            return write!(f, "independent");
        }
        write!(f, "local {:.2}", self.local_sigma_scale)?;
        for g in &self.global {
            write!(f, " + {} {:.2}", g.name, g.sigma_scale)?;
        }
        if let Some(grid) = &self.spatial {
            write!(
                f,
                " + spatial {:.2} ({}x{}, L={})",
                grid.sigma_scale, grid.rows, grid.cols, grid.correlation_length
            )?;
        }
        Ok(())
    }
}

/// The conditioning transform shared by [`VariationModel::conditioned_delay`]
/// and the engines' propagation kernels: mean displaced by `σ·shift`,
/// variance scaled to `resid`. `(0.0, 1.0)` is IEEE-bit-identical to the
/// input (`x + σ·0.0 == x`, `var·1.0 == var`) — the legacy laneless path.
#[must_use]
pub fn condition_moments(m: Moments, shift: f64, resid: f64) -> Moments {
    let sigma = m.var.sqrt();
    Moments::new(m.mean + sigma * shift, m.var * resid)
}

/// Recombines per-lane conditional moments into unconditional moments by
/// the law of total expectation/variance:
/// `E[X] = Σ w μ_q`, `Var[X] = Σ w σ_q² + Σ w (μ_q − E[X])²`.
///
/// The variance uses the **centered** form, not `E[X²] − E[X]²` — at
/// arrival means around `1e8` the uncentered subtraction cancels
/// catastrophically (the failure mode `RunningMoments` was introduced
/// for in the Monte-Carlo accumulators), whereas centered squared
/// deviations keep full precision at any offset.
#[must_use]
pub fn mix_conditional_moments(lanes: impl Iterator<Item = (f64, Moments)>) -> Moments {
    let lanes: Vec<(f64, Moments)> = lanes.collect();
    mix_lanes(lanes.iter().copied())
}

/// [`mix_conditional_moments`] over an iterator it can walk twice, so
/// nothing is collected: the propagation join's per-node mixture.
pub(crate) fn mix_lanes(lanes: impl Iterator<Item = (f64, Moments)> + Clone) -> Moments {
    let mut mean = 0.0f64;
    for (w, m) in lanes.clone() {
        mean += w * m.mean;
    }
    let mut var = 0.0f64;
    for (w, m) in lanes {
        let d = m.mean - mean;
        var += w * (m.var + d * d);
    }
    Moments::new(mean, var.max(0.0))
}

/// Gauss–Hermite quadrature for a **standard normal** weight: returns
/// `(nodes, weights)` such that `Σ w_q f(x_q) ≈ E[f(Z)]`, exact for
/// polynomials up to degree `2n − 1`. Nodes ascend; weights sum to 1.
///
/// Nodes are the roots of the probabilists' Hermite polynomial `Heₙ`,
/// found by interlacing bisection (roots of `He_{k+1}` strictly
/// interlace those of `He_k`, so each lies in a bracket with a sign
/// change); weights use the Golub–Welsch identity
/// `w_i = 1 / Σ_{k<n} Heₖ(x_i)²/k!`.
///
/// # Panics
///
/// Panics if `n == 0` or `n > 64` (the three-term recurrence overflows
/// factorials far beyond any useful conditioning order).
#[must_use]
pub fn gauss_hermite(n: usize) -> (Vec<f64>, Vec<f64>) {
    assert!(n > 0, "need at least one quadrature point");
    assert!(n <= 64, "quadrature order capped at 64, got {n}");
    // Evaluate He_n(x) by the three-term recurrence.
    let he = |order: usize, x: f64| -> f64 {
        let mut prev = 1.0f64; // He_0
        if order == 0 {
            return prev;
        }
        let mut cur = x; // He_1
        for k in 1..order {
            let next = x * cur - k as f64 * prev;
            prev = cur;
            cur = next;
        }
        cur
    };

    // Roots by interlacing: grow from He_1 (root {0}) upward; the roots
    // of He_{k+1} lie strictly between consecutive roots of He_k,
    // extended by an outer bound that encloses every Hermite root.
    let mut roots = vec![0.0f64];
    for order in 2..=n {
        let bound = 2.0 * (order as f64).sqrt() + 2.0;
        let mut brackets = Vec::with_capacity(order + 1);
        brackets.push(-bound);
        brackets.extend_from_slice(&roots);
        brackets.push(bound);
        let mut next = Vec::with_capacity(order);
        for w in brackets.windows(2) {
            let (mut lo, mut hi) = (w[0], w[1]);
            let flo = he(order, lo);
            debug_assert!(flo * he(order, hi) <= 0.0, "interlacing bracket");
            for _ in 0..200 {
                let mid = 0.5 * (lo + hi);
                if flo * he(order, mid) <= 0.0 {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            next.push(0.5 * (lo + hi));
        }
        roots = next;
    }

    // Golub–Welsch weights via the orthonormal Christoffel sum.
    let weights: Vec<f64> = roots
        .iter()
        .map(|&x| {
            let mut sum = 0.0f64;
            let mut factorial = 1.0f64;
            for k in 0..n {
                if k > 0 {
                    factorial *= k as f64;
                }
                let h = he(k, x);
                sum += h * h / factorial;
            }
            1.0 / sum
        })
        .collect();
    (roots, weights)
}

/// The PCA-reduced spatial field of one netlist under one model: a
/// deterministic gate-to-cell floorplan plus per-cell component
/// loadings (see the [module docs](self)).
#[derive(Debug, Clone, PartialEq)]
pub struct SpatialPca {
    /// Grid cell of every node, indexed by
    /// [`GateId::index`](vartol_netlist::GateId::index).
    cell_of: Vec<usize>,
    /// `loadings[cell][k]`: weight of independent component `k` in the
    /// cell's unit-variance field value.
    loadings: Vec<Vec<f64>>,
}

impl SpatialPca {
    /// Builds the synthetic floorplan and the field PCA for a netlist:
    /// gate `i` maps to the cell at (column ∝ topological level,
    /// row ∝ rank within the level), and the cell correlation matrix
    /// `exp(-d/L)` is decomposed into independent components.
    #[must_use]
    pub fn build(grid: &SpatialGrid, netlist: &Netlist) -> Self {
        let levels = netlist.levels();
        let depth = levels.iter().max().copied().unwrap_or(0);
        // Rank of each node within its level, and each level's size.
        let mut level_counts = vec![0usize; depth + 1];
        let ranks: Vec<usize> = levels
            .iter()
            .map(|&l| {
                let r = level_counts[l];
                level_counts[l] += 1;
                r
            })
            .collect();
        let place = |span: usize, pos: f64| -> usize {
            // pos in [0,1] -> nearest of `span` cells.
            ((pos * (span.saturating_sub(1)) as f64).round() as usize).min(span - 1)
        };
        let cell_of: Vec<usize> = levels
            .iter()
            .zip(&ranks)
            .map(|(&l, &r)| {
                let x = if depth == 0 {
                    0.0
                } else {
                    l as f64 / depth as f64
                };
                let n_in_level = level_counts[l];
                let y = if n_in_level <= 1 {
                    0.5
                } else {
                    r as f64 / (n_in_level - 1) as f64
                };
                place(grid.rows, y) * grid.cols + place(grid.cols, x)
            })
            .collect();

        let centers: Vec<(f64, f64)> = (0..grid.cells())
            .map(|c| ((c % grid.cols) as f64, (c / grid.cols) as f64))
            .collect();
        let corr = CorrelationMatrix::spatial(&centers, grid.correlation_length);
        let unit = vec![Moments::from_mean_std(0.0, 1.0); grid.cells()];
        let pca = PcaModel::decompose(&unit, &corr);
        Self {
            cell_of,
            loadings: pca.loadings,
        }
    }

    /// Number of independent components (= grid cells; no truncation).
    #[must_use]
    pub fn components(&self) -> usize {
        self.loadings.first().map_or(0, Vec::len)
    }

    /// The grid cell a node maps to.
    #[must_use]
    pub fn cell(&self, node_index: usize) -> usize {
        self.cell_of[node_index]
    }

    /// Evaluates the field at every cell for one draw of the component
    /// vector `z` (length [`SpatialPca::components`]), into `field`
    /// (length = cell count).
    pub fn field_into(&self, z: &[f64], field: &mut [f64]) {
        debug_assert_eq!(field.len(), self.loadings.len());
        for (f, loadings) in field.iter_mut().zip(&self.loadings) {
            *f = loadings.iter().zip(z).map(|(a, b)| a * b).sum();
        }
    }

    /// The field correlation the loadings induce between two cells
    /// (exactly `exp(-d/L)` — no truncation).
    #[must_use]
    pub fn cell_correlation(&self, a: usize, b: usize) -> f64 {
        self.loadings[a]
            .iter()
            .zip(&self.loadings[b])
            .map(|(x, y)| x * y)
            .sum()
    }
}

/// Everything the Monte-Carlo engine precomputes to sample one netlist
/// under one model: the model's scales plus the spatial PCA (if any).
#[derive(Debug, Clone, PartialEq)]
pub struct VariationContext {
    model: VariationModel,
    spatial: Option<SpatialPca>,
}

impl VariationContext {
    /// Builds the sampling context for a netlist. Cheap when the model
    /// is empty; otherwise dominated by the (small, dense) grid PCA.
    #[must_use]
    pub fn new(model: &VariationModel, netlist: &Netlist) -> Self {
        let spatial = model
            .spatial
            .as_ref()
            .map(|grid| SpatialPca::build(grid, netlist));
        Self {
            model: model.clone(),
            spatial,
        }
    }

    /// The model this context was built from.
    #[must_use]
    pub fn model(&self) -> &VariationModel {
        &self.model
    }

    /// The spatial PCA, when the model has a spatial component.
    #[must_use]
    pub fn spatial(&self) -> Option<&SpatialPca> {
        self.spatial.as_ref()
    }

    /// Whether sampling should take the legacy independent path.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.model.is_empty()
    }

    /// Number of shared standard-normal draws one sample needs
    /// (global sources first, then spatial components — the fixed draw
    /// order of the deterministic sampling contract).
    #[must_use]
    pub fn shared_dims(&self) -> usize {
        self.model.global.len() + self.spatial.as_ref().map_or(0, SpatialPca::components)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vartol_liberty::Library;
    use vartol_netlist::generators::ripple_carry_adder;

    #[test]
    fn gauss_hermite_low_orders_are_exact() {
        let (x, w) = gauss_hermite(1);
        assert_eq!(x, vec![0.0]);
        assert_eq!(w, vec![1.0]);

        let (x, w) = gauss_hermite(2);
        assert!((x[0] + 1.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
        assert!((w[0] - 0.5).abs() < 1e-12 && (w[1] - 0.5).abs() < 1e-12);

        let (x, w) = gauss_hermite(3);
        assert!((x[0] + 3.0f64.sqrt()).abs() < 1e-10, "{x:?}");
        assert!(x[1].abs() < 1e-10);
        assert!((w[1] - 2.0 / 3.0).abs() < 1e-10, "{w:?}");
    }

    #[test]
    fn gauss_hermite_matches_normal_moments() {
        for n in [1usize, 2, 3, 5, 7, 9, 15] {
            let (x, w) = gauss_hermite(n);
            assert_eq!(x.len(), n);
            let total: f64 = w.iter().sum();
            assert!((total - 1.0).abs() < 1e-10, "order {n}: mass {total}");
            let mean: f64 = x.iter().zip(&w).map(|(x, w)| w * x).sum();
            assert!(mean.abs() < 1e-10, "order {n}: mean {mean}");
            if n >= 2 {
                let var: f64 = x.iter().zip(&w).map(|(x, w)| w * x * x).sum();
                assert!((var - 1.0).abs() < 1e-9, "order {n}: var {var}");
            }
            if n >= 3 {
                let kurt: f64 = x.iter().zip(&w).map(|(x, w)| w * x.powi(4)).sum();
                assert!((kurt - 3.0).abs() < 1e-8, "order {n}: kurtosis {kurt}");
            }
            // Nodes ascend and are symmetric.
            for pair in x.windows(2) {
                assert!(pair[0] < pair[1]);
            }
            for i in 0..n {
                assert!((x[i] + x[n - 1 - i]).abs() < 1e-9, "order {n} symmetry");
            }
        }
    }

    #[test]
    fn none_model_is_empty_and_unit_scaled() {
        let m = VariationModel::none();
        assert!(m.is_empty());
        assert!(!m.has_global());
        assert_eq!(m.local_sigma_scale, 1.0);
        assert_eq!(m.total_variance_scale(), 1.0);
        assert!(m.conditioning_lanes().is_empty());
        assert!(m.validate().is_ok());
        assert_eq!(m, VariationModel::default());
        assert_eq!(m.to_string(), "independent");
    }

    #[test]
    fn die_to_die_preserves_marginal_variance() {
        let m = VariationModel::die_to_die(0.6);
        assert!(m.has_global());
        assert!((m.total_variance_scale() - 1.0).abs() < 1e-12);
        assert!((m.global_shift_sigma() - 0.6f64.sqrt()).abs() < 1e-12);
        assert!((m.conditioned_residual_fraction() - 0.4).abs() < 1e-12);
        assert!(m.validate().is_ok());
    }

    #[test]
    fn conditioning_lanes_reproduce_the_shift_distribution() {
        let m = VariationModel::die_to_die(0.5);
        let lanes = m.conditioning_lanes();
        assert_eq!(lanes.len(), DEFAULT_QUADRATURE_POINTS);
        let mass: f64 = lanes.iter().map(|(_, w)| w).sum();
        let var: f64 = lanes.iter().map(|(s, w)| w * s * s).sum();
        assert!((mass - 1.0).abs() < 1e-10);
        assert!((var - 0.5).abs() < 1e-9, "shift variance = rho^2");
    }

    #[test]
    fn conditioned_delay_shifts_mean_and_shrinks_variance() {
        let m = VariationModel::die_to_die(0.75);
        let d = Moments::from_mean_std(100.0, 8.0);
        let up = m.conditioned_delay(d, 1.5);
        assert!((up.mean - (100.0 + 8.0 * 1.5)).abs() < 1e-12);
        assert!((up.var - 64.0 * 0.25).abs() < 1e-12);
        // Mixing the lanes recovers the unconditional moments exactly.
        let mixed = mix_conditional_moments(
            m.conditioning_lanes()
                .into_iter()
                .map(|(s, w)| (w, m.conditioned_delay(d, s))),
        );
        assert!((mixed.mean - 100.0).abs() < 1e-9);
        assert!((mixed.var - 64.0).abs() < 1e-6, "{}", mixed.var);
    }

    #[test]
    fn mixing_identical_lanes_is_identity() {
        let m = Moments::from_mean_std(42.0, 3.0);
        let mixed = mix_conditional_moments([(0.25, m), (0.5, m), (0.25, m)].into_iter());
        assert!((mixed.mean - 42.0).abs() < 1e-12);
        assert!((mixed.var - 9.0).abs() < 1e-9);
    }

    #[test]
    fn mixing_is_stable_at_large_means() {
        // The uncentered E[X²] − E[X]² form loses the entire variance to
        // cancellation at means ~1e8 (ulp(1e16) = 2); the centered form
        // must recover it exactly.
        let m = Moments::from_mean_std(1.0e8, 3.0);
        let mixed = mix_conditional_moments([(0.5, m), (0.5, m)].into_iter());
        assert!((mixed.var - 9.0).abs() < 1e-6, "var {}", mixed.var);
        let shifted = mix_conditional_moments(
            [
                (0.5, Moments::from_mean_std(1.0e8 - 2.0, 3.0)),
                (0.5, Moments::from_mean_std(1.0e8 + 2.0, 3.0)),
            ]
            .into_iter(),
        );
        assert!((shifted.var - 13.0).abs() < 1e-6, "var {}", shifted.var);
    }

    #[test]
    fn validation_rejects_bad_scales() {
        let mut m = VariationModel::die_to_die(0.5);
        m.global[0].sigma_scale = f64::NAN;
        assert!(m.validate().is_err());
        let m = VariationModel::none()
            .with_global_source(GlobalSource {
                name: "a".into(),
                sigma_scale: 0.9,
            })
            .with_global_source(GlobalSource {
                name: "b".into(),
                sigma_scale: 0.9,
            });
        assert!(m.validate().is_err(), "shares sum over 1");
        let mut m = VariationModel::die_to_die(0.5);
        m.quadrature_points = 0;
        assert!(m.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "variance share must be in [0,1]")]
    fn over_unit_share_panics() {
        let _ = VariationModel::die_to_die(1.5);
    }

    #[test]
    fn spatial_pca_reconstructs_grid_correlation() {
        let lib = Library::synthetic_90nm();
        let n = ripple_carry_adder(4, &lib);
        let grid = SpatialGrid::with_variance_share(3, 4, 2.0, 0.5);
        let pca = SpatialPca::build(&grid, &n);
        assert_eq!(pca.components(), 12);
        let centers: Vec<(f64, f64)> = (0..12).map(|c| ((c % 4) as f64, (c / 4) as f64)).collect();
        for a in 0..12 {
            for b in 0..12 {
                let dx = centers[a].0 - centers[b].0;
                let dy = centers[a].1 - centers[b].1;
                let want = (-(dx * dx + dy * dy).sqrt() / 2.0).exp();
                let got = pca.cell_correlation(a, b);
                assert!((got - want).abs() < 1e-6, "corr({a},{b}) {got} vs {want}");
            }
        }
    }

    #[test]
    fn floorplan_is_deterministic_and_in_range() {
        let lib = Library::synthetic_90nm();
        let n = ripple_carry_adder(8, &lib);
        let grid = SpatialGrid::with_variance_share(4, 4, 1.5, 0.4);
        let a = SpatialPca::build(&grid, &n);
        let b = SpatialPca::build(&grid, &n);
        assert_eq!(a, b, "floorplan and PCA are pure functions of topology");
        for i in 0..n.node_count() {
            assert!(a.cell(i) < grid.cells());
        }
        // A non-trivial circuit spreads over more than one cell.
        let distinct: std::collections::BTreeSet<usize> =
            (0..n.node_count()).map(|i| a.cell(i)).collect();
        assert!(distinct.len() > 1);
    }

    #[test]
    fn context_counts_shared_dims() {
        let lib = Library::synthetic_90nm();
        let n = ripple_carry_adder(4, &lib);
        let empty = VariationContext::new(&VariationModel::none(), &n);
        assert!(empty.is_empty());
        assert_eq!(empty.shared_dims(), 0);

        let model = VariationModel::none()
            .with_global_source(GlobalSource::with_variance_share("d2d", 0.3))
            .with_spatial(SpatialGrid::with_variance_share(2, 3, 1.0, 0.2))
            .normalized();
        let ctx = VariationContext::new(&model, &n);
        assert!(!ctx.is_empty());
        assert_eq!(ctx.shared_dims(), 1 + 6);
        assert!((model.total_variance_scale() - 1.0).abs() < 1e-12);
    }
}
