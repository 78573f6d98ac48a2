//! Monte-Carlo circuit timing — the golden reference for both statistical
//! engines.
//!
//! Samples every gate delay from its `N(nominal, σ²)` model — independently
//! under the default [`crate::variation::VariationModel::none`], or with
//! shared die-to-die and spatially-correlated components under a
//! configured [`crate::variation::VariationModel`] (each sample is one
//! manufactured die: the shared deviates are drawn once per sample and
//! enter every gate's delay) — runs deterministic longest-path analysis
//! per sample, and summarizes the empirical distribution of the circuit
//! delay. Slow but assumption-free (no normal-approximation of maxima, no
//! discretization, and — unlike the analytic engines — no approximation of
//! the spatial field's path covariance), so FULLSSTA and FASSTA are
//! validated against it in tests and the accuracy ablation.
//!
//! # Deterministic parallel sampling
//!
//! Being the reference, the timer dominates test and ablation wall-clock
//! at 20k-sample counts, so it samples in parallel — without giving up
//! reproducibility. The contract:
//!
//! * The sample budget is split into fixed-size chunks of
//!   [`MC_CHUNK_SAMPLES`] samples (the partition depends only on `n`,
//!   never on the thread count).
//! * Chunk `c` draws from its own `StdRng` stream seeded by a SplitMix64
//!   mix of `(seed, c)` — see [`MonteCarloTimer::chunk_seed`] — so chunks
//!   are independent of each other and of how they are scheduled.
//! * Chunks run on a [`ScopedPool`]; per-chunk
//!   summaries ([`RunningMoments`] per node plus the raw chunk samples)
//!   are gathered **in chunk order** and merged left-to-right.
//!
//! Together these make the result **bit-identical for every thread
//! count**: 1 thread ≡ N threads (asserted in this module's tests and in
//! `tests/mc_determinism.rs`). The thread count comes from
//! [`SstaConfig::threads`] (0 = all CPUs).
//!
//! # Exact samples versus the certified yield count
//!
//! Every sample, moment and report comes from the **exact** kernel: each
//! gate's standard normal is [`standard_normal_sample`], the platform's
//! `ln` and `cos` applied to two uniforms. A parametric yield needs less
//! than the samples, only how many fall at or below a deadline, and
//! [`MonteCarloTimer::count_within`] gets that count cheaper without
//! changing it. It reads the same two uniforms per gate from the same
//! chunk streams, keeps them, and turns them into normals with
//! [`box_muller_fast`], within [`Z_ERR`] of the exact draw. A per-netlist
//! **band** bounds how far the fast circuit delay of a sample can sit
//! from the exact one: the longest path of `σ·Z_ERR` plus each gate's
//! rounding slack (`2⁻⁵³` of its mean and of `σ·|z|`), plus the rounding
//! of the path sums, which grows with depth and the delay itself. A
//! sample whose fast delay lies farther than the band from the deadline
//! is counted from the fast pass; one inside the band is recomputed from
//! its kept uniforms with the exact draws and the same arithmetic in the
//! same order (one `propagate` serves both passes). The count therefore
//! equals the exact kernel's count of samples `≤ deadline`, for every
//! deadline, bit for bit. Under a correlated model the count runs the
//! exact kernel on every sample.
//!
//! The fast pass runs up to four consecutive chunks in lockstep, one per
//! lane. Each lane draws every gate's two uniforms from its own chunk
//! stream in a lone chunk's order, the fast draws run over one flat
//! `gates × lanes` slice, and `propagate` carries one arrival per lane,
//! so a gate's fanins and `(mean, σ)` are read once per step, not once
//! per sample. A lane whose chunk has no samples left computes but is not
//! counted. A task takes at most `⌈chunks / pool width⌉` chunks, so a
//! wider pool keeps its chunk fan-out. On x86-64 hosts with AVX2 the same
//! generic body runs compiled for AVX2, behind the library's one `unsafe`
//! call (the call of a `#[target_feature]` function after a run-time
//! check); other hosts run the portable build. Every lane at every vector
//! width computes the same fast delays: IEEE add, multiply, divide and
//! square root round the same at any width, Rust never fuses a multiply
//! and an add, and `max` could differ only in the sign of a zero, which
//! changes no comparison. The band test and the exact recompute are per
//! sample, as before, so the count does not change.

use crate::config::SstaConfig;
use crate::delay::CircuitTiming;
use crate::engine::{EngineKind, TimingReport};
use crate::pool::ScopedPool;
use crate::state::CircuitSummary;
use crate::variation::VariationContext;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;
use std::ops::Range;
use vartol_liberty::Library;
use vartol_netlist::Netlist;
use vartol_stats::normal::{
    box_muller, box_muller_fast, box_muller_uniforms, standard_normal_sample, Z_ERR,
};
use vartol_stats::{DiscretePdf, Moments, RunningMoments};

/// The sample count of [`EngineKind::analyze`] under
/// [`EngineKind::MonteCarlo`].
pub const DEFAULT_MC_SAMPLES: usize = 4000;

/// Samples per deterministic chunk. The chunk partition is a function of
/// the sample count only, so changing the thread count can never change
/// which samples exist — only which worker computes them.
pub const MC_CHUNK_SAMPLES: usize = 512;

/// Monte-Carlo timing engine.
#[derive(Debug, Clone, Copy)]
pub struct MonteCarloTimer<'a> {
    library: &'a Library,
    config: &'a SstaConfig,
    seed: u64,
}

/// Empirical circuit-delay distribution from sampling.
#[derive(Debug, Clone, PartialEq)]
pub struct MonteCarloResult {
    samples: Vec<f64>,
    moments: Moments,
}

/// How many of `samples` Monte Carlo samples meet a deadline
/// ([`MonteCarloTimer::count_within`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct YieldCount {
    /// Samples whose circuit delay is `≤` the deadline.
    pub within: usize,
    /// Samples drawn.
    pub samples: usize,
    /// Samples whose delay came from exact draws: those the fast pass
    /// left inside the error band, or every sample under a correlated
    /// model.
    pub recomputed: usize,
}

impl YieldCount {
    /// The parametric yield `within / samples`, equal to
    /// [`MonteCarloResult::yield_at`] of the same run.
    #[must_use]
    pub fn fraction(&self) -> f64 {
        self.within as f64 / self.samples as f64
    }
}

/// The timing a sample walks, flattened: cell gates in topological order
/// with delay mean and σ hoisted and fanins as node-index ranges.
struct GateTable {
    /// Node index of each gate.
    node: Vec<usize>,
    mean: Vec<f64>,
    sigma: Vec<f64>,
    /// Gate `k`'s fanins are `fanins[start[k]..start[k + 1]]`.
    start: Vec<usize>,
    fanins: Vec<usize>,
    outputs: Vec<usize>,
    node_count: usize,
    /// Longest input-to-output path of the gates' error bounds, the
    /// delay-independent part of [`GateTable::band`].
    band_path: f64,
    /// Most gates on one path.
    depth: usize,
}

/// Bound on `|z|` for exact and fast draws: `√(−2 ln MIN_POSITIVE)` is
/// 37.64, and `|cos| ≤ 1`.
const Z_MAX: f64 = 38.0;

impl GateTable {
    fn new(netlist: &Netlist, timing: &CircuitTiming) -> Self {
        let node_count = netlist.node_count();
        let mut table = Self {
            node: Vec::new(),
            mean: Vec::new(),
            sigma: Vec::new(),
            start: vec![0],
            fanins: Vec::new(),
            outputs: netlist.outputs().iter().map(|o| o.index()).collect(),
            node_count,
            band_path: 0.0,
            depth: 0,
        };
        // Per node: the longest path of error bounds and of gates ending
        // there (inputs contribute neither).
        let mut path = vec![0.0f64; node_count];
        let mut gates = vec![0usize; node_count];
        let unit = f64::EPSILON / 2.0;
        for id in netlist.gate_ids() {
            let m = timing.delay_moments(id);
            let sigma = m.std();
            let v = id.index();
            let fanins = netlist.gate(id).fanins();
            table.node.push(v);
            table.mean.push(m.mean);
            table.sigma.push(sigma);
            table.fanins.extend(fanins.iter().map(|f| f.index()));
            table.start.push(table.fanins.len());
            // |fast − exact| of this gate's delay: σ·Z_ERR from the draw,
            // plus each side's rounding of `mean + σ·z` (and an absolute
            // term for subnormal products).
            let err = sigma * Z_ERR
                + unit * (2.0 * m.mean.abs() + 5.0 * sigma * Z_MAX)
                + f64::MIN_POSITIVE;
            let (p, g) = fanins.iter().fold((0.0f64, 0usize), |(p, g), f| {
                (p.max(path[f.index()]), g.max(gates[f.index()]))
            });
            path[v] = p + err;
            gates[v] = g + 1;
        }
        for &o in &table.outputs {
            table.band_path = table.band_path.max(path[o]);
            table.depth = table.depth.max(gates[o]);
        }
        table
    }

    fn len(&self) -> usize {
        self.node.len()
    }

    /// Longest-path analysis of `L` samples at once, one per lane: gate
    /// `k`'s delay in lane `l` is `max(mean + σ·deviate[k][l], 0)`.
    /// Writes every gate's arrivals (input arrivals stay 0) and returns
    /// each lane's worst output arrival. Every lane does the arithmetic of
    /// a lone sample in the same order, so a lane's result does not depend
    /// on `L` or on the vector width the loop compiles to.
    #[inline(always)]
    fn propagate<const L: usize>(
        &self,
        deviate: &[[f64; L]],
        arrivals: &mut [[f64; L]],
    ) -> [f64; L] {
        for (k, &v) in self.node.iter().enumerate() {
            let (mean, sigma) = (self.mean[k], self.sigma[k]);
            let mut arr_in = [0.0f64; L];
            for &f in &self.fanins[self.start[k]..self.start[k + 1]] {
                for (a, &b) in arr_in.iter_mut().zip(&arrivals[f]) {
                    *a = a.max(b);
                }
            }
            for ((arr, &a), &d) in arrivals[v].iter_mut().zip(&arr_in).zip(&deviate[k]) {
                *arr = a + (mean + sigma * d).max(0.0);
            }
        }
        let mut worst = [0.0f64; L];
        for &o in &self.outputs {
            for (w, &a) in worst.iter_mut().zip(&arrivals[o]) {
                *w = w.max(a);
            }
        }
        worst
    }

    /// A bound on `|fast − exact|` circuit delay of one sample whose fast
    /// delay is `delay`, with room for the rounding of `delay ± band`:
    /// twice the error path plus `2⁻⁵³` of both delays per path sum.
    fn band(&self, delay: f64) -> f64 {
        let unit = f64::EPSILON / 2.0;
        2.0 * (self.band_path + (2 * self.depth + 2) as f64 * unit * delay.abs())
    }
}

/// The exact per-gate deviates of one sample under a variation model,
/// with the scratch the shared draws need.
struct ExactDraws<'c> {
    ctx: &'c VariationContext,
    spatial_z: Vec<f64>,
    field: Vec<f64>,
}

impl<'c> ExactDraws<'c> {
    fn new(ctx: &'c VariationContext) -> Self {
        let model = ctx.model();
        Self {
            ctx,
            spatial_z: vec![0.0; ctx.spatial().map_or(0, |p| p.components())],
            field: vec![0.0; model.spatial.as_ref().map_or(0, |g| g.cells())],
        }
    }

    /// Fills `deviate[k]` for every gate of `table`, in draw order.
    ///
    /// With an empty [`VariationContext`] every gate draws one
    /// independent standard normal (the legacy model, bit-identical).
    /// With shared sources, each **sample** (= one manufactured die)
    /// first draws the shared deviates — global sources, then spatial
    /// PCA components, in that fixed order — and every gate's deviate
    /// combines its independent local draw with the die's shared shift:
    /// `local·ε + Σ s_g·G_g + s_sp·S(cell)`.
    fn draw<R: Rng + ?Sized>(&mut self, rng: &mut R, table: &GateTable, deviate: &mut [f64]) {
        if self.ctx.is_empty() {
            for d in deviate.iter_mut() {
                *d = standard_normal_sample(rng);
            }
            return;
        }
        let model = self.ctx.model();
        let mut die_shift = 0.0f64;
        for source in &model.global {
            die_shift += source.sigma_scale * standard_normal_sample(rng);
        }
        if let Some(pca) = self.ctx.spatial() {
            for z in &mut self.spatial_z {
                *z = standard_normal_sample(rng);
            }
            pca.field_into(&self.spatial_z, &mut self.field);
        }
        let local = model.local_sigma_scale;
        let sp_scale = model.spatial.as_ref().map_or(0.0, |g| g.sigma_scale);
        for (d, &v) in deviate.iter_mut().zip(&table.node) {
            let mut shift = die_shift + local * standard_normal_sample(rng);
            if let Some(pca) = self.ctx.spatial() {
                shift += sp_scale * self.field[pca.cell(v)];
            }
            *d = shift;
        }
    }
}

/// The sample count of chunk `chunk` of an `n`-sample run.
fn chunk_len(n: usize, chunk: usize) -> usize {
    MC_CHUNK_SAMPLES.min(n - chunk * MC_CHUNK_SAMPLES)
}

/// Chunks the lane kernel counts in lockstep, at most.
const LANES: usize = 4;

/// [`count_lanes_portable`] compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn count_lanes_avx2<const L: usize>(
    table: &GateTable,
    rngs: &mut [StdRng; L],
    counts: [usize; L],
    deadline: f64,
) -> (usize, usize) {
    count_lanes_portable(table, rngs, counts, deadline)
}

/// The lane kernel of [`MonteCarloTimer::count_within`]: `(within,
/// recomputed)` over `counts[l]` samples of each lane's stream `rngs[l]`.
/// Each step draws every gate's two uniforms per lane (lane by lane, in a
/// lone chunk's order), turns all `gates × L` pairs into fast normals in
/// one flat pass, and propagates the `L` samples together. A lane past
/// its count computes but is not counted. Each counted sample then takes
/// the band test, and one inside the band is recomputed alone from its
/// kept uniforms with exact draws.
#[inline(always)]
fn count_lanes_portable<const L: usize>(
    table: &GateTable,
    rngs: &mut [StdRng; L],
    counts: [usize; L],
    deadline: f64,
) -> (usize, usize) {
    let gates = table.len();
    let mut u1 = vec![[0.0f64; L]; gates];
    let mut u2 = vec![[0.0f64; L]; gates];
    let mut deviate = vec![[0.0f64; L]; gates];
    let mut arrivals = vec![[0.0f64; L]; table.node_count];
    let mut exact = vec![[0.0f64; 1]; gates];
    let mut exact_arrivals = vec![[0.0f64; 1]; table.node_count];
    let (mut within, mut recomputed) = (0, 0);
    for sample in 0..counts.iter().copied().max().unwrap_or(0) {
        for (lane, rng) in rngs.iter_mut().enumerate() {
            for (a, b) in u1.iter_mut().zip(&mut u2) {
                (a[lane], b[lane]) = box_muller_uniforms(rng);
            }
        }
        for ((d, &a), &b) in deviate
            .as_flattened_mut()
            .iter_mut()
            .zip(u1.as_flattened())
            .zip(u2.as_flattened())
        {
            *d = box_muller_fast(a, b);
        }
        let fast = table.propagate(&deviate, &mut arrivals);
        for (lane, &fast) in fast.iter().enumerate() {
            if sample >= counts[lane] {
                continue;
            }
            let band = table.band(fast);
            if fast + band <= deadline {
                within += 1;
            } else if (fast - band).partial_cmp(&deadline) != Some(Ordering::Greater) {
                // Inside the band (or not a number): redo it exactly.
                for ((d, a), b) in exact.iter_mut().zip(&u1).zip(&u2) {
                    d[0] = box_muller(a[lane], b[lane]);
                }
                recomputed += 1;
                if table.propagate(&exact, &mut exact_arrivals)[0] <= deadline {
                    within += 1;
                }
            }
        }
    }
    (within, recomputed)
}

/// Summary of one sampling pass (a chunk, or the merge of a run's
/// chunks): the raw circuit-delay samples plus mergeable running moments.
struct SampleStats {
    samples: Vec<f64>,
    circuit: RunningMoments,
    /// Per-node arrival accumulators; empty unless node tracking is on.
    nodes: Vec<RunningMoments>,
}

impl SampleStats {
    /// Concatenates the streams: samples append, accumulators merge.
    /// Order matters for bit-reproducibility — always fold in chunk order.
    fn merge(mut self, other: Self) -> Self {
        self.samples.extend_from_slice(&other.samples);
        self.circuit = self.circuit.merge(other.circuit);
        debug_assert_eq!(self.nodes.len(), other.nodes.len());
        for (a, b) in self.nodes.iter_mut().zip(other.nodes) {
            *a = a.merge(b);
        }
        self
    }

    fn into_result(self) -> MonteCarloResult {
        MonteCarloResult {
            moments: self.circuit.sample_moments(),
            samples: self.samples,
        }
    }
}

impl<'a> MonteCarloTimer<'a> {
    /// Creates an engine over a library with the given configuration
    /// (thread count taken from [`SstaConfig::threads`]).
    #[must_use]
    pub fn new(library: &'a Library, config: &'a SstaConfig) -> Self {
        Self {
            library,
            config,
            seed: 0,
        }
    }

    /// Sets the RNG seed of every sampling entry point.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Samples the circuit delay distribution `n` times on the worker
    /// pool, seeded from [`MonteCarloTimer::with_seed`]. Bit-identical for
    /// every thread count (see the module docs for the contract).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or the netlist references cells missing from the
    /// library.
    #[must_use]
    pub fn sample_parallel(&self, netlist: &Netlist, n: usize) -> MonteCarloResult {
        let timing = CircuitTiming::compute(netlist, self.library, self.config);
        self.sample_chunked(netlist, &timing, n, false)
            .into_result()
    }

    /// Draws the samples of [`MonteCarloTimer::sample_parallel`]`(netlist,
    /// n)`, also accumulating every node's empirical arrival moments, into
    /// the unified report: those arrivals, the statistically-worst output,
    /// the samples' moments, their histogram over
    /// [`SstaConfig::pdf_samples`] bins, and the samples themselves.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or the netlist references cells missing from the
    /// library.
    #[must_use]
    pub fn analyze(&self, netlist: &Netlist, n: usize) -> TimingReport {
        let timing = CircuitTiming::compute(netlist, self.library, self.config);
        let stats = self.sample_chunked(netlist, &timing, n, true);
        // Population moments per node, matching the empirical-arrival
        // semantics the engines validate against.
        let arrivals: Vec<Moments> = stats.nodes.iter().map(RunningMoments::moments).collect();
        let result = stats.into_result();
        let worst_output = crate::WnssTracer::new(self.config.variation.mu_sigma_coupling())
            .worst_output(netlist, &arrivals);
        let circuit_pdf = result.empirical_pdf(self.config.pdf_samples);
        TimingReport {
            kind: EngineKind::MonteCarlo,
            arrivals,
            pdfs: None,
            circuit: CircuitSummary {
                moments: result.moments,
                pdf: Some(circuit_pdf),
                worst_output,
            },
            timing,
            samples: Some(result.samples),
        }
    }

    /// The RNG seed of chunk `chunk` under base seed `seed`: a SplitMix64
    /// finalizer over the pair, so nearby chunk indices get decorrelated
    /// streams. Chunk 0 maps to the base seed itself.
    #[must_use]
    pub fn chunk_seed(seed: u64, chunk: u64) -> u64 {
        if chunk == 0 {
            return seed;
        }
        let mut z = seed ^ chunk.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Counts the samples of [`MonteCarloTimer::sample_parallel`]`(netlist,
    /// n)` whose circuit delay is `≤ deadline`, without materializing
    /// them: the same chunk streams and uniforms, fast draws, and an
    /// exact recompute of every sample the fast pass leaves within the
    /// error band of the deadline (see the module docs). `within` equals
    /// the exact count for every deadline, and so
    /// [`YieldCount::fraction`] equals
    /// [`MonteCarloResult::yield_at`] bit for bit, at every thread count.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or the netlist references cells missing from the
    /// library.
    #[must_use]
    pub fn count_within(&self, netlist: &Netlist, n: usize, deadline: f64) -> YieldCount {
        self.count_with(netlist, n, deadline, true)
    }

    /// [`MonteCarloTimer::count_within`] on the AVX2 instantiation of the
    /// lane kernel when `dispatch` is set and the host has AVX2, else on
    /// the portable one.
    fn count_with(&self, netlist: &Netlist, n: usize, deadline: f64, dispatch: bool) -> YieldCount {
        assert!(n >= 2, "need at least two samples");
        let timing = CircuitTiming::compute(netlist, self.library, self.config);
        let table = GateTable::new(netlist, &timing);
        let ctx = VariationContext::new(&self.config.model, netlist);
        let pool = ScopedPool::new(self.config.threads);
        let chunks = n.div_ceil(MC_CHUNK_SAMPLES);
        let counts = if ctx.is_empty() {
            // Up to `LANES` chunks per task, but as many tasks as the
            // pool has workers while the chunks last.
            let group = LANES.min(chunks.div_ceil(pool.threads()));
            pool.map(chunks.div_ceil(group), |task| {
                let first = task * group;
                let lanes = first..chunks.min(first + group);
                match lanes.len() {
                    1 => self.count_group::<1>(&table, n, lanes, deadline, dispatch),
                    2 => self.count_group::<2>(&table, n, lanes, deadline, dispatch),
                    _ => self.count_group::<LANES>(&table, n, lanes, deadline, dispatch),
                }
            })
        } else {
            pool.map(chunks, |chunk| {
                let mut rng = self.chunk_rng(chunk);
                Self::count_exact(&table, &ctx, chunk_len(n, chunk), &mut rng, deadline)
            })
        };
        counts.into_iter().fold(
            YieldCount {
                within: 0,
                samples: n,
                recomputed: 0,
            },
            |total, (within, recomputed)| YieldCount {
                within: total.within + within,
                recomputed: total.recomputed + recomputed,
                ..total
            },
        )
    }

    /// Chunk `chunk`'s stream.
    fn chunk_rng(&self, chunk: usize) -> StdRng {
        StdRng::seed_from_u64(Self::chunk_seed(self.seed, chunk as u64))
    }

    /// `(within, recomputed)` over chunks `lanes` of an `n`-sample count,
    /// one per lane of the lane kernel (lanes past `lanes.end` count no
    /// samples): on the AVX2 instantiation when `dispatch` is set and the
    /// host has AVX2, else on the portable one. Both give the same counts.
    fn count_group<const L: usize>(
        &self,
        table: &GateTable,
        n: usize,
        lanes: Range<usize>,
        deadline: f64,
        dispatch: bool,
    ) -> (usize, usize) {
        let chunk = |l| lanes.start + l;
        let mut rngs: [StdRng; L] = std::array::from_fn(|l| self.chunk_rng(chunk(l)));
        let counts: [usize; L] = std::array::from_fn(|l| {
            if chunk(l) < lanes.end {
                chunk_len(n, chunk(l))
            } else {
                0
            }
        });
        #[cfg(target_arch = "x86_64")]
        if dispatch && std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: `count_lanes_avx2` needs only AVX2, which the host
            // has (checked just above).
            return unsafe { count_lanes_avx2(table, &mut rngs, counts, deadline) };
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = dispatch;
        count_lanes_portable(table, &mut rngs, counts, deadline)
    }

    /// One chunk of [`MonteCarloTimer::count_within`] under a correlated
    /// model: `(within, recomputed)` over `count` exact samples.
    fn count_exact(
        table: &GateTable,
        ctx: &VariationContext,
        count: usize,
        rng: &mut StdRng,
        deadline: f64,
    ) -> (usize, usize) {
        let mut arrivals = vec![[0.0f64; 1]; table.node_count];
        let mut deviate = vec![[0.0f64; 1]; table.len()];
        let mut draws = ExactDraws::new(ctx);
        let within = (0..count)
            .filter(|_| {
                draws.draw(rng, table, deviate.as_flattened_mut());
                table.propagate(&deviate, &mut arrivals)[0] <= deadline
            })
            .count();
        (within, count)
    }

    /// Chunked deterministic sampling: fixed partition, per-chunk seeded
    /// streams, chunk-ordered merge.
    fn sample_chunked(
        &self,
        netlist: &Netlist,
        timing: &CircuitTiming,
        n: usize,
        track_nodes: bool,
    ) -> SampleStats {
        assert!(n >= 2, "need at least two samples");
        let chunks = n.div_ceil(MC_CHUNK_SAMPLES);
        // Shared-source structure (global scales + spatial PCA) is
        // precomputed once and read by every chunk; each chunk's RNG
        // stream covers its shared draws *and* its per-gate draws, so
        // the partition — and therefore the result — is still a pure
        // function of `(seed, n)`, never of the thread count.
        let ctx = VariationContext::new(&self.config.model, netlist);
        let table = GateTable::new(netlist, timing);
        let pool = ScopedPool::new(self.config.threads);
        let summaries = pool.map(chunks, |chunk| {
            let mut rng = self.chunk_rng(chunk);
            Self::run_samples(&table, &ctx, chunk_len(n, chunk), &mut rng, track_nodes)
        });
        summaries
            .into_iter()
            .reduce(SampleStats::merge)
            .expect("n >= 2 yields at least one chunk")
    }

    /// The sampling kernel: `count` longest-path evaluations under exact
    /// random delay draws ([`ExactDraws::draw`]), summarized with Welford
    /// accumulators (robust where the old `E[X²]−E[X]²` sums cancel
    /// catastrophically at large means). A gate's delay is
    /// `max(nominal + σ·deviate, 0)`.
    fn run_samples<R: Rng + ?Sized>(
        table: &GateTable,
        ctx: &VariationContext,
        count: usize,
        rng: &mut R,
        track_nodes: bool,
    ) -> SampleStats {
        let mut arrivals = vec![[0.0f64; 1]; table.node_count];
        let mut deviate = vec![[0.0f64; 1]; table.len()];
        let mut draws = ExactDraws::new(ctx);
        let mut stats = SampleStats {
            samples: Vec::with_capacity(count),
            circuit: RunningMoments::new(),
            nodes: vec![RunningMoments::new(); if track_nodes { table.node_count } else { 0 }],
        };
        for _ in 0..count {
            draws.draw(rng, table, deviate.as_flattened_mut());
            let [worst] = table.propagate(&deviate, &mut arrivals);
            if track_nodes {
                for (acc, &[a]) in stats.nodes.iter_mut().zip(&arrivals) {
                    acc.push(a);
                }
            }
            stats.circuit.push(worst);
            stats.samples.push(worst);
        }
        stats
    }
}

impl MonteCarloResult {
    /// Empirical mean/variance of the circuit delay.
    #[must_use]
    pub fn moments(&self) -> Moments {
        self.moments
    }

    /// The raw delay samples.
    #[must_use]
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Histograms the delay samples into a discrete PDF with `bins`
    /// support points.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0`.
    #[must_use]
    pub fn empirical_pdf(&self, bins: usize) -> DiscretePdf {
        assert!(bins > 0, "need at least one bin");
        let lo = self.samples.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = self
            .samples
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        if hi - lo < 1e-12 {
            return DiscretePdf::deterministic(lo);
        }
        let width = (hi - lo) / bins as f64;
        let mut mass = vec![0.0f64; bins];
        let p = 1.0 / self.samples.len() as f64;
        for &s in &self.samples {
            let k = (((s - lo) / width) as usize).min(bins - 1);
            mass[k] += p;
        }
        DiscretePdf::from_points(
            mass.iter()
                .enumerate()
                .filter(|(_, &m)| m > 0.0)
                .map(|(k, &m)| (lo + (k as f64 + 0.5) * width, m))
                .collect(),
        )
    }

    /// Empirical `p`-quantile of the delay distribution, by the
    /// **nearest-rank** convention: the sample at sorted index
    /// `round(p · (n − 1))`. In particular `quantile(0.0)` is exactly the
    /// minimum sample and `quantile(1.0)` exactly the maximum. Runs in
    /// O(n) expected time via `select_nth_unstable_by` (no full sort).
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
        let idx = ((self.samples.len() - 1) as f64 * p).round() as usize;
        let mut scratch = self.samples.clone();
        let (_, pivot, _) = scratch.select_nth_unstable_by(idx, f64::total_cmp);
        *pivot
    }

    /// Fraction of samples not exceeding a period `t` — parametric yield at
    /// clock period `t`, the quantity Fig. 1 of the paper reasons about.
    #[must_use]
    pub fn yield_at(&self, t: f64) -> f64 {
        let ok = self.samples.iter().filter(|&&s| s <= t).count();
        ok as f64 / self.samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fassta::Fassta;
    use crate::fullssta::FullSsta;
    use vartol_netlist::generators::{benchmark, parity_tree, preset, ripple_carry_adder};

    impl GateTable {
        /// The one-sample `propagate` the lane kernel replaced, verbatim.
        fn oracle_propagate(&self, deviate: &[f64], arrivals: &mut [f64]) -> f64 {
            for (k, &v) in self.node.iter().enumerate() {
                let delay = (self.mean[k] + self.sigma[k] * deviate[k]).max(0.0);
                let arr_in = self.fanins[self.start[k]..self.start[k + 1]]
                    .iter()
                    .map(|&f| arrivals[f])
                    .fold(0.0f64, f64::max);
                arrivals[v] = arr_in + delay;
            }
            self.outputs
                .iter()
                .fold(0.0f64, |worst, &o| worst.max(arrivals[o]))
        }
    }

    /// The one-chunk count the lane kernel replaced, verbatim but for the
    /// name of its `propagate`.
    fn oracle_count_chunk<R: Rng + ?Sized>(
        table: &GateTable,
        ctx: &VariationContext,
        count: usize,
        rng: &mut R,
        deadline: f64,
    ) -> (usize, usize) {
        let mut arrivals = vec![0.0f64; table.node_count];
        let mut deviate = vec![0.0f64; table.len()];
        if !ctx.is_empty() {
            let mut draws = ExactDraws::new(ctx);
            let within = (0..count)
                .filter(|_| {
                    draws.draw(rng, table, &mut deviate);
                    table.oracle_propagate(&deviate, &mut arrivals) <= deadline
                })
                .count();
            return (within, count);
        }
        let mut u1 = vec![0.0f64; table.len()];
        let mut u2 = vec![0.0f64; table.len()];
        let (mut within, mut recomputed) = (0, 0);
        for _ in 0..count {
            for (a, b) in u1.iter_mut().zip(&mut u2) {
                (*a, *b) = box_muller_uniforms(rng);
            }
            for ((d, &a), &b) in deviate.iter_mut().zip(&u1).zip(&u2) {
                *d = box_muller_fast(a, b);
            }
            let fast = table.oracle_propagate(&deviate, &mut arrivals);
            let band = table.band(fast);
            if fast + band <= deadline {
                within += 1;
            } else if (fast - band).partial_cmp(&deadline) != Some(Ordering::Greater) {
                // Inside the band (or not a number): redo it exactly.
                for ((d, &a), &b) in deviate.iter_mut().zip(&u1).zip(&u2) {
                    *d = box_muller(a, b);
                }
                recomputed += 1;
                if table.oracle_propagate(&deviate, &mut arrivals) <= deadline {
                    within += 1;
                }
            }
        }
        (within, recomputed)
    }

    /// The chunk-at-a-time `count_within` the lane kernel replaced.
    fn oracle_count_within(
        timer: &MonteCarloTimer<'_>,
        netlist: &Netlist,
        n: usize,
        deadline: f64,
    ) -> YieldCount {
        let timing = CircuitTiming::compute(netlist, timer.library, timer.config);
        let table = GateTable::new(netlist, &timing);
        let ctx = VariationContext::new(&timer.config.model, netlist);
        let (mut within, mut recomputed) = (0, 0);
        for chunk in 0..n.div_ceil(MC_CHUNK_SAMPLES) {
            let count = MC_CHUNK_SAMPLES.min(n - chunk * MC_CHUNK_SAMPLES);
            let mut rng = timer.chunk_rng(chunk);
            let (w, r) = oracle_count_chunk(&table, &ctx, count, &mut rng, deadline);
            within += w;
            recomputed += r;
        }
        YieldCount {
            within,
            samples: n,
            recomputed,
        }
    }

    #[test]
    fn lane_kernel_counts_equal_the_one_chunk_oracle() {
        let lib = Library::synthetic_90nm();
        let widths = [1, 2].map(|threads| SstaConfig::default().with_threads(threads));
        // The circuits the service benchmark registers and sends `Yield`
        // to. 2100 samples are four full chunks and a 52-sample tail: a
        // one-wide pool counts them as lanes of four then one, a two-wide
        // pool as four lanes (one idle) then two.
        let names = [
            "adder_16", "alu_8", "dag_150", "c432", "mult_8", "cmp_16", "ecc_16", "c880",
        ];
        let n = 4 * MC_CHUNK_SAMPLES + 52;
        for name in names {
            let netlist = preset(name, &lib)
                .or_else(|| benchmark(name, &lib))
                .expect("known circuit");
            let timer = MonteCarloTimer::new(&lib, &widths[0]).with_seed(0x1A7E);
            let exact = timer.sample_parallel(&netlist, n);
            let mut sorted = exact.samples().to_vec();
            sorted.sort_by(f64::total_cmp);
            let m = exact.moments();
            // Sample values (where only the recompute can decide) and
            // deadlines across the distribution.
            let deadlines = [0.0, 0.5, 1.0]
                .map(|p| sorted[((n - 1) as f64 * p).round() as usize])
                .into_iter()
                .chain([-2.0, 0.0, 2.0].map(|k| m.mean + k * m.std()));
            for deadline in deadlines {
                let oracle = oracle_count_within(&timer, &netlist, n, deadline);
                assert_eq!(
                    oracle.within,
                    exact.samples().iter().filter(|&&s| s <= deadline).count()
                );
                for config in &widths {
                    let timer = MonteCarloTimer::new(&lib, config).with_seed(0x1A7E);
                    for dispatch in [false, true] {
                        assert_eq!(
                            timer.count_with(&netlist, n, deadline, dispatch),
                            oracle,
                            "{name}: {deadline:e}, {} threads, dispatch {dispatch}",
                            config.threads
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn engines_agree_with_monte_carlo() {
        let lib = Library::synthetic_90nm();
        let config = SstaConfig::default();
        let n = ripple_carry_adder(8, &lib);
        let mc = MonteCarloTimer::new(&lib, &config)
            .with_seed(10)
            .sample_parallel(&n, 20_000)
            .moments();
        let full = FullSsta::new(&lib, &config).analyze(&n).circuit_moments();
        let fast = Fassta::new(&lib, &config).analyze(&n).circuit_moments();

        // FULLSSTA (correlation-aware) is held to tighter tolerances than
        // FASSTA, whose independence assumption biases the mean up and the
        // sigma down by design.
        assert!(
            (full.mean - mc.mean).abs() / mc.mean < 0.03,
            "full mean {} vs MC {}",
            full.mean,
            mc.mean
        );
        assert!(
            (fast.mean - mc.mean).abs() / mc.mean < 0.08,
            "fast mean {} vs MC {}",
            fast.mean,
            mc.mean
        );
        assert!(
            (full.std() - mc.std()).abs() / mc.std() < 0.25,
            "full sigma {} vs MC {}",
            full.std(),
            mc.std()
        );
        assert!(
            (fast.std() - mc.std()).abs() / mc.std() < 0.40,
            "fast sigma {} vs MC {}",
            fast.std(),
            mc.std()
        );
    }

    #[test]
    fn trait_analysis_is_deterministic_and_complete() {
        let lib = Library::synthetic_90nm();
        let config = SstaConfig::default();
        let n = ripple_carry_adder(4, &lib);
        let timer = MonteCarloTimer::new(&lib, &config).with_seed(7);
        let a = timer.analyze(&n, 500);
        let b = timer.analyze(&n, 500);
        assert_eq!(a.circuit_moments(), b.circuit_moments(), "seeded run");
        assert_eq!(a.samples().map(<[f64]>::len), Some(500));
        assert!(a.circuit_pdf().is_some());
        // Empirical arrivals are populated and grow along the circuit.
        let o = a.worst_output();
        assert!(a.arrival(o).mean > 0.0);
        assert!(n.is_output(o));
    }

    #[test]
    fn parallel_sampling_is_thread_count_invariant() {
        let lib = Library::synthetic_90nm();
        let n = ripple_carry_adder(6, &lib);
        let widths = [1usize, 2, 4, 8].map(|threads| SstaConfig::default().with_threads(threads));
        let timer = |config| MonteCarloTimer::new(&lib, config).with_seed(99);
        // 3 full chunks plus a partial one.
        let samples = 3 * MC_CHUNK_SAMPLES + 100;
        let reference = timer(&widths[0]).analyze(&n, samples);
        let plain = timer(&widths[0]).sample_parallel(&n, samples);
        for config in &widths[1..] {
            let threads = config.threads;
            assert_eq!(
                timer(config).analyze(&n, samples),
                reference,
                "{threads} threads"
            );
            assert_eq!(
                timer(config).sample_parallel(&n, samples),
                plain,
                "{threads} threads"
            );
        }
        assert_eq!(Some(plain.samples()), reference.samples());
    }

    #[test]
    fn analyze_draws_the_samples_of_sample_parallel() {
        let lib = Library::synthetic_90nm();
        let config = SstaConfig::default();
        let n = parity_tree(16, &lib);
        let timer = MonteCarloTimer::new(&lib, &config).with_seed(31);
        for samples in [2, MC_CHUNK_SAMPLES + 1, 3 * MC_CHUNK_SAMPLES] {
            let report = timer.analyze(&n, samples);
            let result = timer.sample_parallel(&n, samples);
            let bits = |m: Moments| (m.mean.to_bits(), m.var.to_bits());
            assert_eq!(
                report.samples(),
                Some(result.samples()),
                "{samples} samples"
            );
            assert_eq!(
                bits(report.circuit_moments()),
                bits(result.moments()),
                "{samples} samples"
            );
        }
    }

    #[test]
    fn analyze_reports_are_thread_count_invariant() {
        let lib = Library::synthetic_90nm();
        let n = parity_tree(16, &lib);
        let analyze = |threads| {
            let config = SstaConfig::default().with_threads(threads);
            MonteCarloTimer::new(&lib, &config)
                .with_seed(5)
                .analyze(&n, 2 * MC_CHUNK_SAMPLES + 17)
        };
        assert_eq!(analyze(1), analyze(8));
    }

    #[test]
    fn chunk_seeds_are_distinct_and_stable() {
        assert_eq!(MonteCarloTimer::chunk_seed(42, 0), 42, "chunk 0 = base");
        let mut seen = std::collections::HashSet::new();
        for chunk in 0..1000u64 {
            assert!(seen.insert(MonteCarloTimer::chunk_seed(42, chunk)));
        }
    }

    #[test]
    fn empirical_node_arrivals_track_fullssta() {
        // Chain-dominated circuit: the level-bucket correlation heuristic
        // is accurate here (balanced trees overestimate correlation since
        // disjoint sibling subtrees have identical per-level variance).
        let lib = Library::synthetic_90nm();
        let config = SstaConfig::default();
        let n = ripple_carry_adder(8, &lib);
        let mc = MonteCarloTimer::new(&lib, &config)
            .with_seed(11)
            .analyze(&n, 10_000);
        let full = FullSsta::new(&lib, &config).analyze(&n);
        for id in n.gate_ids() {
            let e = mc.arrival(id);
            let f = full.arrival(id);
            assert!(
                (e.mean - f.mean).abs() / f.mean.max(1.0) < 0.10,
                "node {id}: MC {e} vs FULLSSTA {f}"
            );
        }
    }

    #[test]
    fn quantiles_are_ordered() {
        let lib = Library::synthetic_90nm();
        let config = SstaConfig::default();
        let n = parity_tree(16, &lib);
        let mc = MonteCarloTimer::new(&lib, &config)
            .with_seed(2)
            .sample_parallel(&n, 2_000);
        assert!(mc.quantile(0.05) < mc.quantile(0.5));
        assert!(mc.quantile(0.5) < mc.quantile(0.99));
    }

    #[test]
    fn quantile_nearest_rank_hits_min_max_and_matches_sort() {
        let lib = Library::synthetic_90nm();
        let config = SstaConfig::default();
        let n = parity_tree(8, &lib);
        let mc = MonteCarloTimer::new(&lib, &config)
            .with_seed(6)
            .sample_parallel(&n, 1_001);
        let min = mc.samples().iter().copied().fold(f64::INFINITY, f64::min);
        let max = mc
            .samples()
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(mc.quantile(0.0), min, "p = 0 is exactly the minimum");
        assert_eq!(mc.quantile(1.0), max, "p = 1 is exactly the maximum");
        // Selection agrees with the full-sort reference at every rank.
        let mut sorted = mc.samples().to_vec();
        sorted.sort_by(f64::total_cmp);
        for p in [0.01, 0.25, 0.5, 0.75, 0.95, 0.999] {
            let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
            assert_eq!(mc.quantile(p), sorted[idx], "p = {p}");
        }
    }

    #[test]
    fn yield_monotone_in_period() {
        let lib = Library::synthetic_90nm();
        let config = SstaConfig::default();
        let n = parity_tree(8, &lib);
        let mc = MonteCarloTimer::new(&lib, &config)
            .with_seed(3)
            .sample_parallel(&n, 2_000);
        let m = mc.moments();
        assert!(mc.yield_at(m.mean - 3.0 * m.std()) < 0.1);
        assert!(mc.yield_at(m.mean + 3.0 * m.std()) > 0.95);
        assert!(mc.yield_at(m.mean) > 0.3 && mc.yield_at(m.mean) < 0.7);
    }

    #[test]
    fn deterministic_variation_gives_constant_samples() {
        let lib = Library::synthetic_90nm();
        let config = SstaConfig::deterministic();
        let n = parity_tree(8, &lib);
        let mc = MonteCarloTimer::new(&lib, &config)
            .with_seed(4)
            .sample_parallel(&n, 100);
        assert!(mc.moments().std() < 1e-9);
    }

    #[test]
    fn correlated_sampling_is_thread_count_invariant() {
        use crate::variation::{GlobalSource, SpatialGrid, VariationModel};
        let lib = Library::synthetic_90nm();
        let config = SstaConfig::default().with_model(
            VariationModel::none()
                .with_global_source(GlobalSource::with_variance_share("d2d", 0.4))
                .with_spatial(SpatialGrid::with_variance_share(3, 3, 2.0, 0.2))
                .normalized(),
        );
        let n = ripple_carry_adder(6, &lib);
        let samples = 2 * MC_CHUNK_SAMPLES + 50;
        let analyze = |threads| {
            let config = config.clone().with_threads(threads);
            MonteCarloTimer::new(&lib, &config)
                .with_seed(123)
                .analyze(&n, samples)
        };
        let reference = analyze(1);
        for threads in [2usize, 8] {
            assert_eq!(
                analyze(threads),
                reference,
                "{threads} threads under a model"
            );
        }
    }

    #[test]
    fn die_to_die_correlation_inflates_circuit_sigma() {
        // A shared source cannot average down along a path, so the
        // circuit-level σ must grow relative to the independent model
        // even though every per-gate marginal is identical.
        use crate::variation::VariationModel;
        let lib = Library::synthetic_90nm();
        let n = ripple_carry_adder(8, &lib);
        let independent = SstaConfig::default();
        let correlated = SstaConfig::default().with_model(VariationModel::die_to_die(0.6));
        let base = MonteCarloTimer::new(&lib, &independent)
            .with_seed(7)
            .sample_parallel(&n, 8_000)
            .moments();
        let corr = MonteCarloTimer::new(&lib, &correlated)
            .with_seed(7)
            .sample_parallel(&n, 8_000)
            .moments();
        assert!(
            corr.std() > 1.2 * base.std(),
            "correlated σ {} vs independent σ {}",
            corr.std(),
            base.std()
        );
        assert!((corr.mean - base.mean).abs() / base.mean < 0.03);
    }

    #[test]
    fn spatial_only_model_preserves_marginals_and_runs() {
        use crate::variation::{SpatialGrid, VariationModel};
        let lib = Library::synthetic_90nm();
        let n = parity_tree(16, &lib);
        let model = VariationModel::none()
            .with_spatial(SpatialGrid::with_variance_share(4, 4, 1.5, 0.5))
            .normalized();
        assert!((model.total_variance_scale() - 1.0).abs() < 1e-12);
        let config = SstaConfig::default().with_model(model);
        let mc = MonteCarloTimer::new(&lib, &config)
            .with_seed(3)
            .analyze(&n, 6_000);
        let base_cfg = SstaConfig::default();
        let base = MonteCarloTimer::new(&lib, &base_cfg)
            .with_seed(3)
            .analyze(&n, 6_000);
        // Same marginal per-gate variance: node arrival moments track the
        // independent run loosely (correlation changes path covariance,
        // which a single arrival's marginal only sees through maxima).
        let o = n.outputs()[0];
        let (a, b) = (mc.arrival(o), base.arrival(o));
        assert!((a.mean - b.mean).abs() / b.mean < 0.05, "{a} vs {b}");
    }

    #[test]
    #[should_panic(expected = "need at least two samples")]
    fn single_sample_panics() {
        let lib = Library::synthetic_90nm();
        let config = SstaConfig::default();
        let n = parity_tree(4, &lib);
        let _ = MonteCarloTimer::new(&lib, &config).analyze(&n, 1);
    }

    #[test]
    #[should_panic(expected = "need at least two samples")]
    fn single_parallel_sample_panics() {
        let lib = Library::synthetic_90nm();
        let config = SstaConfig::default();
        let n = parity_tree(4, &lib);
        let _ = MonteCarloTimer::new(&lib, &config).sample_parallel(&n, 1);
    }
}
