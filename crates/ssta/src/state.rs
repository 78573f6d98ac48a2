//! The level-ordered propagation arena behind the analytic engines and
//! the incremental session.
//!
//! [`TimingState`] holds the electrical snapshot ([`CircuitTiming`]) and
//! the arrival state of one propagation flavor ([`EngineKind::Dsta`]
//! nominal, [`EngineKind::Fassta`] moments, [`EngineKind::FullSsta`]
//! discrete PDFs with optional per-level correlation buckets). Arrival
//! state lives in a struct-of-arrays [`LaneArena`]: nodes are permuted
//! once at levelization into **level-contiguous slots**
//! ([`LevelSchedule`]) and the lanes' moments, PDFs and bucket vectors
//! are flat arrays in **arena order**, `slot · lanes + lane`, so a
//! level's entries (every lane's) are one run above every lower level's
//! and its kernels read their fanins from the lower-level span instead
//! of chasing node indices across the whole array.
//!
//! # Level-frontier propagation
//!
//! [`TimingState::update`] is a per-level frontier, not a node-at-a-time
//! worklist: seed indices are scattered into per-level buckets, and each
//! level is processed in two phases —
//!
//! 1. **compute**, which evaluates the electrical values
//!    ([`CircuitTiming::compute_node`]) and then the per-lane arrival
//!    kernels ([`lane_nominal`]/[`lane_moments`]/[`lane_pdf`]) of every
//!    frontier node as *pure functions* of already-finalized lower-level
//!    state. Node kernels fan out over a [`ScopedPool`] when the level is
//!    wide enough ([`PARALLEL_LEVEL_MIN`]); Gauss–Hermite conditioning
//!    lanes are independent parallel work items, so a level with `w`
//!    frontier nodes and `q` lanes exposes `w·q`-way parallelism;
//! 2. **join**, which writes results back serially in ascending node
//!    order, re-runs the exact legacy change comparisons (bit compares on
//!    slew/delay, `PartialEq` on moments/PDFs/buckets), and pushes the
//!    fanouts of changed nodes into their (strictly higher) level
//!    buckets.
//!
//! # Why determinism survives parallelism
//!
//! The legacy worklist popped the smallest node index; node indices are
//! topological, so it processed nodes in one particular topological
//! order, each at most once. `(level, index)` order is *also* topological
//! — a fanout's level always exceeds its fanin's — and every kernel is a
//! pure function of its own electrical state plus fanin state finalized
//! at lower levels (same-level nodes can never feed each other). Two
//! topological schedules over the same pure per-node functions compute
//! identical values, make identical change decisions, and therefore
//! visit identical node sets: the arena reproduces the legacy
//! propagation **bit for bit at every thread width**, which the
//! engine-determinism suite and the pinned pre-refactor fixtures assert.
//! Threads ([`SstaConfig::threads`]) are purely a speed knob — the join
//! phase orders all writes by node index, and [`ScopedPool::map`]
//! returns results in task order regardless of which worker ran what.
//!
//! # Conditioning lanes (correlated variation)
//!
//! When the config's [`crate::variation::VariationModel`] declares global
//! (die-to-die) sources, the arena carries one **conditioning lane** per
//! Gauss–Hermite node: lane `q` propagates the engine's ordinary arrival
//! state with every gate delay conditioned on the combined global shift
//! (`mean + σ·shift_q`, residual variance) — see [`crate::variation`]
//! for the math. The node-indexed `arrivals` mirror always holds the
//! **unconditional** view, recombined per node by the law of total
//! expectation/variance, so every consumer (sessions, slack,
//! criticality, WNSS ranking) is correlation-aware without code changes.
//! The laneless (independent) path is the single lane
//! `shift = 0, residual = 1`, whose arithmetic (`x + σ·0.0`, `var·1.0`)
//! is IEEE-bit-identical to the pre-arena code. An incremental update
//! visits each frontier node once and refreshes all lanes for it, so a
//! resize still only recomputes the affected fanout cone.
//!
//! # FULLSSTA state in flat slabs
//!
//! A FULLSSTA arena holds no heap block per node. Its PDFs live in one
//! slab: each `(lane, slot)` owns a fixed stride of `2·pdf_samples`
//! `f64`s (support values, then masses) plus a point count. A stored PDF
//! never has more than `pdf_samples` points, because every kernel ends
//! in a rebin to that many points, an `n`-point normal or a point mass.
//! The kernels are the slice forms of `vartol_stats` ([`PdfOut`]): they
//! read borrowed PDFs and write into the caller's stride, so a node
//! visit allocates nothing: an incremental refresh's kernels write into
//! the level's reused result buffers, which the join compares with the
//! slots and copies in, and a from-scratch build's kernels write
//! straight into the level's slots, split off the lower levels they
//! read. A report keeps a slab of the same layout ([`NodePdfs`]): a
//! laneless one-shot analysis moves the state's own slab into it once
//! the bucket slab is freed, a session's report copies it, and a
//! conditioned report holds one lane of per-node lane mixtures.
//!
//! # Level-prefix buckets
//!
//! Under [`CorrelationMode::LevelBuckets`] each `(lane, node)` carries a
//! per-level variance vector for the FULLSSTA overlap correlation. A
//! node at level `L` stores exactly `L + 1` entries (levels `0..=L`)
//! instead of one entry per circuit level, in one bucket slab in arena
//! order. Slots are sorted by level, so lane `q` of slot `s` at level `L`
//! starts at `base[L] + ((s − starts[L])·lanes + q)·(L + 1)` and needs
//! no offset of its own. The answers are those of the full-length layout
//! bit for bit, because every entry above a node's level would be `+0.0`
//! there: inputs start at `+0.0`, a blend `t·0 + (1−t)·0` with
//! `t ∈ [0, 1]` stays `+0.0`, and a node adds its delay variance only at
//! its own level. So [`correlated_max`] blends vectors of unequal length
//! by feeding a literal `0.0` for the shorter side into the same
//! expression, and `overlap_correlation` sums its bucket-wise minimum
//! over the common prefix only: each skipped term is `min(x, +0.0) =
//! +0.0`, and a non-empty sum of such minima is never `-0.0`. The join's
//! change comparison still compares vectors of equal length (one node's
//! old and new vector).
//!
//! # The propagation workspace
//!
//! [`TimingState::update`] keeps its scratch in one reused workspace: the
//! per-level frontier buckets, the level's electrical results, its gate
//! list with their change flags, and the kernel results (bare [`Moments`]
//! for DSTA and FASSTA lanes; for FULLSSTA, moments and point counts
//! beside one PDF stride and one `level + 1` bucket vector per result,
//! in two flat buffers). Each update clears and refills these instead of
//! allocating them per level, and the kernels' own temporaries (the
//! running max of a fanin fold, a gate's delay PDF) are reused per
//! thread, so once a session's trials have sized them, a refresh of any
//! flavor allocates nothing. A from-scratch build ([`TimingState::full`])
//! seeds every node, so it walks each level's schedule slots instead of
//! a frontier, chases no fanout and writes FULLSSTA results straight
//! into their slots, and it drops the workspace when it returns: its
//! buffers are as wide as the widest level, while an incremental refresh
//! needs only its cone's share. A from-scratch analysis therefore keeps
//! no level-wide buffers, and a copied state (a fork) starts with an
//! empty workspace and grows its own.
//!
//! # Undo
//!
//! An update can log every value it overwrites into an [`UndoLog`], typed
//! by what it holds: electrical values per node; lane moments per arena
//! index (every flavor, `(u32, Moments)`); for FULLSSTA only, each
//! slot's old points and bucket prefix, copied into flat buffers; and,
//! for conditioned arenas only, the unconditional mirror. A laneless
//! mirror entry is its lane-0 moments, so [`TimingState::undo`] rewrites
//! it from the restored lane instead of logging it. `undo` writes
//! everything back, so a rejected trial returns to the exact pre-update
//! state without visiting a node. An update visits each node at most
//! once, so the log is bounded by the update's cone. `undo` and
//! [`UndoLog::clear`] empty the log, keeping the buffers, so a session
//! reuses one log for every trial.

use crate::config::{CorrelationMode, SstaConfig};
use crate::delay::{CircuitTiming, NodeElectrical};
use crate::engine::{EngineKind, TimingReport};
use crate::pool::ScopedPool;
use crate::variation::{condition_moments, mix_conditional_moments, mix_lanes};
use std::cell::RefCell;
use std::ops::Range;
use vartol_liberty::Library;
use vartol_netlist::{GateId, Netlist};
use vartol_stats::clark::clark_max_correlated;
use vartol_stats::fast_max::fast_max_moments;
use vartol_stats::{DiscretePdf, Moments, PdfOut, PdfRef};

/// Minimum per-level work items (frontier nodes × lanes) before the
/// compute phase fans out over the pool; narrower levels run inline on
/// the calling thread.
///
/// This is the spawn-amortization strategy: [`ScopedPool`] spawns scoped
/// workers per call (tens of microseconds per thread), which per-level
/// fan-out would otherwise pay at *every* level. A level below this
/// width costs less to compute inline than to spawn for, so small
/// circuits like c17 (max level width ≤ 5) never spawn at any configured
/// width and are immune to per-level join overhead, while wide levels —
/// where kernel work actually dominates — amortize one spawn over at
/// least this many kernels. `benches/ssta_engines.rs` records the
/// crossover (`analytic_parallel` group).
pub(crate) const PARALLEL_LEVEL_MIN: usize = 16;

/// Circuit-level summary of a propagation state (and of a report).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CircuitSummary {
    pub moments: Moments,
    pub pdf: Option<DiscretePdf>,
    pub worst_output: GateId,
}

/// The level permutation computed once per netlist: nodes sorted by
/// `(level, index)` into contiguous **slots**, with the slot spans of
/// each level recorded so the frontier can address "all of level `l`"
/// as one slice.
#[derive(Debug, Clone)]
pub(crate) struct LevelSchedule {
    /// Topological level per node index (inputs are level 0).
    level_of: Vec<usize>,
    /// Slot → node index, sorted by `(level, index)`.
    order: Vec<u32>,
    /// Node index → slot (the inverse permutation).
    slot_of: Vec<u32>,
    /// Level → first slot; `starts[level_count()]` is the node count.
    starts: Vec<usize>,
}

impl LevelSchedule {
    fn build(netlist: &Netlist) -> Self {
        let level_of = netlist.levels();
        let n = level_of.len();
        let depth = level_of.iter().max().copied().unwrap_or(0);
        // Counting sort by level: stable, so slots within one level stay
        // in ascending node-index order — the join order the determinism
        // argument leans on.
        let mut starts = vec![0usize; depth + 2];
        for &l in &level_of {
            starts[l + 1] += 1;
        }
        for l in 1..starts.len() {
            starts[l] += starts[l - 1];
        }
        let mut next = starts.clone();
        let mut order = vec![0u32; n];
        for (i, &l) in level_of.iter().enumerate() {
            order[next[l]] = u32::try_from(i).expect("node counts fit in u32");
            next[l] += 1;
        }
        let mut slot_of = vec![0u32; n];
        for (s, &i) in order.iter().enumerate() {
            slot_of[i as usize] = u32::try_from(s).expect("node counts fit in u32");
        }
        Self {
            level_of,
            order,
            slot_of,
            starts,
        }
    }

    /// Number of levels (at least 1 for a non-empty netlist).
    pub(crate) fn level_count(&self) -> usize {
        self.starts.len() - 1
    }

    /// Level of a node.
    pub(crate) fn level(&self, id: GateId) -> usize {
        self.level_of[id.index()]
    }

    /// Slot of a node in the level-contiguous permutation.
    fn slot(&self, id: GateId) -> usize {
        self.slot_of[id.index()] as usize
    }

    /// Level of the node in a slot.
    fn slot_level(&self, slot: usize) -> usize {
        self.level_of[self.order[slot] as usize]
    }

    /// Widest level (the parallelism ceiling of one propagation).
    pub(crate) fn max_width(&self) -> usize {
        (0..self.level_count())
            .map(|l| self.starts[l + 1] - self.starts[l])
            .max()
            .unwrap_or(0)
    }
}

/// FULLSSTA's arrival PDFs and level buckets in flat slabs, indexed like
/// the arena's moments ([`LaneArena::idx`]); empty for other flavors.
/// PDF entry `i` is one stride of `2·cap` values in the [`PdfOut::new`]
/// layout (support values, then masses) plus its point count. Every
/// stored PDF fits, since every kernel ends in a rebin to `cap` points, a
/// `cap`-point normal or a point mass (module docs).
#[derive(Debug, Clone, Default)]
struct Slabs {
    /// Points per PDF at most: the config's `pdf_samples`.
    cap: usize,
    points: Vec<f64>,
    lens: Vec<u32>,
    /// Every entry's bucket vector at [`LaneArena::bucket_span`]; empty
    /// unless tracking level buckets.
    buckets: Vec<f64>,
}

impl Slabs {
    /// `entries` point masses at `0.0`, the value of a PDF no kernel has
    /// written, and `buckets` entries of `+0.0`.
    fn new(cap: usize, entries: usize, buckets: usize) -> Self {
        let mut points = vec![0.0; 2 * cap * entries];
        for stride in points.chunks_exact_mut(2 * cap) {
            stride[cap] = 1.0;
        }
        Self {
            cap,
            points,
            lens: vec![1; entries],
            buckets: vec![0.0; buckets],
        }
    }

    /// `f64`s per PDF entry.
    fn stride(&self) -> usize {
        2 * self.cap
    }

    fn view(&self) -> SlabView<'_> {
        SlabView {
            stride: self.stride(),
            points: &self.points,
            lens: &self.lens,
            buckets: &self.buckets,
        }
    }

    /// Copies `pdf` into entry `i`.
    fn set_pdf(&mut self, i: usize, pdf: PdfRef<'_>) {
        let s = self.stride();
        PdfOut::new(&mut self.points[i * s..(i + 1) * s]).copy(pdf);
        self.lens[i] = point_count(pdf.len());
    }

    /// Writes one FULLSSTA kernel result — the PDF's moments into
    /// `arrival`, the PDF into entry `i`, the bucket vector at `span` —
    /// and reports whether anything observable downstream changed
    /// (`PartialEq` on PDFs and bucket vectors, the legacy comparisons).
    /// The replaced values are copied into `log` when one is given.
    fn store(
        &mut self,
        i: usize,
        span: Range<usize>,
        arrival: &mut Moments,
        (moments, pdf, bucket): (Moments, PdfRef<'_>, &[f64]),
        log: Option<&mut UndoLog>,
    ) -> bool {
        let old = self.view().pdf(i);
        let changed = pdf != old || bucket != &self.buckets[span.clone()];
        if let Some(log) = log {
            log.moments.push((arena_index(i), *arrival));
            log.pdfs.push((arena_index(i), point_count(old.len())));
            log.pdf_points.extend_from_slice(old.values());
            log.pdf_points.extend_from_slice(old.probs());
            log.buckets.extend_from_slice(&self.buckets[span.clone()]);
        }
        *arrival = moments;
        self.set_pdf(i, pdf);
        self.buckets[span].copy_from_slice(bucket);
        changed
    }
}

/// A report's node-indexed arrival PDFs: a one-lane PDF slab without
/// buckets, addressed through the schedule's node → slot map.
#[derive(Debug, Clone)]
pub(crate) struct NodePdfs {
    slabs: Slabs,
    slot_of: Vec<u32>,
}

impl NodePdfs {
    /// The PDF of node index `node`.
    pub(crate) fn pdf(&self, node: usize) -> PdfRef<'_> {
        self.slabs.view().pdf(self.slot_of[node] as usize)
    }
}

impl PartialEq for NodePdfs {
    /// Node by node, each PDF up to its point count: a stride's tail
    /// holds whatever a longer, earlier PDF of that slot left there.
    fn eq(&self, other: &Self) -> bool {
        self.slot_of.len() == other.slot_of.len()
            && (0..self.slot_of.len()).all(|node| self.pdf(node) == other.pdf(node))
    }
}

/// Read access to [`Slabs`], or (in a from-scratch build's kernels) to
/// the part of them below the running level.
#[derive(Debug, Clone, Copy)]
struct SlabView<'a> {
    stride: usize,
    points: &'a [f64],
    lens: &'a [u32],
    buckets: &'a [f64],
}

impl<'a> SlabView<'a> {
    fn pdf(&self, i: usize) -> PdfRef<'a> {
        let s = self.stride;
        PdfRef::from_stride(&self.points[i * s..(i + 1) * s], self.lens[i] as usize)
    }
}

/// A PDF's point count as the slab and the undo log store it.
fn point_count(len: usize) -> u32 {
    u32::try_from(len).expect("pdf point counts fit in u32")
}

/// Struct-of-arrays arrival storage: flat arrays of moments (all
/// flavors) indexed by [`LaneArena::idx`], plus the layout of the
/// FULLSSTA [`Slabs`] beside them (see the
/// [module docs](self#level-prefix-buckets) for the buckets').
///
/// Laneless propagation is lane 0 with `shift = 0, weight = 1` — same
/// storage, same kernels, bit-identical arithmetic to the pre-arena
/// unconditioned code.
#[derive(Debug, Clone)]
pub(crate) struct LaneArena {
    nodes: usize,
    /// Per-lane mean displacement in per-gate σ units (`ρ·x_q`).
    shifts: Vec<f64>,
    /// Per-lane quadrature weights.
    weights: Vec<f64>,
    /// Arena index → arrival moments.
    arrivals: Vec<Moments>,
    /// Level → bucket-slab offset of its first slot's first lane;
    /// `bucket_base[level_count]` is the slab's length. Empty unless
    /// tracking level buckets.
    bucket_base: Vec<usize>,
    /// Whether the lanes are real Gauss–Hermite conditioning lanes
    /// (true) or the single implicit laneless lane (false) — picks the
    /// reconvergence damping and whether reports must mix lanes.
    conditioned: bool,
}

impl LaneArena {
    fn build(kind: EngineKind, config: &SstaConfig, schedule: &LevelSchedule) -> (Self, Slabs) {
        let nodes = schedule.order.len();
        let track =
            kind == EngineKind::FullSsta && config.correlation == CorrelationMode::LevelBuckets;
        let spec = config.model.conditioning_lanes();
        let (shifts, weights, conditioned) = if spec.is_empty() {
            (vec![0.0], vec![1.0], false)
        } else {
            let (s, w) = spec.iter().copied().unzip();
            (s, w, true)
        };
        let lanes = shifts.len();
        let mut bucket_base = Vec::new();
        if track {
            // Sized up front, so a build allocates alike at any depth.
            bucket_base.reserve_exact(schedule.level_count() + 1);
            bucket_base.push(0);
            for l in 0..schedule.level_count() {
                // A level-`l` slot holds `l + 1` entries per lane.
                let width = schedule.starts[l + 1] - schedule.starts[l];
                bucket_base.push(bucket_base[l] + width * lanes * (l + 1));
            }
        }
        let slabs = if kind == EngineKind::FullSsta {
            let buckets = bucket_base.last().copied().unwrap_or(0);
            Slabs::new(config.pdf_samples, lanes * nodes, buckets)
        } else {
            Slabs::default()
        };
        let arena = Self {
            nodes,
            shifts,
            weights,
            arrivals: vec![Moments::zero(); lanes * nodes],
            bucket_base,
            conditioned,
        };
        (arena, slabs)
    }

    /// Number of lanes (1 when laneless).
    fn lanes(&self) -> usize {
        self.shifts.len()
    }

    /// Whether per-level variance buckets are tracked.
    fn track(&self) -> bool {
        !self.bucket_base.is_empty()
    }

    /// The reconvergence-overlap damping of this arena's kernels:
    /// conditioning lanes damp, the laneless lane keeps the historical
    /// estimator bit for bit.
    fn damp(&self) -> f64 {
        if self.conditioned {
            CONDITIONED_OVERLAP_DAMPING
        } else {
            1.0
        }
    }

    /// The arena index of `(lane, slot)`: slot-major, so a level's
    /// entries, every lane's, are one contiguous run above all lower
    /// levels' (laneless, the index is the slot).
    fn idx(&self, lane: usize, slot: usize) -> usize {
        slot * self.lanes() + lane
    }

    /// Where the buckets of `(lane, slot)` live in the bucket slab, for
    /// a slot at `level`: entries are in arena order, `level + 1` per
    /// entry of a level. Empty unless tracking.
    fn bucket_span(
        &self,
        lane: usize,
        slot: usize,
        level: usize,
        schedule: &LevelSchedule,
    ) -> Range<usize> {
        if !self.track() {
            return 0..0;
        }
        let start = self.bucket_base[level]
            + (self.idx(lane, slot) - self.idx(0, schedule.starts[level])) * (level + 1);
        start..start + level + 1
    }

    /// [`LaneArena::bucket_span`] of arena index `i`.
    fn bucket_span_of(&self, i: usize, schedule: &LevelSchedule) -> Range<usize> {
        let (slot, lane) = (i / self.lanes(), i % self.lanes());
        self.bucket_span(lane, slot, schedule.slot_level(slot), schedule)
    }

    /// A read view of one lane over `slabs`, for the kernels and circuit
    /// reductions.
    fn lane<'a>(
        &'a self,
        lane: usize,
        schedule: &'a LevelSchedule,
        slabs: SlabView<'a>,
    ) -> LaneView<'a> {
        LaneView {
            arena: self,
            lane,
            schedule,
            slabs,
        }
    }

    /// Writes one DSTA/FASSTA kernel result at arena index `i` and
    /// reports whether it changed (`PartialEq` on moments, the legacy
    /// comparison). The replaced moments go into `log` when one is given.
    fn store_moments(&mut self, i: usize, value: Moments, log: Option<&mut UndoLog>) -> bool {
        let changed = value != self.arrivals[i];
        let old = std::mem::replace(&mut self.arrivals[i], value);
        if let Some(log) = log {
            log.moments.push((arena_index(i), old));
        }
        changed
    }
}

/// An arena index as the undo log stores it.
fn arena_index(i: usize) -> u32 {
    u32::try_from(i).expect("lanes × nodes fit in u32")
}

/// Slot-addressed read access to one lane's arrival state, keyed by node
/// id — the kernels' and circuit reductions' window into the arena.
#[derive(Clone, Copy)]
pub(crate) struct LaneView<'a> {
    arena: &'a LaneArena,
    lane: usize,
    schedule: &'a LevelSchedule,
    slabs: SlabView<'a>,
}

impl<'a> LaneView<'a> {
    fn arrival(&self, id: GateId) -> Moments {
        self.arena.arrivals[self.arena.idx(self.lane, self.schedule.slot(id))]
    }

    fn pdf(&self, id: GateId) -> PdfRef<'a> {
        self.slabs
            .pdf(self.arena.idx(self.lane, self.schedule.slot(id)))
    }

    fn contrib(&self, id: GateId) -> &'a [f64] {
        let span = self.arena.bucket_span(
            self.lane,
            self.schedule.slot(id),
            self.schedule.level(id),
            self.schedule,
        );
        &self.slabs.buckets[span]
    }

    fn shift(&self) -> f64 {
        self.arena.shifts[self.lane]
    }

    fn weight(&self) -> f64 {
        self.arena.weights[self.lane]
    }
}

/// The values one logged [`TimingState::update`] overwrote, for
/// [`TimingState::undo`] (see the [module docs](self#undo)). Its
/// buffers are meant to be reused: [`TimingState::undo`] and
/// [`UndoLog::clear`] empty them, keeping their capacity.
#[derive(Debug, Clone, Default)]
pub(crate) struct UndoLog {
    /// Node index → electrical values before the update.
    electrical: Vec<(u32, NodeElectrical)>,
    /// Arena index → lane moments before the update (every flavor).
    moments: Vec<(u32, Moments)>,
    /// Arena index → point count of its FULLSSTA PDF before the update;
    /// the points follow one another in `pdf_points` (values, then
    /// masses).
    pdfs: Vec<(u32, u32)>,
    pdf_points: Vec<f64>,
    /// The bucket vectors of `pdfs`' entries before the update, one after
    /// another; empty unless tracking.
    buckets: Vec<f64>,
    /// Node index → unconditional mirror entry before the update;
    /// conditioned arenas only (a laneless mirror is its lane).
    mirror: Vec<(u32, Moments)>,
}

impl UndoLog {
    /// Forgets the logged values, keeping the buffers.
    pub(crate) fn clear(&mut self) {
        self.electrical.clear();
        self.moments.clear();
        self.pdfs.clear();
        self.pdf_points.clear();
        self.buckets.clear();
        self.mirror.clear();
    }
}

/// The scratch of [`TimingState::update`], kept between updates so that a
/// warm incremental refresh allocates none of it (see the
/// [module docs](self#the-propagation-workspace)).
#[derive(Debug, Default)]
struct Workspace {
    /// Level → frontier node indices, unsorted and possibly repeated until
    /// the level runs.
    frontier: Vec<Vec<u32>>,
    /// Fresh electrical values of the running level's nodes.
    electrical: Vec<NodeElectrical>,
    /// The running level's gates (inputs left out), each with whether
    /// its electrical values changed.
    gates: Vec<(u32, bool)>,
    /// DSTA and FASSTA kernel results, lane-major over `gates`.
    moments: Vec<Moments>,
    /// FULLSSTA kernel results, lane-major over `gates`: each PDF's
    /// moments and point count; the PDF itself is one stride of `pdfs`
    /// and its bucket vector `level + 1` entries of `buckets`.
    kernel: Vec<(Moments, usize)>,
    pdfs: Vec<f64>,
    buckets: Vec<f64>,
    /// Whether each kernel result changed its slot, lane-major.
    changed: Vec<bool>,
}

impl Clone for Workspace {
    /// A copied state starts with empty scratch: a fork grows its own.
    fn clone(&self) -> Self {
        Self::default()
    }
}

/// Per-node propagation state for one engine flavor.
#[derive(Debug, Clone)]
pub(crate) struct TimingState {
    pub kind: EngineKind,
    pub timing: CircuitTiming,
    /// Node-indexed **unconditional** arrival moments — the mirror every
    /// consumer (sessions, slack, criticality, WNSS) reads. Laneless it
    /// duplicates lane 0; with lanes it holds the per-node lane mixture.
    pub arrivals: Vec<Moments>,
    /// Cumulative number of per-node recomputations across updates (a
    /// lane-mode visit recomputes all lanes but counts once).
    pub visits: u64,
    /// The level permutation (shared by every update on this netlist).
    pub(crate) schedule: LevelSchedule,
    /// The SoA arrival storage.
    arena: LaneArena,
    /// FULLSSTA's PDFs and buckets.
    slabs: Slabs,
    /// Residual variance fraction after conditioning (1 without lanes).
    resid: f64,
    /// Reused update scratch; empty after [`TimingState::full`].
    workspace: Workspace,
}

impl TimingState {
    /// Builds the state from scratch: every node seeded into one update.
    pub fn full(
        netlist: &Netlist,
        library: &Library,
        config: &SstaConfig,
        kind: EngineKind,
    ) -> Self {
        assert!(
            kind.supports_incremental(),
            "{kind} has no propagation state"
        );
        let n = netlist.node_count();
        let schedule = LevelSchedule::build(netlist);
        let (arena, slabs) = LaneArena::build(kind, config, &schedule);
        let mut state = Self {
            kind,
            timing: CircuitTiming::empty(netlist, library, config),
            arrivals: vec![Moments::zero(); n],
            visits: 0,
            schedule,
            arena,
            slabs,
            // The per-gate variance multiplier the kernels apply. Empty
            // model: exactly 1.0 (the bit-identical legacy path). With a
            // model but no global source (nothing to condition on), the
            // laneless kernels still honor the model's marginal scale
            // `local² + s_sp²` — otherwise a spatial-only or local-scaled
            // model would be silently ignored by the analytic engines
            // while Monte Carlo applies it per draw.
            resid: if config.model.is_empty() {
                1.0
            } else {
                config.model.conditioned_residual_fraction()
            },
            workspace: Workspace::default(),
        };
        state.sweep(
            netlist,
            library,
            config,
            None::<std::ops::Range<usize>>,
            None,
        );
        // A from-scratch build fills scratch as wide as the widest level;
        // an incremental refresh needs only its cone's share, so keep none.
        state.workspace = Workspace::default();
        state
    }

    /// Propagates a seed set level by level, recomputing electrical and
    /// arrival state and chasing changes into the fanout cone. Seeds may
    /// come in any order and repeat. Returns the number of nodes visited.
    /// With a `log`, every overwritten value is saved there for
    /// [`TimingState::undo`].
    ///
    /// Each level runs compute (parallel when wide, inline when narrow)
    /// then a serial node-ordered join; see the module docs for why the
    /// result is bit-identical to the legacy smallest-index worklist at
    /// every [`SstaConfig::threads`] width.
    pub fn update(
        &mut self,
        netlist: &Netlist,
        library: &Library,
        config: &SstaConfig,
        seeds: impl IntoIterator<Item = usize>,
        log: Option<&mut UndoLog>,
    ) -> u64 {
        self.sweep(netlist, library, config, Some(seeds), log)
    }

    /// [`TimingState::update`], where `None` seeds every node (the
    /// from-scratch build): each level's nodes are then its schedule
    /// slots, already in ascending index order, and no fanout is chased
    /// into a frontier, since every node is visited anyway.
    fn sweep<I: IntoIterator<Item = usize>>(
        &mut self,
        netlist: &Netlist,
        library: &Library,
        config: &SstaConfig,
        seeds: Option<I>,
        mut log: Option<&mut UndoLog>,
    ) -> u64 {
        let pool = ScopedPool::new(config.threads);
        let levels = self.schedule.level_count();
        let lanes = self.arena.lanes();
        let kind = self.kind;
        let every = seeds.is_none();
        let mut ws = std::mem::take(&mut self.workspace);
        if let Some(seeds) = seeds {
            ws.frontier.resize_with(levels, Vec::new);
            for i in seeds {
                ws.frontier[self.schedule.level_of[i]].push(u32::try_from(i).expect("node index"));
            }
        }
        let mut visited = 0u64;
        for level in 0..levels {
            let mut bucket = Vec::new();
            let nodes: &[u32] = if every {
                &self.schedule.order[self.schedule.starts[level]..self.schedule.starts[level + 1]]
            } else if ws.frontier[level].is_empty() {
                continue;
            } else {
                bucket = std::mem::take(&mut ws.frontier[level]);
                // Seeds and fanout pushes from lower levels arrive in
                // discovery order.
                bucket.sort_unstable();
                bucket.dedup();
                &bucket
            };
            visited += nodes.len() as u64;

            // Phase 1a: electrical compute — pure against the snapshot,
            // since fanin slews live at lower levels (already applied)
            // and loads read only the netlist's sizes.
            let timing = &self.timing;
            run_level(
                &pool,
                nodes.len(),
                |k| {
                    let id = GateId::from_index(nodes[k] as usize);
                    timing.compute_node(netlist, library, config, id)
                },
                &mut ws.electrical,
            );
            // Join 1a: bit-compare writes, ascending node order. Primary
            // inputs carry no arrival state and never chase fanouts
            // (their load is bookkeeping only) — same as the legacy
            // worklist's early `continue`.
            ws.gates.clear();
            for (&i, &fresh) in nodes.iter().zip(&ws.electrical) {
                let id = GateId::from_index(i as usize);
                if let Some(log) = log.as_deref_mut() {
                    log.electrical.push((i, self.timing.node(id)));
                }
                let (slew_changed, delay_changed) = self.timing.apply_node(netlist, id, fresh);
                if !netlist.gate(id).is_input() {
                    ws.gates.push((i, slew_changed || delay_changed));
                }
            }
            if !every {
                bucket.clear();
                ws.frontier[level] = bucket;
            }
            if ws.gates.is_empty() {
                continue;
            }

            // Phase 1b: arrival kernels over (node × lane) work items —
            // conditioning lanes are independent parallel work, so a
            // w-node level with q lanes exposes w·q-way parallelism.
            // Items run node-major, the arena's order.
            let m = ws.gates.len();
            let items = m * lanes;
            let arena = &self.arena;
            let schedule = &self.schedule;
            let timing = &self.timing;
            let resid = self.resid;
            let gates = &ws.gates;
            let gate = |t: usize| GateId::from_index(gates[t / lanes].0 as usize);
            // A FULLSSTA result's PDF stride, and its bucket vector: every
            // node of this level has `level + 1` entries.
            let stride = self.slabs.stride();
            let width = if arena.track() { level + 1 } else { 0 };
            match kind {
                EngineKind::Dsta => run_level(
                    &pool,
                    items,
                    |t| {
                        let view = arena.lane(t % lanes, schedule, self.slabs.view());
                        lane_nominal(netlist, timing, gate(t), &view)
                    },
                    &mut ws.moments,
                ),
                EngineKind::Fassta => run_level(
                    &pool,
                    items,
                    |t| {
                        let view = arena.lane(t % lanes, schedule, self.slabs.view());
                        lane_moments(netlist, timing, gate(t), resid, &view)
                    },
                    &mut ws.moments,
                ),
                EngineKind::FullSsta if every => {
                    // A from-scratch build writes each result straight
                    // into its slot: the level's entries follow every
                    // lower level's, which its kernels read.
                    let Slabs {
                        points,
                        lens,
                        buckets,
                        ..
                    } = &mut self.slabs;
                    let first = arena.idx(0, schedule.starts[level]);
                    let (below, here) = points.split_at_mut(first * stride);
                    let bucket_start = arena.bucket_base.get(level).copied().unwrap_or(0);
                    let (buckets_below, buckets_here) = buckets.split_at_mut(bucket_start);
                    let slabs = SlabView {
                        stride,
                        points: below,
                        lens,
                        buckets: buckets_below,
                    };
                    // One stride per (node, lane) of the level, inputs
                    // skipped as the gate list skips them.
                    let nodes = &schedule.order[schedule.starts[level]..schedule.starts[level + 1]];
                    let entries = nodes.len() * lanes;
                    let slots = strides(here, stride, entries)
                        .zip(strides(buckets_here, width, entries))
                        .enumerate()
                        .filter(|(e, _)| {
                            !netlist
                                .gate(GateId::from_index(nodes[e / lanes] as usize))
                                .is_input()
                        })
                        .map(|(_, entry)| entry);
                    run_level_into(
                        &pool,
                        items,
                        slots,
                        |t, pdf, bucket| {
                            let view = arena.lane(t % lanes, schedule, slabs);
                            let out = PdfOut::new(pdf);
                            lane_pdf(netlist, config, timing, gate(t), resid, &view, out, bucket)
                        },
                        &mut ws.kernel,
                    );
                }
                EngineKind::FullSsta => {
                    grow(&mut ws.pdfs, items * stride);
                    grow(&mut ws.buckets, items * width);
                    let slabs = self.slabs.view();
                    let results = strides(&mut ws.pdfs, stride, items).zip(strides(
                        &mut ws.buckets,
                        width,
                        items,
                    ));
                    run_level_into(
                        &pool,
                        items,
                        results,
                        |t, pdf, bucket| {
                            let view = arena.lane(t % lanes, schedule, slabs);
                            let out = PdfOut::new(pdf);
                            lane_pdf(netlist, config, timing, gate(t), resid, &view, out, bucket)
                        },
                        &mut ws.kernel,
                    );
                }
                EngineKind::MonteCarlo => unreachable!("monte carlo has no propagation state"),
            }

            // Join 1b: store every (node, lane) result with the legacy
            // change comparisons, then refresh the unconditional mirror
            // and chase the fanouts of changed nodes.
            ws.changed.clear();
            let index = |t: usize| {
                let slot = self
                    .schedule
                    .slot(GateId::from_index(ws.gates[t / lanes].0 as usize));
                (t % lanes, slot)
            };
            if kind == EngineKind::FullSsta {
                for (t, &(moments, len)) in ws.kernel.iter().enumerate() {
                    let (lane, s) = index(t);
                    let i = self.arena.idx(lane, s);
                    let changed = if every {
                        // Its kernel wrote the PDF and buckets in place.
                        self.arena.arrivals[i] = moments;
                        self.slabs.lens[i] = point_count(len);
                        true
                    } else {
                        let span = self.arena.bucket_span(lane, s, level, &self.schedule);
                        let pdf = PdfRef::from_stride(&ws.pdfs[t * stride..(t + 1) * stride], len);
                        let bucket = &ws.buckets[t * width..(t + 1) * width];
                        self.slabs.store(
                            i,
                            span,
                            &mut self.arena.arrivals[i],
                            (moments, pdf, bucket),
                            log.as_deref_mut(),
                        )
                    };
                    ws.changed.push(changed);
                }
            } else {
                for (t, &value) in ws.moments.iter().enumerate() {
                    let (lane, s) = index(t);
                    let i = self.arena.idx(lane, s);
                    let changed = self.arena.store_moments(i, value, log.as_deref_mut());
                    ws.changed.push(changed);
                }
            }
            for (k, &(i, electrical)) in ws.gates.iter().enumerate() {
                let id = GateId::from_index(i as usize);
                let slot = self.schedule.slot(id);
                let mut changed = electrical;
                changed |= ws.changed[k * lanes..(k + 1) * lanes].contains(&true);
                if self.arena.conditioned {
                    if let Some(log) = log.as_deref_mut() {
                        log.mirror.push((i, self.arrivals[i as usize]));
                    }
                    let arena = &self.arena;
                    let mixed =
                        mix_lanes((0..lanes).map(|lane| {
                            (arena.weights[lane], arena.arrivals[arena.idx(lane, slot)])
                        }));
                    changed |= mixed != self.arrivals[i as usize];
                    self.arrivals[i as usize] = mixed;
                } else {
                    self.arrivals[i as usize] = self.arena.arrivals[slot];
                }
                if changed && !every {
                    for &f in netlist.gate(id).fanouts() {
                        ws.frontier[self.schedule.level_of[f.index()]]
                            .push(u32::try_from(f.index()).expect("node index"));
                    }
                }
            }
        }
        self.workspace = ws;
        self.visits += visited;
        visited
    }

    /// Writes back every value a logged [`TimingState::update`]
    /// overwrote and leaves `log` empty with its buffers kept. A laneless
    /// mirror entry is rewritten from its restored lane. Nothing is
    /// recomputed, so `visits` does not move.
    pub fn undo(&mut self, log: &mut UndoLog) {
        for (i, saved) in log.electrical.drain(..).rev() {
            self.timing
                .restore_node(GateId::from_index(i as usize), saved);
        }
        // An update visits each node once, so each arena index is logged
        // at most once and these copies may go in any order.
        let (mut points, mut buckets) = (&log.pdf_points[..], &log.buckets[..]);
        for &(i, len) in &log.pdfs {
            let (i, len) = (i as usize, len as usize);
            let (pdf, rest) = points.split_at(2 * len);
            points = rest;
            self.slabs.set_pdf(i, PdfRef::new(&pdf[..len], &pdf[len..]));
            let span = self.arena.bucket_span_of(i, &self.schedule);
            let (bucket, rest) = buckets.split_at(span.len());
            buckets = rest;
            self.slabs.buckets[span].copy_from_slice(bucket);
        }
        log.pdfs.clear();
        log.pdf_points.clear();
        log.buckets.clear();
        for (i, m) in log.moments.drain(..).rev() {
            self.arena.arrivals[i as usize] = m;
            if !self.arena.conditioned {
                // Laneless, the arena index is the slot.
                self.arrivals[self.schedule.order[i as usize] as usize] = m;
            }
        }
        for (i, m) in log.mirror.drain(..).rev() {
            self.arrivals[i as usize] = m;
        }
    }

    /// Reduces the primary outputs into the circuit-level RV and picks
    /// the statistically-worst output.
    pub fn circuit(&self, netlist: &Netlist, config: &SstaConfig) -> CircuitSummary {
        let mut summary = CircuitSummary {
            moments: Moments::zero(),
            pdf: None,
            worst_output: GateId::from_index(0),
        };
        self.circuit_into(netlist, config, &mut summary);
        summary
    }

    /// [`TimingState::circuit`] into `summary`, reusing its PDF's
    /// buffers: a laneless FULLSSTA reduction then allocates nothing
    /// once this thread's kernel scratch is sized.
    pub fn circuit_into(
        &self,
        netlist: &Netlist,
        config: &SstaConfig,
        summary: &mut CircuitSummary,
    ) {
        if !self.arena.conditioned {
            return self.circuit_unconditioned(netlist, config, summary);
        }
        let lanes = self.arena.lanes();
        let views = (0..lanes).map(|l| self.lane(l));
        match self.kind {
            EngineKind::Dsta => {
                // Per lane: the deterministic longest path under that
                // lane's global shift; mixing the lanes spreads the
                // corners into circuit-level moments.
                let moments = mix_conditional_moments(views.map(|v| {
                    let max = netlist
                        .outputs()
                        .iter()
                        .map(|&o| v.arrival(o).mean)
                        .fold(f64::NEG_INFINITY, f64::max);
                    (v.weight(), Moments::new(max, 0.0))
                }));
                let (&worst_output, _) = netlist
                    .outputs()
                    .iter()
                    .map(|o| (o, self.arrivals[o.index()].mean))
                    .max_by(|a, b| a.1.total_cmp(&b.1))
                    .expect("netlists have at least one output");
                *summary = CircuitSummary {
                    moments,
                    pdf: None,
                    worst_output,
                };
            }
            EngineKind::Fassta => {
                let moments = mix_conditional_moments(views.map(|v| {
                    let m = netlist
                        .outputs()
                        .iter()
                        .map(|&o| v.arrival(o))
                        .reduce(fast_max_moments)
                        .expect("netlists have at least one output");
                    (v.weight(), m)
                }));
                *summary = CircuitSummary {
                    moments,
                    pdf: None,
                    worst_output: self.rank_worst_output(netlist, config),
                };
            }
            EngineKind::FullSsta => {
                let n = config.pdf_samples;
                let lane_pdfs: Vec<(f64, DiscretePdf)> = views
                    .map(|v| {
                        (
                            v.weight(),
                            self.output_pdf(&v, netlist, config, |p| p.to_pdf()),
                        )
                    })
                    .collect();
                let moments =
                    mix_conditional_moments(lane_pdfs.iter().map(|(w, p)| (*w, p.moments())));
                let pdf = mix_lane_pdfs(lane_pdfs.iter().map(|(w, p)| (*w, p.view())), n);
                *summary = CircuitSummary {
                    moments,
                    pdf: Some(pdf),
                    worst_output: self.rank_worst_output(netlist, config),
                };
            }
            EngineKind::MonteCarlo => unreachable!("monte carlo has no propagation state"),
        }
    }

    /// The legacy (laneless) circuit reduction over lane 0.
    fn circuit_unconditioned(
        &self,
        netlist: &Netlist,
        config: &SstaConfig,
        summary: &mut CircuitSummary,
    ) {
        match self.kind {
            EngineKind::Dsta => {
                let (&worst_output, max_delay) = netlist
                    .outputs()
                    .iter()
                    .map(|o| (o, self.arrivals[o.index()].mean))
                    .max_by(|a, b| a.1.total_cmp(&b.1))
                    .expect("netlists have at least one output");
                *summary = CircuitSummary {
                    moments: Moments::new(max_delay, 0.0),
                    pdf: None,
                    worst_output,
                };
            }
            EngineKind::Fassta => {
                let moments = netlist
                    .outputs()
                    .iter()
                    .map(|o| self.arrivals[o.index()])
                    .reduce(fast_max_moments)
                    .expect("netlists have at least one output");
                *summary = CircuitSummary {
                    moments,
                    pdf: None,
                    worst_output: self.rank_worst_output(netlist, config),
                };
            }
            EngineKind::FullSsta => {
                let view = self.lane(0);
                let pdf = &mut summary.pdf;
                summary.moments = self.output_pdf(&view, netlist, config, |reduced| {
                    match pdf {
                        Some(pdf) => pdf.assign(reduced),
                        None => *pdf = Some(reduced.to_pdf()),
                    }
                    reduced.moments()
                });
                summary.worst_output = self.rank_worst_output(netlist, config);
            }
            EngineKind::MonteCarlo => unreachable!("monte carlo has no propagation state"),
        }
    }

    /// Reduces the outputs' PDFs in one lane with [`correlated_max`] and
    /// hands the result to `take`.
    fn output_pdf<R>(
        &self,
        view: &LaneView<'_>,
        netlist: &Netlist,
        config: &SstaConfig,
        take: impl FnOnce(PdfRef<'_>) -> R,
    ) -> R {
        TEMPS.with(|temps| {
            let mut temps = temps.borrow_mut();
            let (pdf, _) = reduce_correlated(
                view,
                netlist.outputs(),
                config.pdf_samples,
                self.arena.damp(),
                self.schedule.level_count(),
                &mut temps.fold,
            )
            .expect("netlists have at least one output");
            take(pdf)
        })
    }

    /// A read view of one lane.
    fn lane(&self, lane: usize) -> LaneView<'_> {
        self.arena.lane(lane, &self.schedule, self.slabs.view())
    }

    /// Statistically-worst output by pairwise dominance/sensitivity
    /// ranking — delegated to [`crate::WnssTracer`] so every engine uses
    /// the one rule (over the unconditional arrivals).
    fn rank_worst_output(&self, netlist: &Netlist, config: &SstaConfig) -> GateId {
        crate::WnssTracer::new(config.variation.mu_sigma_coupling())
            .worst_output(netlist, &self.arrivals)
    }

    /// A conditioned arena's **unconditional** arrival PDFs: a one-lane
    /// slab holding each slot's weighted lane mixture. Mixing at report
    /// time instead of per visit is observationally identical — the
    /// mixture depends only on the final lane PDFs, and the legacy
    /// per-visit mixture never fed the change detection.
    fn mixed_pdfs(&self) -> Slabs {
        let (lanes, cap) = (self.arena.lanes(), self.slabs.cap);
        let mut mixed = Slabs::new(cap, self.arena.nodes, 0);
        for slot in 0..self.arena.nodes {
            let pdf = mix_lane_pdfs(
                (0..lanes).map(|lane| {
                    (
                        self.arena.weights[lane],
                        self.slabs.view().pdf(self.arena.idx(lane, slot)),
                    )
                }),
                cap,
            );
            mixed.set_pdf(slot, pdf.view());
        }
        mixed
    }

    /// Packages the state as a [`TimingReport`], consuming it: the
    /// bucket slab is freed once the circuit summary is reduced, and a
    /// laneless state's PDF slab and node → slot map then move into the
    /// report, so nothing is copied.
    pub fn into_report(mut self, netlist: &Netlist, config: &SstaConfig) -> TimingReport {
        let circuit = self.circuit(netlist, config);
        self.slabs.buckets = Vec::new();
        let pdfs = (self.kind == EngineKind::FullSsta).then(|| NodePdfs {
            slabs: if self.arena.conditioned {
                self.mixed_pdfs()
            } else {
                std::mem::take(&mut self.slabs)
            },
            slot_of: std::mem::take(&mut self.schedule.slot_of),
        });
        TimingReport {
            kind: self.kind,
            arrivals: self.arrivals,
            pdfs,
            circuit,
            timing: self.timing,
            samples: None,
        }
    }

    /// Packages the state as a [`TimingReport`] without consuming it,
    /// given its circuit summary (as [`TimingState::circuit`] returns
    /// it): copies only what the report holds — a laneless PDF slab
    /// without its buckets.
    pub fn report(&self, circuit: &CircuitSummary) -> TimingReport {
        let pdfs = (self.kind == EngineKind::FullSsta).then(|| NodePdfs {
            slabs: if self.arena.conditioned {
                self.mixed_pdfs()
            } else {
                Slabs {
                    cap: self.slabs.cap,
                    points: self.slabs.points.clone(),
                    lens: self.slabs.lens.clone(),
                    ..Slabs::default()
                }
            },
            slot_of: self.schedule.slot_of.clone(),
        });
        TimingReport {
            kind: self.kind,
            arrivals: self.arrivals.clone(),
            pdfs,
            circuit: circuit.clone(),
            timing: self.timing.clone(),
            samples: None,
        }
    }
}

/// Grows `buf` to at least `len` entries; what it holds is scratch.
fn grow(buf: &mut Vec<f64>, len: usize) {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
}

/// Runs `job` over `0..tasks` into `out` (cleared first, capacity
/// kept), fanning out over the pool only when the level is wide enough
/// to amortize the spawn cost ([`PARALLEL_LEVEL_MIN`]); narrow levels
/// run inline.
fn run_level<T, F>(pool: &ScopedPool, tasks: usize, job: F, out: &mut Vec<T>)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    out.clear();
    if tasks >= PARALLEL_LEVEL_MIN && pool.threads() > 1 {
        out.extend(pool.map(tasks, job));
    } else {
        out.extend((0..tasks).map(job));
    }
}

/// [`run_level`] for FULLSSTA's kernels, which also write task `t`'s
/// PDF and bucket vector into the `t`-th pair of `outputs`.
fn run_level_into<'o, T, F>(
    pool: &ScopedPool,
    tasks: usize,
    outputs: impl Iterator<Item = (&'o mut [f64], &'o mut [f64])>,
    job: F,
    out: &mut Vec<T>,
) where
    T: Send,
    F: Fn(usize, &mut [f64], &mut [f64]) -> T + Sync,
{
    out.clear();
    if tasks >= PARALLEL_LEVEL_MIN && pool.threads() > 1 {
        out.extend(pool.map_items(outputs.collect(), |t, (pdf, bucket)| job(t, pdf, bucket)));
    } else {
        out.extend(
            outputs
                .enumerate()
                .map(|(t, (pdf, bucket))| job(t, pdf, bucket)),
        );
    }
    debug_assert_eq!(out.len(), tasks);
}

/// The first `count` consecutive `stride`-long pieces of `buf` (empty
/// pieces for a zero stride).
fn strides(buf: &mut [f64], stride: usize, count: usize) -> impl Iterator<Item = &mut [f64]> {
    let mut rest = buf;
    (0..count).map(move |_| {
        let (head, tail) = std::mem::take(&mut rest).split_at_mut(stride);
        rest = tail;
        head
    })
}

/// The DSTA per-node kernel in one lane: nominal longest path with the
/// lane's shared mean shift.
fn lane_nominal(
    netlist: &Netlist,
    timing: &CircuitTiming,
    id: GateId,
    view: &LaneView<'_>,
) -> Moments {
    let g = netlist.gate(id);
    let worst_in = g
        .fanins()
        .iter()
        .map(|&f| view.arrival(f).mean)
        .fold(0.0f64, f64::max);
    let delay = timing.nominal_delay(id) + timing.delay_moments(id).var.sqrt() * view.shift();
    Moments::new(worst_in + delay, 0.0)
}

/// The FASSTA per-node kernel in one lane: moment propagation with
/// conditioned delays.
fn lane_moments(
    netlist: &Netlist,
    timing: &CircuitTiming,
    id: GateId,
    resid: f64,
    view: &LaneView<'_>,
) -> Moments {
    let g = netlist.gate(id);
    let arrival = g
        .fanins()
        .iter()
        .map(|&f| view.arrival(f))
        .reduce(fast_max_moments)
        .unwrap_or_else(Moments::zero);
    arrival + condition_moments(timing.delay_moments(id), view.shift(), resid)
}

/// The FULLSSTA per-node kernel in one lane: discrete-PDF propagation
/// (with optional level-bucket correlation tracking) under conditioned
/// delays. Writes the node's PDF into `out` and, when tracking, its
/// `level + 1` buckets into `bucket`; returns the PDF's moments and point
/// count.
#[allow(clippy::too_many_arguments)]
fn lane_pdf(
    netlist: &Netlist,
    config: &SstaConfig,
    timing: &CircuitTiming,
    id: GateId,
    resid: f64,
    view: &LaneView<'_>,
    out: PdfOut<'_>,
    bucket: &mut [f64],
) -> (Moments, usize) {
    let g = netlist.gate(id);
    let n = config.pdf_samples;
    let level = view.schedule.level(id);
    TEMPS.with(|temps| {
        let Temps { fold, delay } = &mut *temps.borrow_mut();
        let acc = reduce_correlated(view, g.fanins(), n, view.arena.damp(), level + 1, fold);
        let (arrival, v) = acc.unwrap_or((PdfRef::new(&[0.0], &[1.0]), &[]));
        // Fanins sit at lower levels, so their vectors (and a blend of
        // them, already `level + 1` long) fit; the rest stays `+0.0`.
        let (head, tail) = bucket.split_at_mut(v.len());
        head.copy_from_slice(v);
        tail.fill(0.0);
        let delay_m = condition_moments(timing.delay_moments(id), view.shift(), resid);
        grow(delay, 2 * n);
        let delay = PdfOut::new(&mut delay[..2 * n]).from_moments(delay_m, n);
        let pdf = out.add_rebinned(arrival, delay, n);
        if let Some(own) = bucket.get_mut(level) {
            *own += delay_m.var;
        }
        (pdf.moments(), pdf.len())
    })
}

/// A thread's reused buffers for [`lane_pdf`] and the circuit reduction.
#[derive(Default)]
struct Temps {
    fold: Fold,
    /// A gate's delay PDF.
    delay: Vec<f64>,
}

/// The buffers of [`reduce_correlated`].
#[derive(Default)]
struct Fold {
    /// The running max and the next one, one PDF stride each.
    pdfs: [Vec<f64>; 2],
    /// Their blended bucket vectors.
    buckets: [Vec<f64>; 2],
}

thread_local! {
    static TEMPS: RefCell<Temps> = RefCell::new(Temps::default());
}

/// Folds the arrival PDFs (and bucket vectors, when the arena tracks
/// them) of `ids` with [`correlated_max`] — the one reduction both node
/// propagation and the circuit-level output RV use, reading one lane of
/// the arena. A single id comes back borrowed from the arena; a fold
/// ends in `fold`. Blended vectors are `len` entries long, which must
/// cover every id's vector.
fn reduce_correlated<'r>(
    view: &LaneView<'r>,
    ids: &[GateId],
    n: usize,
    damp: f64,
    len: usize,
    fold: &'r mut Fold,
) -> Option<(PdfRef<'r>, &'r [f64])> {
    let (&first, rest) = ids.split_first()?;
    let Some((&second, rest)) = rest.split_first() else {
        return Some((view.pdf(first), view.contrib(first)));
    };
    let width = if view.arena.track() { len } else { 0 };
    let Fold {
        pdfs: [pa, pb],
        buckets: [va, vb],
    } = fold;
    for (buf, want) in [
        (&mut *pa, 2 * n),
        (&mut *pb, 2 * n),
        (&mut *va, width),
        (&mut *vb, width),
    ] {
        grow(buf, want);
    }
    let (mut pa, mut pb) = (&mut pa[..2 * n], &mut pb[..2 * n]);
    let (mut va, mut vb) = (&mut va[..width], &mut vb[..width]);
    // The arena stores each PDF's moments; a max's result has none.
    let mut acc = correlated_max(
        (
            view.pdf(first),
            view.contrib(first),
            Some(view.arrival(first)),
        ),
        (view.pdf(second), view.contrib(second), view.arrival(second)),
        n,
        damp,
        (PdfOut::new(pa), va),
    )
    .len();
    for &id in rest {
        acc = correlated_max(
            (PdfRef::from_stride(pa, acc), va, None),
            (view.pdf(id), view.contrib(id), view.arrival(id)),
            n,
            damp,
            (PdfOut::new(pb), vb),
        )
        .len();
        std::mem::swap(&mut pa, &mut pb);
        std::mem::swap(&mut va, &mut vb);
    }
    let (pa, va): (&'r [f64], &'r [f64]) = (pa, va);
    Some((PdfRef::from_stride(pa, acc), va))
}

/// The weighted mixture of per-lane PDFs, rebinned to `n` support points
/// — the unconditional distribution of a quantity whose conditional
/// distributions the lanes hold.
fn mix_lane_pdfs<'a>(lanes: impl Iterator<Item = (f64, PdfRef<'a>)>, n: usize) -> DiscretePdf {
    let mut points: Vec<(f64, f64)> = Vec::new();
    for (w, pdf) in lanes {
        points.extend(
            pdf.values()
                .iter()
                .zip(pdf.probs())
                .map(|(&v, &p)| (v, w * p)),
        );
    }
    DiscretePdf::from_points(points).rebin(n)
}

/// Damping applied to the bucket-overlap correlation estimate inside
/// **conditioning lanes** only. The bucket-wise minimum double-counts
/// disjoint sibling subtrees — in balanced fan-in trees the two sides
/// accumulate *identical* per-level variance without sharing a single
/// gate, so the raw overlap reads fully shared and the estimated max is
/// biased low. Halving the overlap splits the difference between the
/// raw estimator (which under-predicts the mean on reconvergent
/// circuits like `ecc_16`) and full independence (which over-predicts
/// it); calibrated against 30k-sample Monte Carlo on the benchmark
/// suite, it holds conditioned FULLSSTA within ~1% of MC (asserted at
/// 2% in `tests/correlated_variation.rs`). The **unconditioned** path
/// keeps the historical estimator (damping 1) bit for bit.
pub(crate) const CONDITIONED_OVERLAP_DAMPING: f64 = 0.5;

/// One pairwise PDF max with optional correlation handling (the
/// FULLSSTA kernel, shared by from-scratch and incremental analysis):
/// writes the result PDF and, when tracking (a non-empty `out_v`), the
/// blended bucket vector, `out_v.len()` entries long, into `out`. Each
/// input comes with its moments when the arena stores them
/// (`a.moments()` otherwise).
fn correlated_max<'o>(
    (a, av, ma): (PdfRef<'_>, &[f64], Option<Moments>),
    (b, bv, mb): (PdfRef<'_>, &[f64], Moments),
    n: usize,
    damp: f64,
    (out, out_v): (PdfOut<'o>, &mut [f64]),
) -> PdfRef<'o> {
    if out_v.is_empty() {
        return out.max_rebinned(a, b, n);
    }
    let ma = ma.unwrap_or_else(|| a.moments());
    let rho = overlap_correlation(av, bv, ma.var, mb.var, damp);
    let cm = clark_max_correlated(ma, mb, rho);
    let pdf = out.max_with_moments(a, b, cm.max, n);
    blend(av, bv, cm.tightness_a, out_v);
    pdf
}

/// The tightness-weighted blend `t·a + (1−t)·b` of two prefix vectors
/// into `out` (at least as long as both). A level past a vector's end is
/// its implicit `+0.0`, fed into the same expression, so the entries
/// equal the full-length blend's bit for bit.
fn blend(av: &[f64], bv: &[f64], t: f64, out: &mut [f64]) {
    debug_assert!(av.len() <= out.len() && bv.len() <= out.len());
    let mix = |x: f64, y: f64| t * x + (1.0 - t) * y;
    let common = av.len().min(bv.len());
    for (o, (&x, &y)) in out.iter_mut().zip(av.iter().zip(bv)) {
        *o = mix(x, y);
    }
    for (o, &x) in out[common..].iter_mut().zip(&av[common..]) {
        *o = mix(x, 0.0);
    }
    for (o, &y) in out[common..].iter_mut().zip(&bv[common..]) {
        *o = mix(0.0, y);
    }
    out[av.len().max(bv.len())..].fill(mix(0.0, 0.0));
}

/// Correlation estimate from shared per-level variance: the bucket-wise
/// minimum approximates the variance of the common path prefix. Summing
/// the common prefix only is exact: each skipped term is
/// `min(x, +0.0) = +0.0`, and the non-empty prefix sum is never `-0.0`.
fn overlap_correlation(av: &[f64], bv: &[f64], var_a: f64, var_b: f64, damp: f64) -> f64 {
    if var_a <= 1e-12 || var_b <= 1e-12 {
        return 0.0;
    }
    let shared: f64 = av.iter().zip(bv).map(|(x, y)| x.min(*y)).sum();
    (damp * shared / (var_a * var_b).sqrt()).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vartol_netlist::generators::{random_dag, ripple_carry_adder, RandomDagConfig};

    #[test]
    fn schedule_orders_slots_by_level_then_index() {
        let lib = Library::synthetic_90nm();
        let n = ripple_carry_adder(8, &lib);
        let s = LevelSchedule::build(&n);
        assert_eq!(s.order.len(), n.node_count());
        for slot in 1..s.order.len() {
            let (a, b) = (s.order[slot - 1] as usize, s.order[slot] as usize);
            assert!(
                (s.level_of[a], a) < (s.level_of[b], b),
                "slots sorted by (level, index)"
            );
        }
        for (i, &slot) in s.slot_of.iter().enumerate() {
            assert_eq!(s.order[slot as usize] as usize, i, "inverse permutation");
        }
        for l in 0..s.level_count() {
            for slot in s.starts[l]..s.starts[l + 1] {
                assert_eq!(s.level_of[s.order[slot] as usize], l);
            }
        }
    }

    #[test]
    fn fanouts_always_live_at_strictly_higher_levels() {
        // The frontier invariant: processing level l only ever pushes
        // into buckets > l, so each node is visited at most once.
        let lib = Library::synthetic_90nm();
        let n = random_dag(
            RandomDagConfig {
                inputs: 12,
                gates: 150,
                window: 32,
            },
            0xDA61,
            &lib,
        );
        let s = LevelSchedule::build(&n);
        for id in n.node_ids() {
            for &f in n.gate(id).fanouts() {
                assert!(s.level(f) > s.level(id), "{id:?} -> {f:?}");
            }
        }
    }

    #[test]
    fn small_circuits_never_cross_the_parallel_threshold() {
        // The spawn-amortization contract for tiny circuits: c17-sized
        // netlists stay below PARALLEL_LEVEL_MIN at every level, so
        // per-level fan-out never spawns a thread for them no matter how
        // wide the configured pool is.
        let lib = Library::synthetic_90nm();
        let n = ripple_carry_adder(2, &lib);
        let s = LevelSchedule::build(&n);
        assert!(
            s.max_width() < PARALLEL_LEVEL_MIN,
            "max level width {} must run inline",
            s.max_width()
        );
    }

    #[test]
    fn wide_dags_do_cross_the_parallel_threshold() {
        // ...while the determinism suites' wide circuits genuinely
        // exercise the parallel join path.
        let lib = Library::synthetic_90nm();
        let n = random_dag(
            RandomDagConfig {
                inputs: 32,
                gates: 600,
                window: 220,
            },
            0xBEEF,
            &lib,
        );
        let s = LevelSchedule::build(&n);
        assert!(
            s.max_width() >= PARALLEL_LEVEL_MIN,
            "max level width {} should fan out",
            s.max_width()
        );
    }

    /// The full-length blend of [`correlated_max`] before buckets became
    /// level prefixes, verbatim.
    fn full_length_blend(av: &[f64], bv: &[f64], t: f64) -> Vec<f64> {
        av.iter()
            .zip(bv)
            .map(|(x, y)| t * x + (1.0 - t) * y)
            .collect()
    }

    /// The full-length [`overlap_correlation`] before buckets became level
    /// prefixes, verbatim.
    fn full_length_overlap(av: &[f64], bv: &[f64], var_a: f64, var_b: f64, damp: f64) -> f64 {
        if var_a <= 1e-12 || var_b <= 1e-12 {
            return 0.0;
        }
        let shared: f64 = av.iter().zip(bv).map(|(x, y)| x.min(*y)).sum();
        (damp * shared / (var_a * var_b).sqrt()).clamp(0.0, 1.0)
    }

    /// A prefix vector in the full-length layout: `+0.0` above its end.
    fn full_length(v: &[f64], depth: usize) -> Vec<f64> {
        let mut full = v.to_vec();
        full.resize(depth, 0.0);
        full
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// [`blend`] into a new `len`-entry vector.
    fn blended(av: &[f64], bv: &[f64], t: f64, len: usize) -> Vec<f64> {
        let mut out = vec![f64::NAN; len];
        blend(av, bv, t, &mut out);
        out
    }

    #[test]
    fn prefix_blend_and_overlap_equal_the_full_length_forms_bit_for_bit() {
        const DEPTH: usize = 7;
        let vectors: [&[f64]; 7] = [
            &[0.0],
            &[3.25],
            &[0.0, 0.0, 2.5],
            &[1.5, 0.0, 4.0],
            &[0.125, 7.0, 0.0, 1.0 / 3.0, 0.0],
            &[2.0, 0.5, 0.0, 0.0, 6.0, 0.0],
            &[1e-9, 0.0, 3.0, 1e3, 0.0, 5.5, 0.75],
        ];
        let tightness = [0.0, 1.0, 0.5, 0.25, 0.731_058_578_630_004_9, 1e-17];
        let mut unequal = 0;
        for av in vectors {
            for bv in vectors {
                unequal += usize::from(av.len() != bv.len());
                let (fa, fb) = (full_length(av, DEPTH), full_length(bv, DEPTH));
                let len = av.len().max(bv.len());
                for t in tightness {
                    let full = full_length_blend(&fa, &fb, t);
                    let prefix = blended(av, bv, t, len);
                    assert_eq!(
                        bits(&full_length(&prefix, DEPTH)),
                        bits(&full),
                        "{av:?} {bv:?} t={t}"
                    );
                    assert_eq!(
                        bits(&blended(av, bv, t, DEPTH)),
                        bits(&full),
                        "{av:?} {bv:?} t={t}"
                    );
                }
                for (var_a, var_b, damp) in [(40.0, 55.0, 1.0), (1e3, 2.5e3, 0.5), (0.0, 9.0, 1.0)]
                {
                    assert_eq!(
                        overlap_correlation(av, bv, var_a, var_b, damp).to_bits(),
                        full_length_overlap(&fa, &fb, var_a, var_b, damp).to_bits(),
                        "{av:?} {bv:?}"
                    );
                }
            }
        }
        assert!(unequal > 0);
    }

    /// Asserts that the `(lane, slot)` bucket spans, in arena order, tile
    /// the bucket slab exactly, each `level + 1` entries long, and that
    /// the slab never grew; returns its entry count.
    fn checked_bucket_entries(state: &TimingState) -> usize {
        let arena = &state.arena;
        let mut end = 0;
        for i in 0..arena.lanes() * arena.nodes {
            let span = arena.bucket_span_of(i, &state.schedule);
            let node = state.schedule.order[i / arena.lanes()] as usize;
            assert_eq!(span.start, end, "node {node}");
            assert_eq!(span.len(), state.schedule.level_of[node] + 1, "node {node}");
            end = span.end;
        }
        let buckets = &state.slabs.buckets;
        assert_eq!(end, buckets.len());
        assert_eq!(buckets.capacity(), buckets.len(), "exact capacity");
        end
    }

    #[test]
    fn bucket_vectors_stay_level_prefixes_through_a_session_history() {
        let lib = Library::synthetic_90nm();
        let n = random_dag(
            RandomDagConfig {
                inputs: 12,
                gates: 200,
                window: 24,
            },
            0xB0C4,
            &lib,
        );
        let prefix_entries: usize = n.levels().iter().map(|l| l + 1).sum();
        let gates: Vec<GateId> = n.gate_ids().collect();
        for config in [
            SstaConfig::default(),
            SstaConfig::default().with_model(crate::VariationModel::die_to_die(0.5)),
        ] {
            let mut session = crate::TimingSession::new(&lib, config, n.clone());
            let lanes = session.state().arena.lanes();
            assert_eq!(lanes > 1, !session.config().model.is_empty());
            let want = lanes * prefix_entries;
            assert_eq!(checked_bucket_entries(session.state()), want, "full build");
            session.resize(gates[5], 3);
            session.refresh();
            assert_eq!(checked_bucket_entries(session.state()), want, "refresh");
            session.resize(gates[40], 2);
            session.resize(gates[7], 4);
            session.refresh_undoable();
            assert_eq!(
                checked_bucket_entries(session.state()),
                want,
                "undoable refresh"
            );
            assert!(session.undo());
            assert_eq!(checked_bucket_entries(session.state()), want, "undo");
            let mut branch = session.fork();
            branch.resize(gates[11], 5);
            branch.resize(gates[150], 1);
            session.commit(branch).expect("commits");
            assert_eq!(
                checked_bucket_entries(session.state()),
                want,
                "fork + commit"
            );
        }
    }

    /// Asserts that every slot's stored moments are its PDF's moments
    /// bit for bit — what [`reduce_correlated_outputs`] reads instead of
    /// recomputing them.
    fn assert_stored_moments(state: &TimingState, what: &str) {
        let arena = &state.arena;
        assert_eq!(state.slabs.lens.len(), arena.arrivals.len());
        for (i, stored) in arena.arrivals.iter().enumerate() {
            let m = state.slabs.view().pdf(i).moments();
            assert_eq!(
                (stored.mean.to_bits(), stored.var.to_bits()),
                (m.mean.to_bits(), m.var.to_bits()),
                "{what}: slot {i}"
            );
        }
    }

    #[test]
    fn stored_moments_are_the_pdf_moments_in_every_slot() {
        let lib = Library::synthetic_90nm();
        let n = random_dag(
            RandomDagConfig {
                inputs: 12,
                gates: 200,
                window: 24,
            },
            0x5707,
            &lib,
        );
        let gates: Vec<GateId> = n.gate_ids().collect();
        for config in [
            SstaConfig::default(),
            SstaConfig::default().with_correlation(CorrelationMode::Independent),
            SstaConfig::default().with_model(crate::VariationModel::die_to_die(0.5)),
        ] {
            let mut session = crate::TimingSession::new(&lib, config, n.clone());
            // Primary inputs keep the initial slot values.
            let state = session.state();
            assert!(n.inputs().iter().all(|&i| {
                let slot = state.schedule.slot(i);
                (0..state.arena.lanes()).all(|lane| {
                    let pdf = state.slabs.view().pdf(state.arena.idx(lane, slot));
                    pdf == DiscretePdf::deterministic(0.0).view()
                })
            }));
            assert_stored_moments(session.state(), "build");
            session.resize(gates[5], 3);
            session.resize(gates[120], 4);
            session.refresh_undoable();
            assert_stored_moments(session.state(), "undoable refresh");
            assert!(session.undo());
            assert_stored_moments(session.state(), "undo");
        }
    }

    #[test]
    fn arena_update_matches_for_serial_and_parallel_pools() {
        let lib = Library::synthetic_90nm();
        let n = random_dag(
            RandomDagConfig {
                inputs: 32,
                gates: 600,
                window: 220,
            },
            0xBEEF,
            &lib,
        );
        for kind in [EngineKind::Dsta, EngineKind::Fassta, EngineKind::FullSsta] {
            let serial = TimingState::full(&n, &lib, &SstaConfig::default().with_threads(1), kind);
            let wide = TimingState::full(&n, &lib, &SstaConfig::default().with_threads(8), kind);
            assert_eq!(serial.arrivals, wide.arrivals, "{kind}");
            assert_eq!(serial.visits, wide.visits, "{kind}");
            assert_eq!(
                serial.circuit(&n, &SstaConfig::default()),
                wide.circuit(&n, &SstaConfig::default()),
                "{kind}"
            );
        }
    }
}
