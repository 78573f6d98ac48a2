//! Lagrangian-relaxation / sensitivity-guided global sizing.
//!
//! The discrete sizing problem `min area s.t. cost(endpoint e) ≤ T ∀e`
//! is relaxed two ways: per-endpoint constraints move into the
//! objective with Lagrange multipliers λ_e (projected-subgradient
//! updates, see [`update_multipliers`](super::update_multipliers)), and
//! gate sizes become continuous variables x_g stepped along the
//! Lagrangian gradient `∂A/∂x + (Σ_{e ∈ reach(g)} λ_e)·∂D/∂x`. The
//! delay sensitivity `∂D/∂x` is probed numerically: each gate is
//! re-evaluated at its neighbor drive indices with the fast engine over
//! a local subcircuit against frozen boundary statistics — the same
//! fan-out `StatisticalGreedy` uses: one netlist copy per pool worker,
//! read against the session's pass-start arrivals and electrical
//! snapshot, so the pass is bit-identical at every pool width. After
//! each gradient step the continuous sizes are rounded back to discrete
//! cells ([`round_to_library`](super::round_to_library)) and the one
//! authoritative [`TimingSession`] repairs itself with an incremental
//! [`refresh`](TimingSession::refresh) of only the changed cones.
//!
//! Unlike the greedy path heuristic, every gate — critical or not —
//! feels area pressure each iteration, and a final deterministic
//! area-recovery sweep downsizes anything the best objective can spare.
//! That global pressure is what puts this sizer on the good side of the
//! area-vs-`μ+3σ` frontier.

use super::{
    recover_area, round_to_library, update_multipliers, Objective, Sizer, SizingOutcome, SizingPass,
};
use crate::config::SstaConfig;
use crate::engine::EngineKind;
use crate::fassta::Fassta;
use crate::pool::ScopedPool;
use crate::session::TimingSession;
use std::sync::Arc;
use std::time::Instant;
use vartol_liberty::Library;
use vartol_netlist::{GateId, GateKind, Netlist, Subcircuit};

/// Subgradient step η for the multiplier updates.
const MULTIPLIER_STEP: f64 = 1.0;
/// Scale of the continuous size step per iteration (in drive-index
/// units after gradient normalization).
const SIZE_STEP: f64 = 1.0;
/// Timing target as a fraction of the initial worst endpoint cost:
/// endpoints above `T` accumulate multiplier weight.
const TARGET_FACTOR: f64 = 0.7;
/// Weight of the area term in the per-gate gradient.
const AREA_WEIGHT: f64 = 1.0;
/// Fraction of the objective gain the final area-recovery sweep must
/// keep: its budget is `initial − keep·(initial − best)`, so a tenth of
/// the win is spent on area.
const RECOVERY_KEEP_FRAC: f64 = 0.9;

/// Tuning knobs for [`LagrangianSizer`].
#[derive(Debug, Clone, PartialEq)]
pub struct LagrangianConfig {
    /// What to minimize. Default: the paper's `μ + 3σ`.
    pub objective: Objective,
    /// Outer gradient/multiplier iterations.
    pub max_iters: usize,
    /// Neighborhood depth for sensitivity subcircuits.
    pub subcircuit_depth: usize,
    /// Timing/variation configuration shared with the session.
    pub ssta: SstaConfig,
}

impl Default for LagrangianConfig {
    fn default() -> Self {
        Self {
            objective: Objective::Statistical { alpha: 3.0 },
            max_iters: 64,
            subcircuit_depth: 2,
            ssta: SstaConfig::default(),
        }
    }
}

impl LagrangianConfig {
    /// Sets the objective.
    #[must_use]
    pub fn with_objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Caps the outer iterations.
    #[must_use]
    pub fn with_max_iters(mut self, iters: usize) -> Self {
        self.max_iters = iters;
        self
    }

    /// Replaces the timing configuration.
    #[must_use]
    pub fn with_ssta(mut self, ssta: SstaConfig) -> Self {
        self.ssta = ssta;
        self
    }
}

/// Sensitivity-guided continuous sizer with per-endpoint multipliers.
///
/// See the module docs above for the algorithm. Holds its library
/// through a shared handle, like every sizer in the workspace.
#[derive(Debug, Clone)]
pub struct LagrangianSizer {
    library: Arc<Library>,
    config: LagrangianConfig,
}

/// Per-gate sensitivity probe result: `(∂D/∂size, ∂A/∂size)` central
/// differences in drive-index units, or `None` for fixed gates.
type Gradient = Option<(f64, f64)>;

impl LagrangianSizer {
    /// Creates a sizer over a library. Accepts an `Arc<Library>`, an
    /// owned `Library`, or a `&Library` (cloned once).
    #[must_use]
    pub fn new(library: impl Into<Arc<Library>>, config: LagrangianConfig) -> Self {
        Self {
            library: library.into(),
            config,
        }
    }

    /// The configuration in effect.
    #[must_use]
    pub fn config(&self) -> &LagrangianConfig {
        &self.config
    }

    /// For every gate, which endpoints it can reach — packed bitsets
    /// over the endpoint list, filled in one reverse-topological sweep
    /// (netlist node order is topological by construction).
    fn endpoint_reach(netlist: &Netlist, endpoints: &[GateId]) -> Vec<Vec<u64>> {
        let chunks = endpoints.len().div_ceil(64);
        let mut reach = vec![vec![0u64; chunks]; netlist.node_count()];
        for (bit, &e) in endpoints.iter().enumerate() {
            reach[e.index()][bit / 64] |= 1u64 << (bit % 64);
        }
        let ids: Vec<GateId> = netlist.gate_ids().collect();
        for &g in ids.iter().rev() {
            let mut acc = reach[g.index()].clone();
            for &f in netlist.gate(g).fanouts() {
                for (dst, &src) in acc.iter_mut().zip(&reach[f.index()]) {
                    *dst |= src;
                }
            }
            reach[g.index()] = acc;
        }
        reach
    }

    /// Probes `(∂D/∂size, ∂A/∂size)` for one gate on a worker's netlist
    /// copy: the local objective is evaluated over `sub`, the gate's
    /// region, at the neighbor drive indices with the fast engine against
    /// the `frozen` session's pass-start boundary, then the trial resize
    /// is rolled back, so the result depends on nothing but the gate —
    /// the parallel fan-out contract. The value at the current size is
    /// only evaluated when a one-sided difference reads it.
    fn probe_gradient(
        &self,
        netlist: &mut Netlist,
        frozen: &TimingSession,
        sub: &Subcircuit,
        fast: &Fassta<'_>,
    ) -> Gradient {
        let g = sub.center();
        let gate = netlist.gate(g);
        let GateKind::Cell { function, size } = *gate.kind() else {
            return None;
        };
        let arity = gate.fanins().len();
        let group = self.library.group(function, arity)?;
        if group.len() <= 1 {
            return None;
        }
        let local = |netlist: &Netlist| {
            let outs = fast.evaluate_subcircuit(netlist, sub, frozen.arrivals(), frozen.timing());
            self.config.objective.local_value(&outs)
        };
        let lo = size.checked_sub(1);
        let hi = (size + 1 < group.len()).then_some(size + 1);
        let d_lo = lo.map(|s| {
            netlist.set_size(g, s);
            local(netlist)
        });
        let d_hi = hi.map(|s| {
            netlist.set_size(g, s);
            local(netlist)
        });
        netlist.set_size(g, size); // trial state rolled back
        let area = |s: usize| group.cells()[s].area();
        let (dd, da) = match (lo, hi) {
            (Some(l), Some(h)) => (
                (d_hi.unwrap() - d_lo.unwrap()) / 2.0,
                (area(h) - area(l)) / 2.0,
            ),
            (Some(l), None) => (local(netlist) - d_lo.unwrap(), area(size) - area(l)),
            (None, Some(h)) => (d_hi.unwrap() - local(netlist), area(h) - area(size)),
            (None, None) => return None,
        };
        Some((dd, da))
    }
}

impl Sizer for LagrangianSizer {
    fn name(&self) -> &'static str {
        "lagrangian"
    }

    /// Runs the relaxation. See the module docs above for the loop
    /// structure; determinism holds at any pool width because every
    /// parallel probe reads only frozen state and results join in gate
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if the netlist references cells missing from the library.
    fn size(&self, netlist: &mut Netlist) -> SizingOutcome {
        let start = Instant::now();
        let objective = self.config.objective;
        let fast = Fassta::new(&self.library, &self.config.ssta);
        let mut session = TimingSession::with_kind(
            Arc::clone(&self.library),
            self.config.ssta.clone(),
            netlist.clone(),
            EngineKind::FullSsta,
        );
        let pool = ScopedPool::new(self.config.ssta.threads);

        let initial = session.circuit_moments();
        let initial_area = session.total_area();
        let endpoints: Vec<GateId> = session.netlist().outputs().to_vec();
        let reach = Self::endpoint_reach(session.netlist(), &endpoints);

        // Continuous relaxation state: x_g per resizable cell gate,
        // seeded at the current drive index.
        let mut probed: Vec<GateId> = Vec::new();
        let mut group_lens: Vec<usize> = Vec::new();
        for g in session.netlist().gate_ids() {
            let gate = session.netlist().gate(g);
            if let GateKind::Cell { function, .. } = *gate.kind() {
                let arity = gate.fanins().len();
                if let Some(group) = self.library.group(function, arity) {
                    if group.len() > 1 {
                        probed.push(g);
                        group_lens.push(group.len());
                    }
                }
            }
        }
        // Resizing never changes structure, so each probed gate's
        // sensitivity region is extracted once for the whole run.
        let subs: Vec<Subcircuit> = probed
            .iter()
            .map(|&g| Subcircuit::extract(session.netlist(), g, self.config.subcircuit_depth))
            .collect();
        let mut x: Vec<f64> = probed
            .iter()
            .map(|&g| match *session.netlist().gate(g).kind() {
                GateKind::Cell { size, .. } => size as f64,
                _ => unreachable!("probed gates are cells"),
            })
            .collect();

        let endpoint_cost = |session: &TimingSession| -> Vec<f64> {
            endpoints
                .iter()
                .map(|&e| objective.value(session.arrival(e)))
                .collect()
        };

        let mut best_objective = objective.value(initial);
        let mut best_area = initial_area;
        let mut best_sizes = session.sizes();
        let mut passes: Vec<SizingPass> = Vec::new();

        // Target: demand a fixed relative improvement over the initial
        // worst endpoint. `scale` keeps multiplier updates dimensionless
        // (yield costs live in [−1, 0], statistical ones in time units).
        let initial_costs = endpoint_cost(&session);
        let worst0 = initial_costs
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        let scale = match objective {
            Objective::Statistical { .. } => worst0.abs().max(1e-9),
            Objective::Yield { .. } => 1.0,
        };
        let target = worst0 - (1.0 - TARGET_FACTOR) * scale;

        let mut lambdas = vec![1.0 / endpoints.len().max(1) as f64; endpoints.len()];
        let mut stalled = 0usize;
        for iter in 0..self.config.max_iters {
            // Multiplier step on the current per-endpoint violations.
            let costs = endpoint_cost(&session);
            let violations: Vec<f64> = costs.iter().map(|&c| (c - target) / scale).collect();
            lambdas = update_multipliers(&lambdas, &violations, MULTIPLIER_STEP);

            // Per-gate timing weight: total multiplier mass of the
            // endpoints this gate can reach.
            let weights: Vec<f64> = probed
                .iter()
                .map(|&g| {
                    let mut w = 0.0;
                    for (chunk, &bits) in reach[g.index()].iter().enumerate() {
                        let mut bits = bits;
                        while bits != 0 {
                            let bit = bits.trailing_zeros() as usize;
                            w += lambdas[chunk * 64 + bit];
                            bits &= bits - 1;
                        }
                    }
                    w
                })
                .collect();

            // Parallel sensitivity probes against the frozen pass-start
            // state: one netlist copy per worker, one task per gate,
            // results in gate order.
            let grads = pool.map_init(
                probed.len(),
                || session.netlist().clone(),
                |netlist, i| self.probe_gradient(netlist, &session, &subs[i], &fast),
            );

            // Normalized gradient step on the continuous sizes.
            let full: Vec<f64> = grads
                .iter()
                .zip(&weights)
                .map(|(g, &w)| g.map_or(0.0, |(dd, da)| AREA_WEIGHT * da + w * dd))
                .collect();
            let norm = full.iter().map(|g| g.abs()).sum::<f64>() / full.len().max(1) as f64;
            let norm = norm.max(1e-12);
            let mut sizes = session.sizes();
            let mut resized = 0usize;
            for (i, &g) in probed.iter().enumerate() {
                let top = (group_lens[i] - 1) as f64;
                x[i] = (x[i] - SIZE_STEP * full[i] / norm).clamp(0.0, top);
                let rounded = round_to_library(x[i], group_lens[i]);
                if sizes[g.index()] != rounded {
                    sizes[g.index()] = rounded;
                    resized += 1;
                }
            }

            // Apply the rounded schedule; the session repairs itself by
            // refreshing only the changed fanout cones.
            session
                .try_restore_sizes(&sizes)
                .expect("rounded sizes are within each gate's ladder");
            let moments = session.refresh();
            let value = objective.value(moments);
            let area = session.total_area();
            passes.push(SizingPass {
                pass: iter + 1,
                moments,
                objective: value,
                area,
                resized,
            });

            // Keep-best guard: the relaxation may overshoot while the
            // multipliers settle; only strictly better (objective, then
            // area) states are remembered.
            let tol = 1e-12 * best_objective.abs().max(1.0);
            if value < best_objective - tol
                || (value <= best_objective + tol && area < best_area - 1e-12)
            {
                best_objective = best_objective.min(value);
                best_area = area;
                best_sizes = session.sizes();
            }
            if resized == 0 {
                stalled += 1;
                if stalled >= 2 {
                    break;
                }
            } else {
                stalled = 0;
            }
        }

        // Land on the best state seen, then return any area the
        // objective can spare with sinks-first recovery passes. Freeing
        // one gate can unlock slack upstream, so the passes repeat until
        // one moves nothing (bounded by the total size mass).
        session
            .try_restore_sizes(&best_sizes)
            .expect("best sizes came from this session");
        session.refresh();
        let gain = (objective.value(initial) - best_objective).max(0.0);
        let budget = best_objective
            + (1.0 - RECOVERY_KEEP_FRAC) * gain
            + 1e-9 * best_objective.abs().max(1.0);
        let mut polished = 0usize;
        loop {
            let moved = recover_area(&mut session, &probed, |_, m| objective.value(m) <= budget);
            if moved == 0 {
                break;
            }
            polished += moved;
        }
        if polished > 0 {
            let moments = session.circuit_moments();
            passes.push(SizingPass {
                pass: passes.len() + 1,
                moments,
                objective: objective.value(moments),
                area: session.total_area(),
                resized: polished,
            });
        }

        let final_moments = session.circuit_moments();
        let final_area = session.total_area();
        *netlist = session.into_netlist();
        SizingOutcome {
            optimizer: self.name(),
            objective,
            initial_moments: initial,
            final_moments,
            initial_area,
            final_area,
            passes,
            runtime: start.elapsed(),
        }
    }
}
