//! Global sizing optimizers behind a shared [`Sizer`] trait.
//!
//! [`StatisticalGreedy`](../../vartol_core/struct.StatisticalGreedy.html)
//! reproduces the paper's single-path heuristic; this module adds the
//! global methods the ROADMAP asked for, all speaking the same
//! [`SizingOutcome`] vocabulary so they can be swept side by side on a
//! quality/runtime frontier:
//!
//! * [`LagrangianSizer`] — sensitivity-guided continuous sizing with
//!   per-endpoint Lagrange multipliers, rounded back to discrete cells
//!   and repaired via incremental [`TimingSession::refresh`].
//! * [`AnnealingSizer`] — a deterministic multi-start simulated
//!   annealing wrapper whose restart population fans out over
//!   [`TimingSession::fork`]s and commits the winning fork with
//!   [`TimingSession::commit`], which moves its state in.
//!
//! All four sizers (these two, `StatisticalGreedy` and
//! `MeanDelaySizer`) return spare area through one sinks-first
//! downsizing pass, [`recover_area`], each with its own acceptance test.
//!
//! Both support a yield-targeted [`Objective::Yield`] mode that
//! maximizes `P(delay ≤ deadline)` under the correlated variation model
//! instead of the nominal `μ + α·σ` cost.
//!
//! Every optimizer is bit-identical at any [`ScopedPool`] width; the
//! determinism argument is the same one the rest of the crate makes:
//! work units are scored independently against frozen state and joined
//! in a fixed order.
//!
//! [`TimingSession::refresh`]: crate::TimingSession::refresh
//! [`TimingSession::commit`]: crate::TimingSession::commit
//! [`TimingSession::fork`]: crate::TimingSession::fork
//! [`ScopedPool`]: crate::ScopedPool

mod annealing;
mod lagrangian;

pub use annealing::{AnnealingConfig, AnnealingSizer};
pub use lagrangian::{LagrangianConfig, LagrangianSizer};

use crate::session::TimingSession;
use std::time::Duration;
use vartol_netlist::{GateId, Netlist};
use vartol_stats::{Moments, Normal};

/// What a sizing run is minimizing.
///
/// Objective values are always *lower is better*, so a yield target is
/// expressed as the negated success probability.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Objective {
    /// The paper's statistical cost `μ + α·σ` of the circuit delay.
    Statistical {
        /// Sigma weight (`α = 3` reproduces the paper's `μ + 3σ`).
        alpha: f64,
    },
    /// Negated timing yield `−P(delay ≤ deadline)` under the session's
    /// variation model — optimizing σ/`prob_met` directly instead of a
    /// nominal corner.
    Yield {
        /// Required arrival deadline (same time unit as the library).
        deadline: f64,
    },
}

impl Objective {
    /// The objective value of circuit-delay moments (lower is better).
    #[must_use]
    pub fn value(&self, m: Moments) -> f64 {
        match *self {
            Self::Statistical { alpha } => m.cost(alpha),
            Self::Yield { deadline } => -prob_met(m, deadline),
        }
    }

    /// A local proxy for subcircuit sensitivity probing. A subcircuit
    /// output is not the circuit delay, so a yield deadline does not
    /// apply to it directly; both modes fall back to a `μ + 3σ` corner,
    /// which points downhill for yield too (smaller mean *and* spread
    /// both raise `P(delay ≤ deadline)`).
    #[must_use]
    pub fn local_value(&self, outs: &[Moments]) -> f64 {
        let alpha = match *self {
            Self::Statistical { alpha } => alpha,
            Self::Yield { .. } => 3.0,
        };
        outs.iter()
            .map(|m| m.cost(alpha))
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Short label used in reports and frontier rows.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Self::Statistical { .. } => "statistical",
            Self::Yield { .. } => "yield",
        }
    }
}

/// `P(delay ≤ deadline)` for Gaussian circuit-delay moments, with the
/// degenerate σ = 0 case handled as a step function.
#[must_use]
pub fn prob_met(m: Moments, deadline: f64) -> f64 {
    let sigma = m.std();
    if sigma <= 1e-12 {
        return if m.mean <= deadline { 1.0 } else { 0.0 };
    }
    Normal::from_moments(m).cdf(deadline)
}

/// One outer pass (or annealing restart) of a sizing run.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SizingPass {
    /// 1-based pass (or restart) index.
    pub pass: usize,
    /// Circuit-delay moments at the end of the pass.
    pub moments: Moments,
    /// Objective value at the end of the pass (lower is better).
    pub objective: f64,
    /// Total area at the end of the pass.
    pub area: f64,
    /// Gates whose size changed during the pass.
    pub resized: usize,
}

/// Summary of one optimizer run — the shared vocabulary every [`Sizer`]
/// speaks, whatever its internal search strategy.
///
/// `PartialEq` ignores the wall-clock `runtime`, so outcomes can be
/// compared bit-for-bit across pool widths.
#[derive(Debug, Clone)]
pub struct SizingOutcome {
    /// Optimizer name (e.g. `"lagrangian"`).
    pub optimizer: &'static str,
    /// What the run minimized.
    pub objective: Objective,
    /// Circuit-delay moments before sizing.
    pub initial_moments: Moments,
    /// Circuit-delay moments after sizing.
    pub final_moments: Moments,
    /// Total area before sizing.
    pub initial_area: f64,
    /// Total area after sizing.
    pub final_area: f64,
    /// Per-pass (or per-restart) progress rows.
    pub passes: Vec<SizingPass>,
    /// Wall-clock time of the run (ignored by `PartialEq`).
    pub runtime: Duration,
}

impl SizingOutcome {
    /// Objective value before sizing.
    #[must_use]
    pub fn initial_objective(&self) -> f64 {
        self.objective.value(self.initial_moments)
    }

    /// Objective value after sizing.
    #[must_use]
    pub fn final_objective(&self) -> f64 {
        self.objective.value(self.final_moments)
    }

    /// Gates resized across all passes.
    #[must_use]
    pub fn total_resized(&self) -> usize {
        self.passes.iter().map(|p| p.resized).sum()
    }
}

impl PartialEq for SizingOutcome {
    fn eq(&self, other: &Self) -> bool {
        self.optimizer == other.optimizer
            && self.objective == other.objective
            && self.initial_moments == other.initial_moments
            && self.final_moments == other.final_moments
            && self.initial_area == other.initial_area
            && self.final_area == other.final_area
            && self.passes == other.passes
    }
}

/// A global gate-sizing method.
///
/// Implementors mutate the netlist's size assignment in place and
/// report what happened. The contract every implementation upholds:
/// deterministic (bit-identical results at any pool width, any thread
/// count) and never worse than the starting point on its own objective.
pub trait Sizer {
    /// Short stable name used in frontier rows and wire payloads.
    fn name(&self) -> &'static str;

    /// Optimizes the size assignment of a combinational netlist (or a
    /// netlist whose timing endpoints are already marked as outputs).
    fn size(&self, netlist: &mut Netlist) -> SizingOutcome;

    /// Clock-aware entry point: on a sequential netlist, optimizes the
    /// endpoint-marked view ([`Netlist::endpoint_marked`]) so register D
    /// pins count as timing endpoints, then copies the sizes back. On a
    /// combinational netlist this is exactly [`Sizer::size`].
    fn size_clocked(&self, netlist: &mut Netlist) -> SizingOutcome {
        if !netlist.is_sequential() {
            return self.size(netlist);
        }
        let mut marked = netlist.endpoint_marked();
        let outcome = self.size(&mut marked);
        netlist.restore_sizes(&marked.sizes());
        outcome
    }
}

/// Selector for the optimizer behind a sizing request — the value the
/// `Workspace` and the wire protocol thread through to pick a [`Sizer`].
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum OptimizerKind {
    /// The paper's statistical greedy (`StatisticalGreedy`). Default.
    #[default]
    Greedy,
    /// Deterministic mean-delay baseline (`MeanDelaySizer`).
    MeanDelay,
    /// Lagrangian-relaxation / sensitivity-guided sizing.
    Lagrangian,
    /// Deterministic multi-start simulated annealing.
    Annealing,
}

impl OptimizerKind {
    /// Stable wire name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Greedy => "greedy",
            Self::MeanDelay => "mean_delay",
            Self::Lagrangian => "lagrangian",
            Self::Annealing => "annealing",
        }
    }

    /// Parses a wire name; `None` for anything unrecognized.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "greedy" => Some(Self::Greedy),
            "mean_delay" => Some(Self::MeanDelay),
            "lagrangian" => Some(Self::Lagrangian),
            "annealing" => Some(Self::Annealing),
            _ => None,
        }
    }

    /// All selectable kinds, in wire-name order.
    #[must_use]
    pub fn all() -> [Self; 4] {
        [
            Self::Greedy,
            Self::MeanDelay,
            Self::Lagrangian,
            Self::Annealing,
        ]
    }
}

impl std::fmt::Display for OptimizerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Projected-subgradient multiplier update: `λ ← max(0, λ + step·v)`
/// elementwise. Positive violations (endpoint cost above target) raise
/// the endpoint's multiplier, satisfied endpoints decay toward zero and
/// are projected onto the non-negative orthant — the invariant the
/// KKT proptests pin down.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[must_use]
pub fn update_multipliers(lambdas: &[f64], violations: &[f64], step: f64) -> Vec<f64> {
    assert_eq!(
        lambdas.len(),
        violations.len(),
        "one violation per multiplier"
    );
    lambdas
        .iter()
        .zip(violations)
        .map(|(&l, &v)| (l + step * v).max(0.0))
        .collect()
}

/// Rounds a continuous size to the nearest discrete drive index of a
/// size ladder with `group_len` cells, clamping to `[0, group_len)`.
/// Non-finite inputs clamp to the nearest bound (NaN rounds to 0).
///
/// # Panics
///
/// Panics if the ladder is empty.
#[must_use]
pub fn round_to_library(x: f64, group_len: usize) -> usize {
    assert!(group_len > 0, "a size ladder has at least one cell");
    let top = (group_len - 1) as f64;
    let clamped = if x.is_nan() { 0.0 } else { x.clamp(0.0, top) };
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let idx = clamped.round() as usize;
    idx.min(group_len - 1)
}

/// One sinks-first area-recovery pass: walks `gates` in reverse order
/// (netlist order is topological, so downstream gates go first and
/// shield upstream slack) and steps each cell down one size at a time,
/// keeping a step while `keep(session, moments)` accepts the refreshed
/// state. Every step is an undoable incremental refresh, and the first
/// rejected one per gate is undone, not re-timed. Inputs are skipped.
/// Returns the number of gates moved; a caller that wants a fixpoint
/// repeats the pass until it returns 0.
///
/// # Panics
///
/// Panics if a gate is out of range for the session's netlist.
pub fn recover_area(
    session: &mut TimingSession,
    gates: &[GateId],
    mut keep: impl FnMut(&TimingSession, Moments) -> bool,
) -> usize {
    let mut moved = 0;
    for &g in gates.iter().rev() {
        let Some(current) = session.netlist().gate(g).size() else {
            continue;
        };
        let mut kept = current;
        for size in (0..current).rev() {
            session.resize(g, size);
            let m = session.refresh_undoable();
            if keep(session, m) {
                kept = size;
            } else {
                session.undo();
                break;
            }
        }
        if kept != current {
            moved += 1;
        }
    }
    moved
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objective_values_point_the_same_way() {
        let fast = Moments::from_mean_std(10.0, 1.0);
        let slow = Moments::from_mean_std(12.0, 1.0);
        let stat = Objective::Statistical { alpha: 3.0 };
        let yld = Objective::Yield { deadline: 11.0 };
        assert!(stat.value(fast) < stat.value(slow));
        assert!(yld.value(fast) < yld.value(slow));
        assert!((stat.value(fast) - 13.0).abs() < 1e-12);
    }

    #[test]
    fn yield_objective_is_negated_probability() {
        let m = Moments::from_mean_std(10.0, 1.0);
        let v = Objective::Yield { deadline: 10.0 }.value(m);
        assert!((v + 0.5).abs() < 1e-9, "deadline at the mean: −50%");
        let sure = Moments::from_mean_std(10.0, 0.0);
        assert!((Objective::Yield { deadline: 10.0 }.value(sure) + 1.0).abs() < 1e-12);
        assert!(Objective::Yield { deadline: 9.0 }.value(sure).abs() < 1e-12);
    }

    #[test]
    fn multiplier_update_projects_and_decays() {
        let next = update_multipliers(&[0.5, 0.0, 0.25], &[1.0, -1.0, -0.1], 0.5);
        assert_eq!(next, vec![1.0, 0.0, 0.2]);
    }

    #[test]
    fn rounding_clamps_to_the_ladder() {
        assert_eq!(round_to_library(-3.0, 4), 0);
        assert_eq!(round_to_library(1.4, 4), 1);
        assert_eq!(round_to_library(1.6, 4), 2);
        assert_eq!(round_to_library(99.0, 4), 3);
        assert_eq!(round_to_library(f64::NAN, 4), 0);
        assert_eq!(round_to_library(f64::INFINITY, 1), 0);
    }

    #[test]
    fn optimizer_kind_round_trips_wire_names() {
        for kind in OptimizerKind::all() {
            assert_eq!(OptimizerKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(OptimizerKind::parse("gradient"), None);
        assert_eq!(OptimizerKind::default(), OptimizerKind::Greedy);
    }
}
