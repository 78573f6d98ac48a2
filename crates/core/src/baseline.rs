//! Deterministic mean-delay sizing — the paper's comparison point.
//!
//! Table 1's "original" column is a circuit "obtained by optimizing ...
//! with a goal of minimizing the mean of the longest delay. Such a circuit
//! will typically exhibit the widest spread in performance due to high
//! usage of smaller devices". [`MeanDelaySizer`] reproduces that starting
//! point: greedy critical-path sizing against nominal delays, followed by
//! an optional area-recovery pass that downsizes gates wherever the delay
//! target allows. Both run on a deterministic [`TimingSession`]; every
//! per-gate size trial resizes the session in place and re-times only
//! the affected fanout cone with an undoable refresh. A trial that beats
//! the best score so far stays in place; any other is undone
//! ([`TimingSession::undo`]), which restores the previous state without
//! re-timing it.

use std::sync::Arc;
use std::time::Instant;
use vartol_liberty::Library;
use vartol_netlist::{GateId, GateKind, Netlist};
use vartol_ssta::optimize::recover_area;
use vartol_ssta::{EngineKind, SstaConfig, TimingSession};

/// Summary of a deterministic sizing run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaselineReport {
    /// Nominal longest delay before sizing.
    pub initial_delay: f64,
    /// Nominal longest delay after sizing.
    pub final_delay: f64,
    /// Area before sizing.
    pub initial_area: f64,
    /// Area after sizing (and recovery, if run).
    pub final_area: f64,
    /// Number of outer passes executed.
    pub passes: usize,
    /// Wall-clock time.
    pub runtime: std::time::Duration,
}

/// Greedy deterministic mean-delay minimizer with area recovery.
///
/// Like [`StatisticalGreedy`](crate::StatisticalGreedy), the sizer holds
/// its library through a shared handle, so it has no lifetime parameters.
#[derive(Debug, Clone)]
pub struct MeanDelaySizer {
    library: Arc<Library>,
    config: SstaConfig,
    max_passes: usize,
}

impl MeanDelaySizer {
    /// Creates a sizer over a library with the given timing configuration
    /// (variation is irrelevant here — only nominal delays are used).
    /// Accepts an `Arc<Library>`, an owned `Library`, or a `&Library`
    /// (cloned once).
    #[must_use]
    pub fn new(library: impl Into<Arc<Library>>, config: &SstaConfig) -> Self {
        Self {
            library: library.into(),
            config: config.clone(),
            max_passes: 40,
        }
    }

    /// Caps the number of outer passes.
    #[must_use]
    pub fn with_max_passes(mut self, passes: usize) -> Self {
        self.max_passes = passes;
        self
    }

    /// Minimizes the nominal longest delay by greedy critical-path sizing:
    /// each pass re-times the circuit, walks the critical path, and keeps
    /// any single-gate resize that lowers the global longest delay.
    ///
    /// # Panics
    ///
    /// Panics if the netlist references cells missing from the library.
    #[must_use]
    pub fn minimize_delay(&self, netlist: &mut Netlist) -> BaselineReport {
        let start = Instant::now();
        let initial_area = netlist.total_area(&self.library);
        let mut session = TimingSession::with_kind(
            Arc::clone(&self.library),
            self.config.clone(),
            netlist.clone(),
            EngineKind::Dsta,
        );
        let initial_delay = session.circuit_moments().mean;

        let mut best_score = Self::score(&session);
        let mut passes = 0;
        for _ in 0..self.max_passes {
            passes += 1;
            // Union of per-output critical paths: every output's longest
            // path gets attention, not just the globally worst one.
            let mut path: std::collections::BTreeSet<GateId> = std::collections::BTreeSet::new();
            for &o in session.netlist().outputs() {
                let mut cursor = o;
                while !session.netlist().gate(cursor).is_input() {
                    if !path.insert(cursor) {
                        break; // already traced through here
                    }
                    let Some(&next) =
                        session
                            .netlist()
                            .gate(cursor)
                            .fanins()
                            .iter()
                            .max_by(|a, b| {
                                session
                                    .arrival(**a)
                                    .mean
                                    .total_cmp(&session.arrival(**b).mean)
                            })
                    else {
                        break;
                    };
                    cursor = next;
                }
            }
            let mut improved = false;
            for g in path {
                if self.improve_gate(&mut session, g, &mut best_score) {
                    improved = true;
                }
            }
            if !improved {
                break;
            }
        }

        let final_area = session.total_area();
        *netlist = session.into_netlist();
        BaselineReport {
            initial_delay,
            final_delay: best_score.0,
            initial_area,
            final_area,
            passes,
            runtime: start.elapsed(),
        }
    }

    /// The deterministic objective: worst output delay first, then the sum
    /// of all output arrivals as a tie-breaker (so the longest path of
    /// every output gets minimized, Design-Compiler style), read off the
    /// session's last refresh.
    fn score(session: &TimingSession) -> (f64, f64) {
        let total: f64 = session
            .netlist()
            .outputs()
            .iter()
            .map(|&o| session.arrival(o).mean)
            .sum();
        (session.circuit_moments().mean, total)
    }

    fn better(a: (f64, f64), b: (f64, f64)) -> bool {
        // Lexicographic with a tolerance band on the leading term.
        if a.0 < b.0 - 1e-9 {
            return true;
        }
        if a.0 > b.0 + 1e-9 {
            return false;
        }
        a.1 < b.1 - 1e-9
    }

    /// Tries every size of `g` in place, keeping the one that minimizes
    /// the deterministic objective: a trial that beats the best score
    /// stays, any other is undone, so the session ends on the winner with
    /// no re-time. Returns true if the size changed.
    fn improve_gate(
        &self,
        session: &mut TimingSession,
        g: GateId,
        best_score: &mut (f64, f64),
    ) -> bool {
        let gate = session.netlist().gate(g);
        let GateKind::Cell {
            function,
            size: current,
        } = *gate.kind()
        else {
            return false;
        };
        let arity = gate.fanins().len();
        let Some(group) = self.library.group(function, arity) else {
            return false;
        };

        let mut best_size = current;
        for size in 0..group.len() {
            if size == current {
                continue;
            }
            session.resize(g, size);
            session.refresh_undoable();
            let s = Self::score(session);
            if Self::better(s, *best_score) {
                *best_score = s;
                best_size = size;
            } else {
                session.undo();
            }
        }
        best_size != current
    }

    /// Downsizes gates wherever the nominal longest delay stays within
    /// `target_delay` — the constrained "area is recovered as far as
    /// possible without violating a delay constraint" mode of §2.1, each
    /// trial re-timed incrementally. Returns the number of gates downsized.
    ///
    /// # Panics
    ///
    /// Panics if the netlist references cells missing from the library.
    pub fn recover_area(&self, netlist: &mut Netlist, target_delay: f64) -> usize {
        let mut session = TimingSession::with_kind(
            Arc::clone(&self.library),
            self.config.clone(),
            netlist.clone(),
            EngineKind::Dsta,
        );
        let ids: Vec<GateId> = session.netlist().gate_ids().collect();
        let changed = recover_area(&mut session, &ids, |_, m| m.mean <= target_delay + 1e-9);
        *netlist = session.into_netlist();
        changed
    }
}

/// [`MeanDelaySizer`] on the shared optimizer vocabulary: its objective
/// is the pure nominal mean (`μ + 0·σ`), which is exactly the paper's
/// "original" comparison point. The statistical moments around the run
/// come from two from-scratch FULLSSTA analyses so its frontier row is
/// measured with the same yardstick as every other optimizer.
impl vartol_ssta::Sizer for MeanDelaySizer {
    fn name(&self) -> &'static str {
        "mean_delay"
    }

    fn size(&self, netlist: &mut Netlist) -> vartol_ssta::SizingOutcome {
        let engine = vartol_ssta::FullSsta::new(&self.library, &self.config);
        let initial_moments = engine.analyze(netlist).circuit_moments();
        let report = self.minimize_delay(netlist);
        let final_moments = engine.analyze(netlist).circuit_moments();
        vartol_ssta::SizingOutcome {
            optimizer: "mean_delay",
            objective: vartol_ssta::Objective::Statistical { alpha: 0.0 },
            initial_moments,
            final_moments,
            initial_area: report.initial_area,
            final_area: report.final_area,
            passes: vec![vartol_ssta::SizingPass {
                pass: report.passes,
                moments: final_moments,
                objective: final_moments.mean,
                area: report.final_area,
                resized: 0,
            }],
            runtime: report.runtime,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vartol_netlist::generators::{parity_tree, ripple_carry_adder};
    use vartol_ssta::{Dsta, FullSsta};

    #[test]
    fn reduces_nominal_delay() {
        let lib = Library::synthetic_90nm();
        let config = SstaConfig {
            po_load: 8.0,
            ..SstaConfig::default()
        };
        let mut n = ripple_carry_adder(6, &lib);
        let report = MeanDelaySizer::new(&lib, &config).minimize_delay(&mut n);
        assert!(report.final_delay < report.initial_delay, "{report:?}");
        assert!(report.final_area >= report.initial_area, "speed costs area");
    }

    #[test]
    fn reported_final_delay_matches_netlist_state() {
        let lib = Library::synthetic_90nm();
        let config = SstaConfig::default();
        let mut n = ripple_carry_adder(6, &lib);
        let report = MeanDelaySizer::new(&lib, &config).minimize_delay(&mut n);
        let check = Dsta::new(&lib, &config).analyze(&n).max_delay();
        assert!((check - report.final_delay).abs() < 1e-9);
    }

    #[test]
    fn mean_optimized_circuit_has_wide_spread() {
        // The paper's premise for Fig. 1: mean-optimization leaves high
        // sigma/mu relative to what variance optimization achieves later.
        let lib = Library::synthetic_90nm();
        let config = SstaConfig::default();
        let mut n = parity_tree(16, &lib);
        let _ = MeanDelaySizer::new(&lib, &config).minimize_delay(&mut n);
        let m = FullSsta::new(&lib, &config).analyze(&n).circuit_moments();
        assert!(m.sigma_over_mu() > 0.01, "meaningful residual variation");
    }

    #[test]
    fn area_recovery_downsizes_under_loose_target() {
        let lib = Library::synthetic_90nm();
        let config = SstaConfig::default();
        let mut n = ripple_carry_adder(6, &lib);
        let sizer = MeanDelaySizer::new(&lib, &config);
        let report = sizer.minimize_delay(&mut n);
        let area_fast = n.total_area(&lib);

        // A very loose target lets recovery shrink everything back.
        let engine = Dsta::new(&lib, &config);
        let changed = sizer.recover_area(&mut n, report.final_delay * 10.0);
        let area_recovered = n.total_area(&lib);
        if area_fast > report.initial_area {
            assert!(changed > 0, "something to recover");
            assert!(area_recovered < area_fast);
        }
        assert!(engine.analyze(&n).max_delay() <= report.final_delay * 10.0);
    }

    #[test]
    fn area_recovery_respects_tight_target() {
        let lib = Library::synthetic_90nm();
        let config = SstaConfig {
            po_load: 8.0,
            ..SstaConfig::default()
        };
        let mut n = ripple_carry_adder(4, &lib);
        let sizer = MeanDelaySizer::new(&lib, &config);
        let report = sizer.minimize_delay(&mut n);
        let _ = sizer.recover_area(&mut n, report.final_delay);
        let engine = Dsta::new(&lib, &config);
        assert!(
            engine.analyze(&n).max_delay() <= report.final_delay + 1e-6,
            "recovery never violates the delay target"
        );
    }

    #[test]
    fn pass_cap_respected() {
        let lib = Library::synthetic_90nm();
        let mut n = parity_tree(8, &lib);
        let report = MeanDelaySizer::new(&lib, &SstaConfig::default())
            .with_max_passes(1)
            .minimize_delay(&mut n);
        assert_eq!(report.passes, 1);
    }
}
