//! The StatisticalGreedy sizing algorithm (paper Fig. 2), with a
//! parallel candidate-evaluation inner loop.
//!
//! # Parallel candidate evaluation
//!
//! Each outer pass scores every gate on the statistical critical paths
//! by trialing all of its library sizes with the fast engine over a
//! local subcircuit, against the pass-start (frozen) FULLSSTA boundary
//! statistics. Those per-gate scoring jobs are mutually independent —
//! every trial reads only the session's frozen arrival/electrical
//! snapshot and mutates only its worker's own netlist copy — so they fan
//! out across a [`ScopedPool`]: one netlist copy per worker thread, one
//! task per path gate, results gathered in path order. Scoring never
//! re-times anything, so no worker needs a session of its own.
//!
//! Determinism contract: each task's result depends only on its gate
//! (every trial mutation is rolled back inside the task), and the pool
//! returns results in task-index order, so the scheduled resizes — and
//! therefore the whole [`OptimizationReport`], the final sizes, and the
//! final moments — are **bit-identical for every thread count**,
//! including the single-threaded inline path. The worker count comes
//! from [`SstaConfig::threads`](vartol_ssta::SstaConfig) (see
//! [`SizerConfig::with_threads`]); `0` means one worker per CPU. This is
//! the same contract the parallel Monte-Carlo engine ships, asserted in
//! `tests/sizing_determinism.rs` across 1-, 2-, and 8-thread pools.
//!
//! Commits stay sequential by design: batch validation, rollback, and
//! area recovery are incremental cone refreshes on the one authoritative
//! [`TimingSession`], which is inherently ordered. Every trial that may be
//! rejected (the batch, each fallback candidate, each downsizing step) is
//! an undoable refresh: a rejection is [`TimingSession::undo`], which
//! restores the pre-trial state without re-timing its cone.

use crate::config::SizerConfig;
use crate::cost::{moments_cost, subcircuit_cost};
use crate::report::{OptimizationReport, PassStats};
use std::sync::Arc;
use std::time::Instant;
use vartol_liberty::Library;
use vartol_netlist::{GateId, GateKind, Netlist, Subcircuit};
use vartol_ssta::optimize::recover_area;
use vartol_ssta::{EngineKind, Fassta, ScopedPool, TimingSession, WnssTracer};

/// Minimum relative improvement of the global cost for a pass to be
/// kept; a pass that worsens the global cost is rolled back and the
/// algorithm stops.
const MIN_IMPROVEMENT: f64 = 1e-6;

/// The paper's statistically-aware gain-based gate sizer.
///
/// Each outer pass runs the accurate engine (FULLSSTA), traces the WNSS
/// path, and lets every gate on it bid for a new size by scoring all its
/// library alternatives with the fast engine (FASSTA) over a local
/// subcircuit; scheduled resizes are committed together. Passes that fail
/// to improve the global cost `μ + α·σ` are rolled back, and the algorithm
/// stops when a pass schedules nothing or the pass budget is exhausted.
///
/// The accurate engine runs inside a [`TimingSession`], so batch commits,
/// rollbacks, and per-candidate validations are **incremental**: only the
/// fanout cone of the gates that actually changed is re-analyzed, instead
/// of the whole netlist — the asymptotic win that makes deep circuits
/// tractable. Candidate scoring fans out over per-worker netlist copies
/// on a [`ScopedPool`] (see the [module docs](self)), bit-identical at every
/// thread count.
///
/// # Example
///
/// ```
/// use vartol_liberty::Library;
/// use vartol_netlist::generators::parity_tree;
/// use vartol_core::{SizerConfig, StatisticalGreedy};
///
/// let lib = Library::synthetic_90nm();
/// let mut n = parity_tree(16, &lib);
/// let report = StatisticalGreedy::new(&lib, SizerConfig::with_alpha(3.0)).optimize(&mut n);
/// assert!(report.final_moments().std() <= report.initial_moments().std());
/// ```
#[derive(Debug, Clone)]
pub struct StatisticalGreedy {
    library: Arc<Library>,
    config: SizerConfig,
}

impl StatisticalGreedy {
    /// Creates a sizer over a library with the given configuration.
    ///
    /// The sizer holds the library through a shared handle, so it has no
    /// lifetime parameters and can be stored, cached, or sent across
    /// threads. Accepts an `Arc<Library>` (shared, no copy), an owned
    /// `Library`, or a `&Library` (cloned once).
    #[must_use]
    pub fn new(library: impl Into<Arc<Library>>, config: SizerConfig) -> Self {
        Self {
            library: library.into(),
            config,
        }
    }

    /// A shared handle to the sizer's library.
    #[must_use]
    pub fn library(&self) -> Arc<Library> {
        Arc::clone(&self.library)
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &SizerConfig {
        &self.config
    }

    /// Optimizes the netlist in place and reports the outcome.
    ///
    /// # Panics
    ///
    /// Panics if the netlist references cells missing from the library.
    #[must_use]
    pub fn optimize(&self, netlist: &mut Netlist) -> OptimizationReport {
        let start = Instant::now();
        let alpha = self.config.alpha;
        let fast_engine = Fassta::new(&self.library, &self.config.ssta);
        let tracer = WnssTracer::new(self.config.ssta.variation.mu_sigma_coupling());

        // The accurate outer engine lives in an incremental session: the
        // initial build is the only from-scratch FULLSSTA pass; every
        // subsequent commit, rollback, and candidate validation refreshes
        // only the affected fanout cone. The session owns a working copy
        // of the netlist; the optimized sizes flow back at the end.
        let mut session = TimingSession::with_kind(
            Arc::clone(&self.library),
            self.config.ssta.clone(),
            netlist.clone(),
            EngineKind::FullSsta,
        );
        let pool = ScopedPool::new(self.config.ssta.threads);

        let mut passes: Vec<PassStats> = Vec::new();
        let initial = session.circuit_moments();
        let initial_area = session.total_area();

        // Cost of the best state seen so far (global-cost guard). Every
        // rejected trial is undone, so the session always holds that
        // state between trials.
        let mut best_cost = moments_cost(initial, alpha);

        for pass in 0..self.config.max_passes {
            let circuit = session.circuit_moments();
            let cost = moments_cost(circuit, alpha);
            let area = session.total_area();

            let path = match self.config.path_selection {
                crate::config::PathSelection::WorstOutput => {
                    tracer.trace(session.netlist(), session.arrivals())
                }
                crate::config::PathSelection::AllOutputs => {
                    tracer.trace_all(session.netlist(), session.arrivals())
                }
            };
            // Score all path gates concurrently: one netlist copy per
            // worker, one task per gate, results in path order.
            let decisions = pool.map_init(
                path.len(),
                || session.netlist().clone(),
                |netlist, i| self.best_size_for(netlist, &session, path[i], &fast_engine),
            );
            let mut scheduled: Vec<(GateId, usize)> = Vec::new();
            for (&g, decision) in path.iter().zip(&decisions) {
                if let Some((best_size, current)) = *decision {
                    if best_size != current {
                        scheduled.push((g, best_size));
                    }
                }
            }

            if scheduled.is_empty() {
                passes.push(PassStats {
                    pass,
                    circuit,
                    cost,
                    area,
                    resized: 0,
                });
                break;
            }

            // Commit the whole schedule (the paper's "Resize scheduled
            // gates"), validated against the global cost. If the batch
            // overshoots — each gate bid in a stale context — fall back to
            // sequential commits, keeping only individually beneficial
            // resizes. This keeps the outer loop monotone in μ + α·σ.
            for &(g, s) in &scheduled {
                session.resize(g, s);
            }
            let batch_moments = session.refresh_undoable();
            let batch_cost = moments_cost(batch_moments, alpha);

            let mut kept = scheduled.len();
            if self.accepts(batch_cost, best_cost, batch_moments.mean) {
                best_cost = batch_cost;
            } else {
                session.undo();
                kept = 0;
                for &(g, s) in &scheduled {
                    session.resize(g, s);
                    let candidate_moments = session.refresh_undoable();
                    let candidate_cost = moments_cost(candidate_moments, alpha);
                    if self.accepts(candidate_cost, best_cost, candidate_moments.mean) {
                        best_cost = candidate_cost;
                        kept += 1;
                    } else {
                        session.undo();
                    }
                }
            }

            passes.push(PassStats {
                pass,
                circuit,
                cost,
                area,
                resized: kept,
            });
            if kept == 0 {
                break;
            }
        }

        let final_moments = session.circuit_moments();
        let final_area = session.total_area();
        *netlist = session.into_netlist();
        OptimizationReport::new(
            alpha,
            initial,
            final_moments,
            initial_area,
            final_area,
            passes,
            start.elapsed(),
        )
    }

    /// Whether a candidate global state is kept: the cost must improve by
    /// [`MIN_IMPROVEMENT`] and the mean must respect the delay budget
    /// (constrained mode, §2.1).
    fn accepts(&self, candidate_cost: f64, best_cost: f64, candidate_mean: f64) -> bool {
        candidate_cost < best_cost * (1.0 - MIN_IMPROVEMENT)
            && self
                .config
                .max_mean_delay
                .is_none_or(|budget| candidate_mean <= budget)
    }

    /// Optimizes a clocked netlist for worst setup slack.
    ///
    /// Register D pins are timing endpoints but not primary outputs, so
    /// the plain max-over-outputs objective cannot see them. This
    /// variant runs the ordinary optimization on an endpoint-marked
    /// clone ([`Netlist::endpoint_marked`]) — every register D driver
    /// joins the output set — and copies the optimized sizes back.
    /// Since an endpoint's setup slack is `(budget − setup) − arrival`
    /// and budget/setup do not depend on sizes upstream of the endpoint
    /// (only the endpoint's own register cell), lowering the worst
    /// endpoint arrival raises WNS under *any* clock period; no clock
    /// parameter is needed. On a purely combinational netlist this is
    /// exactly [`StatisticalGreedy::optimize`].
    ///
    /// The returned report describes the endpoint-marked view (its
    /// `max over outputs` spans all timing endpoints).
    ///
    /// # Panics
    ///
    /// Panics if the netlist references cells missing from the library.
    #[must_use]
    pub fn optimize_clocked(&self, netlist: &mut Netlist) -> OptimizationReport {
        if !netlist.is_sequential() {
            return self.optimize(netlist);
        }
        let mut marked = netlist.endpoint_marked();
        let report = self.optimize(&mut marked);
        netlist.restore_sizes(&marked.sizes());
        report
    }

    /// Statistical area recovery: downsizes gates (sinks first) wherever
    /// the global cost `μ + α·σ` stays within `cost_budget` — the
    /// statistical counterpart of the deterministic
    /// [`MeanDelaySizer::recover_area`](crate::MeanDelaySizer::recover_area).
    /// Every trial is an incremental cone refresh, not a full re-analysis,
    /// and the one rejected step per gate is undone, not re-timed.
    /// Returns the number of gates downsized.
    ///
    /// # Panics
    ///
    /// Panics if the netlist references cells missing from the library.
    pub fn recover_area(&self, netlist: &mut Netlist, cost_budget: f64) -> usize {
        let alpha = self.config.alpha;
        let mut session = TimingSession::with_kind(
            Arc::clone(&self.library),
            self.config.ssta.clone(),
            netlist.clone(),
            EngineKind::FullSsta,
        );
        let ids: Vec<GateId> = session.netlist().gate_ids().collect();
        let changed = recover_area(&mut session, &ids, |_, m| {
            moments_cost(m, alpha) <= cost_budget + 1e-9
        });
        *netlist = session.into_netlist();
        changed
    }

    /// Evaluates every library size of `g` over its subcircuit with the
    /// fast engine against the `frozen` session's pass-start boundary
    /// statistics; returns `(best_size, current_size)`, or `None` if the
    /// gate has no alternatives. Trials mutate only the worker's netlist
    /// copy and are rolled back before returning, so the copy can be
    /// reused for the next gate and the result depends on nothing but
    /// `g` — the property the parallel scoring fan-out relies on.
    fn best_size_for(
        &self,
        netlist: &mut Netlist,
        frozen: &TimingSession,
        g: GateId,
        fast_engine: &Fassta<'_>,
    ) -> Option<(usize, usize)> {
        let gate = netlist.gate(g);
        let GateKind::Cell {
            function,
            size: current,
        } = *gate.kind()
        else {
            return None;
        };
        let arity = gate.fanins().len();
        let group_len = self.library.group(function, arity)?.len();
        if group_len <= 1 {
            return None;
        }

        let sub = Subcircuit::extract(netlist, g, self.config.subcircuit_depth);
        let alpha = self.config.alpha;
        let local_cost = |netlist: &Netlist| {
            let outs =
                fast_engine.evaluate_subcircuit(netlist, &sub, frozen.arrivals(), frozen.timing());
            subcircuit_cost(&outs, alpha)
        };

        let mut best_size = current;
        let mut best_cost = local_cost(netlist);
        for size in 0..group_len {
            if size == current {
                continue;
            }
            netlist.set_size(g, size);
            let cost = local_cost(netlist);
            if cost < best_cost - f64::EPSILON * best_cost.abs() {
                best_cost = cost;
                best_size = size;
            }
        }
        netlist.set_size(g, current); // trial state rolled back
        Some((best_size, current))
    }
}

/// [`StatisticalGreedy`] speaks the shared optimizer vocabulary: its
/// [`OptimizationReport`] maps 1:1 onto a [`vartol_ssta::SizingOutcome`] with the
/// statistical `μ + α·σ` objective, so it can be swept on the same
/// frontier as the global methods in [`vartol_ssta::optimize`].
impl vartol_ssta::Sizer for StatisticalGreedy {
    fn name(&self) -> &'static str {
        "greedy"
    }

    fn size(&self, netlist: &mut Netlist) -> vartol_ssta::SizingOutcome {
        let report = self.optimize(netlist);
        let alpha = self.config.alpha;
        vartol_ssta::SizingOutcome {
            optimizer: "greedy",
            objective: vartol_ssta::Objective::Statistical { alpha },
            initial_moments: report.initial_moments(),
            final_moments: report.final_moments(),
            initial_area: report.initial_area(),
            final_area: report.final_area(),
            passes: report
                .passes()
                .iter()
                .map(|p| vartol_ssta::SizingPass {
                    pass: p.pass + 1,
                    moments: p.circuit,
                    objective: p.cost,
                    area: p.area,
                    resized: p.resized,
                })
                .collect(),
            runtime: report.runtime(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vartol_netlist::generators::{benchmark, parity_tree, ripple_carry_adder};
    use vartol_ssta::{FullSsta, SstaConfig};

    #[test]
    fn reduces_sigma_on_adder() {
        let lib = Library::synthetic_90nm();
        let mut n = ripple_carry_adder(8, &lib);
        let report = StatisticalGreedy::new(&lib, SizerConfig::with_alpha(3.0)).optimize(&mut n);
        assert!(
            report.delta_sigma_pct() < -5.0,
            "expected meaningful sigma reduction, got {:+.1}%",
            report.delta_sigma_pct()
        );
        assert!(report.delta_area_pct() > 0.0, "variance costs area");
    }

    #[test]
    fn higher_alpha_cuts_more_sigma() {
        // Paper flow: start from a mean-optimized circuit, then compare
        // operating points. Greedy noise allows a small tolerance.
        let lib = Library::synthetic_90nm();
        let mut base = benchmark("c432", &lib).expect("known");
        let _ = crate::baseline::MeanDelaySizer::new(&lib, &SizerConfig::default().ssta)
            .minimize_delay(&mut base);
        let mut n3 = base.clone();
        let mut n9 = base;
        let r3 = StatisticalGreedy::new(&lib, SizerConfig::with_alpha(3.0)).optimize(&mut n3);
        let r9 = StatisticalGreedy::new(&lib, SizerConfig::with_alpha(9.0)).optimize(&mut n9);
        assert!(
            r3.delta_sigma_pct() < -10.0,
            "alpha 3 cuts sigma: {:+.1}%",
            r3.delta_sigma_pct()
        );
        assert!(
            r9.delta_sigma_pct() < -10.0,
            "alpha 9 cuts sigma: {:+.1}%",
            r9.delta_sigma_pct()
        );
        assert!(
            r9.final_moments().std() <= r3.final_moments().std() * 1.10,
            "alpha 9 should reduce sigma at least as much (within greedy noise): {} vs {}",
            r9.final_moments().std(),
            r3.final_moments().std()
        );
    }

    #[test]
    fn sizing_under_a_correlated_model_targets_the_correlated_sigma() {
        // With a die-to-die source configured, the sizer's internal
        // session is conditioned: its initial/final moments are the
        // *correlated* circuit statistics (wider than the independent
        // ones), and the optimized netlist must validate against a
        // conditioned from-scratch analysis exactly.
        use vartol_ssta::VariationModel;
        let lib = Library::synthetic_90nm();
        let ssta = SstaConfig::default().with_model(VariationModel::die_to_die(0.5));
        let config = SizerConfig::with_alpha(3.0).with_ssta(ssta.clone());
        let mut n = ripple_carry_adder(8, &lib);

        let independent_initial = FullSsta::new(&lib, &SstaConfig::default())
            .analyze(&n)
            .circuit_moments();
        let report = StatisticalGreedy::new(&lib, config).optimize(&mut n);
        assert!(
            report.initial_moments().std() > independent_initial.std(),
            "the sizer must see the correlated (wider) sigma: {} vs {}",
            report.initial_moments().std(),
            independent_initial.std()
        );
        assert!(
            report.final_moments().std() < report.initial_moments().std(),
            "sizing reduces the correlated sigma"
        );
        let check = FullSsta::new(&lib, &ssta).analyze(&n).circuit_moments();
        assert!((check.mean - report.final_moments().mean).abs() < 1e-9);
        assert!((check.var - report.final_moments().var).abs() < 1e-9);
    }

    #[test]
    fn report_history_is_monotone_in_cost() {
        let lib = Library::synthetic_90nm();
        let mut n = parity_tree(32, &lib);
        let report = StatisticalGreedy::new(&lib, SizerConfig::with_alpha(3.0)).optimize(&mut n);
        let costs: Vec<f64> = report.passes().iter().map(|p| p.cost).collect();
        for w in costs.windows(2) {
            assert!(
                w[1] <= w[0] * 1.000_001,
                "global cost must not increase across kept passes: {costs:?}"
            );
        }
    }

    #[test]
    fn netlist_state_matches_reported_final_moments() {
        let lib = Library::synthetic_90nm();
        let config = SizerConfig::with_alpha(3.0);
        let mut n = ripple_carry_adder(6, &lib);
        let report = StatisticalGreedy::new(&lib, config.clone()).optimize(&mut n);
        let check = FullSsta::new(&lib, &config.ssta)
            .analyze(&n)
            .circuit_moments();
        assert!((check.mean - report.final_moments().mean).abs() < 1e-9);
        assert!((check.var - report.final_moments().var).abs() < 1e-9);
    }

    #[test]
    fn zero_pass_budget_is_identity() {
        let lib = Library::synthetic_90nm();
        let mut n = parity_tree(8, &lib);
        let sizes_before = n.sizes();
        let config = SizerConfig::with_alpha(3.0).with_max_passes(0);
        let report = StatisticalGreedy::new(&lib, config).optimize(&mut n);
        assert_eq!(n.sizes(), sizes_before);
        assert_eq!(report.initial_moments(), report.final_moments());
        assert!(report.passes().is_empty());
    }

    #[test]
    fn alpha_zero_still_terminates_and_never_worsens_cost() {
        let lib = Library::synthetic_90nm();
        let mut n = ripple_carry_adder(4, &lib);
        let report = StatisticalGreedy::new(&lib, SizerConfig::with_alpha(0.0)).optimize(&mut n);
        // Pure mean optimization through the statistical machinery.
        assert!(report.final_moments().mean <= report.initial_moments().mean * 1.000_001);
    }

    #[test]
    fn delay_budget_is_respected() {
        let lib = Library::synthetic_90nm();
        let base = ripple_carry_adder(8, &lib);

        // Unconstrained run for reference.
        let mut free = base.clone();
        let r_free = StatisticalGreedy::new(&lib, SizerConfig::with_alpha(9.0)).optimize(&mut free);

        // Budget pinned at the initial mean: the optimizer may not slow
        // the circuit at all.
        let budget = r_free.initial_moments().mean;
        let mut tight = base;
        let config = SizerConfig::with_alpha(9.0).with_max_mean_delay(budget);
        let r_tight = StatisticalGreedy::new(&lib, config).optimize(&mut tight);
        assert!(
            r_tight.final_moments().mean <= budget + 1e-9,
            "mean {} must respect budget {budget}",
            r_tight.final_moments().mean
        );
        assert!(r_tight.final_moments().std() <= r_tight.initial_moments().std() * 1.000_001);
    }

    #[test]
    fn statistical_area_recovery_shrinks_area_within_budget() {
        let lib = Library::synthetic_90nm();
        let mut n = ripple_carry_adder(6, &lib);
        let sizer = StatisticalGreedy::new(&lib, SizerConfig::with_alpha(3.0));
        let report = sizer.optimize(&mut n);
        let area_opt = n.total_area(&lib);

        // Allow 5% cost slack: some upsized gates should come back down.
        let budget = report.final_moments().cost(3.0) * 1.05;
        let changed = sizer.recover_area(&mut n, budget);
        let area_recovered = n.total_area(&lib);
        assert!(area_recovered <= area_opt);
        // The cost budget is honored after recovery.
        let check = FullSsta::new(&lib, &SizerConfig::default().ssta).analyze(&n);
        assert!(check.circuit_moments().cost(3.0) <= budget + 1e-6);
        let _ = changed;
    }

    #[test]
    fn recover_area_with_zero_budget_changes_nothing() {
        // Cost μ + α·σ is strictly positive, so a zero budget rejects
        // every downsize; the netlist must come back untouched.
        let lib = Library::synthetic_90nm();
        let mut n = ripple_carry_adder(6, &lib);
        let sizer = StatisticalGreedy::new(&lib, SizerConfig::with_alpha(3.0));
        let _ = sizer.optimize(&mut n);
        let sizes_before = n.sizes();
        let changed = sizer.recover_area(&mut n, 0.0);
        assert_eq!(changed, 0);
        assert_eq!(n.sizes(), sizes_before);
    }

    #[test]
    fn recover_area_with_unbounded_budget_reaches_minimum_sizes() {
        // A budget beyond any reachable cost lets every gate fall to its
        // smallest size — total area hits the reset-sizes floor.
        let lib = Library::synthetic_90nm();
        let mut n = ripple_carry_adder(6, &lib);
        let sizer = StatisticalGreedy::new(&lib, SizerConfig::with_alpha(3.0));
        let _ = sizer.optimize(&mut n);
        let upsized = n
            .gate_ids()
            .filter(|&g| n.gate(g).size() != Some(0))
            .count();
        assert!(upsized > 0, "optimization must have upsized something");

        let changed = sizer.recover_area(&mut n, f64::INFINITY);
        assert_eq!(changed, upsized, "every non-minimum gate comes down");
        assert!(n.gate_ids().all(|g| n.gate(g).size() == Some(0)));

        let mut floor = ripple_carry_adder(6, &lib);
        floor.reset_sizes();
        assert!((n.total_area(&lib) - floor.total_area(&lib)).abs() < 1e-12);
    }

    #[test]
    fn recover_area_on_already_minimum_sizes_is_a_no_op() {
        let lib = Library::synthetic_90nm();
        let mut n = parity_tree(16, &lib);
        n.reset_sizes();
        let area = n.total_area(&lib);
        let sizer = StatisticalGreedy::new(&lib, SizerConfig::with_alpha(3.0));
        let changed = sizer.recover_area(&mut n, f64::INFINITY);
        assert_eq!(changed, 0, "nothing below size 0 to try");
        assert_eq!(n.total_area(&lib), area);
        assert!(n.gate_ids().all(|g| n.gate(g).size() == Some(0)));
    }

    #[test]
    fn parallel_scoring_is_bit_identical_across_thread_counts() {
        // The in-crate smoke for the determinism contract; the checked-in
        // integration test (tests/sizing_determinism.rs) covers c17 and
        // more generator circuits under explicit CI pool widths.
        let lib = Library::synthetic_90nm();
        let base = ripple_carry_adder(8, &lib);
        let run = |threads: usize| {
            let mut n = base.clone();
            let config = SizerConfig::with_alpha(3.0).with_threads(threads);
            let report = StatisticalGreedy::new(&lib, config).optimize(&mut n);
            (report, n.sizes())
        };
        let (r1, s1) = run(1);
        for threads in [2, 8] {
            let (rn, sn) = run(threads);
            assert_eq!(s1, sn, "{threads}-thread sizes");
            assert_eq!(r1, rn, "{threads}-thread report");
            assert_eq!(
                r1.final_moments().mean.to_bits(),
                rn.final_moments().mean.to_bits(),
                "{threads}-thread mean bits"
            );
            assert_eq!(
                r1.final_moments().var.to_bits(),
                rn.final_moments().var.to_bits(),
                "{threads}-thread var bits"
            );
        }
    }

    #[test]
    fn respects_pdf_sample_setting() {
        let lib = Library::synthetic_90nm();
        let mut n = parity_tree(8, &lib);
        let config =
            SizerConfig::with_alpha(3.0).with_ssta(SstaConfig::default().with_pdf_samples(10));
        let report = StatisticalGreedy::new(&lib, config).optimize(&mut n);
        assert!(report.final_moments().std() <= report.initial_moments().std() * 1.000_001);
    }

    #[test]
    fn clocked_optimization_improves_wns_under_a_clock() {
        use vartol_netlist::generators::pipeline_adder;
        use vartol_ssta::{ClockConstraint, EngineKind, SequentialTiming};

        let lib = Library::synthetic_90nm();
        let mut n = pipeline_adder(8, &lib);
        let config = SstaConfig::default();
        let clock = ClockConstraint::new(400.0, 0.0);
        let wns = |n: &Netlist| {
            let r = EngineKind::FullSsta.engine(&lib, &config).analyze(n);
            SequentialTiming::analyze(n, &lib, clock, &r).wns()
        };
        let before = wns(&n);
        let sizer = StatisticalGreedy::new(&lib, SizerConfig::with_alpha(3.0));
        let report = sizer.optimize_clocked(&mut n);
        let after = wns(&n);
        assert!(
            after > before,
            "WNS must improve: {before} -> {after} ({} passes)",
            report.passes().len()
        );
        // Registers stay intact through the size round-trip: rank 1 has
        // 4 low sums + mid carry + 8 delayed operand bits, rank 2 has 9.
        assert_eq!(n.register_count(), 22);
        assert!(n.check_invariants().is_ok());
    }

    #[test]
    fn clocked_optimization_on_combinational_netlist_matches_plain() {
        let lib = Library::synthetic_90nm();
        let config = SizerConfig::with_alpha(3.0);
        let mut a = ripple_carry_adder(6, &lib);
        let mut b = a.clone();
        let sizer = StatisticalGreedy::new(&lib, config);
        let ra = sizer.optimize(&mut a);
        let rb = sizer.optimize_clocked(&mut b);
        assert_eq!(a.sizes(), b.sizes());
        assert_eq!(ra.final_moments(), rb.final_moments());
    }
}
