//! FASSTA — the fast inner statistical timing engine (§4.3).
//!
//! Where FULLSSTA propagates full discrete PDFs, FASSTA propagates only
//! `(mean, variance)` pairs: sums are exact on moments, maxima use the
//! paper's approximation (dominance shortcuts at ±2.6σ of the gap, Clark
//! with the quadratic erf otherwise). *"The FASSTA engine relies on the
//! point values for means and variances of delays calculated in FULLSSTA
//! rather than the complete discrete pdf representations."*
//!
//! Two modes:
//!
//! * [`Fassta::analyze`] — whole-circuit moment propagation, sharing its
//!   kernel with the incremental [`TimingSession`](crate::TimingSession);
//! * [`Fassta::evaluate_subcircuit`] — the optimizer's inner loop: evaluate
//!   one extracted region against boundary arrivals stored by FULLSSTA,
//!   with member delays recomputed for the netlist's *current* sizes.
//!
//! The inner loop's cost model: a [`Subcircuit`] holds structure only, so
//! a sizer extracts it once and reuses it across every trial size. One
//! evaluation is one topological pass over the members — per member a
//! load sum, one NLDM delay/slew lookup and one fast max per extra
//! fanin — with member fanins found by binary search in the sorted
//! member list; it allocates a few member-sized `Vec`s and hashes
//! nothing. The Lagrangian sizer's central difference reads only the
//! two neighbour sizes, so it evaluates the current size only at a
//! ladder end, where the difference is one-sided.
//!
//! Under a correlated [`VariationModel`](crate::variation::VariationModel)
//! with global sources, whole-circuit analysis conditions exactly like
//! FULLSSTA (moment lanes per Gauss–Hermite node, recombined per node);
//! `evaluate_subcircuit` keeps scoring against the session's
//! **unconditional** boundary moments — a deliberate approximation: the
//! optimizer's candidate *ranking* runs on the cheap marginal view while
//! every accept/reject decision is validated on the conditioned session.
//!
//! Whole-circuit analysis runs through the level-ordered arena
//! (`state.rs`): wide levels fan their (node × lane) moment
//! kernels out over [`SstaConfig::threads`](crate::SstaConfig)
//! workers and join serially in node order, so reports are
//! **bit-identical at every thread width**.

use crate::config::SstaConfig;
use crate::delay::CircuitTiming;
use crate::engine::{EngineKind, TimingReport};
use crate::state::TimingState;
use vartol_liberty::Library;
use vartol_netlist::{Netlist, Subcircuit};
use vartol_stats::fast_max::fast_max_moments;
use vartol_stats::Moments;

/// The fast moment-propagation engine.
#[derive(Debug, Clone, Copy)]
pub struct Fassta<'a> {
    library: &'a Library,
    config: &'a SstaConfig,
}

impl<'a> Fassta<'a> {
    /// Creates an engine over a library with the given configuration.
    #[must_use]
    pub fn new(library: &'a Library, config: &'a SstaConfig) -> Self {
        Self { library, config }
    }

    /// Whole-circuit moment propagation.
    ///
    /// # Panics
    ///
    /// Panics if the netlist references cells missing from the library.
    #[must_use]
    pub fn analyze(&self, netlist: &Netlist) -> TimingReport {
        TimingState::full(netlist, self.library, self.config, EngineKind::Fassta)
            .into_report(netlist, self.config)
    }

    /// Evaluates one subcircuit against stored boundary arrivals.
    ///
    /// `boundary_arrivals[f.index()]` must hold the arrival moments of
    /// every boundary input `f` (typically FULLSSTA's stored node stats);
    /// `base_timing` supplies boundary slews. Member loads and delays are
    /// recomputed from the netlist's current sizes, so the caller can trial
    /// a size assignment by mutating the netlist before calling.
    ///
    /// Returns the arrival moments at each of the subcircuit's local
    /// outputs, ordered as [`Subcircuit::local_outputs`].
    ///
    /// # Panics
    ///
    /// Panics if the netlist references cells missing from the library.
    #[must_use]
    pub fn evaluate_subcircuit(
        &self,
        netlist: &Netlist,
        sub: &Subcircuit,
        boundary_arrivals: &[Moments],
        base_timing: &CircuitTiming,
    ) -> Vec<Moments> {
        let members = sub.members();
        let member_delays = base_timing.member_delays(netlist, self.library, self.config, sub);

        // Arrival overlay for members only, indexed like `members`: a
        // fanin that is an earlier member reads the overlay, anything
        // else the boundary snapshot.
        let mut local: Vec<Moments> = Vec::with_capacity(members.len());
        for (pos, &m) in members.iter().enumerate() {
            let g = netlist.gate(m);
            let mut arrival = Moments::zero();
            let mut first = true;
            for f in g.fanins() {
                let fa = match members[..pos].binary_search(f) {
                    Ok(p) => local[p],
                    Err(_) => boundary_arrivals[f.index()],
                };
                arrival = if first {
                    fa
                } else {
                    fast_max_moments(arrival, fa)
                };
                first = false;
            }
            local.push(arrival + member_delays[pos]);
        }

        sub.local_outputs()
            .iter()
            .map(|o| {
                let pos = members.binary_search(o).expect("local outputs are members");
                local[pos]
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fullssta::FullSsta;
    use vartol_netlist::generators::{alu, benchmark, magnitude_comparator, ripple_carry_adder};

    #[test]
    fn tracks_fullssta_on_suite_circuits() {
        // FASSTA deliberately ignores reconvergence correlation (§4.3:
        // "this approach emphasizes speed while retaining a reasonable
        // degree of accuracy for small subcircuits"), so whole-circuit
        // agreement with the correlation-aware FULLSSTA is loose: the
        // independence assumption inflates the mean and deflates sigma.
        let lib = Library::synthetic_90nm();
        let config = SstaConfig::default();
        for name in ["c432", "c880"] {
            let n = benchmark(name, &lib).expect("known");
            let full = FullSsta::new(&lib, &config).analyze(&n).circuit_moments();
            let fast = Fassta::new(&lib, &config).analyze(&n).circuit_moments();
            assert!(
                (full.mean - fast.mean).abs() / full.mean < 0.12,
                "{name} mean: full {} vs fast {}",
                full.mean,
                fast.mean
            );
            assert!(
                (full.std() - fast.std()).abs() / full.std() < 0.60,
                "{name} sigma: full {} vs fast {}",
                full.std(),
                fast.std()
            );
        }
    }

    #[test]
    fn subcircuit_evaluation_matches_full_when_nothing_changes() {
        let lib = Library::synthetic_90nm();
        let config = SstaConfig::default();
        let n = alu(6, &lib);
        let engine = Fassta::new(&lib, &config);
        let full = FullSsta::new(&lib, &config).analyze(&n);

        let center = n.gate_ids().nth(20).expect("enough gates");
        let sub = Subcircuit::extract(&n, center, 2);
        let got = engine.evaluate_subcircuit(&n, &sub, full.arrivals(), full.timing());
        for (o, m) in sub.local_outputs().iter().zip(&got) {
            let want = full.arrival(*o);
            assert!(
                (m.mean - want.mean).abs() / want.mean.max(1.0) < 0.1,
                "output {o}: {m} vs {want}"
            );
        }
    }

    #[test]
    fn subcircuit_sees_size_changes() {
        let lib = Library::synthetic_90nm();
        let config = SstaConfig::default();
        let mut n = ripple_carry_adder(8, &lib);
        let engine = Fassta::new(&lib, &config);
        let full = FullSsta::new(&lib, &config).analyze(&n);

        // Take a gate in the middle of the carry chain.
        let center = n.gate_by_name("add_fa4_c").expect("carry gate exists");
        let sub = Subcircuit::extract(&n, center, 2);
        let before = engine.evaluate_subcircuit(&n, &sub, full.arrivals(), full.timing());

        n.set_size(center, 5);
        let after = engine.evaluate_subcircuit(&n, &sub, full.arrivals(), full.timing());

        // The resized gate's sigma contribution shrinks; at least one local
        // output must see a strictly different arrival.
        assert!(
            before
                .iter()
                .zip(&after)
                .any(|(b, a)| (b.mean - a.mean).abs() > 1e-9 || (b.var - a.var).abs() > 1e-9),
            "resizing must be visible to the inner engine"
        );
    }

    #[test]
    fn comparator_outputs_reduce_via_fast_max() {
        let lib = Library::synthetic_90nm();
        let n = magnitude_comparator(8, &lib);
        let config = SstaConfig::default();
        let r = Fassta::new(&lib, &config).analyze(&n);
        let worst = n
            .outputs()
            .iter()
            .map(|&o| r.arrival(o).mean)
            .fold(0.0f64, f64::max);
        assert!(r.circuit_moments().mean >= worst - 1e-9);
    }

    #[test]
    fn deterministic_mode_matches_exactly() {
        let lib = Library::synthetic_90nm();
        let config = SstaConfig::deterministic();
        let n = ripple_carry_adder(6, &lib);
        let fast = Fassta::new(&lib, &config).analyze(&n);
        let full = FullSsta::new(&lib, &config).analyze(&n);
        assert!(
            (fast.circuit_moments().mean - full.circuit_moments().mean).abs() < 1e-6,
            "no variation -> both engines are plain STA"
        );
    }
}
