//! FULLSSTA — the accurate outer statistical timing engine (§4.2).
//!
//! Based on the discrete-PDF propagation of Liou et al. (DAC'01, the
//! paper's reference \[15\]): every arrival time is a discretized PDF at a
//! user-controlled sampling rate (10–15 points), propagated with `sum`
//! (convolution) and `max` (CDF product) and re-discretized after each
//! operation. Besides the PDFs, the engine stores the mean and variance at
//! every node — exactly what the paper prescribes: *"In addition to
//! propagating pdfs, we also calculate the mean and variance at every node
//! and store these values for use in the fast timing engine (FASSTA)."*
//!
//! With [`CorrelationMode::LevelBuckets`](crate::CorrelationMode) each node
//! also carries a vector of per-level variance contributions up to its
//! own level (`state.rs` explains why higher levels need no entry); the
//! correlation of two arrivals at a max is estimated from the bucket-wise
//! overlap of those vectors (shared path prefixes accumulate identical
//! bucket entries), the max *moments* come from Clark's correlated
//! formulas, and the independent CDF-product shape is moment-corrected to
//! match.
//!
//! The propagation kernel itself is shared with
//! [`TimingSession`](crate::TimingSession): a from-scratch `analyze` is an
//! incremental update seeded with every node, which is what guarantees
//! session refreshes reproduce this engine exactly.
//!
//! Under a correlated [`VariationModel`](crate::variation::VariationModel)
//! with global (die-to-die) sources, the engine **conditions**: one full
//! PDF propagation per Gauss–Hermite lane (every gate delay shifted by
//! `σ·ρ·x_q`, variance shrunk to the residual), recombined per node by
//! the law of total variance — see [`crate::variation`] for the math and
//! `tests/correlated_variation.rs` for the ≤2% agreement with correlated
//! Monte Carlo. The default (empty) model skips all of it, bit for bit.
//!
//! Propagation runs through the level-ordered arena
//! (`state.rs`): each level's (node × lane) PDF kernels — the
//! Gauss–Hermite lanes are independent work items — fan out over
//! [`SstaConfig::threads`](crate::SstaConfig) workers and join
//! serially in node order, so reports are **bit-identical at every
//! thread width**, and the single-lane empty-model path reproduces
//! the pre-arena implementation bit for bit
//! (`tests/engine_determinism.rs`).

use crate::config::SstaConfig;
use crate::engine::{EngineKind, TimingEngine, TimingReport};
use crate::state::TimingState;
use vartol_liberty::Library;
use vartol_netlist::Netlist;

/// The accurate discrete-PDF statistical timing engine.
#[derive(Debug, Clone, Copy)]
pub struct FullSsta<'a> {
    library: &'a Library,
    config: &'a SstaConfig,
}

impl<'a> FullSsta<'a> {
    /// Creates an engine over a library with the given configuration.
    #[must_use]
    pub fn new(library: &'a Library, config: &'a SstaConfig) -> Self {
        Self { library, config }
    }

    /// Propagates arrival PDFs through the netlist.
    ///
    /// # Panics
    ///
    /// Panics if the netlist references cells missing from the library.
    #[must_use]
    pub fn analyze(&self, netlist: &Netlist) -> TimingReport {
        TimingState::full(netlist, self.library, self.config, EngineKind::FullSsta)
            .into_report(netlist, self.config)
    }
}

impl TimingEngine for FullSsta<'_> {
    fn kind(&self) -> EngineKind {
        EngineKind::FullSsta
    }

    fn analyze(&self, netlist: &Netlist) -> TimingReport {
        FullSsta::analyze(self, netlist)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsta::Dsta;
    use vartol_liberty::LogicFunction;
    use vartol_netlist::generators::{parity_tree, ripple_carry_adder};
    use vartol_netlist::NetlistBuilder;

    #[test]
    fn chain_accumulates_mean_and_variance() {
        let lib = Library::synthetic_90nm();
        let mut b = NetlistBuilder::new("c");
        let a = b.input("a");
        let mut prev = a;
        for i in 0..8 {
            prev = b.gate(format!("g{i}"), LogicFunction::Inv, &[prev]);
        }
        b.mark_output(prev);
        let n = b.build().expect("valid");
        let config = SstaConfig::default();
        let r = FullSsta::new(&lib, &config).analyze(&n);
        let m = r.circuit_moments();
        assert!(m.mean > 0.0);
        assert!(m.var > 0.0);
        // Variance of a pure chain = sum of arc variances (no max ops).
        let want_var: f64 = n
            .gate_ids()
            .map(|id| r.timing().delay_moments(id).var)
            .sum();
        assert!(
            (m.var - want_var).abs() < 0.1 * want_var,
            "{} vs {want_var}",
            m.var
        );
    }

    #[test]
    fn mean_tracks_deterministic_sta() {
        let lib = Library::synthetic_90nm();
        let n = ripple_carry_adder(8, &lib);
        let config = SstaConfig::default();
        let stat = FullSsta::new(&lib, &config).analyze(&n);
        let det = Dsta::new(&lib, &config).analyze(&n);
        // Statistical mean >= deterministic longest path (max of RVs
        // exceeds max of means) but within a few sigma of it.
        let m = stat.circuit_moments();
        assert!(m.mean >= det.max_delay() - 1e-9);
        assert!(m.mean < det.max_delay() + 4.0 * m.std());
    }

    #[test]
    fn deterministic_variation_degenerates_to_dsta() {
        let lib = Library::synthetic_90nm();
        let n = ripple_carry_adder(6, &lib);
        let config = SstaConfig::deterministic();
        let stat = FullSsta::new(&lib, &config).analyze(&n);
        let det = Dsta::new(&lib, &config).analyze(&n);
        let m = stat.circuit_moments();
        assert!((m.mean - det.max_delay()).abs() < 1e-6);
        assert!(m.std() < 1e-9);
    }

    #[test]
    fn parity_tree_has_balanced_arrivals() {
        let lib = Library::synthetic_90nm();
        let n = parity_tree(16, &lib);
        let config = SstaConfig::default();
        let r = FullSsta::new(&lib, &config).analyze(&n);
        // Single output; its arrival is the circuit RV.
        let o = n.outputs()[0];
        assert_eq!(r.arrival(o), r.circuit_moments());
        assert_eq!(r.worst_output(), o);
    }

    #[test]
    fn sigma_over_mu_falls_with_depth() {
        // The paper's observation: "the number of gates along a timing path
        // is inversely proportional to the variance along that path".
        let lib = Library::synthetic_90nm();
        let config = SstaConfig::default();
        let engine = FullSsta::new(&lib, &config);
        let chain = |len: usize| {
            let mut b = NetlistBuilder::new("c");
            let a = b.input("a");
            let mut prev = a;
            for i in 0..len {
                prev = b.gate(format!("g{i}"), LogicFunction::Inv, &[prev]);
            }
            b.mark_output(prev);
            engine
                .analyze(&b.build().expect("valid"))
                .circuit_moments()
                .sigma_over_mu()
        };
        let short = chain(4);
        let long = chain(32);
        assert!(
            long < short,
            "deeper chain has smaller sigma/mu: {long} < {short}"
        );
    }

    #[test]
    fn upsizing_reduces_circuit_sigma() {
        let lib = Library::synthetic_90nm();
        let mut n = ripple_carry_adder(4, &lib);
        let config = SstaConfig::default();
        let engine = FullSsta::new(&lib, &config);
        let before = engine.analyze(&n).circuit_moments();
        // Upsize everything to near max.
        let ids: Vec<_> = n.gate_ids().collect();
        for id in ids {
            n.set_size(id, 4);
        }
        let after = engine.analyze(&n).circuit_moments();
        assert!(
            after.std() < before.std(),
            "{} < {}",
            after.std(),
            before.std()
        );
    }

    #[test]
    fn more_samples_refine_but_do_not_upend_the_estimate() {
        let lib = Library::synthetic_90nm();
        let n = ripple_carry_adder(8, &lib);
        let coarse_config = SstaConfig::default().with_pdf_samples(8);
        let fine_config = SstaConfig::default().with_pdf_samples(30);
        let coarse = FullSsta::new(&lib, &coarse_config)
            .analyze(&n)
            .circuit_moments();
        let fine = FullSsta::new(&lib, &fine_config)
            .analyze(&n)
            .circuit_moments();
        assert!((coarse.mean - fine.mean).abs() / fine.mean < 0.02);
        assert!((coarse.std() - fine.std()).abs() / fine.std() < 0.25);
    }

    #[test]
    fn unconditionable_models_still_scale_the_marginals() {
        // A model with no global source has nothing to condition on, but
        // the analytic engines must still honor its marginal variance
        // scale — a spatial-only or local-scaled model that Monte Carlo
        // applies per draw cannot be silently ignored here.
        use crate::variation::{SpatialGrid, VariationModel};
        let lib = Library::synthetic_90nm();
        let n = ripple_carry_adder(8, &lib);
        let base = SstaConfig::default();
        let base_m = FullSsta::new(&lib, &base).analyze(&n).circuit_moments();

        // Local-only scale 0.5: every sigma halves, variance quarters.
        let mut local_half = VariationModel::none();
        local_half.local_sigma_scale = 0.5;
        assert!(!local_half.is_empty(), "a scaled local term is a model");
        let cfg = SstaConfig::default().with_model(local_half);
        let halved = FullSsta::new(&lib, &cfg).analyze(&n).circuit_moments();
        assert!(
            (halved.std() / base_m.std() - 0.5).abs() < 0.05,
            "sigma ratio {} should be ~0.5",
            halved.std() / base_m.std()
        );

        // Un-normalized spatial-only model: marginal scale 1 + 0.5.
        let spatial =
            VariationModel::none().with_spatial(SpatialGrid::with_variance_share(4, 4, 2.0, 0.5));
        assert!((spatial.total_variance_scale() - 1.5).abs() < 1e-12);
        let cfg = SstaConfig::default().with_model(spatial);
        let widened = FullSsta::new(&lib, &cfg).analyze(&n).circuit_moments();
        assert!(
            (widened.std() / base_m.std() - 1.5f64.sqrt()).abs() < 0.08,
            "sigma ratio {} should be ~sqrt(1.5)",
            widened.std() / base_m.std()
        );
    }

    #[test]
    fn pdf_bounded_support_and_mass() {
        let lib = Library::synthetic_90nm();
        let n = ripple_carry_adder(4, &lib);
        let config = SstaConfig::default();
        let r = FullSsta::new(&lib, &config).analyze(&n);
        let pdf = r.circuit_pdf().expect("fullssta computes a circuit pdf");
        assert!(pdf.len() <= SstaConfig::default().pdf_samples);
        let total: f64 = pdf.probs().iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(pdf.min_value() > 0.0, "arrivals are positive");
    }
}
