//! Deterministic static timing analysis (nominal delays only).
//!
//! The classical engine underlying the mean-delay baseline optimizer: the
//! "original" column of the paper's Table 1 is a circuit "obtained by
//! optimizing ... with a goal of minimizing the mean of the longest delay",
//! which is exactly deterministic STA-driven sizing.
//!
//! [`Dsta::analyze`] returns the unified [`TimingReport`] (zero-variance
//! arrivals), on which [`TimingReport::critical_path`] traces the
//! deterministic critical path. Deterministic slacks are
//! [`StatisticalSlacks`](crate::StatisticalSlacks) of a DSTA report at
//! [`SstaConfig::deterministic`]: with zero variance everywhere, Clark's
//! `min` is the exact minimum.
//!
//! Under a correlated [`VariationModel`](crate::variation::VariationModel)
//! with global sources, [`Dsta::analyze`] becomes a **corner sweep**: the
//! deterministic longest path is evaluated once per Gauss–Hermite lane
//! (all gate delays shifted together by the lane's die-wide deviation)
//! and the lanes recombine into circuit moments whose variance is purely
//! the die-to-die spread — classical multi-corner STA, derived from the
//! same model the statistical engines condition on.
//!
//! Propagation runs through the level-ordered arena
//! (`state.rs`): wide levels fan their (node × lane) kernels
//! out over [`SstaConfig::threads`](crate::SstaConfig) workers and
//! join serially in node order, so reports are **bit-identical at
//! every thread width**.

use crate::config::SstaConfig;
use crate::engine::{EngineKind, TimingEngine, TimingReport};
use crate::state::TimingState;
use vartol_liberty::Library;
use vartol_netlist::Netlist;

/// Deterministic static timing engine.
#[derive(Debug, Clone, Copy)]
pub struct Dsta<'a> {
    library: &'a Library,
    config: &'a SstaConfig,
}

impl<'a> Dsta<'a> {
    /// Creates an engine over a library with the given configuration.
    #[must_use]
    pub fn new(library: &'a Library, config: &'a SstaConfig) -> Self {
        Self { library, config }
    }

    /// Runs nominal longest-path analysis, returning the unified report
    /// (arrivals carry zero variance).
    ///
    /// # Panics
    ///
    /// Panics if the netlist references cells missing from the library.
    #[must_use]
    pub fn analyze(&self, netlist: &Netlist) -> TimingReport {
        TimingState::full(netlist, self.library, self.config, EngineKind::Dsta)
            .into_report(netlist, self.config)
    }
}

impl TimingEngine for Dsta<'_> {
    fn kind(&self) -> EngineKind {
        EngineKind::Dsta
    }

    fn analyze(&self, netlist: &Netlist) -> TimingReport {
        Dsta::analyze(self, netlist)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vartol_liberty::LogicFunction;
    use vartol_netlist::generators::ripple_carry_adder;
    use vartol_netlist::NetlistBuilder;

    #[test]
    fn arrivals_accumulate_along_chain() {
        let lib = Library::synthetic_90nm();
        let config = SstaConfig::default();
        let mut b = NetlistBuilder::new("c");
        let a = b.input("a");
        let g0 = b.gate("g0", LogicFunction::Inv, &[a]);
        let g1 = b.gate("g1", LogicFunction::Inv, &[g0]);
        b.mark_output(g1);
        let n = b.build().expect("valid");
        let r = Dsta::new(&lib, &config).analyze(&n);
        assert!(r.arrival(g0).mean > 0.0);
        assert!(r.arrival(g1).mean > r.arrival(g0).mean);
        assert_eq!(r.max_delay(), r.arrival(g1).mean);
        assert_eq!(r.worst_output(), g1);
        assert_eq!(r.arrival(g1).var, 0.0);
    }

    #[test]
    fn critical_path_is_connected_and_input_first() {
        let lib = Library::synthetic_90nm();
        let config = SstaConfig::default();
        let n = ripple_carry_adder(8, &lib);
        let r = Dsta::new(&lib, &config).analyze(&n);
        let path = r.critical_path(&n);
        assert!(!path.is_empty());
        // Consecutive path elements are fanin->fanout related.
        for w in path.windows(2) {
            assert!(n.gate(w[1]).fanins().contains(&w[0]));
        }
        // Last element is the worst output.
        assert_eq!(*path.last().expect("non-empty"), r.worst_output());
        // First element is fed by at least one primary input.
        assert!(n
            .gate(path[0])
            .fanins()
            .iter()
            .any(|&f| n.gate(f).is_input()));
    }

    #[test]
    fn carry_chain_dominates_adder_delay() {
        let lib = Library::synthetic_90nm();
        let config = SstaConfig::default();
        let n4 = ripple_carry_adder(4, &lib);
        let n16 = ripple_carry_adder(16, &lib);
        let d4 = Dsta::new(&lib, &config).analyze(&n4).max_delay();
        let d16 = Dsta::new(&lib, &config).analyze(&n16).max_delay();
        assert!(
            d16 > 2.0 * d4,
            "16-bit carry chain much longer: {d16} vs {d4}"
        );
    }

    #[test]
    fn slacks_zero_on_critical_path_at_exact_requirement() {
        // Deterministic slacks: with zero variance everywhere, Clark's
        // min in the backward pass is the exact minimum.
        use crate::StatisticalSlacks;
        let lib = Library::synthetic_90nm();
        let config = SstaConfig::deterministic();
        let n = ripple_carry_adder(6, &lib);
        let r = Dsta::new(&lib, &config).analyze(&n);
        let slacks =
            StatisticalSlacks::compute_with_timing(&n, r.timing(), r.arrivals(), r.max_delay());
        let path = r.critical_path(&n);
        for &g in &path {
            assert!(slacks.slack(g).mean.abs() < 1e-9, "critical gate slack ~0");
        }
        // All slacks non-negative and exact at the exact requirement.
        for id in n.node_ids() {
            assert!(slacks.slack(id).mean >= -1e-9);
            assert_eq!(slacks.slack(id).var, 0.0);
        }
    }

    #[test]
    fn upsizing_the_output_driver_under_heavy_load_reduces_delay() {
        // Uniformly upsizing a whole path does not help (the next stage's
        // input cap scales along — logical effort), but upsizing the driver
        // of a heavy fixed load does: the classic sizing win.
        let lib = Library::synthetic_90nm();
        let config = SstaConfig {
            po_load: 16.0,
            ..SstaConfig::default()
        };
        let mut b = NetlistBuilder::new("drv");
        let a = b.input("a");
        let g0 = b.gate("g0", LogicFunction::Inv, &[a]);
        let g1 = b.gate("g1", LogicFunction::Inv, &[g0]);
        b.mark_output(g1);
        let mut n = b.build().expect("valid");

        let d0 = Dsta::new(&lib, &config).analyze(&n).max_delay();
        n.set_size(g1, 6); // X8 inverter
        let d1 = Dsta::new(&lib, &config).analyze(&n).max_delay();
        assert!(d1 < d0, "upsized driver: {d1} < {d0}");
    }
}
