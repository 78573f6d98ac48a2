//! The unified timing-engine API.
//!
//! Every timing engine in this crate — deterministic STA ([`crate::Dsta`]),
//! the accurate discrete-PDF engine ([`crate::FullSsta`]), the fast moment
//! engine ([`crate::Fassta`]), and the Monte-Carlo reference
//! ([`crate::MonteCarloTimer`]) — has its own `analyze`, and all return
//! the same [`TimingReport`]: per-node arrival [`Moments`], the
//! statistically-worst primary output, circuit-level moments, and — for
//! engines that compute them — full arrival PDFs. The report is the
//! only result type: DSTA's critical path is traced on it too
//! ([`TimingReport::critical_path`]). A FULLSSTA report keeps its
//! per-node PDFs in the engine's own fixed-stride slab (moved in by a
//! one-shot analysis, copied by
//! [`TimingSession::current_report`](crate::TimingSession::current_report))
//! and lends them out as [`PdfRef`]s. [`EngineKind::analyze`] runs the
//! engine a kind names; incremental re-analysis on top of the shared
//! propagation kernels lives in [`TimingSession`](crate::TimingSession).
//!
//! # Example
//!
//! ```
//! use vartol_liberty::Library;
//! use vartol_netlist::generators::ripple_carry_adder;
//! use vartol_ssta::{EngineKind, SstaConfig};
//!
//! let lib = Library::synthetic_90nm();
//! let netlist = ripple_carry_adder(8, &lib);
//! let config = SstaConfig::default();
//!
//! // Engine selection at run time.
//! for kind in EngineKind::ALL {
//!     let report = kind.analyze(&lib, &config, &netlist);
//!     assert_eq!(report.kind(), kind);
//!     assert!(report.circuit_moments().mean > 0.0);
//! }
//! ```

use crate::config::SstaConfig;
use crate::delay::CircuitTiming;
use crate::state::{CircuitSummary, NodePdfs};
use vartol_liberty::Library;
use vartol_netlist::{GateId, Netlist};
use vartol_stats::{DiscretePdf, Moments, PdfRef};

/// Which timing engine produced (or should produce) an analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum EngineKind {
    /// Deterministic static timing (nominal delays only).
    Dsta,
    /// Fast moment-only propagation (the paper's FASSTA, §4.3).
    Fassta,
    /// Accurate discrete-PDF propagation (the paper's FULLSSTA, §4.2).
    FullSsta,
    /// Sampling-based golden reference.
    MonteCarlo,
}

impl EngineKind {
    /// Every engine kind, cheapest first.
    pub const ALL: [Self; 4] = [Self::Dsta, Self::Fassta, Self::FullSsta, Self::MonteCarlo];

    /// Whether a [`TimingSession`](crate::TimingSession) can re-analyze
    /// this engine's results incrementally after a resize (Monte Carlo is
    /// sampling-based and always re-runs from scratch).
    #[must_use]
    pub fn supports_incremental(self) -> bool {
        self != Self::MonteCarlo
    }

    /// Analyzes the netlist at its current sizes with this kind's engine.
    /// Monte Carlo draws [`DEFAULT_MC_SAMPLES`](crate::DEFAULT_MC_SAMPLES)
    /// samples at seed 0.
    ///
    /// # Panics
    ///
    /// Panics if the netlist references cells missing from the library.
    #[must_use]
    pub fn analyze(
        self,
        library: &Library,
        config: &SstaConfig,
        netlist: &Netlist,
    ) -> TimingReport {
        match self {
            Self::Dsta => crate::Dsta::new(library, config).analyze(netlist),
            Self::Fassta => crate::Fassta::new(library, config).analyze(netlist),
            Self::FullSsta => crate::FullSsta::new(library, config).analyze(netlist),
            Self::MonteCarlo => crate::MonteCarloTimer::new(library, config)
                .analyze(netlist, crate::DEFAULT_MC_SAMPLES),
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Self::Dsta => "dsta",
            Self::Fassta => "fassta",
            Self::FullSsta => "fullssta",
            Self::MonteCarlo => "montecarlo",
        };
        write!(f, "{name}")
    }
}

/// The shared result of any timing analysis.
///
/// Always present: per-node arrival moments, the statistically-worst
/// primary output, circuit-level output moments, and the electrical
/// snapshot the analysis used. Optionally present (engine-dependent):
/// per-node and circuit-level discrete PDFs (FULLSSTA) and raw delay
/// samples (Monte Carlo).
///
/// Under a correlated [`VariationModel`](crate::variation::VariationModel)
/// every reported statistic is **unconditional** — arrival moments and
/// PDFs are recombined over the engine's conditioning lanes (or, for
/// Monte Carlo, sampled across dies), so consumers read the same shapes
/// whether or not a model is configured.
///
/// Two reports are equal when their observable answers are: the per-node
/// PDFs compare up to each PDF's point count.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingReport {
    pub(crate) kind: EngineKind,
    pub(crate) arrivals: Vec<Moments>,
    pub(crate) pdfs: Option<NodePdfs>,
    pub(crate) circuit: CircuitSummary,
    pub(crate) timing: CircuitTiming,
    pub(crate) samples: Option<Vec<f64>>,
}

impl TimingReport {
    /// The engine that produced this report.
    #[must_use]
    pub fn kind(&self) -> EngineKind {
        self.kind
    }

    /// Arrival moments at a node (deterministic engines report zero
    /// variance).
    #[must_use]
    pub fn arrival(&self, id: GateId) -> Moments {
        self.arrivals[id.index()]
    }

    /// All arrival moments, indexed by [`GateId::index`] — the boundary
    /// data the fast engine and the WNSS tracer consume.
    #[must_use]
    pub fn arrivals(&self) -> &[Moments] {
        &self.arrivals
    }

    /// The full arrival PDF at a node, when the engine propagates PDFs.
    #[must_use]
    pub fn arrival_pdf(&self, id: GateId) -> Option<PdfRef<'_>> {
        self.pdfs.as_ref().map(|p| p.pdf(id.index()))
    }

    /// Mean and variance of the circuit output RV `max over outputs` —
    /// the quantity the optimization problem in §3 minimizes.
    #[must_use]
    pub fn circuit_moments(&self) -> Moments {
        self.circuit.moments
    }

    /// The circuit-level output distribution, when the engine computes one.
    #[must_use]
    pub fn circuit_pdf(&self) -> Option<&DiscretePdf> {
        self.circuit.pdf.as_ref()
    }

    /// The statistically-worst primary output (for [`EngineKind::Dsta`],
    /// the output with the longest nominal arrival).
    #[must_use]
    pub fn worst_output(&self) -> GateId {
        self.circuit.worst_output
    }

    /// The circuit's worst delay: mean of the circuit output RV. For
    /// deterministic analyses this is exactly the longest nominal path.
    #[must_use]
    pub fn max_delay(&self) -> f64 {
        self.circuit.moments.mean
    }

    /// Traces the critical path from the worst output back to a primary
    /// input by the latest mean arrival, returned input-first — for a
    /// [`EngineKind::Dsta`] report, the deterministic critical
    /// (worst-slack) path. Contains cell gates only.
    #[must_use]
    pub fn critical_path(&self, netlist: &Netlist) -> Vec<GateId> {
        let mut path = Vec::new();
        let mut cursor = self.worst_output();
        loop {
            let g = netlist.gate(cursor);
            if g.is_input() {
                break;
            }
            path.push(cursor);
            let Some(&next) = g.fanins().iter().max_by(|a, b| {
                self.arrivals[a.index()]
                    .mean
                    .total_cmp(&self.arrivals[b.index()].mean)
            }) else {
                break;
            };
            cursor = next;
        }
        path.reverse();
        path
    }

    /// The electrical snapshot (loads, slews, delay moments) the analysis
    /// used.
    #[must_use]
    pub fn timing(&self) -> &CircuitTiming {
        &self.timing
    }

    /// Raw circuit-delay samples, for sampling engines.
    #[must_use]
    pub fn samples(&self) -> Option<&[f64]> {
        self.samples.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vartol_netlist::generators::{parity_tree, ripple_carry_adder};

    #[test]
    fn analyze_equals_each_engines_own_report() {
        let lib = Library::synthetic_90nm();
        let config = SstaConfig::default();
        let n = ripple_carry_adder(4, &lib);
        for kind in EngineKind::ALL {
            let report = kind.analyze(&lib, &config, &n);
            let own = match kind {
                EngineKind::Dsta => crate::Dsta::new(&lib, &config).analyze(&n),
                EngineKind::Fassta => crate::Fassta::new(&lib, &config).analyze(&n),
                EngineKind::FullSsta => crate::FullSsta::new(&lib, &config).analyze(&n),
                EngineKind::MonteCarlo => crate::MonteCarloTimer::new(&lib, &config)
                    .with_seed(0)
                    .analyze(&n, crate::DEFAULT_MC_SAMPLES),
            };
            assert_eq!(report, own, "{kind}");
            let bits = |r: &TimingReport| {
                let m = r.circuit_moments();
                (m.mean.to_bits(), m.var.to_bits())
            };
            assert_eq!(bits(&report), bits(&own), "{kind}");
            assert_eq!(report.kind(), kind, "{kind}");
            assert_eq!(report.arrivals().len(), n.node_count(), "{kind}");
            assert!(report.circuit_moments().mean > 0.0, "{kind}");
            assert!(n.is_output(report.worst_output()), "{kind}");
        }
    }

    #[test]
    fn pdf_presence_is_engine_specific() {
        let lib = Library::synthetic_90nm();
        let config = SstaConfig::default();
        let n = parity_tree(8, &lib);
        let o = n.outputs()[0];
        let full = EngineKind::FullSsta.analyze(&lib, &config, &n);
        assert!(full.circuit_pdf().is_some());
        assert!(full.arrival_pdf(o).is_some());
        let fast = EngineKind::Fassta.analyze(&lib, &config, &n);
        assert!(fast.circuit_pdf().is_none());
        assert!(fast.arrival_pdf(o).is_none());
        assert!(fast.samples().is_none());
    }

    #[test]
    fn engines_rank_by_fidelity_on_the_mean() {
        let lib = Library::synthetic_90nm();
        let config = SstaConfig::default();
        let n = ripple_carry_adder(6, &lib);
        let det = EngineKind::Dsta.analyze(&lib, &config, &n);
        let full = EngineKind::FullSsta.analyze(&lib, &config, &n);
        // Statistical mean of the max dominates the max of the means.
        assert!(full.circuit_moments().mean >= det.max_delay() - 1e-9);
        assert!(det.circuit_moments().var == 0.0);
    }

    #[test]
    fn only_monte_carlo_lacks_incremental_support() {
        for kind in EngineKind::ALL {
            assert_eq!(kind.supports_incremental(), kind != EngineKind::MonteCarlo);
        }
    }

    #[test]
    fn display_names_are_stable() {
        assert_eq!(EngineKind::FullSsta.to_string(), "fullssta");
        assert_eq!(EngineKind::Dsta.to_string(), "dsta");
    }
}
