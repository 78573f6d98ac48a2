//! # vartol-ssta
//!
//! Timing engines for statistical gate sizing, mirroring the paper's nested
//! architecture (§4) behind one unified API:
//!
//! * [`engine::EngineKind::analyze`] — the one front door: every engine
//!   analyzes a netlist into the same [`engine::TimingReport`] (per-node
//!   arrival moments, worst output, circuit moments, optional PDFs), and
//!   the kind picks which engine runs.
//! * [`session::TimingSession`] — the incremental API, an **owned
//!   handle**: the session holds an `Arc<Library>` and the netlist
//!   itself (no lifetime parameters), so it can live in structs, maps,
//!   and services. Resize gates and re-analyze only the affected fanout
//!   cone, with results identical to a from-scratch run. This is what
//!   the optimizers' inner loops and the `vartol::workspace` query
//!   service run on.
//!
//! The engines:
//!
//! * [`dsta::Dsta`] — deterministic static timing (nominal delays only),
//!   used by the mean-delay baseline optimizer and as a sanity anchor.
//! * [`fullssta::FullSsta`] — the accurate outer engine: discrete-PDF
//!   propagation (after Liou et al., DAC'01) at 10–15 samples per PDF,
//!   storing mean/variance at every node for the fast engine to consume.
//! * [`fassta::Fassta`] — the fast inner engine: moment-only propagation
//!   with the paper's max approximation (dominance shortcuts + quadratic
//!   erf), evaluating whole circuits or extracted subcircuits against
//!   stored boundary statistics.
//! * [`montecarlo::MonteCarloTimer`] — sampling-based golden reference,
//!   with deterministic parallel sampling: the budget splits into fixed
//!   chunks, each chunk draws from its own `(seed, chunk_index)`-derived
//!   RNG stream on a [`pool::ScopedPool`], and chunk summaries merge in
//!   chunk order — bit-identical results for any thread count
//!   ([`SstaConfig::threads`]).
//! * [`wnss`] — the Worst Negative Statistical Slack path tracer (§4.4):
//!   walks back from the statistically-worst output choosing the dominant
//!   input by the dominance test or finite-difference variance sensitivity.
//! * [`sequential`] — clocked timing on top of any engine's report:
//!   registers cut the graph into startpoints (Q pins, launched at the
//!   DFF's clk→Q delay) and endpoints (D pins and primary outputs),
//!   classified into the four path groups (in→reg, reg→reg, reg→out,
//!   in→out) with per-group setup slack, WNS, and TNS under a
//!   [`ClockConstraint`].
//!
//! All engines share the electrical model in [`delay`]: NLDM table delays
//! driven by fanout loads and nominal slews, widened into random variables
//! by the library's [`VariationModel`](vartol_liberty::VariationModel).
//!
//! On top of the per-gate model, [`variation`] supplies the **correlated**
//! process-variation model ([`variation::VariationModel`] on
//! [`SstaConfig::model`](config::SstaConfig)): die-to-die sources shared by
//! every gate and a spatially correlated within-die field (PCA-decomposed
//! via `vartol_stats::correlation`). The Monte-Carlo engine samples the
//! shared sources once per die; the analytic engines condition on them
//! with Gauss–Hermite lanes inside the shared propagation state, so
//! sessions and everything built on them stay incremental and
//! correlation-aware. The default (empty) model is bit-identical to the
//! independent legacy behavior. See the repo-root `README.md` and
//! `ARCHITECTURE.md` for the workspace-level picture.
//!
//! # Example
//!
//! ```
//! use vartol_liberty::Library;
//! use vartol_netlist::generators::ripple_carry_adder;
//! use vartol_ssta::{SstaConfig, TimingSession};
//!
//! let lib = Library::synthetic_90nm();
//! let netlist = ripple_carry_adder(8, &lib);
//!
//! // A session owns everything the analysis needs across edits.
//! let mut session = TimingSession::new(&lib, SstaConfig::default(), netlist);
//! let before = session.refresh();
//!
//! // Resize one gate; the refresh only revisits its fanout cone.
//! let gate = session.netlist().gate_ids().next().unwrap();
//! session.resize(gate, 5);
//! let after = session.refresh();
//!
//! assert_ne!(before, after);
//! // The incremental result matches a from-scratch engine run exactly.
//! let scratch = session.report(vartol_ssta::EngineKind::FullSsta);
//! assert_eq!(after, scratch.circuit_moments());
//! ```

pub mod config;
pub mod criticality;
pub mod delay;
pub mod dsta;
pub mod engine;
pub mod fassta;
pub mod fingerprint;
pub mod fullssta;
pub mod montecarlo;
pub mod optimize;
pub mod pool;
pub mod sequential;
pub mod session;
pub mod slack;
mod state;
pub mod variation;
pub mod wnss;

pub use config::{CorrelationMode, SstaConfig};
pub use criticality::Criticality;
pub use delay::CircuitTiming;
pub use dsta::Dsta;
pub use engine::{EngineKind, TimingReport};
pub use fassta::Fassta;
pub use fingerprint::{config_fingerprint, fingerprint_bytes, size_fingerprint, Fnv64};
pub use fullssta::FullSsta;
pub use montecarlo::{
    MonteCarloResult, MonteCarloTimer, YieldCount, DEFAULT_MC_SAMPLES, MC_CHUNK_SAMPLES,
};
pub use optimize::{
    AnnealingConfig, AnnealingSizer, LagrangianConfig, LagrangianSizer, Objective, OptimizerKind,
    Sizer, SizingOutcome, SizingPass,
};
pub use pool::ScopedPool;
pub use sequential::{ClockConstraint, GroupTiming, PathGroup, SequentialTiming};
pub use session::{BranchError, TimingSession};
pub use slack::StatisticalSlacks;
pub use variation::{GlobalSource, SpatialGrid, VariationContext, VariationModel};
pub use wnss::WnssTracer;
