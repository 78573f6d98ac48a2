//! A concurrent multi-circuit timing/sizing query service.
//!
//! [`Workspace`] is the batched front door the owned-handle session API
//! was built for: register any number of named circuits (parsed `.bench`
//! text, generator presets, or pre-built [`Netlist`]s), then submit
//! batches of typed [`Request`]s — analyses under any engine, arrival /
//! slack / criticality queries, Monte-Carlo yield at a deadline, what-if
//! resizes, and full sizing runs — and get [`Answer`]s back **in request
//! order**.
//!
//! # Concurrency and determinism
//!
//! Each registered circuit owns one long-lived cached
//! [`TimingSession`] (the owned handle — no lifetimes, so it survives in
//! the workspace across batches). A batch fans out over a
//! [`ScopedPool`]: one task per circuit, each task working through that
//! circuit's requests sequentially on its cached session. Requests for
//! different circuits run concurrently; requests for the same circuit
//! are serialized in submission order (a later request observes an
//! earlier resize or sizing run on the same circuit — the service is a
//! sequentially-consistent per-circuit log). Because per-circuit
//! processing is sequential and the pool returns results in task order,
//! every [`Answer`] is **bit-identical for every thread count** — the
//! same frozen-snapshot discipline the parallel Monte-Carlo engine and
//! the parallel sizer ship. Wall-clock lives on [`Response`], outside
//! the deterministic payload.
//!
//! # Fault isolation
//!
//! Malformed requests (unknown circuit or node, out-of-range size,
//! non-finite targets) are rejected up front through the netlist's
//! non-panicking `try_*` accessors and answered with [`Answer::Error`].
//! A request that still panics deep inside an engine is caught, answered
//! with [`Answer::Error`], and the circuit's session is restored to its
//! last good sizes and rebuilt from scratch — one poisoned query never
//! takes down the batch, the circuit, or the service.
//!
//! # Example
//!
//! ```
//! use vartol::ssta::EngineKind;
//! use vartol::workspace::{Answer, Request, Workspace, WorkspaceConfig};
//! use vartol::liberty::Library;
//!
//! let mut ws = Workspace::new(Library::synthetic_90nm(), WorkspaceConfig::default());
//! ws.register_preset("adder_8").unwrap();
//! ws.register_preset("cmp_8").unwrap();
//!
//! let answers = ws.submit(&[
//!     Request::Analyze { circuit: "adder_8".into(), kind: EngineKind::FullSsta },
//!     Request::Slack { circuit: "cmp_8".into(), t_req: 1e4, alpha: 3.0 },
//!     Request::Analyze { circuit: "nope".into(), kind: EngineKind::Dsta },
//! ]);
//! assert!(matches!(answers[0].answer, Answer::Analysis { .. }));
//! assert!(matches!(answers[1].answer, Answer::Slack { .. }));
//! assert!(matches!(answers[2].answer, Answer::Error { .. })); // isolated
//! ```

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use vartol_core::{MeanDelaySizer, OptimizationReport, PassStats, SizerConfig, StatisticalGreedy};
use vartol_liberty::Library;
use vartol_netlist::generators::preset;
use vartol_netlist::iscas::parse_bench;
use vartol_netlist::{GateId, Netlist, NetlistError};
use vartol_ssta::{
    AnnealingConfig, AnnealingSizer, ClockConstraint, EngineKind, LagrangianConfig,
    LagrangianSizer, MonteCarloTimer, Objective, OptimizerKind, ScopedPool, SequentialTiming,
    Sizer, SizingOutcome, SstaConfig, TimingSession, VariationModel,
};
use vartol_stats::Moments;

/// Knobs of a [`Workspace`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct WorkspaceConfig {
    /// Shared engine configuration used by every cached session.
    pub ssta: SstaConfig,
    /// Pool width for batch fan-out across circuits (0 = one worker per
    /// CPU). Purely a speed knob: answers are bit-identical for every
    /// width.
    pub threads: usize,
    /// Monte-Carlo sample budget for [`Request::Yield`] and
    /// [`Request::Analyze`] with [`EngineKind::MonteCarlo`]. Below 2,
    /// those requests answer [`ErrorCode::InvalidParameter`].
    pub mc_samples: usize,
    /// Monte-Carlo seed (fixed so answers are reproducible).
    pub mc_seed: u64,
}

impl Default for WorkspaceConfig {
    fn default() -> Self {
        Self {
            ssta: SstaConfig::default(),
            threads: 0,
            mc_samples: 2000,
            mc_seed: 0xDA7E_2005,
        }
    }
}

impl WorkspaceConfig {
    /// Sets the batch fan-out pool width (0 = all CPUs).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the shared engine configuration.
    #[must_use]
    pub fn with_ssta(mut self, ssta: SstaConfig) -> Self {
        self.ssta = ssta;
        self
    }

    /// Sets the Monte-Carlo sample budget.
    #[must_use]
    pub fn with_mc_samples(mut self, samples: usize) -> Self {
        self.mc_samples = samples;
        self
    }

    /// Sets the Monte-Carlo seed.
    #[must_use]
    pub fn with_mc_seed(mut self, seed: u64) -> Self {
        self.mc_seed = seed;
        self
    }
}

/// Errors arising while registering circuits with a [`Workspace`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum WorkspaceError {
    /// A circuit with this name is already registered.
    DuplicateCircuit(String),
    /// No generator preset with this name exists.
    UnknownPreset(String),
    /// The netlist failed structural or library validation.
    InvalidNetlist(NetlistError),
    /// A `.bench` file could not be read.
    Io(String),
    /// Building the circuit's session panicked (the message names the
    /// circuit); the circuit was not registered.
    Panic(String),
}

impl std::fmt::Display for WorkspaceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::DuplicateCircuit(n) => write!(f, "circuit `{n}` is already registered"),
            Self::UnknownPreset(n) => write!(f, "unknown generator preset `{n}`"),
            Self::InvalidNetlist(e) => write!(f, "invalid netlist: {e}"),
            Self::Io(e) => write!(f, "{e}"),
            Self::Panic(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for WorkspaceError {}

impl From<NetlistError> for WorkspaceError {
    fn from(e: NetlistError) -> Self {
        Self::InvalidNetlist(e)
    }
}

impl WorkspaceError {
    /// The stable machine-readable code for this error (the same code
    /// the serve wire protocol carries).
    #[must_use]
    pub fn code(&self) -> ErrorCode {
        match self {
            Self::DuplicateCircuit(_) => ErrorCode::DuplicateCircuit,
            Self::UnknownPreset(_) => ErrorCode::UnknownPreset,
            Self::InvalidNetlist(_) => ErrorCode::InvalidNetlist,
            Self::Io(_) => ErrorCode::Io,
            Self::Panic(_) => ErrorCode::Panic,
        }
    }
}

/// Stable machine-readable failure codes carried by [`Answer::Error`]
/// (and, through it, by the serve wire protocol's typed error payload).
///
/// Every boundary-validation failure maps to a distinct code; the
/// human-readable message travels next to the code, never instead of it.
/// The kebab-case wire form comes from [`ErrorCode::as_str`] and is part
/// of the protocol contract — codes may be added, never renamed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
#[non_exhaustive]
pub enum ErrorCode {
    /// The request addressed a circuit name that is not registered.
    UnknownCircuit,
    /// The circuit has no node with the requested name.
    UnknownNode,
    /// The circuit has no gate with the requested name.
    UnknownGate,
    /// The named node is a primary input, which has no size to change.
    InputNotSizable,
    /// The size index falls outside the gate's library cell group.
    SizeOutOfRange,
    /// The library has no cell group for the gate's function/arity.
    NoCellGroup,
    /// A numeric parameter was non-finite or out of domain.
    InvalidParameter,
    /// The correlated variation model failed validation.
    InvalidModel,
    /// The netlist rejected the mutation (structural/library validation).
    InvalidNetlist,
    /// A circuit with this name is already registered.
    DuplicateCircuit,
    /// No generator preset with this name exists.
    UnknownPreset,
    /// A `.bench` file could not be read.
    Io,
    /// The circuit has no branch with the requested name.
    UnknownBranch,
    /// A branch with this name already exists on the circuit.
    DuplicateBranch,
    /// The branch could not be committed (parent diverged since fork,
    /// pending parent resizes, or a foreign circuit).
    BranchConflict,
    /// Evaluation panicked; the circuit's session was recovered and any
    /// branch the request named was dropped. For a registration, the
    /// initial analysis panicked and the circuit was not registered.
    Panic,
    /// The request itself was malformed at the protocol boundary.
    BadRequest,
    /// A sequential query needs a clock, but the circuit has none set.
    NoClock,
}

impl ErrorCode {
    /// The stable kebab-case wire form of the code.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::UnknownCircuit => "unknown-circuit",
            Self::UnknownNode => "unknown-node",
            Self::UnknownGate => "unknown-gate",
            Self::InputNotSizable => "input-not-sizable",
            Self::SizeOutOfRange => "size-out-of-range",
            Self::NoCellGroup => "no-cell-group",
            Self::InvalidParameter => "invalid-parameter",
            Self::InvalidModel => "invalid-model",
            Self::InvalidNetlist => "invalid-netlist",
            Self::DuplicateCircuit => "duplicate-circuit",
            Self::UnknownPreset => "unknown-preset",
            Self::Io => "io",
            Self::UnknownBranch => "unknown-branch",
            Self::DuplicateBranch => "duplicate-branch",
            Self::BranchConflict => "branch-conflict",
            Self::Panic => "panic",
            Self::BadRequest => "bad-request",
            Self::NoClock => "no-clock",
        }
    }

    /// Parses the kebab-case wire form back into a code.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "unknown-circuit" => Self::UnknownCircuit,
            "unknown-node" => Self::UnknownNode,
            "unknown-gate" => Self::UnknownGate,
            "input-not-sizable" => Self::InputNotSizable,
            "size-out-of-range" => Self::SizeOutOfRange,
            "no-cell-group" => Self::NoCellGroup,
            "invalid-parameter" => Self::InvalidParameter,
            "invalid-model" => Self::InvalidModel,
            "invalid-netlist" => Self::InvalidNetlist,
            "duplicate-circuit" => Self::DuplicateCircuit,
            "unknown-preset" => Self::UnknownPreset,
            "io" => Self::Io,
            "unknown-branch" => Self::UnknownBranch,
            "duplicate-branch" => Self::DuplicateBranch,
            "branch-conflict" => Self::BranchConflict,
            "panic" => Self::Panic,
            "bad-request" => Self::BadRequest,
            "no-clock" => Self::NoClock,
            _ => return None,
        })
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One typed query against a registered circuit.
///
/// All requests address circuits (and gates) **by name**, so a batch can
/// be built, serialized, or replayed without holding any handle into the
/// workspace.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Request {
    /// Run a full analysis under the given engine and report circuit
    /// moments plus the statistically-worst output.
    Analyze {
        /// Target circuit name.
        circuit: String,
        /// Engine to run. The cached incremental session serves its own
        /// flavor ([`EngineKind::FullSsta`]) without a from-scratch pass.
        kind: EngineKind,
    },
    /// Run a full analysis under an explicit correlated variation model
    /// (die-to-die sources and/or a spatial grid —
    /// [`vartol_ssta::variation`]) **without touching the circuit's
    /// cached session**: the engine runs from scratch with the model
    /// swapped into the workspace's engine configuration. This is the
    /// correlated-corner query: the same circuit can be analyzed under
    /// any number of models in one batch, and the default-model cache
    /// stays warm and bit-identical.
    AnalyzeUnder {
        /// Target circuit name.
        circuit: String,
        /// Engine to run (all four supported; Monte Carlo samples the
        /// shared sources per die under the workspace budget and seed).
        kind: EngineKind,
        /// The correlated variation model to analyze under. Validated
        /// before anything runs; an invalid model answers
        /// [`Answer::Error`].
        model: VariationModel,
    },
    /// Arrival moments at one named node.
    Arrival {
        /// Target circuit name.
        circuit: String,
        /// Node name (as in the `.bench` source or generator).
        node: String,
    },
    /// Worst statistical slack against a required time at every output.
    Slack {
        /// Target circuit name.
        circuit: String,
        /// Required time imposed on every primary output (ps).
        t_req: f64,
        /// σ weight of the `μ − α·σ` slack ranking.
        alpha: f64,
    },
    /// The most statistically critical nodes.
    Criticality {
        /// Target circuit name.
        circuit: String,
        /// How many top-ranked nodes to return (0 = all).
        top: usize,
    },
    /// Parametric yield at a deadline, by deterministic parallel Monte
    /// Carlo under the workspace's sample budget and seed.
    Yield {
        /// Target circuit name.
        circuit: String,
        /// Clock period / deadline (ps).
        deadline: f64,
    },
    /// What-if resize of one named gate; the mutation persists for later
    /// requests on the same circuit (and later batches).
    Resize {
        /// Target circuit name.
        circuit: String,
        /// Gate name.
        gate: String,
        /// New size index into the gate's library cell group.
        size: usize,
    },
    /// Full statistical sizing of the circuit; the optimized sizes
    /// persist for later requests on the same circuit.
    Size {
        /// Target circuit name.
        circuit: String,
        /// Optimizer configuration (σ weight, pass budget, threads, …).
        config: SizerConfig,
        /// Which sizing method runs the request
        /// ([`OptimizerKind::Greedy`] reproduces the pre-selector
        /// behavior). `config.max_passes` bounds the greedy and
        /// Lagrangian outer loops; the annealing schedule comes from
        /// [`vartol_ssta::AnnealingConfig`] defaults.
        optimizer: OptimizerKind,
        /// Optimize the timing yield `P(delay ≤ deadline)` under the
        /// configured variation model instead of `μ + α·σ`. Only the
        /// global optimizers (`lagrangian`, `annealing`) accept this.
        yield_deadline: Option<f64>,
    },
    /// Fork a named branch of the circuit: a private copy of the
    /// circuit's cached session at its current sizes. It persists across
    /// batches until committed or dropped.
    Fork {
        /// Target circuit name.
        circuit: String,
        /// Name for the new branch (unique per circuit).
        branch: String,
    },
    /// What-if resize of one gate **on a named branch**: the circuit's
    /// cached session (and every other branch) is untouched.
    BranchResize {
        /// Target circuit name.
        circuit: String,
        /// Branch name (from [`Request::Fork`]).
        branch: String,
        /// Gate name.
        gate: String,
        /// New size index into the gate's library cell group.
        size: usize,
    },
    /// Analyze a named branch: recomputes only the fanout cone of the
    /// gates resized since the branch's last analysis, bit-identical to a
    /// from-scratch analysis.
    BranchAnalyze {
        /// Target circuit name.
        circuit: String,
        /// Branch name.
        branch: String,
    },
    /// Commit a named branch back into the circuit: the branch is
    /// analyzed if it has pending resizes, then the session takes over
    /// its sizes and analysis. Remaining sibling branches stay readable
    /// but can no longer commit (their fork point is stale).
    Commit {
        /// Target circuit name.
        circuit: String,
        /// Branch name; consumed on success.
        branch: String,
    },
    /// Discard a named branch. The circuit is untouched.
    DropBranch {
        /// Target circuit name.
        circuit: String,
        /// Branch name.
        branch: String,
    },
    /// Evaluate N independent what-if trials as anonymous branches of
    /// one circuit, fanned out in parallel over the workspace pool —
    /// answers in trial order, bit-identical at every pool width. Each
    /// worker forks one branch and undoes every trial on it, so a trial
    /// re-times only its own resizes; the circuit is left untouched.
    WhatIfBatch {
        /// Target circuit name.
        circuit: String,
        /// The divergent trials to evaluate.
        trials: Vec<WhatIfTrial>,
    },
    /// Constrain the circuit under a clock. Persists for later requests
    /// on the same circuit (and later batches); re-issuing replaces the
    /// constraint. Required before any [`Request::GroupSlack`],
    /// [`Request::Wns`], or [`Request::Tns`] query.
    SetClock {
        /// Target circuit name.
        circuit: String,
        /// Clock period (ps). Must be finite and positive.
        period: f64,
        /// Clock uncertainty subtracted from the period (ps). Must be
        /// finite, non-negative, and below the period.
        uncertainty: f64,
    },
    /// Per-path-group setup slack (in→reg, reg→reg, reg→out, in→out)
    /// under the circuit's clock, from any engine's report.
    GroupSlack {
        /// Target circuit name.
        circuit: String,
        /// Engine whose arrival report the slack folds over.
        kind: EngineKind,
    },
    /// Worst negative setup slack over every endpoint (registers' D pins
    /// and primary outputs) under the circuit's clock.
    Wns {
        /// Target circuit name.
        circuit: String,
        /// Engine whose arrival report the slack folds over.
        kind: EngineKind,
    },
    /// Total negative setup slack (sum of negative endpoint slacks)
    /// under the circuit's clock.
    Tns {
        /// Target circuit name.
        circuit: String,
        /// Engine whose arrival report the slack folds over.
        kind: EngineKind,
    },
}

/// One speculative trial of [`Request::WhatIfBatch`]: a set of gate
/// resizes applied to a fresh branch of the circuit's current state.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct WhatIfTrial {
    /// Gate resizes defining the trial's divergence, applied in order.
    pub resizes: Vec<GateResize>,
}

/// One `(gate, size)` element of a [`WhatIfTrial`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct GateResize {
    /// Gate name.
    pub gate: String,
    /// New size index into the gate's library cell group.
    pub size: usize,
}

impl Request {
    /// The name of the circuit this request addresses.
    #[must_use]
    pub fn circuit(&self) -> &str {
        match self {
            Self::Analyze { circuit, .. }
            | Self::AnalyzeUnder { circuit, .. }
            | Self::Arrival { circuit, .. }
            | Self::Slack { circuit, .. }
            | Self::Criticality { circuit, .. }
            | Self::Yield { circuit, .. }
            | Self::Resize { circuit, .. }
            | Self::Size { circuit, .. }
            | Self::Fork { circuit, .. }
            | Self::BranchResize { circuit, .. }
            | Self::BranchAnalyze { circuit, .. }
            | Self::Commit { circuit, .. }
            | Self::DropBranch { circuit, .. }
            | Self::WhatIfBatch { circuit, .. }
            | Self::SetClock { circuit, .. }
            | Self::GroupSlack { circuit, .. }
            | Self::Wns { circuit, .. }
            | Self::Tns { circuit, .. } => circuit,
        }
    }
}

/// The deterministic payload of one answered [`Request`].
///
/// Equality is exact (f64 `PartialEq`), which is what the determinism
/// contract asserts: the same batch produces `==` answers at every pool
/// width. Wall-clock lives on [`Response`], not here.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Answer {
    /// Result of [`Request::Analyze`].
    Analysis {
        /// The engine that ran.
        kind: EngineKind,
        /// Circuit-level output moments.
        moments: Moments,
        /// Name of the statistically-worst primary output.
        worst_output: String,
    },
    /// Result of [`Request::Arrival`].
    Arrival {
        /// The queried node.
        node: String,
        /// Its arrival moments.
        moments: Moments,
    },
    /// Result of [`Request::Slack`].
    Slack {
        /// The worst statistical slack `min over nodes of μ − α·σ` (ps).
        worst: f64,
        /// Name of the node realizing it.
        worst_node: String,
    },
    /// Result of [`Request::Criticality`].
    Criticality {
        /// `(node name, criticality)` pairs, most critical first.
        ranking: Vec<(String, f64)>,
    },
    /// Result of [`Request::Yield`].
    Yield {
        /// Fraction of Monte-Carlo samples meeting the deadline.
        fraction: f64,
    },
    /// Result of [`Request::Resize`].
    Resized {
        /// Circuit moments after the incremental cone refresh.
        moments: Moments,
        /// Total cell area after the resize.
        area: f64,
    },
    /// Result of [`Request::Size`].
    Sized {
        /// The optimizer's full report (equality ignores its runtime).
        /// What a pass row holds depends on the optimizer:
        ///
        /// * greedy — one row per pass, `pass` 0-based, moments and
        ///   area at the start of the pass;
        /// * Lagrangian — one row per outer iteration (plus one for the
        ///   final polish sweep if it moved gates), `pass` 1-based,
        ///   moments and area at the end of the iteration;
        /// * annealing — one row per restart, `pass` 1-based, moments
        ///   and area of the restart's end state;
        /// * mean-delay — a single row whose `pass` is the total pass
        ///   count, with the final moments and area and `resized` the
        ///   gates whose size differs from the input.
        ///
        /// For the global optimizers the `cost` column is the
        /// optimizer's own objective value.
        report: Box<OptimizationReport>,
        /// Circuit moments of the sized circuit, from the cached
        /// session's refresh: what the next [`Request::Analyze`] with
        /// [`EngineKind::FullSsta`] answers. (The report's own final
        /// moments are the optimizer's view, which for a sequential
        /// circuit covers every timing endpoint.)
        moments: Moments,
        /// How many gates the run left at a size other than their
        /// size before it.
        resized: usize,
        /// Total cell area after sizing.
        area: f64,
        /// The optimizer that ran.
        optimizer: OptimizerKind,
    },
    /// Result of [`Request::Fork`].
    Forked {
        /// The new branch's name.
        branch: String,
        /// Size fingerprint of the fork point the branch started from.
        fingerprint: u64,
    },
    /// Result of [`Request::BranchResize`] — deliberately cheap: no
    /// timing runs until [`Request::BranchAnalyze`].
    BranchResized {
        /// The branch.
        branch: String,
        /// How many gates now differ from the fork point.
        diverged: usize,
    },
    /// Result of [`Request::BranchAnalyze`] (and each successful
    /// [`Request::WhatIfBatch`] trial).
    BranchAnalysis {
        /// The branch (or `trial-<i>` for what-if trials).
        branch: String,
        /// Circuit moments at the branch's sizes — bit-identical to a
        /// from-scratch analysis of the same sizes.
        moments: Moments,
        /// Total cell area at the branch's sizes.
        area: f64,
    },
    /// Result of [`Request::Commit`].
    Committed {
        /// The committed (consumed) branch.
        branch: String,
        /// Circuit moments after adoption.
        moments: Moments,
        /// Total cell area after adoption.
        area: f64,
    },
    /// Result of [`Request::DropBranch`].
    Dropped {
        /// The discarded branch.
        branch: String,
    },
    /// Result of [`Request::WhatIfBatch`]: one entry per trial, in trial
    /// order — [`Answer::BranchAnalysis`] on success, [`Answer::Error`]
    /// for a trial that failed validation or panicked (other trials are
    /// unaffected).
    WhatIf {
        /// Per-trial outcomes.
        outcomes: Vec<Answer>,
    },
    /// Result of [`Request::SetClock`].
    ClockSet {
        /// The accepted clock period (ps).
        period: f64,
        /// The accepted clock uncertainty (ps).
        uncertainty: f64,
    },
    /// Result of [`Request::GroupSlack`]: one row per path group, in
    /// the canonical [`PathGroup::ALL`](vartol_ssta::PathGroup::ALL)
    /// order.
    GroupSlack {
        /// The engine that produced the arrival report.
        kind: EngineKind,
        /// Per-group setup-slack rows (always all four groups).
        groups: Vec<GroupSlackRow>,
    },
    /// Result of [`Request::Wns`].
    Wns {
        /// The engine that produced the arrival report.
        kind: EngineKind,
        /// Worst (minimum) mean setup slack over every endpoint (ps).
        wns: f64,
    },
    /// Result of [`Request::Tns`].
    Tns {
        /// The engine that produced the arrival report.
        kind: EngineKind,
        /// Sum of negative mean endpoint slacks (ps, `<= 0`).
        tns: f64,
    },
    /// The request was malformed or its evaluation panicked; the rest of
    /// the batch (and the circuit's session) is unaffected.
    Error {
        /// Stable machine-readable failure code.
        code: ErrorCode,
        /// Human-readable cause.
        message: String,
    },
}

/// One path group's setup-slack summary inside [`Answer::GroupSlack`] —
/// the wire-friendly (name-resolved, null-free) projection of
/// [`vartol_ssta::GroupTiming`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct GroupSlackRow {
    /// Stable group name (`in2reg`, `reg2reg`, `reg2out`, `in2out`).
    pub group: String,
    /// Number of endpoints classified into the group.
    pub endpoints: usize,
    /// Worst (minimum) mean setup slack over the group's endpoints; an
    /// empty group reports the full clock budget.
    pub wns: f64,
    /// Sum of negative mean slacks (0 when every endpoint meets timing).
    pub tns: f64,
    /// Minimum over endpoints of `P(arrival ≤ required)`; deterministic
    /// engines degrade to a 0/1 step, empty groups report 1.
    pub prob_met: f64,
    /// Name of the endpoint realizing `wns` (empty for an empty group).
    pub worst: String,
}

impl Answer {
    fn error(code: ErrorCode, message: impl Into<String>) -> Self {
        Self::Error {
            code,
            message: message.into(),
        }
    }
}

/// One answered request: the deterministic [`Answer`] plus the wall-clock
/// the evaluation took (excluded from equality and from the determinism
/// contract).
#[derive(Debug, Clone)]
pub struct Response {
    /// The deterministic payload.
    pub answer: Answer,
    /// Evaluation wall-clock.
    pub wall: Duration,
}

/// One registered circuit: its cached owned-handle session plus its
/// live named branches (forks of that session) and lifetime branch
/// counters.
#[derive(Debug)]
struct CircuitEntry {
    name: String,
    session: TimingSession,
    branches: BTreeMap<String, TimingSession>,
    committed: u64,
    dropped: u64,
    clock: Option<ClockConstraint>,
}

/// A registry of named circuits serving concurrent timing and sizing
/// query batches (see the [module docs](self)).
#[derive(Debug)]
pub struct Workspace {
    library: Arc<Library>,
    config: WorkspaceConfig,
    entries: Vec<CircuitEntry>,
    index: BTreeMap<String, usize>,
}

impl Workspace {
    /// Creates an empty workspace over a library. Accepts an
    /// `Arc<Library>`, an owned `Library`, or a `&Library` (cloned once).
    #[must_use]
    pub fn new(library: impl Into<Arc<Library>>, config: WorkspaceConfig) -> Self {
        Self {
            library: library.into(),
            config,
            entries: Vec::new(),
            index: BTreeMap::new(),
        }
    }

    /// The workspace configuration.
    #[must_use]
    pub fn config(&self) -> &WorkspaceConfig {
        &self.config
    }

    /// A shared handle to the workspace's library.
    #[must_use]
    pub fn library(&self) -> Arc<Library> {
        Arc::clone(&self.library)
    }

    /// Number of registered circuits.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no circuits are registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Registered circuit names, in registration order.
    pub fn circuit_names(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|e| e.name.as_str())
    }

    /// The current netlist of a registered circuit (reflecting any
    /// committed resizes and sizing runs).
    #[must_use]
    pub fn netlist(&self, name: &str) -> Option<&Netlist> {
        let &i = self.index.get(name)?;
        Some(self.entries[i].session.netlist())
    }

    /// The level count of a registered circuit's propagation schedule —
    /// the serial depth of the level-ordered arena, whose per-level
    /// width is what parallel propagation fans out over (see
    /// [`TimingSession::propagation_levels`]).
    #[must_use]
    pub fn propagation_levels(&self, name: &str) -> Option<usize> {
        let &i = self.index.get(name)?;
        Some(self.entries[i].session.propagation_levels())
    }

    /// The size fingerprint of a named branch of a registered circuit —
    /// the key speculative results are cached under (a branch's answers
    /// depend only on library, configuration, structure, and its own
    /// sizes, never on the parent it forked from).
    #[must_use]
    pub fn branch_fingerprint(&self, circuit: &str, branch: &str) -> Option<u64> {
        let &i = self.index.get(circuit)?;
        Some(self.entries[i].branches.get(branch)?.size_fingerprint())
    }

    /// Names of the live branches of a registered circuit, sorted.
    #[must_use]
    pub fn branch_names(&self, circuit: &str) -> Option<Vec<String>> {
        let &i = self.index.get(circuit)?;
        Some(self.entries[i].branches.keys().cloned().collect())
    }

    /// Lifetime branch counters over all circuits:
    /// `(live, committed, dropped)`.
    #[must_use]
    pub fn branch_counters(&self) -> (u64, u64, u64) {
        let mut live = 0u64;
        let mut committed = 0u64;
        let mut dropped = 0u64;
        for e in &self.entries {
            live += e.branches.len() as u64;
            committed += e.committed;
            dropped += e.dropped;
        }
        (live, committed, dropped)
    }

    /// Registers a pre-built netlist under a name. This is the expensive
    /// step — the circuit's cached session runs its initial full
    /// analysis here — so that queries against it are cheap.
    ///
    /// # Errors
    ///
    /// Rejects duplicate names and netlists that fail structural or
    /// library validation (the non-panicking counterpart of the
    /// panics engines raise on unknown cells). A panic inside the
    /// initial analysis is contained like one inside [`Workspace::query`]:
    /// it answers [`WorkspaceError::Panic`] and registers nothing.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        netlist: Netlist,
    ) -> Result<(), WorkspaceError> {
        let name = name.into();
        if self.index.contains_key(&name) {
            return Err(WorkspaceError::DuplicateCircuit(name));
        }
        netlist.check_invariants()?;
        netlist.validate_against_library(&self.library)?;
        let session = catch_unwind(AssertUnwindSafe(|| {
            TimingSession::with_kind(
                Arc::clone(&self.library),
                self.config.ssta.clone(),
                netlist,
                EngineKind::FullSsta,
            )
        }))
        .map_err(|payload| {
            WorkspaceError::Panic(format!(
                "registering `{name}` panicked: {}",
                panic_message(payload.as_ref())
            ))
        })?;
        self.index.insert(name.clone(), self.entries.len());
        self.entries.push(CircuitEntry {
            name,
            session,
            branches: BTreeMap::new(),
            committed: 0,
            dropped: 0,
            clock: None,
        });
        Ok(())
    }

    /// Registers a generator preset (see
    /// [`vartol_netlist::generators::presets`]) under its preset name.
    ///
    /// # Errors
    ///
    /// Rejects unknown preset names and duplicates.
    pub fn register_preset(&mut self, name: &str) -> Result<(), WorkspaceError> {
        let netlist = preset(name, &self.library)
            .ok_or_else(|| WorkspaceError::UnknownPreset(name.into()))?;
        self.register(name, netlist)
    }

    /// Parses ISCAS-85 `.bench` text and registers it under `name`.
    ///
    /// # Errors
    ///
    /// Rejects parse failures, validation failures, and duplicates.
    pub fn register_bench_str(&mut self, name: &str, text: &str) -> Result<(), WorkspaceError> {
        let netlist = parse_bench(text, name)?;
        self.register(name, netlist)
    }

    /// The clock constraint of a registered circuit, if one has been
    /// set via [`Request::SetClock`].
    #[must_use]
    pub fn clock(&self, circuit: &str) -> Option<ClockConstraint> {
        let &i = self.index.get(circuit)?;
        self.entries[i].clock
    }

    /// Loads a `.bench` file and registers it under its file stem.
    ///
    /// # Errors
    ///
    /// Rejects unreadable paths, parse failures, validation failures,
    /// and duplicates.
    pub fn register_bench_file(
        &mut self,
        path: impl AsRef<std::path::Path>,
    ) -> Result<(), WorkspaceError> {
        let path = path.as_ref();
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .ok_or_else(|| WorkspaceError::Io(format!("{}: unreadable file name", path.display())))?
            .to_owned();
        let text = std::fs::read_to_string(path)
            .map_err(|e| WorkspaceError::Io(format!("{}: {e}", path.display())))?;
        self.register_bench_str(&stem, &text)
    }

    /// Answers a single request (a one-element [`Workspace::submit`]).
    pub fn query(&mut self, request: Request) -> Response {
        self.submit(std::slice::from_ref(&request))
            .pop()
            .expect("one request, one response")
    }

    /// Answers a batch of requests, returning responses **in request
    /// order**, bit-identical for every pool width (see the
    /// [module docs](self) for the concurrency and isolation contract).
    pub fn submit(&mut self, requests: &[Request]) -> Vec<Response> {
        // Route requests to circuits; unknown circuits answer here.
        let mut routed: Vec<Vec<usize>> = vec![Vec::new(); self.entries.len()];
        let mut responses: Vec<Option<Response>> = requests.iter().map(|_| None).collect();
        for (ri, request) in requests.iter().enumerate() {
            match self.index.get(request.circuit()) {
                Some(&ci) => routed[ci].push(ri),
                None => {
                    responses[ri] = Some(Response {
                        answer: Answer::error(
                            ErrorCode::UnknownCircuit,
                            format!("unknown circuit `{}`", request.circuit()),
                        ),
                        wall: Duration::ZERO,
                    });
                }
            }
        }

        // Take the sessions out of the workspace and fan out: one task
        // per circuit with work, each processing its requests in
        // submission order on the circuit's cached session.
        let mut slots: Vec<Option<CircuitEntry>> = std::mem::take(&mut self.entries)
            .into_iter()
            .map(Some)
            .collect();
        let work: Vec<(usize, CircuitEntry, Vec<usize>)> = routed
            .into_iter()
            .enumerate()
            .filter(|(_, reqs)| !reqs.is_empty())
            .map(|(ci, reqs)| {
                let entry = slots[ci].take().expect("each circuit taken once");
                (ci, entry, reqs)
            })
            .collect();

        let library = Arc::clone(&self.library);
        let config = self.config.clone();
        let pool = ScopedPool::new(self.config.threads);
        let done = pool.map_items(work, |_, (ci, mut entry, reqs)| {
            let answered: Vec<(usize, Response)> = reqs
                .into_iter()
                .map(|ri| (ri, process(&library, &config, &mut entry, &requests[ri])))
                .collect();
            (ci, entry, answered)
        });

        for (ci, entry, answered) in done {
            slots[ci] = Some(entry);
            for (ri, response) in answered {
                responses[ri] = Some(response);
            }
        }
        self.entries = slots
            .into_iter()
            .map(|s| s.expect("every circuit restored"))
            .collect();
        responses
            .into_iter()
            .map(|r| r.expect("every request answered"))
            .collect()
    }
}

/// Evaluates one request on one circuit entry, timing it and containing
/// panics: a panicking evaluation yields [`Answer::Error`], the session
/// is restored to the sizes it had before the request and rebuilt from
/// scratch, and the branch a branch verb named is dropped, so the entry
/// stays serviceable.
fn process(
    library: &Arc<Library>,
    config: &WorkspaceConfig,
    entry: &mut CircuitEntry,
    request: &Request,
) -> Response {
    let t0 = Instant::now();
    let sizes_before = entry.session.sizes();
    let result = catch_unwind(AssertUnwindSafe(|| answer(library, config, entry, request)));
    let answer = result.unwrap_or_else(|payload| {
        // The session may hold half-updated analysis state; roll the
        // netlist back to its last good sizes and rebuild. Those sizes
        // analyzed fine before this request, so the rebuild succeeds.
        let _ = entry.session.try_restore_sizes(&sizes_before);
        entry.session.rebuild();
        // A branch updates its own state in place, so a panic inside a
        // branch verb may have left it half-refreshed: drop it.
        let mut recovered = format!("circuit `{}` recovered", entry.name);
        if let Request::BranchResize { branch, .. }
        | Request::BranchAnalyze { branch, .. }
        | Request::Commit { branch, .. } = request
        {
            if entry.branches.remove(branch).is_some() {
                entry.dropped += 1;
                recovered.push_str(&format!(", branch `{branch}` dropped"));
            }
        }
        Answer::error(
            ErrorCode::Panic,
            format!(
                "request panicked ({recovered}): {}",
                panic_message(payload.as_ref())
            ),
        )
    });
    Response {
        answer,
        wall: t0.elapsed(),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Runs `kind` from scratch over the entry's netlist under an explicit
/// engine configuration — Monte Carlo honoring the workspace's sample
/// budget and seed. Shared by [`Request::Analyze`] (cold kinds) and
/// [`Request::AnalyzeUnder`] so the two arms cannot drift.
fn scratch_report(
    library: &Arc<Library>,
    config: &WorkspaceConfig,
    ssta: &SstaConfig,
    netlist: &Netlist,
    kind: EngineKind,
) -> vartol_ssta::TimingReport {
    match kind {
        EngineKind::MonteCarlo => MonteCarloTimer::new(library, ssta)
            .with_seed(config.mc_seed)
            .analyze(netlist, config.mc_samples),
        _ => kind.analyze(library, ssta, netlist),
    }
}

/// Packages circuit moments and the worst output as the
/// [`Answer::Analysis`] payload (worst output resolved to its name).
fn analysis_answer(
    entry: &CircuitEntry,
    kind: EngineKind,
    moments: Moments,
    worst: GateId,
) -> Answer {
    Answer::Analysis {
        kind,
        moments,
        worst_output: entry.session.netlist().gate(worst).name().to_owned(),
    }
}

/// The request dispatcher. Validation failures return [`Answer::Error`]
/// without touching the session (malformed input must not poison the
/// cached state — routed through the netlist's `try_*` accessors).
fn answer(
    library: &Arc<Library>,
    config: &WorkspaceConfig,
    entry: &mut CircuitEntry,
    request: &Request,
) -> Answer {
    // A Monte-Carlo budget below two would panic inside the timer and
    // cost the entry a session rebuild: answer a typed error instead.
    let monte_carlo = match request {
        Request::Yield { .. } => true,
        Request::Analyze { kind, .. } | Request::AnalyzeUnder { kind, .. } => {
            *kind == EngineKind::MonteCarlo
        }
        _ => false,
    };
    if monte_carlo && config.mc_samples < 2 {
        return Answer::error(
            ErrorCode::InvalidParameter,
            format!(
                "Monte-Carlo sample budget must be at least 2, got {}",
                config.mc_samples
            ),
        );
    }
    match request {
        Request::Analyze { kind, .. } => {
            let (moments, worst) = if *kind == EngineKind::FullSsta {
                // The cached session *is* the FULLSSTA state: answer from
                // its refreshed summary, with no from-scratch pass and no
                // report copy of every node's PDF.
                (entry.session.refresh(), entry.session.worst_output())
            } else {
                let report = scratch_report(
                    library,
                    config,
                    &entry.session.config().clone(),
                    entry.session.netlist(),
                    *kind,
                );
                (report.circuit_moments(), report.worst_output())
            };
            analysis_answer(entry, *kind, moments, worst)
        }
        Request::AnalyzeUnder { kind, model, .. } => {
            if let Err(e) = model.validate() {
                return Answer::error(
                    ErrorCode::InvalidModel,
                    format!("invalid variation model: {e}"),
                );
            }
            let mut conditioned = entry.session.config().clone();
            conditioned.model = model.clone();
            let report = scratch_report(
                library,
                config,
                &conditioned,
                entry.session.netlist(),
                *kind,
            );
            analysis_answer(
                entry,
                *kind,
                report.circuit_moments(),
                report.worst_output(),
            )
        }
        Request::Arrival { node, .. } => {
            let Some(id) = entry.session.netlist().gate_by_name(node) else {
                return Answer::error(
                    ErrorCode::UnknownNode,
                    format!("circuit `{}` has no node `{node}`", entry.name),
                );
            };
            entry.session.refresh();
            Answer::Arrival {
                node: node.clone(),
                moments: entry.session.arrival(id),
            }
        }
        Request::Slack { t_req, alpha, .. } => {
            if !t_req.is_finite() {
                return Answer::error(
                    ErrorCode::InvalidParameter,
                    format!("slack t_req must be finite, got {t_req}"),
                );
            }
            if !alpha.is_finite() || *alpha < 0.0 {
                return Answer::error(
                    ErrorCode::InvalidParameter,
                    format!("slack alpha must be non-negative, got {alpha}"),
                );
            }
            let slacks = entry.session.slacks(*t_req);
            let worst_node = slacks.worst_node(*alpha);
            Answer::Slack {
                worst: slacks.worst_statistical_slack(*alpha),
                worst_node: entry.session.netlist().gate(worst_node).name().to_owned(),
            }
        }
        Request::Criticality { top, .. } => {
            let criticality = entry.session.criticality();
            let take = if *top == 0 { usize::MAX } else { *top };
            let ranking = criticality
                .ranking()
                .into_iter()
                .take(take)
                .map(|id| {
                    (
                        entry.session.netlist().gate(id).name().to_owned(),
                        criticality.of(id),
                    )
                })
                .collect();
            Answer::Criticality { ranking }
        }
        Request::Yield { deadline, .. } => {
            if !deadline.is_finite() {
                return Answer::error(
                    ErrorCode::InvalidParameter,
                    format!("yield deadline must be finite, got {deadline}"),
                );
            }
            // The certified count equals the exact samples' count, so the
            // answer is `yield_at` of the exact run, bit for bit.
            let count = MonteCarloTimer::new(library, entry.session.config())
                .with_seed(config.mc_seed)
                .count_within(entry.session.netlist(), config.mc_samples, *deadline);
            Answer::Yield {
                fraction: count.fraction(),
            }
        }
        Request::Resize { gate, size, .. } => {
            // Validate the size against the library *before* mutating
            // anything: an accepted-but-unanalyzable size would poison
            // the cached session.
            let id =
                match validate_resize(library, &entry.name, entry.session.netlist(), gate, *size) {
                    Ok(id) => id,
                    Err(a) => return a,
                };
            if let Err(e) = entry.session.try_resize(id, *size) {
                return Answer::error(ErrorCode::InvalidNetlist, e.to_string());
            }
            let moments = entry.session.refresh();
            Answer::Resized {
                moments,
                area: entry.session.total_area(),
            }
        }
        Request::Fork { branch, .. } => {
            if entry.branches.contains_key(branch) {
                return Answer::error(
                    ErrorCode::DuplicateBranch,
                    format!("circuit `{}` already has a branch `{branch}`", entry.name),
                );
            }
            entry.session.refresh();
            let b = entry.session.fork();
            let fingerprint = b.size_fingerprint();
            entry.branches.insert(branch.clone(), b);
            Answer::Forked {
                branch: branch.clone(),
                fingerprint,
            }
        }
        Request::BranchResize {
            branch, gate, size, ..
        } => {
            let Some(b) = entry.branches.get(branch) else {
                return unknown_branch(&entry.name, branch);
            };
            let id = match validate_resize(library, &entry.name, b.netlist(), gate, *size) {
                Ok(id) => id,
                Err(a) => return a,
            };
            let b = entry.branches.get_mut(branch).expect("present above");
            if let Err(e) = b.try_resize(id, *size) {
                return Answer::error(ErrorCode::InvalidNetlist, e.to_string());
            }
            Answer::BranchResized {
                branch: branch.clone(),
                diverged: b.diverged_gates().len(),
            }
        }
        Request::BranchAnalyze { branch, .. } => {
            let Some(b) = entry.branches.get_mut(branch) else {
                return unknown_branch(&entry.name, branch);
            };
            let moments = b.refresh();
            Answer::BranchAnalysis {
                branch: branch.clone(),
                moments,
                area: b.total_area(),
            }
        }
        Request::Commit { branch, .. } => {
            let Some(b) = entry.branches.get(branch) else {
                return unknown_branch(&entry.name, branch);
            };
            // Check the commit rule first, so a rejected commit leaves the
            // branch in place and readable; an accepted one moves it in.
            if let Err(e) = entry.session.check_commit(b) {
                return Answer::error(
                    ErrorCode::BranchConflict,
                    format!("cannot commit branch `{branch}`: {e}"),
                );
            }
            let b = entry.branches.remove(branch).expect("present above");
            let moments = entry
                .session
                .commit(b)
                .expect("check_commit accepted this branch");
            entry.committed += 1;
            Answer::Committed {
                branch: branch.clone(),
                moments,
                area: entry.session.total_area(),
            }
        }
        Request::DropBranch { branch, .. } => {
            if entry.branches.remove(branch).is_none() {
                return unknown_branch(&entry.name, branch);
            }
            entry.dropped += 1;
            Answer::Dropped {
                branch: branch.clone(),
            }
        }
        Request::WhatIfBatch { trials, .. } => {
            entry.session.refresh();
            let session = &entry.session;
            let name = entry.name.as_str();
            // One fork per worker; every trial is undone on it, so each
            // trial starts from the fork point exactly and re-times only
            // its own cone. Outcomes come back in trial order, so the
            // answers are bit-identical at every pool width.
            let pool = ScopedPool::new(config.threads);
            let outcomes = pool.map_init(
                trials.len(),
                || session.fork(),
                |branch, i| {
                    let answer = what_if_trial(library, name, branch, &trials[i], i);
                    if matches!(
                        answer,
                        Answer::Error {
                            code: ErrorCode::Panic,
                            ..
                        }
                    ) {
                        // The panicked refresh may have left the branch
                        // half-updated: fork afresh for the next trial.
                        *branch = session.fork();
                    }
                    answer
                },
            );
            Answer::WhatIf { outcomes }
        }
        Request::Size {
            config: sizer,
            optimizer,
            yield_deadline,
            ..
        } => {
            if !sizer.alpha.is_finite() || sizer.alpha < 0.0 {
                return Answer::error(
                    ErrorCode::InvalidParameter,
                    format!("sizer alpha must be non-negative, got {}", sizer.alpha),
                );
            }
            if let Some(deadline) = yield_deadline {
                if !deadline.is_finite() || *deadline <= 0.0 {
                    return Answer::error(
                        ErrorCode::InvalidParameter,
                        format!("yield deadline must be finite and positive, got {deadline}"),
                    );
                }
                if matches!(optimizer, OptimizerKind::Greedy | OptimizerKind::MeanDelay) {
                    return Answer::error(
                        ErrorCode::InvalidParameter,
                        format!(
                            "optimizer '{optimizer}' sizes against its own objective; \
                             a yield deadline needs 'lagrangian' or 'annealing'"
                        ),
                    );
                }
            }
            // The optimizer runs on a working copy; the resulting sizes
            // are committed back into the cached session through the
            // non-panicking restore path and an incremental refresh.
            // Sequential circuits optimize against every timing endpoint
            // (register D pins as well as primary outputs), so a sizing
            // run improves WNS under whatever clock is later queried.
            let mut netlist = entry.session.netlist().clone();
            let objective = match yield_deadline {
                Some(deadline) => Objective::Yield {
                    deadline: *deadline,
                },
                None => Objective::Statistical { alpha: sizer.alpha },
            };
            let report = match optimizer {
                OptimizerKind::Greedy => StatisticalGreedy::new(Arc::clone(library), sizer.clone())
                    .optimize_clocked(&mut netlist),
                OptimizerKind::MeanDelay => outcome_to_report(
                    MeanDelaySizer::new(Arc::clone(library), &sizer.ssta)
                        .with_max_passes(sizer.max_passes)
                        .size_clocked(&mut netlist),
                ),
                OptimizerKind::Lagrangian => outcome_to_report(
                    LagrangianSizer::new(
                        Arc::clone(library),
                        LagrangianConfig {
                            objective,
                            max_iters: sizer.max_passes,
                            subcircuit_depth: sizer.subcircuit_depth,
                            ssta: sizer.ssta.clone(),
                        },
                    )
                    .size_clocked(&mut netlist),
                ),
                OptimizerKind::Annealing => outcome_to_report(
                    AnnealingSizer::new(
                        Arc::clone(library),
                        AnnealingConfig {
                            objective,
                            ssta: sizer.ssta.clone(),
                            ..AnnealingConfig::default()
                        },
                    )
                    .size_clocked(&mut netlist),
                ),
            };
            let sizes = netlist.sizes();
            let resized = entry
                .session
                .netlist()
                .sizes()
                .iter()
                .zip(&sizes)
                .filter(|(before, after)| before != after)
                .count();
            if let Err(e) = entry.session.try_restore_sizes(&sizes) {
                return Answer::error(ErrorCode::InvalidNetlist, e.to_string());
            }
            Answer::Sized {
                report: Box::new(report),
                moments: entry.session.refresh(),
                resized,
                area: entry.session.total_area(),
                optimizer: *optimizer,
            }
        }
        Request::SetClock {
            period,
            uncertainty,
            ..
        } => {
            if !period.is_finite() || *period <= 0.0 {
                return Answer::error(
                    ErrorCode::InvalidParameter,
                    format!("clock period must be finite and positive, got {period}"),
                );
            }
            if !uncertainty.is_finite() || *uncertainty < 0.0 || *uncertainty >= *period {
                return Answer::error(
                    ErrorCode::InvalidParameter,
                    format!(
                        "clock uncertainty must be in [0, period), got {uncertainty} \
                         against period {period}"
                    ),
                );
            }
            entry.clock = Some(ClockConstraint::new(*period, *uncertainty));
            Answer::ClockSet {
                period: *period,
                uncertainty: *uncertainty,
            }
        }
        Request::GroupSlack { kind, .. } => {
            match sequential_timing(library, config, entry, *kind) {
                Err(a) => a,
                Ok(seq) => Answer::GroupSlack {
                    kind: *kind,
                    groups: seq
                        .groups()
                        .iter()
                        .map(|g| GroupSlackRow {
                            group: g.group().name().to_owned(),
                            endpoints: g.endpoints(),
                            wns: g.wns(),
                            tns: g.tns(),
                            prob_met: g.prob_met(),
                            worst: g
                                .worst_endpoint()
                                .map(|id| entry.session.netlist().gate(id).name().to_owned())
                                .unwrap_or_default(),
                        })
                        .collect(),
                },
            }
        }
        Request::Wns { kind, .. } => match sequential_timing(library, config, entry, *kind) {
            Err(a) => a,
            Ok(seq) => Answer::Wns {
                kind: *kind,
                wns: seq.wns(),
            },
        },
        Request::Tns { kind, .. } => match sequential_timing(library, config, entry, *kind) {
            Err(a) => a,
            Ok(seq) => Answer::Tns {
                kind: *kind,
                tns: seq.tns(),
            },
        },
    }
}

/// Folds one engine's arrival report into per-group setup slack under
/// the entry's clock — shared by [`Request::GroupSlack`],
/// [`Request::Wns`], and [`Request::Tns`] so the three queries cannot
/// drift. FULLSSTA serves from the cached incremental session (the
/// warm path the determinism tests pin against a from-scratch run);
/// other engines run from scratch like [`Request::Analyze`].
fn sequential_timing(
    library: &Arc<Library>,
    config: &WorkspaceConfig,
    entry: &mut CircuitEntry,
    kind: EngineKind,
) -> Result<SequentialTiming, Answer> {
    let Some(clock) = entry.clock else {
        return Err(Answer::error(
            ErrorCode::NoClock,
            format!(
                "circuit `{}` has no clock constraint; send SetClock first",
                entry.name
            ),
        ));
    };
    let report = match kind {
        EngineKind::FullSsta => entry.session.current_report(),
        _ => scratch_report(
            library,
            config,
            &entry.session.config().clone(),
            entry.session.netlist(),
            kind,
        ),
    };
    Ok(SequentialTiming::analyze(
        entry.session.netlist(),
        library,
        clock,
        &report,
    ))
}

fn unknown_branch(circuit: &str, branch: &str) -> Answer {
    Answer::error(
        ErrorCode::UnknownBranch,
        format!("circuit `{circuit}` has no branch `{branch}`"),
    )
}

/// Resolves a gate name and validates the requested size against the
/// library before anything mutates — shared by [`Request::Resize`],
/// [`Request::BranchResize`], and what-if trials so session and branch
/// boundaries reject identically (and with the same [`ErrorCode`]s).
fn validate_resize(
    library: &Library,
    circuit: &str,
    netlist: &Netlist,
    gate: &str,
    size: usize,
) -> Result<vartol_netlist::GateId, Answer> {
    let Some(id) = netlist.gate_by_name(gate) else {
        return Err(Answer::error(
            ErrorCode::UnknownGate,
            format!("circuit `{circuit}` has no gate `{gate}`"),
        ));
    };
    let g = match netlist.try_gate(id) {
        Ok(g) => g,
        Err(e) => return Err(Answer::error(ErrorCode::InvalidNetlist, e.to_string())),
    };
    let Some(function) = g.function() else {
        return Err(Answer::error(
            ErrorCode::InputNotSizable,
            format!("`{gate}` is a primary input, not a sizable gate"),
        ));
    };
    let arity = g.fanins().len();
    match library.group(function, arity) {
        Some(group) if size < group.len() => Ok(id),
        Some(group) => Err(Answer::error(
            ErrorCode::SizeOutOfRange,
            format!(
                "size {size} out of range for `{gate}` ({function}/{arity} has {} sizes)",
                group.len()
            ),
        )),
        None => Err(Answer::error(
            ErrorCode::NoCellGroup,
            format!("library has no cell group for `{gate}` ({function}/{arity})"),
        )),
    }
}

/// Maps a [`SizingOutcome`] from the shared optimizer vocabulary onto
/// the [`OptimizationReport`] the `Sized` answer has always carried, so
/// every optimizer speaks the same wire shape. The report's `alpha` is
/// the statistical σ weight when that is what the run minimized and
/// `0.0` for yield-targeted runs (their pass `cost` column is the
/// negated yield).
fn outcome_to_report(outcome: SizingOutcome) -> OptimizationReport {
    let alpha = match outcome.objective {
        Objective::Statistical { alpha } => alpha,
        Objective::Yield { .. } => 0.0,
    };
    OptimizationReport::new(
        alpha,
        outcome.initial_moments,
        outcome.final_moments,
        outcome.initial_area,
        outcome.final_area,
        outcome
            .passes
            .iter()
            .map(|p| PassStats {
                pass: p.pass,
                circuit: p.moments,
                cost: p.objective,
                area: p.area,
                resized: p.resized,
            })
            .collect(),
        outcome.runtime,
    )
}

/// Evaluates one [`WhatIfTrial`] on a worker's branch, which sits at its
/// fork point: applies the trial's resizes (validated like
/// [`Request::Resize`]) and refreshes their cone. A validation failure or
/// panic answers [`Answer::Error`] for this trial only. The branch is
/// left at its fork point again: a trial that fails validation part-way
/// restores the fork-point sizes, and an evaluated one is undone. After a
/// panic ([`ErrorCode::Panic`]) the branch may be half-updated, and the
/// caller must fork a fresh one.
fn what_if_trial(
    library: &Library,
    circuit: &str,
    branch: &mut TimingSession,
    trial: &WhatIfTrial,
    index: usize,
) -> Answer {
    for r in &trial.resizes {
        let rejected = match validate_resize(library, circuit, branch.netlist(), &r.gate, r.size) {
            Ok(id) => branch
                .try_resize(id, r.size)
                .err()
                .map(|e| Answer::error(ErrorCode::InvalidNetlist, e.to_string())),
            Err(a) => Some(a),
        };
        if let Some(answer) = rejected {
            branch.restore_fork_point();
            return answer;
        }
    }
    let result = catch_unwind(AssertUnwindSafe(|| {
        let moments = branch.refresh_undoable();
        let area = branch.total_area();
        branch.undo();
        (moments, area)
    }));
    match result {
        Ok((moments, area)) => Answer::BranchAnalysis {
            branch: format!("trial-{index}"),
            moments,
            area,
        },
        Err(payload) => Answer::error(
            ErrorCode::Panic,
            format!(
                "what-if trial {index} panicked (siblings unaffected): {}",
                panic_message(payload.as_ref())
            ),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workspace(threads: usize) -> Workspace {
        let mut ws = Workspace::new(
            Library::synthetic_90nm(),
            WorkspaceConfig::default()
                .with_threads(threads)
                .with_mc_samples(400),
        );
        ws.register_preset("adder_8").expect("preset");
        ws.register_preset("cmp_8").expect("preset");
        ws
    }

    #[test]
    fn registration_rejects_duplicates_and_unknown_presets() {
        let mut ws = workspace(1);
        assert_eq!(
            ws.register_preset("adder_8").expect_err("duplicate"),
            WorkspaceError::DuplicateCircuit("adder_8".into())
        );
        assert_eq!(
            ws.register_preset("nope").expect_err("unknown"),
            WorkspaceError::UnknownPreset("nope".into())
        );
        assert_eq!(ws.len(), 2);
        assert_eq!(
            ws.circuit_names().collect::<Vec<_>>(),
            vec!["adder_8", "cmp_8"]
        );
    }

    #[test]
    fn registration_validates_against_the_library() {
        let mut ws = workspace(1);
        let mut bad = preset("adder_8", &ws.library()).expect("preset");
        let g = bad.gate_ids().next().expect("gates");
        bad.set_size(g, 999);
        assert!(matches!(
            ws.register("bad", bad),
            Err(WorkspaceError::InvalidNetlist(
                NetlistError::MissingCell { .. }
            ))
        ));
    }

    #[test]
    fn bench_text_registration_and_query() {
        let mut ws = workspace(1);
        ws.register_bench_str("tiny", "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n")
            .expect("parses");
        let response = ws.query(Request::Analyze {
            circuit: "tiny".into(),
            kind: EngineKind::Dsta,
        });
        let Answer::Analysis { moments, .. } = response.answer else {
            panic!("expected analysis, got {:?}", response.answer);
        };
        assert!(moments.mean > 0.0);
    }

    #[test]
    fn unknown_circuit_and_node_yield_error_answers() {
        let mut ws = workspace(1);
        let answers = ws.submit(&[
            Request::Analyze {
                circuit: "ghost".into(),
                kind: EngineKind::Dsta,
            },
            Request::Arrival {
                circuit: "adder_8".into(),
                node: "no_such_node".into(),
            },
            Request::Resize {
                circuit: "adder_8".into(),
                gate: "no_such_gate".into(),
                size: 1,
            },
        ]);
        for response in &answers {
            assert!(
                matches!(response.answer, Answer::Error { .. }),
                "{:?}",
                response.answer
            );
        }
    }

    #[test]
    fn resize_validation_rejects_out_of_range_sizes_without_poisoning() {
        let mut ws = workspace(1);
        let gate = ws
            .netlist("adder_8")
            .expect("registered")
            .gate_ids()
            .next()
            .map(|id| ws.netlist("adder_8").unwrap().gate(id).name().to_owned())
            .expect("gates");
        let before = ws.netlist("adder_8").expect("registered").sizes();
        let response = ws.query(Request::Resize {
            circuit: "adder_8".into(),
            gate: gate.clone(),
            size: 999,
        });
        let Answer::Error { message, .. } = &response.answer else {
            panic!("expected error, got {:?}", response.answer);
        };
        assert!(message.contains("out of range"), "{message}");
        assert_eq!(
            ws.netlist("adder_8").expect("registered").sizes(),
            before,
            "rejected resize must not mutate"
        );
        // The circuit still answers follow-up queries normally.
        let ok = ws.query(Request::Analyze {
            circuit: "adder_8".into(),
            kind: EngineKind::FullSsta,
        });
        assert!(matches!(ok.answer, Answer::Analysis { .. }));
    }

    #[test]
    fn analyze_under_serves_correlated_corners_without_touching_the_cache() {
        let mut ws = workspace(1);
        let answers = ws.submit(&[
            Request::Analyze {
                circuit: "adder_8".into(),
                kind: EngineKind::FullSsta,
            },
            Request::AnalyzeUnder {
                circuit: "adder_8".into(),
                kind: EngineKind::FullSsta,
                model: VariationModel::die_to_die(0.6),
            },
            Request::AnalyzeUnder {
                circuit: "adder_8".into(),
                kind: EngineKind::MonteCarlo,
                model: VariationModel::die_to_die(0.6),
            },
            // The cached independent-model session must be unaffected.
            Request::Analyze {
                circuit: "adder_8".into(),
                kind: EngineKind::FullSsta,
            },
        ]);
        let Answer::Analysis {
            moments: independent,
            ..
        } = answers[0].answer
        else {
            panic!("analysis: {:?}", answers[0].answer);
        };
        let Answer::Analysis {
            moments: corner, ..
        } = answers[1].answer
        else {
            panic!("corner analysis: {:?}", answers[1].answer);
        };
        let Answer::Analysis { moments: mc, .. } = answers[2].answer else {
            panic!("MC corner: {:?}", answers[2].answer);
        };
        assert!(
            corner.std() > independent.std(),
            "a die-to-die source widens the circuit distribution: {} vs {}",
            corner.std(),
            independent.std()
        );
        assert!(
            (mc.mean - corner.mean).abs() / corner.mean < 0.05,
            "engines agree on the corner: MC {} vs FULLSSTA {}",
            mc.mean,
            corner.mean
        );
        assert_eq!(
            answers[3].answer, answers[0].answer,
            "corner queries must not perturb the cached session"
        );
    }

    #[test]
    fn analyze_under_rejects_invalid_models() {
        let mut ws = workspace(1);
        let mut bad = VariationModel::die_to_die(0.5);
        bad.global[0].sigma_scale = f64::NAN;
        let response = ws.query(Request::AnalyzeUnder {
            circuit: "adder_8".into(),
            kind: EngineKind::Dsta,
            model: bad,
        });
        let Answer::Error { message, .. } = &response.answer else {
            panic!("expected error, got {:?}", response.answer);
        };
        assert!(message.contains("variation model"), "{message}");
        // The circuit still answers normally afterwards.
        let ok = ws.query(Request::Analyze {
            circuit: "adder_8".into(),
            kind: EngineKind::FullSsta,
        });
        assert!(matches!(ok.answer, Answer::Analysis { .. }));
    }

    #[test]
    fn resize_persists_for_later_requests_on_the_same_circuit() {
        let mut ws = workspace(1);
        let netlist = ws.netlist("adder_8").expect("registered");
        let id = netlist.gate_ids().next().expect("gates");
        let gate = netlist.gate(id).name().to_owned();
        let answers = ws.submit(&[
            Request::Analyze {
                circuit: "adder_8".into(),
                kind: EngineKind::FullSsta,
            },
            Request::Resize {
                circuit: "adder_8".into(),
                gate,
                size: 4,
            },
            Request::Analyze {
                circuit: "adder_8".into(),
                kind: EngineKind::FullSsta,
            },
        ]);
        let Answer::Analysis {
            moments: before, ..
        } = answers[0].answer
        else {
            panic!("analysis");
        };
        let Answer::Resized {
            moments: resized, ..
        } = answers[1].answer
        else {
            panic!("resized: {:?}", answers[1].answer);
        };
        let Answer::Analysis { moments: after, .. } = answers[2].answer else {
            panic!("analysis");
        };
        assert_ne!(before, after, "the resize is visible downstream");
        assert_eq!(resized, after, "incremental refresh equals re-analysis");
        assert_eq!(
            ws.netlist("adder_8").expect("registered").gate(id).size(),
            Some(4),
            "mutation persists across batches"
        );
    }

    fn first_gate(ws: &Workspace, circuit: &str) -> String {
        let netlist = ws.netlist(circuit).expect("registered");
        let id = netlist.gate_ids().next().expect("gates");
        netlist.gate(id).name().to_owned()
    }

    #[test]
    fn branch_lifecycle_commits_exactly_what_a_direct_resize_would() {
        let mut ws = workspace(1);
        let gate = first_gate(&ws, "adder_8");
        let answers = ws.submit(&[
            Request::Fork {
                circuit: "adder_8".into(),
                branch: "spec".into(),
            },
            Request::BranchResize {
                circuit: "adder_8".into(),
                branch: "spec".into(),
                gate: gate.clone(),
                size: 4,
            },
            Request::BranchAnalyze {
                circuit: "adder_8".into(),
                branch: "spec".into(),
            },
            Request::Commit {
                circuit: "adder_8".into(),
                branch: "spec".into(),
            },
            Request::Analyze {
                circuit: "adder_8".into(),
                kind: EngineKind::FullSsta,
            },
        ]);
        assert!(
            matches!(answers[0].answer, Answer::Forked { .. }),
            "{:?}",
            answers[0].answer
        );
        let Answer::BranchResized { diverged, .. } = answers[1].answer else {
            panic!("{:?}", answers[1].answer);
        };
        assert_eq!(diverged, 1);
        let Answer::BranchAnalysis {
            moments: analyzed, ..
        } = answers[2].answer
        else {
            panic!("{:?}", answers[2].answer);
        };
        let Answer::Committed {
            moments: committed, ..
        } = answers[3].answer
        else {
            panic!("{:?}", answers[3].answer);
        };
        assert_eq!(analyzed.mean.to_bits(), committed.mean.to_bits());

        // The committed circuit answers exactly like one that applied
        // the resize directly.
        let mut control = workspace(1);
        control.query(Request::Resize {
            circuit: "adder_8".into(),
            gate,
            size: 4,
        });
        let direct = control.query(Request::Analyze {
            circuit: "adder_8".into(),
            kind: EngineKind::FullSsta,
        });
        assert_eq!(answers[4].answer, direct.answer);

        // A dropped branch leaves no trace beyond its lifetime counter.
        ws.query(Request::Fork {
            circuit: "adder_8".into(),
            branch: "doomed".into(),
        });
        assert_eq!(ws.branch_names("adder_8").unwrap(), vec!["doomed"]);
        ws.query(Request::DropBranch {
            circuit: "adder_8".into(),
            branch: "doomed".into(),
        });
        assert!(ws.branch_names("adder_8").unwrap().is_empty());
        assert_eq!(ws.branch_counters(), (0, 1, 1));
        let after_drop = ws.query(Request::Analyze {
            circuit: "adder_8".into(),
            kind: EngineKind::FullSsta,
        });
        assert_eq!(after_drop.answer, direct.answer);
    }

    #[test]
    fn branch_failures_answer_with_their_own_codes() {
        let mut ws = workspace(1);
        let gate = first_gate(&ws, "adder_8");
        ws.query(Request::Fork {
            circuit: "adder_8".into(),
            branch: "a".into(),
        });
        ws.query(Request::Fork {
            circuit: "adder_8".into(),
            branch: "b".into(),
        });
        ws.query(Request::BranchResize {
            circuit: "adder_8".into(),
            branch: "a".into(),
            gate,
            size: 4,
        });
        assert!(matches!(
            ws.query(Request::Commit {
                circuit: "adder_8".into(),
                branch: "a".into(),
            })
            .answer,
            Answer::Committed { .. }
        ));
        let failures = [
            (
                Request::Fork {
                    circuit: "adder_8".into(),
                    branch: "b".into(),
                },
                ErrorCode::DuplicateBranch,
            ),
            (
                Request::BranchAnalyze {
                    circuit: "adder_8".into(),
                    branch: "ghost".into(),
                },
                ErrorCode::UnknownBranch,
            ),
            // Sibling `b` forked from a base the commit of `a` replaced.
            (
                Request::Commit {
                    circuit: "adder_8".into(),
                    branch: "b".into(),
                },
                ErrorCode::BranchConflict,
            ),
        ];
        for (request, expected) in failures {
            let Answer::Error { code, .. } = ws.query(request.clone()).answer else {
                panic!("{request:?} must fail");
            };
            assert_eq!(code, expected, "{request:?}");
        }
        // The conflicted sibling stays readable.
        assert!(matches!(
            ws.query(Request::BranchAnalyze {
                circuit: "adder_8".into(),
                branch: "b".into(),
            })
            .answer,
            Answer::BranchAnalysis { .. }
        ));
    }

    #[test]
    fn what_if_batch_matches_branches_and_every_pool_width() {
        let probe = workspace(1);
        let gate = first_gate(&probe, "adder_8");
        let trials = vec![
            WhatIfTrial {
                resizes: vec![GateResize {
                    gate: gate.clone(),
                    size: 4,
                }],
            },
            WhatIfTrial {
                resizes: vec![GateResize {
                    gate: "ghost".into(),
                    size: 1,
                }],
            },
            WhatIfTrial { resizes: vec![] },
        ];
        let batch = Request::WhatIfBatch {
            circuit: "adder_8".into(),
            trials: trials.clone(),
        };
        let reference = workspace(1).query(batch.clone()).answer;
        let Answer::WhatIf { outcomes } = &reference else {
            panic!("{reference:?}");
        };
        assert_eq!(outcomes.len(), 3);
        assert!(
            matches!(
                &outcomes[1],
                Answer::Error {
                    code: ErrorCode::UnknownGate,
                    ..
                }
            ),
            "a bad trial fails alone: {:?}",
            outcomes[1]
        );
        for threads in [2usize, 8] {
            assert_eq!(
                workspace(threads).query(batch.clone()).answer,
                reference,
                "what-if drift at {threads}-wide pool"
            );
        }

        // Trial 0 answers exactly what the explicit branch dance does.
        let mut ws = workspace(1);
        ws.query(Request::Fork {
            circuit: "adder_8".into(),
            branch: "t0".into(),
        });
        ws.query(Request::BranchResize {
            circuit: "adder_8".into(),
            branch: "t0".into(),
            gate,
            size: 4,
        });
        let explicit = ws
            .query(Request::BranchAnalyze {
                circuit: "adder_8".into(),
                branch: "t0".into(),
            })
            .answer;
        let (Answer::BranchAnalysis { moments: a, .. }, Answer::BranchAnalysis { moments: b, .. }) =
            (&explicit, &outcomes[0])
        else {
            panic!("{explicit:?} vs {:?}", outcomes[0]);
        };
        assert_eq!(a.mean.to_bits(), b.mean.to_bits());
        assert_eq!(a.var.to_bits(), b.var.to_bits());
    }

    #[test]
    fn rejected_commit_leaves_the_branch_intact_and_readable() {
        let mut ws = workspace(1);
        let gate = first_gate(&ws, "adder_8");
        for branch in ["a", "b"] {
            ws.query(Request::Fork {
                circuit: "adder_8".into(),
                branch: branch.into(),
            });
            ws.query(Request::BranchResize {
                circuit: "adder_8".into(),
                branch: branch.into(),
                gate: gate.clone(),
                size: if branch == "a" { 4 } else { 3 },
            });
        }
        let analyze_b = Request::BranchAnalyze {
            circuit: "adder_8".into(),
            branch: "b".into(),
        };
        let before = ws.query(analyze_b.clone()).answer;
        assert!(
            matches!(before, Answer::BranchAnalysis { .. }),
            "{before:?}"
        );
        let commit = |branch: &str| Request::Commit {
            circuit: "adder_8".into(),
            branch: branch.into(),
        };
        assert!(matches!(
            ws.query(commit("a")).answer,
            Answer::Committed { .. }
        ));
        let Answer::Error { code, .. } = ws.query(commit("b")).answer else {
            panic!("a stale sibling must not commit");
        };
        assert_eq!(code, ErrorCode::BranchConflict);
        // The rejected branch is still registered, uncounted, and answers
        // exactly what it answered before the attempt.
        assert_eq!(ws.branch_names("adder_8").unwrap(), vec!["b"]);
        assert_eq!(ws.branch_counters(), (1, 1, 0));
        assert_eq!(ws.query(analyze_b).answer, before);
    }

    #[test]
    fn what_if_trials_on_a_reused_worker_branch_answer_like_fresh_forks() {
        // One worker runs every trial on the same branch, so a trial that
        // fails part-way or is undone must leave nothing for the next.
        let probe = workspace(1);
        let netlist = probe.netlist("adder_8").expect("registered");
        let names: Vec<String> = netlist
            .gate_ids()
            .take(3)
            .map(|g| netlist.gate(g).name().to_owned())
            .collect();
        let resize = |gate: &String, size| GateResize {
            gate: gate.clone(),
            size,
        };
        let trials = vec![
            WhatIfTrial {
                resizes: vec![resize(&names[0], 4), resize(&"ghost".to_owned(), 1)],
            },
            WhatIfTrial { resizes: vec![] },
            WhatIfTrial {
                resizes: vec![resize(&names[0], 4)],
            },
            WhatIfTrial {
                resizes: vec![resize(&names[1], 3), resize(&names[2], 99)],
            },
            WhatIfTrial {
                resizes: vec![resize(&names[1], 3), resize(&names[0], 2)],
            },
            WhatIfTrial { resizes: vec![] },
        ];
        let batch = |trials: Vec<WhatIfTrial>| Request::WhatIfBatch {
            circuit: "adder_8".into(),
            trials,
        };
        let Answer::WhatIf { outcomes } = workspace(1).query(batch(trials.clone())).answer else {
            panic!("a what-if batch answers WhatIf");
        };
        // A trial's answer up to its name, as bits.
        let bits = |a: &Answer| match a {
            Answer::BranchAnalysis { moments, area, .. } => Ok((
                moments.mean.to_bits(),
                moments.var.to_bits(),
                area.to_bits(),
            )),
            other => Err(other.clone()),
        };
        for (i, trial) in trials.into_iter().enumerate() {
            let Answer::WhatIf { outcomes: alone } = workspace(1).query(batch(vec![trial])).answer
            else {
                panic!("a what-if batch answers WhatIf");
            };
            assert_eq!(bits(&outcomes[i]), bits(&alone[0]), "trial {i}");
        }
        assert!(bits(&outcomes[0]).is_err() && bits(&outcomes[3]).is_err());
        assert!(bits(&outcomes[4]).is_ok());
        assert_eq!(
            bits(&outcomes[1]),
            bits(&outcomes[5]),
            "undone trials leave the fork point"
        );
    }

    #[test]
    fn monte_carlo_verbs_reject_a_budget_below_two_without_a_rebuild() {
        for samples in [0, 1] {
            let mut ws = Workspace::new(
                Library::synthetic_90nm(),
                WorkspaceConfig::default().with_mc_samples(samples),
            );
            ws.register_preset("adder_8").expect("preset");
            // A refresh after a resize puts the session's visit meter past
            // a full build's, so a rebuild would show as a drop.
            let netlist = ws.netlist("adder_8").expect("registered");
            let gate = netlist.gate_ids().next().expect("gates");
            let resize = Request::Resize {
                circuit: "adder_8".into(),
                gate: netlist.gate(gate).name().to_owned(),
                size: 2,
            };
            let full = Request::Analyze {
                circuit: "adder_8".into(),
                kind: EngineKind::FullSsta,
            };
            assert!(matches!(ws.query(resize).answer, Answer::Resized { .. }));
            assert!(matches!(ws.query(full).answer, Answer::Analysis { .. }));
            let visits = ws.entries[0].session.recompute_count();
            let requests = [
                Request::Yield {
                    circuit: "adder_8".into(),
                    deadline: 1000.0,
                },
                Request::Analyze {
                    circuit: "adder_8".into(),
                    kind: EngineKind::MonteCarlo,
                },
                Request::AnalyzeUnder {
                    circuit: "adder_8".into(),
                    kind: EngineKind::MonteCarlo,
                    model: VariationModel::die_to_die(0.5),
                },
            ];
            for request in requests {
                let Answer::Error { code, message } = ws.query(request.clone()).answer else {
                    panic!("{request:?} with {samples} samples must fail");
                };
                assert_eq!(code, ErrorCode::InvalidParameter, "{message}");
                assert!(message.contains("at least 2"), "{message}");
            }
            assert_eq!(
                ws.entries[0].session.recompute_count(),
                visits,
                "no rebuild"
            );
        }
    }

    #[test]
    fn yield_answers_equal_the_exact_samples_fraction() {
        let mut ws = workspace(1);
        let config = ws.config().clone();
        let library = ws.library();
        let netlist = ws.netlist("cmp_8").expect("registered").clone();
        let mc = MonteCarloTimer::new(&library, &config.ssta)
            .with_seed(config.mc_seed)
            .sample_parallel(&netlist, config.mc_samples);
        let mut deadlines: Vec<f64> = mc.samples().iter().step_by(37).copied().collect();
        deadlines.extend([0.0, mc.moments().mean, 1e9]);
        for deadline in deadlines {
            let Answer::Yield { fraction } = ws
                .query(Request::Yield {
                    circuit: "cmp_8".into(),
                    deadline,
                })
                .answer
            else {
                panic!("yield at {deadline}");
            };
            assert_eq!(
                fraction.to_bits(),
                mc.yield_at(deadline).to_bits(),
                "{deadline}"
            );
        }
    }

    fn sequential_workspace(threads: usize) -> Workspace {
        let mut ws = Workspace::new(
            Library::synthetic_90nm(),
            WorkspaceConfig::default()
                .with_threads(threads)
                .with_mc_samples(400),
        );
        ws.register_preset("pipeline_adder_16").expect("preset");
        ws
    }

    #[test]
    fn sequential_queries_require_a_clock_and_validate_it() {
        let mut ws = sequential_workspace(1);
        let Answer::Error { code, .. } = ws
            .query(Request::Wns {
                circuit: "pipeline_adder_16".into(),
                kind: EngineKind::Dsta,
            })
            .answer
        else {
            panic!("WNS without a clock must fail");
        };
        assert_eq!(code, ErrorCode::NoClock);
        for (period, uncertainty) in [(0.0, 0.0), (-5.0, 0.0), (f64::NAN, 0.0), (100.0, 100.0)] {
            let Answer::Error { code, .. } = ws
                .query(Request::SetClock {
                    circuit: "pipeline_adder_16".into(),
                    period,
                    uncertainty,
                })
                .answer
            else {
                panic!("clock ({period}, {uncertainty}) must be rejected");
            };
            assert_eq!(code, ErrorCode::InvalidParameter);
        }
        assert_eq!(ws.clock("pipeline_adder_16"), None);
        assert!(matches!(
            ws.query(Request::SetClock {
                circuit: "pipeline_adder_16".into(),
                period: 900.0,
                uncertainty: 25.0,
            })
            .answer,
            Answer::ClockSet { .. }
        ));
        assert_eq!(
            ws.clock("pipeline_adder_16"),
            Some(ClockConstraint::new(900.0, 25.0))
        );
    }

    #[test]
    fn group_slack_populates_all_four_groups_under_every_engine() {
        let mut ws = sequential_workspace(1);
        ws.query(Request::SetClock {
            circuit: "pipeline_adder_16".into(),
            period: 900.0,
            uncertainty: 0.0,
        });
        for kind in EngineKind::ALL {
            let response = ws.query(Request::GroupSlack {
                circuit: "pipeline_adder_16".into(),
                kind,
            });
            let Answer::GroupSlack { groups, .. } = &response.answer else {
                panic!("{kind:?}: {:?}", response.answer);
            };
            assert_eq!(groups.len(), 4);
            for row in groups {
                assert!(
                    row.endpoints > 0,
                    "{kind:?}: the pipeline has paths in every group, {row:?}"
                );
                assert!(row.wns.is_finite() && !row.worst.is_empty(), "{row:?}");
                assert!((0.0..=1.0).contains(&row.prob_met), "{row:?}");
            }
            let Answer::Wns { wns, .. } = ws
                .query(Request::Wns {
                    circuit: "pipeline_adder_16".into(),
                    kind,
                })
                .answer
            else {
                panic!("wns under {kind:?}");
            };
            let group_min = groups.iter().map(|g| g.wns).fold(f64::INFINITY, f64::min);
            assert_eq!(wns.to_bits(), group_min.to_bits(), "{kind:?}");
        }
    }

    #[test]
    fn set_clock_shifts_reg2reg_slack_by_exactly_the_period_delta() {
        let mut ws = sequential_workspace(1);
        let slack_at = |ws: &mut Workspace, period: f64| {
            ws.query(Request::SetClock {
                circuit: "pipeline_adder_16".into(),
                period,
                uncertainty: 0.0,
            });
            let Answer::GroupSlack { groups, .. } = ws
                .query(Request::GroupSlack {
                    circuit: "pipeline_adder_16".into(),
                    kind: EngineKind::FullSsta,
                })
                .answer
            else {
                panic!("group slack");
            };
            groups
                .iter()
                .find(|g| g.group == "reg2reg")
                .expect("reg2reg row")
                .wns
        };
        let tight = slack_at(&mut ws, 700.0);
        let loose = slack_at(&mut ws, 950.0);
        assert!(
            (loose - tight - 250.0).abs() < 1e-9,
            "arrival and setup are clock-independent, so Δwns == Δperiod: {tight} vs {loose}"
        );
    }

    #[test]
    fn warm_sequential_answers_match_a_fresh_workspace() {
        // A workspace that has analyzed, resized, and re-analyzed must
        // answer sequential queries bit-identically to one that starts
        // from scratch at the same sizes.
        let mut warm = sequential_workspace(1);
        let gate = first_gate(&warm, "pipeline_adder_16");
        warm.submit(&[
            Request::Analyze {
                circuit: "pipeline_adder_16".into(),
                kind: EngineKind::FullSsta,
            },
            Request::Resize {
                circuit: "pipeline_adder_16".into(),
                gate: gate.clone(),
                size: 4,
            },
            Request::SetClock {
                circuit: "pipeline_adder_16".into(),
                period: 800.0,
                uncertainty: 10.0,
            },
        ]);
        let warm_answer = warm
            .query(Request::GroupSlack {
                circuit: "pipeline_adder_16".into(),
                kind: EngineKind::FullSsta,
            })
            .answer;

        let mut fresh = sequential_workspace(1);
        fresh.submit(&[
            Request::Resize {
                circuit: "pipeline_adder_16".into(),
                gate,
                size: 4,
            },
            Request::SetClock {
                circuit: "pipeline_adder_16".into(),
                period: 800.0,
                uncertainty: 10.0,
            },
        ]);
        let fresh_answer = fresh
            .query(Request::GroupSlack {
                circuit: "pipeline_adder_16".into(),
                kind: EngineKind::FullSsta,
            })
            .answer;
        assert_eq!(warm_answer, fresh_answer);
    }

    #[test]
    fn sizing_a_sequential_circuit_improves_wns() {
        let mut ws = sequential_workspace(1);
        ws.query(Request::SetClock {
            circuit: "pipeline_adder_16".into(),
            period: 800.0,
            uncertainty: 0.0,
        });
        let wns = |ws: &mut Workspace| {
            let Answer::Wns { wns, .. } = ws
                .query(Request::Wns {
                    circuit: "pipeline_adder_16".into(),
                    kind: EngineKind::FullSsta,
                })
                .answer
            else {
                panic!("wns");
            };
            wns
        };
        let before = wns(&mut ws);
        let response = ws.query(Request::Size {
            circuit: "pipeline_adder_16".into(),
            config: SizerConfig::default(),
            optimizer: OptimizerKind::Greedy,
            yield_deadline: None,
        });
        assert!(matches!(response.answer, Answer::Sized { .. }));
        let after = wns(&mut ws);
        assert!(
            after > before,
            "sizing must improve sequential WNS: {before} -> {after}"
        );
    }

    #[test]
    fn sized_describes_the_circuit_it_leaves() {
        let mut runs_that_moved = 0;
        for optimizer in [
            OptimizerKind::Greedy,
            OptimizerKind::MeanDelay,
            OptimizerKind::Lagrangian,
            OptimizerKind::Annealing,
        ] {
            for circuit in ["adder_8", "s27"] {
                let mut ws = Workspace::new(
                    Library::synthetic_90nm(),
                    WorkspaceConfig::default().with_threads(1),
                );
                ws.register_preset("adder_8").expect("preset");
                ws.register_bench_str("s27", include_str!("../data/s27.bench"))
                    .expect("valid bench");
                let sizes = |ws: &Workspace| ws.netlist(circuit).expect("registered").sizes();
                let before = sizes(&ws);
                let answer = ws
                    .query(Request::Size {
                        circuit: circuit.into(),
                        config: SizerConfig {
                            max_passes: 2,
                            ..SizerConfig::default()
                        },
                        optimizer,
                        yield_deadline: None,
                    })
                    .answer;
                let Answer::Sized {
                    moments, resized, ..
                } = answer
                else {
                    panic!("{optimizer} on {circuit}: {answer:?}");
                };
                let after = sizes(&ws);
                let changed = before.iter().zip(&after).filter(|(b, a)| b != a).count();
                assert_eq!(resized, changed, "{optimizer} on {circuit}");
                runs_that_moved += usize::from(changed > 0);

                let Answer::Analysis {
                    moments: analyzed, ..
                } = ws
                    .query(Request::Analyze {
                        circuit: circuit.into(),
                        kind: EngineKind::FullSsta,
                    })
                    .answer
                else {
                    panic!("analyze {circuit}");
                };
                assert_eq!(
                    (moments.mean.to_bits(), moments.var.to_bits()),
                    (analyzed.mean.to_bits(), analyzed.var.to_bits()),
                    "{optimizer} on {circuit}: Sized {moments:?}, Analyze {analyzed:?}"
                );
            }
        }
        assert!(
            runs_that_moved >= 6,
            "{runs_that_moved} of 8 runs moved a gate"
        );
    }

    #[test]
    fn mean_delay_row_counts_the_gates_it_moved() {
        let mut ws = workspace(1);
        let sizes = |ws: &Workspace| ws.netlist("cmp_8").expect("registered").sizes();
        let before = sizes(&ws);
        let answer = ws
            .query(Request::Size {
                circuit: "cmp_8".into(),
                config: SizerConfig {
                    max_passes: 2,
                    ..SizerConfig::default()
                },
                optimizer: OptimizerKind::MeanDelay,
                yield_deadline: None,
            })
            .answer;
        let Answer::Sized { report, .. } = answer else {
            panic!("mean-delay on cmp_8: {answer:?}");
        };
        let after = sizes(&ws);
        let changed = before.iter().zip(&after).filter(|(b, a)| b != a).count();
        assert!(changed > 0, "mean-delay sizing moves gates on cmp_8");
        let [row] = report.passes() else {
            panic!("one row, got {:?}", report.passes());
        };
        assert_eq!(row.resized, changed);
    }

    #[test]
    fn combinational_circuits_answer_sequential_queries_with_empty_reg_groups() {
        let mut ws = workspace(1);
        ws.query(Request::SetClock {
            circuit: "adder_8".into(),
            period: 2000.0,
            uncertainty: 0.0,
        });
        let Answer::GroupSlack { groups, .. } = ws
            .query(Request::GroupSlack {
                circuit: "adder_8".into(),
                kind: EngineKind::FullSsta,
            })
            .answer
        else {
            panic!("group slack");
        };
        for row in &groups {
            if row.group == "in2out" {
                assert!(row.endpoints > 0 && !row.worst.is_empty(), "{row:?}");
            } else {
                assert_eq!(row.endpoints, 0, "{row:?}");
                assert_eq!(row.wns, 2000.0, "empty groups report the clock budget");
                assert!(row.worst.is_empty(), "{row:?}");
            }
        }
    }
}
