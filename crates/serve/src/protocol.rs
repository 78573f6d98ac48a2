//! The wire protocol: typed requests and responses, one JSON value per
//! line (NDJSON), shared verbatim by the TCP listener and the
//! stdin/stdout REPL.
//!
//! # Framing
//!
//! * **Requests** are one JSON-encoded [`ServeRequest`] per line —
//!   externally tagged, exactly as the serde shim serializes the enum
//!   (`{"Analyze":{"circuit":"c17","kind":"FullSsta"}}`; unit variants
//!   are bare strings: `"Stats"`). Blank lines and lines starting with
//!   `#` are ignored, so a request script can carry comments.
//! * **Responses** are one [`Frame`] per line:
//!   `{"done":<bool>,"payload":<ServeResponse>,"wall_us":<int>}`.
//!   A request produces one or more frames; every frame except
//!   [`ServeResponse::Progress`] is terminal (`done: true`), and a long
//!   [`ServeRequest::Size`] run yields one `Progress` frame per
//!   optimizer pass before its final [`ServeResponse::Sized`].
//!
//! # Determinism
//!
//! Everything inside `payload` is part of the service's determinism
//! contract: replaying the same request script serially produces
//! **byte-identical payloads at every shard count and pool width**. The
//! `wall_us` field is wall-clock and explicitly excluded —
//! [`deterministic_part`] strips it for comparison. The only payloads
//! outside the contract are [`ServeResponse::Busy`] (admission control —
//! never emitted for a serial client, because a caller waits for each
//! answer before sending the next request) and [`ServeResponse::Stats`]
//! (whose per-shard rows depend on the topology by definition).
//!
//! # Decoding
//!
//! The serde shims only serialize, so the inbound direction is a
//! hand-written strict decoder over the [`crate::json`] value tree:
//! unknown variants, unknown fields, missing fields, and wrong types
//! are all errors naming the offending part — a malformed request gets
//! an [`ServeResponse::Error`] frame, never a guess and never a
//! disconnect.
//!
//! # Errors
//!
//! Every [`ServeResponse::Error`] carries a stable machine-readable
//! `code` next to the human message. Workspace-level failures reuse
//! [`vartol::workspace::ErrorCode`]'s kebab-case wire forms verbatim
//! (`"unknown-circuit"`, `"size-out-of-range"`, …); the serve layer
//! adds exactly two of its own: `"bad-request"` for lines that fail
//! protocol decoding or wire-level parameter validation, and
//! `"unavailable"` for a shut-down service or a dead shard worker.
//! Codes may be added, never renamed — clients should branch on `code`
//! and show `message`.

use serde::Value;
use vartol::ssta::EngineKind;
use vartol::workspace::GroupSlackRow;

use crate::json;

/// Wire protocol version, bumped on any request/response schema change.
/// Version 2 added the branch verbs ([`ServeRequest::Fork`] and
/// friends), the typed error payload (`code` + `message`), and the
/// branch counters in [`ShardStats`]. Version 3 added the sequential
/// verbs: `RegisterSequential` (`.bench` text with `DFF` statements),
/// [`ServeRequest::SetClock`], and the clocked queries
/// [`ServeRequest::GroupSlack`], [`ServeRequest::Wns`], and
/// [`ServeRequest::Tns`]. Version 4 added the optimizer selector:
/// [`ServeRequest::Size`] takes optional `optimizer` (`greedy`,
/// `mean_delay`, `lagrangian`, `annealing`) and `yield_deadline`
/// fields, and [`ServeResponse::Sized`] names the optimizer that ran.
/// Version 5 removed EDIF input and folded `RegisterSequential` into
/// [`ServeRequest::Register`]: an old `RegisterSequential` line with
/// `.bench` text decodes to `Register`, and one with a non-null `edif`
/// is a `bad-request`.
/// Reported in [`ServiceStats::protocol`].
pub const PROTOCOL_VERSION: u32 = 5;

/// One request line. Mirrors [`vartol::workspace::Request`] — every
/// query the `Workspace` answers is addressable over the wire — plus
/// the service-level verbs `Register`, `ListCircuits`, `Stats`, and
/// `Shutdown`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum ServeRequest {
    /// Register a circuit on its shard: exactly one of `preset` (a
    /// [`vartol::netlist::generators::presets`] name) or `bench`
    /// (inline ISCAS-85/89 `.bench` text; `DFF` statements make it
    /// sequential) must be given. The answer reports the register
    /// count. Protocol-v4 `RegisterSequential` lines decode to this
    /// verb.
    Register {
        /// Name to register under (and to address later requests to).
        circuit: String,
        /// Generator preset name, if registering a preset.
        preset: Option<String>,
        /// Inline `.bench` netlist text, if registering parsed text.
        bench: Option<String>,
    },
    /// List every registered circuit, across all shards, sorted.
    ListCircuits,
    /// Service statistics: one row per shard (queue, cache, traffic).
    Stats,
    /// Stop accepting requests; the server's accept loop drains and
    /// exits.
    Shutdown,
    /// Full analysis under an engine (see
    /// [`vartol::workspace::Request::Analyze`]). Cacheable.
    Analyze {
        /// Target circuit.
        circuit: String,
        /// Engine to run.
        kind: EngineKind,
    },
    /// Correlated-corner analysis: the die-to-die variance share is the
    /// wire-level model knob (the full [`vartol::ssta::VariationModel`]
    /// surface — named sources, spatial grids — stays a library-level
    /// API). Cacheable.
    AnalyzeUnder {
        /// Target circuit.
        circuit: String,
        /// Engine to run.
        kind: EngineKind,
        /// Fraction of each gate's delay variance moving with the die,
        /// in `(0, 1)`.
        d2d_share: f64,
    },
    /// Arrival moments at a named node. Cacheable.
    Arrival {
        /// Target circuit.
        circuit: String,
        /// Node name.
        node: String,
    },
    /// Worst statistical slack against a required time. Cacheable.
    Slack {
        /// Target circuit.
        circuit: String,
        /// Required time (ps) at every primary output.
        t_req: f64,
        /// σ weight of the `μ − α·σ` ranking.
        alpha: f64,
    },
    /// Most critical nodes. Cacheable.
    Criticality {
        /// Target circuit.
        circuit: String,
        /// How many top nodes (0 = all).
        top: usize,
    },
    /// Monte-Carlo parametric yield at a deadline. Cacheable.
    Yield {
        /// Target circuit.
        circuit: String,
        /// Deadline (ps).
        deadline: f64,
    },
    /// What-if resize of one gate; persists, and invalidates the
    /// circuit's cache entries.
    Resize {
        /// Target circuit.
        circuit: String,
        /// Gate name.
        gate: String,
        /// New size index.
        size: usize,
    },
    /// Full statistical sizing; persists, invalidates the circuit's
    /// cache entries, and streams one [`ServeResponse::Progress`] frame
    /// per optimizer pass (one per restart for the annealing optimizer)
    /// before the final answer.
    Size {
        /// Target circuit.
        circuit: String,
        /// σ weight of the optimizer objective.
        alpha: f64,
        /// Optional cap on optimizer passes (`None` = optimizer
        /// default).
        max_passes: Option<usize>,
        /// Optimizer wire name — `greedy` (default when absent),
        /// `mean_delay`, `lagrangian`, or `annealing`.
        optimizer: Option<String>,
        /// Optimize `P(delay ≤ deadline)` instead of `μ + α·σ`; only
        /// the global optimizers accept this.
        yield_deadline: Option<f64>,
    },
    /// Fork a named branch of the circuit (see
    /// [`vartol::workspace::Request::Fork`]): a private copy of the
    /// circuit's session that persists until committed or dropped.
    Fork {
        /// Target circuit.
        circuit: String,
        /// Name for the new branch (unique per circuit).
        branch: String,
    },
    /// Resize one gate on a named branch. The circuit and every sibling
    /// branch are untouched; no timing runs until
    /// [`ServeRequest::BranchAnalyze`].
    BranchResize {
        /// Target circuit.
        circuit: String,
        /// Branch name (from [`ServeRequest::Fork`]).
        branch: String,
        /// Gate name.
        gate: String,
        /// New size index.
        size: usize,
    },
    /// Analyze a named branch: recomputes only the fanout cone of the
    /// gates resized since its last analysis, bit-identical to a from-scratch analysis at the branch's
    /// sizes. Cacheable — keyed by the **branch's** size fingerprint,
    /// so speculative queries from separate connections never collide
    /// with the parent's entries or each other's.
    BranchAnalyze {
        /// Target circuit.
        circuit: String,
        /// Branch name.
        branch: String,
    },
    /// Commit a named branch back into the circuit (the session takes
    /// over the branch's sizes and analysis; only a branch with pending
    /// resizes is re-timed first); invalidates the circuit's cache
    /// entries like [`ServeRequest::Resize`].
    Commit {
        /// Target circuit.
        circuit: String,
        /// Branch name; consumed on success.
        branch: String,
    },
    /// Discard a named branch. The circuit is untouched.
    DropBranch {
        /// Target circuit.
        circuit: String,
        /// Branch name.
        branch: String,
    },
    /// Evaluate N independent what-if trials as anonymous branches of
    /// one circuit, fanned out in parallel over the shard's workspace
    /// pool — one outcome per trial, in trial order, bit-identical at
    /// every pool width. Each trial is a list of `[gate, size]` pairs
    /// applied to a branch at the circuit's current state, and undone
    /// afterwards; the circuit itself is untouched. Cacheable.
    WhatIf {
        /// Target circuit.
        circuit: String,
        /// The divergent trials, each a list of `[gate, size]` pairs.
        trials: Vec<Vec<(String, usize)>>,
    },
    /// Constrain a circuit under a clock; persists and replaces any
    /// earlier constraint. Required before the clocked queries. Like
    /// `Resize`, this invalidates the circuit's cache entries (the
    /// clock is not part of the cache key).
    SetClock {
        /// Target circuit.
        circuit: String,
        /// Clock period (ps); finite and positive.
        period: f64,
        /// Clock uncertainty (ps); finite, `0 <= uncertainty < period`.
        uncertainty: f64,
    },
    /// Per-path-group setup slack (in→reg, reg→reg, reg→out, in→out)
    /// under the circuit's clock. Cacheable.
    GroupSlack {
        /// Target circuit.
        circuit: String,
        /// Engine whose arrival report the slack folds over.
        kind: EngineKind,
    },
    /// Worst negative setup slack over every endpoint under the
    /// circuit's clock. Cacheable.
    Wns {
        /// Target circuit.
        circuit: String,
        /// Engine whose arrival report the slack folds over.
        kind: EngineKind,
    },
    /// Total negative setup slack under the circuit's clock. Cacheable.
    Tns {
        /// Target circuit.
        circuit: String,
        /// Engine whose arrival report the slack folds over.
        kind: EngineKind,
    },
}

impl ServeRequest {
    /// The circuit this request is routed by, if it addresses one
    /// (service-level verbs return `None` and broadcast to every
    /// shard).
    #[must_use]
    pub fn circuit(&self) -> Option<&str> {
        match self {
            Self::ListCircuits | Self::Stats | Self::Shutdown => None,
            Self::Register { circuit, .. }
            | Self::Analyze { circuit, .. }
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
            | Self::WhatIf { circuit, .. }
            | Self::SetClock { circuit, .. }
            | Self::GroupSlack { circuit, .. }
            | Self::Wns { circuit, .. }
            | Self::Tns { circuit, .. } => Some(circuit),
        }
    }

    /// Whether the answer is a pure function of `(circuit sizes, engine
    /// configuration, request)` — i.e. eligible for the result cache.
    /// Mutating requests and service verbs are not.
    /// [`Self::BranchAnalyze`] qualifies because a branch's answer
    /// depends only on the branch's own sizes (which its cache key
    /// carries), never on the parent it forked from.
    #[must_use]
    pub fn cacheable(&self) -> bool {
        matches!(
            self,
            Self::Analyze { .. }
                | Self::AnalyzeUnder { .. }
                | Self::Arrival { .. }
                | Self::Slack { .. }
                | Self::Criticality { .. }
                | Self::Yield { .. }
                | Self::BranchAnalyze { .. }
                | Self::WhatIf { .. }
                | Self::GroupSlack { .. }
                | Self::Wns { .. }
                | Self::Tns { .. }
        )
    }

    /// Whether a successful answer changes the circuit's sizes or clock,
    /// so its cached answers must be invalidated — the twin of
    /// [`Self::cacheable`].
    #[must_use]
    pub fn mutates(&self) -> bool {
        matches!(
            self,
            Self::Resize { .. } | Self::Size { .. } | Self::Commit { .. } | Self::SetClock { .. }
        )
    }

    /// Serializes to one wire line (no trailing newline).
    #[must_use]
    pub fn to_line(&self) -> String {
        serde_json::to_string(self).expect("requests serialize")
    }

    /// Decodes one wire line.
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed part (bad JSON, unknown
    /// variant or field, wrong type, missing field).
    pub fn from_line(line: &str) -> Result<Self, String> {
        let value = json::parse(line).map_err(|e| format!("bad JSON: {e}"))?;
        decode_request(&value)
    }
}

/// Per-shard counters reported by [`ServeRequest::Stats`].
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Circuits registered on this shard.
    pub circuits: usize,
    /// Requests this shard has fully processed.
    pub served: u64,
    /// Requests rejected with [`ServeResponse::Busy`] at admission.
    pub busy_rejections: u64,
    /// Result-cache hits.
    pub cache_hits: u64,
    /// Result-cache misses (among cacheable requests).
    pub cache_misses: u64,
    /// Entries evicted by the LRU policy.
    pub cache_evictions: u64,
    /// Entries dropped by `Resize`/`Size`/`Commit`/`SetClock`
    /// invalidation.
    pub cache_invalidations: u64,
    /// Live (uncommitted, undropped) branches across this shard's
    /// circuits.
    pub branches_live: u64,
    /// Branches committed back into their circuits, lifetime.
    pub branches_committed: u64,
    /// Branches discarded via `DropBranch`, lifetime.
    pub branches_dropped: u64,
    /// Resolved propagation thread width of this shard's analytic
    /// engines (`SstaConfig::threads` after the 0-means-all-CPUs
    /// resolution) — the width the level-ordered arena fans each
    /// level out over. Purely informational: answers are
    /// bit-identical at every width.
    pub propagation_threads: usize,
    /// Deepest propagation schedule among this shard's registered
    /// circuits (level count of the level-ordered arena; 0 when the
    /// shard is empty). Levels bound the serial critical path of a
    /// propagation pass — per-level width is where the threads help.
    pub propagation_levels: usize,
}

/// Service-wide statistics: one [`ShardStats`] row per shard.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ServiceStats {
    /// The wire protocol version this service speaks
    /// ([`PROTOCOL_VERSION`]).
    pub protocol: u32,
    /// Per-shard rows, in shard order.
    pub shards: Vec<ShardStats>,
}

impl ServiceStats {
    /// Total cache hits across shards.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.shards.iter().map(|s| s.cache_hits).sum()
    }

    /// Total cache misses across shards.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.shards.iter().map(|s| s.cache_misses).sum()
    }

    /// Cache hit rate over all cacheable traffic (0 when there was
    /// none).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits() + self.misses();
        if total == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.hits() as f64 / total as f64
            }
        }
    }
}

/// One response payload — the deterministic part of a [`Frame`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum ServeResponse {
    /// A circuit was registered (with its basic shape, so clients can
    /// sanity-check what they loaded).
    Registered {
        /// Registered name.
        circuit: String,
        /// Cell-gate count.
        gates: usize,
        /// Logic depth.
        depth: usize,
        /// Register (DFF) count — 0 for purely combinational circuits.
        registers: usize,
    },
    /// All registered circuits, sorted (shard-count independent).
    Circuits {
        /// Sorted circuit names.
        circuits: Vec<String>,
    },
    /// Per-shard service statistics.
    Stats {
        /// The statistics snapshot.
        stats: ServiceStats,
    },
    /// Acknowledgement of [`ServeRequest::Shutdown`].
    ShuttingDown,
    /// A streamed optimizer pass row (non-terminal: `done` is
    /// `false`), passed through from the optimizer's report as is, so
    /// its meaning depends on the optimizer:
    ///
    /// * `greedy` — one frame per pass; `pass` is 0-based and the
    ///   moments and area are taken at the start of the pass.
    /// * `lagrangian` — one frame per outer iteration, plus one for the
    ///   final polish sweep if it moved gates; `pass` is 1-based and the
    ///   moments and area are taken at the end of the iteration.
    /// * `annealing` — one frame per restart; `pass` is 1-based and the
    ///   moments and area are those of the restart's end state.
    /// * `mean_delay` — a single frame whose `pass` is the total pass
    ///   count, with the final moments and area and `resized` the gates
    ///   whose size differs from the input.
    Progress {
        /// Circuit being sized.
        circuit: String,
        /// Pass index (see above for its base).
        pass: usize,
        /// Circuit mean (ps) recorded for the pass.
        mu: f64,
        /// Circuit σ (ps) recorded for the pass.
        sigma: f64,
        /// Total area recorded for the pass.
        area: f64,
        /// Gates resized in the pass (for `mean_delay`, in the whole
        /// run).
        resized: usize,
    },
    /// Answer to [`ServeRequest::Analyze`] / `AnalyzeUnder`.
    Analysis {
        /// Engine that ran.
        kind: EngineKind,
        /// Circuit mean delay (ps).
        mu: f64,
        /// Circuit delay σ (ps).
        sigma: f64,
        /// Statistically worst primary output.
        worst_output: String,
    },
    /// Answer to [`ServeRequest::Arrival`].
    Arrival {
        /// Queried node.
        node: String,
        /// Arrival mean (ps).
        mu: f64,
        /// Arrival σ (ps).
        sigma: f64,
    },
    /// Answer to [`ServeRequest::Slack`].
    Slack {
        /// Worst statistical slack (ps).
        worst: f64,
        /// Node realizing it.
        worst_node: String,
    },
    /// Answer to [`ServeRequest::Criticality`].
    Criticality {
        /// `(node, criticality)` pairs, most critical first.
        ranking: Vec<(String, f64)>,
    },
    /// Answer to [`ServeRequest::Yield`].
    Yield {
        /// Fraction of Monte-Carlo samples meeting the deadline.
        fraction: f64,
    },
    /// Answer to [`ServeRequest::Resize`].
    Resized {
        /// Circuit mean after the incremental refresh (ps).
        mu: f64,
        /// Circuit σ after the refresh (ps).
        sigma: f64,
        /// Total area after the resize.
        area: f64,
    },
    /// Final answer to [`ServeRequest::Size`], after one
    /// [`ServeResponse::Progress`] frame per pass row.
    Sized {
        /// Circuit mean after sizing (ps): what the next FULLSSTA
        /// `Analyze` answers.
        mu: f64,
        /// Circuit σ after sizing (ps), likewise.
        sigma: f64,
        /// Total area after sizing.
        area: f64,
        /// Pass rows reported — the number of `Progress` frames sent
        /// (1 for `mean_delay`, whatever its pass count).
        passes: usize,
        /// How many gates the run left at a size other than their size
        /// before it.
        resized: usize,
        /// Wire name of the optimizer that ran.
        optimizer: String,
    },
    /// Answer to [`ServeRequest::Fork`].
    Forked {
        /// The new branch's name.
        branch: String,
        /// Size fingerprint of the fork point the branch started from,
        /// as a 16-digit hex string (u64 fingerprints do not survive
        /// JSON's f64 numbers).
        fingerprint: String,
    },
    /// Answer to [`ServeRequest::BranchResize`].
    BranchResized {
        /// The branch.
        branch: String,
        /// How many gates now differ from the fork point.
        diverged: usize,
    },
    /// Answer to [`ServeRequest::BranchAnalyze`] (and each successful
    /// [`ServeRequest::WhatIf`] trial, named `trial-<i>`).
    BranchAnalysis {
        /// The branch.
        branch: String,
        /// Circuit mean at the branch's sizes (ps).
        mu: f64,
        /// Circuit σ at the branch's sizes (ps).
        sigma: f64,
        /// Total area at the branch's sizes.
        area: f64,
    },
    /// Answer to [`ServeRequest::Commit`].
    Committed {
        /// The committed (consumed) branch.
        branch: String,
        /// Circuit mean after adoption (ps).
        mu: f64,
        /// Circuit σ after adoption (ps).
        sigma: f64,
        /// Total area after adoption.
        area: f64,
    },
    /// Answer to [`ServeRequest::DropBranch`].
    Dropped {
        /// The discarded branch.
        branch: String,
    },
    /// Answer to [`ServeRequest::WhatIf`]: one payload per trial, in
    /// trial order — [`ServeResponse::BranchAnalysis`] on success,
    /// [`ServeResponse::Error`] for a trial that failed validation or
    /// panicked (other trials are unaffected).
    WhatIf {
        /// Per-trial outcomes.
        outcomes: Vec<ServeResponse>,
    },
    /// Answer to [`ServeRequest::SetClock`].
    ClockSet {
        /// The accepted clock period (ps).
        period: f64,
        /// The accepted clock uncertainty (ps).
        uncertainty: f64,
    },
    /// Answer to [`ServeRequest::GroupSlack`]: one row per path group,
    /// in the canonical in2reg/reg2reg/reg2out/in2out order.
    GroupSlack {
        /// Engine that produced the arrival report.
        kind: EngineKind,
        /// Per-group setup-slack rows (always all four groups).
        groups: Vec<GroupSlackRow>,
    },
    /// Answer to [`ServeRequest::Wns`].
    Wns {
        /// Engine that produced the arrival report.
        kind: EngineKind,
        /// Worst (minimum) mean setup slack over every endpoint (ps).
        wns: f64,
    },
    /// Answer to [`ServeRequest::Tns`].
    Tns {
        /// Engine that produced the arrival report.
        kind: EngineKind,
        /// Sum of negative mean endpoint slacks (ps, `<= 0`).
        tns: f64,
    },
    /// Admission control: the target shard's bounded queue is full.
    /// The request was **not** enqueued and no session was touched —
    /// retry later.
    Busy {
        /// The rejecting shard.
        shard: usize,
        /// Its configured queue depth.
        depth: usize,
    },
    /// The request was malformed, addressed an unknown circuit/node,
    /// or failed inside an engine (the circuit's session is recovered —
    /// see [`vartol::workspace`]'s fault-isolation contract).
    Error {
        /// Stable machine-readable failure code (see the
        /// [module docs](self#errors)).
        code: String,
        /// Human-readable cause.
        message: String,
    },
}

impl ServeResponse {
    /// Builds a protocol-boundary error payload (code
    /// `"bad-request"`) — for lines that fail decoding or wire-level
    /// parameter validation.
    pub fn error(message: impl Into<String>) -> Self {
        Self::error_with("bad-request", message)
    }

    /// Builds an error payload with an explicit machine-readable code.
    pub fn error_with(code: impl Into<String>, message: impl Into<String>) -> Self {
        Self::Error {
            code: code.into(),
            message: message.into(),
        }
    }

    /// Builds a service-availability error payload (code
    /// `"unavailable"`) — a shut-down service or a dead shard worker.
    pub fn unavailable(message: impl Into<String>) -> Self {
        Self::error_with("unavailable", message)
    }

    /// Whether this payload terminates its request's frame stream.
    #[must_use]
    pub fn is_terminal(&self) -> bool {
        !matches!(self, Self::Progress { .. })
    }
}

/// One response line: the deterministic `payload` plus the wall-clock
/// `wall_us` (microseconds), which is *excluded* from the determinism
/// contract. Field order is fixed by this struct, so `wall_us` is
/// always the trailing field and [`deterministic_part`] can strip it
/// textually.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Frame {
    /// `false` only for streamed [`ServeResponse::Progress`] frames.
    pub done: bool,
    /// The deterministic payload.
    pub payload: ServeResponse,
    /// Wall-clock of the evaluation so far, in microseconds.
    pub wall_us: u64,
}

impl Frame {
    /// Wraps a payload, stamping `done` from
    /// [`ServeResponse::is_terminal`].
    #[must_use]
    pub fn new(payload: ServeResponse, wall_us: u64) -> Self {
        Self {
            done: payload.is_terminal(),
            payload,
            wall_us,
        }
    }

    /// Serializes to one wire line (no trailing newline).
    #[must_use]
    pub fn to_line(&self) -> String {
        serde_json::to_string(self).expect("frames serialize")
    }
}

/// Strips the wall-clock suffix from a serialized [`Frame`] line,
/// returning the deterministic prefix (`{"done":…,"payload":…`) that
/// the shard/pool-width determinism suite compares byte-for-byte.
#[must_use]
pub fn deterministic_part(line: &str) -> &str {
    match line.rfind(",\"wall_us\":") {
        Some(i) => &line[..i],
        None => line,
    }
}

// ---------------------------------------------------------------------
// Decoding (requests only — the server never parses responses, and
// clients that need typed responses decode the few payloads they use).
// ---------------------------------------------------------------------

fn decode_request(value: &Value) -> Result<ServeRequest, String> {
    match value {
        Value::String(tag) => match tag.as_str() {
            "ListCircuits" => Ok(ServeRequest::ListCircuits),
            "Stats" => Ok(ServeRequest::Stats),
            "Shutdown" => Ok(ServeRequest::Shutdown),
            other => Err(format!("unknown request `{other}`")),
        },
        Value::Object(fields) => {
            let [(tag, body)] = fields.as_slice() else {
                return Err(format!(
                    "a request object must have exactly one variant key, got {}",
                    fields.len()
                ));
            };
            let f = Fields::new(tag, body)?;
            let request = match tag.as_str() {
                "Register" => ServeRequest::Register {
                    circuit: f.string("circuit")?,
                    preset: f.opt_string("preset")?,
                    bench: f.opt_string("bench")?,
                },
                "Analyze" => ServeRequest::Analyze {
                    circuit: f.string("circuit")?,
                    kind: f.engine_kind("kind")?,
                },
                "AnalyzeUnder" => ServeRequest::AnalyzeUnder {
                    circuit: f.string("circuit")?,
                    kind: f.engine_kind("kind")?,
                    d2d_share: f.number("d2d_share")?,
                },
                "Arrival" => ServeRequest::Arrival {
                    circuit: f.string("circuit")?,
                    node: f.string("node")?,
                },
                "Slack" => ServeRequest::Slack {
                    circuit: f.string("circuit")?,
                    t_req: f.number("t_req")?,
                    alpha: f.number("alpha")?,
                },
                "Criticality" => ServeRequest::Criticality {
                    circuit: f.string("circuit")?,
                    top: f.index("top")?,
                },
                "Yield" => ServeRequest::Yield {
                    circuit: f.string("circuit")?,
                    deadline: f.number("deadline")?,
                },
                "Resize" => ServeRequest::Resize {
                    circuit: f.string("circuit")?,
                    gate: f.string("gate")?,
                    size: f.index("size")?,
                },
                "Size" => ServeRequest::Size {
                    circuit: f.string("circuit")?,
                    alpha: f.number("alpha")?,
                    max_passes: f.opt_index("max_passes")?,
                    optimizer: f.opt_string("optimizer")?,
                    yield_deadline: f.opt_number("yield_deadline")?,
                },
                "Fork" => ServeRequest::Fork {
                    circuit: f.string("circuit")?,
                    branch: f.string("branch")?,
                },
                "BranchResize" => ServeRequest::BranchResize {
                    circuit: f.string("circuit")?,
                    branch: f.string("branch")?,
                    gate: f.string("gate")?,
                    size: f.index("size")?,
                },
                "BranchAnalyze" => ServeRequest::BranchAnalyze {
                    circuit: f.string("circuit")?,
                    branch: f.string("branch")?,
                },
                "Commit" => ServeRequest::Commit {
                    circuit: f.string("circuit")?,
                    branch: f.string("branch")?,
                },
                "DropBranch" => ServeRequest::DropBranch {
                    circuit: f.string("circuit")?,
                    branch: f.string("branch")?,
                },
                "WhatIf" => ServeRequest::WhatIf {
                    circuit: f.string("circuit")?,
                    trials: f.trials("trials")?,
                },
                "RegisterSequential" => return decode_register_sequential(&f),
                "SetClock" => ServeRequest::SetClock {
                    circuit: f.string("circuit")?,
                    period: f.number("period")?,
                    uncertainty: f.number("uncertainty")?,
                },
                "GroupSlack" => ServeRequest::GroupSlack {
                    circuit: f.string("circuit")?,
                    kind: f.engine_kind("kind")?,
                },
                "Wns" => ServeRequest::Wns {
                    circuit: f.string("circuit")?,
                    kind: f.engine_kind("kind")?,
                },
                "Tns" => ServeRequest::Tns {
                    circuit: f.string("circuit")?,
                    kind: f.engine_kind("kind")?,
                },
                other => return Err(format!("unknown request `{other}`")),
            };
            f.reject_unknown(&request)?;
            Ok(request)
        }
        other => Err(format!(
            "a request must be a string or object, got {other:?}"
        )),
    }
}

/// Decodes a protocol-v4 `RegisterSequential` line as the
/// [`ServeRequest::Register`] it always was, apart from EDIF input,
/// which protocol v5 removed. The old verb's fields stay exactly as
/// strict: `preset` is still an unknown field here.
fn decode_register_sequential(f: &Fields<'_>) -> Result<ServeRequest, String> {
    let circuit = f.string("circuit")?;
    let edif = f.opt_string("edif")?;
    let bench = f.opt_string("bench")?;
    f.reject_fields_outside(|name| matches!(name, "circuit" | "edif" | "bench"))?;
    if edif.is_some() {
        return Err("EDIF input was removed in protocol v5; \
                    register `.bench` text with `Register` instead"
            .to_owned());
    }
    Ok(ServeRequest::Register {
        circuit,
        preset: None,
        bench,
    })
}

/// Strict field accessor over one variant body: every lookup is typed,
/// and any field the variant does not consume is rejected.
struct Fields<'a> {
    tag: &'a str,
    fields: &'a [(String, Value)],
}

impl<'a> Fields<'a> {
    fn new(tag: &'a str, body: &'a Value) -> Result<Self, String> {
        let Value::Object(fields) = body else {
            return Err(format!("`{tag}` body must be an object"));
        };
        for (i, (name, _)) in fields.iter().enumerate() {
            if fields.iter().take(i).any(|(n, _)| n == name) {
                return Err(format!("`{tag}` has duplicate field `{name}`"));
            }
        }
        Ok(Self { tag, fields })
    }

    fn get(&self, name: &str) -> Option<&'a Value> {
        self.fields.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    fn required(&self, name: &str) -> Result<&'a Value, String> {
        self.get(name)
            .ok_or_else(|| format!("`{}` is missing field `{name}`", self.tag))
    }

    fn string(&self, name: &str) -> Result<String, String> {
        match self.required(name)? {
            Value::String(s) => Ok(s.clone()),
            _ => Err(format!("`{}.{name}` must be a string", self.tag)),
        }
    }

    fn opt_string(&self, name: &str) -> Result<Option<String>, String> {
        match self.get(name) {
            None | Some(Value::Null) => Ok(None),
            Some(Value::String(s)) => Ok(Some(s.clone())),
            Some(_) => Err(format!("`{}.{name}` must be a string or null", self.tag)),
        }
    }

    fn number(&self, name: &str) -> Result<f64, String> {
        match self.required(name)? {
            Value::Number(x) => Ok(*x),
            _ => Err(format!("`{}.{name}` must be a number", self.tag)),
        }
    }

    fn index(&self, name: &str) -> Result<usize, String> {
        match self.required(name)? {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            Value::Number(x) if x.fract() == 0.0 && *x >= 0.0 && *x <= 2u64.pow(53) as f64 => {
                Ok(*x as usize)
            }
            _ => Err(format!(
                "`{}.{name}` must be a non-negative integer",
                self.tag
            )),
        }
    }

    fn opt_index(&self, name: &str) -> Result<Option<usize>, String> {
        match self.get(name) {
            None | Some(Value::Null) => Ok(None),
            Some(_) => self.index(name).map(Some),
        }
    }

    fn opt_number(&self, name: &str) -> Result<Option<f64>, String> {
        match self.get(name) {
            None | Some(Value::Null) => Ok(None),
            Some(_) => self.number(name).map(Some),
        }
    }

    /// A what-if trial list: an array of trials, each an array of
    /// `[gate, size]` pairs (exactly how the 2-tuples serialize).
    fn trials(&self, name: &str) -> Result<Vec<Vec<(String, usize)>>, String> {
        let shape = || {
            format!(
                "`{}.{name}` must be an array of trials, \
                 each an array of [gate, size] pairs",
                self.tag
            )
        };
        let Value::Array(trials) = self.required(name)? else {
            return Err(shape());
        };
        trials
            .iter()
            .map(|trial| {
                let Value::Array(pairs) = trial else {
                    return Err(shape());
                };
                pairs
                    .iter()
                    .map(|pair| {
                        let Value::Array(kv) = pair else {
                            return Err(shape());
                        };
                        match kv.as_slice() {
                            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                            [Value::String(gate), Value::Number(x)]
                                if x.fract() == 0.0 && *x >= 0.0 && *x <= 2u64.pow(53) as f64 =>
                            {
                                Ok((gate.clone(), *x as usize))
                            }
                            _ => Err(shape()),
                        }
                    })
                    .collect()
            })
            .collect()
    }

    fn engine_kind(&self, name: &str) -> Result<EngineKind, String> {
        match self.required(name)? {
            Value::String(s) => match s.as_str() {
                "Dsta" => Ok(EngineKind::Dsta),
                "Fassta" => Ok(EngineKind::Fassta),
                "FullSsta" => Ok(EngineKind::FullSsta),
                "MonteCarlo" => Ok(EngineKind::MonteCarlo),
                other => Err(format!(
                    "`{}.{name}`: unknown engine `{other}` \
                     (Dsta|Fassta|FullSsta|MonteCarlo)",
                    self.tag
                )),
            },
            _ => Err(format!(
                "`{}.{name}` must be an engine-kind string",
                self.tag
            )),
        }
    }

    /// Rejects fields the decoded request did not consume, by
    /// re-serializing the request and diffing field names — keeps the
    /// decoder strict without a per-variant allowlist to drift.
    fn reject_unknown(&self, decoded: &ServeRequest) -> Result<(), String> {
        let Value::Object(tagged) = serde::Serialize::to_value(decoded) else {
            return Ok(());
        };
        let Some(Value::Object(known)) = tagged.first().map(|(_, v)| v) else {
            return Ok(());
        };
        self.reject_fields_outside(|name| known.iter().any(|(n, _)| n == name))
    }

    /// Rejects the first field whose name `known` does not accept.
    fn reject_fields_outside(&self, known: impl Fn(&str) -> bool) -> Result<(), String> {
        match self.fields.iter().find(|(name, _)| !known(name)) {
            Some((name, _)) => Err(format!("`{}` has unknown field `{name}`", self.tag)),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(request: &ServeRequest) {
        let line = request.to_line();
        let back =
            ServeRequest::from_line(&line).unwrap_or_else(|e| panic!("`{line}` must decode: {e}"));
        assert_eq!(&back, request, "{line}");
    }

    #[test]
    fn every_request_round_trips_through_the_wire() {
        let requests = vec![
            ServeRequest::Register {
                circuit: "adder_8".into(),
                preset: Some("adder_8".into()),
                bench: None,
            },
            ServeRequest::Register {
                circuit: "tiny".into(),
                preset: None,
                bench: Some("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n".into()),
            },
            ServeRequest::ListCircuits,
            ServeRequest::Stats,
            ServeRequest::Shutdown,
            ServeRequest::Analyze {
                circuit: "c17".into(),
                kind: EngineKind::FullSsta,
            },
            ServeRequest::AnalyzeUnder {
                circuit: "c17".into(),
                kind: EngineKind::MonteCarlo,
                d2d_share: 0.6,
            },
            ServeRequest::Arrival {
                circuit: "c17".into(),
                node: "n22".into(),
            },
            ServeRequest::Slack {
                circuit: "c17".into(),
                t_req: 1500.0,
                alpha: 3.0,
            },
            ServeRequest::Criticality {
                circuit: "c17".into(),
                top: 5,
            },
            ServeRequest::Yield {
                circuit: "c17".into(),
                deadline: 2500.0,
            },
            ServeRequest::Resize {
                circuit: "c17".into(),
                gate: "n22".into(),
                size: 3,
            },
            ServeRequest::Size {
                circuit: "c17".into(),
                alpha: 3.0,
                max_passes: Some(2),
                optimizer: None,
                yield_deadline: None,
            },
            ServeRequest::Size {
                circuit: "c17".into(),
                alpha: 9.0,
                max_passes: None,
                optimizer: None,
                yield_deadline: None,
            },
            // Protocol v4: the optimizer selector and yield-deadline
            // fields round-trip when populated.
            ServeRequest::Size {
                circuit: "c17".into(),
                alpha: 3.0,
                max_passes: Some(8),
                optimizer: Some("lagrangian".into()),
                yield_deadline: Some(2500.0),
            },
            ServeRequest::Fork {
                circuit: "c17".into(),
                branch: "spec".into(),
            },
            ServeRequest::BranchResize {
                circuit: "c17".into(),
                branch: "spec".into(),
                gate: "n22".into(),
                size: 4,
            },
            ServeRequest::BranchAnalyze {
                circuit: "c17".into(),
                branch: "spec".into(),
            },
            ServeRequest::Commit {
                circuit: "c17".into(),
                branch: "spec".into(),
            },
            ServeRequest::DropBranch {
                circuit: "c17".into(),
                branch: "spec".into(),
            },
            ServeRequest::WhatIf {
                circuit: "c17".into(),
                trials: vec![
                    vec![("n22".into(), 3), ("n23".into(), 1)],
                    vec![("n22".into(), 4)],
                    vec![],
                ],
            },
            ServeRequest::WhatIf {
                circuit: "c17".into(),
                trials: vec![],
            },
            ServeRequest::SetClock {
                circuit: "s27".into(),
                period: 750.0,
                uncertainty: 25.0,
            },
            ServeRequest::GroupSlack {
                circuit: "s27".into(),
                kind: EngineKind::FullSsta,
            },
            ServeRequest::Wns {
                circuit: "s27".into(),
                kind: EngineKind::Dsta,
            },
            ServeRequest::Tns {
                circuit: "s27".into(),
                kind: EngineKind::MonteCarlo,
            },
        ];
        for request in &requests {
            round_trip(request);
        }
    }

    #[test]
    fn a_v3_size_line_decodes_with_default_optimizer_fields() {
        // Clients that predate protocol v4 omit the selector fields;
        // the decoder must fill both with `None` (greedy, no yield
        // target) rather than reject the line.
        let line = "{\"Size\":{\"circuit\":\"c17\",\"alpha\":3.0,\"max_passes\":2}}";
        let back = ServeRequest::from_line(line).expect("v3 line decodes");
        assert_eq!(
            back,
            ServeRequest::Size {
                circuit: "c17".into(),
                alpha: 3.0,
                max_passes: Some(2),
                optimizer: None,
                yield_deadline: None,
            }
        );
    }

    #[test]
    fn a_v4_register_sequential_line_decodes_to_register() {
        // Protocol v5 folded the verb into `Register`: a `.bench` line
        // decodes the same with a null `edif` and without one.
        let expected = ServeRequest::Register {
            circuit: "s27".into(),
            preset: None,
            bench: Some("INPUT(a)\nOUTPUT(q)\nq = DFF(a)\n".into()),
        };
        for line in [
            r#"{"RegisterSequential":{"circuit":"s27","edif":null,"bench":"INPUT(a)\nOUTPUT(q)\nq = DFF(a)\n"}}"#,
            r#"{"RegisterSequential":{"circuit":"s27","bench":"INPUT(a)\nOUTPUT(q)\nq = DFF(a)\n"}}"#,
        ] {
            assert_eq!(
                ServeRequest::from_line(line).expect("v4 line decodes"),
                expected,
                "{line}"
            );
        }
    }

    #[test]
    fn a_v4_edif_line_fails_to_decode_naming_the_way_in() {
        let line = r#"{"RegisterSequential":{"circuit":"t","edif":"(edif t (cell t (interface (output q))))","bench":null}}"#;
        let err = ServeRequest::from_line(line).expect_err("EDIF input is gone");
        assert!(err.contains("EDIF input was removed"), "{err}");
        assert!(err.contains("`.bench` text"), "{err}");
    }

    #[test]
    fn a_v4_register_sequential_line_still_rejects_preset() {
        for line in [
            r#"{"RegisterSequential":{"circuit":"x","preset":"adder_8","edif":null,"bench":null}}"#,
            r#"{"RegisterSequential":{"circuit":"x","preset":"adder_8"}}"#,
        ] {
            let err = ServeRequest::from_line(line).expect_err(line);
            assert_eq!(err, "`RegisterSequential` has unknown field `preset`");
        }
    }

    #[test]
    fn decoder_is_strict() {
        for (line, needle) in [
            ("{", "bad JSON"),
            ("\"Nope\"", "unknown request"),
            (
                "{\"Analyze\":{\"circuit\":\"c17\"}}",
                "missing field `kind`",
            ),
            (
                "{\"Analyze\":{\"circuit\":\"c17\",\"kind\":\"Warp\"}}",
                "unknown engine",
            ),
            (
                "{\"Analyze\":{\"circuit\":\"c17\",\"kind\":\"Dsta\",\"x\":1}}",
                "unknown field `x`",
            ),
            (
                "{\"Analyze\":{\"circuit\":7,\"kind\":\"Dsta\"}}",
                "must be a string",
            ),
            (
                "{\"Resize\":{\"circuit\":\"c\",\"gate\":\"g\",\"size\":-1}}",
                "non-negative integer",
            ),
            (
                "{\"Resize\":{\"circuit\":\"c\",\"gate\":\"g\",\"size\":1.5}}",
                "non-negative integer",
            ),
            (
                "{\"Analyze\":{\"circuit\":\"a\",\"kind\":\"Dsta\"},\"Stats\":{}}",
                "exactly one variant",
            ),
            ("[1]", "must be a string or object"),
            (
                "{\"Slack\":{\"circuit\":\"c\",\"circuit\":\"d\",\"t_req\":1,\"alpha\":1}}",
                "duplicate field",
            ),
            ("{\"Fork\":{\"circuit\":\"c\"}}", "missing field `branch`"),
            (
                "{\"Fork\":{\"circuit\":\"c\",\"branch\":\"b\",\"x\":1}}",
                "unknown field `x`",
            ),
            (
                "{\"WhatIf\":{\"circuit\":\"c\",\"trials\":7}}",
                "[gate, size] pairs",
            ),
            (
                "{\"WhatIf\":{\"circuit\":\"c\",\"trials\":[[[\"g\",1.5]]]}}",
                "[gate, size] pairs",
            ),
            (
                "{\"WhatIf\":{\"circuit\":\"c\",\"trials\":[[[\"g\"]]]}}",
                "[gate, size] pairs",
            ),
            (
                "{\"SetClock\":{\"circuit\":\"c\",\"period\":100}}",
                "missing field `uncertainty`",
            ),
            (
                "{\"GroupSlack\":{\"circuit\":\"c\",\"kind\":\"Warp\"}}",
                "unknown engine",
            ),
            (
                "{\"Wns\":{\"circuit\":\"c\",\"kind\":\"Dsta\",\"period\":5}}",
                "unknown field `period`",
            ),
        ] {
            let err = ServeRequest::from_line(line).expect_err(line);
            assert!(err.contains(needle), "`{line}`: `{err}` missing `{needle}`");
        }
    }

    #[test]
    fn frames_mark_progress_non_terminal_and_strip_wall() {
        let progress = Frame::new(
            ServeResponse::Progress {
                circuit: "c17".into(),
                pass: 0,
                mu: 1.0,
                sigma: 0.1,
                area: 10.0,
                resized: 3,
            },
            1234,
        );
        assert!(!progress.done);
        let done = Frame::new(ServeResponse::error("x"), 77);
        assert!(done.done);

        let line = done.to_line();
        assert!(line.ends_with(",\"wall_us\":77}"), "{line}");
        assert!(!deterministic_part(&line).contains("wall_us"));
        // Two frames differing only in wall-clock compare equal on the
        // deterministic part.
        let other = Frame::new(ServeResponse::error("x"), 9999).to_line();
        assert_eq!(deterministic_part(&line), deterministic_part(&other));
    }

    #[test]
    fn stats_aggregate_hit_rate() {
        let stats = ServiceStats {
            protocol: PROTOCOL_VERSION,
            shards: vec![
                ShardStats {
                    shard: 0,
                    circuits: 1,
                    served: 10,
                    busy_rejections: 0,
                    cache_hits: 3,
                    cache_misses: 1,
                    cache_evictions: 0,
                    cache_invalidations: 0,
                    branches_live: 2,
                    branches_committed: 1,
                    branches_dropped: 0,
                    propagation_threads: 1,
                    propagation_levels: 12,
                },
                ShardStats {
                    shard: 1,
                    circuits: 0,
                    served: 0,
                    busy_rejections: 2,
                    cache_hits: 0,
                    cache_misses: 0,
                    cache_evictions: 0,
                    cache_invalidations: 0,
                    branches_live: 0,
                    branches_committed: 0,
                    branches_dropped: 0,
                    propagation_threads: 1,
                    propagation_levels: 0,
                },
            ],
        };
        assert_eq!(stats.hits(), 3);
        assert_eq!(stats.misses(), 1);
        assert!((stats.hit_rate() - 0.75).abs() < 1e-12);
        let empty = ServiceStats {
            protocol: PROTOCOL_VERSION,
            shards: vec![],
        };
        assert_eq!(empty.hit_rate(), 0.0);
    }

    #[test]
    fn error_payloads_carry_stable_codes() {
        let boundary = ServeResponse::error("not json");
        assert!(
            matches!(&boundary, ServeResponse::Error { code, .. } if code == "bad-request"),
            "{boundary:?}"
        );
        let down = ServeResponse::unavailable("service is shut down");
        assert!(
            matches!(&down, ServeResponse::Error { code, .. } if code == "unavailable"),
            "{down:?}"
        );
        let typed = ServeResponse::error_with("unknown-circuit", "unknown circuit `ghost`");
        let line = Frame::new(typed, 0).to_line();
        assert!(line.contains("\"code\":\"unknown-circuit\""), "{line}");
        assert!(line.contains("\"message\":"), "{line}");
    }
}
