//! # vartol — statistical gate sizing for process-variation tolerance
//!
//! Umbrella crate re-exporting the full `vartol` workspace: a Rust
//! reproduction of *"Improving the Process-Variation Tolerance of Digital
//! Circuits Using Gate Sizing and Statistical Techniques"* (Neiroukh & Song,
//! DATE 2005).
//!
//! **Front-door documents** (repo root): `README.md` — crate map,
//! quickstart, how to run tests/benches/`vartol-suite`, determinism
//! guarantees — and `ARCHITECTURE.md` — the layer diagram, engine data
//! flow, session/`Workspace` lifecycle, and the determinism design.
//! Both live next to this crate's `Cargo.toml`; start there when
//! navigating the workspace.
//!
//! The workspace is organized bottom-up:
//!
//! * [`stats`] — random-variable toolkit: [`stats::Moments`], Clark's max,
//!   the paper's fast max approximation, discrete PDFs, Monte Carlo.
//! * [`liberty`] — a synthetic 90nm lookup-table standard-cell library with
//!   6–8 sizes per gate type and a proportional + random variation model.
//! * [`netlist`] — gate-level combinational netlists, an ISCAS-85 `.bench`
//!   parser, and structural generators for the paper's benchmark suite.
//! * [`ssta`] — timing engines behind one front door,
//!   [`EngineKind::analyze`](ssta::EngineKind::analyze): deterministic STA, the
//!   accurate discrete-PDF engine (FULLSSTA), the fast moment engine
//!   (FASSTA), Monte-Carlo reference timing, WNSS path tracing — plus the
//!   incremental [`TimingSession`](ssta::TimingSession), an **owned
//!   handle** (an `Arc<Library>` and the netlist itself live inside, no
//!   lifetime parameters) that optimizers and services keep alive across
//!   thousands of queries. The Monte-Carlo reference samples in parallel
//!   on a scoped worker pool ([`ssta::ScopedPool`],
//!   [`SstaConfig::threads`](ssta::SstaConfig)) while staying
//!   **bit-identical for every thread count**: the sample budget splits
//!   into fixed chunks, each chunk draws from its own
//!   `(seed, chunk_index)`-derived RNG stream, and chunk summaries —
//!   mergeable Welford accumulators ([`stats::RunningMoments`]) — combine
//!   in chunk order.
//! * [`core`] — the paper's contribution: the `StatisticalGreedy` sizer with
//!   the weighted `μ + α·σ` objective, plus deterministic baselines. Both
//!   sizers hold their library through a shared handle (no lifetimes).
//!   `StatisticalGreedy`'s candidate-evaluation inner loop is parallel:
//!   each outer pass gives every worker its own netlist copy, scores
//!   every `(gate, size)` candidate against the session's frozen
//!   pass-start arrivals concurrently, and merges the bids in path order — so the
//!   chosen resizes, final moments, and area are bit-identical for
//!   every thread count (`SizerConfig::with_threads`, 0 = all CPUs), just
//!   like the Monte-Carlo engine.
//! * [`workspace`] — the service layer this crate adds on top:
//!   [`Workspace`] registers named circuits (`.bench` files, generator
//!   presets, or pre-built netlists) and serves **batches of typed
//!   requests** — [`Analyze`](workspace::Request::Analyze) under any
//!   engine, [`AnalyzeUnder`](workspace::Request::AnalyzeUnder) for
//!   correlated-corner analyses under an explicit
//!   [`VariationModel`](ssta::VariationModel) (die-to-die / spatial
//!   sources, see [`ssta::variation`]),
//!   [`Arrival`](workspace::Request::Arrival) /
//!   [`Slack`](workspace::Request::Slack) /
//!   [`Criticality`](workspace::Request::Criticality) queries,
//!   Monte-Carlo [`Yield`](workspace::Request::Yield) at a deadline,
//!   what-if [`Resize`](workspace::Request::Resize)s, full
//!   [`Size`](workspace::Request::Size) optimization runs, and named
//!   circuit versions (forked sessions) —
//!   [`Fork`](workspace::Request::Fork) /
//!   [`BranchResize`](workspace::Request::BranchResize) /
//!   [`BranchAnalyze`](workspace::Request::BranchAnalyze) /
//!   [`Commit`](workspace::Request::Commit) /
//!   [`DropBranch`](workspace::Request::DropBranch), plus
//!   [`WhatIfBatch`](workspace::Request::WhatIfBatch) for N speculative
//!   trials evaluated in parallel — fanned out
//!   over a [`ScopedPool`](ssta::ScopedPool) with one cached session per
//!   circuit, answered in request order, bit-identical at every thread
//!   count, with malformed or panicking requests isolated to their own
//!   [`Answer::Error`].
//!
//! One layer sits *above* this crate and is therefore not re-exported
//! here (it depends on `vartol`): the **`vartol-serve`** crate
//! (`crates/serve`) fronts [`Workspace`] with a wire protocol — the
//! `vartol-serve` binary speaks newline-delimited JSON over TCP or a
//! stdin/stdout REPL, shards circuits by name hash across independent
//! workspaces with bounded admission queues, and serves repeat queries
//! from a fingerprint-keyed LRU result cache. See `ARCHITECTURE.md`
//! ("Service layer") and the `serve_client` example.
//!
//! # Migrating from the borrowed-session API (pre-0.2 idiom)
//!
//! `TimingSession` and both sizers used to borrow (`TimingSession<'l, 'n>`
//! held `&'l Library` + `&'n mut Netlist`; sizers held `&'l Library`), so
//! a session could not outlive a stack frame, be stored in a struct, or
//! serve two circuits at once. They are now owned handles. The whole
//! migration, as one compiling example (every step below is the "after"
//! idiom — the "before" forms no longer exist to compile):
//!
//! * **Constructing a session.** Previously
//!   `TimingSession::new(&lib, cfg, &mut n)` borrowed the netlist; now
//!   pass it *by value* and any library handle — `Arc<Library>`
//!   (shared), `Library` (moved), or `&Library` (cloned once) — and
//!   take the circuit back out with
//!   [`into_netlist`](ssta::TimingSession::into_netlist) when done:
//!
//!   ```
//!   use vartol::liberty::Library;
//!   use vartol::netlist::generators::ripple_carry_adder;
//!   use vartol::ssta::{SstaConfig, TimingSession};
//!
//!   let lib = Library::synthetic_90nm();
//!   let netlist = ripple_carry_adder(4, &lib);
//!   let gate = netlist.gate_ids().next().unwrap();
//!
//!   let mut session = TimingSession::new(&lib, SstaConfig::default(), netlist);
//!   session.resize(gate, 3);
//!   session.refresh();
//!   let netlist = session.into_netlist(); // the circuit comes back out
//!   assert_eq!(netlist.gate(gate).size(), Some(3));
//!   ```
//!
//! * **Sizers.** `StatisticalGreedy::new(&lib, cfg)` and
//!   `MeanDelaySizer::new(&lib, cfg)` compile unchanged (the `&Library`
//!   converts into a shared handle by cloning); to share one library
//!   across many sizers and sessions without copies, pass an
//!   `Arc<Library>`. Their `optimize`/`minimize_delay`/`recover_area`
//!   still take `&mut Netlist` and write the result back:
//!
//!   ```
//!   use std::sync::Arc;
//!   use vartol::core::{SizerConfig, StatisticalGreedy};
//!   use vartol::liberty::Library;
//!   use vartol::netlist::generators::ripple_carry_adder;
//!
//!   let lib = Arc::new(Library::synthetic_90nm());
//!   let mut netlist = ripple_carry_adder(4, &lib);
//!   let sizer = StatisticalGreedy::new(Arc::clone(&lib), SizerConfig::with_alpha(3.0));
//!   let report = sizer.optimize(&mut netlist);
//!   assert!(report.final_moments().std() <= report.initial_moments().std());
//!   ```
//!
//! * **Slack / criticality plumbing.** Instead of exporting arrivals and
//!   the electrical snapshot by hand, query the session:
//!
//!   ```
//!   use vartol::liberty::Library;
//!   use vartol::netlist::generators::ripple_carry_adder;
//!   use vartol::ssta::{SstaConfig, TimingSession};
//!
//!   let lib = Library::synthetic_90nm();
//!   let mut session =
//!       TimingSession::new(&lib, SstaConfig::default(), ripple_carry_adder(4, &lib));
//!   let m = session.refresh();
//!   let slacks = session.slacks(m.mean + 3.0 * m.std());
//!   assert!(slacks.worst_statistical_slack(3.0).is_finite());
//!   let criticality = session.criticality();
//!   assert!(!criticality.ranking().is_empty());
//!   ```
//!
//! * **Long-lived / multi-circuit use.** Store sessions in structs or
//!   maps freely — or skip the bookkeeping entirely and use a
//!   [`Workspace`], which caches one session per registered circuit and
//!   serves concurrent batches deterministically (see the next
//!   section).
//!
//! # Migrating from mutate-and-rollback to branches (0.2 → 0.3 idiom)
//!
//! Speculation used to mean mutating the one session and rolling back
//! (`resize` → measure → `restore_sizes`), or borrowing a
//! lifetime-bound `TrialSession` that could not leave the stack frame.
//! Both are superseded by **owned forks**:
//! [`TimingSession::fork`](ssta::TimingSession::fork) copies the
//! session's state once and hands back another
//! [`TimingSession`](ssta::TimingSession) that remembers its fork point
//! — safe to send across threads, whose refreshes re-time only the gates
//! resized since its last refresh, and which is either committed back
//! (its state moves into the parent) or simply dropped. The old
//! `fork_for_trial`/`TrialSession` shim is gone as of 0.7; fork code
//! reads like this:
//!
//! ```
//! use vartol::liberty::Library;
//! use vartol::netlist::generators::ripple_carry_adder;
//! use vartol::ssta::{SstaConfig, TimingSession};
//!
//! let lib = Library::synthetic_90nm();
//! let mut session =
//!     TimingSession::new(&lib, SstaConfig::default(), ripple_carry_adder(8, &lib));
//! let baseline = session.refresh();
//! let gates: Vec<_> = session.netlist().gate_ids().collect();
//!
//! // Speculate on two alternatives at once. Neither touches the
//! // session; each owns its own copy of the state.
//! let mut upsize = session.fork();
//! upsize.resize(gates[0], 5);
//! let mut downsize = session.fork();
//! downsize.resize(gates[0], 1);
//! let up = upsize.refresh();
//! let down = downsize.refresh();
//! assert_ne!(up.mean.to_bits(), down.mean.to_bits());
//! assert_eq!(session.circuit_moments(), baseline); // parent untouched
//!
//! // Only the resized gate's cone was recomputed, not the whole circuit.
//! assert!(upsize.recompute_count() > 0);
//! assert!((upsize.recompute_count() as usize) < session.netlist().node_count());
//!
//! // Keep the winner: commit moves its state in without recomputing.
//! let committed = session.commit(upsize).expect("parent unchanged since fork");
//! assert_eq!(committed, up);
//! assert_eq!(session.netlist().gate(gates[0]).size(), Some(5));
//! drop(downsize); // the loser just goes away
//! ```
//!
//! Through the [`Workspace`] the same lifecycle is the
//! `Fork`/`BranchResize`/`BranchAnalyze`/`Commit`/`DropBranch` requests
//! (branches are named, per circuit), and `WhatIfBatch` evaluates N
//! anonymous trials in parallel with answers in trial order —
//! bit-identical at every pool width. `vartol-serve` speaks all six
//! verbs on the wire (protocol v2).
//!
//! # Correlated process variation
//!
//! Every engine historically sampled gates independently; that is still
//! the default, bit for bit. [`ssta::variation`] adds die-to-die and
//! spatially-correlated components on top — configure them with
//! [`SstaConfig::with_model`](ssta::SstaConfig::with_model) and every
//! layer (engines, sessions, sizer, workspace, `vartol-suite` corners)
//! becomes correlation-aware; see the module docs for the math:
//!
//! ```
//! use vartol::liberty::Library;
//! use vartol::netlist::generators::ripple_carry_adder;
//! use vartol::ssta::{SstaConfig, TimingSession, VariationModel};
//!
//! let lib = Library::synthetic_90nm();
//! let independent = TimingSession::new(
//!     &lib,
//!     SstaConfig::default(),
//!     ripple_carry_adder(8, &lib),
//! )
//! .circuit_moments();
//!
//! // 60% of each gate's delay variance moves with the die; per-gate
//! // marginals are unchanged, but the circuit sigma grows because a
//! // shared shift cannot average down along a path.
//! let correlated = TimingSession::new(
//!     &lib,
//!     SstaConfig::default().with_model(VariationModel::die_to_die(0.6)),
//!     ripple_carry_adder(8, &lib),
//! )
//! .circuit_moments();
//! assert!(correlated.std() > independent.std());
//! ```
//!
//! # Benchmark-suite runner
//!
//! The `vartol-suite` binary (in `crates/bench`) is the perf-artifact
//! pipeline: it routes a scenario matrix — `data/*.bench` circuits and the
//! generator presets (`netlist::generators::presets`) — through a
//! [`Workspace`] batch (all four engines plus the full optimization flow
//! per circuit) and writes a validated `BENCH_suite.json` with per-circuit
//! wall-clock, μ/σ before/after sizing, area delta, resize count, and
//! thread count. CI runs the small tier on every push and uploads the
//! report as a workflow artifact, failing on panics or non-finite
//! statistics:
//!
//! ```text
//! cargo run --release -p vartol-bench --bin vartol-suite -- --subset small
//! cargo run --release -p vartol-bench --bin vartol-suite -- --check BENCH_suite.json
//! ```
//!
//! # Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use vartol::liberty::Library;
//! use vartol::netlist::generators::ripple_carry_adder;
//! use vartol::ssta::{EngineKind, SstaConfig, TimingSession};
//! use vartol::core::{StatisticalGreedy, SizerConfig};
//!
//! # fn main() {
//! let library = Arc::new(Library::synthetic_90nm());
//! let mut netlist = ripple_carry_adder(8, &library);
//!
//! // Optimize for variance with alpha = 3 (the sizer is lifetime-free).
//! let sizer = StatisticalGreedy::new(Arc::clone(&library), SizerConfig::with_alpha(3.0));
//! let report = sizer.optimize(&mut netlist);
//! assert!(report.final_moments().std() <= report.initial_moments().std());
//!
//! // Inspect the result through an owned incremental session: any
//! // engine on demand, and cone-limited re-analysis after edits.
//! let mut session = TimingSession::new(Arc::clone(&library), SstaConfig::default(), netlist);
//! let optimized = session.refresh();
//! let sanity = session.report(EngineKind::Fassta).circuit_moments();
//! assert!((optimized.mean - sanity.mean).abs() / optimized.mean < 0.15);
//!
//! // What-if: resize one gate and re-analyze only its fanout cone.
//! let gate = session.netlist().gate_ids().next().unwrap();
//! session.resize(gate, 5);
//! let what_if = session.refresh();
//! # let _ = (report, what_if);
//! # }
//! ```
//!
//! # Serving many circuits
//!
//! ```
//! use vartol::liberty::Library;
//! use vartol::ssta::EngineKind;
//! use vartol::workspace::{Answer, Request, Workspace, WorkspaceConfig};
//!
//! let mut ws = Workspace::new(Library::synthetic_90nm(), WorkspaceConfig::default());
//! ws.register_preset("adder_8").unwrap();
//! ws.register_preset("cmp_16").unwrap();
//!
//! let answers = ws.submit(&[
//!     Request::Analyze { circuit: "adder_8".into(), kind: EngineKind::FullSsta },
//!     Request::Yield { circuit: "cmp_16".into(), deadline: 2500.0 },
//! ]);
//! assert!(matches!(answers[0].answer, Answer::Analysis { .. }));
//! assert!(matches!(answers[1].answer, Answer::Yield { .. }));
//! ```

pub mod workspace;

pub use vartol_core as core;
pub use vartol_liberty as liberty;
pub use vartol_netlist as netlist;
pub use vartol_ssta as ssta;
pub use vartol_stats as stats;

pub use workspace::{Answer, Request, Response, Workspace, WorkspaceConfig, WorkspaceError};

/// Compiles the repo-root `README.md` code blocks as doctests, so the
/// front-door quickstart can never drift from the real API
/// (`cargo test --doc --workspace` covers it in CI).
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
