//! The `vartol-suite` end-to-end benchmark runner.
//!
//! Runs every timing engine (DSTA, FASSTA, FULLSSTA, Monte Carlo) plus
//! the full `StatisticalGreedy` optimization flow over a scenario matrix
//! — `.bench` circuits from `data/` and the generator presets
//! ([`vartol_netlist::generators::presets`]) — and collects one
//! machine-readable report: per-circuit wall-clock, μ/σ before/after
//! sizing, area delta, resize count, and the worker-thread count. The
//! `vartol-suite` binary writes it as `BENCH_suite.json`, which CI
//! uploads as the perf artifact of every build.
//!
//! Since the owned-handle redesign the scenario loop is routed through
//! the [`vartol::workspace::Workspace`] service front door: each
//! circuit registers (one cached session — the registration runs the
//! one from-scratch FULLSSTA pass, reported as `register_wall_s`), then
//! the suite submits that circuit's batch of typed requests (four
//! `Analyze` kinds plus one `Size`) and assembles the scenario from the
//! answers — so the perf artifact exercises exactly the API a
//! production deployment would call, its numbers stay bit-identical at
//! every thread count, and progress still prints per scenario.
//!
//! Schema note (`vartol-suite/3`): the `fullssta` engine row measures
//! the **service's serve latency** — the cached session answering from
//! its warm incremental state — not a from-scratch pass; the
//! from-scratch FULLSSTA cost is `register_wall_s`. The `dsta`,
//! `fassta`, and `montecarlo` rows remain from-scratch analyses, so
//! `fullssta` wall-clock is not comparable with them (or with
//! `vartol-suite/1` reports). `/3` adds the `corners` rows: each
//! scenario is additionally analyzed under the named correlated
//! variation models of [`corner_models`] — conditioned FULLSSTA and
//! correlated Monte Carlo through the workspace's `AnalyzeUnder`
//! request — so the artifact tracks both the wall-clock cost of the
//! conditioning lanes and the μ/σ agreement between the two engines on
//! every circuit.
//!
//! `/4` adds the `serve` row: every circuit is also registered with a
//! shared `vartol_serve::Service` (through the wire-level `Register`
//! request, as `.bench` text) and analyzed twice under Monte Carlo —
//! `serve_cold_ms` is the first, computed, analysis and
//! `serve_warm_ms` its repeat, answered from the service's result
//! cache with a payload the runner asserts byte-identical. The pair
//! tracks the service stack's end-to-end latency and what the cache
//! buys on re-query.
//!
//! `/5` adds the `large` tier ([`run_large_tier_with`]): production-scale
//! circuits — the [`large_preset_names`](vartol_netlist::generators::large_preset_names)
//! presets, ≥100k gates — run
//! through the **analytic** engines only (DSTA/FASSTA/FULLSSTA; no
//! Monte Carlo, no sizing, no service hop) at every propagation width
//! in [`large_thread_widths`]. Each `large` row records the engine,
//! the thread width, the analysis wall-clock, and μ/σ, so the artifact
//! finally captures an analytic-engine perf-and-scaling trajectory per
//! PR. The runner asserts the level-ordered propagation arena's
//! headline guarantee while measuring: μ/σ must be **bit-identical**
//! across every thread width, or the run fails. A report may carry
//! scenarios, large rows, or both; [`SuiteReport::validate`] accepts
//! any combination as long as at least one tier is present.
//!
//! `/6` adds the per-scenario `branch_fanout` row: after the sizing
//! pass, N single-gate speculative trials are evaluated as one
//! `WhatIfBatch` through the workspace (`fanout_wall_ms`
//! is the whole batch, end to end), and the row also records the total
//! node recomputations the equivalent N one-shot branches cost
//! against what N from-scratch session rebuilds would have visited —
//! the validator requires the branch total to be **strictly smaller**,
//! so the branch layer's headline saving is re-asserted by
//! every `--check` of every artifact.
//!
//! `/7` adds the per-scenario `sequential` block: after the sizing
//! pass, every circuit is clocked with the canonical constraint
//! (period = 1.25 × its pre-sizing DSTA mean, uncertainty 0) and the
//! workspace's `SetClock`/`GroupSlack`/`Wns`/`Tns` requests report
//! setup slack per path group (in→reg, reg→reg, reg→out, in→out) plus
//! the circuit's WNS and TNS under the warm FULLSSTA session. A
//! combinational circuit still carries the block — its three register
//! groups are empty and report the full clock budget — so the artifact
//! stays `null`-free and `--check` can require the block on every
//! scenario.
//!
//! The report is validated ([`SuiteReport::validate`]) before it is
//! written: any non-finite μ/σ or wall-clock fails the run. Because the
//! vendored `serde_json` shim renders non-finite floats as `null`, a
//! written report can additionally be re-checked from text alone
//! ([`check_json_text`]) without a JSON parser — a valid suite report
//! contains no `null` at all.

use vartol::workspace::{
    Answer, GateResize, GroupSlackRow, Request, Response, WhatIfTrial, Workspace, WorkspaceConfig,
};
use vartol_core::SizerConfig;
use vartol_liberty::Library;
use vartol_netlist::iscas::write_bench;
use vartol_netlist::{GateId, Netlist};
use vartol_serve::{ServeConfig, ServeRequest, ServeResponse, Service};
use vartol_ssta::{
    EngineKind, GlobalSource, OptimizerKind, ScopedPool, SpatialGrid, SstaConfig, TimingSession,
    VariationModel,
};

/// Schema tag stamped into every report (bump on breaking layout or
/// semantics changes; `/2` added `register_wall_s` and redefined the
/// `fullssta` row as warm serve latency; `/3` added the per-scenario
/// `corners` rows — conditioned FULLSSTA and correlated Monte Carlo
/// under named die-to-die / spatial variation models, served through
/// the workspace's `AnalyzeUnder` request; `/4` added the `serve` row
/// — cold vs cached Monte-Carlo analysis latency through the
/// `vartol-serve` service; `/5` added the `large` tier — analytic
/// wall-clock and thread-scaling rows on production-scale circuits,
/// with `scenarios` allowed to be empty on a large-only run; `/6`
/// added the per-scenario `branch_fanout` row — the N-branch
/// what-if batch wall-clock plus its recompute counts
/// against N from-scratch rebuilds; `/7` added the per-scenario
/// `sequential` block — per-path-group setup slack, WNS, and TNS under
/// the canonical clock, through the workspace's sequential verbs; `/8`
/// added the top-level `frontier` list — the optimizer quality/runtime
/// Pareto frontier, one scenario per circuit with one row per global
/// sizer, written by `vartol-frontier` and gated by its `--check` — see
/// the module docs and [`crate::frontier`]).
pub const SUITE_SCHEMA: &str = "vartol-suite/8";

/// Knobs of one suite run.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SuiteConfig {
    /// σ weight of the optimization runs.
    pub alpha: f64,
    /// Monte-Carlo sample budget per circuit.
    pub mc_samples: usize,
    /// Monte-Carlo seed (fixed so reports are comparable across hosts).
    pub mc_seed: u64,
    /// Worker threads for candidate scoring and sampling (0 = all CPUs).
    pub threads: usize,
    /// Shared engine configuration.
    pub ssta: SstaConfig,
}

impl Default for SuiteConfig {
    fn default() -> Self {
        Self {
            alpha: 3.0,
            mc_samples: 2000,
            mc_seed: 0xDA7E_2005,
            threads: 0,
            ssta: SstaConfig::default(),
        }
    }
}

/// One engine's result on one scenario under a named correlated
/// variation corner (see [`corner_models`]).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CornerStat {
    /// Corner name (`d2d_60`, `mixed_d2d_spatial`, …).
    pub corner: String,
    /// Engine name (`fullssta` = Gauss–Hermite conditioned,
    /// `montecarlo` = shared sources sampled per die).
    pub engine: String,
    /// Analysis wall-clock seconds.
    pub wall_s: f64,
    /// Circuit mean delay (ps) under the corner model.
    pub mu: f64,
    /// Circuit delay standard deviation (ps) under the corner model.
    pub sigma: f64,
}

/// One analytic engine's timed run at one propagation width on one
/// large-tier circuit (schema `/5`).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LargeStat {
    /// Engine name (`dsta`, `fassta`, `fullssta` — the large tier is
    /// analytic-only).
    pub engine: String,
    /// Propagation thread width the row was measured at
    /// ([`SstaConfig::with_threads`]).
    pub threads: usize,
    /// From-scratch analysis wall-clock seconds (netlist already
    /// built; this is pure electrical + arrival propagation).
    pub wall_s: f64,
    /// Circuit mean delay (ps) — asserted bit-identical across every
    /// width of the same engine before the row is recorded.
    pub mu: f64,
    /// Circuit delay standard deviation (ps) — same bit-identity
    /// guarantee as `mu`.
    pub sigma: f64,
}

/// One large-tier circuit's thread-scaling block (schema `/5`).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LargeScenario {
    /// Circuit name (usually a `large_preset_names` entry).
    pub circuit: String,
    /// Cell-gate count (≥100k for the headline presets).
    pub gates: usize,
    /// Logic depth (levels) — the arena's serial critical path; width
    /// per level is what the parallel fan-out exploits.
    pub depth: usize,
    /// One row per (engine, thread width), engines in
    /// dsta/fassta/fullssta order, widths ascending within an engine.
    pub rows: Vec<LargeStat>,
}

/// The propagation widths every large-tier engine is timed at.
#[must_use]
pub fn large_thread_widths() -> &'static [usize] {
    &[1, 2, 4]
}

/// One engine's whole-circuit result on one scenario.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct EngineStat {
    /// Engine name (`dsta`, `fassta`, `fullssta`, `montecarlo`).
    pub engine: String,
    /// Analysis wall-clock seconds.
    pub wall_s: f64,
    /// Circuit mean delay (ps).
    pub mu: f64,
    /// Circuit delay standard deviation (ps).
    pub sigma: f64,
}

/// One scenario's service-layer latency pair (schema `/4`): the same
/// Monte-Carlo `Analyze` request through a shared
/// [`vartol_serve::Service`], first cold (computed by the shard's
/// workspace) then warm (answered from the shard's result cache).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ServeStat {
    /// First analysis: full computation, in milliseconds (includes the
    /// service's routing/queue hop — this is end-to-end latency).
    pub serve_cold_ms: f64,
    /// Repeat of the identical request: a cache hit, in milliseconds.
    pub serve_warm_ms: f64,
}

/// One scenario's branch fan-out measurement (schema `/6`):
/// [`FANOUT_BRANCHES`] single-gate speculative trials evaluated as one
/// `WhatIfBatch` through the workspace, plus the recompute-count
/// comparison that is the branch layer's reason to exist.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BranchFanoutStat {
    /// Number of speculative single-gate trials in the batch.
    pub branches: usize,
    /// Wall-clock of the whole N-trial `WhatIfBatch`, milliseconds
    /// (end to end through the workspace, trials fanned out over its
    /// pool).
    pub fanout_wall_ms: f64,
    /// Total divergent-cone node recomputations the N branches cost
    /// (measured on a serial side session for determinism).
    pub branch_recomputes: u64,
    /// Node visits N independent from-scratch session rebuilds would
    /// have cost on the same circuit. The validator requires
    /// `branch_recomputes < rebuild_recomputes`.
    pub rebuild_recomputes: u64,
}

/// One scenario's clocked-timing block (schema `/7`): per-path-group
/// setup slack, WNS, and TNS through the workspace's sequential verbs,
/// measured on the post-sizing circuit against the warm FULLSSTA
/// session. The canonical clock — period = 1.25 × the scenario's
/// pre-sizing DSTA mean, uncertainty 0 — always exists and is always
/// finite, so the block is present on every scenario (combinational
/// circuits report three empty register groups at the full budget) and
/// the artifact stays `null`-free.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SequentialStat {
    /// The canonical clock period (ps): 1.25 × the pre-sizing DSTA mean.
    pub clock_period: f64,
    /// Wall-clock of the whole sequential exchange (SetClock plus the
    /// three queries), milliseconds, end to end through the workspace.
    pub wall_ms: f64,
    /// Worst negative slack across all four groups (ps; positive =
    /// every endpoint meets the clock).
    pub wns: f64,
    /// Total negative slack summed over failing endpoints (ps, ≤ 0).
    pub tns: f64,
    /// One row per path group, fixed order
    /// in2reg/reg2reg/reg2out/in2out.
    pub groups: Vec<GroupSlackRow>,
}

/// The end-to-end optimization result on one scenario.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SizingStat {
    /// Optimization wall-clock seconds.
    pub wall_s: f64,
    /// Circuit mean before sizing (ps).
    pub mu_before: f64,
    /// Circuit σ before sizing (ps).
    pub sigma_before: f64,
    /// Circuit mean after sizing (ps).
    pub mu_after: f64,
    /// Circuit σ after sizing (ps).
    pub sigma_after: f64,
    /// Total cell area before sizing.
    pub area_before: f64,
    /// Total cell area after sizing.
    pub area_after: f64,
    /// Percent area change.
    pub area_delta_pct: f64,
    /// Gates moved to a new size across all kept passes.
    pub resized: usize,
    /// Outer passes executed.
    pub passes: usize,
}

/// Everything measured on one circuit.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ScenarioReport {
    /// Circuit name (preset name or `.bench` file stem).
    pub circuit: String,
    /// Cell-gate count.
    pub gates: usize,
    /// Logic depth (levels).
    pub depth: usize,
    /// Wall-clock seconds of workspace registration — validation plus
    /// the circuit's one from-scratch FULLSSTA session build.
    pub register_wall_s: f64,
    /// Per-engine analysis results, fixed order
    /// dsta/fassta/fullssta/montecarlo.
    pub engines: Vec<EngineStat>,
    /// Correlated-corner results: for each [`corner_models`] entry, a
    /// conditioned FULLSSTA row then a correlated Monte-Carlo row.
    pub corners: Vec<CornerStat>,
    /// The optimization flow's result.
    pub sizing: SizingStat,
    /// Cold vs cached query latency through the `vartol-serve` service.
    pub serve: ServeStat,
    /// The N-branch what-if fan-out (schema `/6`).
    pub branch_fanout: BranchFanoutStat,
    /// Per-path-group setup slack, WNS, and TNS under the canonical
    /// clock (schema `/7`).
    pub sequential: SequentialStat,
}

/// The whole suite run.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SuiteReport {
    /// Layout tag ([`SUITE_SCHEMA`]).
    pub schema: String,
    /// Resolved worker-thread count the run used.
    pub threads: usize,
    /// σ weight of the optimization runs.
    pub alpha: f64,
    /// Monte-Carlo sample budget per circuit.
    pub mc_samples: usize,
    /// One entry per circuit, in run order. Empty on a large-only run
    /// (`vartol-suite --tier large`).
    pub scenarios: Vec<ScenarioReport>,
    /// Large-tier thread-scaling blocks (schema `/5`), one per
    /// production-scale circuit. Empty unless the run opted into the
    /// large tier.
    pub large: Vec<LargeScenario>,
    /// Optimizer Pareto-frontier scenarios (schema `/8`), one per
    /// circuit with one row per global sizer. Empty unless the report
    /// was written by `vartol-frontier`.
    pub frontier: Vec<crate::frontier::FrontierScenario>,
}

impl SuiteReport {
    /// Checks the report for the failure modes CI must catch: no
    /// coverage at all (neither scenarios nor large-tier blocks), or
    /// any non-finite / negative-variance statistic in either tier.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first offending scenario and field.
    pub fn validate(&self) -> Result<(), String> {
        if self.scenarios.is_empty() && self.large.is_empty() && self.frontier.is_empty() {
            return Err("report contains no scenarios, large-tier blocks, or frontier".into());
        }
        let finite = |name: &str, what: &str, x: f64| -> Result<(), String> {
            if x.is_finite() {
                Ok(())
            } else {
                Err(format!("{name}: non-finite {what} ({x})"))
            }
        };
        for s in &self.scenarios {
            if s.gates == 0 {
                return Err(format!("{}: zero gates", s.circuit));
            }
            finite(&s.circuit, "register_wall_s", s.register_wall_s)?;
            for e in &s.engines {
                finite(&s.circuit, &format!("{} mu", e.engine), e.mu)?;
                finite(&s.circuit, &format!("{} sigma", e.engine), e.sigma)?;
                finite(&s.circuit, &format!("{} wall_s", e.engine), e.wall_s)?;
                if e.sigma < 0.0 {
                    return Err(format!("{}: negative {} sigma", s.circuit, e.engine));
                }
            }
            for c in &s.corners {
                let tag = format!("{}/{}", c.corner, c.engine);
                finite(&s.circuit, &format!("{tag} mu"), c.mu)?;
                finite(&s.circuit, &format!("{tag} sigma"), c.sigma)?;
                finite(&s.circuit, &format!("{tag} wall_s"), c.wall_s)?;
                if c.sigma < 0.0 {
                    return Err(format!("{}: negative {tag} sigma", s.circuit));
                }
            }
            let z = &s.sizing;
            for (what, x) in [
                ("sizing wall_s", z.wall_s),
                ("mu_before", z.mu_before),
                ("sigma_before", z.sigma_before),
                ("mu_after", z.mu_after),
                ("sigma_after", z.sigma_after),
                ("area_before", z.area_before),
                ("area_after", z.area_after),
                ("area_delta_pct", z.area_delta_pct),
            ] {
                finite(&s.circuit, what, x)?;
            }
            if z.sigma_after < 0.0 || z.sigma_before < 0.0 {
                return Err(format!("{}: negative sizing sigma", s.circuit));
            }
            for (what, x) in [
                ("serve_cold_ms", s.serve.serve_cold_ms),
                ("serve_warm_ms", s.serve.serve_warm_ms),
            ] {
                finite(&s.circuit, what, x)?;
                if x < 0.0 {
                    return Err(format!("{}: negative {what}", s.circuit));
                }
            }
            let f = &s.branch_fanout;
            finite(&s.circuit, "fanout_wall_ms", f.fanout_wall_ms)?;
            if f.branches == 0 {
                return Err(format!("{}: branch_fanout covers zero branches", s.circuit));
            }
            if f.branch_recomputes >= f.rebuild_recomputes {
                return Err(format!(
                    "{}: {} branch recomputations do not beat {} rebuild visits — \
                     the branch fan-out saving regressed",
                    s.circuit, f.branch_recomputes, f.rebuild_recomputes
                ));
            }
            let q = &s.sequential;
            finite(&s.circuit, "clock_period", q.clock_period)?;
            finite(&s.circuit, "sequential wall_ms", q.wall_ms)?;
            finite(&s.circuit, "sequential wns", q.wns)?;
            finite(&s.circuit, "sequential tns", q.tns)?;
            if q.clock_period <= 0.0 {
                return Err(format!("{}: non-positive clock_period", s.circuit));
            }
            if q.groups.len() != 4 {
                return Err(format!(
                    "{}: sequential block covers {} path groups, want 4",
                    s.circuit,
                    q.groups.len()
                ));
            }
            for g in &q.groups {
                finite(&s.circuit, &format!("{} wns", g.group), g.wns)?;
                finite(&s.circuit, &format!("{} tns", g.group), g.tns)?;
                if !(0.0..=1.0).contains(&g.prob_met) {
                    return Err(format!(
                        "{}: {} prob_met {} outside [0, 1]",
                        s.circuit, g.group, g.prob_met
                    ));
                }
            }
        }
        for l in &self.large {
            if l.gates == 0 {
                return Err(format!("{}: zero gates", l.circuit));
            }
            if l.rows.is_empty() {
                return Err(format!("{}: large-tier block has no rows", l.circuit));
            }
            for r in &l.rows {
                let tag = format!("{}@{}t", r.engine, r.threads);
                finite(&l.circuit, &format!("{tag} mu"), r.mu)?;
                finite(&l.circuit, &format!("{tag} sigma"), r.sigma)?;
                finite(&l.circuit, &format!("{tag} wall_s"), r.wall_s)?;
                if r.sigma < 0.0 {
                    return Err(format!("{}: negative {tag} sigma", l.circuit));
                }
                if r.threads == 0 {
                    return Err(format!("{}: {tag} zero-width row", l.circuit));
                }
            }
        }
        for f in &self.frontier {
            if f.rows.is_empty() {
                return Err(format!("{}: frontier scenario has no rows", f.circuit));
            }
            finite(&f.circuit, "deadline", f.deadline)?;
            finite(&f.circuit, "initial_area", f.initial_area)?;
            finite(
                &f.circuit,
                "initial_mu_plus_3sigma",
                f.initial_mu_plus_3sigma,
            )?;
            for r in &f.rows {
                for (what, x) in [
                    ("area", r.area),
                    ("mu", r.mu),
                    ("sigma", r.sigma),
                    ("mu_plus_3sigma", r.mu_plus_3sigma),
                    ("prob_met", r.prob_met),
                    ("wall_s", r.wall_s),
                ] {
                    finite(&f.circuit, &format!("{} {what}", r.optimizer), x)?;
                }
                if r.sigma < 0.0 {
                    return Err(format!("{}: negative {} sigma", f.circuit, r.optimizer));
                }
            }
        }
        Ok(())
    }

    /// Pretty-printed JSON for `BENCH_suite.json`.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("suite reports serialize")
    }
}

/// Re-checks a written report from its JSON text alone: the schema tag
/// must be present, at least `min_scenarios` circuits must be covered,
/// and no `null` may appear (the vendored serializer renders every
/// non-finite float as `null`, and a valid report has no other source
/// of them).
///
/// # Errors
///
/// Returns a message describing the first failed check.
pub fn check_json_text(text: &str, min_scenarios: usize) -> Result<(), String> {
    if !text.contains(SUITE_SCHEMA) {
        return Err(format!("missing schema tag `{SUITE_SCHEMA}`"));
    }
    // Only a bare `null` *value* is a non-finite statistic; the token
    // after a colon can't be part of a circuit name (string values are
    // quoted), so `nullsum.bench` never false-positives.
    if text.contains(": null") || text.contains(":null") {
        return Err("report contains `null` — a statistic was non-finite".into());
    }
    // Count the key (with its colon), not the bare string, so a circuit
    // literally named "circuit" can't inflate the coverage count. Both
    // tiers carry a "circuit" key, so this is total coverage.
    let covered = text.matches("\"circuit\":").count();
    if covered < min_scenarios {
        return Err(format!(
            "report covers {covered} circuits, need at least {min_scenarios}"
        ));
    }
    // Schema /4: every *full* scenario carries the service-latency
    // pair. Large-tier blocks (schema /5) have no serve hop, so the
    // scenario count is keyed on `register_wall_s` — a key only full
    // scenarios carry — not on the shared `circuit` key.
    let full_scenarios = text.matches("\"register_wall_s\":").count();
    for key in ["\"serve_cold_ms\":", "\"serve_warm_ms\":"] {
        if text.matches(key).count() < full_scenarios {
            return Err(format!("a scenario is missing its {key} serve row"));
        }
    }
    // Schema /6: every full scenario carries the branch fan-out row.
    for key in ["\"fanout_wall_ms\":", "\"branch_recomputes\":"] {
        if text.matches(key).count() < full_scenarios {
            return Err(format!("a scenario is missing its {key} branch_fanout row"));
        }
    }
    // Schema /7: every full scenario carries the sequential block — one
    // clock and four path-group rows (each row has a `prob_met` key).
    if text.matches("\"clock_period\":").count() < full_scenarios {
        return Err("a scenario is missing its \"clock_period\": sequential block".into());
    }
    if text.matches("\"prob_met\":").count() < 4 * full_scenarios {
        return Err("a scenario's sequential block covers fewer than 4 path groups".into());
    }
    // Schema /8: every frontier row carries its quality metric; the two
    // keys appear exactly once per row, so a mismatch means a truncated
    // or hand-edited row.
    let optimizer_rows = text.matches("\"optimizer\":").count();
    if text.matches("\"mu_plus_3sigma\":").count() < optimizer_rows {
        return Err("a frontier row is missing its \"mu_plus_3sigma\": metric".into());
    }
    Ok(())
}

/// The named correlated-variation corners every scenario is analyzed
/// under (schema `/3`): a pure die-to-die corner (60% of each gate's
/// delay variance moves with the die) and a mixed corner that adds a
/// spatially correlated within-die field on a 4×4 grid. Both are
/// `normalized()`, so per-gate marginals match the independent rows and
/// the corner columns isolate the effect of *correlation* alone.
#[must_use]
pub fn corner_models() -> Vec<(&'static str, VariationModel)> {
    vec![
        ("d2d_60", VariationModel::die_to_die(0.6)),
        (
            "mixed_d2d_spatial",
            VariationModel::none()
                .with_global_source(GlobalSource::with_variance_share("d2d", 0.4))
                .with_spatial(SpatialGrid::with_variance_share(4, 4, 2.0, 0.2))
                .normalized(),
        ),
    ]
}

/// Engines analyzed per correlated corner (conditioned FULLSSTA, then
/// correlated Monte Carlo).
const ENGINES_PER_CORNER: usize = 2;

/// The per-circuit request count: the four engines in report order,
/// then per corner a conditioned FULLSSTA and a correlated Monte-Carlo
/// analysis (still on the unoptimized circuit), then the full sizing
/// flow last — `Size` mutates the circuit, so everything measured on
/// the original sizes must precede it. Derived from [`corner_models`]
/// so the request builder and the response decoder cannot drift.
fn requests_per_scenario() -> usize {
    4 + ENGINES_PER_CORNER * corner_models().len() + 1
}

fn scenario_requests(circuit: &str, sizer: &SizerConfig) -> Vec<Request> {
    let mut requests = vec![
        Request::Analyze {
            circuit: circuit.into(),
            kind: EngineKind::Dsta,
        },
        Request::Analyze {
            circuit: circuit.into(),
            kind: EngineKind::Fassta,
        },
        Request::Analyze {
            circuit: circuit.into(),
            kind: EngineKind::FullSsta,
        },
        Request::Analyze {
            circuit: circuit.into(),
            kind: EngineKind::MonteCarlo,
        },
    ];
    for (_, model) in corner_models() {
        for kind in [EngineKind::FullSsta, EngineKind::MonteCarlo] {
            requests.push(Request::AnalyzeUnder {
                circuit: circuit.into(),
                kind,
                model: model.clone(),
            });
        }
    }
    requests.push(Request::Size {
        circuit: circuit.into(),
        config: sizer.clone(),
        optimizer: OptimizerKind::Greedy,
        yield_deadline: None,
    });
    assert_eq!(requests.len(), requests_per_scenario());
    requests
}

/// Folds one circuit's answered request chunk into a [`ScenarioReport`].
///
/// # Panics
///
/// Panics on an [`Answer::Error`] — an errored scenario must fail the
/// suite run (and CI), not silently produce a hole in the artifact.
fn assemble_scenario(
    netlist: &Netlist,
    register_wall_s: f64,
    responses: &[Response],
    serve: ServeStat,
    branch_fanout: BranchFanoutStat,
    sequential: SequentialStat,
) -> ScenarioReport {
    let name = netlist.name();
    let mut engines = Vec::with_capacity(4);
    for response in &responses[..4] {
        match &response.answer {
            Answer::Analysis { kind, moments, .. } => engines.push(EngineStat {
                engine: kind.to_string(),
                wall_s: response.wall.as_secs_f64(),
                mu: moments.mean,
                sigma: moments.std(),
            }),
            other => panic!("{name}: expected an analysis answer, got {other:?}"),
        }
    }
    let mut corners = Vec::with_capacity(2 * corner_models().len());
    assert_eq!(responses.len(), requests_per_scenario(), "{name}");
    for ((corner, _), pair) in corner_models()
        .iter()
        .zip(responses[4..responses.len() - 1].chunks(ENGINES_PER_CORNER))
    {
        for response in pair {
            match &response.answer {
                Answer::Analysis { kind, moments, .. } => corners.push(CornerStat {
                    corner: (*corner).to_owned(),
                    engine: kind.to_string(),
                    wall_s: response.wall.as_secs_f64(),
                    mu: moments.mean,
                    sigma: moments.std(),
                }),
                other => panic!("{name}: expected a corner analysis answer, got {other:?}"),
            }
        }
    }
    let last = responses.last().expect("non-empty request chunk");
    let sizing = match &last.answer {
        Answer::Sized { report, .. } => SizingStat {
            wall_s: last.wall.as_secs_f64(),
            mu_before: report.initial_moments().mean,
            sigma_before: report.initial_moments().std(),
            mu_after: report.final_moments().mean,
            sigma_after: report.final_moments().std(),
            area_before: report.initial_area(),
            area_after: report.final_area(),
            area_delta_pct: report.delta_area_pct(),
            resized: report.passes().iter().map(|p| p.resized).sum(),
            passes: report.passes().len(),
        },
        other => panic!("{name}: expected a sizing answer, got {other:?}"),
    };
    ScenarioReport {
        circuit: name.to_owned(),
        gates: netlist.gate_count(),
        depth: netlist.depth(),
        register_wall_s,
        engines,
        corners,
        sizing,
        serve,
        branch_fanout,
        sequential,
    }
}

/// Measures one circuit's sequential block (schema `/7`): the canonical
/// clock (period = 1.25 × the pre-sizing DSTA mean, uncertainty 0) is
/// installed with `SetClock`, then `GroupSlack`, `Wns`, and `Tns` are
/// answered by the warm FULLSSTA session — the same verbs and the same
/// cached state a deployment would query. The recorded `wall_ms` covers
/// the whole four-request exchange.
///
/// # Panics
///
/// Panics if the circuit is unregistered or any request errors — a
/// broken sequential path must fail the suite run, not leave a hole in
/// the artifact.
fn measure_sequential(workspace: &mut Workspace, name: &str, dsta_mu: f64) -> SequentialStat {
    let clock_period = 1.25 * dsta_mu;
    let t0 = std::time::Instant::now();
    let set = workspace.query(Request::SetClock {
        circuit: name.into(),
        period: clock_period,
        uncertainty: 0.0,
    });
    assert!(
        matches!(set.answer, Answer::ClockSet { .. }),
        "{name}: SetClock failed: {:?}",
        set.answer
    );
    let slack = workspace.query(Request::GroupSlack {
        circuit: name.into(),
        kind: EngineKind::FullSsta,
    });
    let groups = match slack.answer {
        Answer::GroupSlack { groups, .. } => groups,
        other => panic!("{name}: expected a group-slack answer, got {other:?}"),
    };
    let wns = match workspace
        .query(Request::Wns {
            circuit: name.into(),
            kind: EngineKind::FullSsta,
        })
        .answer
    {
        Answer::Wns { wns, .. } => wns,
        other => panic!("{name}: expected a WNS answer, got {other:?}"),
    };
    let tns = match workspace
        .query(Request::Tns {
            circuit: name.into(),
            kind: EngineKind::FullSsta,
        })
        .answer
    {
        Answer::Tns { tns, .. } => tns,
        other => panic!("{name}: expected a TNS answer, got {other:?}"),
    };
    SequentialStat {
        clock_period,
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        wns,
        tns,
        groups,
    }
}

/// Measures one circuit's serve-latency pair against the shared
/// service: wire-level registration (as `.bench` text), a cold
/// Monte-Carlo analysis, and its cached repeat — asserting the warm
/// payload is byte-identical to the cold one.
///
/// # Panics
///
/// Panics if the service answers an error or the cached payload
/// diverges — either must fail the suite run, not leave a hole in the
/// artifact.
fn measure_serve(service: &Service, netlist: &Netlist) -> ServeStat {
    let name = netlist.name();
    let registered = service.call(ServeRequest::Register {
        circuit: name.to_owned(),
        preset: None,
        bench: Some(write_bench(netlist)),
    });
    assert!(
        matches!(
            registered.first().map(|f| &f.payload),
            Some(ServeResponse::Registered { .. })
        ),
        "{name}: service registration failed: {registered:?}"
    );
    let analyze = ServeRequest::Analyze {
        circuit: name.to_owned(),
        kind: EngineKind::MonteCarlo,
    };
    let timed = || {
        let t0 = std::time::Instant::now();
        let frames = service.call(analyze.clone());
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        match frames.first().map(|f| f.payload.clone()) {
            Some(payload @ ServeResponse::Analysis { .. }) => (payload, wall_ms),
            other => panic!("{name}: expected a served analysis, got {other:?}"),
        }
    };
    let (cold_payload, serve_cold_ms) = timed();
    let (warm_payload, serve_warm_ms) = timed();
    assert_eq!(
        cold_payload, warm_payload,
        "{name}: cached payload must be identical to the computed one"
    );
    ServeStat {
        serve_cold_ms,
        serve_warm_ms,
    }
}

/// Speculative single-gate trials per scenario fan-out (schema `/6`).
pub const FANOUT_BRANCHES: usize = 8;

/// Measures one circuit's branch fan-out row (schema `/6`):
/// [`FANOUT_BRANCHES`] single-gate trials as one `WhatIfBatch` through
/// the workspace (the recorded wall-clock), then the recompute-count
/// comparison on a serial side session — branches only revisit their
/// resized gates' cones, a rebuild revisits every node, and the validator
/// holds every artifact to that saving.
///
/// # Panics
///
/// Panics if the circuit is unregistered or any trial errors — a broken
/// fan-out must fail the suite run, not leave a hole in the artifact.
fn measure_branch_fanout(
    workspace: &mut Workspace,
    library: &Library,
    config: &SuiteConfig,
    name: &str,
) -> BranchFanoutStat {
    let netlist = workspace.netlist(name).expect("registered").clone();
    let gates: Vec<GateId> = netlist.gate_ids().collect();
    let branches = FANOUT_BRANCHES.min(gates.len());
    let picks: Vec<(GateId, usize)> = (0..branches)
        .map(|i| {
            let id = gates[i * gates.len() / branches];
            let current = netlist.gate(id).size().unwrap_or(0);
            (id, if current == 2 { 3 } else { 2 })
        })
        .collect();
    let trials: Vec<WhatIfTrial> = picks
        .iter()
        .map(|&(id, size)| WhatIfTrial {
            resizes: vec![GateResize {
                gate: netlist.gate(id).name().to_owned(),
                size,
            }],
        })
        .collect();

    let t0 = std::time::Instant::now();
    let response = workspace.query(Request::WhatIfBatch {
        circuit: name.into(),
        trials,
    });
    let fanout_wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    match &response.answer {
        Answer::WhatIf { outcomes } => {
            for outcome in outcomes {
                assert!(
                    matches!(outcome, Answer::BranchAnalysis { .. }),
                    "{name}: what-if trial failed: {outcome:?}"
                );
            }
        }
        other => panic!("{name}: expected a what-if answer, got {other:?}"),
    }

    // Recompute counts on a serial side session, one fork per pick: each
    // pick re-times only its own cone from the fork point, as a workspace
    // what-if trial does, so the count is the same at any pool width.
    let mut session = TimingSession::new(library, config.ssta.clone().with_threads(1), netlist);
    session.refresh();
    let full_build = session.recompute_count();
    let mut branch_recomputes = 0u64;
    for &(id, size) in &picks {
        let mut branch = session.fork();
        branch.try_resize(id, size).expect("valid size");
        branch.refresh();
        branch_recomputes += branch.recompute_count();
    }
    BranchFanoutStat {
        branches,
        fanout_wall_ms,
        branch_recomputes,
        rebuild_recomputes: full_build * branches as u64,
    }
}

/// Runs every engine plus the optimization flow on one circuit, through
/// a single-circuit [`Workspace`].
///
/// # Panics
///
/// Panics if the netlist references cells missing from the library or a
/// scenario errors.
#[must_use]
pub fn run_scenario(netlist: &Netlist, library: &Library, config: &SuiteConfig) -> ScenarioReport {
    let mut report = run_suite(std::slice::from_ref(netlist), library, config);
    report.scenarios.pop().expect("one circuit, one scenario")
}

/// Runs the whole scenario matrix through one [`Workspace`]: each
/// circuit registers (timed as `register_wall_s`), its request batch is
/// submitted, and `observe` fires immediately with the assembled
/// scenario and the true elapsed wall-clock (registration + batch) —
/// live progress reporting, exactly like the pre-workspace runner.
///
/// # Panics
///
/// Panics if a netlist references cells missing from the library, two
/// circuits share a name, or a scenario errors.
pub fn run_suite_with(
    circuits: &[Netlist],
    library: &Library,
    config: &SuiteConfig,
    mut observe: impl FnMut(&ScenarioReport, std::time::Duration),
) -> SuiteReport {
    let mut ssta = config.ssta.clone();
    ssta.threads = config.threads;
    let sizer = SizerConfig::with_alpha(config.alpha).with_ssta(ssta.clone());

    let workspace_config = WorkspaceConfig::default()
        .with_ssta(ssta)
        .with_threads(config.threads)
        .with_mc_samples(config.mc_samples)
        .with_mc_seed(config.mc_seed);
    let mut workspace = Workspace::new(library, workspace_config.clone());
    // One shared service for the whole run: the `serve` rows measure
    // the same stack a deployment talks to, and later circuits see a
    // service already warm with earlier ones.
    let service = Service::new(
        library,
        ServeConfig::default().with_workspace(workspace_config),
    );
    let mut report = SuiteReport {
        schema: SUITE_SCHEMA.to_owned(),
        threads: ScopedPool::new(config.threads).threads(),
        alpha: config.alpha,
        mc_samples: config.mc_samples,
        scenarios: Vec::with_capacity(circuits.len()),
        large: Vec::new(),
        frontier: Vec::new(),
    };
    for circuit in circuits {
        let t0 = std::time::Instant::now();
        workspace
            .register(circuit.name(), circuit.clone())
            .unwrap_or_else(|e| panic!("cannot register `{}`: {e}", circuit.name()));
        let register_wall_s = t0.elapsed().as_secs_f64();
        let responses = workspace.submit(&scenario_requests(circuit.name(), &sizer));
        let serve = measure_serve(&service, circuit);
        let branch_fanout = measure_branch_fanout(&mut workspace, library, config, circuit.name());
        // The canonical clock hangs off the pre-sizing DSTA mean, which
        // is the first answer of the batch.
        let dsta_mu = match &responses[0].answer {
            Answer::Analysis { moments, .. } => moments.mean,
            other => panic!("{}: expected a DSTA answer, got {other:?}", circuit.name()),
        };
        let sequential = measure_sequential(&mut workspace, circuit.name(), dsta_mu);
        let scenario = assemble_scenario(
            circuit,
            register_wall_s,
            &responses,
            serve,
            branch_fanout,
            sequential,
        );
        observe(&scenario, t0.elapsed());
        report.scenarios.push(scenario);
    }
    report
}

/// Runs the whole scenario matrix and assembles the report.
///
/// # Panics
///
/// Panics if a netlist references cells missing from the library.
#[must_use]
pub fn run_suite(circuits: &[Netlist], library: &Library, config: &SuiteConfig) -> SuiteReport {
    run_suite_with(circuits, library, config, |_, _| {})
}

/// The engines the large tier times by default — the three analytic
/// propagations, in report order. Monte Carlo is deliberately absent:
/// sampling a 100k-gate circuit would dwarf everything else in a CI
/// run, and the tier exists to track *analytic* wall-clock and
/// thread scaling.
#[must_use]
pub fn large_tier_engines() -> Vec<EngineKind> {
    vec![EngineKind::Dsta, EngineKind::Fassta, EngineKind::FullSsta]
}

/// Times one production-scale circuit (schema `/5`): every requested
/// engine, from scratch, at every [`large_thread_widths`] propagation
/// width. While measuring it asserts the propagation arena's headline
/// guarantee — μ/σ bit-identical (raw IEEE bits) across every width of
/// the same engine — so a scaling row can never silently ship numbers
/// that depended on the schedule.
///
/// # Panics
///
/// Panics if `engines` contains [`EngineKind::MonteCarlo`] (the tier
/// is analytic-only) or if two widths of one engine disagree bit for
/// bit.
#[must_use]
pub fn run_large_scenario(
    netlist: &Netlist,
    library: &Library,
    config: &SuiteConfig,
    engines: &[EngineKind],
) -> LargeScenario {
    let mut rows = Vec::with_capacity(engines.len() * large_thread_widths().len());
    for &kind in engines {
        assert!(
            !matches!(kind, EngineKind::MonteCarlo),
            "the large tier is analytic-only"
        );
        let mut pinned: Option<(u64, u64)> = None;
        for &threads in large_thread_widths() {
            let ssta = config.ssta.clone().with_threads(threads);
            let t0 = std::time::Instant::now();
            let report = kind.analyze(library, &ssta, netlist);
            let wall_s = t0.elapsed().as_secs_f64();
            let m = report.circuit_moments();
            let bits = (m.mean.to_bits(), m.var.to_bits());
            match pinned {
                None => pinned = Some(bits),
                Some(want) => assert_eq!(
                    bits,
                    want,
                    "{}/{kind}: {threads}-thread propagation diverged",
                    netlist.name()
                ),
            }
            rows.push(LargeStat {
                engine: kind.to_string(),
                threads,
                wall_s,
                mu: m.mean,
                sigma: m.std(),
            });
        }
    }
    LargeScenario {
        circuit: netlist.name().to_owned(),
        gates: netlist.gate_count(),
        depth: netlist.depth(),
        rows,
    }
}

/// Runs the large tier over `circuits`, firing `observe` after each
/// block with the block and its wall-clock — live progress, exactly
/// like [`run_suite_with`] for the full matrix.
///
/// # Panics
///
/// Propagates [`run_large_scenario`]'s panics.
pub fn run_large_tier_with(
    circuits: &[Netlist],
    library: &Library,
    config: &SuiteConfig,
    engines: &[EngineKind],
    mut observe: impl FnMut(&LargeScenario, std::time::Duration),
) -> Vec<LargeScenario> {
    let mut blocks = Vec::with_capacity(circuits.len());
    for circuit in circuits {
        let t0 = std::time::Instant::now();
        let block = run_large_scenario(circuit, library, config, engines);
        observe(&block, t0.elapsed());
        blocks.push(block);
    }
    blocks
}

#[cfg(test)]
mod tests {
    use super::*;
    use vartol_netlist::generators::preset;

    fn tiny_config() -> SuiteConfig {
        SuiteConfig {
            mc_samples: 200,
            threads: 1,
            ..SuiteConfig::default()
        }
    }

    #[test]
    fn suite_report_on_presets_is_valid_and_serializes() {
        let lib = Library::synthetic_90nm();
        let circuits: Vec<Netlist> = ["adder_8", "cmp_8"]
            .iter()
            .map(|n| preset(n, &lib).expect("known preset"))
            .collect();
        let report = run_suite(&circuits, &lib, &tiny_config());
        report.validate().expect("valid report");
        assert_eq!(report.threads, 1);
        assert_eq!(report.scenarios.len(), 2);
        for s in &report.scenarios {
            assert_eq!(s.engines.len(), 4, "{}", s.circuit);
            assert_eq!(s.corners.len(), 4, "{}: 2 corners x 2 engines", s.circuit);
            assert!(
                s.sizing.sigma_after <= s.sizing.sigma_before,
                "{}: sizing must not worsen sigma",
                s.circuit
            );
            // Corner rows are the whole point of schema /3: correlation
            // must widen the distribution relative to the independent
            // fullssta row, and the two corner engines must agree.
            let independent_sigma = s.engines[2].sigma;
            for pair in s.corners.chunks(2) {
                assert!(
                    pair[0].sigma > independent_sigma,
                    "{}: corner {} sigma {} should exceed independent {}",
                    s.circuit,
                    pair[0].corner,
                    pair[0].sigma,
                    independent_sigma
                );
                assert!(
                    (pair[0].mu - pair[1].mu).abs() / pair[1].mu < 0.05,
                    "{}: corner {} engines disagree: {} vs {}",
                    s.circuit,
                    pair[0].corner,
                    pair[0].mu,
                    pair[1].mu
                );
            }
        }
        for s in &report.scenarios {
            // Schema /4 serve rows: both latencies measured and sane.
            assert!(s.serve.serve_cold_ms > 0.0, "{}", s.circuit);
            assert!(s.serve.serve_warm_ms > 0.0, "{}", s.circuit);
            // Schema /7 sequential block: both test circuits are
            // combinational, so the three register groups are empty
            // and report the full clock budget; in2out carries every
            // primary output.
            let q = &s.sequential;
            assert!(q.clock_period > 0.0, "{}", s.circuit);
            assert_eq!(q.groups.len(), 4, "{}", s.circuit);
            for g in &q.groups[..3] {
                assert_eq!(g.endpoints, 0, "{}: {}", s.circuit, g.group);
                assert_eq!(g.wns, q.clock_period, "{}: {}", s.circuit, g.group);
                assert!(g.worst.is_empty(), "{}: {}", s.circuit, g.group);
            }
            assert_eq!(q.groups[3].group, "in2out", "{}", s.circuit);
            assert!(q.groups[3].endpoints > 0, "{}", s.circuit);
            assert!(!q.groups[3].worst.is_empty(), "{}", s.circuit);
            let min_wns = q.groups.iter().map(|g| g.wns).fold(f64::INFINITY, f64::min);
            assert_eq!(q.wns.to_bits(), min_wns.to_bits(), "{}", s.circuit);
            // Schema /6 fan-out row: N branches, and the branch saving.
            let f = &s.branch_fanout;
            assert_eq!(f.branches, FANOUT_BRANCHES, "{}", s.circuit);
            assert!(f.fanout_wall_ms > 0.0, "{}", s.circuit);
            assert!(
                f.branch_recomputes < f.rebuild_recomputes,
                "{}: {} branch recomputes vs {} rebuild visits",
                s.circuit,
                f.branch_recomputes,
                f.rebuild_recomputes
            );
        }
        let json = report.to_json();
        assert!(json.contains("adder_8") && json.contains("cmp_8"));
        assert!(json.contains("\"serve_cold_ms\":") && json.contains("\"serve_warm_ms\":"));
        assert!(json.contains("\"fanout_wall_ms\":") && json.contains("\"branch_recomputes\":"));
        assert!(json.contains("\"clock_period\":") && json.contains("\"prob_met\":"));
        check_json_text(&json, 2).expect("text check passes");
        assert!(
            check_json_text(&json, 3).is_err(),
            "coverage floor enforced"
        );
    }

    #[test]
    fn sequential_scenario_populates_register_path_groups() {
        // A registered (DFF-bearing) circuit through the *whole* /7
        // scenario flow: engines, corners, sizing, serve, fan-out, and
        // a sequential block whose register groups are populated.
        let lib = Library::synthetic_90nm();
        let circuit = preset("pipeline_adder_16", &lib).expect("known preset");
        assert!(circuit.register_count() > 0);
        let s = run_scenario(&circuit, &lib, &tiny_config());
        let q = &s.sequential;
        assert_eq!(q.groups.len(), 4);
        let by_name = |name: &str| {
            q.groups
                .iter()
                .find(|g| g.group == name)
                .unwrap_or_else(|| panic!("missing group {name}"))
        };
        // The pipeline has registered inputs, register-to-register
        // stages, and registered outputs feeding POs, so every clocked
        // group carries endpoints.
        for name in ["in2reg", "reg2reg", "reg2out"] {
            let g = by_name(name);
            assert!(g.endpoints > 0, "{name} should carry endpoints");
            assert!(!g.worst.is_empty(), "{name} should name a worst endpoint");
            assert!((0.0..=1.0).contains(&g.prob_met), "{name}");
        }
        // WNS is the worst group; TNS only accumulates from failures.
        let min_wns = q.groups.iter().map(|g| g.wns).fold(f64::INFINITY, f64::min);
        assert_eq!(q.wns.to_bits(), min_wns.to_bits());
        assert!(q.tns <= 0.0);
        // The full report (one scenario) validates and text-checks.
        let report = SuiteReport {
            schema: SUITE_SCHEMA.to_owned(),
            threads: 1,
            alpha: 3.0,
            mc_samples: 200,
            scenarios: vec![s],
            large: Vec::new(),
            frontier: Vec::new(),
        };
        report.validate().expect("sequential scenario is valid");
        check_json_text(&report.to_json(), 1).expect("text check passes");
    }

    #[test]
    fn validation_catches_non_finite_statistics() {
        let lib = Library::synthetic_90nm();
        let circuits = vec![preset("cmp_8", &lib).expect("known preset")];
        let mut report = run_suite(&circuits, &lib, &tiny_config());
        report.scenarios[0].engines[2].sigma = f64::NAN;
        let err = report.validate().expect_err("NaN must fail");
        assert!(err.contains("fullssta sigma"), "{err}");
        // And the text-level check sees the shim's `null` rendering.
        assert!(check_json_text(&report.to_json(), 1).is_err());
        // A fan-out row whose branches stopped beating rebuilds is a
        // regression of the branch layer itself — --check must refuse it.
        report.scenarios[0].engines[2].sigma = 1.0;
        report.scenarios[0].branch_fanout.branch_recomputes =
            report.scenarios[0].branch_fanout.rebuild_recomputes;
        let err = report.validate().expect_err("regressed saving must fail");
        assert!(err.contains("branch fan-out saving regressed"), "{err}");
        // Schema /7: a probability outside [0, 1] is a broken
        // statistical-slack computation, not a unit quirk.
        report.scenarios[0].branch_fanout.branch_recomputes =
            report.scenarios[0].branch_fanout.rebuild_recomputes - 1;
        report.scenarios[0].sequential.groups[0].prob_met = 1.5;
        let err = report.validate().expect_err("bad probability must fail");
        assert!(err.contains("prob_met"), "{err}");
    }

    #[test]
    fn empty_suite_is_rejected() {
        let report = SuiteReport {
            schema: SUITE_SCHEMA.to_owned(),
            threads: 1,
            alpha: 3.0,
            mc_samples: 100,
            scenarios: Vec::new(),
            large: Vec::new(),
            frontier: Vec::new(),
        };
        assert!(report.validate().is_err());
    }

    #[test]
    fn large_tier_rows_scale_over_widths_and_validate_alone() {
        // A mid-size preset keeps the unit test fast; the 100k-gate
        // presets run in the CI smoke job and the nightly tier.
        let lib = Library::synthetic_90nm();
        let circuits = vec![preset("dag_400", &lib).expect("known preset")];
        let engines = large_tier_engines();
        let mut observed = 0;
        let blocks =
            run_large_tier_with(&circuits, &lib, &tiny_config(), &engines, |block, wall| {
                assert_eq!(block.circuit, "dag_400");
                assert!(wall.as_secs_f64() >= 0.0);
                observed += 1;
            });
        assert_eq!(observed, 1);
        let block = &blocks[0];
        assert_eq!(
            block.rows.len(),
            engines.len() * large_thread_widths().len()
        );
        // Row order: engines in report order, widths ascending within.
        for (e, chunk) in engines
            .iter()
            .zip(block.rows.chunks(large_thread_widths().len()))
        {
            for (w, row) in large_thread_widths().iter().zip(chunk) {
                assert_eq!(row.engine, e.to_string());
                assert_eq!(row.threads, *w);
                // run_large_scenario already asserted bit-identity of
                // mu/sigma across widths; spot-check the recorded rows
                // agree too.
                assert_eq!(row.mu.to_bits(), chunk[0].mu.to_bits());
                assert_eq!(row.sigma.to_bits(), chunk[0].sigma.to_bits());
            }
        }
        // A large-only report (scenarios empty) must validate and pass
        // the text-level check — that is what the CI smoke job writes.
        let report = SuiteReport {
            schema: SUITE_SCHEMA.to_owned(),
            threads: 1,
            alpha: 3.0,
            mc_samples: 0,
            scenarios: Vec::new(),
            large: blocks,
            frontier: Vec::new(),
        };
        report.validate().expect("large-only report is valid");
        let json = report.to_json();
        assert!(json.contains("\"large\":") && json.contains("dag_400"));
        check_json_text(&json, 1).expect("text check passes without serve rows");
    }

    #[test]
    #[should_panic(expected = "analytic-only")]
    fn monte_carlo_is_rejected_from_the_large_tier() {
        let lib = Library::synthetic_90nm();
        let n = preset("cmp_8", &lib).expect("known preset");
        let _ = run_large_scenario(&n, &lib, &tiny_config(), &[EngineKind::MonteCarlo]);
    }
}
