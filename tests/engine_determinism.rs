//! The analytic-engine determinism suite for the level-ordered
//! propagation arena.
//!
//! Three contracts, in order of strictness:
//!
//! 1. **Width independence** — DSTA/FASSTA/FULLSSTA reports are
//!    bit-identical at 1/2/8/16 propagation threads
//!    ([`SstaConfig::with_threads`]), with and without a correlated
//!    [`VariationModel`]. The per-level fan-out computes every node
//!    kernel as a pure function of already-joined lower-level state and
//!    joins results in node order, so the schedule cannot leak into the
//!    numbers. `VARTOL_ENGINE_THREADS` widens the compared set (CI runs
//!    2/8/16 explicitly).
//! 2. **Incremental ≡ from-scratch** — a session `refresh()` after
//!    resizes reproduces a from-scratch analysis bit for bit under the
//!    arena layout, frontier and all.
//! 3. **Legacy equivalence** — the empty-model single-lane path is
//!    pinned byte-equal to **pre-refactor fixtures** captured from the
//!    node-at-a-time AoS implementation on c17/c880/c1908
//!    (`tests/fixtures/legacy_engine_reports.txt`). Regenerate with
//!    `cargo test --test engine_determinism -- --ignored` only when a
//!    numeric change is intended and documented.

use vartol::liberty::Library;
use vartol::netlist::generators::{
    benchmark, preset, random_dag, ripple_carry_adder, RandomDagConfig,
};
use vartol::netlist::{GateId, Netlist};
use vartol::ssta::{
    EngineKind, Fnv64, GlobalSource, SpatialGrid, SstaConfig, TimingReport, TimingSession,
    VariationModel,
};

const FIXTURE_PATH: &str = "tests/fixtures/legacy_engine_reports.txt";
const FIXTURE_CIRCUITS: [&str; 3] = ["c17", "c880", "c1908"];
const ANALYTIC: [EngineKind; 3] = [EngineKind::Dsta, EngineKind::Fassta, EngineKind::FullSsta];

/// c17 ships as a real ISCAS-85 `.bench` file; the other fixture
/// circuits are paper-suite generators.
fn fixture_circuit(name: &str, lib: &Library) -> Netlist {
    if name == "c17" {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/data/c17.bench");
        let text = std::fs::read_to_string(path).expect("data/c17.bench ships with the repo");
        return vartol::netlist::iscas::parse_bench(&text, "c17").expect("c17 parses");
    }
    benchmark(name, lib).expect("fixture circuits are paper benchmarks")
}

/// A stable 64-bit digest of everything a [`TimingReport`] derives its
/// deterministic payload from: per-node arrival moments, per-node PDFs
/// (support and probabilities), the circuit moments and PDF, and the
/// worst output — every f64 fed in as raw IEEE bits, so two digests are
/// equal iff the reports are bit-identical.
fn report_digest(netlist: &Netlist, report: &TimingReport) -> u64 {
    let mut h = Fnv64::new();
    for m in report.arrivals() {
        h.write_u64(m.mean.to_bits());
        h.write_u64(m.var.to_bits());
    }
    for id in netlist.node_ids() {
        if let Some(pdf) = report.arrival_pdf(id) {
            for (&v, &p) in pdf.values().iter().zip(pdf.probs()) {
                h.write_u64(v.to_bits());
                h.write_u64(p.to_bits());
            }
        }
    }
    let c = report.circuit_moments();
    h.write_u64(c.mean.to_bits());
    h.write_u64(c.var.to_bits());
    if let Some(pdf) = report.circuit_pdf() {
        for (&v, &p) in pdf.values().iter().zip(pdf.probs()) {
            h.write_u64(v.to_bits());
            h.write_u64(p.to_bits());
        }
    }
    h.write_u64(report.worst_output().index() as u64);
    h.finish()
}

fn analyze(netlist: &Netlist, library: &Library, config: &SstaConfig, kind: EngineKind) -> u64 {
    let report = kind.analyze(library, config, netlist);
    report_digest(netlist, &report)
}

/// The thread widths every contract is checked over; the CI matrix adds
/// explicit 2/8/16-wide runs through `VARTOL_ENGINE_THREADS`.
fn widths() -> Vec<usize> {
    let mut widths = vec![1, 2, 8, 16];
    if let Ok(extra) = std::env::var("VARTOL_ENGINE_THREADS") {
        let w: usize = extra
            .parse()
            .expect("VARTOL_ENGINE_THREADS must be a thread count");
        if !widths.contains(&w) {
            widths.push(w);
        }
    }
    widths
}

/// A deterministic DAG with levels far wider than the arena's inline
/// threshold, so cross-width comparisons genuinely exercise the
/// parallel per-level fan-out (narrow circuits run inline at any
/// configured width by design).
fn wide_dag(lib: &Library) -> Netlist {
    random_dag(
        RandomDagConfig {
            inputs: 32,
            gates: 600,
            window: 220,
        },
        0xBEEF,
        lib,
    )
}

fn test_circuit(name: &str, lib: &Library) -> Netlist {
    if name == "wide_dag" {
        return wide_dag(lib);
    }
    benchmark(name, lib)
        .or_else(|| preset(name, lib))
        .expect("known circuit")
}

/// A correlated model exercising both conditioning lanes (a global
/// die-to-die source spreads the propagation over Gauss–Hermite lanes)
/// and a spatial residual component.
fn correlated_model() -> VariationModel {
    VariationModel::none()
        .with_global_source(GlobalSource::with_variance_share("d2d", 0.4))
        .with_spatial(SpatialGrid::with_variance_share(4, 4, 2.0, 0.2))
        .normalized()
}

#[test]
fn analytic_reports_bit_identical_at_every_thread_width() {
    let lib = Library::synthetic_90nm();
    for circuit in ["c432", "adder_16", "wide_dag"] {
        let n = test_circuit(circuit, &lib);
        for kind in ANALYTIC {
            let serial = analyze(&n, &lib, &SstaConfig::default().with_threads(1), kind);
            for threads in widths() {
                let parallel =
                    analyze(&n, &lib, &SstaConfig::default().with_threads(threads), kind);
                assert_eq!(
                    serial, parallel,
                    "{circuit}/{kind}: {threads}-thread propagation diverged"
                );
            }
        }
    }
}

#[test]
fn conditioned_reports_bit_identical_at_every_thread_width() {
    // With a correlated model the Gauss–Hermite lanes become independent
    // parallel work items — the join order must still erase the width.
    let lib = Library::synthetic_90nm();
    let model = correlated_model();
    for circuit in ["c432", "wide_dag"] {
        let n = test_circuit(circuit, &lib);
        for kind in ANALYTIC {
            let config = SstaConfig::default().with_model(model.clone());
            let serial = analyze(&n, &lib, &config.clone().with_threads(1), kind);
            for threads in widths() {
                let parallel = analyze(&n, &lib, &config.clone().with_threads(threads), kind);
                assert_eq!(
                    serial, parallel,
                    "{circuit}/{kind} (conditioned): {threads}-thread propagation diverged"
                );
            }
        }
    }
}

#[test]
fn incremental_refresh_matches_scratch_under_the_arena() {
    let lib = Library::synthetic_90nm();
    for threads in widths() {
        for (model, tag) in [
            (VariationModel::none(), "empty"),
            (correlated_model(), "correlated"),
        ] {
            let config = SstaConfig::default()
                .with_model(model)
                .with_threads(threads);
            for kind in ANALYTIC {
                let n = benchmark("c880", &lib).expect("known");
                let gates: Vec<GateId> = n.gate_ids().collect();
                let mut session = TimingSession::with_kind(&lib, config.clone(), n, kind);
                session.resize(gates[3], 4);
                session.resize(gates[gates.len() / 2], 2);
                session.resize(*gates.last().expect("gates"), 5);
                let fresh = session.current_report();
                let incremental = report_digest(session.netlist(), &fresh);
                let scratch = report_digest(session.netlist(), &session.report(kind));
                assert_eq!(
                    incremental, scratch,
                    "{kind} ({tag}, {threads} threads): frontier refresh diverged from scratch"
                );
            }
        }
    }
}

#[test]
fn incremental_refresh_stays_cone_local_at_every_width() {
    // Parallel propagation must not grow the visited set: the frontier
    // still chases only the fanout cone of the resized gates.
    let lib = Library::synthetic_90nm();
    for threads in [1, 8] {
        let config = SstaConfig::default().with_threads(threads);
        let n = benchmark("c1908", &lib).expect("known");
        let node_count = n.node_count();
        let g = n.gate_ids().last().expect("gates");
        let mut session = TimingSession::new(&lib, config, n);
        let before = session.recompute_count();
        session.resize(g, 4);
        session.refresh();
        let visited = session.recompute_count() - before;
        assert!(
            (visited as usize) < node_count / 10,
            "{threads}-thread refresh must stay cone-local: {visited} of {node_count}"
        );
    }
}

#[test]
fn sessions_agree_across_widths_after_a_resize_history() {
    // Same resize script, different propagation widths: the arenas must
    // agree bit for bit at every step, not just at the end.
    let lib = Library::synthetic_90nm();
    let build = |threads: usize| {
        TimingSession::new(
            &lib,
            SstaConfig::default().with_threads(threads),
            ripple_carry_adder(16, &lib),
        )
    };
    let mut narrow = build(1);
    let mut wide = build(8);
    let gates: Vec<GateId> = narrow.netlist().gate_ids().collect();
    for (step, &g) in gates.iter().step_by(7).enumerate() {
        let size = (step % 5) + 1;
        narrow.resize(g, size);
        wide.resize(g, size);
        let a = narrow.current_report();
        let b = wide.current_report();
        assert_eq!(
            report_digest(narrow.netlist(), &a),
            report_digest(wide.netlist(), &b),
            "step {step}: widths diverged mid-history"
        );
    }
}

fn fixture_lines(lib: &Library) -> Vec<String> {
    let config = SstaConfig::default();
    let mut lines = Vec::new();
    for circuit in FIXTURE_CIRCUITS {
        let n = fixture_circuit(circuit, lib);
        for kind in ANALYTIC {
            let report = kind.analyze(lib, &config, &n);
            let c = report.circuit_moments();
            lines.push(format!(
                "{circuit} {kind} mean={:016x} var={:016x} digest={:016x}",
                c.mean.to_bits(),
                c.var.to_bits(),
                report_digest(&n, &report)
            ));
        }
    }
    lines
}

#[test]
fn empty_model_reports_match_pre_refactor_fixtures_byte_for_byte() {
    let fixture = std::fs::read_to_string(FIXTURE_PATH)
        .unwrap_or_else(|e| panic!("{FIXTURE_PATH}: {e} (run the ignored regeneration test)"));
    let want: Vec<&str> = fixture
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    let lib = Library::synthetic_90nm();
    let got = fixture_lines(&lib);
    assert_eq!(
        got.len(),
        want.len(),
        "fixture row count mismatch — regenerate deliberately if the suite changed"
    );
    for (got, want) in got.iter().zip(&want) {
        assert_eq!(
            got.as_str(),
            *want,
            "single-lane arena output diverged from the pre-refactor implementation"
        );
    }
}

/// Rewrites the fixture file from the current implementation. Run only
/// when an intentional numeric change is being made, and say so in the
/// commit: the whole point of the fixture is to fail loudly when the
/// arena stops being bit-identical to the legacy propagation.
#[test]
#[ignore = "rewrites the legacy fixture; run only for an intended numeric change"]
fn regenerate_legacy_fixtures() {
    let lib = Library::synthetic_90nm();
    let mut text = String::from(
        "# Byte-exact reports of the pre-arena (node-at-a-time AoS) propagation.\n\
         # Fields are IEEE-754 bit patterns / FNV-1a digests in hex; see\n\
         # tests/engine_determinism.rs `report_digest` for the exact recipe.\n",
    );
    for line in fixture_lines(&lib) {
        text.push_str(&line);
        text.push('\n');
    }
    std::fs::create_dir_all("tests/fixtures").expect("fixture dir");
    std::fs::write(FIXTURE_PATH, text).expect("fixture write");
}
