//! Cross-engine equivalence: the unified `TimingEngine` trait, the
//! `TimingSession` front-end, and the incremental re-analysis path must
//! all agree with direct from-scratch engine runs.

use vartol::liberty::Library;
use vartol::netlist::generators::{benchmark, ripple_carry_adder};
use vartol::netlist::GateId;
use vartol::ssta::{Dsta, EngineKind, Fassta, FullSsta, SstaConfig, TimingSession};

#[test]
fn session_reports_match_direct_engine_runs() {
    let lib = Library::synthetic_90nm();
    let config = SstaConfig::default();
    let n = benchmark("alu2", &lib).expect("known benchmark");
    let full = FullSsta::new(&lib, &config).analyze(&n);
    let fast = Fassta::new(&lib, &config).analyze(&n);

    let session = TimingSession::new(&lib, config.clone(), n);
    // The session's incremental FULLSSTA state equals a direct run.
    assert_eq!(session.circuit_moments(), full.circuit_moments());
    assert_eq!(session.arrivals(), full.arrivals());
    assert_eq!(session.worst_output(), full.worst_output());
    // And it hands out any other engine's report on demand.
    let via_session = session.report(EngineKind::Fassta);
    assert_eq!(via_session.circuit_moments(), fast.circuit_moments());
    assert_eq!(via_session.arrivals(), fast.arrivals());
}

#[test]
fn incremental_reanalysis_equals_from_scratch_within_1e9() {
    let lib = Library::synthetic_90nm();
    let config = SstaConfig::default();
    for kind in [EngineKind::Dsta, EngineKind::Fassta, EngineKind::FullSsta] {
        let n = ripple_carry_adder(8, &lib);
        let gates: Vec<GateId> = n.gate_ids().collect();
        let mut session = TimingSession::with_kind(&lib, config.clone(), n, kind);
        for (step, &g) in gates.iter().step_by(7).enumerate() {
            session.resize(g, 1 + step % 4);
            let incremental = session.refresh();
            let scratch = session.report(kind).circuit_moments();
            assert!(
                (incremental.mean - scratch.mean).abs() < 1e-9
                    && (incremental.var - scratch.var).abs() < 1e-9,
                "{kind} step {step}: incremental {incremental} vs scratch {scratch}"
            );
        }
    }
}

#[test]
fn trait_objects_unify_all_engines() {
    let lib = Library::synthetic_90nm();
    let config = SstaConfig::default();
    let n = ripple_carry_adder(4, &lib);
    let mut means = Vec::new();
    for kind in EngineKind::ALL {
        let engine = kind.engine(&lib, &config);
        let report = engine.analyze(&n);
        assert_eq!(report.kind(), kind);
        means.push(report.circuit_moments().mean);
    }
    // All four engines see the same circuit: means within 10% of FULLSSTA.
    let reference = means[2]; // EngineKind::ALL[2] == FullSsta
    for (kind, mean) in EngineKind::ALL.iter().zip(&means) {
        assert!(
            (mean - reference).abs() / reference < 0.10,
            "{kind}: {mean} vs reference {reference}"
        );
    }
}

#[test]
fn all_engines_are_coherent_under_a_correlated_model() {
    // Under a die-to-die source: DSTA becomes a corner sweep (pure
    // global spread), FASSTA and FULLSSTA condition, Monte Carlo
    // samples per die — their circuit statistics must line up.
    use vartol::ssta::{MonteCarloTimer, VariationModel};
    let lib = Library::synthetic_90nm();
    let config = SstaConfig::default().with_model(VariationModel::die_to_die(0.6));
    let n = ripple_carry_adder(8, &lib);

    let det = Dsta::new(&lib, &config).analyze(&n).circuit_moments();
    let fast = Fassta::new(&lib, &config).analyze(&n).circuit_moments();
    let full = FullSsta::new(&lib, &config).analyze(&n).circuit_moments();
    let mc = MonteCarloTimer::new(&lib, &config)
        .with_seed(31)
        .sample_parallel(&n, 20_000)
        .moments();

    // DSTA's variance is exactly the die-to-die corner spread: nonzero,
    // but below the statistical engines' (which add residual variance).
    assert!(det.var > 0.0, "corner sweep must spread the nominal path");
    assert!(det.std() < full.std());

    for (name, m) in [("dsta", det), ("fassta", fast), ("fullssta", full)] {
        assert!(
            (m.mean - mc.mean).abs() / mc.mean < 0.05,
            "{name} mean {} vs MC {}",
            m.mean,
            mc.mean
        );
    }
    for (name, m) in [("fassta", fast), ("fullssta", full)] {
        assert!(
            (m.std() - mc.std()).abs() / mc.std() < 0.10,
            "{name} sigma {} vs MC {}",
            m.std(),
            mc.std()
        );
    }
}
