//! Cross-engine equivalence of the correlated variation model.
//!
//! The contract this suite pins (see `crates/ssta/src/variation.rs` for
//! the math):
//!
//! * With the **default empty model**, engines take the legacy
//!   independent code paths — analyses are bit-identical to a config
//!   that never mentions the model at all (the deeper bit-identity
//!   regressions live in `mc_determinism` / `sizing_determinism` /
//!   `workspace_determinism`, which run unmodified).
//! * With a **die-to-die global source**, the Monte-Carlo engine (which
//!   samples the shared deviate per die) and the conditioned FULLSSTA
//!   engine (which integrates over it with Gauss–Hermite lanes) must
//!   agree on circuit μ and σ within 2% on c17, adder_16, and ecc_16.

use std::sync::Arc;
use vartol::liberty::Library;
use vartol::netlist::generators::preset;
use vartol::netlist::iscas::parse_bench;
use vartol::netlist::Netlist;
use vartol::ssta::{
    EngineKind, FullSsta, MonteCarloTimer, SstaConfig, TimingSession, VariationModel,
};

fn c17() -> Netlist {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/data/c17.bench"))
        .expect("data/c17.bench ships with the repo");
    parse_bench(&text, "c17").expect("c17 parses")
}

fn suite_circuits(lib: &Library) -> Vec<Netlist> {
    vec![
        c17(),
        preset("adder_16", lib).expect("known preset"),
        preset("ecc_16", lib).expect("known preset"),
    ]
}

#[test]
fn mc_and_conditioned_fullssta_agree_under_a_global_source() {
    let lib = Library::synthetic_90nm();
    // 80% of each gate's delay variance moves with the die. The global
    // component is captured exactly by both engines; the residual 20%
    // carries FULLSSTA's usual (small) discretization/correlation bias,
    // which the 2% gate comfortably absorbs.
    let model = VariationModel::die_to_die(0.8);
    let config = SstaConfig::default().with_model(model);

    for netlist in suite_circuits(&lib) {
        let name = netlist.name().to_owned();
        let mc = MonteCarloTimer::new(&lib, &config)
            .with_seed(0xC0DE_2005)
            .sample_parallel(&netlist, 30_000)
            .moments();
        let full = FullSsta::new(&lib, &config)
            .analyze(&netlist)
            .circuit_moments();
        let mean_err = (full.mean - mc.mean).abs() / mc.mean;
        let sigma_err = (full.std() - mc.std()).abs() / mc.std();
        assert!(
            mean_err < 0.02,
            "{name}: conditioned μ {} vs MC μ {} ({:.2}%)",
            full.mean,
            mc.mean,
            100.0 * mean_err
        );
        assert!(
            sigma_err < 0.02,
            "{name}: conditioned σ {} vs MC σ {} ({:.2}%)",
            full.std(),
            mc.std(),
            100.0 * sigma_err
        );
    }
}

#[test]
fn empty_model_is_bit_identical_to_an_unset_model() {
    let lib = Arc::new(Library::synthetic_90nm());
    let unset = SstaConfig::default();
    let explicit = SstaConfig::default().with_model(VariationModel::none());
    for netlist in suite_circuits(&lib) {
        for kind in EngineKind::ALL {
            let a = kind.analyze(&lib, &unset, &netlist);
            let b = kind.analyze(&lib, &explicit, &netlist);
            assert_eq!(a, b, "{kind} on {}", netlist.name());
        }
    }
}

#[test]
fn conditioned_sessions_serve_correlated_statistics_incrementally() {
    // The service path: a session opened under a model answers what-if
    // resizes from its conditioned lanes, and the incremental answer
    // matches a conditioned from-scratch analysis exactly.
    let lib = Library::synthetic_90nm();
    let config = SstaConfig::default().with_model(VariationModel::die_to_die(0.6));
    let netlist = preset("adder_16", &lib).expect("known preset");
    let independent_sigma = TimingSession::new(&lib, SstaConfig::default(), netlist.clone())
        .circuit_moments()
        .std();

    let mut session = TimingSession::new(&lib, config, netlist);
    assert!(
        session.circuit_moments().std() > independent_sigma,
        "correlation must widen the served circuit distribution"
    );
    let g = session.netlist().gate_ids().nth(10).expect("gates");
    session.resize(g, 4);
    let incremental = session.refresh();
    let scratch = session.report(EngineKind::FullSsta).circuit_moments();
    assert_eq!(incremental, scratch, "conditioned incremental == scratch");
}
