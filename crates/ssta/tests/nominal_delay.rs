//! A gate's nominal delay is the mean of its delay moments, bit for bit.
//!
//! `CircuitTiming` reads one from the other instead of storing both, so
//! this pins the identity on every node of `data/*.bench` and of every
//! generator preset: on the unsized circuit and after a seeded resize
//! history, at both the snapshot a session keeps and a from-scratch
//! `CircuitTiming::compute`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use vartol_liberty::Library;
use vartol_netlist::generators::{preset, preset_names};
use vartol_netlist::iscas::parse_bench;
use vartol_netlist::Netlist;
use vartol_ssta::{CircuitTiming, EngineKind, SstaConfig, TimingSession};

fn circuits(lib: &Library) -> Vec<Netlist> {
    let data = concat!(env!("CARGO_MANIFEST_DIR"), "/../../data");
    let mut paths: Vec<_> = std::fs::read_dir(data)
        .expect("data directory")
        .map(|entry| entry.expect("entry").path())
        .filter(|path| path.extension().is_some_and(|e| e == "bench"))
        .collect();
    paths.sort();
    let mut out: Vec<Netlist> = paths
        .into_iter()
        .map(|path| {
            let text = std::fs::read_to_string(&path).expect("readable");
            let name = path.file_stem().expect("stem").to_string_lossy();
            parse_bench(&text, &name).expect("parses")
        })
        .collect();
    out.extend(
        preset_names()
            .iter()
            .map(|name| preset(name, lib).expect("known preset")),
    );
    out.into_iter().map(|n| n.endpoint_marked()).collect()
}

fn assert_identity(timing: &CircuitTiming, netlist: &Netlist, what: &str) {
    for id in netlist.node_ids() {
        assert_eq!(
            timing.nominal_delay(id).to_bits(),
            timing.delay_moments(id).mean.to_bits(),
            "{}: {what}, node {id:?}",
            netlist.name()
        );
    }
}

#[test]
fn nominal_delay_is_the_delay_mean_bit_for_bit() {
    let lib = Arc::new(Library::synthetic_90nm());
    let config = SstaConfig::default();
    let cases = circuits(&lib);
    assert!(cases.len() >= 20, "{} circuits", cases.len());
    for netlist in cases {
        let mut rng = StdRng::seed_from_u64(0xde1a ^ netlist.node_count() as u64);
        let resizable: Vec<_> = netlist
            .gate_ids()
            .filter_map(|g| {
                let gate = netlist.gate(g);
                let len = lib.group(gate.function()?, gate.fanins().len())?.len();
                (len > 1).then_some((g, len))
            })
            .collect();
        let mut session =
            TimingSession::with_kind(Arc::clone(&lib), config.clone(), netlist, EngineKind::Dsta);
        assert_identity(session.timing(), session.netlist(), "unsized");
        for step in 0..24 {
            let (g, len) = resizable[rng.gen_range(0..resizable.len())];
            session.resize(g, rng.gen_range(0..len));
            if step % 3 == 2 {
                session.refresh();
                assert_identity(session.timing(), session.netlist(), "resized");
            }
        }
        session.refresh();
        assert_identity(session.timing(), session.netlist(), "resized");
        let scratch = CircuitTiming::compute(session.netlist(), &lib, &config);
        assert_identity(&scratch, session.netlist(), "from scratch");
    }
}
