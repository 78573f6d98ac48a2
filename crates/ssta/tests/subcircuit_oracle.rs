//! Oracle test of the sizers' inner loop: `CircuitTiming::member_delays`
//! and `Fassta::evaluate_subcircuit` must agree bit for bit with the
//! reference implementations below, which keep their per-member slews
//! and arrivals in `HashMap`s keyed by gate id. The reference is the
//! straightforward form of the algorithm and is kept only for this
//! comparison.
//!
//! Every centre of seeded random DAGs and of the shipped `.bench`
//! circuits (endpoint-marked, as the sequential sizers see them) is
//! checked at depths 0..=3, with the centre set to every size of its
//! ladder against a boundary snapshot taken before the resize.

use proptest::prelude::*;
use std::collections::HashMap;
use vartol_liberty::Library;
use vartol_netlist::generators::{random_dag, RandomDagConfig};
use vartol_netlist::iscas::parse_bench;
use vartol_netlist::{GateId, GateKind, Netlist, Subcircuit};
use vartol_ssta::{CircuitTiming, Fassta, FullSsta, SstaConfig};
use vartol_stats::fast_max::fast_max_moments;
use vartol_stats::Moments;

/// Capacitive load of `id` at the netlist's current sizes.
fn reference_load(netlist: &Netlist, library: &Library, config: &SstaConfig, id: GateId) -> f64 {
    let g = netlist.gate(id);
    let mut load = 0.0;
    for &sink in g.fanouts() {
        load += netlist.cell(sink, library).input_cap() + config.wire_cap_per_fanout;
    }
    if netlist.is_output(id) {
        load += config.po_load;
    }
    load
}

/// Reference `CircuitTiming::member_delays`: fresh member slews in a map.
fn reference_member_delays(
    timing: &CircuitTiming,
    netlist: &Netlist,
    library: &Library,
    config: &SstaConfig,
    sub: &Subcircuit,
) -> Vec<Moments> {
    let mut fresh_slews: HashMap<GateId, f64> = HashMap::with_capacity(sub.members().len());
    sub.members()
        .iter()
        .map(|&m| {
            let g = netlist.gate(m);
            let cell = netlist.cell(m, library);
            let in_slew = g
                .fanins()
                .iter()
                .map(|f| fresh_slews.get(f).copied().unwrap_or(timing.slew(*f)))
                .fold(0.0f64, f64::max);
            let load = reference_load(netlist, library, config, m);
            let d = cell.delay(in_slew, load).max(0.0);
            fresh_slews.insert(m, cell.output_slew(in_slew, load).max(0.0));
            config.variation.delay_moments(d, cell.drive())
        })
        .collect()
}

/// Reference `Fassta::evaluate_subcircuit`: member arrivals in a map.
fn reference_evaluate(
    netlist: &Netlist,
    library: &Library,
    config: &SstaConfig,
    sub: &Subcircuit,
    boundary_arrivals: &[Moments],
    base_timing: &CircuitTiming,
) -> Vec<Moments> {
    let member_delays = reference_member_delays(base_timing, netlist, library, config, sub);
    let mut local: HashMap<GateId, Moments> = HashMap::with_capacity(sub.members().len());
    for (pos, &m) in sub.members().iter().enumerate() {
        let g = netlist.gate(m);
        let mut arrival = Moments::zero();
        let mut first = true;
        for &f in g.fanins() {
            let fa = local
                .get(&f)
                .copied()
                .unwrap_or_else(|| boundary_arrivals[f.index()]);
            arrival = if first {
                fa
            } else {
                fast_max_moments(arrival, fa)
            };
            first = false;
        }
        local.insert(m, arrival + member_delays[pos]);
    }
    sub.local_outputs().iter().map(|o| local[o]).collect()
}

fn bits(moments: &[Moments]) -> Vec<(u64, u64)> {
    moments
        .iter()
        .map(|m| (m.mean.to_bits(), m.var.to_bits()))
        .collect()
}

/// Snapshots FULLSSTA at the current sizes, then for every cell centre,
/// depth 0..=3 and size of the centre's ladder compares the code under
/// test with the reference bit for bit. Sizes are restored afterwards.
/// Returns the number of evaluations compared.
fn check_every_centre(netlist: &mut Netlist, library: &Library, config: &SstaConfig) -> usize {
    let snapshot = FullSsta::new(library, config).analyze(netlist);
    let fast = Fassta::new(library, config);
    let centres: Vec<GateId> = netlist
        .gate_ids()
        .filter(|&g| !netlist.gate(g).is_input())
        .collect();
    let mut compared = 0;
    for g in centres {
        let gate = netlist.gate(g);
        let GateKind::Cell { function, size } = *gate.kind() else {
            continue;
        };
        let ladder = library
            .group(function, gate.fanins().len())
            .map_or(1, |group| group.len());
        for depth in 0..=3 {
            let sub = Subcircuit::extract(netlist, g, depth);
            for trial in 0..ladder {
                netlist.set_size(g, trial);
                let want_delays =
                    reference_member_delays(snapshot.timing(), netlist, library, config, &sub);
                let got_delays = snapshot
                    .timing()
                    .member_delays(netlist, library, config, &sub);
                assert_eq!(
                    bits(&got_delays),
                    bits(&want_delays),
                    "{}: member delays, centre {g} depth {depth} size {trial}",
                    netlist.name()
                );
                let want = reference_evaluate(
                    netlist,
                    library,
                    config,
                    &sub,
                    snapshot.arrivals(),
                    snapshot.timing(),
                );
                let got =
                    fast.evaluate_subcircuit(netlist, &sub, snapshot.arrivals(), snapshot.timing());
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "{}: local outputs, centre {g} depth {depth} size {trial}",
                    netlist.name()
                );
                compared += 1;
            }
            netlist.set_size(g, size);
        }
    }
    compared
}

#[test]
fn evaluation_matches_reference_on_shipped_benches() {
    let lib = Library::synthetic_90nm();
    let config = SstaConfig::default();
    let data = concat!(env!("CARGO_MANIFEST_DIR"), "/../../data");
    let mut benches = 0;
    for entry in std::fs::read_dir(data).expect("data directory") {
        let path = entry.expect("entry").path();
        if path.extension().is_some_and(|e| e == "bench") {
            let text = std::fs::read_to_string(&path).expect("readable");
            let name = path.file_stem().expect("stem").to_string_lossy();
            let mut n = parse_bench(&text, &name).expect("parses").endpoint_marked();
            assert!(check_every_centre(&mut n, &lib, &config) > 0, "{name}");
            benches += 1;
        }
    }
    assert!(benches >= 5, "found {benches} .bench files");
}

fn dag_config() -> impl Strategy<Value = (RandomDagConfig, u64)> {
    (2usize..10, 5usize..60, 2usize..30, any::<u64>()).prop_map(|(inputs, gates, window, seed)| {
        (
            RandomDagConfig {
                inputs,
                gates,
                window,
            },
            seed,
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn evaluation_matches_reference_on_random_dags(
        (cfg, seed) in dag_config(),
        size_seed in any::<u64>(),
        wired in any::<bool>(),
    ) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let lib = Library::synthetic_90nm();
        let config = SstaConfig {
            wire_cap_per_fanout: if wired { 0.5 } else { 0.0 },
            ..SstaConfig::default()
        };
        let mut n = random_dag(cfg, seed, &lib);
        // Random starting sizes, so boundary slews and loads vary.
        let mut rng = StdRng::seed_from_u64(size_seed);
        let gates: Vec<GateId> = n.gate_ids().collect();
        for g in gates {
            let gate = n.gate(g);
            if let GateKind::Cell { function, .. } = *gate.kind() {
                if let Some(group) = lib.group(function, gate.fanins().len()) {
                    n.set_size(g, rng.gen_range(0..group.len()));
                }
            }
        }
        prop_assert!(check_every_centre(&mut n, &lib, &config) > 0);
    }
}
