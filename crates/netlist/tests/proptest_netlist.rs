//! Property-based tests of netlist invariants over random DAGs.

use proptest::prelude::*;
use vartol_liberty::Library;
use vartol_netlist::generators::{pipeline_adder, random_dag, shift_register_dag, RandomDagConfig};
use vartol_netlist::iscas::{parse_bench, write_bench};
use vartol_netlist::sim::{random_inputs, simulate};
use vartol_netlist::{GateId, Netlist, Subcircuit};

/// `is_output` — a per-node flag — agrees with a scan of `outputs()` on
/// every node of `n` and of its endpoint-marked view, and is false past
/// the node table.
fn assert_output_flags_match(n: &Netlist) {
    for view in [n.clone(), n.endpoint_marked()] {
        for id in view.node_ids() {
            assert_eq!(
                view.is_output(id),
                view.outputs().contains(&id),
                "{}: {id}",
                view.name()
            );
        }
        for past in [view.node_count(), view.node_count() + 1, usize::MAX >> 33] {
            assert!(!view.is_output(GateId::from_index(past)), "{}", view.name());
        }
    }
}

#[test]
fn output_flags_match_the_output_list_on_shipped_and_sequential_netlists() {
    let lib = Library::synthetic_90nm();
    let data = concat!(env!("CARGO_MANIFEST_DIR"), "/../../data");
    let mut benches = 0;
    for entry in std::fs::read_dir(data).expect("data directory") {
        let path = entry.expect("entry").path();
        if path.extension().is_some_and(|e| e == "bench") {
            let text = std::fs::read_to_string(&path).expect("readable");
            let name = path.file_stem().expect("stem").to_string_lossy();
            assert_output_flags_match(&parse_bench(&text, &name).expect("parses"));
            benches += 1;
        }
    }
    assert!(benches >= 5, "found {benches} .bench files");
    assert_output_flags_match(&pipeline_adder(4, &lib));
    assert_output_flags_match(&shift_register_dag(6, &lib));
}

fn dag_config() -> impl Strategy<Value = (RandomDagConfig, u64)> {
    (2usize..12, 5usize..120, 2usize..40, any::<u64>()).prop_map(|(inputs, gates, window, seed)| {
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
    fn output_flags_match_the_output_list_on_random_dags((cfg, seed) in dag_config()) {
        assert_output_flags_match(&random_dag(cfg, seed, &Library::synthetic_90nm()));
    }

    #[test]
    fn random_dags_satisfy_invariants((cfg, seed) in dag_config()) {
        let lib = Library::synthetic_90nm();
        let n = random_dag(cfg, seed, &lib);
        prop_assert!(n.check_invariants().is_ok());
        prop_assert!(n.validate_against_library(&lib).is_ok());
        prop_assert_eq!(n.gate_count(), cfg.gates);
        prop_assert_eq!(n.input_count(), cfg.inputs);
        prop_assert!(n.depth() <= cfg.gates);
    }

    #[test]
    fn bench_round_trip_preserves_function((cfg, seed) in dag_config()) {
        let lib = Library::synthetic_90nm();
        let n1 = random_dag(cfg, seed, &lib);
        let text = write_bench(&n1);
        let n2 = parse_bench(&text, "rt").expect("round trip parses");
        prop_assert_eq!(n1.gate_count(), n2.gate_count());
        prop_assert_eq!(n1.output_count(), n2.output_count());
        // Functional equivalence on a few random vectors. Output order may
        // differ between writers/parsers, so compare by output name.
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xabcd);
        use rand::SeedableRng;
        for _ in 0..8 {
            let v = random_inputs(&n1, &mut rng);
            let o1 = simulate(&n1, &v);
            let o2 = simulate(&n2, &v);
            for (k, &out_id) in n1.outputs().iter().enumerate() {
                let name = n1.gate(out_id).name();
                let id2 = n2.gate_by_name(name).expect("same names");
                let pos2 = n2.outputs().iter().position(|&o| o == id2).expect("marked");
                prop_assert_eq!(o1[k], o2[pos2], "output {}", name);
            }
        }
    }

    #[test]
    fn subcircuit_extraction_invariants((cfg, seed) in dag_config(), depth in 0usize..4) {
        let lib = Library::synthetic_90nm();
        let n = random_dag(cfg, seed, &lib);
        let center = n.gate_ids().next().expect("at least one gate");
        let sub = Subcircuit::extract(&n, center, depth);
        // Center always a member; members sorted (= topological).
        prop_assert!(sub.contains(center));
        prop_assert!(sub.members().windows(2).all(|w| w[0] < w[1]));
        // Boundary disjoint from members; all edges into the region come
        // from members or boundary.
        for &m in sub.members() {
            prop_assert!(!n.gate(m).is_input());
            for &f in n.gate(m).fanins() {
                prop_assert!(sub.contains(f) || sub.boundary_inputs().contains(&f));
            }
        }
        // Every local output is a member.
        for &o in sub.local_outputs() {
            prop_assert!(sub.contains(o));
        }
        // Monotone in depth: deeper extraction includes shallower members.
        if depth > 0 {
            let smaller = Subcircuit::extract(&n, center, depth - 1);
            for &m in smaller.members() {
                prop_assert!(sub.contains(m));
            }
        }
    }

    #[test]
    fn subcircuit_extraction_is_independent_of_sizes((cfg, seed) in dag_config(), size_seed in any::<u64>()) {
        // The sizers extract each gate's region once per run and reuse it
        // across resizes; that is sound only if extraction reads structure
        // alone.
        use rand::{Rng, SeedableRng};
        let lib = Library::synthetic_90nm();
        let mut n = random_dag(cfg, seed, &lib);
        let ids: Vec<GateId> = n.gate_ids().collect();
        let extract_all = |n: &Netlist| -> Vec<Subcircuit> {
            ids.iter()
                .flat_map(|&g| (0..=3).map(move |depth| Subcircuit::extract(n, g, depth)))
                .collect()
        };
        let before = extract_all(&n);
        let mut rng = rand::rngs::StdRng::seed_from_u64(size_seed);
        for _ in 0..ids.len() {
            let g = ids[rng.gen_range(0..ids.len())];
            let gate = n.gate(g);
            let group = lib
                .group(gate.function().expect("cell"), gate.fanins().len())
                .expect("validated");
            n.set_size(g, rng.gen_range(0..group.len()));
        }
        prop_assert_eq!(extract_all(&n), before);
    }

    #[test]
    fn size_snapshots_round_trip((cfg, seed) in dag_config(), bump in 0usize..5) {
        let lib = Library::synthetic_90nm();
        let mut n = random_dag(cfg, seed, &lib);
        let original = n.sizes();
        // Apply a bounded bump to every gate (clamped to its group).
        let ids: Vec<_> = n.gate_ids().collect();
        for id in &ids {
            let g = n.gate(*id);
            let group = lib
                .group(g.function().expect("cell"), g.fanins().len())
                .expect("validated");
            n.set_size(*id, bump.min(group.len() - 1));
        }
        prop_assert!(n.validate_against_library(&lib).is_ok());
        let bumped = n.sizes();
        n.restore_sizes(&original);
        prop_assert_eq!(n.sizes(), original);
        n.restore_sizes(&bumped);
        prop_assert_eq!(n.sizes(), bumped);
    }

    #[test]
    fn fanout_cone_matches_naive_bfs_reference((cfg, seed) in dag_config(), picks in 1usize..6) {
        // `fanout_cone` is load-bearing for incremental refresh seeding,
        // the cone-bound assertions, and the workspace's what-if path, so
        // pin it against an independent reference: a plain queue-based
        // BFS over fanout edges.
        let lib = Library::synthetic_90nm();
        let n = random_dag(cfg, seed, &lib);

        // A reproducible seed set drawn from all nodes (inputs included),
        // with intentional duplicates.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xc0de);
        let mut seeds: Vec<vartol_netlist::GateId> = (0..picks)
            .map(|_| {
                let i = rng.gen_range(0..n.node_count());
                vartol_netlist::GateId::from_index(i)
            })
            .collect();
        seeds.extend(seeds.clone()); // duplicates must collapse

        // Naive reference: BFS membership, no ordering guarantees.
        let mut reachable = vec![false; n.node_count()];
        let mut queue: std::collections::VecDeque<vartol_netlist::GateId> =
            seeds.iter().copied().collect();
        while let Some(id) = queue.pop_front() {
            if std::mem::replace(&mut reachable[id.index()], true) {
                continue;
            }
            for &f in n.gate(id).fanouts() {
                queue.push_back(f);
            }
        }

        let cone = n.fanout_cone(seeds.iter().copied());

        // Identical membership...
        let expected: Vec<vartol_netlist::GateId> = reachable
            .iter()
            .enumerate()
            .filter(|(_, &hit)| hit)
            .map(|(i, _)| vartol_netlist::GateId::from_index(i))
            .collect();
        prop_assert_eq!(&cone, &expected, "membership must match the BFS reference");

        // ...in topological order: ids ascend (construction order is
        // topological), and explicitly, every in-cone fanin of a cone
        // member precedes it in the returned vector.
        prop_assert!(cone.windows(2).all(|w| w[0] < w[1]), "cone must be sorted");
        let position: std::collections::HashMap<_, _> =
            cone.iter().enumerate().map(|(k, &id)| (id, k)).collect();
        for &member in &cone {
            for &f in n.gate(member).fanins() {
                if let (Some(&pf), Some(&pm)) = (position.get(&f), position.get(&member)) {
                    prop_assert!(pf < pm, "fanin {f} must precede {member} in the cone");
                }
            }
        }
    }

    #[test]
    fn sizes_do_not_change_function((cfg, seed) in dag_config()) {
        let lib = Library::synthetic_90nm();
        let n0 = random_dag(cfg, seed, &lib);
        let mut n1 = n0.clone();
        let ids: Vec<_> = n1.gate_ids().collect();
        for id in ids {
            let g = n1.gate(id);
            let group = lib
                .group(g.function().expect("cell"), g.fanins().len())
                .expect("validated");
            n1.set_size(id, group.len() - 1);
        }
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for _ in 0..8 {
            let v = random_inputs(&n0, &mut rng);
            prop_assert_eq!(simulate(&n0, &v), simulate(&n1, &v));
        }
    }
}
