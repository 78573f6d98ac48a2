//! Property-based tests of the timing engines over random circuits.

use proptest::prelude::*;
use vartol_liberty::Library;
use vartol_netlist::generators::{random_dag, RandomDagConfig};
use vartol_netlist::Netlist;
use vartol_ssta::{Dsta, Fassta, FullSsta, SstaConfig, TimingSession};
use vartol_stats::Moments;

fn dag_config() -> impl Strategy<Value = (RandomDagConfig, u64)> {
    (2usize..10, 10usize..80, 3usize..30, any::<u64>()).prop_map(|(inputs, gates, window, seed)| {
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

/// Bitwise image of a circuit's moments and per-node arrivals.
fn bits(moments: Moments, arrivals: &[Moments]) -> (u64, u64, Vec<(u64, u64)>) {
    (
        moments.mean.to_bits(),
        moments.var.to_bits(),
        arrivals
            .iter()
            .map(|m| (m.mean.to_bits(), m.var.to_bits()))
            .collect(),
    )
}

/// A from-scratch FULLSSTA session's moments and arrivals, bitwise.
fn scratch_bits(lib: &Library, netlist: &Netlist) -> (u64, u64, Vec<(u64, u64)>) {
    let scratch = TimingSession::new(lib, SstaConfig::default(), netlist.clone());
    bits(scratch.circuit_moments(), scratch.arrivals())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn branch_walk_matches_scratch_after_every_refresh(
        (cfg, seed) in dag_config(),
        walk_seed in any::<u64>(),
        steps in 1usize..40,
    ) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let lib = Library::synthetic_90nm();
        let n = random_dag(cfg, seed, &lib);
        let gates: Vec<_> = n.gate_ids().collect();
        let mut parent = TimingSession::new(&lib, SstaConfig::default(), n);
        let parent_before = bits(parent.refresh(), parent.arrivals());
        let parent_sizes = parent.sizes();

        let mut branch = parent.fork();
        let mut rng = StdRng::seed_from_u64(walk_seed);
        // (gate, size before the resize), newest last.
        let mut undo = Vec::new();
        for step in 0..steps {
            match rng.gen_range(0..6u8) {
                // Resize a random gate to a random library size.
                0..=2 => {
                    let id = gates[rng.gen_range(0..gates.len())];
                    let g = branch.netlist().gate(id);
                    let group = lib
                        .group(g.function().expect("cell"), g.fanins().len())
                        .expect("validated");
                    undo.push((id, g.size().expect("cell")));
                    branch.resize(id, rng.gen_range(0..group.len()));
                }
                // Revert the latest resize, with no refresh in between.
                3 => {
                    if let Some((id, size)) = undo.pop() {
                        branch.resize(id, size);
                    }
                }
                _ => {
                    let got = bits(branch.refresh(), branch.arrivals());
                    prop_assert_eq!(
                        got,
                        scratch_bits(&lib, branch.netlist()),
                        "step {}: branch drifted from scratch",
                        step
                    );
                    // The parent is untouched until the commit.
                    prop_assert_eq!(&parent.sizes(), &parent_sizes);
                    prop_assert_eq!(
                        &bits(parent.circuit_moments(), parent.arrivals()),
                        &parent_before
                    );
                }
            }
        }

        let final_netlist = branch.netlist().clone();
        let committed = parent.commit(branch).expect("parent stayed at the fork point");
        let expected = scratch_bits(&lib, &final_netlist);
        prop_assert_eq!(committed.mean.to_bits(), expected.0);
        prop_assert_eq!(bits(parent.circuit_moments(), parent.arrivals()), expected);
        prop_assert_eq!(parent.sizes(), final_netlist.sizes());
    }

    #[test]
    fn arrivals_monotone_along_edges((cfg, seed) in dag_config()) {
        let lib = Library::synthetic_90nm();
        let n = random_dag(cfg, seed, &lib);
        let r = FullSsta::new(&lib, &SstaConfig::default()).analyze(&n);
        for id in n.gate_ids() {
            let here = r.arrival(id);
            prop_assert!(here.mean > 0.0);
            prop_assert!(here.var >= 0.0);
            for &f in n.gate(id).fanins() {
                // A gate arrives strictly after each of its fanins.
                prop_assert!(here.mean > r.arrival(f).mean);
            }
        }
    }

    #[test]
    fn statistical_mean_bounds_deterministic((cfg, seed) in dag_config()) {
        let lib = Library::synthetic_90nm();
        let n = random_dag(cfg, seed, &lib);
        let config = SstaConfig::default();
        let det = Dsta::new(&lib, &config).analyze(&n).max_delay();
        let full = FullSsta::new(&lib, &config).analyze(&n).circuit_moments();
        let fast = Fassta::new(&lib, &config).analyze(&n).circuit_moments();
        prop_assert!(full.mean >= det - 1e-6, "full {} vs det {det}", full.mean);
        prop_assert!(fast.mean >= det - 1e-6, "fast {} vs det {det}", fast.mean);
    }

    #[test]
    fn deterministic_mode_agrees_across_engines((cfg, seed) in dag_config()) {
        let lib = Library::synthetic_90nm();
        let n = random_dag(cfg, seed, &lib);
        let config = SstaConfig::deterministic();
        let det = Dsta::new(&lib, &config).analyze(&n).max_delay();
        let full = FullSsta::new(&lib, &config).analyze(&n).circuit_moments();
        let fast = Fassta::new(&lib, &config).analyze(&n).circuit_moments();
        prop_assert!((full.mean - det).abs() < 1e-6);
        prop_assert!((fast.mean - det).abs() < 1e-6);
        prop_assert!(full.std() < 1e-9);
        prop_assert!(fast.std() < 1e-9);
    }

    #[test]
    fn engines_roughly_agree_with_variation((cfg, seed) in dag_config()) {
        let lib = Library::synthetic_90nm();
        let n = random_dag(cfg, seed, &lib);
        let config = SstaConfig::default();
        let full = FullSsta::new(&lib, &config)
            .analyze(&n)
            .circuit_moments();
        let fast = Fassta::new(&lib, &config).analyze(&n).circuit_moments();
        // The engines may diverge on heavily reconvergent DAGs (FASSTA
        // deliberately ignores correlation), but the bias stays bounded:
        // a narrow window forces every gate to reuse the same few nodes,
        // the worst case for the independence assumption.
        prop_assert!((full.mean - fast.mean).abs() / full.mean < 0.35);
    }

    #[test]
    fn upsizing_everything_never_raises_sigma((cfg, seed) in dag_config()) {
        let lib = Library::synthetic_90nm();
        let mut n = random_dag(cfg, seed, &lib);
        let config = SstaConfig::default();
        let engine = FullSsta::new(&lib, &config);
        let before = engine.analyze(&n).circuit_moments();
        let ids: Vec<_> = n.gate_ids().collect();
        for id in ids {
            let g = n.gate(id);
            let group = lib
                .group(g.function().expect("cell"), g.fanins().len())
                .expect("validated");
            n.set_size(id, group.len() - 1);
        }
        let after = engine.analyze(&n).circuit_moments();
        // Uniform max-sizing attenuates every gate's variation component.
        prop_assert!(
            after.std() <= before.std() * 1.02,
            "sigma {} -> {}",
            before.std(),
            after.std()
        );
    }

    #[test]
    fn wnss_path_always_valid((cfg, seed) in dag_config()) {
        use vartol_ssta::WnssTracer;
        let lib = Library::synthetic_90nm();
        let n = random_dag(cfg, seed, &lib);
        let config = SstaConfig::default();
        let r = FullSsta::new(&lib, &config).analyze(&n);
        let tracer = WnssTracer::new(config.variation.mu_sigma_coupling());
        let path = tracer.trace(&n, r.arrivals());
        prop_assert!(!path.is_empty());
        for w in path.windows(2) {
            prop_assert!(n.gate(w[1]).fanins().contains(&w[0]));
        }
        prop_assert!(n.is_output(*path.last().expect("non-empty")));
    }
}
