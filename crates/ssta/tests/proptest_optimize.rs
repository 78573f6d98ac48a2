//! Property-based tests of the global-optimizer building blocks over
//! random circuits.
//!
//! Three contracts:
//!
//! * The Lagrangian multiplier update is a projected subgradient step:
//!   multipliers stay non-negative, move with the sign of their
//!   endpoint's violation, and are stationary (KKT-style) exactly where
//!   the violation is zero — checked on violations computed from real
//!   endpoint arrivals of random seeded DAGs.
//! * Continuous-to-discrete rounding never leaves the library's size
//!   ladder, for any float including NaN and the infinities.
//! * The annealing winner the session commits is exactly the circuit
//!   its restart's report describes: replaying the final sizes
//!   through an independent incremental session — and through a
//!   from-scratch analysis — reproduces the reported moments bit for
//!   bit.

use proptest::prelude::*;
use vartol_liberty::Library;
use vartol_netlist::generators::{random_dag, RandomDagConfig};
use vartol_ssta::optimize::{round_to_library, update_multipliers};
use vartol_ssta::{AnnealingConfig, AnnealingSizer, FullSsta, Sizer, SstaConfig, TimingSession};

fn dag_config() -> impl Strategy<Value = (RandomDagConfig, u64)> {
    (2usize..8, 10usize..60, 3usize..20, any::<u64>()).prop_map(|(inputs, gates, window, seed)| {
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
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn multiplier_updates_are_projected_subgradient_steps(
        (cfg, seed) in dag_config(),
        step in 0.01f64..10.0,
        target_frac in 0.5f64..1.0,
    ) {
        let lib = Library::synthetic_90nm();
        let n = random_dag(cfg, seed, &lib);
        let report = FullSsta::new(&lib, &SstaConfig::default()).analyze(&n);
        // Real per-endpoint violations: arrival cost against a target
        // placed inside the arrival range, so both signs occur.
        let outputs: Vec<_> = n.outputs().to_vec();
        prop_assert!(!outputs.is_empty(), "random DAGs always have outputs");
        let costs: Vec<f64> = outputs
            .iter()
            .map(|&o| report.arrival(o).mean + 3.0 * report.arrival(o).std())
            .collect();
        let worst = costs.iter().fold(0.0f64, |a, &b| a.max(b));
        let target = worst * target_frac;
        let violations: Vec<f64> = costs.iter().map(|c| c - target).collect();
        let lambdas = vec![1.0 / costs.len() as f64; costs.len()];
        let updated = update_multipliers(&lambdas, &violations, step);
        prop_assert_eq!(updated.len(), lambdas.len());
        for ((&l0, &l1), &v) in lambdas.iter().zip(&updated).zip(&violations) {
            // Projection: never negative.
            prop_assert!(l1 >= 0.0, "multiplier went negative: {l1}");
            if v > 0.0 {
                // A violated endpoint's price strictly rises.
                prop_assert!(l1 > l0, "violation {v} did not raise {l0} -> {l1}");
                prop_assert!((l1 - (l0 + step * v)).abs() < 1e-12);
            } else if v < 0.0 {
                // Slack endpoints relax (down to the projection floor).
                prop_assert!(l1 <= l0, "slack {v} raised {l0} -> {l1}");
                prop_assert!((l1 - (l0 + step * v).max(0.0)).abs() < 1e-12);
            } else {
                // KKT stationarity: zero violation, zero movement.
                prop_assert!((l1 - l0).abs() < 1e-15);
            }
        }
        // A second update at the stationary point stays put: feeding
        // zero violations moves nothing.
        let stationary = update_multipliers(&updated, &vec![0.0; updated.len()], step);
        prop_assert_eq!(stationary, updated);
    }

    #[test]
    fn rounding_never_leaves_the_size_ladder(
        bits in any::<u64>(),
        group_len in 1usize..12,
    ) {
        // Bit-pattern sampling covers NaN, the infinities, and
        // subnormals alongside ordinary floats.
        let x = f64::from_bits(bits);
        let idx = round_to_library(x, group_len);
        prop_assert!(idx < group_len, "index {idx} outside ladder of {group_len}");
        // In-range values round to the nearest rung.
        if x.is_finite() && x >= 0.0 && x <= (group_len - 1) as f64 {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let nearest = x.round() as usize;
            prop_assert_eq!(idx, nearest.min(group_len - 1));
        }
    }

    #[test]
    fn rounding_respects_library_group_bounds_on_real_gates(
        (cfg, seed) in dag_config(),
        x in -5.0f64..20.0,
    ) {
        let lib = Library::synthetic_90nm();
        let n = random_dag(cfg, seed, &lib);
        for id in n.gate_ids() {
            let vartol_netlist::GateKind::Cell { function, .. } = n.gate(id).kind() else {
                continue;
            };
            let arity = n.gate(id).fanins().len();
            let Some(group) = lib.group(*function, arity) else {
                continue;
            };
            let idx = round_to_library(x, group.cells().len());
            // The rounded index is always a real cell of the group.
            prop_assert!(idx < group.cells().len());
        }
    }

    #[test]
    fn committed_annealing_winner_matches_its_reported_moments(
        (cfg, seed) in dag_config(),
        anneal_seed in any::<u64>(),
    ) {
        let lib = Library::synthetic_90nm();
        let n = random_dag(cfg, seed, &lib);
        let config = AnnealingConfig::default()
            .with_restarts(2)
            .with_moves(25)
            .with_seed(anneal_seed)
            .with_ssta(SstaConfig::default());
        let sizer = AnnealingSizer::new(Library::synthetic_90nm(), config.clone());
        let mut sized = n.clone();
        let outcome = sizer.size(&mut sized);

        // The committed circuit replayed through an *independent*
        // incremental session reproduces the reported moments bit for
        // bit — commit() moved the winning branch's evaluated state in,
        // so any drift here means that state and the circuit disagree.
        let mut session = TimingSession::new(lib.clone(), config.ssta.clone(), n.clone());
        session
            .try_restore_sizes(&sized.sizes())
            .expect("winner sizes fit the library");
        let replayed = session.refresh();
        prop_assert_eq!(
            replayed.mean.to_bits(),
            outcome.final_moments.mean.to_bits(),
            "incremental replay drifted from the committed report"
        );
        prop_assert_eq!(
            replayed.var.to_bits(),
            outcome.final_moments.var.to_bits(),
            "incremental replay variance drifted"
        );

        // And a from-scratch analysis of the final netlist agrees too.
        let fresh = FullSsta::new(&lib, &config.ssta)
            .analyze(&sized)
            .circuit_moments();
        prop_assert_eq!(fresh.mean.to_bits(), outcome.final_moments.mean.to_bits());
        prop_assert_eq!(fresh.var.to_bits(), outcome.final_moments.var.to_bits());
    }
}
