//! Cross-crate integration tests: the full paper flow from circuit
//! generation through statistical optimization, independently verified
//! with Monte-Carlo timing.

use rand::rngs::StdRng;
use rand::SeedableRng;
use vartol::core::{MeanDelaySizer, SizerConfig, StatisticalGreedy};
use vartol::liberty::Library;
use vartol::netlist::generators::{benchmark, ripple_carry_adder};
use vartol::netlist::sim::random_equivalence_check;
use vartol::ssta::{Dsta, FullSsta, MonteCarloTimer, SstaConfig};

#[test]
fn full_paper_flow_on_c432() {
    let lib = Library::synthetic_90nm();
    let ssta = SstaConfig::default();

    // 1. Generate and mean-optimize (the paper's "original").
    let mut original = benchmark("c432", &lib).expect("known benchmark");
    let baseline = MeanDelaySizer::new(&lib, &ssta).minimize_delay(&mut original);
    assert!(baseline.final_delay <= baseline.initial_delay);

    // 2. Statistical optimization at alpha = 9.
    let mut optimized = original.clone();
    let report = StatisticalGreedy::new(&lib, SizerConfig::with_alpha(9.0).with_ssta(ssta.clone()))
        .optimize(&mut optimized);
    assert!(
        report.delta_sigma_pct() < -15.0,
        "meaningful sigma reduction, got {:+.1}%",
        report.delta_sigma_pct()
    );
    assert!(report.delta_area_pct() > 0.0, "variance costs area");

    // 3. Monte-Carlo confirms the reduction on the actual netlists.
    let timer = MonteCarloTimer::new(&lib, &ssta).with_seed(99);
    let mc_orig = timer.sample_parallel(&original, 8_000).moments();
    let mc_opt = timer.sample_parallel(&optimized, 8_000).moments();
    assert!(
        mc_opt.std() < mc_orig.std() * 0.85,
        "MC-verified sigma reduction: {} vs {}",
        mc_opt.std(),
        mc_orig.std()
    );
}

#[test]
fn sizing_preserves_function() {
    // Resizing must never change logic: sizes are electrically, not
    // logically, meaningful. Check random equivalence before/after.
    let lib = Library::synthetic_90nm();
    let before = ripple_carry_adder(8, &lib);
    let mut after = before.clone();
    let _ = StatisticalGreedy::new(&lib, SizerConfig::with_alpha(3.0)).optimize(&mut after);
    assert!(
        after.sizes() != before.sizes(),
        "something must have been resized"
    );
    let mut rng = StdRng::seed_from_u64(3);
    assert!(
        random_equivalence_check(&before, &after, 256, &mut rng).is_none(),
        "resizing changed the boolean function"
    );
}

#[test]
fn statistical_engines_bracket_deterministic_sta() {
    let lib = Library::synthetic_90nm();
    let ssta = SstaConfig::default();
    for name in ["alu2", "c499", "c880"] {
        let n = benchmark(name, &lib).expect("known benchmark");
        let det = Dsta::new(&lib, &ssta).analyze(&n).max_delay();
        let stat = FullSsta::new(&lib, &ssta).analyze(&n).circuit_moments();
        // Statistical mean of the max >= max of the means, and not absurdly so.
        assert!(stat.mean >= det - 1e-6, "{name}");
        assert!(stat.mean <= det + 6.0 * stat.std(), "{name}");
    }
}

#[test]
fn optimization_is_deterministic() {
    // Same inputs, same result: no hidden RNG in the optimizer.
    let lib = Library::synthetic_90nm();
    let run = || {
        let mut n = benchmark("alu2", &lib).expect("known benchmark");
        let r = StatisticalGreedy::new(&lib, SizerConfig::with_alpha(3.0)).optimize(&mut n);
        (n.sizes(), r.final_moments())
    };
    let (s1, m1) = run();
    let (s2, m2) = run();
    assert_eq!(s1, s2);
    assert_eq!(m1, m2);
}

#[test]
fn area_recovery_composes_with_statistical_sizing() {
    let lib = Library::synthetic_90nm();
    let ssta = SstaConfig::default();
    let mut n = ripple_carry_adder(8, &lib);
    let sizer = MeanDelaySizer::new(&lib, &ssta);
    let baseline = sizer.minimize_delay(&mut n);

    let _ = StatisticalGreedy::new(&lib, SizerConfig::with_alpha(9.0).with_ssta(ssta.clone()))
        .optimize(&mut n);
    let area_before_recovery = n.total_area(&lib);

    // Recover area under a relaxed delay budget; sigma should not regress
    // catastrophically (downsizing is bounded by the delay constraint).
    let det = Dsta::new(&lib, &ssta).analyze(&n).max_delay();
    let sigma_before = FullSsta::new(&lib, &ssta)
        .analyze(&n)
        .circuit_moments()
        .std();
    let changed = sizer.recover_area(&mut n, det * 1.02);
    let area_after = n.total_area(&lib);
    assert!(area_after <= area_before_recovery);
    if changed > 0 {
        assert!(area_after < area_before_recovery);
    }
    let sigma_after = FullSsta::new(&lib, &ssta)
        .analyze(&n)
        .circuit_moments()
        .std();
    assert!(
        sigma_after < sigma_before * 2.0,
        "recovery must not destroy the sigma win"
    );
    let _ = baseline;
}
