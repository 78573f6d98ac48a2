//! Ablations of the paper's design choices.
//!
//! Usage: `ablation [SECTION ...]` where SECTION is one of
//! `erf`, `fastmax`, `engines`, `depth`, `subdepth`, `samples`, `paths`,
//! `exponent` (default: all).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;
use vartol_bench::original_circuit;
use vartol_core::{PathSelection, SizerConfig, StatisticalGreedy};
use vartol_liberty::{Library, LogicFunction, VariationModel};
use vartol_netlist::NetlistBuilder;
use vartol_ssta::{Fassta, FullSsta, MonteCarloTimer, SstaConfig};
use vartol_stats::erf::{half_erf_quadratic, phi_cdf};
use vartol_stats::fast_max::{fast_max_with_dominance, DominanceStats};
use vartol_stats::montecarlo::mc_max_two_correlated;
use vartol_stats::{clark_max, Moments};

const SECTIONS: [&str; 8] = [
    "erf", "fastmax", "engines", "depth", "subdepth", "samples", "paths", "exponent",
];

const USAGE: &str = "ablation: ablate the paper's design choices (E5-E9)\n\n\
                     usage: ablation [SECTION ...]\n\n\
                     SECTION ...   one or more of erf, fastmax, engines, depth,\n\
                                   subdepth, samples, paths, exponent (default: all)";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    for arg in &args {
        if arg == "--help" || arg == "-h" {
            println!("{USAGE}");
            return;
        }
        if !SECTIONS.contains(&arg.as_str()) {
            eprintln!("ablation: unknown section `{arg}`\n\n{USAGE}");
            std::process::exit(2);
        }
    }
    let want = |s: &str| args.is_empty() || args.iter().any(|a| a == s);

    if want("erf") {
        ablate_erf();
    }
    if want("fastmax") {
        ablate_fast_max();
    }
    if want("engines") {
        ablate_engines();
    }
    if want("depth") {
        ablate_depth();
    }
    if want("subdepth") {
        ablate_subcircuit_depth();
    }
    if want("samples") {
        ablate_pdf_samples();
    }
    if want("paths") {
        ablate_path_selection();
    }
    if want("exponent") {
        ablate_variation_exponent();
    }
}

/// E5: the paper claims the quadratic erf approximation is "accurate to
/// two decimal places".
fn ablate_erf() {
    println!("== E5: quadratic erf approximation accuracy ==");
    let mut worst: (f64, f64) = (0.0, 0.0);
    for i in -6000..=6000 {
        let x = f64::from(i) / 1000.0;
        let exact = phi_cdf(x) - 0.5;
        let err = (half_erf_quadratic(x) - exact).abs();
        if err > worst.1 {
            worst = (x, err);
        }
    }
    println!(
        "worst |error| over [-6,6]: {:.5} at x = {:.3} (paper claim: two decimals)",
        worst.1, worst.0
    );
    println!();
}

/// E6: fast-max accuracy vs exact Clark vs Monte Carlo, and the dominance
/// shortcut hit rate ("in the vast majority of cases" one of eq. 5/6
/// applies).
fn ablate_fast_max() {
    println!("== E6: fast max accuracy and dominance hit rate ==");
    let mut rng = StdRng::seed_from_u64(2025);

    // Accuracy on random moment pairs spanning the overlap region.
    let mut worst_mean_err = 0.0f64;
    let mut worst_sigma_err = 0.0f64;
    for _ in 0..2000 {
        let a = Moments::from_mean_std(rng.gen_range(50.0..500.0), rng.gen_range(1.0..60.0));
        let b = Moments::from_mean_std(rng.gen_range(50.0..500.0), rng.gen_range(1.0..60.0));
        let fast = fast_max_with_dominance(a, b).max;
        let exact = clark_max(a, b).max;
        let scale = exact.std().max(1.0);
        worst_mean_err = worst_mean_err.max((fast.mean - exact.mean).abs() / scale);
        worst_sigma_err = worst_sigma_err.max((fast.std() - exact.std()).abs() / scale);
    }
    println!("vs exact Clark over 2000 random pairs:");
    println!("  worst mean error  = {worst_mean_err:.4} sigma");
    println!("  worst sigma error = {worst_sigma_err:.4} sigma");

    // Spot-check Clark itself against Monte Carlo.
    let a = Moments::from_mean_std(320.0, 27.0);
    let b = Moments::from_mean_std(310.0, 45.0);
    let mc = mc_max_two_correlated(a, b, 0.0, 200_000, &mut rng);
    let cl = clark_max(a, b).max;
    let fm = fast_max_with_dominance(a, b).max;
    println!("fig-3 pair (320,27) vs (310,45):");
    println!(
        "  monte carlo: mu = {:.2}, sigma = {:.2}",
        mc.mean,
        mc.std()
    );
    println!(
        "  clark:       mu = {:.2}, sigma = {:.2}",
        cl.mean,
        cl.std()
    );
    println!(
        "  fast max:    mu = {:.2}, sigma = {:.2}",
        fm.mean,
        fm.std()
    );

    // Dominance hit rate on circuit-shaped arrival pairs: measure during a
    // real FASSTA-style propagation over a mean-optimized c880.
    let lib = Library::synthetic_90nm();
    let ssta = SstaConfig::default();
    let n = original_circuit("c880", &lib, &ssta);
    let full = FullSsta::new(&lib, &ssta).analyze(&n);
    let mut stats = DominanceStats::new();
    for id in n.gate_ids() {
        let fanins = n.gate(id).fanins();
        for pair in fanins.windows(2) {
            let a = full.arrival(pair[0]);
            let b = full.arrival(pair[1]);
            stats.record(fast_max_with_dominance(a, b).dominance);
        }
    }
    println!(
        "dominance shortcut rate on c880 arrival pairs: {:.1}% of {} maxima \
         (paper: 'in the vast majority of cases')",
        100.0 * stats.shortcut_rate(),
        stats.total()
    );
    println!();
}

/// E7: FULLSSTA vs FASSTA accuracy (vs Monte Carlo) and speed.
fn ablate_engines() {
    println!("== E7: FULLSSTA vs FASSTA accuracy and speed ==");
    let lib = Library::synthetic_90nm();
    let ssta = SstaConfig::default();
    for name in ["c432", "c880", "c1908"] {
        let n = original_circuit(name, &lib, &ssta);
        // Deterministic parallel reference (all cores; bit-identical for
        // any thread count, so the ablation stays reproducible).
        let t0 = Instant::now();
        let mc = MonteCarloTimer::new(&lib, &ssta)
            .with_seed(7)
            .sample_parallel(&n, 10_000)
            .moments();
        let t_mc = t0.elapsed();

        let t0 = Instant::now();
        let full = FullSsta::new(&lib, &ssta).analyze(&n).circuit_moments();
        let t_full = t0.elapsed();
        let t0 = Instant::now();
        let fast = Fassta::new(&lib, &ssta).analyze(&n).circuit_moments();
        let t_fast = t0.elapsed();

        println!("{name}:");
        println!(
            "  monte carlo  mu {:.1}  sigma {:.2}   ({:.2?})",
            mc.mean,
            mc.std(),
            t_mc
        );
        println!(
            "  fullssta     mu {:.1}  sigma {:.2}   ({:.2?})",
            full.mean,
            full.std(),
            t_full
        );
        println!(
            "  fassta       mu {:.1}  sigma {:.2}   ({:.2?}, {:.1}x faster)",
            fast.mean,
            fast.std(),
            t_fast,
            t_full.as_secs_f64() / t_fast.as_secs_f64().max(1e-12)
        );
    }
    println!();
}

/// E8: the paper's depth observation — "the number of gates along a timing
/// path is inversely proportional to the variance along that path".
fn ablate_depth() {
    println!("== E8: path depth vs sigma/mu ==");
    let lib = Library::synthetic_90nm();
    let config = SstaConfig::default();
    let engine = FullSsta::new(&lib, &config);
    println!("{:>6} {:>10}", "depth", "sigma/mu");
    for len in [1usize, 2, 4, 8, 16, 32, 64] {
        let mut b = NetlistBuilder::new(format!("chain{len}"));
        let a = b.input("a");
        let mut prev = a;
        for i in 0..len {
            prev = b.gate(format!("g{i}"), LogicFunction::Inv, &[prev]);
        }
        b.mark_output(prev);
        let n = b.build().expect("valid");
        let m = engine.analyze(&n).circuit_moments();
        println!("{len:>6} {:>10.4}", m.sigma_over_mu());
    }
    println!();
}

/// E9: subcircuit extraction depth (paper: two levels is "sufficiently
/// accurate without being too costly").
fn ablate_subcircuit_depth() {
    println!("== E9: subcircuit depth ablation ==");
    let lib = Library::synthetic_90nm();
    let ssta = SstaConfig::default();
    for name in ["c432", "c880"] {
        let original = original_circuit(name, &lib, &ssta);
        println!("{name}:");
        for depth in [1usize, 2, 3] {
            let mut n = original.clone();
            let config = SizerConfig::with_alpha(9.0)
                .with_ssta(ssta.clone())
                .with_subcircuit_depth(depth);
            let t0 = Instant::now();
            let report = StatisticalGreedy::new(&lib, config).optimize(&mut n);
            println!(
                "  depth {depth}: dsigma {:+.1}%  dmu {:+.1}%  darea {:+.1}%  in {:.2?}",
                report.delta_sigma_pct(),
                report.delta_mean_pct(),
                report.delta_area_pct(),
                t0.elapsed()
            );
        }
    }
    println!();
}

/// FULLSSTA sample-count sweep (the paper uses 10–15).
fn ablate_pdf_samples() {
    println!("== discrete-PDF sample count (paper: 10-15) ==");
    let lib = Library::synthetic_90nm();
    let base = SstaConfig::default();
    let n = original_circuit("c880", &lib, &base);
    let mc = MonteCarloTimer::new(&lib, &base)
        .with_seed(11)
        .sample_parallel(&n, 10_000)
        .moments();
    println!(
        "monte carlo reference: mu {:.1} sigma {:.2}",
        mc.mean,
        mc.std()
    );
    println!(
        "{:>8} {:>10} {:>10} {:>12}",
        "samples", "mu", "sigma", "time"
    );
    for samples in [4usize, 8, 10, 12, 15, 20, 30] {
        let config = base.clone().with_pdf_samples(samples);
        let t0 = Instant::now();
        let m = FullSsta::new(&lib, &config).analyze(&n).circuit_moments();
        println!(
            "{samples:>8} {:>10.1} {:>10.2} {:>12.2?}",
            m.mean,
            m.std(),
            t0.elapsed()
        );
    }
    println!();
}

/// Path-selection ablation: single worst-output path (the pseudo-code's
/// literal reading) vs per-output path union.
fn ablate_path_selection() {
    println!("== statistical critical path selection ==");
    let lib = Library::synthetic_90nm();
    let ssta = SstaConfig::default();
    for name in ["c432", "alu2"] {
        let original = original_circuit(name, &lib, &ssta);
        println!("{name}:");
        for (label, sel) in [
            ("worst output only", PathSelection::WorstOutput),
            ("all outputs      ", PathSelection::AllOutputs),
        ] {
            let mut n = original.clone();
            let config = SizerConfig::with_alpha(9.0)
                .with_ssta(ssta.clone())
                .with_path_selection(sel);
            let report = StatisticalGreedy::new(&lib, config).optimize(&mut n);
            println!(
                "  {label}: dsigma {:+.1}%  darea {:+.1}%  passes {}",
                report.delta_sigma_pct(),
                report.delta_area_pct(),
                report.passes().len()
            );
        }
    }
    println!();
}

/// Variation-model size exponent: Pelgrom 1/sqrt(drive) vs 1/drive.
fn ablate_variation_exponent() {
    println!("== variation size exponent ==");
    let lib = Library::synthetic_90nm();
    for exponent in [0.5, 1.0] {
        let variation = VariationModel::new(0.35, exponent, 1.5);
        let ssta = SstaConfig::default().with_variation(variation);
        let original = original_circuit("c432", &lib, &ssta);
        let mut n = original.clone();
        let config = SizerConfig::with_alpha(9.0).with_ssta(ssta.clone());
        let report = StatisticalGreedy::new(&lib, config).optimize(&mut n);
        println!(
            "exponent {exponent}: orig s/m {:.4} -> {:.4}  (dsigma {:+.1}%, darea {:+.1}%)",
            report.sigma_over_mu_before(),
            report.sigma_over_mu_after(),
            report.delta_sigma_pct(),
            report.delta_area_pct()
        );
    }
    println!();
}
