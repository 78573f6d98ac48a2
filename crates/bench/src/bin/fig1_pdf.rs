//! Reproduces **Fig. 1** of the paper: the circuit output-delay PDF at
//! three design points — the mean-optimized "original" (widest spread) and
//! two statistical optimization points (α = 3 and α = 9, progressively
//! narrower) — plus the parametric-yield reading the figure motivates.
//!
//! Usage: `fig1_pdf [CIRCUIT]` (default c432).

use vartol_bench::{ascii_pdf, circuit_arg, original_circuit};
use vartol_core::{SizerConfig, StatisticalGreedy};
use vartol_liberty::Library;
use vartol_ssta::{FullSsta, MonteCarloTimer, SstaConfig};

fn main() {
    let name = circuit_arg(
        "fig1_pdf",
        "reproduce Fig. 1 (output-delay PDF at three design points)",
    );
    let lib = Library::synthetic_90nm();
    let ssta = SstaConfig::default();
    // Extra PDF resolution for a smooth figure.
    let fine = ssta.clone().with_pdf_samples(40);

    let original = original_circuit(&name, &lib, &ssta);

    let mut opt1 = original.clone();
    let r1 = StatisticalGreedy::new(&lib, SizerConfig::with_alpha(3.0).with_ssta(ssta.clone()))
        .optimize(&mut opt1);
    let mut opt2 = original.clone();
    let r2 = StatisticalGreedy::new(&lib, SizerConfig::with_alpha(9.0).with_ssta(ssta.clone()))
        .optimize(&mut opt2);

    println!("# Fig. 1 reproduction — output delay PDF of {name}");
    println!("# opt1 = alpha 3: {r1}");
    println!("# opt2 = alpha 9: {r2}");
    println!();

    let engine = FullSsta::new(&lib, &fine);
    let mut series = Vec::new();
    for (label, netlist) in [
        ("original (mean-optimized)", &original),
        ("optimization 1 (alpha = 3)", &opt1),
        ("optimization 2 (alpha = 9)", &opt2),
    ] {
        let pdf = engine
            .analyze(netlist)
            .circuit_pdf()
            .expect("fullssta computes a circuit pdf")
            .clone();
        let m = pdf.moments();
        println!(
            "{}",
            ascii_pdf(
                &format!("{label}: mu = {:.1} ps, sigma = {:.2} ps", m.mean, m.std()),
                pdf.values(),
                pdf.probs(),
                48,
            )
        );
        series.push((label, netlist));
    }

    // The figure's yield reading: pick the period T where opt1 starts
    // winning over the original, and report Monte-Carlo yield at T.
    // Parallel deterministic sampling: same numbers on any machine and
    // any thread count.
    let mc_engine = MonteCarloTimer::new(&lib, &ssta).with_seed(1);
    let original_mc = mc_engine.sample_parallel(&original, 20_000);
    let t = original_mc.moments().mean;
    println!("yield at period T = original mean ({t:.1} ps):");
    for (label, netlist) in series {
        let mc = mc_engine.sample_parallel(netlist, 20_000);
        println!("  {label:<28} yield {:.1}%", 100.0 * mc.yield_at(t));
    }
}
