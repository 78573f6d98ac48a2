//! Reproduces **Fig. 3** of the paper: tracing the worst negative
//! statistical slack (WNSS) path on the 6-node example, showing each
//! pairwise decision — dominance shortcut or finite-difference
//! sensitivity.
//!
//! Arrival statistics `(μ, σ)` are planted exactly as printed in the
//! figure: `(320,27)`, `(310,45)`, `(357,32)`, `(392,35)`, `(190,41)`.

use vartol_liberty::LogicFunction;
use vartol_netlist::NetlistBuilder;
use vartol_ssta::WnssTracer;
use vartol_stats::fast_max::{normalized_gap, DOMINANCE_THRESHOLD};
use vartol_stats::sensitivity::dvar_dmu;
use vartol_stats::Moments;

const USAGE: &str = "fig3_wnss: reproduce Fig. 3 (WNSS path tracing on the 6-node example)\n\n\
                     usage: fig3_wnss (takes no arguments)";

fn main() {
    if let Some(arg) = std::env::args().nth(1) {
        if arg == "--help" || arg == "-h" {
            println!("{USAGE}");
            return;
        }
        eprintln!("fig3_wnss: unexpected argument `{arg}`\n\n{USAGE}");
        std::process::exit(2);
    }
    // The figure's structure: two branches joining at X, with a side
    // branch merging one level earlier.
    let mut b = NetlistBuilder::new("fig3");
    let i1 = b.input("i1");
    let i2 = b.input("i2");
    let i3 = b.input("i3");
    let g1 = b.gate("g1", LogicFunction::Buf, &[i1]);
    let g2 = b.gate("g2", LogicFunction::Buf, &[i2]);
    let g3 = b.gate("g3", LogicFunction::Buf, &[i3]);
    let g2b = b.gate("g2b", LogicFunction::Nand, &[g2, g3]);
    let x = b.gate("x", LogicFunction::Nand, &[g1, g2b]);
    b.mark_output(x);
    let n = b.build().expect("valid");

    let mut arrivals = vec![Moments::zero(); n.node_count()];
    arrivals[g1.index()] = Moments::from_mean_std(320.0, 27.0);
    arrivals[g2.index()] = Moments::from_mean_std(310.0, 45.0);
    arrivals[g3.index()] = Moments::from_mean_std(190.0, 41.0);
    arrivals[g2b.index()] = Moments::from_mean_std(357.0, 32.0);
    arrivals[x.index()] = Moments::from_mean_std(392.0, 35.0);

    println!("# Fig. 3 reproduction — WNSS tracing");
    println!("node X output arrival: (392, 35)");
    println!();

    let coupling = 0.05;
    let explain = |label: &str, a: Moments, b: Moments| {
        let gap = normalized_gap(a, b);
        println!("{label}: A = {a}, B = {b}");
        println!("  normalized gap alpha = {gap:+.3} (threshold {DOMINANCE_THRESHOLD})");
        if gap.abs() >= DOMINANCE_THRESHOLD {
            println!("  -> dominance shortcut (eq. 5/6): pick the higher mean");
        } else {
            let h = 0.01 * a.mean.max(b.mean);
            let sa = dvar_dmu(a, b, h, coupling);
            let sb = dvar_dmu(b, a, h, coupling);
            println!(
                "  -> finite-difference sensitivities: |dVar/dmu_A| = {:.3}, |dVar/dmu_B| = {:.3}",
                sa.abs(),
                sb.abs()
            );
        }
    };

    explain(
        "at X: inputs g1 vs g2b",
        arrivals[g1.index()],
        arrivals[g2b.index()],
    );
    explain(
        "at g2b: inputs g2 vs g3",
        arrivals[g2.index()],
        arrivals[g3.index()],
    );
    println!();

    let tracer = WnssTracer::new(coupling);
    let path = tracer.trace_from(&n, &arrivals, x);
    let names: Vec<&str> = path.iter().map(|&g| n.gate(g).name()).collect();
    println!("WNSS path (input-first): {}", names.join(" -> "));
    println!("paper's shaded path:     g2 -> g2b -> x");
    assert_eq!(
        names,
        ["g2", "g2b", "x"],
        "must match the paper's shaded nodes"
    );
    println!("MATCH");
}
