//! Statistical vs deterministic critical paths.
//!
//! Loads a circuit from ISCAS-85 `.bench` text, runs both deterministic
//! STA and FULLSSTA through the unified engine API, and compares the
//! classic worst-slack path with the worst-negative-statistical-slack
//! (WNSS) path — they can differ when a shorter path carries more
//! variance.
//!
//! Run with: `cargo run --release --example wnss_tracing`

use vartol::liberty::Library;
use vartol::netlist::iscas::parse_bench;
use vartol::ssta::{Dsta, FullSsta, SstaConfig, WnssTracer};

const BENCH_TEXT: &str = "\
# a c17-flavoured example with an unbalanced fork
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
OUTPUT(y)
t1 = NAND(a, b)
t2 = NAND(b, c)
t3 = NAND(t1, t2)
t4 = XOR(c, d)
t5 = NAND(t4, d)
y  = NAND(t3, t5)
";

fn main() {
    let library = Library::synthetic_90nm();
    let netlist = parse_bench(BENCH_TEXT, "example").expect("valid .bench text");
    println!("parsed: {netlist}");

    let config = SstaConfig::default();
    let det = Dsta::new(&library, &config).analyze(&netlist);
    let stat = FullSsta::new(&library, &config).analyze(&netlist);

    println!();
    println!("deterministic longest delay: {:.1} ps", det.max_delay());
    let m = stat.circuit_moments();
    println!(
        "statistical circuit delay:   mu = {:.1} ps, sigma = {:.2} ps",
        m.mean,
        m.std()
    );

    let det_path: Vec<&str> = det
        .critical_path(&netlist)
        .iter()
        .map(|&g| netlist.gate(g).name())
        .collect();
    println!();
    println!("deterministic critical path: {}", det_path.join(" -> "));

    let tracer = WnssTracer::new(config.variation.mu_sigma_coupling());
    let wnss_path: Vec<&str> = tracer
        .trace(&netlist, stat.arrivals())
        .iter()
        .map(|&g| netlist.gate(g).name())
        .collect();
    println!("WNSS path:                   {}", wnss_path.join(" -> "));

    println!();
    println!("per-node arrival statistics:");
    for id in netlist.gate_ids() {
        let a = stat.arrival(id);
        println!(
            "  {:<4} mu = {:>6.1}  sigma = {:>5.2}",
            netlist.gate(id).name(),
            a.mean,
            a.std()
        );
    }
}
