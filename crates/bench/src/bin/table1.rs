//! Reproduces **Table 1** of the paper: the full benchmark suite optimized
//! at α = 3 and α = 9, reporting Δμ%, Δσ%, σ/μ, ΔA% and runtime per
//! circuit.
//!
//! Usage:
//!
//! ```text
//! table1 [--quick] [--json PATH] [CIRCUIT ...]
//! ```
//!
//! `--quick` restricts the run to circuits below 1000 gates; naming
//! specific circuits runs only those. `--json PATH` additionally dumps the
//! rows as JSON for downstream tooling.

use vartol_bench::{format_table1, run_table1_row, Table1Row};
use vartol_liberty::Library;
use vartol_netlist::generators::{benchmark, benchmark_names};
use vartol_ssta::SstaConfig;

const USAGE: &str = "table1: reproduce Table 1 (statistical sizing at alpha = 3 and 9)\n\n\
                     usage: table1 [--quick] [--json PATH] [CIRCUIT ...]\n\n\
                     --quick       only circuits below 1000 gates\n\
                     --json PATH   additionally dump the rows as JSON\n\
                     CIRCUIT ...   run only the named benchmarks (default: all)";

fn parse_args() -> Result<(bool, Option<String>, Vec<String>), String> {
    let mut quick = false;
    let mut json_path = None;
    let mut requested = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--json" => {
                json_path = Some(args.next().ok_or("--json needs a value")?);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown argument `{other}`"));
            }
            circuit => {
                if !benchmark_names().contains(&circuit) {
                    return Err(format!(
                        "unknown benchmark `{circuit}` (expected one of {})",
                        benchmark_names().join(", ")
                    ));
                }
                requested.push(circuit.to_owned());
            }
        }
    }
    Ok((quick, json_path, requested))
}

fn main() {
    let (quick, json_path, requested) = parse_args().unwrap_or_else(|msg| {
        eprintln!("table1: {msg}\n\n{USAGE}");
        std::process::exit(2);
    });

    let lib = Library::synthetic_90nm();
    let ssta = SstaConfig::default();
    let names: Vec<&str> = if requested.is_empty() {
        benchmark_names()
            .iter()
            .copied()
            .filter(|name| {
                if !quick {
                    return true;
                }
                benchmark(name, &lib)
                    .map(|n| n.gate_count() < 1000)
                    .unwrap_or(false)
            })
            .collect()
    } else {
        requested.iter().map(String::as_str).collect()
    };

    println!("# Table 1 reproduction — statistical gate sizing at alpha = 3 and 9");
    println!("# variation model: {}", ssta.variation);
    println!();

    let mut rows: Vec<Table1Row> = Vec::new();
    for name in names {
        eprintln!("running {name} ...");
        let row = run_table1_row(name, &lib, &ssta, &[3.0, 9.0]);
        println!("{}", format_table1(std::slice::from_ref(&row)));
        rows.push(row);
    }

    println!("== full table ==");
    println!("{}", format_table1(&rows));

    // Suite-level averages (the paper's headline: ~72% sigma reduction for
    // ~20% area at alpha = 9).
    for (i, alpha) in [3.0, 9.0].iter().enumerate() {
        let k = rows.len() as f64;
        if rows.iter().any(|r| r.results.len() <= i) {
            continue;
        }
        let avg_sigma: f64 = rows.iter().map(|r| r.results[i].d_sigma_pct).sum::<f64>() / k;
        let avg_area: f64 = rows.iter().map(|r| r.results[i].d_area_pct).sum::<f64>() / k;
        let avg_mu: f64 = rows.iter().map(|r| r.results[i].d_mu_pct).sum::<f64>() / k;
        println!(
            "average @ alpha={alpha}: dsigma {avg_sigma:+.1}%  darea {avg_area:+.1}%  dmu {avg_mu:+.1}%"
        );
    }

    if let Some(path) = json_path {
        let json = serde_json::to_string_pretty(&rows).expect("rows serialize");
        std::fs::write(&path, json).expect("write json output");
        eprintln!("wrote {path}");
    }
}
