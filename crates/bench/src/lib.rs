//! # vartol-bench
//!
//! The experiment harness regenerating every table and figure of the
//! DATE'05 paper:
//!
//! * `table1` — Table 1: the benchmark suite optimized at α = 3 and α = 9.
//! * `fig1_pdf` — Fig. 1: circuit output-delay PDFs (original vs two
//!   optimization points).
//! * `fig3_wnss` — Fig. 3: the WNSS tracing walk-through on the paper's
//!   6-node example.
//! * `fig4_tradeoff` — Fig. 4: the normalized μ–σ tradeoff for c432 over α.
//! * `ablation` — ablations of the paper's design choices, one section
//!   each.
//!
//! A sixth binary, `vartol-suite`, is the CI perf-artifact pipeline: it
//! runs all four engines plus the optimizer end-to-end across a circuit
//! matrix (`data/*.bench` plus the generator presets) and writes a
//! validated `BENCH_suite.json` — see the [`suite`] module.
//!
//! The library part holds the shared "paper flow" runner: generate the
//! circuit, mean-optimize it (the paper's "original" point), then run
//! StatisticalGreedy at each α and collect Table-1 columns.

pub mod frontier;
pub mod suite;

use std::time::Instant;
use vartol_core::{MeanDelaySizer, OptimizationReport, SizerConfig, StatisticalGreedy};
use vartol_liberty::Library;
use vartol_netlist::generators::{benchmark, benchmark_names};
use vartol_netlist::Netlist;
use vartol_ssta::{FullSsta, SstaConfig};

/// Shared CLI front end for the single-circuit figure binaries
/// (`fig1_pdf`, `fig4_tradeoff`): `NAME [CIRCUIT]` with a default of
/// `c432`, `--help`/`-h` (usage, exit 0), and rejection of unknown
/// flags, unknown benchmark names, and extra positionals (usage to
/// stderr, exit 2).
#[must_use]
pub fn circuit_arg(binary: &str, purpose: &str) -> String {
    let usage = format!(
        "{binary}: {purpose}\n\n\
         usage: {binary} [CIRCUIT]\n\n\
         CIRCUIT   benchmark to run, one of {} (default c432)",
        benchmark_names().join(", ")
    );
    let mut args = std::env::args().skip(1);
    let name = match args.next() {
        None => "c432".to_owned(),
        Some(arg) if arg == "--help" || arg == "-h" => {
            println!("{usage}");
            std::process::exit(0);
        }
        Some(arg) if arg.starts_with('-') => {
            eprintln!("{binary}: unknown argument `{arg}`\n\n{usage}");
            std::process::exit(2);
        }
        Some(arg) if !benchmark_names().contains(&arg.as_str()) => {
            eprintln!("{binary}: unknown benchmark `{arg}`\n\n{usage}");
            std::process::exit(2);
        }
        Some(arg) => arg,
    };
    if let Some(extra) = args.next() {
        eprintln!("{binary}: unexpected argument `{extra}`\n\n{usage}");
        std::process::exit(2);
    }
    name
}

/// One α column of a Table-1 row.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AlphaResult {
    /// The σ weight.
    pub alpha: f64,
    /// Percent change of the circuit mean vs the original point.
    pub d_mu_pct: f64,
    /// Percent change of the circuit σ vs the original point.
    pub d_sigma_pct: f64,
    /// σ/μ after optimization.
    pub sigma_over_mu: f64,
    /// Percent change in area vs the original point.
    pub d_area_pct: f64,
    /// Optimization wall-clock seconds (the paper reports minutes).
    pub runtime_s: f64,
    /// Outer passes executed.
    pub passes: usize,
}

impl AlphaResult {
    /// Extracts the Table-1 columns from an optimization report.
    #[must_use]
    pub fn from_report(report: &OptimizationReport) -> Self {
        Self {
            alpha: report.alpha(),
            d_mu_pct: report.delta_mean_pct(),
            d_sigma_pct: report.delta_sigma_pct(),
            sigma_over_mu: report.sigma_over_mu_after(),
            d_area_pct: report.delta_area_pct(),
            runtime_s: report.runtime().as_secs_f64(),
            passes: report.passes().len(),
        }
    }
}

/// One full row of the reproduced Table 1.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Table1Row {
    /// Circuit name.
    pub name: String,
    /// Gate count of the generated analogue.
    pub gates: usize,
    /// σ/μ at the mean-optimized "original" point.
    pub original_sigma_over_mu: f64,
    /// Results per α, in the order requested.
    pub results: Vec<AlphaResult>,
    /// Seconds spent producing the "original" (mean-optimized) circuit.
    pub baseline_runtime_s: f64,
}

/// Runs the paper's full flow for one suite circuit: generate →
/// mean-optimize ("original") → StatisticalGreedy at each α (each starting
/// from the same original sizes).
///
/// # Panics
///
/// Panics if `name` is not a known benchmark.
#[must_use]
pub fn run_table1_row(
    name: &str,
    library: &Library,
    ssta: &SstaConfig,
    alphas: &[f64],
) -> Table1Row {
    let mut original =
        benchmark(name, library).unwrap_or_else(|| panic!("unknown benchmark `{name}`"));
    let gates = original.gate_count();

    let t0 = Instant::now();
    let _ = MeanDelaySizer::new(library, ssta).minimize_delay(&mut original);
    let baseline_runtime_s = t0.elapsed().as_secs_f64();

    let original_sigma_over_mu = FullSsta::new(library, ssta)
        .analyze(&original)
        .circuit_moments()
        .sigma_over_mu();

    let results = alphas
        .iter()
        .map(|&alpha| {
            let mut n = original.clone();
            let config = SizerConfig::with_alpha(alpha).with_ssta(ssta.clone());
            let report = StatisticalGreedy::new(library, config).optimize(&mut n);
            AlphaResult::from_report(&report)
        })
        .collect();

    Table1Row {
        name: name.to_owned(),
        gates,
        original_sigma_over_mu,
        results,
        baseline_runtime_s,
    }
}

/// Produces the paper's "original" circuit (generated + mean-optimized)
/// for figure experiments.
///
/// # Panics
///
/// Panics if `name` is not a known benchmark.
#[must_use]
pub fn original_circuit(name: &str, library: &Library, ssta: &SstaConfig) -> Netlist {
    let mut n = benchmark(name, library).unwrap_or_else(|| panic!("unknown benchmark `{name}`"));
    let _ = MeanDelaySizer::new(library, ssta).minimize_delay(&mut n);
    n
}

/// Formats a Table-1 row set as an aligned text table mirroring the
/// paper's columns.
#[must_use]
pub fn format_table1(rows: &[Table1Row]) -> String {
    let mut s = String::new();
    s.push_str(
        "circuit   gates  orig s/m |   a=3: dmu%  dsig%    s/m  dA%    t(s) |   a=9: dmu%  dsig%    s/m  dA%    t(s)\n",
    );
    s.push_str(&"-".repeat(118));
    s.push('\n');
    for r in rows {
        s.push_str(&format!(
            "{:<9} {:>5}   {:>7.3}",
            r.name, r.gates, r.original_sigma_over_mu
        ));
        for a in &r.results {
            s.push_str(&format!(
                " | {:>10.1} {:>6.1} {:>6.3} {:>4.0} {:>7.1}",
                a.d_mu_pct, a.d_sigma_pct, a.sigma_over_mu, a.d_area_pct, a.runtime_s
            ));
        }
        s.push('\n');
    }
    s
}

/// A simple ASCII rendering of a discrete PDF for terminal figures.
#[must_use]
pub fn ascii_pdf(label: &str, values: &[f64], probs: &[f64], width: usize) -> String {
    let max_p = probs.iter().fold(0.0f64, |a, &b| a.max(b)).max(1e-12);
    let mut s = format!("{label}\n");
    for (v, p) in values.iter().zip(probs) {
        let bar = "#".repeat(((p / max_p) * width as f64).round() as usize);
        s.push_str(&format!("{v:>10.1} | {bar} {p:.4}\n"));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_row_on_small_circuit() {
        let lib = Library::synthetic_90nm();
        let ssta = SstaConfig::default();
        let row = run_table1_row("alu2", &lib, &ssta, &[3.0]);
        assert_eq!(row.name, "alu2");
        assert!(row.gates > 100);
        assert!(row.original_sigma_over_mu > 0.0);
        assert_eq!(row.results.len(), 1);
        let a3 = &row.results[0];
        assert!(
            a3.d_sigma_pct < 0.0,
            "sigma must fall: {:+.1}%",
            a3.d_sigma_pct
        );
        assert!(a3.sigma_over_mu < row.original_sigma_over_mu);
    }

    #[test]
    fn formatting_contains_all_rows() {
        let lib = Library::synthetic_90nm();
        let ssta = SstaConfig::default();
        let rows = vec![run_table1_row("alu2", &lib, &ssta, &[3.0, 9.0])];
        let text = format_table1(&rows);
        assert!(text.contains("alu2"));
        assert!(text.lines().count() >= 3);
    }

    #[test]
    fn ascii_pdf_renders_bars() {
        let s = ascii_pdf("test", &[1.0, 2.0], &[0.25, 0.75], 20);
        assert!(s.contains("test"));
        assert!(s.contains('#'));
    }

    #[test]
    #[should_panic(expected = "unknown benchmark")]
    fn unknown_circuit_panics() {
        let lib = Library::synthetic_90nm();
        let _ = run_table1_row("c9999", &lib, &SstaConfig::default(), &[3.0]);
    }
}
