//! End-to-end and per-layer benchmark of the vartol stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload (see `perfbench/README.md`) on inputs made from
//! `--seed`, for about `--seconds` of measured work, checks every
//! answer, and prints as its last stdout line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0`
//! the metrics are the end-to-end ones ([`E2E`]); with `--trace 1` the
//! per-layer ones ([`LAYERS`]), measured from spans the benchmark
//! records around its own calls into each layer, which are also
//! written to `.bench_trace/`.

mod analyze;
mod anneal;
mod common;
mod greedy;
mod heap;
mod probe;
mod quality;
mod serve;
mod sizing;
mod trace;

use common::{Ctx, Metrics, Outcome};
use std::fmt::Write as _;
use std::process::ExitCode;

/// End-to-end metrics: name and unit. Every workload reports each.
pub const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("ok_frac", "ratio"),
    ("peak_heap_mb", "MiB"),
];

/// Per-layer metrics of the traced run: name and unit. A layer the
/// workload never calls reports 0.
pub const LAYERS: &[(&str, &str)] = &[
    ("liberty.build_s", "s"),
    ("netlist.generate_s", "s"),
    ("netlist.parse_s", "s"),
    ("netlist.gates", "count"),
    ("ssta.delay.compute_s", "s"),
    ("ssta.dsta.analyze_s", "s"),
    ("ssta.fassta.analyze_s", "s"),
    ("ssta.fullssta.analyze_s", "s"),
    ("ssta.montecarlo.analyze_s", "s"),
    ("ssta.pool.speedup_2v1", "ratio"),
    ("ssta.session.new_s", "s"),
    ("ssta.session.refresh_calls", "count"),
    ("ssta.session.refresh_s", "s"),
    ("ssta.session.visits", "count"),
    ("ssta.branch.fork_s", "s"),
    ("ssta.branch.refresh_s", "s"),
    ("ssta.branch.visits", "count"),
    ("ssta.branch.commit_s", "s"),
    ("core.mean_delay_s", "s"),
    ("core.mean_delay_passes", "count"),
    ("core.greedy_s", "s"),
    ("core.greedy_passes", "count"),
    ("core.greedy_resized", "count"),
    ("optimize.annealing_s", "s"),
    ("optimize.annealing_resized", "count"),
    ("optimize.lagrangian_s", "s"),
    ("optimize.lagrangian_passes", "count"),
    ("sizing.sigma_red_pct", "%"),
    ("sizing.area_inc_pct", "%"),
    ("sizing.obj_red_pct", "%"),
    ("check.mc_sigma_err_pct", "%"),
    ("workspace.exec_s", "s"),
    ("serve.read_p50_ms", "ms"),
    ("serve.read_p99_ms", "ms"),
    ("serve.read_samples", "count"),
    ("serve.write_p50_ms", "ms"),
    ("serve.write_p99_ms", "ms"),
    ("serve.write_samples", "count"),
    ("serve.read_share", "ratio"),
    ("serve.codec_s", "s"),
    ("serve.codec_bytes", "bytes"),
    ("serve.call_s", "s"),
    ("serve.cache.hits", "count"),
    ("serve.cache.misses", "count"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.invalidations", "count"),
    ("serve.cache.evictions", "count"),
    ("serve.busy_rejections", "count"),
    ("host.wall_s", "s"),
    ("host.peak_rss_mb", "MiB"),
    ("host.ref_s", "s"),
    ("trace.overhead_pct", "%"),
];

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// A workload: runs on the context's seed and reports what it measured.
type Workload = fn(&Ctx) -> Outcome;

/// The workloads, by name, with the threads their timed work keeps busy
/// (the reference kernel runs on as many).
const WORKLOADS: &[(&str, Workload, usize)] = &[
    ("analyze_25k", analyze::run, 1),
    ("paper_greedy", greedy::run, 1),
    ("global_anneal", anneal::run, 1),
    ("serve_mixed", serve::run, 2),
];

const USAGE: &str =
    "usage: vartol-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Renders the result line. Declared metrics a run did not touch are
/// 0: layers it never calls, or end-to-end metrics of a run cut short
/// by a failure. A correct run missing an end-to-end metric is a bug
/// in the workload.
fn result_line(out: &Outcome, traced: bool) -> String {
    let correct = out.checks.failed == 0 && out.checks.attempted > 0;
    let (declared, got): (&[(&str, &str)], &Metrics) = if traced {
        (LAYERS, &out.layer)
    } else {
        (E2E, &out.e2e)
    };
    let mut metrics = String::new();
    for (i, (name, unit)) in declared.iter().enumerate() {
        let value = got.get(name).copied().unwrap_or_else(|| {
            assert!(
                traced || !correct,
                "workload did not report end-to-end metric {name}"
            );
            0.0
        });
        let value = if value.is_finite() { value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        correct,
        out.checks.attempted.max(1),
        out.checks.failed,
    )
}

fn write_trace(ctx: &Ctx, workload: &str) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new(".bench_trace");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{workload}-seed{}.jsonl", ctx.seed));
    std::fs::write(
        &path,
        trace::to_json_lines(&ctx.tracer.spans(), workload, ctx.seed),
    )?;
    Ok(path)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some((name, run, ref_threads)) = WORKLOADS.iter().find(|(n, ..)| *n == args.workload)
    else {
        let names: Vec<&str> = WORKLOADS.iter().map(|(n, ..)| *n).collect();
        eprintln!(
            "unknown workload `{}` (one of {})\n{USAGE}",
            args.workload,
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
        tracer: trace::Tracer::new(),
        ref_threads: *ref_threads,
    };
    let mut out = run(&ctx);
    #[allow(clippy::cast_precision_loss)]
    let ok = {
        let c = &out.checks;
        1.0 - c.failed.min(c.attempted) as f64 / c.attempted.max(1) as f64
    };
    out.e2e.insert("ok_frac", ok);
    for (k, v) in out.e2e.iter().chain(&out.layer) {
        println!("# {name} {k} = {v}");
    }
    if ctx.traced {
        match write_trace(&ctx, name) {
            Ok(path) => println!("# spans written to {}", path.display()),
            Err(e) => eprintln!("cannot write spans: {e}"),
        }
        trace::print_self_times(&ctx.tracer.spans());
    }
    println!("{}", result_line(&out, ctx.traced));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_every_declared_metric() {
        let mut out = Outcome {
            checks: common::Checks {
                attempted: 3,
                failed: 1,
            },
            ..Outcome::default()
        };
        for (name, _) in E2E {
            out.e2e.insert(name, 1.5);
        }
        let line = result_line(&out, false);
        assert!(
            line.starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 1,"),
            "{line}"
        );
        for (name, unit) in E2E {
            assert!(line.contains(&format!(
                "\"{name}\": {{\"value\": 1.5, \"unit\": \"{unit}\"}}"
            )));
        }
        let traced = result_line(&out, true);
        assert!(traced.contains("\"serve.cache.hits\": {\"value\": 0.0, \"unit\": \"count\"}"));
    }

    #[test]
    fn bad_arguments_are_refused() {
        let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
        assert!(args("--workload x --seed 3 --seconds 2 --trace 1").is_ok());
        assert!(args("--workload x --trace 2").is_err());
        assert!(args("--workload x --seconds 0").is_err());
        assert!(args("--seed 1").is_err());
        assert!(args("--workload").is_err());
    }

    /// The tables above and `BENCHMARK.json` name the same metrics.
    #[test]
    fn declared_metrics_match_the_benchmark_file() {
        let spec =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json next to the benchmark directory");
        for (name, unit) in E2E.iter().chain(LAYERS) {
            let needle = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&needle), "BENCHMARK.json lacks {needle}");
        }
        for (name, ..) in WORKLOADS {
            assert!(spec.contains(&format!("\"name\": \"{name}\"")), "{name}");
        }
        assert_eq!(spec.matches("\"unit\":").count(), E2E.len() + LAYERS.len());
    }
}
