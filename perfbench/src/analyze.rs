//! `analyze_25k`: cold DSTA, FASSTA and FULLSSTA analyses plus a
//! FULLSSTA session build on a 25k-gate random DAG (the `dag_100k`
//! shape cut to a quarter of the gates, generated from the benchmark
//! seed).
//!
//! The only workload whose levels are hundreds of nodes wide (69 levels,
//! up to 499 nodes), so the per-level joins run for real and the
//! propagation pool has work to fan out. No session refresh, branches,
//! sizing or serving.
//!
//! The 100k-gate DAG was tried first: its passes (5–11 s, ~290 MiB) ran
//! slower or faster with the host far more than the reference kernel
//! did, and its `cpu_s` spread 0.18 over five seeds, against 0.065 at
//! 25k gates.

use crate::common::{
    repeated_setup, same_bits, secs_since, span_medians, timed_loop, Ctx, Meter, Outcome,
};
use std::sync::Arc;
use std::time::Instant;
use vartol_liberty::Library;
use vartol_netlist::generators::{random_dag, RandomDagConfig};
use vartol_netlist::iscas::{parse_bench, write_bench};
use vartol_netlist::Netlist;
use vartol_ssta::{
    CircuitTiming, Dsta, Fassta, FullSsta, MonteCarloTimer, SstaConfig, TimingSession,
};
use vartol_stats::Moments;

/// Pool width of the timed analyses. At width 2 both cores must run for
/// every level to finish, so time the hypervisor steals from either
/// core stalls the pass: between runs wall time spread 0.30 (IQR over
/// median) at width 2 against 0.07 in quiet periods. Width 2 runs in
/// every run's answer check and its speed-up is a per-layer metric.
const WIDTH: usize = 1;
/// Pool width of the answer check (the machine has two cores).
const CHECK_WIDTH: usize = 2;
/// Set-up jobs, for a steady median.
const SETUP_JOBS: usize = 5;
/// Monte-Carlo samples of the traced-run engine probe.
const MC_PROBE_SAMPLES: usize = 64;

fn dag_config() -> RandomDagConfig {
    RandomDagConfig {
        inputs: 256,
        gates: 25_000,
        window: 2048,
    }
}

/// The three analytic engines' circuit moments plus the session's,
/// each engine one job of the pass.
fn analyze(
    ctx: &Ctx,
    meter: &mut Meter,
    lib: &Arc<Library>,
    cfg: &SstaConfig,
    n: &Netlist,
) -> [Moments; 4] {
    let t = &ctx.tracer;
    let dsta = meter.job(|| {
        let _s = t.span("ssta.dsta.analyze");
        Dsta::new(lib, cfg).analyze(n).circuit_moments()
    });
    let fassta = meter.job(|| {
        let _s = t.span("ssta.fassta.analyze");
        Fassta::new(lib, cfg).analyze(n).circuit_moments()
    });
    let full = meter.job(|| {
        let _s = t.span("ssta.fullssta.analyze");
        FullSsta::new(lib, cfg).analyze(n).circuit_moments()
    });
    let owned = n.clone();
    let session = meter.job(|| {
        let _s = t.span("ssta.session.new");
        TimingSession::new(Arc::clone(lib), cfg.clone(), owned)
    });
    [dsta, fassta, full, session.circuit_moments()]
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let t = &ctx.tracer;

    // The input: the seed's DAG as `.bench` text, as a user would hand
    // it over. Set-up builds the library and parses the text.
    let text = write_bench(&random_dag(
        dag_config(),
        ctx.seed,
        &Library::synthetic_90nm(),
    ));
    let mut setup_runs = Vec::new();
    let ((lib, parsed), setup_s) = repeated_setup(ctx, SETUP_JOBS, || {
        t.set_enabled(ctx.traced);
        setup_runs.push(t.begin_run());
        let lib = {
            let _s = t.span("liberty.build");
            Arc::new(Library::synthetic_90nm())
        };
        let n = {
            let _s = t.span("netlist.parse");
            parse_bench(&text, "dag_25k")
        };
        t.set_enabled(false);
        (lib, n)
    });
    out.e2e.insert("setup_s", setup_s);
    let netlist = match parsed {
        Ok(n) if n.gate_count() == dag_config().gates => n,
        other => {
            out.checks.op(false, || {
                format!("dag_25k parse: {:?}", other.map(|n| n.gate_count()))
            });
            return out;
        }
    };

    let cfg = SstaConfig::default().with_threads(WIDTH);
    let mut first: Option<[Moments; 4]> = None;
    let timings = timed_loop(ctx, |_, meter| {
        let answer = analyze(ctx, meter, &lib, &cfg, &netlist);
        let expect = *first.get_or_insert(answer);
        let same = answer.iter().zip(&expect).all(|(x, y)| same_bits(*x, *y));
        out.checks
            .op(same, || "moments differ between passes".into());
    });
    timings.report(ctx, &mut out);
    let first = first.expect("at least one pass");

    // Answer checks: the session equal to the scratch FULLSSTA pass, and
    // every engine bit-identical at the check width.
    out.checks.check(same_bits(first[2], first[3]), || {
        format!("session {:?} != scratch FULLSSTA {:?}", first[3], first[2])
    });
    let wide = SstaConfig::default().with_threads(CHECK_WIDTH);
    let start = Instant::now();
    let full_wide = FullSsta::new(&lib, &wide)
        .analyze(&netlist)
        .circuit_moments();
    let full_wide_s = secs_since(start);
    let dsta_wide = Dsta::new(&lib, &wide).analyze(&netlist).circuit_moments();
    let fassta_wide = Fassta::new(&lib, &wide).analyze(&netlist).circuit_moments();
    for (k, (x, y)) in [dsta_wide, fassta_wide, full_wide]
        .iter()
        .zip(first.iter())
        .enumerate()
    {
        out.checks.check(same_bits(*x, *y), || {
            format!("engine {k} differs at width {CHECK_WIDTH}: {x:?} vs {y:?}")
        });
    }

    if ctx.traced {
        // Layers the body reaches only from inside the engines, timed
        // by calling them directly.
        t.set_enabled(true);
        let probe_run = t.begin_run();
        {
            let _s = t.span("netlist.generate");
            let generated = random_dag(dag_config(), ctx.seed, &lib);
            out.checks
                .check(generated.gate_count() == netlist.gate_count(), || {
                    "generated and parsed DAG differ".into()
                });
        }
        drop({
            let _s = t.span("ssta.delay.compute");
            CircuitTiming::compute(&netlist, &lib, &cfg)
        });
        let mc = {
            let _s = t.span("ssta.montecarlo.analyze");
            MonteCarloTimer::new(&lib, &cfg)
                .with_seed(ctx.seed)
                .sample_parallel(&netlist, MC_PROBE_SAMPLES)
                .moments()
        };
        t.set_enabled(false);
        let layer = &mut out.layer;
        span_medians(ctx, &setup_runs, layer);
        span_medians(ctx, &[probe_run], layer);
        let full_s = layer
            .get("ssta.fullssta.analyze_s")
            .copied()
            .unwrap_or(f64::NAN);
        layer.insert("ssta.pool.speedup_2v1", full_s / full_wide_s);
        layer.insert(
            "check.mc_sigma_err_pct",
            (first[2].std() - mc.std()).abs() / mc.std() * 100.0,
        );
        #[allow(clippy::cast_precision_loss)]
        layer.insert("netlist.gates", netlist.gate_count() as f64);
    }

    out
}
