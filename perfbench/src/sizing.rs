//! What the two sizing workloads share. A workload supplies its
//! circuits and one pass of its sizer calls; this module does the rest:
//!
//! * set-up, repeated for a steady median: the library, the circuits,
//!   and one FULLSSTA session per circuit on the view the sizers see;
//! * the timed loop, whose later passes must repeat the first exactly;
//! * the answer checks: every sizer's reported moments against
//!   from-scratch FULLSSTA analyses of its input and output;
//! * in the traced run, the replay probes, the exact counts and the
//!   sizing quality.

use crate::common::{
    repeated_setup, same_bits, span_medians, timed_loop, Checks, Ctx, Meter, Outcome,
};
use crate::quality::Quality;
use std::sync::Arc;
use vartol_liberty::Library;
use vartol_netlist::Netlist;
use vartol_ssta::{Dsta, FullSsta, Objective, SstaConfig, TimingSession};
use vartol_stats::Moments;

/// Pool width. At width 2 the small circuits run up to 3x slower (the
/// pool spawns per parallel level) and their wall time spreads 2-3x
/// wider on a shared 2-vCPU machine. The traced `analyze_25k` run
/// reports the pool's speed-up.
const WIDTH: usize = 1;
/// Set-up jobs, for a steady median.
const SETUP_JOBS: usize = 7;

/// One (sizer, circuit) job, as a pass returns it.
pub struct Job {
    /// The sizer's layer, which is also its span name.
    pub sizer: &'static str,
    /// The netlist the sizer was given.
    pub input: Netlist,
    /// The netlist it returned.
    pub sized: Netlist,
    /// The sizer's reported initial and final FULLSSTA moments.
    pub reported: (Moments, Moments),
    pub objective: Objective,
    /// A DSTA mean an earlier stage reported for `input` (mean-delay
    /// sizing), checked against a scratch DSTA analysis.
    pub input_delay: Option<f64>,
    /// Exact counts, summed over the jobs into the named layer metrics.
    pub counts: Vec<(&'static str, usize)>,
}

/// How a workload makes its circuits during set-up.
pub struct Inputs<F> {
    /// The span, and layer, of the work.
    pub layer: &'static str,
    pub build: F,
}

/// Runs a sizing workload: `inputs` makes the circuits, `pass` sizes
/// them once, timing each sizer call as one job of the meter, and
/// returns one [`Job`] per sizer call.
pub fn run<F, P>(ctx: &Ctx, inputs: Inputs<F>, pass: P) -> Outcome
where
    F: Fn(&Library) -> Result<Vec<Netlist>, String>,
    P: Fn(&mut Meter, &Arc<Library>, &SstaConfig, &[Netlist]) -> Vec<Job>,
{
    let mut out = Outcome::default();
    let t = &ctx.tracer;

    let cfg = SstaConfig::default().with_threads(WIDTH);
    let mut setup_runs = Vec::new();
    let ((lib, built), setup_s) = repeated_setup(ctx, SETUP_JOBS, || {
        t.set_enabled(ctx.traced);
        setup_runs.push(t.begin_run());
        let lib = {
            let _s = t.span("liberty.build");
            Arc::new(Library::synthetic_90nm())
        };
        let built = {
            let _s = t.span(inputs.layer);
            (inputs.build)(&lib)
        };
        if let Ok(circuits) = &built {
            first_sessions(&lib, &cfg, circuits);
        }
        t.set_enabled(false);
        (lib, built)
    });
    out.e2e.insert("setup_s", setup_s);
    let circuits = match built {
        Ok(c) => c,
        Err(e) => {
            out.checks.op(false, || e);
            return out;
        }
    };

    // Only the first pass is kept; later passes must repeat it exactly.
    let mut jobs: Vec<Job> = Vec::new();
    let timings = timed_loop(ctx, |_, meter| {
        let again = pass(meter, &lib, &cfg, &circuits);
        if jobs.is_empty() {
            jobs = again;
            return;
        }
        for (job, first) in again.iter().zip(&jobs) {
            let same = job.input.sizes() == first.input.sizes()
                && job.sized.sizes() == first.sized.sizes();
            out.checks.op(same, || {
                format!(
                    "{} on {}: sizes differ between passes",
                    job.sizer,
                    job.input.name()
                )
            });
        }
    });
    timings.report(ctx, &mut out);
    out.checks.attempted += jobs.len() as u64;

    // Answer checks, outside the timed loop: each sizer's reported
    // result must equal a from-scratch analysis of what it returned.
    let mut moments = Vec::new();
    for job in &jobs {
        let what = format!("{} on {}", job.sizer, job.input.name());
        if let Some(delay) = job.input_delay {
            let dsta = Dsta::new(&lib, &cfg)
                .analyze(&job.input)
                .circuit_moments()
                .mean;
            out.checks.check(dsta.to_bits() == delay.to_bits(), || {
                format!("{what}: input delay reported as {delay} but DSTA gives {dsta}")
            });
        }
        moments.push(check_sizing(
            &mut out.checks,
            &lib,
            &cfg,
            &what,
            (&job.input, &job.sized),
            job.reported,
        ));
    }

    if ctx.traced {
        let layer = &mut out.layer;
        span_medians(ctx, &setup_runs, layer);
        t.set_enabled(true);
        let probe_run = t.begin_run();
        for job in &jobs {
            crate::probe::replay(
                ctx,
                &lib,
                &cfg,
                (&job.input.endpoint_marked(), &job.sized.sizes()),
                job.reported.1,
                layer,
                &mut out.checks,
            );
        }
        t.set_enabled(false);
        span_medians(ctx, &[probe_run], layer);
        #[allow(clippy::cast_precision_loss)]
        {
            for &(name, n) in jobs.iter().flat_map(|j| &j.counts) {
                *layer.entry(name).or_insert(0.0) += n as f64;
            }
            layer.insert(
                "netlist.gates",
                circuits.iter().map(Netlist::gate_count).sum::<usize>() as f64,
            );
        }
        let mut quality = Quality::default();
        for (job, &m) in jobs.iter().zip(&moments) {
            quality.add(
                &lib,
                &cfg,
                &job.input,
                &job.sized,
                job.objective,
                m,
                ctx.seed,
            );
        }
        quality.report(layer);
    }

    out
}

/// From-scratch FULLSSTA moments of a netlist's endpoint-marked view
/// (the netlist itself when combinational), which is what the sizers
/// optimize.
fn fullssta_moments(lib: &Library, cfg: &SstaConfig, netlist: &Netlist) -> Moments {
    FullSsta::new(lib, cfg)
        .analyze(&netlist.endpoint_marked())
        .circuit_moments()
}

/// The session build that ends a sizing workload's set-up: one FULLSSTA
/// session per circuit, on the view the sizers see, then dropped.
fn first_sessions(lib: &Arc<Library>, cfg: &SstaConfig, circuits: &[Netlist]) {
    for n in circuits {
        drop(TimingSession::new(
            Arc::clone(lib),
            cfg.clone(),
            n.endpoint_marked(),
        ));
    }
}

/// Checks a sizer's reported initial and final moments, bit for bit,
/// against from-scratch FULLSSTA analyses of the netlist it was given
/// and the one it returned. Returns the scratch pair.
pub fn check_sizing(
    checks: &mut Checks,
    lib: &Library,
    cfg: &SstaConfig,
    what: &str,
    (input, output): (&Netlist, &Netlist),
    (initial, fin): (Moments, Moments),
) -> (Moments, Moments) {
    let m0 = fullssta_moments(lib, cfg, input);
    let m1 = fullssta_moments(lib, cfg, output);
    checks.check(same_bits(m0, initial), || {
        format!("{what}: initial {initial:?} != scratch {m0:?}")
    });
    checks.check(same_bits(m1, fin), || {
        format!("{what}: final {fin:?} != scratch {m1:?}")
    });
    (m0, m1)
}
