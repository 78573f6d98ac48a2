//! `global_anneal`: the global sizers through `Sizer::size_clocked` on
//! the shipped sequential stand-ins. `AnnealingSizer` runs the frontier
//! configuration at a reduced restart/move budget, seeded from the
//! benchmark seed; `LagrangianSizer` runs its defaults.
//!
//! Annealing walks long `SessionBranch` chains, unlike the greedy
//! sizer's one-shot what-ifs, so this is where the branch layer's
//! growing cone and memo show.

use crate::common::{Ctx, Outcome};
use crate::sizing::{Inputs, Job};
use std::sync::Arc;
use vartol_bench::frontier::frontier_annealing;
use vartol_liberty::Library;
use vartol_netlist::iscas::parse_bench;
use vartol_netlist::Netlist;
use vartol_ssta::{
    AnnealingSizer, LagrangianConfig, LagrangianSizer, Sizer, SizingOutcome, SstaConfig,
};

const ALPHA: f64 = 3.0;
const RESTARTS: usize = 4;
const MOVES: usize = 100;
/// Circuits each sizer runs on, by `data/` file stem. Annealing skips
/// `s1196_like`: at this budget it alone would take most of a run.
const ANNEAL_ON: &[&str] = &["s344_like", "s386_like"];
const LAGRANGIAN_ON: &[&str] = &["s344_like", "s386_like", "s1196_like"];

/// Reads the shipped circuits from `data/` (relative to the checkout
/// root, where the benchmark runs).
fn read_inputs() -> Result<Vec<(String, String)>, String> {
    LAGRANGIAN_ON
        .iter()
        .map(|stem| {
            let path = format!("data/{stem}.bench");
            std::fs::read_to_string(&path)
                .map(|text| ((*stem).to_owned(), text))
                .map_err(|e| format!("{path}: {e}"))
        })
        .collect()
}

/// An exact count a sizer's outcome contributes, by layer metric.
type Count = (&'static str, fn(&SizingOutcome) -> usize);

/// The sizers, each with the layer it reports as, its count, and the
/// circuits it runs on.
type Entry = (&'static str, Box<dyn Sizer>, Count, &'static [&'static str]);

fn sizers(lib: &Arc<Library>, cfg: &SstaConfig, seed: u64) -> [Entry; 2] {
    let annealing = frontier_annealing(ALPHA, cfg.clone())
        .with_restarts(RESTARTS)
        .with_moves(MOVES)
        .with_seed(seed);
    [
        (
            "optimize.annealing",
            Box::new(AnnealingSizer::new(Arc::clone(lib), annealing)),
            ("optimize.annealing_resized", SizingOutcome::total_resized),
            ANNEAL_ON,
        ),
        (
            "optimize.lagrangian",
            Box::new(LagrangianSizer::new(
                Arc::clone(lib),
                LagrangianConfig::default().with_ssta(cfg.clone()),
            )),
            ("optimize.lagrangian_passes", |o| o.passes.len()),
            LAGRANGIAN_ON,
        ),
    ]
}

pub fn run(ctx: &Ctx) -> Outcome {
    let texts = read_inputs();
    let inputs = Inputs {
        layer: "netlist.parse",
        build: |_: &Library| -> Result<Vec<Netlist>, String> {
            texts
                .as_ref()
                .map_err(Clone::clone)?
                .iter()
                .map(|(name, text)| {
                    parse_bench(text, name)
                        .map_err(|e| format!("shipped circuit {name} does not parse: {e}"))
                })
                .collect()
        },
    };
    let t = &ctx.tracer;
    crate::sizing::run(ctx, inputs, |meter, lib, cfg, circuits| {
        let mut jobs = Vec::new();
        for (sizer_name, sizer, (count, n), on) in sizers(lib, cfg, ctx.seed) {
            for input in circuits.iter().filter(|c| on.contains(&c.name())) {
                let mut sized = input.clone();
                let outcome = meter.job(|| {
                    let _s = t.span(sizer_name);
                    sizer.size_clocked(&mut sized)
                });
                jobs.push(Job {
                    sizer: sizer_name,
                    input: input.clone(),
                    sized,
                    reported: (outcome.initial_moments, outcome.final_moments),
                    objective: outcome.objective,
                    input_delay: None,
                    counts: vec![(count, n(&outcome))],
                });
            }
        }
        jobs
    })
}
