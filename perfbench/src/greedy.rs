//! `paper_greedy`: the paper's flow. `MeanDelaySizer` makes the
//! "original" circuit, then `StatisticalGreedy` sizes it at α = 3.
//!
//! Circuits: the ISCAS-85 stand-ins of the paper's table that fit the
//! time budget, chosen by size and run time, never by how much σ falls.
//! The suite is fixed; the seed drives the Monte-Carlo reference stream
//! of the traced run.

use crate::common::{Ctx, Outcome};
use crate::sizing::{Inputs, Job};
use std::sync::Arc;
use vartol_core::{MeanDelaySizer, SizerConfig, StatisticalGreedy};
use vartol_liberty::Library;
use vartol_netlist::generators::benchmark;
use vartol_netlist::Netlist;
use vartol_ssta::{Objective, SstaConfig};

const ALPHA: f64 = 3.0;
/// The stand-ins run, by name. Left out for time: c2670 (5 s a pass at
/// width 2, though its σ falls only 0.5%), c499 and c1355
/// (13 s and 23 s of mean-delay sizing at width 2), c1908 (50 s),
/// c3540 and up.
const CIRCUITS: &[&str] = &["alu1", "alu2", "alu3", "c432", "c880"];

fn circuits(lib: &Library) -> Result<Vec<Netlist>, String> {
    CIRCUITS
        .iter()
        .map(|name| benchmark(name, lib).ok_or_else(|| format!("unknown benchmark {name}")))
        .collect()
}

/// One circuit's run of the flow: mean-delay sizing, then greedy on its
/// result. The job is greedy's; mean-delay's reported delay rides along
/// as a claim about greedy's input.
fn flow(ctx: &Ctx, lib: &Arc<Library>, cfg: &SstaConfig, circuit: &Netlist) -> Job {
    let t = &ctx.tracer;
    let mut original = circuit.clone();
    let baseline = {
        let _s = t.span("core.mean_delay");
        MeanDelaySizer::new(Arc::clone(lib), cfg).minimize_delay(&mut original)
    };
    let mut sized = original.clone();
    let report = {
        let _s = t.span("core.greedy");
        StatisticalGreedy::new(
            Arc::clone(lib),
            SizerConfig::with_alpha(ALPHA).with_ssta(cfg.clone()),
        )
        .optimize(&mut sized)
    };
    Job {
        sizer: "core.greedy",
        input: original,
        sized,
        reported: (report.initial_moments(), report.final_moments()),
        objective: Objective::Statistical { alpha: ALPHA },
        input_delay: Some(baseline.final_delay),
        counts: vec![
            ("core.mean_delay_passes", baseline.passes),
            ("core.greedy_passes", report.passes().len()),
            (
                "core.greedy_resized",
                report.passes().iter().map(|p| p.resized).sum(),
            ),
        ],
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let inputs = Inputs {
        layer: "netlist.generate",
        build: circuits,
    };
    crate::sizing::run(ctx, inputs, |meter, lib, cfg, circuits| {
        circuits
            .iter()
            .map(|c| meter.job(|| flow(ctx, lib, cfg, c)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Checks;
    use crate::sizing::check_sizing;

    /// The sizing check passes the greedy sizer's own report and catches
    /// a final σ² one ulp off.
    #[test]
    fn a_perturbed_sizer_answer_is_caught() {
        let lib = Library::synthetic_90nm();
        let cfg = SstaConfig::default().with_threads(1);
        let input = vartol_netlist::generators::preset("adder_8", &lib).expect("preset");
        let mut output = input.clone();
        let report =
            StatisticalGreedy::new(&lib, SizerConfig::with_alpha(ALPHA).with_ssta(cfg.clone()))
                .optimize(&mut output);
        let reported = (report.initial_moments(), report.final_moments());
        let mut checks = Checks::default();
        check_sizing(
            &mut checks,
            &lib,
            &cfg,
            "honest",
            (&input, &output),
            reported,
        );
        assert_eq!(checks.failed, 0);

        let mut bumped = reported.1;
        bumped.var = f64::from_bits(bumped.var.to_bits() + 1);
        let mut checks = Checks::default();
        check_sizing(
            &mut checks,
            &lib,
            &cfg,
            "perturbed",
            (&input, &output),
            (reported.0, bumped),
        );
        assert_eq!(checks.failed, 1);
    }
}
