//! Sizing quality of a workload's (optimizer, circuit) jobs, averaged
//! over every job, including jobs that return their input.

use crate::common::Metrics;
use vartol_liberty::Library;
use vartol_netlist::Netlist;
use vartol_ssta::optimize::prob_met;
use vartol_ssta::{MonteCarloTimer, Objective, SstaConfig};
use vartol_stats::Moments;

/// Monte-Carlo samples of the reference run on each final netlist.
const MC_SAMPLES: usize = 4000;

#[derive(Default)]
pub struct Quality {
    sigma_red: Vec<f64>,
    area_inc: Vec<f64>,
    obj_red: Vec<f64>,
    mc_err: Vec<f64>,
}

fn mean(v: &[f64]) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    {
        v.iter().sum::<f64>() / v.len().max(1) as f64
    }
}

impl Quality {
    /// One job: `before`/`after` are the sizer's input and output, `m0`
    /// and `m1` their FULLSSTA moments (endpoint-marked view when
    /// sequential). The Monte-Carlo run is seeded from `mc_seed`.
    #[allow(clippy::too_many_arguments)]
    pub fn add(
        &mut self,
        lib: &Library,
        cfg: &SstaConfig,
        before: &Netlist,
        after: &Netlist,
        objective: Objective,
        (m0, m1): (Moments, Moments),
        mc_seed: u64,
    ) {
        self.sigma_red
            .push((m0.std() - m1.std()) / m0.std() * 100.0);
        let (a0, a1) = (before.total_area(lib), after.total_area(lib));
        self.area_inc.push((a1 - a0) / a0 * 100.0);
        self.obj_red.push(match objective {
            Objective::Statistical { alpha } => {
                (m0.cost(alpha) - m1.cost(alpha)) / m0.cost(alpha) * 100.0
            }
            Objective::Yield { deadline } => {
                (prob_met(m1, deadline) - prob_met(m0, deadline)) * 100.0
            }
        });
        let mc = MonteCarloTimer::new(lib, cfg)
            .with_seed(mc_seed)
            .sample_parallel(&after.endpoint_marked(), MC_SAMPLES)
            .moments();
        self.mc_err
            .push((m1.std() - mc.std()).abs() / mc.std() * 100.0);
    }

    pub fn report(&self, layer: &mut Metrics) {
        layer.insert("sizing.sigma_red_pct", mean(&self.sigma_red));
        layer.insert("sizing.area_inc_pct", mean(&self.area_inc));
        layer.insert("sizing.obj_red_pct", mean(&self.obj_red));
        layer.insert("check.mc_sigma_err_pct", mean(&self.mc_err));
    }
}
