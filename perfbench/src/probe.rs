//! Replay probes for the layers the sizers and the service call
//! internally, where the benchmark cannot put a span.
//!
//! In the traced run only, a workload's final size delta is applied
//! gate by gate two ways, each from a fresh FULLSSTA session on the
//! starting netlist:
//!
//! * through the session itself: `resize` then `refresh` per gate;
//! * as one-shot branches: `fork`, `resize`, `refresh`, `commit` per gate.
//!
//! Both replays must land on the expected final moments bit for bit.

use crate::common::{same_bits, Checks, Ctx, Metrics};
use std::sync::Arc;
use vartol_liberty::Library;
use vartol_netlist::{GateId, Netlist};
use vartol_ssta::{SstaConfig, TimingSession};
use vartol_stats::Moments;

fn add(layer: &mut Metrics, name: &'static str, v: f64) {
    *layer.entry(name).or_insert(0.0) += v;
}

/// Replays `start → target` sizes (the sizer's view of the circuit:
/// endpoint-marked when sequential) and checks both replays end at
/// `expect`. Times go to spans; visit and call counts to `layer`.
pub fn replay(
    ctx: &Ctx,
    lib: &Arc<Library>,
    cfg: &SstaConfig,
    (start, target): (&Netlist, &[usize]),
    expect: Moments,
    layer: &mut Metrics,
    checks: &mut Checks,
) {
    let t = &ctx.tracer;
    let delta: Vec<(GateId, usize)> = start
        .gate_ids()
        .filter_map(|id| {
            let want = target[id.index()];
            (start.gate(id).size() != Some(want)).then_some((id, want))
        })
        .collect();

    let mut session = {
        let _s = t.span("ssta.session.new");
        TimingSession::new(Arc::clone(lib), cfg.clone(), start.clone())
    };
    let visits0 = session.recompute_count();
    for &(id, size) in &delta {
        session.resize(id, size);
        let _s = t.span("ssta.session.refresh");
        session.refresh();
    }
    #[allow(clippy::cast_precision_loss)]
    {
        add(layer, "ssta.session.refresh_calls", delta.len() as f64);
        add(
            layer,
            "ssta.session.visits",
            (session.recompute_count() - visits0) as f64,
        );
    }
    let got = session.circuit_moments();
    checks.check(same_bits(got, expect), || {
        format!("{}: session replay {got:?} != {expect:?}", start.name())
    });

    let mut parent = TimingSession::new(Arc::clone(lib), cfg.clone(), start.clone());
    let mut branch_visits = 0;
    for &(id, size) in &delta {
        let mut branch = {
            let _s = t.span("ssta.branch.fork");
            parent.fork()
        };
        branch.resize(id, size);
        {
            let _s = t.span("ssta.branch.refresh");
            branch.refresh();
        }
        branch_visits += branch.recompute_count();
        let _s = t.span("ssta.branch.commit");
        if let Err(e) = parent.commit(branch) {
            checks.check(false, || format!("{}: commit refused: {e}", start.name()));
        }
    }
    #[allow(clippy::cast_precision_loss)]
    add(layer, "ssta.branch.visits", branch_visits as f64);
    let got = parent.circuit_moments();
    checks.check(same_bits(got, expect), || {
        format!("{}: branch replay {got:?} != {expect:?}", start.name())
    });
}
