//! Clocked timing: path groups, setup slack, WNS and TNS.
//!
//! A sequential netlist is cut at its registers
//! ([`Register`](vartol_netlist::Register)): every register's Q pin is a
//! *startpoint* whose launch offset is the DFF cell's clk→Q delay (its
//! ordinary cell delay, since the clock input arrives at 0), and every
//! register's D pin plus every primary output is an *endpoint*. This
//! module classifies endpoints into the four classic path groups —
//!
//! * `in2reg` — primary input to register D pin,
//! * `reg2reg` — register Q pin to register D pin,
//! * `reg2out` — register Q pin to primary output,
//! * `in2out` — unregistered input-to-output paths,
//!
//! — and evaluates per-group setup slack from any engine's
//! [`TimingReport`]. The required time at a D pin is
//! `period − uncertainty − setup(cell)`; at a primary output it is
//! `period − uncertainty`. Slack is that limit minus the endpoint's
//! arrival RV, so WNS is the minimum slack *mean* over endpoints and TNS
//! the sum of negative slack means.
//!
//! Classification is by reachability over the *merged* arrival surface
//! (each endpoint sees one arrival RV, the max over all paths into it),
//! so an endpoint fed by both a register and an unregistered input
//! contributes the same — pessimistic — arrival to both of its groups.
//! That is exactly graph-based analysis (GBA) pessimism, and it is what
//! keeps the computation a linear pass over the existing level-ordered
//! propagation results: determinism at every thread count carries over
//! unchanged, because this module only *reads* a report, in fixed
//! endpoint order (registers first, then outputs, each in declaration
//! order).
//!
//! The probability a group meets the clock is statistical where the
//! engine is: FULLSSTA evaluates its discrete arrival CDF at the limit,
//! FASSTA and Monte Carlo use a normal approximation from the endpoint
//! moments (the Monte-Carlo report keeps raw samples only at circuit
//! level), and DSTA degenerates to a 0/1 step.

use crate::engine::TimingReport;
use vartol_liberty::Library;
use vartol_netlist::{GateId, Netlist};
use vartol_stats::{Moments, Normal};

/// A single-clock constraint: every register launches and captures on
/// one clock of the given period; `uncertainty` (jitter/skew margin) is
/// subtracted from every required time.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ClockConstraint {
    period: f64,
    uncertainty: f64,
}

impl ClockConstraint {
    /// Creates a clock constraint.
    ///
    /// # Panics
    ///
    /// Panics unless `period` is finite and positive and `uncertainty`
    /// is finite, non-negative, and below the period.
    #[must_use]
    pub fn new(period: f64, uncertainty: f64) -> Self {
        assert!(
            period.is_finite() && period > 0.0,
            "clock period must be finite and positive"
        );
        assert!(
            uncertainty.is_finite() && (0.0..period).contains(&uncertainty),
            "clock uncertainty must be in [0, period)"
        );
        Self {
            period,
            uncertainty,
        }
    }

    /// The clock period.
    #[must_use]
    pub fn period(&self) -> f64 {
        self.period
    }

    /// The uncertainty margin subtracted from every required time.
    #[must_use]
    pub fn uncertainty(&self) -> f64 {
        self.uncertainty
    }

    /// The timing budget a zero-delay path would have:
    /// `period − uncertainty`.
    #[must_use]
    pub fn budget(&self) -> f64 {
        self.period - self.uncertainty
    }
}

/// The four startpoint/endpoint classes of a clocked design.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum PathGroup {
    /// Primary input → register D pin.
    InToReg,
    /// Register Q pin → register D pin.
    RegToReg,
    /// Register Q pin → primary output.
    RegToOut,
    /// Primary input → primary output (unregistered).
    InToOut,
}

impl PathGroup {
    /// Every group, in the canonical reporting order.
    pub const ALL: [Self; 4] = [Self::InToReg, Self::RegToReg, Self::RegToOut, Self::InToOut];

    /// The group's stable wire/report name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::InToReg => "in2reg",
            Self::RegToReg => "reg2reg",
            Self::RegToOut => "reg2out",
            Self::InToOut => "in2out",
        }
    }
}

impl std::fmt::Display for PathGroup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Setup-slack summary of one path group.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct GroupTiming {
    group: PathGroup,
    endpoints: usize,
    wns: f64,
    tns: f64,
    prob_met: f64,
    worst_endpoint: Option<GateId>,
}

impl GroupTiming {
    fn empty(group: PathGroup, clock: ClockConstraint) -> Self {
        Self {
            group,
            endpoints: 0,
            wns: clock.budget(),
            tns: 0.0,
            prob_met: 1.0,
            worst_endpoint: None,
        }
    }

    /// Which group this summarizes.
    #[must_use]
    pub fn group(&self) -> PathGroup {
        self.group
    }

    /// Number of endpoints classified into the group.
    #[must_use]
    pub fn endpoints(&self) -> usize {
        self.endpoints
    }

    /// Worst (minimum) mean setup slack over the group's endpoints. An
    /// empty group reports the full clock budget — the slack of a
    /// zero-delay path.
    #[must_use]
    pub fn wns(&self) -> f64 {
        self.wns
    }

    /// Total negative slack: the sum of negative mean slacks (0 when
    /// every endpoint meets the clock).
    #[must_use]
    pub fn tns(&self) -> f64 {
        self.tns
    }

    /// Minimum over endpoints of `P(arrival ≤ required)` — the
    /// statistical counterpart of [`GroupTiming::wns`]. Deterministic
    /// reports degrade to a 0/1 step; empty groups report 1.
    #[must_use]
    pub fn prob_met(&self) -> f64 {
        self.prob_met
    }

    /// The endpoint realizing [`GroupTiming::wns`] (`None` when empty).
    #[must_use]
    pub fn worst_endpoint(&self) -> Option<GateId> {
        self.worst_endpoint
    }
}

/// Per-group setup slack plus circuit-level WNS/TNS, computed from one
/// engine's [`TimingReport`] under one [`ClockConstraint`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SequentialTiming {
    clock: ClockConstraint,
    groups: [GroupTiming; 4],
    wns: f64,
    tns: f64,
}

impl SequentialTiming {
    /// Classifies every endpoint and folds per-group and circuit-level
    /// setup slack out of `report`.
    ///
    /// Works on purely combinational netlists too: the three registered
    /// groups are then empty and `in2out` carries every output. Each
    /// register contributes one endpoint (its D pin) and each primary
    /// output one endpoint; a node that is both appears once per role.
    ///
    /// # Panics
    ///
    /// Panics if `report` does not cover `netlist` (arrival length
    /// mismatch) or a register's Q cell is missing from `library`.
    #[must_use]
    pub fn analyze(
        netlist: &Netlist,
        library: &Library,
        clock: ClockConstraint,
        report: &TimingReport,
    ) -> Self {
        assert_eq!(
            report.arrivals().len(),
            netlist.node_count(),
            "report must cover every node of the netlist"
        );
        let (from_pi, from_q) = reachability(netlist);
        let budget = clock.budget();

        struct Acc {
            endpoints: usize,
            wns: f64,
            tns: f64,
            prob_met: f64,
            worst: Option<GateId>,
        }
        impl Acc {
            fn note(&mut self, id: GateId, slack_mean: f64, prob: f64) {
                self.endpoints += 1;
                if slack_mean < self.wns {
                    self.wns = slack_mean;
                    self.worst = Some(id);
                }
                self.tns += slack_mean.min(0.0);
                self.prob_met = self.prob_met.min(prob);
            }
        }
        let mut accs: [Acc; 4] = PathGroup::ALL.map(|_| Acc {
            endpoints: 0,
            wns: f64::INFINITY,
            tns: 0.0,
            prob_met: 1.0,
            worst: None,
        });
        let idx = |g: PathGroup| {
            PathGroup::ALL
                .iter()
                .position(|&x| x == g)
                .expect("ALL is exhaustive")
        };
        let mut wns = f64::INFINITY;
        let mut tns = 0.0;

        // Fixed endpoint order: registers in declaration order, then
        // primary outputs in declaration order. Per-endpoint slack is a
        // pure function of the report, so determinism is inherited.
        for r in netlist.registers() {
            let d = r.d();
            let setup = netlist.cell(r.q(), library).setup();
            let limit = budget - setup;
            let arrival = report.arrival(d);
            let slack = limit - arrival.mean;
            let prob = prob_arrival_below(report, d, arrival, limit);
            if from_pi[d.index()] {
                accs[idx(PathGroup::InToReg)].note(d, slack, prob);
            }
            if from_q[d.index()] {
                accs[idx(PathGroup::RegToReg)].note(d, slack, prob);
            }
            wns = wns.min(slack);
            tns += slack.min(0.0);
        }
        for &o in netlist.outputs() {
            let arrival = report.arrival(o);
            let slack = budget - arrival.mean;
            let prob = prob_arrival_below(report, o, arrival, budget);
            if from_q[o.index()] {
                accs[idx(PathGroup::RegToOut)].note(o, slack, prob);
            }
            if from_pi[o.index()] {
                accs[idx(PathGroup::InToOut)].note(o, slack, prob);
            }
            wns = wns.min(slack);
            tns += slack.min(0.0);
        }

        let groups: [GroupTiming; 4] = std::array::from_fn(|i| {
            let group = PathGroup::ALL[i];
            let a = &accs[i];
            if a.endpoints == 0 {
                GroupTiming::empty(group, clock)
            } else {
                GroupTiming {
                    group,
                    endpoints: a.endpoints,
                    wns: a.wns,
                    tns: a.tns,
                    prob_met: a.prob_met,
                    worst_endpoint: a.worst,
                }
            }
        });
        // A netlist always has outputs, so at least one group is
        // populated and the circuit-level fold is finite.
        Self {
            clock,
            groups,
            wns,
            tns,
        }
    }

    /// The constraint the analysis ran under.
    #[must_use]
    pub fn clock(&self) -> ClockConstraint {
        self.clock
    }

    /// All four groups in [`PathGroup::ALL`] order.
    #[must_use]
    pub fn groups(&self) -> &[GroupTiming; 4] {
        &self.groups
    }

    /// One group's summary.
    #[must_use]
    pub fn group(&self, group: PathGroup) -> &GroupTiming {
        &self.groups[PathGroup::ALL
            .iter()
            .position(|&g| g == group)
            .expect("ALL is exhaustive")]
    }

    /// Worst mean setup slack over every endpoint (each register D pin
    /// and each primary output counted once).
    #[must_use]
    pub fn wns(&self) -> f64 {
        self.wns
    }

    /// Total negative slack over every endpoint.
    #[must_use]
    pub fn tns(&self) -> f64 {
        self.tns
    }
}

/// `P(arrival at id ≤ limit)`, using the best distribution the report
/// carries: the discrete PDF where propagated, a normal approximation
/// from the moments otherwise, and a 0/1 step for zero variance.
fn prob_arrival_below(report: &TimingReport, id: GateId, arrival: Moments, limit: f64) -> f64 {
    if let Some(pdf) = report.arrival_pdf(id) {
        return pdf.cdf(limit);
    }
    if arrival.var <= 0.0 {
        return if arrival.mean <= limit { 1.0 } else { 0.0 };
    }
    Normal::from_moments(arrival).cdf(limit)
}

/// Forward reachability over the DAG: `(from_pi, from_q)` per node.
/// `from_pi` seeds at every primary input except the clock; `from_q`
/// seeds at register Q gates (whose only graph fanin is the clock, so
/// the two sets stay disjoint at the cut).
fn reachability(netlist: &Netlist) -> (Vec<bool>, Vec<bool>) {
    let n = netlist.node_count();
    let clock = netlist.clock();
    let mut from_pi = vec![false; n];
    let mut from_q = vec![false; n];
    for &i in netlist.inputs() {
        if Some(i) != clock {
            from_pi[i.index()] = true;
        }
    }
    for r in netlist.registers() {
        from_q[r.q().index()] = true;
    }
    // Node ids ascend in topological order by construction. The cut
    // needs no special casing: a register Q gate's only graph fanin is
    // the clock, which carries neither flag, so nothing flows through.
    for id in netlist.node_ids() {
        for &f in netlist.gate(id).fanins() {
            from_pi[id.index()] |= from_pi[f.index()];
            from_q[id.index()] |= from_q[f.index()];
        }
    }
    (from_pi, from_q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SstaConfig;
    use crate::engine::EngineKind;
    use vartol_liberty::LogicFunction;
    use vartol_netlist::generators::pipeline_adder;
    use vartol_netlist::NetlistBuilder;

    /// A four-group circuit with one path per group:
    /// in→g1→D1 (in2reg), Q1→g2→D2 (reg2reg), Q2→g3→PO (reg2out),
    /// in→g4→PO (in2out).
    fn four_group_circuit() -> Netlist {
        let mut b = NetlistBuilder::new("fourgroup");
        let clk = b.input("clk");
        let a = b.input("a");
        let q1 = b.dff("q1", clk);
        let q2 = b.dff("q2", clk);
        let g1 = b.gate("g1", LogicFunction::Inv, &[a]);
        let g2 = b.gate("g2", LogicFunction::Inv, &[q1]);
        let g3 = b.gate("g3", LogicFunction::Inv, &[q2]);
        let g4 = b.gate("g4", LogicFunction::Inv, &[a]);
        b.bind_d(q1, g1);
        b.bind_d(q2, g2);
        b.mark_output(g3);
        b.mark_output(g4);
        b.build().expect("valid")
    }

    fn analyze(netlist: &Netlist, kind: EngineKind, clock: ClockConstraint) -> SequentialTiming {
        let lib = Library::synthetic_90nm();
        let config = SstaConfig::default();
        let report = kind.analyze(&lib, &config, netlist);
        SequentialTiming::analyze(netlist, &lib, clock, &report)
    }

    #[test]
    fn four_groups_classify_one_endpoint_each() {
        let n = four_group_circuit();
        let st = analyze(&n, EngineKind::FullSsta, ClockConstraint::new(1000.0, 0.0));
        for group in PathGroup::ALL {
            assert_eq!(st.group(group).endpoints(), 1, "{group}");
            assert!(st.group(group).worst_endpoint().is_some(), "{group}");
        }
    }

    #[test]
    fn combinational_circuit_has_only_in2out_paths() {
        let lib = Library::synthetic_90nm();
        let n = vartol_netlist::generators::ripple_carry_adder(4, &lib);
        let st = analyze(&n, EngineKind::Fassta, ClockConstraint::new(1000.0, 0.0));
        assert_eq!(st.group(PathGroup::InToOut).endpoints(), n.output_count());
        for group in [PathGroup::InToReg, PathGroup::RegToReg, PathGroup::RegToOut] {
            let g = st.group(group);
            assert_eq!(g.endpoints(), 0, "{group}");
            assert_eq!(g.wns(), 1000.0, "empty group reports the budget");
            assert_eq!(g.tns(), 0.0);
            assert_eq!(g.prob_met(), 1.0);
            assert!(g.worst_endpoint().is_none());
        }
    }

    #[test]
    fn register_slack_subtracts_setup_and_clkq_shows_in_launch() {
        let n = four_group_circuit();
        let lib = Library::synthetic_90nm();
        let config = SstaConfig::default();
        let report = EngineKind::Dsta.analyze(&lib, &config, &n);
        let clock = ClockConstraint::new(1000.0, 25.0);
        let st = SequentialTiming::analyze(&n, &lib, clock, &report);

        // in2reg endpoint: g1. Slack = (T − U − setup) − arrival(g1).
        let g1 = n.gate_by_name("g1").expect("exists");
        let q1 = n.gate_by_name("q1").expect("exists");
        let setup = n.cell(q1, &lib).setup();
        assert!(setup > 0.0, "register family carries a real setup");
        let want = (1000.0 - 25.0 - setup) - report.arrival(g1).mean;
        let got = st.group(PathGroup::InToReg).wns();
        assert!((got - want).abs() < 1e-9, "{got} vs {want}");

        // reg2reg arrival includes the clk→Q launch offset: arrival at
        // g2 = clkq(q1) + delay(g2), so it exceeds the launch alone.
        let g2 = n.gate_by_name("g2").expect("exists");
        assert!(report.arrival(q1).mean > 0.0, "clk→Q launch offset");
        assert!(report.arrival(g2).mean > report.arrival(q1).mean);
    }

    #[test]
    fn period_shift_moves_reg2reg_slack_exactly() {
        let n = pipeline_adder(8, &Library::synthetic_90nm());
        let a = analyze(&n, EngineKind::Fassta, ClockConstraint::new(800.0, 0.0));
        let b = analyze(&n, EngineKind::Fassta, ClockConstraint::new(900.0, 0.0));
        let delta = b.group(PathGroup::RegToReg).wns() - a.group(PathGroup::RegToReg).wns();
        assert!(
            (delta - 100.0).abs() < 1e-9,
            "slack must track the period, got {delta}"
        );
        assert!((b.wns() - a.wns() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn every_engine_agrees_on_classification() {
        let lib = Library::synthetic_90nm();
        let n = pipeline_adder(8, &lib);
        let clock = ClockConstraint::new(1200.0, 10.0);
        let counts: Vec<[usize; 4]> = EngineKind::ALL
            .iter()
            .map(|&k| {
                let st = analyze(&n, k, clock);
                PathGroup::ALL.map(|g| st.group(g).endpoints())
            })
            .collect();
        for c in &counts[1..] {
            assert_eq!(c, &counts[0], "classification is engine-independent");
        }
        // The pipeline has endpoints in all four groups.
        assert!(counts[0].iter().all(|&e| e > 0), "{:?}", counts[0]);
    }

    #[test]
    fn tight_clock_goes_negative_and_tns_accumulates() {
        let lib = Library::synthetic_90nm();
        let n = pipeline_adder(8, &lib);
        let tight = analyze(&n, EngineKind::FullSsta, ClockConstraint::new(120.0, 0.0));
        assert!(tight.wns() < 0.0);
        assert!(tight.tns() <= tight.wns(), "TNS bounds WNS from below");
        let loose = analyze(&n, EngineKind::FullSsta, ClockConstraint::new(5000.0, 0.0));
        assert!(loose.wns() > 0.0);
        assert_eq!(loose.tns(), 0.0);
    }

    #[test]
    fn probability_is_statistical_per_engine() {
        let lib = Library::synthetic_90nm();
        let n = pipeline_adder(8, &lib);
        // Pick a period near the critical arrival so probabilities are
        // strictly between 0 and 1 for statistical engines.
        let config = SstaConfig::default();
        let r = EngineKind::FullSsta.analyze(&lib, &config, &n);
        let clock = ClockConstraint::new(r.circuit_moments().mean, 0.0);

        let dsta = analyze(&n, EngineKind::Dsta, clock);
        for g in dsta.groups() {
            let p = g.prob_met();
            assert!(p == 0.0 || p == 1.0, "deterministic step, got {p}");
        }
        for kind in [
            EngineKind::Fassta,
            EngineKind::FullSsta,
            EngineKind::MonteCarlo,
        ] {
            let st = analyze(&n, kind, clock);
            let p = st.group(PathGroup::InToOut).prob_met();
            assert!((0.0..=1.0).contains(&p), "{kind}: {p}");
            assert!(
                p > 0.0 && p < 1.0,
                "{kind}: expected interior prob, got {p}"
            );
        }
    }

    #[test]
    fn path_group_names_round_trip() {
        for g in PathGroup::ALL {
            assert_eq!(g.to_string(), g.name());
        }
    }

    #[test]
    #[should_panic(expected = "clock period must be finite and positive")]
    fn zero_period_panics() {
        let _ = ClockConstraint::new(0.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "clock uncertainty must be in [0, period)")]
    fn oversized_uncertainty_panics() {
        let _ = ClockConstraint::new(10.0, 10.0);
    }
}
