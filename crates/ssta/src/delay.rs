//! The shared electrical layer: loads, slews, and per-gate random delays.
//!
//! Every timing engine consumes the same [`CircuitTiming`] snapshot:
//!
//! * **load** of a node — the sum of the input capacitance of every sink
//!   pin it drives, plus the configured primary-output pin load and
//!   optional per-fanout wire capacitance;
//! * **slew** — nominal transition times propagated forward (the worst
//!   fanin slew drives each cell's NLDM slew table);
//! * **nominal delay** — the cell's NLDM delay at (input slew, load);
//! * **delay moments** — the nominal delay widened into a random variable
//!   by the library's variation model (proportional component shrinking
//!   with drive strength, plus the random floor). Each library drive's
//!   attenuation `drive^size_exponent` is computed once per snapshot.

use crate::config::SstaConfig;
use vartol_liberty::{Cell, Library, VariationModel};
use vartol_netlist::{GateId, Netlist, Subcircuit};
use vartol_stats::Moments;

/// A per-node electrical/timing snapshot of a netlist at its current sizes.
///
/// Vectors are indexed by [`GateId::index`]; entries for primary inputs are
/// zero except for `slews` (the configured input slew).
///
/// # Example
///
/// ```
/// use vartol_liberty::Library;
/// use vartol_netlist::generators::ripple_carry_adder;
/// use vartol_ssta::{CircuitTiming, SstaConfig};
///
/// let lib = Library::synthetic_90nm();
/// let n = ripple_carry_adder(4, &lib);
/// let t = CircuitTiming::compute(&n, &lib, &SstaConfig::default());
/// for id in n.gate_ids() {
///     assert!(t.nominal_delay(id) > 0.0);
///     assert!(t.delay_moments(id).var > 0.0, "every gate varies");
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitTiming {
    loads: Vec<f64>,
    slews: Vec<f64>,
    /// Per node; the mean is the nominal delay.
    delay_moments: Vec<Moments>,
    attenuation: DriveAttenuation,
}

/// Each library drive's [`VariationModel::attenuation`] under one
/// variation model, computed once per snapshot so that re-timing a gate
/// reads it instead of calling `powf` again (the same call, so the same
/// bits).
#[derive(Debug, Clone, PartialEq)]
struct DriveAttenuation {
    /// The `size_exponent` the table holds.
    exponent: f64,
    /// Every distinct positive drive of the library, ascending, with its
    /// attenuation.
    drives: Vec<(f64, f64)>,
}

impl DriveAttenuation {
    fn new(library: &Library, variation: &VariationModel) -> Self {
        let mut drives: Vec<(f64, f64)> = library
            .groups()
            .iter()
            .flat_map(|g| g.cells())
            .map(Cell::drive)
            .filter(|&d| d > 0.0)
            .map(|d| (d, variation.attenuation(d)))
            .collect();
        drives.sort_by(|a, b| a.0.total_cmp(&b.0));
        drives.dedup_by(|a, b| a.0.to_bits() == b.0.to_bits());
        drives.shrink_to_fit();
        Self {
            exponent: variation.size_exponent,
            drives,
        }
    }

    /// The delay moments of `cell` at nominal delay `d`: with the table's
    /// attenuation when it holds this exact drive and exponent, otherwise
    /// (a cell of another library, another model) from the drive itself.
    fn delay_moments(&self, variation: &VariationModel, d: f64, cell: &Cell) -> Moments {
        match self.lookup(variation.size_exponent, cell.drive()) {
            Some(attenuation) => variation.delay_moments_attenuated(d, attenuation),
            None => variation.delay_moments(d, cell.drive()),
        }
    }

    fn lookup(&self, exponent: f64, drive: f64) -> Option<f64> {
        if exponent.to_bits() != self.exponent.to_bits() {
            return None;
        }
        // `total_cmp` finds only the drive with these exact bits.
        let k = self
            .drives
            .binary_search_by(|&(d, _)| d.total_cmp(&drive))
            .ok()?;
        Some(self.drives[k].1)
    }
}

/// One node's freshly computed electrical values, produced by the pure
/// [`CircuitTiming::compute_node`] and written back (with change
/// detection) by [`CircuitTiming::apply_node`]. Splitting compute from
/// write is what lets a whole topological level fan out in parallel:
/// the compute half borrows the snapshot immutably.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct NodeElectrical {
    pub load: f64,
    pub slew: f64,
    /// The mean is the nominal delay.
    pub delay_moments: Moments,
}

impl CircuitTiming {
    /// Computes loads, slews, and delays for the netlist's current sizes.
    #[must_use]
    pub fn compute(netlist: &Netlist, library: &Library, config: &SstaConfig) -> Self {
        let mut timing = Self::empty(netlist, library, config);
        // Topological node order: fanin slews are fresh by the time each
        // gate is visited, so one forward sweep settles everything.
        for id in netlist.node_ids() {
            timing.refresh_node(netlist, library, config, id);
        }
        timing
    }

    /// An all-zero snapshot (except primary-input slews) for incremental
    /// construction via [`CircuitTiming::refresh_node`].
    pub(crate) fn empty(netlist: &Netlist, library: &Library, config: &SstaConfig) -> Self {
        let n = netlist.node_count();
        let mut slews = vec![0.0f64; n];
        for &i in netlist.inputs() {
            slews[i.index()] = config.input_slew;
        }
        Self {
            loads: vec![0.0f64; n],
            slews,
            delay_moments: vec![Moments::zero(); n],
            attenuation: DriveAttenuation::new(library, &config.variation),
        }
    }

    /// Recomputes the electrical state of one node from the netlist's
    /// *current* sizes and this snapshot's fanin slews, returning
    /// `(slew_changed, delay_changed)` so incremental callers know whether
    /// to propagate to the node's fanouts. Exact recomputation: a node
    /// whose inputs did not change reproduces its stored values bit for
    /// bit, which is what lets incremental re-analysis match a from-scratch
    /// run exactly.
    pub(crate) fn refresh_node(
        &mut self,
        netlist: &Netlist,
        library: &Library,
        config: &SstaConfig,
        id: GateId,
    ) -> (bool, bool) {
        let fresh = self.compute_node(netlist, library, config, id);
        self.apply_node(netlist, id, fresh)
    }

    /// The pure compute half of [`CircuitTiming::refresh_node`]: derives
    /// one node's fresh electrical values from the netlist's current
    /// sizes and this snapshot's fanin slews **without mutating
    /// anything**. Because a node's inputs live at strictly lower
    /// topological levels, every node of one level can be computed
    /// concurrently against the same `&self` — the level-parallel arena
    /// fan-out in [`crate::state`] relies on exactly this.
    pub(crate) fn compute_node(
        &self,
        netlist: &Netlist,
        library: &Library,
        config: &SstaConfig,
        id: GateId,
    ) -> NodeElectrical {
        let load = Self::load_of(netlist, library, config, id);
        let g = netlist.gate(id);
        if g.is_input() {
            // Input slews are configuration constants and input delays are
            // identically zero; only the (unused) load can change.
            return NodeElectrical {
                load,
                slew: self.slews[id.index()],
                delay_moments: Moments::zero(),
            };
        }
        let cell = netlist.cell(id, library);
        let in_slew = g
            .fanins()
            .iter()
            .map(|f| self.slews[f.index()])
            .fold(0.0f64, f64::max);
        let d = cell.delay(in_slew, load).max(0.0);
        let slew = cell.output_slew(in_slew, load).max(0.0);
        let moments = self.attenuation.delay_moments(&config.variation, d, cell);
        NodeElectrical {
            load,
            slew,
            delay_moments: moments,
        }
    }

    /// The write half of [`CircuitTiming::refresh_node`]: stores one
    /// node's freshly computed values and reports
    /// `(slew_changed, delay_changed)` via exact bit comparisons against
    /// the previous snapshot. Inputs store their load only and never
    /// report a change (their slew and zero delay are constants).
    pub(crate) fn apply_node(
        &mut self,
        netlist: &Netlist,
        id: GateId,
        fresh: NodeElectrical,
    ) -> (bool, bool) {
        self.loads[id.index()] = fresh.load;
        if netlist.gate(id).is_input() {
            return (false, false);
        }
        let slew_changed = fresh.slew.to_bits() != self.slews[id.index()].to_bits();
        let delay_changed = fresh.delay_moments != self.delay_moments[id.index()];
        self.slews[id.index()] = fresh.slew;
        self.delay_moments[id.index()] = fresh.delay_moments;
        (slew_changed, delay_changed)
    }

    /// One node's stored electrical values, as an undo log saves them
    /// before [`CircuitTiming::apply_node`] overwrites them.
    pub(crate) fn node(&self, id: GateId) -> NodeElectrical {
        let i = id.index();
        NodeElectrical {
            load: self.loads[i],
            slew: self.slews[i],
            delay_moments: self.delay_moments[i],
        }
    }

    /// Writes back values saved by [`CircuitTiming::node`].
    pub(crate) fn restore_node(&mut self, id: GateId, saved: NodeElectrical) {
        let i = id.index();
        self.loads[i] = saved.load;
        self.slews[i] = saved.slew;
        self.delay_moments[i] = saved.delay_moments;
    }

    fn load_of(netlist: &Netlist, library: &Library, config: &SstaConfig, id: GateId) -> f64 {
        let g = netlist.gate(id);
        let mut load = 0.0;
        for &sink in g.fanouts() {
            load += netlist.cell(sink, library).input_cap() + config.wire_cap_per_fanout;
        }
        if netlist.is_output(id) {
            load += config.po_load;
        }
        load
    }

    /// Capacitive load driven by node `id`.
    #[must_use]
    pub fn load(&self, id: GateId) -> f64 {
        self.loads[id.index()]
    }

    /// Nominal output transition time at node `id`.
    #[must_use]
    pub fn slew(&self, id: GateId) -> f64 {
        self.slews[id.index()]
    }

    /// Nominal delay through gate `id` (0 for primary inputs): the mean
    /// of its [`delay_moments`](Self::delay_moments), which keep the
    /// nominal delay as their mean.
    #[must_use]
    pub fn nominal_delay(&self, id: GateId) -> f64 {
        self.delay_moments[id.index()].mean
    }

    /// Random-variable delay of gate `id` (zero moments for inputs).
    #[must_use]
    pub fn delay_moments(&self, id: GateId) -> Moments {
        self.delay_moments[id.index()]
    }

    /// Recomputes load, slew, and delay for the members of a subcircuit
    /// against the netlist's *current* sizes, returning delay moments keyed
    /// by position in `sub.members()`.
    ///
    /// Loads and slews of member gates are refreshed (a resized member
    /// loads its fanins harder, changing their delays and output slews);
    /// boundary nodes keep the slews of this snapshot. Members are visited
    /// in topological order, so refreshed slews propagate inside the
    /// region; a fanin's fresh slew is found by position in the sorted
    /// member list, so the pass allocates two `Vec`s and no map.
    #[must_use]
    pub fn member_delays(
        &self,
        netlist: &Netlist,
        library: &Library,
        config: &SstaConfig,
        sub: &Subcircuit,
    ) -> Vec<Moments> {
        let members = sub.members();
        let mut fresh_slews: Vec<f64> = Vec::with_capacity(members.len());
        members
            .iter()
            .enumerate()
            .map(|(pos, &m)| {
                let g = netlist.gate(m);
                let cell = netlist.cell(m, library);
                let in_slew = g
                    .fanins()
                    .iter()
                    .map(|f| match members[..pos].binary_search(f) {
                        Ok(p) => fresh_slews[p],
                        Err(_) => self.slews[f.index()],
                    })
                    .fold(0.0f64, f64::max);
                let load = Self::load_of(netlist, library, config, m);
                let d = cell.delay(in_slew, load).max(0.0);
                fresh_slews.push(cell.output_slew(in_slew, load).max(0.0));
                self.attenuation.delay_moments(&config.variation, d, cell)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vartol_liberty::LogicFunction;
    use vartol_netlist::NetlistBuilder;

    fn chain3() -> (Netlist, Vec<GateId>) {
        let mut b = NetlistBuilder::new("chain3");
        let a = b.input("a");
        let g0 = b.gate("g0", LogicFunction::Inv, &[a]);
        let g1 = b.gate("g1", LogicFunction::Inv, &[g0]);
        let g2 = b.gate("g2", LogicFunction::Inv, &[g1]);
        b.mark_output(g2);
        (b.build().expect("valid"), vec![a, g0, g1, g2])
    }

    #[test]
    fn loads_sum_sink_caps_and_po_load() {
        let lib = Library::synthetic_90nm();
        let config = SstaConfig::default();
        let (n, ids) = chain3();
        let t = CircuitTiming::compute(&n, &lib, &config);
        let x1_cap = lib.cell_by_name("NOT_X1").expect("inv").input_cap();
        assert!(
            (t.load(ids[0]) - x1_cap).abs() < 1e-12,
            "PI drives one X1 inverter"
        );
        assert!((t.load(ids[1]) - x1_cap).abs() < 1e-12);
        assert!(
            (t.load(ids[3]) - config.po_load).abs() < 1e-12,
            "PO load only"
        );
    }

    #[test]
    fn upsizing_a_sink_raises_driver_load_and_delay() {
        let lib = Library::synthetic_90nm();
        let config = SstaConfig::default();
        let (mut n, ids) = chain3();
        let t0 = CircuitTiming::compute(&n, &lib, &config);
        n.set_size(ids[2], 5); // upsize g1: loads g0 harder
        let t1 = CircuitTiming::compute(&n, &lib, &config);
        assert!(t1.load(ids[1]) > t0.load(ids[1]));
        assert!(t1.nominal_delay(ids[1]) > t0.nominal_delay(ids[1]));
        // And g1 itself got faster (same load, more drive).
        assert!(t1.nominal_delay(ids[2]) < t0.nominal_delay(ids[2]));
    }

    #[test]
    fn upsizing_shrinks_own_sigma() {
        let lib = Library::synthetic_90nm();
        let config = SstaConfig::default();
        let (mut n, ids) = chain3();
        let t0 = CircuitTiming::compute(&n, &lib, &config);
        let s0 = t0.delay_moments(ids[2]).std();
        n.set_size(ids[2], 5);
        let t1 = CircuitTiming::compute(&n, &lib, &config);
        let s1 = t1.delay_moments(ids[2]).std();
        assert!(s1 < s0, "bigger drive, less variation: {s1} < {s0}");
    }

    #[test]
    fn input_nodes_have_zero_delay_and_config_slew() {
        let lib = Library::synthetic_90nm();
        let config = SstaConfig::default();
        let (n, ids) = chain3();
        let t = CircuitTiming::compute(&n, &lib, &config);
        assert_eq!(t.nominal_delay(ids[0]), 0.0);
        assert_eq!(t.delay_moments(ids[0]), Moments::zero());
        assert_eq!(t.slew(ids[0]), config.input_slew);
    }

    #[test]
    fn deterministic_config_gives_zero_variance() {
        let lib = Library::synthetic_90nm();
        let config = SstaConfig::deterministic();
        let (n, ids) = chain3();
        let t = CircuitTiming::compute(&n, &lib, &config);
        assert_eq!(t.delay_moments(ids[1]).var, 0.0);
        assert!(t.nominal_delay(ids[1]) > 0.0);
    }

    #[test]
    fn member_delays_match_full_recompute_after_resize() {
        let lib = Library::synthetic_90nm();
        let config = SstaConfig::default();
        let (mut n, ids) = chain3();
        let t0 = CircuitTiming::compute(&n, &lib, &config);
        let sub = Subcircuit::extract(&n, ids[2], 1); // members g0,g1,g2... depth1 around g1-index
        n.set_size(ids[2], 4);
        let overlay = t0.member_delays(&n, &lib, &config, &sub);
        let t1 = CircuitTiming::compute(&n, &lib, &config);
        for (pos, &m) in sub.members().iter().enumerate() {
            let want = t1.delay_moments(m);
            let got = overlay[pos];
            // Slews differ slightly (overlay uses stale boundary slews);
            // means must agree within a small tolerance.
            assert!(
                (got.mean - want.mean).abs() < 0.15 * want.mean.max(1.0),
                "member {pos}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn attenuation_table_gives_the_model_bits_for_every_cell() {
        let lib = Library::synthetic_90nm();
        for exponent in [1.0, 0.5, 0.0, 0.73] {
            let model = VariationModel::new(0.35, exponent, 1.5);
            let table = DriveAttenuation::new(&lib, &model);
            assert!(table.drives.len() < lib.cell_count());
            // Another exponent misses the table and takes the drive.
            let other = VariationModel::new(0.35, exponent + 0.25, 1.5);
            for cell in lib.groups().iter().flat_map(|g| g.cells()) {
                for d in [0.0, 1.0, 17.25, 95.5] {
                    for m in [model, other] {
                        let want = m.delay_moments(d, cell.drive());
                        let got = table.delay_moments(&m, d, cell);
                        assert_eq!(
                            (got.mean.to_bits(), got.var.to_bits()),
                            (want.mean.to_bits(), want.var.to_bits()),
                            "{} d={d} exponent={}",
                            cell.name(),
                            m.size_exponent
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn wire_cap_adds_per_fanout() {
        let lib = Library::synthetic_90nm();
        let (n, ids) = chain3();
        let base = SstaConfig::default();
        let wired = SstaConfig {
            wire_cap_per_fanout: 0.5,
            ..base.clone()
        };
        let t0 = CircuitTiming::compute(&n, &lib, &base);
        let t1 = CircuitTiming::compute(&n, &lib, &wired);
        assert!((t1.load(ids[1]) - t0.load(ids[1]) - 0.5).abs() < 1e-12);
    }
}
