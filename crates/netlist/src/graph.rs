//! The netlist graph: gates, connectivity, and size state.

use crate::error::NetlistError;
use std::collections::HashMap;
use vartol_liberty::{Library, LogicFunction};

/// Identifier of a node (primary input or gate) within one [`Netlist`].
///
/// Ids are dense indices assigned in construction order, which is also a
/// topological order (a gate can only reference previously created nodes).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct GateId(u32);

impl GateId {
    /// The dense index of this node.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuilds an id from a dense index previously obtained via
    /// [`GateId::index`]. The index must refer to the same netlist it came
    /// from; analysis code uses this to address parallel per-node vectors.
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds `u32::MAX`.
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        Self::new(index)
    }

    pub(crate) fn new(index: usize) -> Self {
        Self(u32::try_from(index).expect("netlists are limited to u32 nodes"))
    }
}

impl std::fmt::Display for GateId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// What a node is: a primary input or a library gate instance.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum GateKind {
    /// A primary input; carries no delay of its own.
    Input,
    /// A combinational gate mapped to a library cell family.
    Cell {
        /// The boolean function.
        function: LogicFunction,
        /// The current size index into the library's
        /// [`CellGroup`](vartol_liberty::CellGroup) (0 = smallest drive).
        size: usize,
    },
}

/// One node of the netlist.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Gate {
    name: String,
    kind: GateKind,
    fanins: Vec<GateId>,
    fanouts: Vec<GateId>,
}

impl Gate {
    /// The node's unique name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The node kind (input or cell).
    #[must_use]
    pub fn kind(&self) -> &GateKind {
        &self.kind
    }

    /// True for primary inputs.
    #[must_use]
    pub fn is_input(&self) -> bool {
        matches!(self.kind, GateKind::Input)
    }

    /// The logic function, if this node is a cell.
    #[must_use]
    pub fn function(&self) -> Option<LogicFunction> {
        match self.kind {
            GateKind::Input => None,
            GateKind::Cell { function, .. } => Some(function),
        }
    }

    /// The current size index, if this node is a cell.
    #[must_use]
    pub fn size(&self) -> Option<usize> {
        match self.kind {
            GateKind::Input => None,
            GateKind::Cell { size, .. } => Some(size),
        }
    }

    /// Driving nodes, in pin order.
    #[must_use]
    pub fn fanins(&self) -> &[GateId] {
        &self.fanins
    }

    /// Driven nodes (a node appears once per sink pin it drives).
    #[must_use]
    pub fn fanouts(&self) -> &[GateId] {
        &self.fanouts
    }
}

/// One register of a sequential netlist: the cut between its D (data)
/// pin and its Q (output) gate.
///
/// In the flattened timing graph the register's Q pin is an ordinary
/// [`LogicFunction::Dff`] cell whose single fanin is the shared clock
/// input — its cell delay is the clk→Q launch offset, so every engine
/// times it with no special casing. The D pin is **not** a graph edge
/// (the graph stays acyclic); it is this metadata record, which makes
/// the node driving D a timing endpoint checked against the register's
/// setup window.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Register {
    name: String,
    q: GateId,
    d: GateId,
}

impl Register {
    pub(crate) fn new(name: String, q: GateId, d: GateId) -> Self {
        Self { name, q, d }
    }

    /// The register's name (the name of its Q gate).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The Q-pin gate: a [`LogicFunction::Dff`] cell fed by the clock,
    /// and the startpoint of every path the register launches.
    #[must_use]
    pub fn q(&self) -> GateId {
        self.q
    }

    /// The node driving the D pin: the endpoint of every path the
    /// register captures.
    #[must_use]
    pub fn d(&self) -> GateId {
        self.d
    }
}

/// A combinational gate-level netlist, optionally carrying a register
/// cut (see [`Register`]) that makes it the flattened core of a
/// sequential circuit.
///
/// Nodes are stored in a topological order (guaranteed by the builder), so
/// timing propagation is a single forward scan over [`Netlist::node_ids`].
///
/// # Example
///
/// ```
/// use vartol_liberty::{Library, LogicFunction};
/// use vartol_netlist::NetlistBuilder;
///
/// let lib = Library::synthetic_90nm();
/// let mut b = NetlistBuilder::new("inv_chain");
/// let a = b.input("a");
/// let g1 = b.gate("g1", LogicFunction::Inv, &[a]);
/// let g2 = b.gate("g2", LogicFunction::Inv, &[g1]);
/// b.mark_output(g2);
/// let mut n = b.build().expect("valid");
///
/// assert_eq!(n.depth(), 2);
/// let before = n.total_area(&lib);
/// n.set_size(g1, 3);
/// assert!(n.total_area(&lib) > before);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Netlist {
    name: String,
    nodes: Vec<Gate>,
    inputs: Vec<GateId>,
    outputs: Vec<GateId>,
    /// `output_flags[i]` is true iff node `i` is in `outputs` — the O(1)
    /// form of [`Netlist::is_output`], kept in step with `outputs`; at
    /// least one entry per node.
    output_flags: Vec<bool>,
    name_index: HashMap<String, GateId>,
    registers: Vec<Register>,
}

impl Netlist {
    pub(crate) fn from_parts(
        name: String,
        nodes: Vec<Gate>,
        inputs: Vec<GateId>,
        outputs: Vec<GateId>,
        output_flags: Vec<bool>,
        name_index: HashMap<String, GateId>,
        registers: Vec<Register>,
    ) -> Self {
        Self {
            name,
            nodes,
            inputs,
            outputs,
            output_flags,
            name_index,
            registers,
        }
    }

    /// The netlist name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the netlist (builder output), e.g. to label a generated
    /// circuit with its benchmark-suite name.
    #[must_use]
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Total node count (primary inputs + gates).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of cell gates (excluding primary inputs).
    #[must_use]
    pub fn gate_count(&self) -> usize {
        self.nodes.iter().filter(|g| !g.is_input()).count()
    }

    /// Number of primary inputs.
    #[must_use]
    pub fn input_count(&self) -> usize {
        self.inputs.len()
    }

    /// Number of primary outputs.
    #[must_use]
    pub fn output_count(&self) -> usize {
        self.outputs.len()
    }

    /// Primary input ids.
    #[must_use]
    pub fn inputs(&self) -> &[GateId] {
        &self.inputs
    }

    /// Primary output ids.
    #[must_use]
    pub fn outputs(&self) -> &[GateId] {
        &self.outputs
    }

    /// Whether `id` is marked as a primary output.
    #[must_use]
    pub fn is_output(&self, id: GateId) -> bool {
        self.output_flags.get(id.index()).copied().unwrap_or(false)
    }

    /// The register cut, in Q-gate construction order (empty for a
    /// purely combinational netlist).
    #[must_use]
    pub fn registers(&self) -> &[Register] {
        &self.registers
    }

    /// Number of registers.
    #[must_use]
    pub fn register_count(&self) -> usize {
        self.registers.len()
    }

    /// Whether the netlist carries a register cut.
    #[must_use]
    pub fn is_sequential(&self) -> bool {
        !self.registers.is_empty()
    }

    /// The shared clock input (the single fanin of every register's Q
    /// gate), or `None` for a combinational netlist.
    #[must_use]
    pub fn clock(&self) -> Option<GateId> {
        self.registers.first().map(|r| self.gate(r.q()).fanins()[0])
    }

    /// Every setup-timing endpoint, sorted by id: the primary outputs
    /// plus the nodes driving register D pins. A node that is both (or
    /// drives several D pins) appears once.
    #[must_use]
    pub fn timing_endpoints(&self) -> Vec<GateId> {
        let mut endpoints: Vec<GateId> = self.outputs.clone();
        endpoints.extend(self.registers.iter().map(Register::d));
        endpoints.sort_unstable();
        endpoints.dedup();
        endpoints
    }

    /// A clone with every register's (non-input) D driver additionally
    /// marked as a primary output, so that the engines' max-over-outputs
    /// objective ranges over **all** setup endpoints. This is the netlist
    /// the clocked sizer optimizes: minimizing its circuit delay drives
    /// the worst endpoint arrival — and with it the worst negative slack
    /// — down. Input-driven D pins are skipped (an input arrives at 0 and
    /// can never be the critical endpoint).
    #[must_use]
    pub fn endpoint_marked(&self) -> Netlist {
        let mut marked = self.clone();
        for r in &self.registers {
            let d = r.d();
            if !self.gate(d).is_input() && !marked.is_output(d) {
                marked.outputs.push(d);
                marked.output_flags[d.index()] = true;
            }
        }
        marked
    }

    /// The node for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this netlist (see
    /// [`Netlist::try_gate`] for the non-panicking form).
    #[must_use]
    pub fn gate(&self, id: GateId) -> &Gate {
        &self.nodes[id.index()]
    }

    /// The node for `id`, rejecting ids from a different (or larger)
    /// netlist instead of panicking — the validation entry point for
    /// services that accept untrusted requests.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::NodeOutOfRange`] when `id` points past the
    /// node table.
    pub fn try_gate(&self, id: GateId) -> Result<&Gate, NetlistError> {
        self.nodes
            .get(id.index())
            .ok_or(NetlistError::NodeOutOfRange {
                index: id.index(),
                nodes: self.nodes.len(),
            })
    }

    /// Looks a node up by name.
    #[must_use]
    pub fn gate_by_name(&self, name: &str) -> Option<GateId> {
        self.name_index.get(name).copied()
    }

    /// All node ids in topological order (inputs before the gates they
    /// feed; every gate after all of its fanins).
    pub fn node_ids(&self) -> impl Iterator<Item = GateId> + '_ {
        (0..self.nodes.len()).map(GateId::new)
    }

    /// Ids of cell gates only, topological order.
    pub fn gate_ids(&self) -> impl Iterator<Item = GateId> + '_ {
        self.node_ids().filter(|&id| !self.gate(id).is_input())
    }

    /// Sets the size index of a cell gate.
    ///
    /// # Panics
    ///
    /// Panics if `id` is a primary input (see [`Netlist::try_set_size`]
    /// for the non-panicking form).
    pub fn set_size(&mut self, id: GateId, size: usize) {
        match &mut self.nodes[id.index()].kind {
            GateKind::Input => panic!("cannot size a primary input"),
            GateKind::Cell { size: s, .. } => *s = size,
        }
    }

    /// Sets the size index of a cell gate, rejecting bad ids and input
    /// nodes instead of panicking. Size indices are *not* checked against
    /// a library here (the netlist knows none); use
    /// [`Netlist::validate_against_library`] or check the
    /// [`CellGroup`](vartol_liberty::CellGroup) length for that.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::NodeOutOfRange`] for an id past the node
    /// table, or [`NetlistError::InputHasNoSize`] for a primary input.
    pub fn try_set_size(&mut self, id: GateId, size: usize) -> Result<(), NetlistError> {
        let nodes = self.nodes.len();
        let node = self
            .nodes
            .get_mut(id.index())
            .ok_or(NetlistError::NodeOutOfRange {
                index: id.index(),
                nodes,
            })?;
        match &mut node.kind {
            GateKind::Input => Err(NetlistError::InputHasNoSize(node.name.clone())),
            GateKind::Cell { size: s, .. } => {
                *s = size;
                Ok(())
            }
        }
    }

    /// Snapshot of all gate sizes (entries for input nodes are 0).
    #[must_use]
    pub fn sizes(&self) -> Vec<usize> {
        self.nodes.iter().map(|g| g.size().unwrap_or(0)).collect()
    }

    /// Restores a snapshot taken with [`Netlist::sizes`].
    ///
    /// # Panics
    ///
    /// Panics if `sizes.len() != self.node_count()` (see
    /// [`Netlist::try_restore_sizes`] for the non-panicking form).
    pub fn restore_sizes(&mut self, sizes: &[usize]) {
        self.try_restore_sizes(sizes)
            .unwrap_or_else(|e| panic!("size snapshot length mismatch: {e}"));
    }

    /// Restores a snapshot taken with [`Netlist::sizes`], rejecting a
    /// length mismatch instead of panicking. On error the netlist is
    /// untouched.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::SizeSnapshotMismatch`] when
    /// `sizes.len() != self.node_count()`.
    pub fn try_restore_sizes(&mut self, sizes: &[usize]) -> Result<(), NetlistError> {
        if sizes.len() != self.nodes.len() {
            return Err(NetlistError::SizeSnapshotMismatch {
                got: sizes.len(),
                expected: self.nodes.len(),
            });
        }
        for (node, &s) in self.nodes.iter_mut().zip(sizes) {
            if let GateKind::Cell { size, .. } = &mut node.kind {
                *size = s;
            }
        }
        Ok(())
    }

    /// Resets every gate to the smallest size.
    pub fn reset_sizes(&mut self) {
        for node in &mut self.nodes {
            if let GateKind::Cell { size, .. } = &mut node.kind {
                *size = 0;
            }
        }
    }

    /// The library cell currently implementing gate `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is an input or the library lacks the cell (use
    /// [`Netlist::validate_against_library`] first for a `Result`).
    #[must_use]
    pub fn cell<'l>(&self, id: GateId, library: &'l Library) -> &'l vartol_liberty::Cell {
        let g = self.gate(id);
        match g.kind() {
            GateKind::Input => panic!("primary input {} has no cell", g.name()),
            GateKind::Cell { function, size } => library
                .cell(*function, g.fanins().len(), *size)
                .unwrap_or_else(|| {
                    panic!(
                        "library has no cell {function}/{} size {size} for gate {}",
                        g.fanins().len(),
                        g.name()
                    )
                }),
        }
    }

    /// Total cell area under the given library.
    #[must_use]
    pub fn total_area(&self, library: &Library) -> f64 {
        self.gate_ids()
            .map(|id| self.cell(id, library).area())
            .sum()
    }

    /// Checks that every gate maps to an existing library cell group and
    /// that its current size index is in range.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::MissingCell`] for the first offending gate.
    pub fn validate_against_library(&self, library: &Library) -> Result<(), NetlistError> {
        for id in self.gate_ids() {
            let g = self.gate(id);
            let (function, size) = match g.kind() {
                GateKind::Input => continue,
                GateKind::Cell { function, size } => (*function, *size),
            };
            let arity = g.fanins().len();
            match library.group(function, arity) {
                Some(group) if size < group.len() => {}
                _ => {
                    return Err(NetlistError::MissingCell {
                        gate: g.name().to_owned(),
                        function,
                        arity,
                    })
                }
            }
        }
        Ok(())
    }

    /// Topological level of every node: inputs at level 0, each gate one
    /// more than its deepest fanin.
    #[must_use]
    pub fn levels(&self) -> Vec<usize> {
        let mut levels = vec![0usize; self.nodes.len()];
        for id in self.node_ids() {
            let g = self.gate(id);
            if !g.is_input() {
                levels[id.index()] = g
                    .fanins()
                    .iter()
                    .map(|f| levels[f.index()] + 1)
                    .max()
                    .unwrap_or(0);
            }
        }
        levels
    }

    /// Logic depth: the maximum level over all nodes.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.levels().into_iter().max().unwrap_or(0)
    }

    /// The transitive fanout cone of a seed set: every node reachable
    /// from a seed along fanout edges, including the seeds themselves.
    /// Returned sorted by id (= topological order).
    ///
    /// This is exactly the region an incremental timing update may touch
    /// after the seed gates change; tests use it to assert the bound the
    /// incremental re-analysis must respect.
    #[must_use]
    pub fn fanout_cone(&self, seeds: impl IntoIterator<Item = GateId>) -> Vec<GateId> {
        let mut in_cone = vec![false; self.nodes.len()];
        let mut worklist: Vec<GateId> = Vec::new();
        for seed in seeds {
            if !in_cone[seed.index()] {
                in_cone[seed.index()] = true;
                worklist.push(seed);
            }
        }
        while let Some(id) = worklist.pop() {
            for &f in self.gate(id).fanouts() {
                if !in_cone[f.index()] {
                    in_cone[f.index()] = true;
                    worklist.push(f);
                }
            }
        }
        in_cone
            .iter()
            .enumerate()
            .filter(|(_, &hit)| hit)
            .map(|(i, _)| GateId::new(i))
            .collect()
    }

    /// Structural invariants: fanins precede their gate (topological
    /// order), fanin/fanout lists are mutually consistent, inputs have no
    /// fanins, and arities are legal. Cheap enough for debug assertions in
    /// tests; builders already guarantee all of this.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), NetlistError> {
        for id in self.node_ids() {
            let g = self.gate(id);
            match g.kind() {
                GateKind::Input => {
                    if !g.fanins().is_empty() {
                        return Err(NetlistError::Cycle(g.name().to_owned()));
                    }
                }
                GateKind::Cell { function, .. } => {
                    if !function.supports_arity(g.fanins().len()) {
                        return Err(NetlistError::BadArity {
                            gate: g.name().to_owned(),
                            function: *function,
                            arity: g.fanins().len(),
                        });
                    }
                }
            }
            for &f in g.fanins() {
                if f.index() >= id.index() {
                    return Err(NetlistError::Cycle(g.name().to_owned()));
                }
                if !self.gate(f).fanouts().contains(&id) {
                    return Err(NetlistError::UnknownSignal(g.name().to_owned()));
                }
            }
            for &f in g.fanouts() {
                if !self.gate(f).fanins().contains(&id) {
                    return Err(NetlistError::UnknownSignal(g.name().to_owned()));
                }
            }
        }
        if self.inputs.is_empty() {
            return Err(NetlistError::NoInputs);
        }
        if self.outputs.is_empty() {
            return Err(NetlistError::NoOutputs);
        }
        let mut clock: Option<GateId> = None;
        let mut seen_q = vec![false; self.nodes.len()];
        for r in &self.registers {
            let q = self.try_gate(r.q())?;
            self.try_gate(r.d())?;
            let is_dff = matches!(
                q.kind(),
                GateKind::Cell {
                    function: LogicFunction::Dff,
                    ..
                }
            );
            if !is_dff || q.fanins().len() != 1 {
                return Err(NetlistError::BadRegister {
                    register: r.name().to_owned(),
                    message: "Q gate is not a single-fanin DFF cell".to_owned(),
                });
            }
            if seen_q[r.q().index()] {
                return Err(NetlistError::BadRegister {
                    register: r.name().to_owned(),
                    message: "two registers share one Q gate".to_owned(),
                });
            }
            seen_q[r.q().index()] = true;
            let clk = q.fanins()[0];
            if !self.gate(clk).is_input() {
                return Err(NetlistError::BadRegister {
                    register: r.name().to_owned(),
                    message: "clock is not a primary input".to_owned(),
                });
            }
            match clock {
                None => clock = Some(clk),
                Some(c) if c != clk => {
                    return Err(NetlistError::BadRegister {
                        register: r.name().to_owned(),
                        message: "registers disagree on the clock input".to_owned(),
                    });
                }
                Some(_) => {}
            }
        }
        Ok(())
    }
}

impl std::fmt::Display for Netlist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} gates, {} inputs, {} outputs, depth {}",
            self.name,
            self.gate_count(),
            self.input_count(),
            self.output_count(),
            self.depth()
        )
    }
}

impl Gate {
    pub(crate) fn new(name: String, kind: GateKind, fanins: Vec<GateId>) -> Self {
        Self {
            name,
            kind,
            fanins,
            fanouts: Vec::new(),
        }
    }

    pub(crate) fn push_fanout(&mut self, id: GateId) {
        self.fanouts.push(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;
    use vartol_liberty::Library;

    fn tiny() -> (Netlist, GateId, GateId, GateId) {
        let mut b = NetlistBuilder::new("tiny");
        let a = b.input("a");
        let c = b.input("b");
        let g1 = b.gate("g1", LogicFunction::Nand, &[a, c]);
        let g2 = b.gate("g2", LogicFunction::Inv, &[g1]);
        b.mark_output(g2);
        (b.build().expect("valid"), a, g1, g2)
    }

    #[test]
    fn counts_and_lookup() {
        let (n, a, g1, g2) = tiny();
        assert_eq!(n.node_count(), 4);
        assert_eq!(n.gate_count(), 2);
        assert_eq!(n.input_count(), 2);
        assert_eq!(n.output_count(), 1);
        assert_eq!(n.gate_by_name("g1"), Some(g1));
        assert_eq!(n.gate_by_name("nope"), None);
        assert!(n.gate(a).is_input());
        assert!(!n.gate(g2).is_input());
        assert!(n.is_output(g2));
        assert!(!n.is_output(g1));
    }

    #[test]
    fn fanin_fanout_consistency() {
        let (n, a, g1, g2) = tiny();
        assert_eq!(n.gate(g1).fanins().len(), 2);
        assert_eq!(n.gate(g1).fanouts(), &[g2]);
        assert!(n.gate(a).fanouts().contains(&g1));
        assert!(n.check_invariants().is_ok());
    }

    #[test]
    fn levels_and_depth() {
        let (n, a, g1, g2) = tiny();
        let levels = n.levels();
        assert_eq!(levels[a.index()], 0);
        assert_eq!(levels[g1.index()], 1);
        assert_eq!(levels[g2.index()], 2);
        assert_eq!(n.depth(), 2);
    }

    #[test]
    fn size_snapshot_round_trip() {
        let (mut n, _, g1, g2) = tiny();
        n.set_size(g1, 3);
        n.set_size(g2, 2);
        let snap = n.sizes();
        n.reset_sizes();
        assert_eq!(n.gate(g1).size(), Some(0));
        n.restore_sizes(&snap);
        assert_eq!(n.gate(g1).size(), Some(3));
        assert_eq!(n.gate(g2).size(), Some(2));
    }

    #[test]
    #[should_panic(expected = "cannot size a primary input")]
    fn sizing_input_panics() {
        let (mut n, a, _, _) = tiny();
        n.set_size(a, 1);
    }

    #[test]
    fn try_gate_rejects_foreign_ids() {
        let (n, _, g1, _) = tiny();
        assert_eq!(n.try_gate(g1).expect("valid id").name(), "g1");
        let bad = GateId::from_index(n.node_count() + 3);
        assert_eq!(
            n.try_gate(bad).expect_err("out of range"),
            NetlistError::NodeOutOfRange {
                index: n.node_count() + 3,
                nodes: n.node_count()
            }
        );
    }

    #[test]
    fn try_set_size_rejects_inputs_and_bad_ids_without_mutating() {
        let (mut n, a, g1, _) = tiny();
        n.try_set_size(g1, 2).expect("cells are sizable");
        assert_eq!(n.gate(g1).size(), Some(2));
        assert_eq!(
            n.try_set_size(a, 1).expect_err("inputs have no size"),
            NetlistError::InputHasNoSize("a".into())
        );
        let snapshot = n.sizes();
        let bad = GateId::from_index(99);
        assert!(matches!(
            n.try_set_size(bad, 1),
            Err(NetlistError::NodeOutOfRange { index: 99, .. })
        ));
        assert_eq!(n.sizes(), snapshot, "failed calls leave sizes untouched");
    }

    #[test]
    fn try_restore_sizes_rejects_length_mismatch_without_mutating() {
        let (mut n, _, g1, _) = tiny();
        n.set_size(g1, 3);
        let snapshot = n.sizes();
        assert_eq!(
            n.try_restore_sizes(&[0]).expect_err("wrong length"),
            NetlistError::SizeSnapshotMismatch {
                got: 1,
                expected: n.node_count()
            }
        );
        assert_eq!(n.sizes(), snapshot, "error path must not half-apply");
        let mut restored = snapshot.clone();
        restored[g1.index()] = 1;
        n.try_restore_sizes(&restored).expect("matching length");
        assert_eq!(n.gate(g1).size(), Some(1));
    }

    #[test]
    fn area_grows_with_size() {
        let lib = Library::synthetic_90nm();
        let (mut n, _, g1, _) = tiny();
        let a0 = n.total_area(&lib);
        n.set_size(g1, 4);
        assert!(n.total_area(&lib) > a0);
    }

    #[test]
    fn library_validation() {
        let lib = Library::synthetic_90nm();
        let (mut n, _, g1, _) = tiny();
        assert!(n.validate_against_library(&lib).is_ok());
        n.set_size(g1, 999);
        assert!(matches!(
            n.validate_against_library(&lib),
            Err(NetlistError::MissingCell { .. })
        ));
    }

    #[test]
    fn cell_lookup_tracks_size() {
        let lib = Library::synthetic_90nm();
        let (mut n, _, g1, _) = tiny();
        assert_eq!(n.cell(g1, &lib).drive_index(), 0);
        n.set_size(g1, 2);
        assert_eq!(n.cell(g1, &lib).drive_index(), 2);
        assert_eq!(n.cell(g1, &lib).function(), LogicFunction::Nand);
    }

    #[test]
    fn fanout_cone_covers_downstream_only() {
        let (n, a, g1, g2) = tiny();
        // From g1: itself and g2 (its only sink).
        assert_eq!(n.fanout_cone([g1]), vec![g1, g2]);
        // From the output: itself only.
        assert_eq!(n.fanout_cone([g2]), vec![g2]);
        // From an input: everything it reaches.
        let from_a = n.fanout_cone([a]);
        assert!(from_a.contains(&a) && from_a.contains(&g1) && from_a.contains(&g2));
        // Duplicated seeds collapse.
        assert_eq!(n.fanout_cone([g1, g1, g2]), vec![g1, g2]);
    }

    #[test]
    fn gate_ids_excludes_inputs() {
        let (n, _, _, _) = tiny();
        assert_eq!(n.gate_ids().count(), 2);
        assert!(n.gate_ids().all(|id| !n.gate(id).is_input()));
    }

    #[test]
    fn display_summarizes() {
        let (n, _, _, _) = tiny();
        let s = n.to_string();
        assert!(s.contains("tiny") && s.contains("2 gates"));
    }

    #[test]
    fn gate_id_display() {
        assert_eq!(GateId::new(5).to_string(), "n5");
        assert_eq!(GateId::new(5).index(), 5);
    }
}
