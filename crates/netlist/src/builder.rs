//! Safe incremental construction of netlists.

use crate::error::NetlistError;
use crate::graph::{Csr, GateId, GateKind, NameIndex, Names, Netlist, Parts, Register};
use vartol_liberty::LogicFunction;

/// Builds a [`Netlist`] node by node.
///
/// Because a gate can only reference [`GateId`]s already handed out, the
/// resulting node order is topological by construction and cycles are
/// impossible. [`build`](NetlistBuilder::build) validates names, arities,
/// and the presence of inputs and outputs.
///
/// Each node appends to the netlist's own flat arrays (its name to the
/// name arena, its fanins to the fanin CSR) and to the name index, so a
/// node costs no allocation of its own; `build` derives the fanout CSR
/// from the fanins in one counting pass.
///
/// # Example
///
/// ```
/// use vartol_liberty::LogicFunction;
/// use vartol_netlist::NetlistBuilder;
///
/// # fn main() -> Result<(), vartol_netlist::NetlistError> {
/// let mut b = NetlistBuilder::new("mux");
/// let s = b.input("sel");
/// let a = b.input("a");
/// let c = b.input("b");
/// let ns = b.gate("ns", LogicFunction::Inv, &[s]);
/// let t0 = b.gate("t0", LogicFunction::And, &[a, s]);
/// let t1 = b.gate("t1", LogicFunction::And, &[c, ns]);
/// let y = b.gate("y", LogicFunction::Or, &[t0, t1]);
/// b.mark_output(y);
/// let netlist = b.build()?;
/// assert_eq!(netlist.gate_count(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct NetlistBuilder {
    name: String,
    names: Names,
    kinds: Vec<GateKind>,
    fanins: Csr,
    index: NameIndex,
    inputs: Vec<GateId>,
    outputs: Vec<GateId>,
    /// Membership flags for `outputs`, indexed by node (grown on demand).
    output_flags: Vec<bool>,
    registers: Vec<(GateId, Option<GateId>)>,
    /// `register_of[q]` is the slot in `registers` of the register whose
    /// Q gate is node `q` (grown on demand).
    register_of: Vec<Option<usize>>,
    errors: Vec<NetlistError>,
}

impl NetlistBuilder {
    /// Starts a new netlist with the given name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            names: Names::with_capacity(0, 0),
            kinds: Vec::new(),
            fanins: Csr::with_capacity(0, 0),
            index: NameIndex::with_capacity(0),
            inputs: Vec::new(),
            outputs: Vec::new(),
            output_flags: Vec::new(),
            registers: Vec::new(),
            register_of: Vec::new(),
            errors: Vec::new(),
        }
    }

    fn add_node(&mut self, name: &str, kind: GateKind, fanins: &[GateId]) -> GateId {
        let id = GateId::new(self.kinds.len());
        if let Some(f) = fanins.iter().find(|f| f.index() >= id.index()) {
            panic!("fanin {f} of node {id} does not exist yet");
        }
        if let Err(e) = self.names.push(name) {
            self.errors.push(e);
        }
        let names = &self.names;
        if !self.index.insert(name, |j| names.get(j)) {
            self.errors
                .push(NetlistError::DuplicateName(name.to_owned()));
        }
        if let Err(e) = self.fanins.push(fanins.iter().copied()) {
            self.errors.push(e);
        }
        self.kinds.push(kind);
        id
    }

    /// Declares a primary input.
    pub fn input(&mut self, name: impl AsRef<str>) -> GateId {
        let id = self.add_node(name.as_ref(), GateKind::Input, &[]);
        self.inputs.push(id);
        id
    }

    /// Adds a gate at the smallest library size. The arity is the number of
    /// fanins; arity validity is checked at [`build`](NetlistBuilder::build).
    ///
    /// # Panics
    ///
    /// Panics if a fanin is not a node of this builder yet.
    pub fn gate(
        &mut self,
        name: impl AsRef<str>,
        function: LogicFunction,
        fanins: &[GateId],
    ) -> GateId {
        let name = name.as_ref();
        if !function.supports_arity(fanins.len()) {
            self.errors.push(NetlistError::BadArity {
                gate: name.to_owned(),
                function,
                arity: fanins.len(),
            });
        }
        self.add_node(name, GateKind::Cell { function, size: 0 }, fanins)
    }

    /// Adds a register's Q gate: a [`LogicFunction::Dff`] cell whose
    /// single graph fanin is the clock input `clk`, so its cell delay is
    /// the clk→Q launch offset. The D pin is **not** a graph edge —
    /// bind it later with [`NetlistBuilder::bind_d`], which may point at
    /// any node, including ones created *after* this Q gate (feedback
    /// through a register is legal; a register-free combinational cycle
    /// is still impossible by construction).
    pub fn dff(&mut self, name: impl AsRef<str>, clk: GateId) -> GateId {
        let q = self.add_node(
            name.as_ref(),
            GateKind::Cell {
                function: LogicFunction::Dff,
                size: 0,
            },
            &[clk],
        );
        if self.register_of.len() <= q.index() {
            self.register_of.resize(q.index() + 1, None);
        }
        self.register_of[q.index()] = Some(self.registers.len());
        self.registers.push((q, None));
        q
    }

    /// Binds a register's D pin to its driving node. `q` must come from
    /// [`NetlistBuilder::dff`]; binding twice or binding a non-register
    /// accumulates an error reported by [`build`](NetlistBuilder::build).
    pub fn bind_d(&mut self, q: GateId, d: GateId) {
        let Some(slot) = self.register_of.get(q.index()).copied().flatten() else {
            self.errors.push(NetlistError::BadRegister {
                register: self.names.get(q.index()).to_owned(),
                message: "bind_d target was not created by dff()".to_owned(),
            });
            return;
        };
        if self.registers[slot].1.replace(d).is_some() {
            self.errors.push(NetlistError::BadRegister {
                register: self.names.get(q.index()).to_owned(),
                message: "D pin bound twice".to_owned(),
            });
        }
    }

    /// Marks a node as a primary output. Marking the same node twice is
    /// idempotent.
    pub fn mark_output(&mut self, id: GateId) {
        let i = id.index();
        if i >= self.output_flags.len() {
            self.output_flags.resize(i + 1, false);
        }
        if !self.output_flags[i] {
            self.output_flags[i] = true;
            self.outputs.push(id);
        }
    }

    /// Number of nodes added so far.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.kinds.len()
    }

    /// Finalizes the netlist, deriving every fanout list from the fanins
    /// in one counting pass.
    ///
    /// # Errors
    ///
    /// Returns the first accumulated construction error, or
    /// [`NetlistError::NoInputs`] / [`NetlistError::NoOutputs`] if the
    /// netlist is degenerate.
    pub fn build(mut self) -> Result<Netlist, NetlistError> {
        if let Some(e) = self.errors.drain(..).next() {
            return Err(e);
        }
        if self.inputs.is_empty() {
            return Err(NetlistError::NoInputs);
        }
        if self.outputs.is_empty() {
            return Err(NetlistError::NoOutputs);
        }
        let mut registers = Vec::with_capacity(self.registers.len());
        for (q, d) in self.registers {
            let name = self.names.get(q.index()).to_owned();
            let Some(d) = d else {
                return Err(NetlistError::UnboundRegister(name));
            };
            registers.push(Register::new(name, q, d));
        }
        let flags = self.output_flags.len().max(self.kinds.len());
        self.output_flags.resize(flags, false);
        Ok(Netlist::from_parts(Parts {
            name: self.name,
            names: self.names,
            kinds: self.kinds,
            fanins: self.fanins,
            inputs: self.inputs,
            outputs: self.outputs,
            output_flags: self.output_flags,
            index: self.index,
            registers,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_valid_netlist() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let g = b.gate("g", LogicFunction::Inv, &[a]);
        b.mark_output(g);
        let n = b.build().expect("valid");
        assert!(n.check_invariants().is_ok());
    }

    #[test]
    fn duplicate_name_rejected() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("x");
        let g = b.gate("x", LogicFunction::Inv, &[a]);
        b.mark_output(g);
        assert_eq!(
            b.build().unwrap_err(),
            NetlistError::DuplicateName("x".into())
        );
    }

    #[test]
    fn bad_arity_rejected() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let c = b.input("b");
        let g = b.gate("g", LogicFunction::Inv, &[a, c]);
        b.mark_output(g);
        assert!(matches!(
            b.build().unwrap_err(),
            NetlistError::BadArity { arity: 2, .. }
        ));
    }

    #[test]
    fn missing_outputs_rejected() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let _ = b.gate("g", LogicFunction::Inv, &[a]);
        assert_eq!(b.build().unwrap_err(), NetlistError::NoOutputs);
    }

    #[test]
    fn missing_inputs_rejected() {
        let b = NetlistBuilder::new("t");
        assert_eq!(b.build().unwrap_err(), NetlistError::NoInputs);
    }

    #[test]
    fn mark_output_idempotent() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let g = b.gate("g", LogicFunction::Inv, &[a]);
        let h = b.gate("h", LogicFunction::Inv, &[g]);
        b.mark_output(g);
        b.mark_output(h);
        b.mark_output(g);
        b.mark_output(h);
        let n = b.build().expect("valid");
        assert_eq!(n.outputs(), &[g, h], "first-mark order, no repeats");
        assert!(n.is_output(g) && n.is_output(h) && !n.is_output(a));
    }

    #[test]
    fn inputs_can_be_outputs_via_buffer() {
        // Feedthrough: model as a buffer gate (inputs themselves are not
        // markable as outputs in .bench terms, but the graph allows it).
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let g = b.gate("g", LogicFunction::Buf, &[a]);
        b.mark_output(g);
        assert!(b.build().is_ok());
    }

    #[test]
    fn node_count_tracks_additions() {
        let mut b = NetlistBuilder::new("t");
        assert_eq!(b.node_count(), 0);
        let a = b.input("a");
        assert_eq!(b.node_count(), 1);
        let _ = b.gate("g", LogicFunction::Inv, &[a]);
        assert_eq!(b.node_count(), 2);
    }

    #[test]
    fn dff_registers_round_trip_through_build() {
        // q2 -> g -> q1 -> g2 -> (back to) q2: feedback through
        // registers is legal because D pins are not graph edges.
        let mut b = NetlistBuilder::new("seq");
        let clk = b.input("clk");
        let a = b.input("a");
        let q1 = b.dff("q1", clk);
        let q2 = b.dff("q2", clk);
        let g = b.gate("g", LogicFunction::Nand, &[a, q2]);
        let g2 = b.gate("g2", LogicFunction::Inv, &[q1]);
        b.bind_d(q1, g);
        b.bind_d(q2, g2);
        b.mark_output(g2);
        let n = b.build().expect("valid sequential netlist");
        assert!(n.is_sequential());
        assert_eq!(n.register_count(), 2);
        assert_eq!(n.clock(), Some(clk));
        assert_eq!(n.registers()[0].q(), q1);
        assert_eq!(n.registers()[0].d(), g);
        assert_eq!(n.registers()[1].d(), g2);
        assert!(n.check_invariants().is_ok());
        // Endpoints: the marked output plus both D drivers, deduped.
        assert_eq!(n.timing_endpoints(), vec![g, g2]);
    }

    #[test]
    fn unbound_register_rejected() {
        let mut b = NetlistBuilder::new("seq");
        let clk = b.input("clk");
        let q = b.dff("q", clk);
        let g = b.gate("g", LogicFunction::Inv, &[q]);
        b.mark_output(g);
        assert_eq!(
            b.build().unwrap_err(),
            NetlistError::UnboundRegister("q".into())
        );
    }

    #[test]
    fn double_bind_and_foreign_bind_rejected() {
        let mut b = NetlistBuilder::new("seq");
        let clk = b.input("clk");
        let q = b.dff("q", clk);
        let g = b.gate("g", LogicFunction::Inv, &[q]);
        b.bind_d(q, g);
        b.bind_d(q, g);
        b.mark_output(g);
        assert!(matches!(
            b.build().unwrap_err(),
            NetlistError::BadRegister { .. }
        ));

        let mut b = NetlistBuilder::new("seq2");
        let clk = b.input("clk");
        let q = b.dff("q", clk);
        let g = b.gate("g", LogicFunction::Inv, &[q]);
        b.bind_d(g, q); // g is not a register
        b.mark_output(g);
        assert!(matches!(
            b.build().unwrap_err(),
            NetlistError::BadRegister { .. }
        ));
    }

    #[test]
    fn fanout_multiplicity_preserved() {
        // A gate using the same signal on two pins records it twice.
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let g = b.gate("g", LogicFunction::Nand, &[a, a]);
        b.mark_output(g);
        let n = b.build().expect("valid");
        assert_eq!(n.gate(a).fanouts().len(), 2);
        assert_eq!(n.gate(g).fanins(), &[a, a]);
    }

    #[test]
    fn thousands_of_registers_bind_by_their_q() {
        let mut b = NetlistBuilder::new("regs");
        let clk = b.input("clk");
        let a = b.input("a");
        let qs: Vec<GateId> = (0..2_000).map(|i| b.dff(format!("q{i}"), clk)).collect();
        let ds: Vec<GateId> = qs
            .iter()
            .enumerate()
            .map(|(i, &q)| b.gate(format!("g{i}"), LogicFunction::Nand, &[a, q]))
            .collect();
        for (&q, &d) in qs.iter().zip(&ds).rev() {
            b.bind_d(q, d);
        }
        b.mark_output(ds[0]);
        let n = b.build().expect("valid sequential netlist");
        assert_eq!(n.register_count(), 2_000);
        for (r, (&q, &d)) in n.registers().iter().zip(qs.iter().zip(&ds)) {
            assert_eq!((r.q(), r.d()), (q, d), "{}", r.name());
        }
    }

    #[test]
    fn register_errors_keep_their_order_among_many_registers() {
        let build = |foreign_first: bool| {
            let mut b = NetlistBuilder::new("regs");
            let clk = b.input("clk");
            let qs: Vec<GateId> = (0..2_000).map(|i| b.dff(format!("q{i}"), clk)).collect();
            let g = b.gate("g", LogicFunction::Inv, &[qs[1_999]]);
            for &q in &qs {
                b.bind_d(q, g);
            }
            if foreign_first {
                b.bind_d(g, qs[0]);
                b.bind_d(qs[1_000], g);
            } else {
                b.bind_d(qs[1_000], g);
                b.bind_d(g, qs[0]);
            }
            b.mark_output(g);
            b.build().unwrap_err().to_string()
        };
        assert_eq!(
            build(true),
            "register `g`: bind_d target was not created by dff()"
        );
        assert_eq!(build(false), "register `q1000`: D pin bound twice");
    }
}
