//! # vartol-netlist
//!
//! Gate-level combinational netlists for statistical timing and sizing:
//!
//! * [`Netlist`] / [`Gate`] — a DAG of library gates over primary inputs and
//!   outputs, with sizes mutable in place (the optimizer's state), kept in
//!   flat arrays; a [`Gate`] is a `Copy` view of one node.
//! * [`NetlistBuilder`] — safe construction; a netlist is topologically
//!   ordered by construction and validated on [`NetlistBuilder::build`].
//! * [`iscas`] — reader/writer for the ISCAS-85/89 `.bench` format
//!   (including `DFF` register cuts), so real benchmark files can be used
//!   where available.
//! * [`sim`] — boolean simulation, used to verify that generated circuits
//!   compute what they claim (adders add, multipliers multiply).
//! * [`subcircuit`] — extraction of the k-level transitive fanin/fanout
//!   cone around a gate (§4.5 of the paper: "two levels of transitive
//!   fanins and fanouts is sufficiently accurate").
//! * [`generators`] — structural circuit generators standing in for the
//!   paper's ISCAS-85 + ALU evaluation suite (`generators::benchmarks`
//!   lists each substitution).
//!
//! # Example
//!
//! ```
//! use vartol_liberty::LogicFunction;
//! use vartol_netlist::NetlistBuilder;
//!
//! let mut b = NetlistBuilder::new("half_adder");
//! let a = b.input("a");
//! let c = b.input("b");
//! let sum = b.gate("sum", LogicFunction::Xor, &[a, c]);
//! let carry = b.gate("carry", LogicFunction::And, &[a, c]);
//! b.mark_output(sum);
//! b.mark_output(carry);
//! let netlist = b.build().expect("valid half adder");
//! assert_eq!(netlist.gate_count(), 2);
//! assert_eq!(netlist.input_count(), 2);
//! ```

pub mod builder;
pub mod error;
pub mod generators;
pub mod graph;
pub mod iscas;
pub mod sim;
pub mod stats;
pub mod subcircuit;

pub use builder::NetlistBuilder;
pub use error::NetlistError;
pub use graph::{Gate, GateId, GateKind, Netlist, Register};
pub use stats::NetlistStats;
pub use subcircuit::Subcircuit;
