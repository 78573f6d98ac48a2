//! Shared building blocks for the circuit generators.
//!
//! Every block emits gates into a caller-supplied [`NetlistBuilder`] under a
//! unique name prefix, so blocks compose into larger circuits without name
//! collisions.

use crate::builder::NetlistBuilder;
use crate::graph::GateId;
use vartol_liberty::LogicFunction;

/// Emits a 2-input XOR. With `expand = true` it is decomposed into the
/// classic 4-NAND structure (used by the c1355-style benchmarks, which are
/// the c499 function with XORs expanded into NANDs).
pub(crate) fn emit_xor2(
    b: &mut NetlistBuilder,
    prefix: &str,
    x: GateId,
    y: GateId,
    expand: bool,
) -> GateId {
    if expand {
        let m = b.gate(format!("{prefix}_m"), LogicFunction::Nand, &[x, y]);
        let p = b.gate(format!("{prefix}_p"), LogicFunction::Nand, &[x, m]);
        let q = b.gate(format!("{prefix}_q"), LogicFunction::Nand, &[y, m]);
        b.gate(format!("{prefix}_o"), LogicFunction::Nand, &[p, q])
    } else {
        b.gate(prefix, LogicFunction::Xor, &[x, y])
    }
}

/// Emits a half adder: `(sum, carry)`.
pub(crate) fn emit_half_adder(
    b: &mut NetlistBuilder,
    prefix: &str,
    x: GateId,
    y: GateId,
) -> (GateId, GateId) {
    let s = b.gate(format!("{prefix}_s"), LogicFunction::Xor, &[x, y]);
    let c = b.gate(format!("{prefix}_c"), LogicFunction::And, &[x, y]);
    (s, c)
}

/// Emits a full adder: `(sum, carry)`.
///
/// `expanded = false` uses the compact XOR3 + MAJ3 pair (2 gates);
/// `expanded = true` uses the 5-gate two-level structure
/// (`x1 = a⊕b`, `s = x1⊕cin`, `cout = (a∧b) ∨ (x1∧cin)`), which yields
/// gate counts closer to technology-mapped netlists.
pub(crate) fn emit_full_adder(
    b: &mut NetlistBuilder,
    prefix: &str,
    a: GateId,
    x: GateId,
    cin: GateId,
    expanded: bool,
) -> (GateId, GateId) {
    if expanded {
        let x1 = b.gate(format!("{prefix}_x1"), LogicFunction::Xor, &[a, x]);
        let s = b.gate(format!("{prefix}_s"), LogicFunction::Xor, &[x1, cin]);
        let g1 = b.gate(format!("{prefix}_g1"), LogicFunction::And, &[a, x]);
        let g2 = b.gate(format!("{prefix}_g2"), LogicFunction::And, &[x1, cin]);
        let c = b.gate(format!("{prefix}_c"), LogicFunction::Or, &[g1, g2]);
        (s, c)
    } else {
        let s = b.gate(format!("{prefix}_s"), LogicFunction::Xor, &[a, x, cin]);
        let c = b.gate(format!("{prefix}_c"), LogicFunction::Maj3, &[a, x, cin]);
        (s, c)
    }
}

/// Emits a 2:1 mux: returns `s ? when1 : when0`. `ns` must be the
/// complement of `s` (shared across muxes by the caller).
pub(crate) fn emit_mux2(
    b: &mut NetlistBuilder,
    prefix: &str,
    when1: GateId,
    when0: GateId,
    s: GateId,
    ns: GateId,
) -> GateId {
    let t1 = b.gate(format!("{prefix}_t1"), LogicFunction::And, &[when1, s]);
    let t0 = b.gate(format!("{prefix}_t0"), LogicFunction::And, &[when0, ns]);
    b.gate(format!("{prefix}_o"), LogicFunction::Or, &[t1, t0])
}

/// Emits a balanced binary tree of 2-input gates over `leaves`, returning
/// the root. A single leaf is passed through unchanged (no gate emitted).
///
/// # Panics
///
/// Panics if `leaves` is empty.
pub(crate) fn emit_tree(
    b: &mut NetlistBuilder,
    prefix: &str,
    function: LogicFunction,
    leaves: &[GateId],
) -> GateId {
    assert!(!leaves.is_empty(), "tree needs at least one leaf");
    let mut layer: Vec<GateId> = leaves.to_vec();
    let mut level = 0usize;
    while layer.len() > 1 {
        let mut next = Vec::with_capacity(layer.len().div_ceil(2));
        for (i, pair) in layer.chunks(2).enumerate() {
            if pair.len() == 2 {
                next.push(b.gate(
                    format!("{prefix}_l{level}_{i}"),
                    function,
                    &[pair[0], pair[1]],
                ));
            } else {
                next.push(pair[0]);
            }
        }
        layer = next;
        level += 1;
    }
    layer[0]
}

/// Emits a ripple-carry adder over little-endian operands, returning
/// `(sum_bits, carry_out)`.
///
/// # Panics
///
/// Panics if the operands differ in width or are empty.
pub(crate) fn emit_ripple_adder(
    b: &mut NetlistBuilder,
    prefix: &str,
    a: &[GateId],
    x: &[GateId],
    cin: GateId,
    expanded: bool,
) -> (Vec<GateId>, GateId) {
    assert_eq!(a.len(), x.len(), "operand widths differ");
    assert!(!a.is_empty(), "adder width must be positive");
    let mut sums = Vec::with_capacity(a.len());
    let mut carry = cin;
    for (i, (&ai, &xi)) in a.iter().zip(x).enumerate() {
        let (s, c) = emit_full_adder(b, &format!("{prefix}_fa{i}"), ai, xi, carry, expanded);
        sums.push(s);
        carry = c;
    }
    (sums, carry)
}
