//! Reader and writer for the ISCAS-85/89 `.bench` netlist format.
//!
//! The format the original benchmark suites (combinational c432 … c7552,
//! sequential s27 … s38584) ship in:
//!
//! ```text
//! # comment
//! INPUT(G1)
//! OUTPUT(G17)
//! G5 = DFF(G10)
//! G10 = NAND(G1, G3)
//! G17 = NOT(G10)
//! ```
//!
//! The parser borrows every name and reference from the text and resolves
//! each name once, through one keyed name table; everything after that
//! is index arithmetic over statement numbers. Its passes, each linear:
//!
//! 1. tokenize: one record per statement, its name a `&str` into the
//!    text, and every fanin (or D) reference in one flat list;
//! 2. the name table: one `HashMap<&str, u32>` (std's keyed
//!    `RandomState`, since served `Register` requests parse untrusted
//!    text), sized to the definitions, maps each name to its statement;
//! 3. resolve: every reference becomes a statement index, and each
//!    statement's dependents go into one flat CSR array (offsets plus
//!    targets, in statement order, one entry per pin);
//! 4. Kahn's worklist (indegree counters + a FIFO over indices — linear
//!    even on fully reverse-ordered files) fixes the emission order;
//! 5. emission into a [`NetlistBuilder`] sized to the node count, each
//!    node's fanout list reserved at its exact length.
//!
//! A `k`-input gate thus costs `k + 2` hashes (its definition, its `k`
//! references, and the builder's name index) and four allocations (its
//! name, the index's key, its fanin list, and its fanout list when it has
//! fanouts); the flat lists add a constant number of allocations per
//! file. Cycles and undefined signals are reported with the offending
//! name, malformed lines with their line number. The writer emits gates
//! in topological order so round-trips are stable.
//!
//! `DFF` statements follow the ISCAS-89 dialect: the implicit clock is
//! synthesized as a shared primary input (named `clk` unless that name is
//! taken), each `Q = DFF(D)` becomes a [`LogicFunction::Dff`] Q gate fed
//! by the clock, and the D reference is recorded as a
//! [`Register`](crate::Register) cut — never a graph edge, so feedback
//! through registers parses while register-free combinational loops are
//! still rejected as cycles. [`write_bench`] inverts all of this exactly
//! (the synthetic clock is omitted, registers print as `Q = DFF(D)`).

use crate::builder::NetlistBuilder;
use crate::error::NetlistError;
use crate::graph::{GateId, GateKind, Netlist};
use std::collections::HashMap;
use std::ops::Range;
use vartol_liberty::LogicFunction;

/// What a defining statement declares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Input,
    Gate(LogicFunction),
    Dff,
}

/// One defining `.bench` statement (`INPUT`, gate or `DFF`).
#[derive(Debug)]
struct Def<'a> {
    name: &'a str,
    kind: Kind,
    /// Its fanin references (a `DFF`'s one D reference) in
    /// [`Tokens::refs`].
    refs: Range<u32>,
}

impl Def<'_> {
    fn refs(&self) -> Range<usize> {
        self.refs.start as usize..self.refs.end as usize
    }
}

/// A tokenized `.bench` text, borrowing every name from it.
#[derive(Debug, Default)]
struct Tokens<'a> {
    /// The defining statements, in text order.
    defs: Vec<Def<'a>>,
    /// The `OUTPUT` names, in text order.
    outputs: Vec<&'a str>,
    /// Every statement's references, one flat list in text order.
    refs: Vec<&'a str>,
}

/// Parses `.bench` text into a [`Netlist`].
///
/// # Errors
///
/// Returns, in this precedence: [`NetlistError::Parse`] for the first
/// malformed line, [`NetlistError::DuplicateName`] for the first
/// redefined signal, [`NetlistError::UnknownSignal`] for the first
/// reference to an undefined signal in text order,
/// [`NetlistError::Cycle`] for a combinational loop,
/// [`NetlistError::UnknownSignal`] for the first undefined `OUTPUT`, and
/// then the builder's checks (arity in emission order, no inputs, no
/// outputs).
///
/// # Example
///
/// ```
/// use vartol_netlist::iscas::{parse_bench, write_bench};
///
/// # fn main() -> Result<(), vartol_netlist::NetlistError> {
/// let text = "\
/// INPUT(a)
/// INPUT(b)
/// OUTPUT(y)
/// t = NAND(a, b)
/// y = NOT(t)
/// ";
/// let n = parse_bench(text, "tiny")?;
/// assert_eq!(n.gate_count(), 2);
/// let round_trip = parse_bench(&write_bench(&n), "tiny2")?;
/// assert_eq!(round_trip.gate_count(), 2);
/// # Ok(())
/// # }
/// ```
pub fn parse_bench(text: &str, name: &str) -> Result<Netlist, NetlistError> {
    let Tokens {
        defs,
        outputs,
        refs,
    } = tokenize(text)?;
    let n = defs.len();

    let mut index: HashMap<&str, u32> = HashMap::with_capacity(n);
    for (i, def) in defs.iter().enumerate() {
        if index.insert(def.name, to_u32(i)).is_some() {
            return Err(NetlistError::DuplicateName(def.name.to_owned()));
        }
    }

    // Every reference resolves to its statement, in text order. A D
    // reference must resolve too, but it is a register cut, not a graph
    // edge: it never gates the Q emission — which is what lets feedback
    // through a register parse while register-free loops still stall as
    // cycles.
    let fanins = refs
        .iter()
        .map(|r| {
            index
                .get(r)
                .copied()
                .ok_or_else(|| NetlistError::UnknownSignal((*r).to_owned()))
        })
        .collect::<Result<Vec<u32>, _>>()?;
    let gate_fanins = |def: &Def<'_>| match def.kind {
        Kind::Gate(_) => &fanins[def.refs()],
        Kind::Input | Kind::Dff => &[],
    };

    // Dependents in CSR form: statement `j`'s are
    // `dependents[offsets[j]..offsets[j + 1]]`, gate statements in text
    // order, once per pin.
    let mut offsets = vec![0u32; n + 1];
    for def in &defs {
        for &j in gate_fanins(def) {
            offsets[j as usize + 1] += 1;
        }
    }
    for j in 0..n {
        offsets[j + 1] += offsets[j];
    }
    let mut dependents = vec![0u32; offsets[n] as usize];
    let mut fill = offsets.clone();
    let mut indegree = vec![0u32; n];
    for (i, def) in defs.iter().enumerate() {
        let pins = gate_fanins(def);
        indegree[i] = to_u32(pins.len());
        for &j in pins {
            dependents[fill[j as usize] as usize] = to_u32(i);
            fill[j as usize] += 1;
        }
    }
    let fanout = |j: usize| offsets[j] as usize..offsets[j + 1] as usize;

    // Kahn's FIFO over statement indices: `order` is the queue, and
    // everything it has ever held is the emission order.
    let mut order: Vec<u32> = Vec::with_capacity(n);
    order.extend((0..n).filter(|&i| indegree[i] == 0).map(to_u32));
    let mut head = 0;
    while let Some(&i) = order.get(head) {
        head += 1;
        for &d in &dependents[fanout(i as usize)] {
            indegree[d as usize] -= 1;
            if indegree[d as usize] == 0 {
                order.push(d);
            }
        }
    }
    if order.len() < n {
        // Some gate never became ready: combinational cycle. Gates have
        // at least one fanin, so exactly the unemitted ones keep a
        // positive indegree.
        let stuck = defs
            .iter()
            .zip(&indegree)
            .find(|&(_, &k)| k > 0)
            .map_or("", |(def, _)| def.name);
        return Err(NetlistError::Cycle(stuck.to_owned()));
    }

    // ISCAS-89 registers share one implicit clock; synthesize it as the
    // first primary input (dodging any colliding signal name).
    let registers = defs.iter().filter(|d| d.kind == Kind::Dff).count();
    let mut b = NetlistBuilder::with_capacity(name, n + usize::from(registers > 0));
    let clock = (registers > 0).then(|| {
        let mut clk_name = "clk".to_owned();
        while index.contains_key(clk_name.as_str()) {
            clk_name.push('_');
        }
        let clk = b.input(clk_name);
        b.reserve_fanouts(clk, registers);
        clk
    });
    // `ids[i]` is statement `i`'s node; Kahn's order writes every entry
    // before any later statement reads it.
    let mut ids = vec![GateId::new(0); n];
    let mut pins: Vec<GateId> = Vec::new();
    for &i in &order {
        let i = i as usize;
        let def = &defs[i];
        let id = match def.kind {
            Kind::Input => b.input(def.name),
            Kind::Gate(function) => {
                pins.clear();
                pins.extend(fanins[def.refs()].iter().map(|&j| ids[j as usize]));
                b.gate(def.name, function, &pins)
            }
            Kind::Dff => b.dff(
                def.name,
                clock.expect("clock synthesized whenever DFFs exist"),
            ),
        };
        b.reserve_fanouts(id, fanout(i).len());
        ids[i] = id;
    }

    // Bind D pins only now that every driver has been emitted — D may
    // reference a gate downstream of its own Q (feedback).
    for (i, def) in defs.iter().enumerate() {
        if def.kind == Kind::Dff {
            b.bind_d(ids[i], ids[fanins[def.refs.start as usize] as usize]);
        }
    }

    for o in outputs {
        match index.get(o) {
            Some(&j) => b.mark_output(ids[j as usize]),
            None => return Err(NetlistError::UnknownSignal(o.to_owned())),
        }
    }
    b.build()
}

/// A statement or reference index as `u32`, the width of a [`GateId`].
fn to_u32(i: usize) -> u32 {
    u32::try_from(i).expect("netlists are limited to u32 nodes")
}

fn tokenize(text: &str) -> Result<Tokens<'_>, NetlistError> {
    let mut out = Tokens::default();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let err = |message: String| NetlistError::Parse {
            line: lineno + 1,
            message,
        };

        let start = to_u32(out.refs.len());
        if let Some(rest) = strip_directive(line, "INPUT") {
            out.defs.push(Def {
                name: rest,
                kind: Kind::Input,
                refs: start..start,
            });
        } else if let Some(rest) = strip_directive(line, "OUTPUT") {
            out.outputs.push(rest);
        } else if let Some(eq) = line.find('=') {
            let name = line[..eq].trim();
            if name.is_empty() {
                return Err(err("missing signal name before `=`".into()));
            }
            let rhs = line[eq + 1..].trim();
            let open = rhs
                .find('(')
                .ok_or_else(|| err(format!("expected `FUNC(...)` after `=`, got `{rhs}`")))?;
            if !rhs.ends_with(')') {
                return Err(err("missing closing parenthesis".into()));
            }
            let func_name = rhs[..open].trim();
            let function = LogicFunction::parse_short_name(func_name)
                .ok_or_else(|| err(format!("unknown gate type `{func_name}`")))?;
            let args = &rhs[open + 1..rhs.len() - 1];
            out.refs
                .extend(args.split(',').map(str::trim).filter(|a| !a.is_empty()));
            let end = to_u32(out.refs.len());
            let count = end - start;
            if count == 0 {
                return Err(err("gate with no inputs".into()));
            }
            let kind = if function == LogicFunction::Dff {
                if count != 1 {
                    return Err(err(format!("DFF takes exactly one D input, got {count}")));
                }
                Kind::Dff
            } else {
                Kind::Gate(function)
            };
            out.defs.push(Def {
                name,
                kind,
                refs: start..end,
            });
        } else {
            return Err(err(format!("unrecognized statement `{line}`")));
        }
    }
    Ok(out)
}

fn strip_directive<'a>(line: &'a str, keyword: &str) -> Option<&'a str> {
    let rest = line.strip_prefix(keyword)?.trim();
    let rest = rest.strip_prefix('(')?;
    let rest = rest.strip_suffix(')')?;
    Some(rest.trim())
}

/// Serializes a netlist to `.bench` text (topological gate order).
///
/// Sizes are not representable in `.bench`; the written file describes
/// topology and functions only. Registers print in the ISCAS-89 dialect
/// (`Q = DFF(D)`), and the implicit clock input is omitted — so a parse →
/// write → parse round-trip reconstructs the same register cut.
#[must_use]
pub fn write_bench(netlist: &Netlist) -> String {
    let clock = netlist.clock();
    let d_of_q: HashMap<GateId, GateId> =
        netlist.registers().iter().map(|r| (r.q(), r.d())).collect();
    let mut s = String::new();
    s.push_str(&format!("# {}\n", netlist.name()));
    for &i in netlist.inputs() {
        if Some(i) == clock {
            continue;
        }
        s.push_str(&format!("INPUT({})\n", netlist.gate(i).name()));
    }
    for &o in netlist.outputs() {
        s.push_str(&format!("OUTPUT({})\n", netlist.gate(o).name()));
    }
    for id in netlist.gate_ids() {
        let g = netlist.gate(id);
        let GateKind::Cell { function, .. } = g.kind() else {
            continue;
        };
        if let Some(&d) = d_of_q.get(&id) {
            s.push_str(&format!("{} = DFF({})\n", g.name(), netlist.gate(d).name()));
            continue;
        }
        let fanins: Vec<&str> = g.fanins().iter().map(|&f| netlist.gate(f).name()).collect();
        s.push_str(&format!(
            "{} = {}({})\n",
            g.name(),
            function.short_name(),
            fanins.join(", ")
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# c17-style sample
INPUT(G1)
INPUT(G2)
INPUT(G3)
INPUT(G6)
INPUT(G7)
OUTPUT(G22)
OUTPUT(G23)
G10 = NAND(G1, G3)
G11 = NAND(G3, G6)
G16 = NAND(G2, G11)
G19 = NAND(G11, G7)
G22 = NAND(G10, G16)
G23 = NAND(G16, G19)
";

    #[test]
    fn parses_c17_shape() {
        let n = parse_bench(SAMPLE, "c17").expect("valid");
        assert_eq!(n.input_count(), 5);
        assert_eq!(n.output_count(), 2);
        assert_eq!(n.gate_count(), 6);
        assert_eq!(n.depth(), 3);
        assert!(n.check_invariants().is_ok());
    }

    #[test]
    fn out_of_order_definitions_accepted() {
        let text = "\
OUTPUT(y)
y = NOT(t)
t = NAND(a, b)
INPUT(a)
INPUT(b)
";
        let n = parse_bench(text, "ooo").expect("valid");
        assert_eq!(n.gate_count(), 2);
        assert!(n.check_invariants().is_ok());
    }

    #[test]
    fn round_trip_preserves_structure() {
        let n1 = parse_bench(SAMPLE, "c17").expect("valid");
        let text = write_bench(&n1);
        let n2 = parse_bench(&text, "c17rt").expect("valid");
        assert_eq!(n1.gate_count(), n2.gate_count());
        assert_eq!(n1.input_count(), n2.input_count());
        assert_eq!(n1.output_count(), n2.output_count());
        assert_eq!(n1.depth(), n2.depth());
        // Same gate names with same fanin names.
        for id in n1.gate_ids() {
            let g1 = n1.gate(id);
            let id2 = n2.gate_by_name(g1.name()).expect("same names");
            let g2 = n2.gate(id2);
            let f1: Vec<&str> = g1.fanins().iter().map(|&f| n1.gate(f).name()).collect();
            let f2: Vec<&str> = g2.fanins().iter().map(|&f| n2.gate(f).name()).collect();
            assert_eq!(f1, f2, "fanins of {}", g1.name());
        }
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "\n# hello\n\nINPUT(a)  # trailing\nOUTPUT(y)\ny = NOT(a)\n";
        assert!(parse_bench(text, "c").is_ok());
    }

    #[test]
    fn unknown_gate_type_rejected() {
        let text = "INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n";
        let e = parse_bench(text, "c").unwrap_err();
        assert!(matches!(e, NetlistError::Parse { line: 3, .. }), "{e}");
    }

    #[test]
    fn undefined_signal_rejected() {
        let text = "INPUT(a)\nOUTPUT(y)\ny = NAND(a, ghost)\n";
        assert_eq!(
            parse_bench(text, "c").unwrap_err(),
            NetlistError::UnknownSignal("ghost".into())
        );
    }

    #[test]
    fn undefined_output_rejected() {
        let text = "INPUT(a)\nOUTPUT(ghost)\ny = NOT(a)\n";
        assert_eq!(
            parse_bench(text, "c").unwrap_err(),
            NetlistError::UnknownSignal("ghost".into())
        );
    }

    #[test]
    fn cycle_rejected() {
        let text = "\
INPUT(a)
OUTPUT(y)
p = NAND(a, q)
q = NAND(a, p)
y = NOT(p)
";
        assert!(matches!(
            parse_bench(text, "c").unwrap_err(),
            NetlistError::Cycle(_)
        ));
    }

    #[test]
    fn duplicate_definition_rejected() {
        let text = "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ny = BUF(a)\n";
        assert_eq!(
            parse_bench(text, "c").unwrap_err(),
            NetlistError::DuplicateName("y".into())
        );
    }

    #[test]
    fn malformed_lines_rejected_with_line_numbers() {
        for (text, line) in [
            ("INPUT(a)\nwat\n", 2),
            ("INPUT(a)\ny = NOT(a\n", 2),
            ("INPUT(a)\n= NOT(a)\n", 2),
            ("INPUT(a)\ny = NOT()\n", 2),
        ] {
            match parse_bench(text, "c").unwrap_err() {
                NetlistError::Parse { line: l, .. } => assert_eq!(l, line, "for {text:?}"),
                other => panic!("expected parse error for {text:?}, got {other}"),
            }
        }
    }

    /// Regression for the old O(n²) emission: a ~3000-gate suite circuit
    /// serialized, statement order fully reversed (the worst case for the
    /// old repeated-scan loop), must still parse — and parse fast.
    #[test]
    fn reverse_ordered_large_bench_parses() {
        use crate::generators::benchmark;
        use vartol_liberty::Library;

        let lib = Library::synthetic_90nm();
        let original = benchmark("c6288", &lib).expect("known benchmark");
        assert!(original.gate_count() > 2500, "need a large circuit");
        let text = write_bench(&original);
        let reversed: String = text.lines().rev().flat_map(|l| [l, "\n"]).collect();
        let parsed = parse_bench(&reversed, "c6288rev").expect("reverse order is valid");
        assert_eq!(parsed.gate_count(), original.gate_count());
        assert_eq!(parsed.input_count(), original.input_count());
        assert_eq!(parsed.output_count(), original.output_count());
        assert_eq!(parsed.depth(), original.depth());
        assert!(parsed.check_invariants().is_ok());
    }

    #[test]
    fn inv_and_not_both_accepted() {
        let text = "INPUT(a)\nOUTPUT(y)\nt = INV(a)\ny = not(t)\n";
        let n = parse_bench(text, "c").expect("valid");
        assert_eq!(n.gate_count(), 2);
    }

    const S27: &str = "\
# s27 (ISCAS-89)
INPUT(G0)
INPUT(G1)
INPUT(G2)
INPUT(G3)
OUTPUT(G17)
G5 = DFF(G10)
G6 = DFF(G11)
G7 = DFF(G13)
G14 = NOT(G0)
G17 = NOT(G11)
G8 = AND(G14, G6)
G15 = OR(G12, G8)
G16 = OR(G3, G8)
G9 = NAND(G16, G15)
G10 = NOR(G14, G11)
G11 = NOR(G5, G9)
G12 = NOR(G1, G7)
G13 = NAND(G2, G12)
";

    #[test]
    fn parses_s27_with_registers() {
        let n = parse_bench(S27, "s27").expect("valid sequential bench");
        assert!(n.is_sequential());
        assert_eq!(n.register_count(), 3);
        // 4 declared inputs + synthesized clock.
        assert_eq!(n.input_count(), 5);
        assert_eq!(n.output_count(), 1);
        // 10 combinational gates + 3 DFF Q gates.
        assert_eq!(n.gate_count(), 13);
        let clk = n.clock().expect("sequential circuits carry a clock");
        assert_eq!(n.gate(clk).name(), "clk");
        assert!(n.check_invariants().is_ok());
        // Register cut: G5's D is G10, and the D pins are timing endpoints.
        let g5 = n.gate_by_name("G5").expect("G5 exists");
        let g10 = n.gate_by_name("G10").expect("G10 exists");
        let reg = n.registers().iter().find(|r| r.q() == g5).expect("G5 reg");
        assert_eq!(reg.d(), g10);
        let endpoints = n.timing_endpoints();
        assert_eq!(endpoints.len(), 4, "G17 plus three D pins");
        assert!(endpoints.contains(&g10));
    }

    #[test]
    fn dff_round_trip_preserves_register_cut() {
        let n1 = parse_bench(S27, "s27").expect("valid");
        let text = write_bench(&n1);
        // The synthetic clock must not leak into the written file.
        assert!(!text.contains("clk"), "clock leaked:\n{text}");
        assert!(text.contains("G5 = DFF(G10)"), "register lost:\n{text}");
        let n2 = parse_bench(&text, "s27rt").expect("round-trips");
        assert_eq!(n2.register_count(), n1.register_count());
        assert_eq!(n2.gate_count(), n1.gate_count());
        assert_eq!(n2.input_count(), n1.input_count());
        for r1 in n1.registers() {
            let q2 = n2.gate_by_name(n1.gate(r1.q()).name()).expect("same Qs");
            let r2 = n2
                .registers()
                .iter()
                .find(|r| r.q() == q2)
                .expect("register survives");
            assert_eq!(n2.gate(r2.d()).name(), n1.gate(r1.d()).name());
        }
    }

    #[test]
    fn clk_name_collision_gets_suffixed() {
        let text = "\
INPUT(clk)
OUTPUT(y)
q = DFF(y)
y = NOT(q)
";
        let n = parse_bench(text, "c").expect("valid");
        let clock = n.clock().expect("has clock");
        assert_eq!(n.gate(clock).name(), "clk_");
        assert!(n.check_invariants().is_ok());
    }

    #[test]
    fn dff_arity_enforced_at_parse_time() {
        let text = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nq = DFF(a, b)\ny = NOT(q)\n";
        match parse_bench(text, "c").unwrap_err() {
            NetlistError::Parse { line, message } => {
                assert_eq!(line, 4);
                assert!(message.contains("exactly one D input"), "{message}");
            }
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn dff_with_undefined_d_rejected() {
        let text = "INPUT(a)\nOUTPUT(y)\nq = DFF(ghost)\ny = NOT(q)\n";
        assert_eq!(
            parse_bench(text, "c").unwrap_err(),
            NetlistError::UnknownSignal("ghost".into())
        );
    }

    #[test]
    fn register_free_cycle_still_rejected_in_sequential_circuit() {
        // q breaks its own loop (legal), but p/r form a combinational
        // cycle no register cuts — that must still be a Cycle error.
        let text = "\
INPUT(a)
OUTPUT(y)
q = DFF(y)
p = NAND(q, r)
r = NAND(a, p)
y = NOT(p)
";
        assert!(matches!(
            parse_bench(text, "c").unwrap_err(),
            NetlistError::Cycle(_)
        ));
    }
}
