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
//! The parser keeps every name and reference as a span of the text and
//! hashes each name once, into one keyed name table that becomes the
//! netlist's own index; everything after that is index arithmetic over
//! statement numbers. Its passes, each linear:
//!
//! 1. tokenize: one forward walk over the text's bytes, each scan
//!    reading eight bytes at a time up to the next byte that matters
//!    (`\n`, `#`, `=`, `(` or `,`). It keeps one record per statement
//!    and every fanin (or D) reference in one flat list, as `u32` spans
//!    trimmed as `str::trim` trims them (the `str` methods run only where
//!    an end is non-ASCII). The lists are reserved from the text's
//!    length, with no counting pre-pass;
//! 2. the name table: a `NameIndex` over the statements (std's keyed
//!    `RandomState`, since served `Register` requests parse untrusted
//!    text), mapping each name's hash to its statement;
//! 3. resolve: every reference becomes a statement index, and each
//!    statement's dependents go into one flat CSR array (offsets plus
//!    targets, in statement order, one entry per pin);
//! 4. Kahn's worklist (indegree counters + a FIFO over indices — linear
//!    even on fully reverse-ordered files) fixes the emission order;
//! 5. emission straight into the [`Netlist`]'s flat arrays, each sized
//!    exactly: the name arena, the kinds and the fanin CSR, with the
//!    fanout CSR derived from the fanins in one counting pass; the name
//!    table is renumbered from statements to nodes, not rebuilt.
//!
//! A `k`-input gate thus costs one walk over its line's bytes, `k + 1`
//! hashes (its definition and its `k` references) and no allocation of
//! its own (a register keeps its name as a `String`): a combinational
//! file at a written netlist's density parses in the same few dozen
//! allocations whatever its size. Cycles and undefined signals are
//! reported with the offending name, malformed lines (an empty `INPUT()`
//! or `OUTPUT()` name among them) with their line number. The writer
//! emits gates in topological order so round-trips are stable.
//!
//! `DFF` statements follow the ISCAS-89 dialect: the implicit clock is
//! synthesized as a shared primary input (named `clk` unless that name is
//! taken), each `Q = DFF(D)` becomes a [`LogicFunction::Dff`] Q gate fed
//! by the clock, and the D reference is recorded as a
//! [`Register`] cut — never a graph edge, so feedback
//! through registers parses while register-free combinational loops are
//! still rejected as cycles. [`write_bench`] inverts all of this exactly
//! (the synthetic clock is omitted, registers print as `Q = DFF(D)`).

use crate::error::NetlistError;
use crate::graph::{
    offset, to_u32, Csr, GateId, GateKind, NameIndex, Names, Netlist, Parts, Register,
};
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

/// A name or reference, trimmed: bytes `start..end` of the text.
#[derive(Debug, Clone, Copy)]
struct Span {
    start: u32,
    end: u32,
}

impl Span {
    fn new(start: usize, end: usize) -> Self {
        // `tokenize` checks that the whole text has `u32` offsets.
        Self {
            start: to_u32(start),
            end: to_u32(end),
        }
    }

    fn of(self, text: &str) -> &str {
        &text[self.start as usize..self.end as usize]
    }
}

/// One defining `.bench` statement (`INPUT`, gate or `DFF`).
#[derive(Debug)]
struct Def {
    name: Span,
    kind: Kind,
    /// Its fanin references (a `DFF`'s one D reference) in
    /// [`Tokens::refs`].
    refs: Range<u32>,
}

impl Def {
    fn refs(&self) -> Range<usize> {
        self.refs.start as usize..self.refs.end as usize
    }
}

/// A tokenized `.bench` text: spans of it.
#[derive(Debug)]
struct Tokens {
    /// The defining statements, in text order.
    defs: Vec<Def>,
    /// The `OUTPUT` names, in text order.
    outputs: Vec<Span>,
    /// Every statement's references, one flat list in text order.
    refs: Vec<Span>,
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
/// then the checks a [`NetlistBuilder`](crate::NetlistBuilder) makes
/// (arity in emission order, no inputs, no outputs). A text whose bytes,
/// name bytes or pins outgrow `u32` offsets gives
/// [`NetlistError::TooLarge`] where it overflows.
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
    let name_of = |j: usize| defs[j].name.of(text);

    let mut index = NameIndex::with_capacity(n);
    for def in &defs {
        let name = def.name.of(text);
        if !index.insert(name, name_of) {
            return Err(NetlistError::DuplicateName(name.to_owned()));
        }
    }
    let resolve = |r: &str| {
        index
            .get(r, name_of)
            .ok_or_else(|| NetlistError::UnknownSignal(r.to_owned()))
    };

    // Every reference resolves to its statement, in text order. A D
    // reference must resolve too, but it is a register cut, not a graph
    // edge: it never gates the Q emission — which is what lets feedback
    // through a register parse while register-free loops still stall as
    // cycles.
    let mut fanins = Vec::with_capacity(refs.len());
    for r in &refs {
        fanins.push(to_u32(resolve(r.of(text))?));
    }
    let gate_fanins = |def: &Def| match def.kind {
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
            .map_or("", |(def, _)| def.name.of(text));
        return Err(NetlistError::Cycle(stuck.to_owned()));
    }
    let mut output_defs = Vec::with_capacity(outputs.len());
    for o in &outputs {
        output_defs.push(resolve(o.of(text))?);
    }

    emit(name, text, &defs, &fanins, &order, &output_defs, index)
}

/// Emits the statements in Kahn's `order` straight into a netlist's
/// flat arrays, each sized exactly, after the synthesized clock input
/// (if any); `defs` are spans of `text`, `fanins` holds every
/// statement's references resolved, and `outputs` the `OUTPUT`
/// statements. The statement-keyed `index` becomes the netlist's,
/// renumbered to node ids.
fn emit(
    name: &str,
    text: &str,
    defs: &[Def],
    fanins: &[u32],
    order: &[u32],
    outputs: &[usize],
    mut index: NameIndex,
) -> Result<Netlist, NetlistError> {
    // ISCAS-89 registers share one implicit clock; synthesize it as the
    // first primary input (dodging any colliding signal name).
    let clock = defs.iter().any(|d| d.kind == Kind::Dff).then(|| {
        let mut clk_name = "clk".to_owned();
        while index.get(&clk_name, |j| defs[j].name.of(text)).is_some() {
            clk_name.push('_');
        }
        clk_name
    });
    let clock = clock.as_deref();
    let nodes = defs.len() + usize::from(clock.is_some());
    let mut name_bytes = clock.map_or(0, str::len);
    let mut pins = 0;
    let mut input_count = usize::from(clock.is_some());
    let mut registers = 0;
    for def in defs {
        name_bytes += def.name.of(text).len();
        match def.kind {
            Kind::Input => input_count += 1,
            Kind::Gate(_) => pins += def.refs().len(),
            Kind::Dff => {
                pins += 1;
                registers += 1;
            }
        }
    }

    // `ids[i]` is statement `i`'s node; the order writes every entry
    // before any later statement reads it.
    let mut names = Names::with_capacity(nodes, name_bytes);
    let mut kinds = Vec::with_capacity(nodes);
    let mut node_fanins = Csr::with_capacity(nodes, pins);
    let mut inputs = Vec::with_capacity(input_count);
    let mut q_gates = Vec::with_capacity(registers);
    let mut bad_arity = None;
    let clk = GateId::new(0);
    if let Some(clk_name) = clock {
        names.push(clk_name)?;
        kinds.push(GateKind::Input);
        node_fanins.push(std::iter::empty())?;
        inputs.push(clk);
    }
    let mut ids = vec![clk; defs.len()];
    for &i in order {
        let i = i as usize;
        let def = &defs[i];
        let id = GateId::new(kinds.len());
        let def_name = def.name.of(text);
        names.push(def_name)?;
        match def.kind {
            Kind::Input => {
                kinds.push(GateKind::Input);
                node_fanins.push(std::iter::empty())?;
                inputs.push(id);
            }
            Kind::Gate(function) => {
                let pins = &fanins[def.refs()];
                if bad_arity.is_none() && !function.supports_arity(pins.len()) {
                    bad_arity = Some(NetlistError::BadArity {
                        gate: def_name.to_owned(),
                        function,
                        arity: pins.len(),
                    });
                }
                kinds.push(GateKind::Cell { function, size: 0 });
                node_fanins.push(pins.iter().map(|&j| ids[j as usize]))?;
            }
            Kind::Dff => {
                kinds.push(GateKind::Cell {
                    function: LogicFunction::Dff,
                    size: 0,
                });
                node_fanins.push(std::iter::once(clk))?;
                q_gates.push((id, i));
            }
        }
        ids[i] = id;
    }
    if let Some(e) = bad_arity {
        return Err(e);
    }
    if inputs.is_empty() {
        return Err(NetlistError::NoInputs);
    }
    let mut output_flags = vec![false; nodes];
    let mut output_ids = Vec::with_capacity(outputs.len());
    for &j in outputs {
        let id = ids[j];
        if !std::mem::replace(&mut output_flags[id.index()], true) {
            output_ids.push(id);
        }
    }
    if output_ids.is_empty() {
        return Err(NetlistError::NoOutputs);
    }
    // D pins bind only now that every driver has a node — D may
    // reference a gate downstream of its own Q (feedback).
    let registers = q_gates
        .into_iter()
        .map(|(q, i)| {
            let d = ids[fanins[defs[i].refs.start as usize] as usize];
            Register::new(defs[i].name.of(text).to_owned(), q, d)
        })
        .collect();
    index.renumber(&ids, nodes, clock.map(|c| (clk, c)));
    Ok(Netlist::from_parts(Parts {
        name: name.to_owned(),
        names,
        kinds,
        fanins: node_fanins,
        inputs,
        outputs: output_ids,
        output_flags,
        index,
        registers,
    }))
}

/// The first position at or after `i` whose byte is one of `stops`, or
/// the text's end, found eight bytes at a time.
fn scan(bytes: &[u8], mut i: usize, stops: &[u8]) -> usize {
    const ONES: u64 = u64::from_le_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_le_bytes([0x80; 8]);
    while let Some(chunk) = bytes.get(i..i + 8) {
        let word = u64::from_le_bytes(chunk.try_into().expect("eight bytes"));
        // Per stop byte, the lowest byte flagged is the first one equal
        // to it (a borrow only flags bytes above an equal one).
        let hits = stops.iter().fold(0, |hits, &stop| {
            let diff = word ^ (ONES * u64::from(stop));
            hits | (diff.wrapping_sub(ONES) & !diff & HIGHS)
        });
        if hits != 0 {
            return i + hits.trailing_zeros() as usize / 8;
        }
        i += 8;
    }
    bytes[i..]
        .iter()
        .position(|b| stops.contains(b))
        .map_or(bytes.len(), |k| i + k)
}

/// Whether ASCII byte `b` is whitespace to [`char::is_whitespace`]
/// (which, unlike [`u8::is_ascii_whitespace`], takes in `\x0b`).
fn is_ascii_space(b: u8) -> bool {
    b == b' ' || (b'\t'..=b'\r').contains(&b)
}

/// The first position at or after `i` past whitespace (as `str::trim`
/// sees it) on the same line: it stops at a `\n`.
fn skip_space(text: &str, mut i: usize) -> usize {
    let bytes = text.as_bytes();
    while let Some(&b) = bytes.get(i) {
        if b.is_ascii() {
            if b == b'\n' || !is_ascii_space(b) {
                break;
            }
            i += 1;
        } else {
            let c = text[i..].chars().next().expect("a character starts here");
            if !c.is_whitespace() {
                break;
            }
            i += c.len_utf8();
        }
    }
    i
}

/// The end of `text[start..end]` with trailing whitespace trimmed as
/// `str::trim_end` trims it; `str` is called only at a non-ASCII end.
fn trim_end(text: &str, start: usize, mut end: usize) -> usize {
    let bytes = text.as_bytes();
    while end > start {
        let b = bytes[end - 1];
        if !b.is_ascii() {
            return start + text[start..end].trim_end().len();
        }
        if !is_ascii_space(b) {
            break;
        }
        end -= 1;
    }
    end
}

/// `text[start..end]` trimmed as `str::trim` trims it, where the byte at
/// `end` (a `,` or `)` on `start`'s line) is no whitespace.
fn trimmed(text: &str, start: usize, end: usize) -> Span {
    let start = skip_space(text, start);
    Span::new(start, trim_end(text, start, end))
}

/// Tokenizes `text` in one forward walk over its bytes, line by line:
/// each scan stops at the next byte that matters (`\n`, `#`, `=`, `(`
/// or `,`), and names and references are trimmed at their ends only.
fn tokenize(text: &str) -> Result<Tokens, NetlistError> {
    offset(text.len(), "text bytes")?;
    // Reserved for a written netlist's density (one definition per 16
    // bytes or more, one reference per 8, one `OUTPUT` per 64); a denser
    // text grows them.
    let mut out = Tokens {
        defs: Vec::with_capacity(text.len() / 16 + 1),
        outputs: Vec::with_capacity(text.len() / 64 + 1),
        refs: Vec::with_capacity(text.len() / 8 + 1),
    };
    let mut at = 0;
    let mut line = 0;
    while at < text.len() {
        line += 1;
        at = statement(text, at, &mut out)
            .map_err(|message| NetlistError::Parse { line, message })?;
    }
    Ok(out)
}

/// Tokenizes the line starting at byte `start` into `out`, and returns
/// where the next line starts (past the text's end after the last), or
/// the message of a malformed line.
fn statement(text: &str, start: usize, out: &mut Tokens) -> Result<usize, String> {
    let bytes = text.as_bytes();
    let next_line = |i: usize| scan(bytes, i, b"\n") + 1;
    let s = skip_space(text, start);
    match bytes.get(s) {
        None | Some(b'\n' | b'#') => return Ok(next_line(s)),
        _ => {}
    }

    // `INPUT(name)` or `OUTPUT(name)`, spaces allowed before the `(`.
    let keyword = match bytes[s] {
        b'I' if bytes[s..].starts_with(b"INPUT") => Some(("INPUT", false)),
        b'O' if bytes[s..].starts_with(b"OUTPUT") => Some(("OUTPUT", true)),
        _ => None,
    };
    if let Some((keyword, is_output)) = keyword {
        let open = skip_space(text, s + keyword.len());
        if bytes.get(open) == Some(&b'(') {
            let stop = scan(bytes, open + 1, b"\n#");
            let end = trim_end(text, open + 1, stop);
            if end > open + 1 && bytes[end - 1] == b')' {
                let name = trimmed(text, open + 1, end - 1);
                if name.start == name.end {
                    return Err(format!("missing signal name in `{keyword}()`"));
                }
                if is_output {
                    out.outputs.push(name);
                } else {
                    let refs = to_u32(out.refs.len());
                    out.defs.push(Def {
                        name,
                        kind: Kind::Input,
                        refs: refs..refs,
                    });
                }
                return Ok(next_line(stop));
            }
        }
    }

    // `name = FUNC(ref, ...)`.
    let eq = scan(bytes, s, b"\n#=");
    if bytes.get(eq) != Some(&b'=') {
        return Err(format!(
            "unrecognized statement `{}`",
            &text[s..trim_end(text, s, eq)]
        ));
    }
    if eq == s {
        return Err("missing signal name before `=`".into());
    }
    let name = Span::new(s, trim_end(text, s, eq));
    let rhs = skip_space(text, eq + 1);
    let open = scan(bytes, rhs, b"\n#(");
    if bytes.get(open) != Some(&b'(') {
        let got = &text[rhs..trim_end(text, rhs, open)];
        return Err(format!("expected `FUNC(...)` after `=`, got `{got}`"));
    }
    let first = out.refs.len();
    let push_ref = |refs: &mut Vec<Span>, start: usize, end: usize| {
        let r = trimmed(text, start, end);
        if r.start < r.end {
            refs.push(r);
        }
    };
    // Every reference but the last ends at a comma; the last ends at
    // the line's closing `)`, which is known only once the walk is past
    // the line's last comma.
    let mut arg = open + 1;
    let stop = loop {
        let at = scan(bytes, arg, b"\n#,");
        if bytes.get(at) != Some(&b',') {
            break at;
        }
        push_ref(&mut out.refs, arg, at);
        arg = at + 1;
    };
    let end = trim_end(text, open + 1, stop);
    if end == open + 1 || bytes[end - 1] != b')' {
        return Err("missing closing parenthesis".into());
    }
    push_ref(&mut out.refs, arg, end - 1);
    let func = &text[rhs..trim_end(text, rhs, open)];
    let function = LogicFunction::parse_short_name(func)
        .ok_or_else(|| format!("unknown gate type `{func}`"))?;
    let count = out.refs.len() - first;
    if count == 0 {
        return Err("gate with no inputs".into());
    }
    let kind = if function == LogicFunction::Dff {
        if count != 1 {
            return Err(format!("DFF takes exactly one D input, got {count}"));
        }
        Kind::Dff
    } else {
        Kind::Gate(function)
    };
    out.defs.push(Def {
        name,
        kind,
        refs: to_u32(first)..to_u32(out.refs.len()),
    });
    Ok(next_line(stop))
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
    fn empty_directive_names_are_parse_errors() {
        for (text, line, keyword) in [
            ("INPUT()\nOUTPUT(y)\ny = NOT(a)\n", 1, "INPUT"),
            (
                "INPUT(a)\n# c\nOUTPUT( \u{3000} )\ny = NOT(a)\n",
                3,
                "OUTPUT",
            ),
        ] {
            assert_eq!(
                parse_bench(text, "c").unwrap_err(),
                NetlistError::Parse {
                    line,
                    message: format!("missing signal name in `{keyword}()`"),
                },
                "{text:?}"
            );
        }
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
