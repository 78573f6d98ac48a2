//! The `.bench` parser against a verbatim copy of the previous one.
//!
//! `oracle` holds the earlier parser (per-name `String`s, a `HashMap`
//! per resolution step, one dependents `Vec` per statement) unchanged
//! apart from its imports. Every input here is parsed by both, and the
//! results must be `==` — the same nodes in the same order, so the same
//! `GateId`s — or the same error with the same `Display` text.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vartol_liberty::Library;
use vartol_netlist::generators::{
    benchmark, benchmark_names, preset, preset_names, random_dag, RandomDagConfig,
};
use vartol_netlist::iscas::{parse_bench, write_bench};
use vartol_netlist::NetlistError;

mod oracle {
    use std::collections::{HashMap, VecDeque};
    use vartol_liberty::LogicFunction;
    use vartol_netlist::{GateId, Netlist, NetlistBuilder, NetlistError};

    /// One parsed `.bench` statement.
    #[derive(Debug, Clone, PartialEq, Eq)]
    enum Statement {
        Input(String),
        Output(String),
        Gate {
            name: String,
            function: LogicFunction,
            fanins: Vec<String>,
        },
        Dff {
            name: String,
            d: String,
        },
    }

    pub fn parse_bench(text: &str, name: &str) -> Result<Netlist, NetlistError> {
        let statements = tokenize(text)?;

        // Collect definitions.
        let mut defs: HashMap<&str, usize> = HashMap::new(); // signal -> statement idx
        let mut outputs: Vec<&str> = Vec::new();
        for (i, s) in statements.iter().enumerate() {
            match s {
                Statement::Input(n)
                | Statement::Gate { name: n, .. }
                | Statement::Dff { name: n, .. } => {
                    if defs.insert(n.as_str(), i).is_some() {
                        return Err(NetlistError::DuplicateName(n.clone()));
                    }
                }
                Statement::Output(n) => outputs.push(n.as_str()),
            }
        }

        // Kahn worklist: per-statement indegree counters plus a dependents
        // adjacency, so emission is O(statements + fanin references) instead
        // of the old repeated full scans (quadratic on reverse-ordered files).
        let mut indegree = vec![0usize; statements.len()];
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); statements.len()];
        let mut pending = 0usize; // non-output statements awaiting emission
        for (i, s) in statements.iter().enumerate() {
            match s {
                Statement::Output(_) => {}
                Statement::Input(_) => pending += 1,
                Statement::Gate { fanins, .. } => {
                    pending += 1;
                    for f in fanins {
                        let &def_idx = defs
                            .get(f.as_str())
                            .ok_or_else(|| NetlistError::UnknownSignal(f.clone()))?;
                        indegree[i] += 1;
                        dependents[def_idx].push(i);
                    }
                }
                Statement::Dff { d, .. } => {
                    // The D reference is a register cut, not a graph edge:
                    // it must resolve, but it never gates the Q emission —
                    // which is what lets feedback through a register parse
                    // while register-free loops still stall as cycles.
                    pending += 1;
                    if !defs.contains_key(d.as_str()) {
                        return Err(NetlistError::UnknownSignal(d.clone()));
                    }
                }
            }
        }

        let mut ready: VecDeque<usize> = statements
            .iter()
            .enumerate()
            .filter(|(i, s)| {
                matches!(s, Statement::Input(_) | Statement::Dff { .. }) && indegree[*i] == 0
            })
            .map(|(i, _)| i)
            .collect();

        let mut b = NetlistBuilder::new(name);
        // ISCAS-89 registers share one implicit clock; synthesize it as a
        // primary input (dodging any colliding signal name).
        let clock = if statements
            .iter()
            .any(|s| matches!(s, Statement::Dff { .. }))
        {
            let mut clk_name = "clk".to_owned();
            while defs.contains_key(clk_name.as_str()) {
                clk_name.push('_');
            }
            Some(b.input(clk_name))
        } else {
            None
        };
        let mut ids: HashMap<&str, GateId> = HashMap::new();
        let mut emitted = vec![false; statements.len()];
        while let Some(i) = ready.pop_front() {
            match &statements[i] {
                Statement::Input(n) => {
                    ids.insert(n.as_str(), b.input(n.clone()));
                }
                Statement::Gate {
                    name,
                    function,
                    fanins,
                } => {
                    let fanin_ids: Vec<GateId> = fanins.iter().map(|f| ids[f.as_str()]).collect();
                    ids.insert(name.as_str(), b.gate(name.clone(), *function, &fanin_ids));
                }
                Statement::Dff { name, .. } => {
                    let clk = clock.expect("clock synthesized whenever DFFs exist");
                    ids.insert(name.as_str(), b.dff(name.clone(), clk));
                }
                Statement::Output(_) => unreachable!("outputs never enter the worklist"),
            }
            emitted[i] = true;
            pending -= 1;
            for &d in &dependents[i] {
                indegree[d] -= 1;
                if indegree[d] == 0 {
                    ready.push_back(d);
                }
            }
        }

        if pending > 0 {
            // Some gate never became ready: combinational cycle.
            let stuck = statements
                .iter()
                .enumerate()
                .find(|&(i, s)| !emitted[i] && matches!(s, Statement::Gate { .. }))
                .map(|(_, s)| match s {
                    Statement::Gate { name, .. } => name.clone(),
                    _ => unreachable!("filtered to gates"),
                })
                .unwrap_or_default();
            return Err(NetlistError::Cycle(stuck));
        }

        // Bind D pins only now that every driver has been emitted — D may
        // reference a gate downstream of its own Q (feedback).
        for s in &statements {
            if let Statement::Dff { name, d } = s {
                b.bind_d(ids[name.as_str()], ids[d.as_str()]);
            }
        }

        for o in outputs {
            match ids.get(o) {
                Some(&id) => b.mark_output(id),
                None => return Err(NetlistError::UnknownSignal(o.to_owned())),
            }
        }
        b.build()
    }

    fn tokenize(text: &str) -> Result<Vec<Statement>, NetlistError> {
        let mut out = Vec::new();
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

            if let Some(rest) = strip_directive(line, "INPUT") {
                out.push(Statement::Input(rest.to_owned()));
            } else if let Some(rest) = strip_directive(line, "OUTPUT") {
                out.push(Statement::Output(rest.to_owned()));
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
                let fanins: Vec<String> = args
                    .split(',')
                    .map(|a| a.trim().to_owned())
                    .filter(|a| !a.is_empty())
                    .collect();
                if fanins.is_empty() {
                    return Err(err("gate with no inputs".into()));
                }
                if function == LogicFunction::Dff {
                    if fanins.len() != 1 {
                        return Err(err(format!(
                            "DFF takes exactly one D input, got {}",
                            fanins.len()
                        )));
                    }
                    out.push(Statement::Dff {
                        name: name.to_owned(),
                        d: fanins.into_iter().next().expect("checked len"),
                    });
                } else {
                    out.push(Statement::Gate {
                        name: name.to_owned(),
                        function,
                        fanins,
                    });
                }
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
}

/// Parses `text` with both parsers; they must agree exactly. Returns the
/// result for further checks.
fn assert_agree(text: &str, what: &str) -> Result<vartol_netlist::Netlist, NetlistError> {
    let got = parse_bench(text, what);
    let want = oracle::parse_bench(text, what);
    match (&got, &want) {
        (Ok(g), Ok(w)) => assert!(g == w, "{what}: netlists differ\n{text}"),
        (Err(g), Err(w)) => {
            assert_eq!(g, w, "{what}\n{text}");
            assert_eq!(g.to_string(), w.to_string(), "{what}");
        }
        _ => panic!(
            "{what}: got {:?}, want {:?}\n{text}",
            got.as_ref().map(|n| n.node_count()),
            want.as_ref().map(|n| n.node_count())
        ),
    }
    got
}

/// `text`'s lines in reverse order.
fn reversed(text: &str) -> String {
    text.lines().rev().flat_map(|l| [l, "\n"]).collect()
}

/// `text`'s lines in a seeded random order (Fisher–Yates).
fn shuffled(text: &str, seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut lines: Vec<&str> = text.lines().collect();
    for i in (1..lines.len()).rev() {
        lines.swap(i, rng.gen_range(0..=i));
    }
    lines.iter().flat_map(|l| [*l, "\n"]).collect()
}

/// Checks `text` and its reversed and shuffled forms.
fn assert_agree_in_any_order(text: &str, what: &str, seed: u64) {
    assert!(assert_agree(text, what).is_ok(), "{what} parses");
    assert!(
        assert_agree(&reversed(text), what).is_ok(),
        "{what} reversed"
    );
    assert!(
        assert_agree(&shuffled(text, seed), what).is_ok(),
        "{what} shuffled"
    );
}

#[test]
fn shipped_benches_parse_identically_in_any_order() {
    let data = concat!(env!("CARGO_MANIFEST_DIR"), "/../../data");
    let mut benches = 0;
    for entry in std::fs::read_dir(data).expect("data directory") {
        let path = entry.expect("entry").path();
        if path.extension().is_some_and(|e| e == "bench") {
            let text = std::fs::read_to_string(&path).expect("readable");
            let name = path.file_stem().expect("stem").to_string_lossy();
            assert_agree_in_any_order(&text, &name, benches);
            benches += 1;
        }
    }
    assert!(benches >= 5, "found {benches} .bench files");
}

#[test]
fn written_presets_and_benchmarks_parse_identically_in_any_order() {
    let lib = Library::synthetic_90nm();
    let circuits = preset_names()
        .iter()
        .map(|name| preset(name, &lib).expect("known preset"))
        .chain(
            benchmark_names()
                .iter()
                .map(|name| benchmark(name, &lib).expect("known benchmark")),
        );
    for (seed, n) in circuits.enumerate() {
        assert_agree_in_any_order(&write_bench(&n), n.name(), seed as u64);
    }
}

#[test]
fn a_large_random_dag_parses_identically() {
    let lib = Library::synthetic_90nm();
    let config = RandomDagConfig {
        inputs: 64,
        gates: 4_000,
        window: 256,
    };
    let text = write_bench(&random_dag(config, 7, &lib));
    assert_agree_in_any_order(&text, "dag_4k", 7);
}

#[test]
fn registers_clock_names_and_feedback_parse_identically() {
    let texts = [
        // Inputs already named `clk` and `clk_`: the clock becomes `clk__`.
        "INPUT(clk)\nINPUT(clk_)\nOUTPUT(y)\nq = DFF(y)\ny = NAND(q, clk_)\n",
        // A gate named `clk`, an input named `clk_`.
        "INPUT(clk_)\nOUTPUT(clk)\nq = DFF(clk)\nclk = NOT(q)\n",
        // `clk` taken, but no registers: no clock at all.
        "INPUT(clk)\nOUTPUT(y)\ny = NOT(clk)\n",
        // Feedback through registers, D before and after its driver.
        "INPUT(a)\nOUTPUT(y)\nq1 = DFF(g)\nq2 = DFF(q1)\ng = NAND(a, q2)\ny = NOT(g)\n",
        "y = NOT(g)\ng = NAND(a, q2)\nq2 = DFF(q1)\nq1 = DFF(g)\nOUTPUT(y)\nINPUT(a)\n",
        // A register fed by itself, and one fed by a primary input.
        "INPUT(a)\nOUTPUT(y)\nq = DFF(q)\nr = DFF(a)\ny = AND(q, r)\n",
        // A register as an output; an output listed twice.
        "INPUT(a)\nOUTPUT(q)\nOUTPUT(q)\nOUTPUT(y)\nq = DFF(y)\ny = XOR(a, q)\n",
    ];
    for (i, text) in texts.iter().enumerate() {
        let what = format!("case {i}");
        assert!(assert_agree(text, &what).is_ok(), "{what} parses");
        assert!(
            assert_agree(&reversed(text), &what).is_ok(),
            "{what} reversed"
        );
    }
}

#[test]
fn every_error_matches_the_oracle() {
    let cases: [(&str, &str); 15] = [
        (
            "malformed line",
            "INPUT(a)\nOUTPUT(y)\n\n# c\nwat\ny = NOT(a)\n",
        ),
        ("unclosed", "INPUT(a)\ny = NOT(a\n"),
        ("no name", "INPUT(a)\n= NOT(a)\n"),
        ("no function", "INPUT(a)\ny = a\n"),
        ("unknown gate type", "INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n"),
        ("gate with no inputs", "INPUT(a)\nOUTPUT(y)\ny = NOT( , )\n"),
        (
            "DFF arity",
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nq = DFF(a, b)\ny = NOT(q)\n",
        ),
        (
            "duplicate name",
            "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ny = BUF(a)\n",
        ),
        ("unknown fanin", "INPUT(a)\nOUTPUT(y)\ny = NAND(a, ghost)\n"),
        (
            "unknown DFF D",
            "INPUT(a)\nOUTPUT(y)\nq = DFF(ghost)\ny = NOT(q)\n",
        ),
        ("unknown OUTPUT", "INPUT(a)\nOUTPUT(ghost)\ny = NOT(a)\n"),
        (
            "cycle",
            "INPUT(a)\nOUTPUT(y)\nz = BUF(y)\np = NAND(a, q)\nq = NAND(a, p)\ny = NOT(p)\n",
        ),
        (
            "bad arity",
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nt = NAND(a, b)\ny = NOT(a, t)\n",
        ),
        ("no inputs", "OUTPUT(y)\n"),
        ("no outputs", "INPUT(a)\ny = NOT(a)\n"),
    ];
    for (what, text) in cases {
        assert!(assert_agree(text, what).is_err(), "{what} is an error");
        assert_agree(&reversed(text), what).ok();
    }
    // The malformed line is reported by its 1-based number, blank and
    // comment lines included.
    match parse_bench(cases[0].1, "c") {
        Err(NetlistError::Parse { line, .. }) => assert_eq!(line, 5),
        other => panic!("expected a parse error, got {other:?}"),
    }
}

#[test]
fn error_precedence_matches_the_oracle() {
    // Each text holds several faults; the first in the documented
    // precedence must win, in both parsers.
    let texts = [
        // A duplicate before a malformed line: the parse error wins.
        "INPUT(a)\nINPUT(a)\nOUTPUT(y)\ny = NOT(a)\nwat\n",
        // An unknown fanin before a duplicate: the duplicate wins.
        "INPUT(a)\nOUTPUT(y)\nx = NOT(ghost)\ny = NOT(a)\ny = BUF(a)\n",
        // An unknown D before an unknown fanin, in text order.
        "INPUT(a)\nOUTPUT(y)\nq = DFF(ghost1)\ny = NOT(ghost2)\n",
        "INPUT(a)\nOUTPUT(y)\ny = NOT(ghost2)\nq = DFF(ghost1)\n",
        // A cycle and an unknown output: the cycle wins.
        "INPUT(a)\nOUTPUT(ghost)\np = NAND(a, q)\nq = NAND(a, p)\n",
        // A cycle and bad arity: the cycle wins.
        "INPUT(a)\nOUTPUT(y)\ny = NOT(a, a)\np = NAND(a, q)\nq = NOT(p)\n",
        // An unknown output and bad arity: the unknown output wins.
        "INPUT(a)\nOUTPUT(ghost)\ny = NOT(a, a)\n",
        // Two bad arities: the first emitted wins, not the first in text.
        "INPUT(a)\nOUTPUT(y)\ny = NOT(t, t)\nt = BUF(a, a)\n",
        // A self-loop.
        "INPUT(a)\nOUTPUT(y)\ny = AND(a, y)\n",
    ];
    for (i, text) in texts.iter().enumerate() {
        assert!(
            assert_agree(text, &format!("case {i}")).is_err(),
            "case {i}"
        );
    }
}

/// Texts the generators below never write: tabs, vertical tabs and
/// Unicode whitespace around every token, non-ASCII names (some ending
/// in bytes a Latin-1 reader takes for spaces), spaced and
/// keyword-prefixed directives, a directive holding `=`, blank lines of
/// whitespace only, a last line with no newline and lone carriage
/// returns. None holds an empty name.
const UNUSUAL_TEXTS: [(&str, &str); 22] = [
    (
        "tabs",
        "\tINPUT(\ta\t)\nINPUT(b)\t\nOUTPUT(\ty)\ny\t=\tNAND\t(\ta\t,\tb\t)\t\n",
    ),
    (
        "unicode spaces",
        "\u{a0}INPUT(\u{2003}a\u{3000})\u{a0}\nINPUT\u{3000}(b)\nOUTPUT(\u{3000}y\u{2028})\n\
         y\u{a0}=\u{2003}NAND\u{3000}(\u{a0}a\u{2003},\u{3000}b\u{a0})\u{3000}\n",
    ),
    (
        "vertical tab, form feed, next line",
        "\x0bINPUT(a\x0c)\nOUTPUT(\u{85}y)\x0b\ny\x0c=\x0bNOT(\u{85}a\x0b)\n",
    ),
    (
        "unit separator is no space",
        "INPUT(\x1fa)\nOUTPUT(y)\ny = NOT(\x1fa)\n",
    ),
    (
        "non-ASCII names",
        "INPUT(α)\nINPUT(名前)\nOUTPUT(ÿ)\nÿ = NAND(α, 名前)\n",
    ),
    (
        "names ending in 0xA0 and 0x85 bytes",
        "INPUT(là)\nINPUT(Å)\nOUTPUT(y\u{2010})\ny\u{2010} = NAND(là , Å)\n",
    ),
    (
        "spaces inside names, zero-width space kept",
        "INPUT(a\u{a0}b)\nINPUT(c\u{200b})\nOUTPUT(y)\ny = AND(a\u{a0}b, c\u{200b})\n",
    ),
    (
        "spaced directives",
        "INPUT (a)\nOUTPUT ( y )\nINPUT\t( b )\ny = NAND(a, b)\n",
    ),
    (
        "keyword-prefixed gate names",
        "INPUT(a)\nINPUT(b)\nINPUTS = AND(a, b)\nINPUT = NOT(a)\nOUTPUTS = BUF(INPUT)\n\
         OUTPUT = OR(INPUTS, OUTPUTS)\nOUTPUT(OUTPUT)\n",
    ),
    (
        "a directive holding `=`",
        "INPUT(a) = NOT(b)\nOUTPUT(a) = NOT(b)\nOUTPUT(y)\ny = NOT(a) = NOT(b)\n",
    ),
    (
        "whitespace-only lines",
        " \t \n\u{3000}\nINPUT(a)\n\r\n\x0b\x0c\nOUTPUT(y)\n\u{a0}\u{2003}\ny = NOT(a)\n   ",
    ),
    ("no final newline", "INPUT(a)\nOUTPUT(y)\ny = NOT(a)"),
    (
        "final lone carriage return",
        "INPUT(a)\r\nOUTPUT(y)\r\ny = NOT(a)\r",
    ),
    (
        "lone carriage returns inside lines",
        "\rINPUT(a\rb)\nOUTPUT(y)\ny =\rNAND(a\rb\r,\ra\rb)\r# c\r\n",
    ),
    (
        "comments after spaces",
        "INPUT(a)\u{3000}# x\nOUTPUT(y)\t#\ny = NOT(a) \u{a0}#(b, c)\n#INPUT(b)\n",
    ),
    ("lowercase directive", "input(a)\nOUTPUT(y)\ny = NOT(a)\n"),
    ("unclosed directive", "INPUT(a\nOUTPUT(y)\ny = NOT(a)\n"),
    (
        "unknown spaced gate type",
        "INPUT(a)\nOUTPUT(y)\ny\u{3000}=\u{3000}FR\u{a0}OB\u{3000}(a)\n",
    ),
    (
        "no function after spaces",
        "INPUT(a)\ny =\u{3000}a\u{2003}# c\n",
    ),
    (
        "text after the parenthesis",
        "INPUT(a)\ny = NOT(a)\u{3000}x\n",
    ),
    (
        "unrecognized spaced statement",
        "INPUT(a)\n\u{3000}w\u{a0}at\u{3000}\n",
    ),
    ("no name after spaces", "INPUT(a)\n\u{2003}\t= NOT(a)\n"),
];

#[test]
fn unusual_spacing_and_names_match_the_oracle() {
    let mut parsed = 0;
    for (what, text) in UNUSUAL_TEXTS {
        if assert_agree(text, what).is_ok() {
            parsed += 1;
            assert_agree(&reversed(text), what).ok();
        }
    }
    assert_eq!(parsed, 15, "the first fifteen texts are netlists");
    // A spaced name is trimmed as `str::trim` trims it, and nothing more.
    let n = parse_bench(UNUSUAL_TEXTS[6].1, "c").expect("valid");
    assert!(n.gate_by_name("a\u{a0}b").is_some());
    assert!(n.gate_by_name("c\u{200b}").is_some());
    let n = parse_bench(UNUSUAL_TEXTS[9].1, "c").expect("valid");
    assert!(n.gate_by_name("a) = NOT(b").is_some());
}

/// `text` with random whitespace (ASCII and Unicode) around every
/// delimiter and at both ends of each line, a comment after some lines,
/// `\r\n` endings on some, no newline after the last line on some
/// texts, and its `i`/`g`/`q` name letters spelt as multi-byte
/// characters. Names stay whole, so the statements are unchanged.
fn respaced(text: &str, rng: &mut StdRng) -> String {
    const SPACES: [&str; 12] = [
        "", " ", "  ", "\t", "\x0b", "\x0c", "\r", "\u{85}", "\u{a0}", "\u{2003}", "\u{2028}",
        "\u{3000}",
    ];
    let space = |rng: &mut StdRng, out: &mut String| {
        if rng.gen_bool(0.5) {
            out.push_str(SPACES[rng.gen_range(0..SPACES.len())]);
        }
    };
    let mut out = String::new();
    for line in text.lines() {
        space(rng, &mut out);
        for c in line.chars() {
            match c {
                '(' | ')' | ',' | '=' => {
                    space(rng, &mut out);
                    out.push(c);
                    space(rng, &mut out);
                }
                'i' => out.push('à'),
                'g' => out.push('名'),
                'q' => out.push('Å'),
                _ => out.push(c),
            }
        }
        space(rng, &mut out);
        if rng.gen_bool(0.1) {
            out.push_str("#\u{3000}(, =)");
        }
        out.push_str(if rng.gen_bool(0.1) { "\r\n" } else { "\n" });
    }
    if rng.gen_bool(0.3) {
        out.pop();
    }
    out
}

#[test]
fn respaced_random_texts_match_the_oracle() {
    let mut rng = StdRng::seed_from_u64(0x005b_ace5);
    let mut seen = std::collections::BTreeMap::new();
    for case in 0..4_000 {
        let text = if case % 2 == 0 {
            random_text(&mut rng)
        } else {
            random_netlist_text(&mut rng)
        };
        let text = respaced(&text, &mut rng);
        let ok = assert_agree(&text, &format!("respaced case {case}")).is_ok();
        *seen.entry(ok).or_insert(0) += 1;
    }
    assert!(seen.values().all(|&k| k >= 200), "{seen:?}");
}

/// A random `.bench` text over a small name pool: mostly well-formed
/// statements (so both valid netlists and every late error show up),
/// with comments, blank lines, odd spacing and the occasional malformed
/// line.
fn random_text(rng: &mut StdRng) -> String {
    const FUNCS: [&str; 14] = [
        "AND", "nand", "OR", "NOR", "XOR", "XNOR", "NOT", "INV", "BUF", "BUFF", "AOI21", "MAJ3",
        "DFF", "FROB",
    ];
    let pool = rng.gen_range(2..14usize);
    let name = |rng: &mut StdRng| match rng.gen_range(0..20u32) {
        0 => "clk".to_owned(),
        1 => "clk_".to_owned(),
        _ => format!("n{}", rng.gen_range(0..pool)),
    };
    let mut text = String::new();
    for _ in 0..rng.gen_range(0..3 * pool) {
        let line = match rng.gen_range(0..40u32) {
            0..=7 => format!("INPUT({})", name(rng)),
            8..=12 => format!("OUTPUT( {} )", name(rng)),
            13 => "# a comment".to_owned(),
            14 => String::new(),
            15 => match rng.gen_range(0..4u32) {
                0 => format!("{} NOT({})", name(rng), name(rng)),
                1 => format!("{} = NOT({}", name(rng), name(rng)),
                2 => format!(" = BUF({})", name(rng)),
                _ => format!("{} = ()", name(rng)),
            },
            16..=20 => format!("{} = DFF({})", name(rng), name(rng)),
            _ => {
                let func = if rng.gen_bool(0.05) {
                    FUNCS[rng.gen_range(0..FUNCS.len())]
                } else {
                    FUNCS[rng.gen_range(0..FUNCS.len() - 2)]
                };
                let args: Vec<String> = (0..rng.gen_range(0..5usize)).map(|_| name(rng)).collect();
                format!("{} = {func}({})", name(rng), args.join(" ,"))
            }
        };
        text.push_str(&line);
        if rng.gen_bool(0.1) {
            text.push_str("  # trailing");
        }
        text.push_str(if rng.gen_bool(0.1) { "\r\n" } else { "\n" });
    }
    text
}

/// A random well-formed netlist text — inputs, gates over earlier
/// signals, registers over any signal (feedback included), outputs — in
/// a random line order, with at most one fault injected: an undefined
/// reference, a redefinition, a back edge that closes a cycle, or a bad
/// arity.
fn random_netlist_text(rng: &mut StdRng) -> String {
    const FUNCS: [(&str, usize); 8] = [
        ("AND", 2),
        ("NAND", 3),
        ("OR", 2),
        ("NOR", 2),
        ("XOR", 2),
        ("NOT", 1),
        ("BUF", 1),
        ("MAJ3", 3),
    ];
    let inputs = rng.gen_range(1..6usize);
    let gates = rng.gen_range(1..40usize);
    let registers = rng.gen_range(0..4usize);
    let signals = inputs + registers + gates;
    let name = |i: usize| match i {
        _ if i < inputs => format!("i{i}"),
        _ if i < inputs + registers => format!("q{}", i - inputs),
        _ => format!("g{}", i - inputs - registers),
    };
    let mut lines: Vec<String> = (0..inputs).map(|i| format!("INPUT({})", name(i))).collect();
    for r in 0..registers {
        let d = rng.gen_range(0..signals);
        lines.push(format!("{} = DFF({})", name(inputs + r), name(d)));
    }
    let fault = rng.gen_range(0..8u32);
    for g in 0..gates {
        let me = inputs + registers + g;
        let (func, arity) = FUNCS[rng.gen_range(0..FUNCS.len())];
        let arity = if fault == 3 && g == 0 {
            arity + 3
        } else {
            arity
        };
        let mut args: Vec<String> = (0..arity).map(|_| name(rng.gen_range(0..me))).collect();
        if fault == 4 && g == 0 && gates > 1 {
            args[0] = name(signals - 1);
        }
        if fault == 4 && g == gates - 1 {
            args[0] = name(inputs + registers);
        }
        lines.push(format!("{} = {func}({})", name(me), args.join(", ")));
    }
    for _ in 0..rng.gen_range(1..4usize) {
        lines.push(format!("OUTPUT({})", name(rng.gen_range(0..signals))));
    }
    match fault {
        0 => lines.push(format!("ghost = NOT({})", name(0))),
        1 => {
            let at = rng.gen_range(0..lines.len());
            lines[at] = lines[at].replace(&name(0), "ghost");
        }
        2 => {
            let again = lines[rng.gen_range(0..lines.len())].clone();
            lines.push(again);
        }
        _ => {}
    }
    for i in (1..lines.len()).rev() {
        lines.swap(i, rng.gen_range(0..=i));
    }
    lines.iter().flat_map(|l| [l.as_str(), "\n"]).collect()
}

#[test]
fn seeded_random_texts_match_the_oracle() {
    let mut rng = StdRng::seed_from_u64(0x0bec_4020);
    let mut seen = std::collections::BTreeMap::new();
    for case in 0..20_000 {
        let text = if case % 2 == 0 {
            random_text(&mut rng)
        } else {
            random_netlist_text(&mut rng)
        };
        let outcome = match assert_agree(&text, &format!("case {case}")) {
            Ok(_) => "ok".to_owned(),
            Err(e) => format!("{e:?}")
                .split(['(', ' '])
                .next()
                .unwrap_or("")
                .to_owned(),
        };
        *seen.entry(outcome).or_insert(0) += 1;
    }
    for outcome in [
        "ok",
        "Parse",
        "DuplicateName",
        "UnknownSignal",
        "Cycle",
        "BadArity",
        "NoInputs",
        "NoOutputs",
    ] {
        assert!(seen.get(outcome).is_some_and(|&k| k >= 20), "{seen:?}");
    }
}
