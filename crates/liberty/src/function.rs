//! Logic functions implementable by library cells.

/// The boolean function computed by a combinational cell.
///
/// Arity is stored separately (on [`crate::Cell`] / [`crate::CellGroup`]);
/// `LogicFunction` describes the family. [`eval`](LogicFunction::eval)
/// defines the semantics for any supported arity.
///
/// # Example
///
/// ```
/// use vartol_liberty::LogicFunction;
///
/// assert!(!LogicFunction::Nand.eval(&[true, true]));
/// assert!(LogicFunction::Xor.eval(&[true, false]));
/// assert!(LogicFunction::Maj3.eval(&[true, true, false]));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub enum LogicFunction {
    /// Identity (arity 1).
    Buf,
    /// Inversion (arity 1).
    Inv,
    /// n-input AND.
    And,
    /// n-input NAND.
    Nand,
    /// n-input OR.
    Or,
    /// n-input NOR.
    Nor,
    /// n-input XOR (odd parity).
    Xor,
    /// n-input XNOR (even parity).
    Xnor,
    /// AND-OR-invert: `!((a & b) | c)`, arity 3.
    Aoi21,
    /// OR-AND-invert: `!((a | b) & c)`, arity 3.
    Oai21,
    /// 3-input majority (the carry function of a full adder), arity 3.
    Maj3,
    /// D flip-flop output stage (arity 1). In the flattened timing graph a
    /// register's Q pin is a `Dff` gate whose single fanin is the clock
    /// net, so its cell delay **is** the clk→Q delay and every engine
    /// propagates launch offsets with no special casing. The D pin is not
    /// a graph edge — it is recorded as a register cut on the netlist
    /// (see `vartol_netlist::Register`). For boolean simulation the stage
    /// is transparent (`eval` passes its input through): state-element
    /// semantics live in the sequential view, not the gate function.
    Dff,
}

impl LogicFunction {
    /// All functions, in a stable order.
    pub const ALL: [Self; 12] = [
        Self::Buf,
        Self::Inv,
        Self::And,
        Self::Nand,
        Self::Or,
        Self::Nor,
        Self::Xor,
        Self::Xnor,
        Self::Aoi21,
        Self::Oai21,
        Self::Maj3,
        Self::Dff,
    ];

    /// The inclusive range of input counts this function supports.
    #[must_use]
    pub fn arity_range(self) -> (usize, usize) {
        match self {
            Self::Buf | Self::Inv | Self::Dff => (1, 1),
            Self::And | Self::Nand | Self::Or | Self::Nor => (2, 4),
            Self::Xor | Self::Xnor => (2, 3),
            Self::Aoi21 | Self::Oai21 | Self::Maj3 => (3, 3),
        }
    }

    /// Whether `n` inputs is a legal arity for this function.
    #[must_use]
    pub fn supports_arity(self, n: usize) -> bool {
        let (lo, hi) = self.arity_range();
        (lo..=hi).contains(&n)
    }

    /// True for functions whose output inverts the "natural" polarity
    /// (NAND/NOR/INV/XNOR/AOI/OAI). Useful for technology-mapping helpers.
    #[must_use]
    pub fn is_inverting(self) -> bool {
        matches!(
            self,
            Self::Inv | Self::Nand | Self::Nor | Self::Xnor | Self::Aoi21 | Self::Oai21
        )
    }

    /// Evaluates the function on the given inputs.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` is not a supported arity.
    #[must_use]
    #[allow(clippy::nonminimal_bool)] // the textbook majority form is clearer
    pub fn eval(self, inputs: &[bool]) -> bool {
        assert!(
            self.supports_arity(inputs.len()),
            "{self:?} does not support arity {}",
            inputs.len()
        );
        match self {
            Self::Buf | Self::Dff => inputs[0],
            Self::Inv => !inputs[0],
            Self::And => inputs.iter().all(|&b| b),
            Self::Nand => !inputs.iter().all(|&b| b),
            Self::Or => inputs.iter().any(|&b| b),
            Self::Nor => !inputs.iter().any(|&b| b),
            Self::Xor => inputs.iter().filter(|&&b| b).count() % 2 == 1,
            Self::Xnor => inputs.iter().filter(|&&b| b).count() % 2 == 0,
            Self::Aoi21 => !((inputs[0] && inputs[1]) || inputs[2]),
            Self::Oai21 => !((inputs[0] || inputs[1]) && inputs[2]),
            Self::Maj3 => {
                (inputs[0] && inputs[1]) || (inputs[0] && inputs[2]) || (inputs[1] && inputs[2])
            }
        }
    }

    /// Canonical short name used in cell names and `.bench` files
    /// (e.g. `NAND`).
    #[must_use]
    pub fn short_name(self) -> &'static str {
        match self {
            Self::Buf => "BUF",
            Self::Inv => "NOT",
            Self::And => "AND",
            Self::Nand => "NAND",
            Self::Or => "OR",
            Self::Nor => "NOR",
            Self::Xor => "XOR",
            Self::Xnor => "XNOR",
            Self::Aoi21 => "AOI21",
            Self::Oai21 => "OAI21",
            Self::Maj3 => "MAJ3",
            Self::Dff => "DFF",
        }
    }

    /// Parses the canonical short name (case-insensitive). `NOT` and `INV`
    /// both map to [`LogicFunction::Inv`], `BUFF` to [`LogicFunction::Buf`].
    #[must_use]
    pub fn parse_short_name(s: &str) -> Option<Self> {
        const NAMES: [(&str, LogicFunction); 14] = [
            ("BUF", LogicFunction::Buf),
            ("BUFF", LogicFunction::Buf),
            ("NOT", LogicFunction::Inv),
            ("INV", LogicFunction::Inv),
            ("AND", LogicFunction::And),
            ("NAND", LogicFunction::Nand),
            ("OR", LogicFunction::Or),
            ("NOR", LogicFunction::Nor),
            ("XOR", LogicFunction::Xor),
            ("XNOR", LogicFunction::Xnor),
            ("AOI21", LogicFunction::Aoi21),
            ("OAI21", LogicFunction::Oai21),
            ("MAJ3", LogicFunction::Maj3),
            ("DFF", LogicFunction::Dff),
        ];
        NAMES
            .iter()
            .find(|(name, _)| name.eq_ignore_ascii_case(s))
            .map(|&(_, f)| f)
    }
}

impl std::fmt::Display for LogicFunction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.short_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truth_tables_two_input() {
        let cases = [(false, false), (false, true), (true, false), (true, true)];
        for (a, b) in cases {
            let v = [a, b];
            assert_eq!(LogicFunction::And.eval(&v), a && b);
            assert_eq!(LogicFunction::Nand.eval(&v), !(a && b));
            assert_eq!(LogicFunction::Or.eval(&v), a || b);
            assert_eq!(LogicFunction::Nor.eval(&v), !(a || b));
            assert_eq!(LogicFunction::Xor.eval(&v), a ^ b);
            assert_eq!(LogicFunction::Xnor.eval(&v), !(a ^ b));
        }
    }

    #[test]
    fn unary_functions() {
        assert!(LogicFunction::Buf.eval(&[true]));
        assert!(!LogicFunction::Buf.eval(&[false]));
        assert!(!LogicFunction::Inv.eval(&[true]));
        assert!(LogicFunction::Inv.eval(&[false]));
    }

    #[test]
    #[allow(clippy::nonminimal_bool)]
    fn complex_gates() {
        for a in [false, true] {
            for b in [false, true] {
                for c in [false, true] {
                    let v = [a, b, c];
                    assert_eq!(LogicFunction::Aoi21.eval(&v), !((a && b) || c));
                    assert_eq!(LogicFunction::Oai21.eval(&v), !((a || b) && c));
                    let maj = (a && b) || (a && c) || (b && c);
                    assert_eq!(LogicFunction::Maj3.eval(&v), maj);
                }
            }
        }
    }

    #[test]
    fn wide_gates() {
        assert!(LogicFunction::And.eval(&[true, true, true, true]));
        assert!(!LogicFunction::And.eval(&[true, true, false, true]));
        assert!(LogicFunction::Xor.eval(&[true, true, true]));
        assert!(!LogicFunction::Xor.eval(&[true, true]));
        assert!(LogicFunction::Xnor.eval(&[true, true]));
    }

    #[test]
    #[should_panic(expected = "does not support arity")]
    fn bad_arity_panics() {
        let _ = LogicFunction::Inv.eval(&[true, false]);
    }

    #[test]
    fn arity_ranges_consistent() {
        for f in LogicFunction::ALL {
            let (lo, hi) = f.arity_range();
            assert!(lo >= 1 && lo <= hi && hi <= 4);
            assert!(f.supports_arity(lo) && f.supports_arity(hi));
            assert!(!f.supports_arity(hi + 1));
            assert!(lo == 1 || !f.supports_arity(lo - 1));
        }
    }

    #[test]
    fn short_name_parsing_is_ascii_case_insensitive() {
        // The same answers as upper-casing the input and matching exactly.
        let upper = |s: &str| match s.to_ascii_uppercase().as_str() {
            "BUF" | "BUFF" => Some(LogicFunction::Buf),
            "NOT" | "INV" => Some(LogicFunction::Inv),
            "AND" => Some(LogicFunction::And),
            "NAND" => Some(LogicFunction::Nand),
            "OR" => Some(LogicFunction::Or),
            "NOR" => Some(LogicFunction::Nor),
            "XOR" => Some(LogicFunction::Xor),
            "XNOR" => Some(LogicFunction::Xnor),
            "AOI21" => Some(LogicFunction::Aoi21),
            "OAI21" => Some(LogicFunction::Oai21),
            "MAJ3" => Some(LogicFunction::Maj3),
            "DFF" => Some(LogicFunction::Dff),
            _ => None,
        };
        let words =
            "buf Buff nOt inv and Nand or NOR xor xNoR aoi21 Oai21 maj3 dff AN ANDD ınv ＡＮＤ dﬀ";
        for s in words.split(' ').chain(["", " AND", "NAND "]) {
            assert_eq!(LogicFunction::parse_short_name(s), upper(s), "{s:?}");
        }
    }

    #[test]
    fn short_name_round_trips() {
        for f in LogicFunction::ALL {
            assert_eq!(LogicFunction::parse_short_name(f.short_name()), Some(f));
        }
        assert_eq!(
            LogicFunction::parse_short_name("not"),
            Some(LogicFunction::Inv)
        );
        assert_eq!(
            LogicFunction::parse_short_name("INV"),
            Some(LogicFunction::Inv)
        );
        assert_eq!(
            LogicFunction::parse_short_name("BUFF"),
            Some(LogicFunction::Buf)
        );
        assert_eq!(LogicFunction::parse_short_name("bogus"), None);
    }

    #[test]
    fn dff_is_a_transparent_unary_stage() {
        assert_eq!(LogicFunction::Dff.arity_range(), (1, 1));
        assert!(LogicFunction::Dff.eval(&[true]));
        assert!(!LogicFunction::Dff.eval(&[false]));
        assert!(!LogicFunction::Dff.is_inverting());
        assert_eq!(
            LogicFunction::parse_short_name("dff"),
            Some(LogicFunction::Dff)
        );
    }

    #[test]
    fn inverting_classification() {
        assert!(LogicFunction::Nand.is_inverting());
        assert!(LogicFunction::Inv.is_inverting());
        assert!(!LogicFunction::And.is_inverting());
        assert!(!LogicFunction::Maj3.is_inverting());
    }
}
