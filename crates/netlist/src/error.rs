//! Error types for netlist construction and I/O.

use vartol_liberty::LogicFunction;

/// Errors arising while building, validating, or parsing a netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetlistError {
    /// Two nodes were declared with the same name.
    DuplicateName(String),
    /// A gate references a signal name that was never defined.
    UnknownSignal(String),
    /// A gate's input count is not supported by its logic function.
    BadArity {
        /// The offending gate's name.
        gate: String,
        /// Its logic function.
        function: LogicFunction,
        /// The number of fanins it was given.
        arity: usize,
    },
    /// The netlist contains a combinational cycle through the named signal.
    Cycle(String),
    /// The netlist has no primary outputs.
    NoOutputs,
    /// The netlist has no primary inputs.
    NoInputs,
    /// A `.bench` line could not be parsed.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Explanation of the failure.
        message: String,
    },
    /// A gate uses a `(function, arity)` pair absent from the library.
    MissingCell {
        /// The offending gate's name.
        gate: String,
        /// Its logic function.
        function: LogicFunction,
        /// Its input count.
        arity: usize,
    },
    /// A [`GateId`](crate::GateId) index points past the end of the
    /// netlist's node table (an id from a different or re-built netlist).
    NodeOutOfRange {
        /// The offending dense index.
        index: usize,
        /// The netlist's node count.
        nodes: usize,
    },
    /// A size was assigned to a primary input, which carries none.
    InputHasNoSize(String),
    /// A size snapshot's length does not match the netlist's node count.
    SizeSnapshotMismatch {
        /// Length of the supplied snapshot.
        got: usize,
        /// The netlist's node count.
        expected: usize,
    },
    /// A register was declared but its D pin was never bound to a driver.
    UnboundRegister(String),
    /// A register record violates the register-cut invariants (Q gate not
    /// a single-fanin DFF, clock not a shared primary input, …).
    BadRegister {
        /// The offending register's name.
        register: String,
        /// Which invariant failed.
        message: String,
    },
    /// A flat netlist table outgrew its `u32` offsets.
    TooLarge {
        /// What the table holds (`"name bytes"`, `"fanin pins"`, or
        /// `"text bytes"` for a `.bench` text past `u32` offsets).
        table: &'static str,
        /// The length it would have reached.
        len: usize,
    },
    /// A netlist's flat tables are inconsistent with each other (only
    /// reachable through a corrupted netlist; builders never make one).
    Malformed(&'static str),
}

impl std::fmt::Display for NetlistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::DuplicateName(n) => write!(f, "duplicate signal name `{n}`"),
            Self::UnknownSignal(n) => write!(f, "reference to undefined signal `{n}`"),
            Self::BadArity {
                gate,
                function,
                arity,
            } => {
                write!(
                    f,
                    "gate `{gate}`: {function} does not support {arity} inputs"
                )
            }
            Self::Cycle(n) => write!(f, "combinational cycle through `{n}`"),
            Self::NoOutputs => write!(f, "netlist has no primary outputs"),
            Self::NoInputs => write!(f, "netlist has no primary inputs"),
            Self::Parse { line, message } => write!(f, "parse error at line {line}: {message}"),
            Self::MissingCell {
                gate,
                function,
                arity,
            } => {
                write!(
                    f,
                    "gate `{gate}`: library has no cell for {function}/{arity}"
                )
            }
            Self::NodeOutOfRange { index, nodes } => {
                write!(f, "node index {index} out of range ({nodes} nodes)")
            }
            Self::InputHasNoSize(n) => write!(f, "primary input `{n}` cannot be sized"),
            Self::SizeSnapshotMismatch { got, expected } => {
                write!(
                    f,
                    "size snapshot has {got} entries, netlist has {expected} nodes"
                )
            }
            Self::UnboundRegister(n) => {
                write!(f, "register `{n}` has no D-pin driver bound")
            }
            Self::BadRegister { register, message } => {
                write!(f, "register `{register}`: {message}")
            }
            Self::TooLarge { table, len } => {
                write!(f, "netlist too large: {len} {table} exceed u32 offsets")
            }
            Self::Malformed(table) => write!(f, "malformed netlist: bad {table}"),
        }
    }
}

impl std::error::Error for NetlistError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_specific() {
        let e = NetlistError::DuplicateName("g1".into());
        assert_eq!(e.to_string(), "duplicate signal name `g1`");
        let e = NetlistError::BadArity {
            gate: "g2".into(),
            function: LogicFunction::Inv,
            arity: 3,
        };
        assert!(e.to_string().contains("does not support 3 inputs"));
        let e = NetlistError::Parse {
            line: 7,
            message: "bad token".into(),
        };
        assert!(e.to_string().contains("line 7"));
    }

    #[test]
    fn error_trait_object_usable() {
        let e: Box<dyn std::error::Error + Send + Sync> = Box::new(NetlistError::NoOutputs);
        assert_eq!(e.to_string(), "netlist has no primary outputs");
    }
}
