//! The Table-1 benchmark suite: generated analogues of the circuits the
//! paper evaluates on.
//!
//! The paper uses ISCAS-85 netlists (c432 … c7552) plus three proprietary
//! ALU circuits, synthesized with Design Compiler onto an industrial 90nm
//! library. Those gate-level netlists are not available, so each suite
//! entry here is a generated circuit of the same *role* and comparable
//! size/depth:
//!
//! | name  | paper circuit                        | analogue                         |
//! |-------|--------------------------------------|----------------------------------|
//! | alu1  | ALU (234 gates)                      | 14-bit 4-function ALU            |
//! | alu2  | ALU (161 gates)                      | 9-bit 4-function ALU             |
//! | alu3  | ALU (215 gates)                      | 12-bit 4-function ALU            |
//! | c432  | 27-ch priority interrupt controller  | 27-ch priority controller        |
//! | c499  | 32-bit ECAT (error correction)       | 40-bit syndrome corrector        |
//! | c880  | 8-bit ALU + control                  | 12-bit ALU with flags            |
//! | c1355 | c499 with XORs expanded to NANDs     | 24-bit corrector, expanded XORs  |
//! | c1908 | 16-bit ECAT                          | 32-bit corrector, expanded XORs  |
//! | c2670 | 12-bit ALU + control                 | 32-bit ALU with flags            |
//! | c3540 | 8-bit ALU (BCD, control-heavy)       | 48-bit ALU with flags            |
//! | c5315 | 9-bit ALU selector                   | 96-bit ALU with flags            |
//! | c6288 | 16×16 array multiplier               | array multiplier (deepest)       |
//! | c7552 | 34-bit adder/comparator              | 32-bit adder/compare datapath ×10|

use super::{
    adder_comparator_datapath, alu, alu_array, alu_with_flags, array_multiplier, ecc_corrector,
    priority_interrupt_controller,
};
use crate::graph::Netlist;
use vartol_liberty::Library;

/// The suite's circuit names, in the paper's Table-1 order.
#[must_use]
pub fn benchmark_names() -> &'static [&'static str] {
    &[
        "alu1", "alu2", "alu3", "c432", "c499", "c880", "c1355", "c1908", "c2670", "c3540",
        "c5315", "c6288", "c7552",
    ]
}

/// Generates one suite circuit by name; `None` for unknown names.
///
/// # Example
///
/// ```
/// use vartol_liberty::Library;
/// use vartol_netlist::generators::benchmark;
///
/// let lib = Library::synthetic_90nm();
/// let c432 = benchmark("c432", &lib).expect("known benchmark");
/// assert_eq!(c432.name(), "c432");
/// assert!(benchmark("c9999", &lib).is_none());
/// ```
#[must_use]
pub fn benchmark(name: &str, library: &Library) -> Option<Netlist> {
    let n = match name {
        "alu1" => alu(14, library),
        "alu2" => alu(9, library),
        "alu3" => alu(12, library),
        "c432" => priority_interrupt_controller(27, library),
        "c499" => ecc_corrector(40, false, library),
        "c880" => alu_with_flags(12, library),
        "c1355" => ecc_corrector(24, true, library),
        "c1908" => ecc_corrector(32, true, library),
        "c2670" => alu_array(16, 2, library),
        "c3540" => alu_array(24, 2, library),
        "c5315" => alu_array(24, 4, library),
        "c6288" => array_multiplier(22, library),
        "c7552" => adder_comparator_datapath(32, 10, library),
        _ => return None,
    };
    Some(n.with_name(name))
}

/// Generates the full suite in Table-1 order.
#[must_use]
pub fn benchmark_suite(library: &Library) -> Vec<Netlist> {
    benchmark_names()
        .iter()
        .map(|name| benchmark(name, library).expect("names list is authoritative"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_is_complete_and_named() {
        let lib = Library::synthetic_90nm();
        let suite = benchmark_suite(&lib);
        assert_eq!(suite.len(), benchmark_names().len());
        for (n, name) in suite.iter().zip(benchmark_names()) {
            assert_eq!(n.name(), *name);
            assert!(n.check_invariants().is_ok(), "{name}");
            assert!(n.validate_against_library(&lib).is_ok(), "{name}");
        }
    }

    #[test]
    fn gate_counts_in_paper_ballpark() {
        // Within a factor of ~2 of the paper's Table-1 counts (the analogues
        // are different mappings of similar functions).
        let lib = Library::synthetic_90nm();
        let paper: &[(&str, usize)] = &[
            ("alu1", 234),
            ("alu2", 161),
            ("alu3", 215),
            ("c432", 203),
            ("c499", 381),
            ("c880", 301),
            ("c1355", 378),
            ("c1908", 563),
            ("c2670", 820),
            ("c3540", 1245),
            ("c5315", 2318),
            ("c6288", 2980),
            ("c7552", 2763),
        ];
        for (name, count) in paper {
            let n = benchmark(name, &lib).expect("known");
            let got = n.gate_count();
            let lo = count / 2;
            let hi = count * 2;
            assert!(
                (lo..=hi).contains(&got),
                "{name}: got {got} gates, paper has {count}"
            );
        }
    }

    #[test]
    fn multiplier_is_the_deepest() {
        let lib = Library::synthetic_90nm();
        let suite = benchmark_suite(&lib);
        let depths: Vec<(&str, usize)> = suite.iter().map(|n| (n.name(), n.depth())).collect();
        let c6288_depth = depths
            .iter()
            .find(|(n, _)| *n == "c6288")
            .expect("present")
            .1;
        for (name, d) in &depths {
            assert!(
                *d <= c6288_depth,
                "paper: the multiplier has the longest depth; {name} has {d} > {c6288_depth}"
            );
        }
    }

    #[test]
    fn suite_sizes_are_monotone_enough_for_runtime_scaling() {
        // c7552/c6288/c5315 are the big three; alu2 is the smallest.
        let lib = Library::synthetic_90nm();
        let suite = benchmark_suite(&lib);
        let count = |name: &str| {
            suite
                .iter()
                .find(|n| n.name() == name)
                .expect("present")
                .gate_count()
        };
        assert!(count("alu2") < count("c432"));
        assert!(count("c5315") > count("c3540"));
        assert!(count("c6288") > 1500);
    }
}
