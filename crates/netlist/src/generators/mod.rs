//! Structural circuit generators.
//!
//! The paper evaluates on ISCAS-85 benchmarks plus proprietary ALU circuits
//! synthesized with Design Compiler. Neither the synthesized gate-level
//! netlists nor the ALU sources are available, so this module generates
//! functionally-real circuits of the same *roles* (the `benchmarks`
//! module's table lists each substitution):
//! arithmetic (adders, an array multiplier standing in for c6288), ALUs,
//! error-correcting XOR networks (c499/c1355/c1908 analogues), a priority
//! interrupt controller (c432 analogue), comparators and datapaths. Every
//! generator is verified against a golden software model by exhaustive or
//! randomized simulation.
//!
//! [`benchmarks::benchmark_suite`] assembles the Table-1 circuit list.

mod blocks;

pub mod adder;
pub mod alu;
pub mod benchmarks;
pub mod comparator;
pub mod ecc;
pub mod multiplier;
pub mod parity;
pub mod presets;
pub mod priority;
pub mod random_dag;
pub mod sequential;

pub use adder::{adder_comparator_datapath, ripple_carry_adder};
pub use alu::{alu, alu_array, alu_with_flags, AluOp};
pub use benchmarks::{benchmark, benchmark_names, benchmark_suite};
pub use comparator::magnitude_comparator;
pub use ecc::ecc_corrector;
pub use multiplier::array_multiplier;
pub use parity::parity_tree;
pub use presets::{large_preset_names, preset, preset_names, small_preset_names};
pub use priority::priority_interrupt_controller;
pub use random_dag::{random_dag, RandomDagConfig};
pub use sequential::{pipeline_adder, shift_register_dag};
