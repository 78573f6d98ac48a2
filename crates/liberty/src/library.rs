//! The cell library: size ladders per logic function and the synthetic
//! 90nm library used throughout the reproduction.

use crate::cell::Cell;
use crate::function::LogicFunction;
use crate::nldm::LookupTable2d;
use std::collections::HashMap;

/// All cells implementing one `(function, arity)` pair, ordered by
/// ascending drive strength — the optimizer's discrete decision space for
/// a gate ("foreach I in (sizes of g)" in the paper's pseudo-code).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CellGroup {
    function: LogicFunction,
    arity: usize,
    cells: Vec<Cell>,
}

impl CellGroup {
    /// Creates a group from cells sharing a function and arity.
    ///
    /// # Panics
    ///
    /// Panics if `cells` is empty, any cell disagrees on function/arity,
    /// drives are not strictly increasing, or a cell's `drive_index` does
    /// not match its position.
    #[must_use]
    pub fn new(function: LogicFunction, arity: usize, cells: Vec<Cell>) -> Self {
        assert!(!cells.is_empty(), "a cell group needs at least one size");
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(
                c.function(),
                function,
                "cell {} function mismatch",
                c.name()
            );
            assert_eq!(c.arity(), arity, "cell {} arity mismatch", c.name());
            assert_eq!(c.drive_index(), i, "cell {} drive_index mismatch", c.name());
        }
        assert!(
            cells.windows(2).all(|w| w[0].drive() < w[1].drive()),
            "drives must be strictly increasing"
        );
        Self {
            function,
            arity,
            cells,
        }
    }

    /// The group's logic function.
    #[must_use]
    pub fn function(&self) -> LogicFunction {
        self.function
    }

    /// The group's input count.
    #[must_use]
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of available sizes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Always false: groups hold at least one cell.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The cell at size index `i` (0 = smallest drive).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[must_use]
    pub fn cell(&self, i: usize) -> &Cell {
        &self.cells[i]
    }

    /// All sizes, ascending drive.
    #[must_use]
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// The smallest (minimum-area) size.
    #[must_use]
    pub fn smallest(&self) -> &Cell {
        &self.cells[0]
    }

    /// The largest (maximum-drive) size.
    #[must_use]
    pub fn largest(&self) -> &Cell {
        self.cells.last().expect("non-empty by construction")
    }
}

/// A standard-cell library: a set of [`CellGroup`]s indexed by
/// `(function, arity)` and by cell name.
///
/// # Example
///
/// ```
/// use vartol_liberty::{Library, LogicFunction};
///
/// let lib = Library::synthetic_90nm();
/// assert!(lib.group(LogicFunction::Nand, 2).is_some());
/// assert!(lib.group(LogicFunction::Nand, 9).is_none());
/// let inv = lib.cell_by_name("NOT_X1").expect("inverter");
/// assert_eq!(inv.function(), LogicFunction::Inv);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Library {
    name: String,
    groups: Vec<CellGroup>,
    /// Dense `(function, arity)` → group table: slot
    /// `function as usize * arities + arity`, `arities` = largest group
    /// arity + 1.
    group_index: Vec<Option<usize>>,
    arities: usize,
    name_index: HashMap<String, (usize, usize)>,
}

/// A borrowed library converts into a shared handle by cloning — the
/// bridge that lets owned-handle consumers ([`std::sync::Arc`]-holding
/// sessions, sizers, workspaces) accept `&Library` at construction
/// without a lifetime parameter. Libraries are small (a few dozen cells
/// of lookup tables), so the clone is cheap relative to any analysis.
impl From<&Library> for std::sync::Arc<Library> {
    fn from(library: &Library) -> Self {
        std::sync::Arc::new(library.clone())
    }
}

impl Library {
    /// Builds a library from groups.
    ///
    /// # Panics
    ///
    /// Panics if two groups share a `(function, arity)` pair or two cells
    /// share a name.
    #[must_use]
    pub fn new(name: String, groups: Vec<CellGroup>) -> Self {
        let arities = groups.iter().map(|g| g.arity() + 1).max().unwrap_or(0);
        let mut group_index = vec![None; LogicFunction::ALL.len() * arities];
        let mut name_index = HashMap::new();
        for (gi, g) in groups.iter().enumerate() {
            let prev = group_index[g.function() as usize * arities + g.arity()].replace(gi);
            assert!(
                prev.is_none(),
                "duplicate group {:?}/{}",
                g.function(),
                g.arity()
            );
            for (ci, c) in g.cells().iter().enumerate() {
                let prev = name_index.insert(c.name().to_owned(), (gi, ci));
                assert!(prev.is_none(), "duplicate cell name {}", c.name());
            }
        }
        Self {
            name,
            groups,
            group_index,
            arities,
            name_index,
        }
    }

    /// The library name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All groups.
    #[must_use]
    pub fn groups(&self) -> &[CellGroup] {
        &self.groups
    }

    /// The size ladder for `(function, arity)`, if present.
    #[must_use]
    pub fn group(&self, function: LogicFunction, arity: usize) -> Option<&CellGroup> {
        if arity >= self.arities {
            return None;
        }
        self.group_index[function as usize * self.arities + arity].map(|i| &self.groups[i])
    }

    /// The cell for `(function, arity)` at size index `drive_index`.
    #[must_use]
    pub fn cell(&self, function: LogicFunction, arity: usize, drive_index: usize) -> Option<&Cell> {
        self.group(function, arity)
            .and_then(|g| g.cells().get(drive_index))
    }

    /// Looks up a cell by name, e.g. `NAND2_X4`.
    #[must_use]
    pub fn cell_by_name(&self, name: &str) -> Option<&Cell> {
        self.name_index
            .get(name)
            .map(|&(gi, ci)| self.groups[gi].cell(ci))
    }

    /// Total number of cells across all groups.
    #[must_use]
    pub fn cell_count(&self) -> usize {
        self.groups.iter().map(CellGroup::len).sum()
    }

    /// The synthetic 90nm library standing in for the paper's industrial
    /// one: every common combinational function with **6–8 discrete drive
    /// strengths**, NLDM delay/slew tables, and consistent area/cap trends.
    ///
    /// Electrical model (normalized units; time ps, cap in X1-inverter
    /// input loads, area in X1-inverter areas):
    ///
    /// * `delay(slew, load) = p + (r / drive) · load + k_s · slew`
    ///   sampled on a slew×load grid (the tables are what downstream code
    ///   consumes — the closed form is only the generator);
    /// * `input_cap = c₀ · drive` — upsizing loads predecessors harder;
    /// * `area = a₀ · (0.35 + 0.65 · drive)` — slightly sublinear.
    #[must_use]
    pub fn synthetic_90nm() -> Self {
        // (function, arity, p_intrinsic, r_drive, c0_cap, a0_area)
        #[rustfmt::skip]
        let params: &[(LogicFunction, usize, f64, f64, f64, f64)] = &[
            (LogicFunction::Inv,   1,  6.0, 12.0, 1.00, 1.0),
            (LogicFunction::Buf,   1, 10.0, 12.0, 1.00, 1.4),
            (LogicFunction::Nand,  2, 10.0, 16.0, 1.25, 1.6),
            (LogicFunction::Nand,  3, 13.0, 18.0, 1.40, 2.1),
            (LogicFunction::Nand,  4, 16.0, 20.0, 1.55, 2.6),
            (LogicFunction::Nor,   2, 11.0, 18.0, 1.35, 1.6),
            (LogicFunction::Nor,   3, 14.5, 21.0, 1.50, 2.1),
            (LogicFunction::Nor,   4, 18.0, 24.0, 1.65, 2.6),
            (LogicFunction::And,   2, 15.0, 14.0, 1.25, 2.4),
            (LogicFunction::And,   3, 18.0, 15.0, 1.40, 2.9),
            (LogicFunction::And,   4, 21.0, 16.0, 1.55, 3.4),
            (LogicFunction::Or,    2, 16.0, 15.0, 1.35, 2.4),
            (LogicFunction::Or,    3, 19.5, 16.5, 1.50, 2.9),
            (LogicFunction::Or,    4, 23.0, 18.0, 1.65, 3.4),
            (LogicFunction::Xor,   2, 16.0, 20.0, 1.80, 2.8),
            (LogicFunction::Xor,   3, 22.0, 23.0, 2.00, 4.2),
            (LogicFunction::Xnor,  2, 17.0, 20.0, 1.80, 2.8),
            (LogicFunction::Xnor,  3, 23.0, 23.0, 2.00, 4.2),
            (LogicFunction::Aoi21, 3, 13.0, 18.0, 1.40, 2.2),
            (LogicFunction::Oai21, 3, 13.0, 18.0, 1.40, 2.2),
            (LogicFunction::Maj3,  3, 18.0, 20.0, 1.70, 3.0),
            // The register family: the cell delay is the clk→Q arc (the
            // launch offset every engine propagates through the Q gate);
            // the D-pin setup/hold windows are attached below.
            (LogicFunction::Dff,   1, 35.0, 22.0, 1.60, 6.0),
        ];

        // 8 sizes for the workhorse INV/BUF, 6 for everything else —
        // matching the paper's "6-8 sizes per gate type".
        let drives_8: Vec<f64> = vec![1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0];
        let drives_6: Vec<f64> = vec![1.0, 2.0, 3.0, 4.0, 6.0, 8.0];

        let slew_axis = vec![5.0, 10.0, 20.0, 40.0, 80.0, 160.0];
        let load_axis = vec![0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];
        const K_SLEW: f64 = 0.08;

        let mut groups = Vec::with_capacity(params.len());
        for &(function, arity, p, r, c0, a0) in params {
            let drives = if matches!(function, LogicFunction::Inv | LogicFunction::Buf) {
                &drives_8
            } else {
                &drives_6
            };
            let cells = drives
                .iter()
                .enumerate()
                .map(|(i, &drive)| {
                    let delay_table = LookupTable2d::from_fn(
                        slew_axis.clone(),
                        load_axis.clone(),
                        move |s, l| p + (r / drive) * l + K_SLEW * s,
                    );
                    let slew_table = LookupTable2d::from_fn(
                        slew_axis.clone(),
                        load_axis.clone(),
                        move |s, l| 0.6 * p + 0.9 * (r / drive) * l + 0.05 * s,
                    );
                    let suffix = if (drive.fract()).abs() < 1e-9 {
                        format!("X{}", drive as u64)
                    } else {
                        format!("X{drive:.1}")
                    };
                    // INV/BUF and the fixed-arity complex cells omit
                    // the arity from the name.
                    let name = if matches!(
                        function,
                        LogicFunction::Inv
                            | LogicFunction::Buf
                            | LogicFunction::Aoi21
                            | LogicFunction::Oai21
                            | LogicFunction::Maj3
                            | LogicFunction::Dff
                    ) {
                        format!("{}_{}", function.short_name(), suffix)
                    } else {
                        format!("{}{}_{}", function.short_name(), arity, suffix)
                    };
                    let cell = Cell::new(
                        name,
                        function,
                        arity,
                        i,
                        drive,
                        a0 * (0.35 + 0.65 * drive),
                        c0 * drive,
                        delay_table,
                        slew_table,
                    );
                    if function == LogicFunction::Dff {
                        // A stronger register resolves its master latch
                        // faster: the setup window shrinks as the drive
                        // grows (hold stays a fixed race margin).
                        cell.with_setup_hold(18.0 + 12.0 / drive, 4.0)
                    } else {
                        cell
                    }
                })
                .collect();
            groups.push(CellGroup::new(function, arity, cells));
        }
        Self::new("vartol_synthetic_90nm".to_owned(), groups)
    }
}

impl std::fmt::Display for Library {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ({} groups, {} cells)",
            self.name,
            self.groups.len(),
            self.cell_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_library_has_expected_shape() {
        let lib = Library::synthetic_90nm();
        assert!(lib.groups().len() >= 20);
        for g in lib.groups() {
            assert!(
                (6..=8).contains(&g.len()),
                "{:?}/{} has {} sizes; paper says 6-8",
                g.function(),
                g.arity(),
                g.len()
            );
        }
    }

    #[test]
    fn group_table_matches_a_linear_search() {
        let full = Library::synthetic_90nm();
        // A sparse subset (every third group) and an empty library probe
        // the table's holes and its arity bound.
        let sparse = Library::new(
            "sparse".into(),
            full.groups().iter().step_by(3).cloned().collect(),
        );
        let empty = Library::new("empty".into(), Vec::new());
        for lib in [&full, &sparse, &empty] {
            for f in LogicFunction::ALL {
                for k in 0..=8 {
                    let want = lib
                        .groups()
                        .iter()
                        .find(|g| g.function() == f && g.arity() == k);
                    assert_eq!(lib.group(f, k), want, "{}: {f:?}/{k}", lib.name());
                }
            }
        }
    }

    #[test]
    fn inverter_has_eight_sizes() {
        let lib = Library::synthetic_90nm();
        assert_eq!(lib.group(LogicFunction::Inv, 1).expect("inv").len(), 8);
        assert_eq!(lib.group(LogicFunction::Nand, 2).expect("nand2").len(), 6);
    }

    #[test]
    fn register_family_carries_setup_and_hold() {
        let lib = Library::synthetic_90nm();
        let g = lib.group(LogicFunction::Dff, 1).expect("dff group");
        assert_eq!(g.len(), 6);
        for w in g.cells().windows(2) {
            let (small, big) = (&w[0], &w[1]);
            assert!(small.setup() > big.setup(), "setup shrinks with drive");
            assert_eq!(small.hold(), big.hold(), "hold is a fixed margin");
            assert!(small.setup() > 0.0 && small.hold() > 0.0);
        }
        // Combinational cells keep the zero defaults.
        let nand = lib.cell_by_name("NAND2_X1").expect("nand2 x1");
        assert_eq!(nand.setup(), 0.0);
        assert_eq!(nand.hold(), 0.0);
        assert!(lib.cell_by_name("DFF_X1").is_some());
    }

    #[test]
    fn upsizing_trades_delay_for_cap_and_area() {
        let lib = Library::synthetic_90nm();
        for g in lib.groups() {
            for w in g.cells().windows(2) {
                let (small, big) = (&w[0], &w[1]);
                // Under a heavy load, the bigger cell is strictly faster.
                assert!(
                    big.delay(20.0, 16.0) < small.delay(20.0, 16.0),
                    "{} vs {}",
                    big.name(),
                    small.name()
                );
                assert!(big.input_cap() > small.input_cap());
                assert!(big.area() > small.area());
            }
        }
    }

    #[test]
    fn delay_monotone_in_load_and_slew() {
        let lib = Library::synthetic_90nm();
        let c = lib.cell_by_name("NAND2_X1").expect("nand2 x1");
        assert!(c.delay(20.0, 8.0) > c.delay(20.0, 2.0));
        assert!(c.delay(80.0, 2.0) > c.delay(10.0, 2.0));
        assert!(c.output_slew(20.0, 8.0) > c.output_slew(20.0, 2.0));
    }

    #[test]
    fn name_lookup_round_trips() {
        let lib = Library::synthetic_90nm();
        for g in lib.groups() {
            for c in g.cells() {
                let found = lib.cell_by_name(c.name()).expect("every cell is indexed");
                assert_eq!(found.name(), c.name());
                assert_eq!(found.drive_index(), c.drive_index());
            }
        }
        assert!(lib.cell_by_name("NAND17_X99").is_none());
    }

    #[test]
    fn group_lookup_by_function_arity() {
        let lib = Library::synthetic_90nm();
        let g = lib.group(LogicFunction::Xor, 2).expect("xor2");
        assert_eq!(g.function(), LogicFunction::Xor);
        assert_eq!(g.arity(), 2);
        assert!(lib.group(LogicFunction::Xor, 4).is_none());
        assert!(lib.cell(LogicFunction::Xor, 2, 0).is_some());
        assert!(lib.cell(LogicFunction::Xor, 2, 99).is_none());
    }

    #[test]
    fn smallest_and_largest() {
        let lib = Library::synthetic_90nm();
        let g = lib.group(LogicFunction::Nor, 2).expect("nor2");
        assert_eq!(g.smallest().drive_index(), 0);
        assert_eq!(g.largest().drive_index(), g.len() - 1);
        assert!(g.largest().drive() > g.smallest().drive());
    }

    #[test]
    fn inverting_cells_cheaper_than_noninverting() {
        // Sanity of the electrical model: NAND2 is faster than AND2 at X1
        // intrinsically (AND = NAND + INV internally).
        let lib = Library::synthetic_90nm();
        let nand = lib.cell_by_name("NAND2_X1").expect("nand2");
        let and = lib.cell_by_name("AND2_X1").expect("and2");
        assert!(nand.delay(20.0, 0.5) < and.delay(20.0, 0.5));
    }

    #[test]
    #[should_panic(expected = "drives must be strictly increasing")]
    fn group_rejects_unsorted_drives() {
        let lib = Library::synthetic_90nm();
        let g = lib.group(LogicFunction::Inv, 1).expect("inv");
        let mut cells = vec![g.cell(1).clone(), g.cell(0).clone()];
        // Fix drive_index fields so the index assertion doesn't fire first.
        cells = cells
            .into_iter()
            .enumerate()
            .map(|(i, c)| {
                Cell::new(
                    format!("T{i}"),
                    c.function(),
                    c.arity(),
                    i,
                    c.drive(),
                    c.area(),
                    c.input_cap(),
                    LookupTable2d::from_fn(vec![1.0], vec![1.0], |_, _| 1.0),
                    LookupTable2d::from_fn(vec![1.0], vec![1.0], |_, _| 1.0),
                )
            })
            .collect();
        let _ = CellGroup::new(LogicFunction::Inv, 1, cells);
    }

    #[test]
    #[should_panic(expected = "duplicate cell name")]
    fn library_rejects_duplicate_names() {
        let lib = Library::synthetic_90nm();
        let g = lib.group(LogicFunction::Inv, 1).expect("inv").clone();
        let _ = Library::new(
            "dup".into(),
            vec![
                g.clone(),
                CellGroup::new(
                    LogicFunction::Buf,
                    1,
                    g.cells()
                        .iter()
                        .map(|c| {
                            Cell::new(
                                c.name().to_owned(), // same names -> duplicate
                                LogicFunction::Buf,
                                1,
                                c.drive_index(),
                                c.drive(),
                                c.area(),
                                c.input_cap(),
                                LookupTable2d::from_fn(vec![1.0], vec![1.0], |_, _| 1.0),
                                LookupTable2d::from_fn(vec![1.0], vec![1.0], |_, _| 1.0),
                            )
                        })
                        .collect(),
                ),
            ],
        );
    }

    #[test]
    fn display_mentions_counts() {
        let s = Library::synthetic_90nm().to_string();
        assert!(s.contains("groups") && s.contains("cells"));
    }
}
