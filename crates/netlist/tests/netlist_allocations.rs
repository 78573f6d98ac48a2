//! Allocation counts of the flat-array netlist. A parse sizes every
//! table once, so its allocation count does not grow with the netlist,
//! and its scratch (the live bytes it peaks at above the netlist it
//! returns) stays within a fixed budget; a clone or a drop touches each
//! flat array once; and the name index, which owns no strings, resolves
//! every node's name back to its id.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use vartol_liberty::Library;
use vartol_netlist::generators::{random_dag, RandomDagConfig};
use vartol_netlist::iscas::{parse_bench, write_bench};
use vartol_netlist::Netlist;

/// The system allocator, counting each thread's allocations and frees
/// and tracking its live bytes and their high-water mark.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    static FREES: Cell<usize> = const { Cell::new(0) };
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// Adds `delta` to this thread's live bytes, raising the peak with it.
fn track(delta: isize) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

/// A size in bytes as a signed delta (allocations stay below `isize::MAX`).
fn bytes(size: usize) -> isize {
    size as isize
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counters are const-initialized thread-locals, which never
// allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        track(bytes(layout.size()));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = FREES.try_with(|c| c.set(c.get() + 1));
        track(-bytes(layout.size()));
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        // Both blocks may be live at once while the contents move.
        track(bytes(new_size));
        track(-bytes(layout.size()));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the allocations and frees it
/// made on this thread.
fn counted<R>(f: impl FnOnce() -> R) -> (R, usize, usize) {
    let before = (ALLOCATIONS.with(Cell::get), FREES.with(Cell::get));
    let out = f();
    let after = (ALLOCATIONS.with(Cell::get), FREES.with(Cell::get));
    (out, after.0 - before.0, after.1 - before.1)
}

/// Runs `f` and returns its result with the live bytes it kept and its
/// scratch: how far this thread's live bytes peaked above what it kept.
fn peak_scratch<R>(f: impl FnOnce() -> R) -> (R, isize, isize) {
    let before = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(before));
    let out = f();
    let kept = LIVE.with(Cell::get) - before;
    let peak = PEAK.with(Cell::get) - before;
    (out, kept, peak - kept)
}

/// The flat arrays of a combinational netlist: its name, the name arena
/// and its offsets, the kinds, both CSRs (offsets and ids each), the
/// inputs, outputs and output flags, and the index's hash table and
/// chain links. An empty register list owns no buffer.
const FLAT_ARRAYS: usize = 13;

/// The most live bytes a parse of `dag_text(25_000)` (747,172 bytes of
/// text) may hold above the netlist it returns: the figure of the
/// previous tokenizer, which kept every reference as a `&str` and
/// reserved one `OUTPUT` slot per line.
const SCRATCH_BUDGET: isize = 3_153_144;

fn dag_text(gates: usize) -> String {
    let config = RandomDagConfig {
        inputs: 64,
        gates,
        window: 512,
    };
    write_bench(&random_dag(config, 7, &Library::synthetic_90nm()))
}

/// Every node's name resolves back to its own id.
fn assert_names_resolve(n: &Netlist) {
    for id in n.node_ids() {
        let name = n.gate(id).name();
        assert_eq!(n.gate_by_name(name), Some(id), "{name}");
    }
}

#[test]
fn parsing_allocates_no_more_for_a_larger_netlist() {
    let small = dag_text(1_000);
    let large = dag_text(16_000);
    // Warm-up: the first keyed hasher on a thread seeds its keys.
    drop(parse_bench(&small, "dag"));

    let (n_small, small_allocs, _) = counted(|| parse_bench(&small, "dag").expect("valid"));
    let (n_large, large_allocs, _) = counted(|| parse_bench(&large, "dag").expect("valid"));
    assert_eq!(n_small.gate_count(), 1_000);
    assert_eq!(n_large.gate_count(), 16_000);
    assert_eq!(
        small_allocs, large_allocs,
        "a parse's allocations must not grow with the node count"
    );
}

#[test]
fn parsing_scratch_stays_within_budget() {
    let text = dag_text(25_000);
    drop(parse_bench(&text, "dag"));
    let (n, kept, scratch) = peak_scratch(|| parse_bench(&text, "dag").expect("valid"));
    assert_eq!(n.gate_count(), 25_000);
    assert!(
        scratch <= SCRATCH_BUDGET,
        "a 25k-gate parse peaked {scratch} B above its netlist ({kept} B), budget {SCRATCH_BUDGET} B"
    );
}

#[test]
fn clone_and_drop_touch_each_flat_array_once() {
    for gates in [1_000, 16_000] {
        let n = parse_bench(&dag_text(gates), "dag").expect("valid");
        let (copy, allocs, frees) = counted(|| n.clone());
        assert_eq!((allocs, frees), (FLAT_ARRAYS, 0), "clone at {gates} gates");
        assert_eq!(copy, n);
        let ((), allocs, frees) = counted(|| drop(copy));
        assert_eq!((allocs, frees), (0, FLAT_ARRAYS), "drop at {gates} gates");
    }
}

const S27: &str = "\
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
fn every_name_resolves_to_its_node() {
    let dag = RandomDagConfig {
        inputs: 256,
        gates: 25_000,
        window: 2048,
    };
    let text = write_bench(&random_dag(dag, 7, &Library::synthetic_90nm()));
    let n = parse_bench(&text, "dag_25k").expect("valid");
    assert_eq!(n.node_count(), 25_256);
    assert_names_resolve(&n);
    assert_names_resolve(&n.clone());

    // The synthesized clock: `clk`, or `clk_` when the text takes `clk`.
    let s27 = parse_bench(S27, "s27").expect("valid");
    let clk = s27.clock().expect("sequential");
    assert_eq!(s27.gate(clk).name(), "clk");
    assert_names_resolve(&s27);
    let taken = format!("INPUT(clk)\n{S27}");
    let s27_clk = parse_bench(&taken, "s27").expect("valid");
    let clk = s27_clk.clock().expect("sequential");
    assert_eq!(s27_clk.gate(clk).name(), "clk_");
    assert_eq!(s27_clk.gate_by_name("clk").map(|id| id == clk), Some(false));
    assert_names_resolve(&s27_clk);
    assert_eq!(s27_clk.gate_by_name("G404"), None);
}
