//! Allocation counts of a session's incremental refresh. Once a session
//! has run a trial, its propagation scratch, undo buffers and spare
//! circuit summary are sized, so under DSTA, FASSTA and FULLSSTA (level
//! buckets or independent) a rejected trial (`resize`,
//! `refresh_undoable`, `undo`) and a kept one (`resize`,
//! `refresh_undoable`) allocate nothing: FULLSSTA's kernels write into
//! the level's reused result buffers and the state's flat slabs, and the
//! circuit reduction into the spare summary's PDF.
//!
//! These run laneless (the default model) at pool width 1: a
//! conditioned circuit reduction collects its per-lane PDFs, and a wide
//! level fans out over spawned threads, which free on their own thread
//! some blocks this one allocated. A from-scratch build keeps no
//! level-wide scratch: a new session holds exactly the blocks its fork
//! copies, and a fork copies the same handful of blocks whatever the
//! circuit's size. A one-shot FULLSSTA analysis makes as many
//! allocations whatever the circuit's size, since its report keeps the
//! state's PDF slab instead of one PDF per node, and those PDFs take no
//! more bytes than the state's slabs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use vartol_liberty::Library;
use vartol_netlist::generators::{benchmark, random_dag, RandomDagConfig};
use vartol_netlist::iscas::parse_bench;
use vartol_netlist::{GateId, Netlist};
use vartol_ssta::{CorrelationMode, EngineKind, FullSsta, SstaConfig, TimingSession};

/// The system allocator, counting each thread's allocations, live
/// blocks and live bytes.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
}

/// Adds `delta` to this thread's live byte count.
fn add_bytes(delta: isize) {
    let _ = LIVE_BYTES.try_with(|c| c.set(c.get() + delta));
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counters are const-initialized thread-locals, which never
// allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        let _ = LIVE.try_with(|c| c.set(c.get() + 1));
        add_bytes(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE.try_with(|c| c.set(c.get() - 1));
        add_bytes(-(layout.size() as isize));
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        add_bytes(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made on this
/// thread.
fn counted<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// Runs `f` and returns its result with how many more blocks are live on
/// this thread afterwards.
fn held<R>(f: impl FnOnce() -> R) -> (R, isize) {
    let before = LIVE.with(Cell::get);
    let out = f();
    (out, LIVE.with(Cell::get) - before)
}

/// Runs `f` and returns its result with how many more bytes are live on
/// this thread afterwards.
fn held_bytes<R>(f: impl FnOnce() -> R) -> (R, isize) {
    let before = LIVE_BYTES.with(Cell::get);
    let out = f();
    (out, LIVE_BYTES.with(Cell::get) - before)
}

fn dag(gates: usize, seed: u64, lib: &Library) -> Netlist {
    random_dag(
        RandomDagConfig {
            inputs: 32,
            gates,
            window: 64,
        },
        seed,
        lib,
    )
}

/// Every 97th resizable gate, with a size other than its own.
fn trial_gates(session: &TimingSession) -> Vec<(GateId, usize, usize)> {
    let n = session.netlist();
    n.gate_ids()
        .step_by(97)
        .filter_map(|g| {
            let gate = n.gate(g);
            let len = session
                .library()
                .group(gate.function()?, gate.fanins().len())?
                .len();
            let size = gate.size()?;
            (len > 1).then_some((g, size, (size + 1) % len))
        })
        .collect()
}

/// Allocations and node visits of each trial in one pass over `gates`:
/// a rejected trial, then a kept one that a second kept trial reverts,
/// so the pass ends at the sizes it started from.
fn trial_pass(
    session: &mut TimingSession,
    gates: &[(GateId, usize, usize)],
) -> Vec<(&'static str, usize, u64)> {
    let mut rows = Vec::new();
    for &(g, original, other) in gates {
        let mut trial = |what, size| {
            let visits = session.recompute_count();
            let ((), allocs) = counted(|| {
                session.resize(g, size);
                session.refresh_undoable();
                if what == "rejected" {
                    assert!(session.undo());
                }
            });
            rows.push((what, allocs, session.recompute_count() - visits));
        };
        trial("rejected", other);
        trial("kept", other);
        trial("kept back", original);
    }
    rows
}

/// A warm session: one pass sizes the buffers, so the second pass, over
/// the same cones, must not grow them.
fn warm_trials(
    kind: EngineKind,
    config: SstaConfig,
) -> (TimingSession, Vec<(&'static str, usize, u64)>) {
    let lib = Arc::new(Library::synthetic_90nm());
    let n = dag(2_000, 0xA110C, &lib);
    let mut session = TimingSession::with_kind(lib, config.with_threads(1), n, kind);
    let gates = trial_gates(&session);
    assert!(gates.len() >= 15, "{} trial gates", gates.len());
    let before = session.sizes();
    trial_pass(&mut session, &gates);
    let rows = trial_pass(&mut session, &gates);
    assert_eq!(session.sizes(), before);
    assert!(rows.iter().all(|&(_, _, visits)| visits > 0));
    (session, rows)
}

#[test]
fn warm_dsta_and_fassta_trials_allocate_nothing() {
    for kind in [EngineKind::Dsta, EngineKind::Fassta] {
        let (_, rows) = warm_trials(kind, SstaConfig::default());
        for (k, (what, allocs, visits)) in rows.into_iter().enumerate() {
            assert_eq!(allocs, 0, "{kind} trial {k} ({what}, {visits} visits)");
        }
    }
}

#[test]
fn warm_fullssta_trials_allocate_nothing() {
    for correlation in [CorrelationMode::LevelBuckets, CorrelationMode::Independent] {
        let config = SstaConfig::default().with_correlation(correlation);
        let (_, rows) = warm_trials(EngineKind::FullSsta, config);
        for (k, (what, allocs, visits)) in rows.into_iter().enumerate() {
            assert_eq!(
                allocs, 0,
                "{correlation:?} trial {k} ({what}, {visits} visits)"
            );
        }
    }
}

#[test]
fn a_fork_copies_a_constant_number_of_blocks() {
    let lib = Arc::new(Library::synthetic_90nm());
    let c17 = parse_bench(
        &std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../data/c17.bench"))
            .expect("readable"),
        "c17",
    )
    .expect("parses");
    let circuits = [
        c17,
        benchmark("c880", &lib).expect("known benchmark"),
        dag(2_000, 0xA110C, &lib),
    ];
    for correlation in [CorrelationMode::LevelBuckets, CorrelationMode::Independent] {
        let config = SstaConfig::default()
            .with_correlation(correlation)
            .with_threads(1);
        let blocks: Vec<usize> = circuits
            .iter()
            .map(|n| {
                let mut session = TimingSession::new(Arc::clone(&lib), config.clone(), n.clone());
                // Warm: a trial sizes the session's buffers, which a fork
                // does not copy.
                let gates = trial_gates(&session);
                trial_pass(&mut session, &gates[..gates.len().min(3)]);
                drop(session.fork());
                let (fork, allocs) = counted(|| session.fork());
                assert_eq!(fork.circuit_moments(), session.circuit_moments());
                allocs
            })
            .collect();
        assert!(
            blocks.iter().all(|&b| b == blocks[0]),
            "{correlation:?}: fork blocks {blocks:?} on c17, c880 and a 2,000-gate DAG"
        );
    }
}

#[test]
fn a_new_session_holds_no_level_wide_scratch() {
    let lib = Arc::new(Library::synthetic_90nm());
    let n = dag(2_500, 0x5C7A, &lib);
    // FULLSSTA's PDF kernels keep their per-thread scratch after the
    // first call; size it before counting.
    let config = SstaConfig::default().with_threads(1);
    drop(TimingSession::new(
        Arc::clone(&lib),
        config.clone(),
        n.clone(),
    ));
    for kind in [EngineKind::Dsta, EngineKind::Fassta, EngineKind::FullSsta] {
        let config = config.clone();
        let netlist = n.clone();
        let (_, netlist_blocks) = held(|| netlist.clone());
        let (_, config_blocks) = held(|| config.clone());
        let (session, session_blocks) =
            held(|| TimingSession::with_kind(Arc::clone(&lib), config, netlist, kind));
        // A fork copies every block the session holds, except scratch it
        // starts without, plus its own netlist and config and the
        // fork-point sizes.
        let (fork, fork_blocks) = held(|| session.fork());
        assert_eq!(
            session_blocks + netlist_blocks + config_blocks + 1,
            fork_blocks,
            "{kind}: the session holds blocks its fork does not copy"
        );
        drop(fork);
    }
}

#[test]
fn a_one_shot_fullssta_analysis_allocates_alike_at_any_size() {
    let lib = Library::synthetic_90nm();
    let circuits = [dag(1_000, 0x0A11, &lib), dag(4_000, 0x0A11, &lib)];
    let config = SstaConfig::default().with_threads(1);
    let engine = FullSsta::new(&lib, &config);
    // The PDF kernels keep their per-thread scratch after the first
    // call; size it before counting.
    for n in &circuits {
        drop(engine.analyze(n));
    }
    let allocs: Vec<usize> = circuits
        .iter()
        .map(|n| counted(|| engine.analyze(n)).1)
        .collect();
    assert_eq!(
        allocs[0], allocs[1],
        "allocations on a 1,000- and a 4,000-gate DAG"
    );
}

#[test]
fn a_fullssta_report_holds_no_more_pdf_bytes_than_the_slabs() {
    // What a FULLSSTA report or state holds beyond a FASSTA one of the
    // same circuit: the report's PDFs and circuit PDF, and the state's
    // PDF and bucket slabs and circuit PDF.
    let lib = Arc::new(Library::synthetic_90nm());
    let n = dag(2_000, 0xB17E5, &lib);
    let config = SstaConfig::default().with_threads(1);
    drop(FullSsta::new(&lib, &config).analyze(&n));
    let report_bytes = |kind: EngineKind| held_bytes(|| kind.analyze(&lib, &config, &n)).1;
    let report = report_bytes(EngineKind::FullSsta) - report_bytes(EngineKind::Fassta);
    let session_bytes = |kind| {
        let (netlist, config) = (n.clone(), config.clone());
        held_bytes(|| TimingSession::with_kind(Arc::clone(&lib), config, netlist, kind)).1
    };
    let slabs = session_bytes(EngineKind::FullSsta) - session_bytes(EngineKind::Fassta);
    assert!(
        report <= slabs,
        "the report's PDFs take {report} bytes, the state's slabs {slabs}"
    );
}
