//! An undone trial is the pre-trial session, bit for bit.
//!
//! Seeded random sequences of `resize`, `restore_sizes`, `refresh`,
//! `refresh_undoable` and `undo` run on random DAGs and on the
//! endpoint-marked `data/*.bench` circuits, under DSTA, FASSTA and
//! FULLSSTA, each laneless, die-to-die conditioned and with level
//! buckets. After every successful `undo` the session must equal the
//! snapshot taken before the undone refresh: sizes, dirty flag, arrivals,
//! electrical values, circuit moments and PDF, worst output and every
//! node's report PDF. `undo` never visits a node, and with nothing to
//! undo it returns `false` and changes nothing.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vartol_liberty::Library;
use vartol_netlist::generators::{random_dag, RandomDagConfig};
use vartol_netlist::iscas::parse_bench;
use vartol_netlist::{GateId, Netlist};
use vartol_ssta::{CorrelationMode, EngineKind, SstaConfig, TimingSession, VariationModel};
use vartol_stats::{DiscretePdf, Moments};

const KINDS: [EngineKind; 3] = [EngineKind::Dsta, EngineKind::Fassta, EngineKind::FullSsta];

/// Laneless, die-to-die conditioned, and level-bucket configurations.
fn configs() -> [(&'static str, SstaConfig); 3] {
    [
        ("laneless", SstaConfig::default()),
        (
            "die_to_die",
            SstaConfig::default().with_model(VariationModel::die_to_die(0.5)),
        ),
        (
            "level_buckets",
            SstaConfig::default().with_correlation(CorrelationMode::LevelBuckets),
        ),
    ]
}

fn moment_bits(m: Moments) -> (u64, u64) {
    (m.mean.to_bits(), m.var.to_bits())
}

fn pdf_bits(p: &DiscretePdf) -> Vec<u64> {
    p.values()
        .iter()
        .chain(p.probs())
        .map(|x| x.to_bits())
        .collect()
}

/// Everything a reader can observe of a session, as bits.
#[derive(Debug, Clone, PartialEq)]
struct Snapshot {
    sizes: Vec<usize>,
    dirty: bool,
    moments: (u64, u64),
    circuit_pdf: Option<Vec<u64>>,
    worst_output: GateId,
    arrivals: Vec<(u64, u64)>,
    /// Per node: load, slew, nominal delay, delay moments.
    electrical: Vec<[u64; 5]>,
    /// Per node report PDFs; read only when clean, since
    /// `current_report` refreshes first.
    report_pdfs: Option<Vec<Vec<u64>>>,
}

fn capture(session: &mut TimingSession) -> Snapshot {
    let timing = session.timing();
    let electrical = session
        .netlist()
        .node_ids()
        .map(|id| {
            let d = timing.delay_moments(id);
            [
                timing.load(id).to_bits(),
                timing.slew(id).to_bits(),
                timing.nominal_delay(id).to_bits(),
                d.mean.to_bits(),
                d.var.to_bits(),
            ]
        })
        .collect();
    let dirty = session.is_dirty();
    let report_pdfs = (!dirty).then(|| {
        let report = session.current_report();
        session
            .netlist()
            .node_ids()
            .map(|id| report.arrival_pdf(id).map(pdf_bits).unwrap_or_default())
            .collect()
    });
    Snapshot {
        sizes: session.sizes(),
        dirty,
        moments: moment_bits(session.circuit_moments()),
        circuit_pdf: session.circuit_pdf().map(pdf_bits),
        worst_output: session.worst_output(),
        arrivals: session
            .arrivals()
            .iter()
            .copied()
            .map(moment_bits)
            .collect(),
        electrical,
        report_pdfs,
    }
}

/// `(gate, sizes in its library group)` for every resizable cell.
fn resizable(netlist: &Netlist, lib: &Library) -> Vec<(GateId, usize)> {
    netlist
        .gate_ids()
        .filter_map(|g| {
            let gate = netlist.gate(g);
            let group = lib.group(gate.function()?, gate.fanins().len())?;
            (group.len() > 1).then_some((g, group.len()))
        })
        .collect()
}

/// Runs one seeded operation sequence and returns how many undos
/// actually reverted a trial.
fn run_sequence(
    lib: &Library,
    config: &SstaConfig,
    kind: EngineKind,
    netlist: &Netlist,
    seed: u64,
    steps: usize,
) -> usize {
    let gates = resizable(netlist, lib);
    assert!(!gates.is_empty(), "{}: nothing to resize", netlist.name());
    let mut session = TimingSession::with_kind(lib, config.clone(), netlist.clone(), kind);
    let mut rng = StdRng::seed_from_u64(seed);
    let what = |step: usize| format!("{} {kind} seed {seed} step {step}", netlist.name());

    // The state as of the last refresh that did work (or an undo), and
    // the state an undo would return to, if the log is still live.
    let mut refreshed = capture(&mut session);
    let mut undo_target: Option<Snapshot> = None;
    let mut saved_sizes = session.sizes();
    let mut reverted = 0;

    for step in 0..steps {
        let op = rng.gen_range(0..10u8);
        match op {
            0 | 1 => {
                let (g, len) = gates[rng.gen_range(0..gates.len())];
                session.resize(g, rng.gen_range(0..len));
                undo_target = None;
            }
            2 => saved_sizes = session.sizes(),
            3 => {
                session.restore_sizes(&saved_sizes);
                undo_target = None;
            }
            4 => {
                if session.is_dirty() {
                    undo_target = None;
                }
                let m = session.refresh();
                refreshed = capture(&mut session);
                assert_eq!(moment_bits(m), refreshed.moments, "{}", what(step));
            }
            _ => {
                // A trial: 0-2 more resizes on top of any pending ones,
                // an undoable refresh, and usually an undo right away.
                if op >= 7 {
                    for _ in 0..rng.gen_range(0..3) {
                        let (g, len) = gates[rng.gen_range(0..gates.len())];
                        session.resize(g, rng.gen_range(0..len));
                    }
                    let before = refreshed.clone();
                    let was_dirty = session.is_dirty();
                    let m = session.refresh_undoable();
                    refreshed = capture(&mut session);
                    assert_eq!(moment_bits(m), refreshed.moments, "{}", what(step));
                    undo_target = was_dirty.then_some(before);
                    if op == 9 {
                        continue; // leave the log live for a later op
                    }
                }
                let visits = session.recompute_count();
                let untouched = capture(&mut session);
                let undone = session.undo();
                assert_eq!(
                    session.recompute_count(),
                    visits,
                    "{}: undo visits nothing",
                    what(step)
                );
                assert_eq!(undone, undo_target.is_some(), "{}", what(step));
                let now = capture(&mut session);
                match undo_target.take() {
                    Some(target) => {
                        assert_eq!(
                            now,
                            target,
                            "{}: undo restores the pre-trial state",
                            what(step)
                        );
                        refreshed = now;
                        reverted += 1;
                    }
                    None => assert_eq!(
                        now,
                        untouched,
                        "{}: a refused undo changes nothing",
                        what(step)
                    ),
                }
            }
        }
    }
    reverted
}

fn check_all_engines(lib: &Library, netlist: &Netlist, seed: u64, steps: usize) {
    for (name, config) in configs() {
        for kind in KINDS {
            let reverted = run_sequence(lib, &config, kind, netlist, seed, steps);
            assert!(
                reverted > 0,
                "{} {name} {kind}: the sequence must undo something",
                netlist.name()
            );
        }
    }
}

#[test]
fn undo_restores_the_pre_trial_state_on_random_dags() {
    let lib = Library::synthetic_90nm();
    for seed in 0..4u64 {
        let cfg = RandomDagConfig {
            inputs: 4 + seed as usize,
            gates: 30 + 25 * seed as usize,
            window: 3 + 4 * seed as usize,
        };
        let n = random_dag(cfg, seed, &lib);
        check_all_engines(&lib, &n, 0x7a1 ^ seed, 60);
    }
}

#[test]
fn undo_restores_the_pre_trial_state_on_shipped_benches() {
    let lib = Library::synthetic_90nm();
    let data = concat!(env!("CARGO_MANIFEST_DIR"), "/../../data");
    let mut benches = 0;
    for entry in std::fs::read_dir(data).expect("data directory") {
        let path = entry.expect("entry").path();
        if path.extension().is_some_and(|e| e == "bench") {
            let text = std::fs::read_to_string(&path).expect("readable");
            let name = path.file_stem().expect("stem").to_string_lossy();
            let n = parse_bench(&text, &name).expect("parses").endpoint_marked();
            check_all_engines(&lib, &n, 0xbe7c, 40);
            benches += 1;
        }
    }
    assert!(benches >= 5, "found {benches} .bench files");
}

#[test]
fn undo_without_a_live_log_returns_false_and_changes_nothing() {
    let lib = Library::synthetic_90nm();
    let n = random_dag(
        RandomDagConfig {
            inputs: 6,
            gates: 60,
            window: 8,
        },
        3,
        &lib,
    );
    let (g, len) = resizable(&n, &lib)[0];
    for kind in KINDS {
        let mut session = TimingSession::with_kind(&lib, SstaConfig::default(), n.clone(), kind);
        let original = session.netlist().gate(g).size().expect("cell");
        let other = (original + 1) % len;
        let fresh = capture(&mut session);

        // Nothing logged yet.
        assert!(!session.undo(), "{kind}: fresh session");
        assert_eq!(capture(&mut session), fresh);

        // A plain refresh logs nothing.
        session.resize(g, other);
        session.refresh();
        let refreshed = capture(&mut session);
        assert!(!session.undo(), "{kind}: plain refresh");
        assert_eq!(capture(&mut session), refreshed);

        // An undoable refresh with nothing to do logs nothing.
        assert_eq!(session.refresh_undoable(), session.circuit_moments());
        assert!(!session.undo(), "{kind}: clean undoable refresh");
        assert_eq!(capture(&mut session), refreshed);

        // A later resize drops the log, even one that cancels itself.
        session.resize(g, original);
        session.refresh_undoable();
        session.resize(g, other);
        session.resize(g, original);
        assert!(!session.is_dirty());
        let after = capture(&mut session);
        assert!(!session.undo(), "{kind}: resize after the refresh");
        assert_eq!(capture(&mut session), after);

        // So do a restore and a rebuild.
        session.resize(g, other);
        session.refresh_undoable();
        session.restore_sizes(&session.sizes());
        assert!(!session.undo(), "{kind}: restore after the refresh");
        session.resize(g, original);
        session.refresh_undoable();
        session.rebuild();
        assert!(!session.undo(), "{kind}: rebuild after the refresh");

        // A live log undoes exactly once.
        let before = capture(&mut session);
        session.resize(g, other);
        session.refresh_undoable();
        assert!(session.undo(), "{kind}: live log");
        assert_eq!(capture(&mut session), before);
        assert!(!session.undo(), "{kind}: second undo");
        assert_eq!(capture(&mut session), before);
    }
}

#[test]
fn branches_undo_like_sessions() {
    let lib = Library::synthetic_90nm();
    let n = random_dag(
        RandomDagConfig {
            inputs: 6,
            gates: 80,
            window: 10,
        },
        11,
        &lib,
    );
    let gates = resizable(&n, &lib);
    let mut session = TimingSession::new(&lib, SstaConfig::default(), n);
    let mut branch = session.fork();
    let base = (branch.sizes(), branch.refresh(), branch.recompute_count());
    for &(g, len) in gates.iter().take(10) {
        let current = branch.netlist().gate(g).size().expect("cell");
        branch.resize(g, (current + 1) % len);
        assert_ne!(branch.refresh_undoable(), base.1);
        let visits = branch.recompute_count();
        assert!(branch.undo());
        assert_eq!(branch.recompute_count(), visits);
        assert_eq!((branch.sizes(), branch.refresh()), (base.0.clone(), base.1));
        assert!(!branch.is_diverged());
    }

    // A fork-point restore cancels pending resizes without any visit.
    let (g, len) = gates[0];
    let current = branch.netlist().gate(g).size().expect("cell");
    branch.resize(g, (current + 1) % len);
    branch.restore_fork_point();
    let visits = branch.recompute_count();
    assert_eq!(branch.refresh(), base.1);
    assert_eq!(branch.recompute_count(), visits);
    session.commit(branch).expect("an undone branch commits");
    assert_eq!(session.circuit_moments(), base.1);
}
