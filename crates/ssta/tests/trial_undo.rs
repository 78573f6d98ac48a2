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
//!
//! The node visits of every session build and every step (its
//! `recompute_count` delta) must also equal
//! `tests/fixtures/trial_undo_visits.txt`: the refresh layer's
//! deterministic work counter. Regenerate it with
//! `cargo test -p vartol-ssta --test trial_undo -- --ignored` only when a
//! change to what a refresh visits is intended and documented.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use vartol_liberty::Library;
use vartol_netlist::generators::{random_dag, RandomDagConfig};
use vartol_netlist::iscas::parse_bench;
use vartol_netlist::{GateId, Netlist};
use vartol_ssta::{CorrelationMode, EngineKind, SstaConfig, TimingSession, VariationModel};
use vartol_stats::{DiscretePdf, Moments};

const KINDS: [EngineKind; 3] = [EngineKind::Dsta, EngineKind::Fassta, EngineKind::FullSsta];

const VISITS_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/trial_undo_visits.txt"
);

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
            .map(|id| {
                report
                    .arrival_pdf(id)
                    .map(|p| pdf_bits(&p.to_pdf()))
                    .unwrap_or_default()
            })
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
/// actually reverted a trial, with the node visits of the build and of
/// each step. With `pinned`, every one of those counts must equal its
/// pinned value.
fn run_sequence(
    lib: &Library,
    config: &SstaConfig,
    kind: EngineKind,
    netlist: &Netlist,
    seed: u64,
    steps: usize,
    pinned: Option<&[u64]>,
) -> (usize, Vec<u64>) {
    let gates = resizable(netlist, lib);
    assert!(!gates.is_empty(), "{}: nothing to resize", netlist.name());
    let mut session = TimingSession::with_kind(lib, config.clone(), netlist.clone(), kind);
    let mut rng = StdRng::seed_from_u64(seed);
    let what = |step: usize| format!("{} {kind} seed {seed} step {step}", netlist.name());
    // visits[0] is the build, visits[s + 1] step s; each entry is checked
    // when the next step starts (a step may `continue`) or after the loop.
    let mut visits = vec![session.recompute_count()];
    let mut counted = session.recompute_count();
    let mut close_step = |session: &TimingSession, visits: &mut Vec<u64>| {
        let delta = session.recompute_count() - counted;
        counted = session.recompute_count();
        visits.push(delta);
    };
    let check = |visits: &[u64]| {
        if let Some(pinned) = pinned {
            let at = visits.len() - 1;
            assert_eq!(
                visits[at],
                pinned[at],
                "{}: node visits moved",
                at.checked_sub(1)
                    .map_or_else(|| what(0) + " (build)", &what)
            );
        }
    };
    check(&visits);

    // The state as of the last refresh that did work (or an undo), and
    // the state an undo would return to, if the log is still live.
    let mut refreshed = capture(&mut session);
    let mut undo_target: Option<Snapshot> = None;
    let mut saved_sizes = session.sizes();
    let mut reverted = 0;

    for step in 0..steps {
        if step > 0 {
            close_step(&session, &mut visits);
            check(&visits);
        }
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
    if steps > 0 {
        close_step(&session, &mut visits);
        check(&visits);
    }
    (reverted, visits)
}

/// The pinned visit counts, keyed by `"<circuit> <config> <kind> <seed>"`.
fn pinned_visits() -> HashMap<String, Vec<u64>> {
    let text = std::fs::read_to_string(VISITS_PATH)
        .unwrap_or_else(|e| panic!("{VISITS_PATH}: {e} (run the ignored regeneration test)"));
    text.lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (key, counts) = l.split_once(':').expect("`key: counts`");
            let counts = counts
                .split_whitespace()
                .map(|c| c.parse().expect("a visit count"))
                .collect();
            (key.to_owned(), counts)
        })
        .collect()
}

/// Runs every configuration and engine on one circuit; returns the
/// fixture line of each run.
fn check_all_engines(
    lib: &Library,
    netlist: &Netlist,
    seed: u64,
    steps: usize,
    pinned: Option<&HashMap<String, Vec<u64>>>,
) -> Vec<String> {
    let mut lines = Vec::new();
    for (name, config) in configs() {
        for kind in KINDS {
            let key = format!("{} {name} {kind} {seed:#x}", netlist.name());
            let want = pinned.map(|p| {
                p.get(&key)
                    .unwrap_or_else(|| panic!("{key}: not pinned"))
                    .as_slice()
            });
            let (reverted, visits) = run_sequence(lib, &config, kind, netlist, seed, steps, want);
            assert!(
                reverted > 0,
                "{} {name} {kind}: the sequence must undo something",
                netlist.name()
            );
            let counts: Vec<String> = visits.iter().map(u64::to_string).collect();
            lines.push(format!("{key}: {}", counts.join(" ")));
        }
    }
    lines
}

fn random_dag_cases(lib: &Library) -> Vec<(Netlist, u64, usize)> {
    (0..4u64)
        .map(|seed| {
            let cfg = RandomDagConfig {
                inputs: 4 + seed as usize,
                gates: 30 + 25 * seed as usize,
                window: 3 + 4 * seed as usize,
            };
            (random_dag(cfg, seed, lib), 0x7a1 ^ seed, 60)
        })
        .collect()
}

fn shipped_bench_cases() -> Vec<(Netlist, u64, usize)> {
    let data = concat!(env!("CARGO_MANIFEST_DIR"), "/../../data");
    let mut paths: Vec<_> = std::fs::read_dir(data)
        .expect("data directory")
        .map(|entry| entry.expect("entry").path())
        .filter(|path| path.extension().is_some_and(|e| e == "bench"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|path| {
            let text = std::fs::read_to_string(&path).expect("readable");
            let name = path.file_stem().expect("stem").to_string_lossy();
            let n = parse_bench(&text, &name).expect("parses").endpoint_marked();
            (n, 0xbe7c, 40)
        })
        .collect()
}

#[test]
fn undo_restores_the_pre_trial_state_on_random_dags() {
    let lib = Library::synthetic_90nm();
    let pinned = pinned_visits();
    for (n, seed, steps) in random_dag_cases(&lib) {
        check_all_engines(&lib, &n, seed, steps, Some(&pinned));
    }
}

#[test]
fn undo_restores_the_pre_trial_state_on_shipped_benches() {
    let lib = Library::synthetic_90nm();
    let pinned = pinned_visits();
    let cases = shipped_bench_cases();
    assert!(cases.len() >= 5, "found {} .bench files", cases.len());
    for (n, seed, steps) in cases {
        check_all_engines(&lib, &n, seed, steps, Some(&pinned));
    }
}

/// Rewrites the visit fixture from the current implementation; run only
/// for an intended, documented change to what a refresh visits.
#[test]
#[ignore = "rewrites the trial visit fixture; run only for an intended change in node visits"]
fn regenerate_trial_visit_fixture() {
    let lib = Library::synthetic_90nm();
    let mut text = String::from(
        "# Node visits (recompute_count deltas) of the seeded trial_undo\n\
         # histories: the session build, then each step. See\n\
         # crates/ssta/tests/trial_undo.rs for the cases.\n",
    );
    let cases = random_dag_cases(&lib)
        .into_iter()
        .chain(shipped_bench_cases());
    for (n, seed, steps) in cases {
        for line in check_all_engines(&lib, &n, seed, steps, None) {
            text.push_str(&line);
            text.push('\n');
        }
    }
    std::fs::write(VISITS_PATH, text).expect("fixture write");
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
