//! FULLSSTA answers pinned across changes to how its state is stored.
//!
//! `tests/fixtures/fullssta_state_reports.txt` holds report digests
//! captured while every node's level-bucket vector still spanned the
//! whole circuit depth. A layout change (prefix vectors, reports that
//! move their PDFs) must reproduce them bit for bit:
//!
//! - the default configuration (laneless, level buckets) on a deep
//!   random DAG;
//! - c432 and c880 under a correlated model (die-to-die conditioning
//!   lanes with damped bucket overlap, plus a spatial residual);
//! - on each of these, a seeded history of `resize`, `refresh`,
//!   `refresh_undoable`, `undo` and `fork` + `commit`, with the session's
//!   `current_report` digested after every step.
//!
//! Regenerate with `cargo test --test fullssta_state -- --ignored` only
//! when a numeric change is intended and documented.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vartol::liberty::Library;
use vartol::netlist::generators::{benchmark, random_dag, RandomDagConfig};
use vartol::netlist::{GateId, Netlist};
use vartol::ssta::{
    EngineKind, Fnv64, FullSsta, GlobalSource, SpatialGrid, SstaConfig, TimingReport,
    TimingSession, VariationModel,
};

const FIXTURE_PATH: &str = "tests/fixtures/fullssta_state_reports.txt";
const HISTORY_STEPS: usize = 24;

/// The `report_digest` recipe of `tests/engine_determinism.rs`: every
/// per-node moment and PDF, the circuit moments and PDF and the worst
/// output, fed in as raw IEEE bits.
fn report_digest(netlist: &Netlist, report: &TimingReport) -> u64 {
    let mut h = Fnv64::new();
    for m in report.arrivals() {
        h.write_u64(m.mean.to_bits());
        h.write_u64(m.var.to_bits());
    }
    for id in netlist.node_ids() {
        if let Some(pdf) = report.arrival_pdf(id) {
            for (&v, &p) in pdf.values().iter().zip(pdf.probs()) {
                h.write_u64(v.to_bits());
                h.write_u64(p.to_bits());
            }
        }
    }
    let c = report.circuit_moments();
    h.write_u64(c.mean.to_bits());
    h.write_u64(c.var.to_bits());
    if let Some(pdf) = report.circuit_pdf() {
        for (&v, &p) in pdf.values().iter().zip(pdf.probs()) {
            h.write_u64(v.to_bits());
            h.write_u64(p.to_bits());
        }
    }
    h.write_u64(report.worst_output().index() as u64);
    h.finish()
}

/// The correlated model of `tests/engine_determinism.rs`.
fn correlated_model() -> VariationModel {
    VariationModel::none()
        .with_global_source(GlobalSource::with_variance_share("d2d", 0.4))
        .with_spatial(SpatialGrid::with_variance_share(4, 4, 2.0, 0.2))
        .normalized()
}

/// A narrow-window random DAG: deep (89 levels) but small enough for a
/// debug build.
fn deep_dag(lib: &Library) -> Netlist {
    random_dag(
        RandomDagConfig {
            inputs: 20,
            gates: 400,
            window: 16,
        },
        0xDEE9,
        lib,
    )
}

/// The pinned cases: `(name, netlist, config)`.
fn cases(lib: &Library) -> Vec<(&'static str, Netlist, SstaConfig)> {
    let correlated = SstaConfig::default().with_model(correlated_model());
    vec![
        ("deep_dag", deep_dag(lib), SstaConfig::default()),
        (
            "c432",
            benchmark("c432", lib).expect("known"),
            correlated.clone(),
        ),
        ("c880", benchmark("c880", lib).expect("known"), correlated),
    ]
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

/// Runs the seeded history and folds the digest of every step's
/// `current_report` (and every returned circuit moment) into one value.
fn history_digest(lib: &Library, netlist: &Netlist, config: &SstaConfig, seed: u64) -> u64 {
    let gates = resizable(netlist, lib);
    let mut session =
        TimingSession::with_kind(lib, config.clone(), netlist.clone(), EngineKind::FullSsta);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut h = Fnv64::new();
    let mut ran = [0usize; 4];
    let pick = |rng: &mut StdRng| {
        let (g, len) = gates[rng.gen_range(0..gates.len())];
        (g, rng.gen_range(0..len))
    };
    for _ in 0..HISTORY_STEPS {
        let op = rng.gen_range(0..4u8);
        ran[usize::from(op)] += 1;
        h.write_u64(u64::from(op));
        let moments = match op {
            0 => {
                let (g, size) = pick(&mut rng);
                session.resize(g, size);
                session.refresh()
            }
            1 | 2 => {
                for _ in 0..rng.gen_range(1..3) {
                    let (g, size) = pick(&mut rng);
                    session.resize(g, size);
                }
                let trial = session.refresh_undoable();
                let report = session.current_report();
                h.write_u64(report_digest(session.netlist(), &report));
                h.write_u64(trial.mean.to_bits());
                if op == 1 {
                    assert!(session.undo(), "a logged trial undoes");
                }
                session.circuit_moments()
            }
            _ => {
                let mut branch = session.fork();
                for _ in 0..rng.gen_range(1..4) {
                    let (g, size) = pick(&mut rng);
                    branch.resize(g, size);
                }
                branch.refresh();
                session.commit(branch).expect("an unchanged parent commits")
            }
        };
        h.write_u64(moments.mean.to_bits());
        h.write_u64(moments.var.to_bits());
        let report = session.current_report();
        h.write_u64(report_digest(session.netlist(), &report));
    }
    assert!(ran.iter().all(|&k| k > 0), "every operation ran: {ran:?}");
    h.finish()
}

fn fixture_lines(lib: &Library) -> Vec<String> {
    let mut lines = Vec::new();
    for (name, netlist, config) in cases(lib) {
        let report = FullSsta::new(lib, &config).analyze(&netlist);
        let c = report.circuit_moments();
        lines.push(format!(
            "{name} analyze mean={:016x} var={:016x} digest={:016x}",
            c.mean.to_bits(),
            c.var.to_bits(),
            report_digest(&netlist, &report)
        ));
        lines.push(format!(
            "{name} history steps={HISTORY_STEPS} digest={:016x}",
            history_digest(lib, &netlist, &config, 0x5717)
        ));
    }
    lines
}

#[test]
fn deep_dag_is_deep() {
    let lib = Library::synthetic_90nm();
    let session = TimingSession::new(&lib, SstaConfig::default(), deep_dag(&lib));
    assert!(
        session.propagation_levels() >= 60,
        "{} levels",
        session.propagation_levels()
    );
}

#[test]
fn fullssta_reports_match_the_full_length_bucket_fixture() {
    let fixture = std::fs::read_to_string(FIXTURE_PATH)
        .unwrap_or_else(|e| panic!("{FIXTURE_PATH}: {e} (run the ignored regeneration test)"));
    let want: Vec<&str> = fixture
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    let got = fixture_lines(&Library::synthetic_90nm());
    assert_eq!(got.len(), want.len(), "fixture row count");
    for (got, want) in got.iter().zip(&want) {
        assert_eq!(got.as_str(), *want, "FULLSSTA answers moved");
    }
}

/// Rewrites the fixture from the current implementation; run only for
/// an intended, documented numeric change.
#[test]
#[ignore = "rewrites the FULLSSTA state fixture; run only for an intended numeric change"]
fn regenerate_fullssta_state_fixture() {
    let mut text = String::from(
        "# FULLSSTA report digests captured with full-length level-bucket\n\
         # vectors. Fields are IEEE-754 bit patterns / FNV-1a digests in hex;\n\
         # see tests/fullssta_state.rs for the cases and the history.\n",
    );
    for line in fixture_lines(&Library::synthetic_90nm()) {
        text.push_str(&line);
        text.push('\n');
    }
    std::fs::write(FIXTURE_PATH, text).expect("fixture write");
}
