//! The branch (forked session) contracts, end to end.
//!
//! * N divergent branches of one session evaluate **bit-identically at
//!   every propagation pool width** — the width is a throughput knob,
//!   never an answer knob (CI re-runs this suite at 1/2/8 built-in
//!   widths plus a 16-wide pool via `VARTOL_SIZER_THREADS`).
//! * A branch's answer equals a from-scratch session built at the
//!   branch's sizes, bit for bit — speculation is never an
//!   approximation.
//! * Committing one branch, or dropping all of them, leaves the parent
//!   exactly where the equivalent direct operations would have put it;
//!   an untouched parent stays byte-equal to an untouched control.
//! * A panic inside one branch (a bad resize) is contained to that
//!   branch: siblings still answer correctly and the parent still
//!   commits.
//! * The acceptance number: 8 divergent single-gate branches of c7552
//!   perform **strictly fewer** total node recomputations than 8
//!   independent session rebuilds, while answering bit-identically at
//!   pool widths 1/2/8.

use std::panic::{catch_unwind, AssertUnwindSafe};

use vartol::liberty::Library;
use vartol::netlist::generators::{benchmark, preset};
use vartol::netlist::iscas::parse_bench;
use vartol::netlist::{GateId, Netlist};
use vartol::ssta::{SstaConfig, TimingSession};

/// The compared pool widths: 1 (serial reference), 2, 8, plus any extra
/// width from `VARTOL_SIZER_THREADS` (the same knob the other
/// determinism suites use for the 16-wide CI rows).
fn widths() -> Vec<usize> {
    let mut widths = vec![1, 2, 8];
    if let Ok(extra) = std::env::var("VARTOL_SIZER_THREADS") {
        widths.push(
            extra
                .parse()
                .expect("VARTOL_SIZER_THREADS must be a thread count"),
        );
    }
    widths
}

/// Builds a named circuit spanning all three front doors: the shipped
/// `.bench` file (c17), a preset generator (adder_16), and the paper's
/// benchmark suite (c7552).
fn circuit(name: &str, library: &Library) -> Netlist {
    match name {
        "c17" => {
            let path = concat!(env!("CARGO_MANIFEST_DIR"), "/data/c17.bench");
            let text = std::fs::read_to_string(path).expect("data/c17.bench ships with the repo");
            parse_bench(&text, "c17").expect("c17 parses")
        }
        "adder_16" => preset(name, library).expect("known preset"),
        _ => benchmark(name, library).expect("known benchmark"),
    }
}

fn session(name: &str, threads: usize) -> TimingSession {
    let library = Library::synthetic_90nm();
    let netlist = circuit(name, &library);
    TimingSession::new(
        library,
        SstaConfig {
            threads,
            ..SstaConfig::default()
        },
        netlist,
    )
}

/// `n` gates spread evenly across the circuit, each paired with a valid
/// size different from its current one (every synthetic-90nm cell group
/// has at least 6 drives).
fn spread_resizes(session: &TimingSession, n: usize) -> Vec<(GateId, usize)> {
    let gates: Vec<GateId> = session.netlist().gate_ids().collect();
    assert!(gates.len() >= n, "need {n} gates, have {}", gates.len());
    (0..n)
        .map(|i| {
            let g = gates[i * gates.len() / n];
            let current = session.netlist().gate(g).size().unwrap_or(0);
            let size = if current == 3 + i % 3 { 2 } else { 3 + i % 3 };
            (g, size)
        })
        .collect()
}

/// Four bitwise observables: three summary words plus per-node
/// (mean, var) arrival bits.
type Signature = (u64, u64, u64, Vec<(u64, u64)>);

/// Everything observable about an evaluated branch, bitwise.
fn branch_signature(branch: &mut TimingSession) -> Signature {
    let moments = branch.refresh();
    let arrivals = branch
        .arrivals()
        .iter()
        .map(|m| (m.mean.to_bits(), m.var.to_bits()))
        .collect();
    (
        moments.mean.to_bits(),
        moments.var.to_bits(),
        branch.total_area().to_bits(),
        arrivals,
    )
}

/// Everything observable about a parent session, bitwise.
fn session_signature(session: &TimingSession) -> Signature {
    let moments = session.circuit_moments();
    (
        session.size_fingerprint(),
        moments.mean.to_bits(),
        moments.var.to_bits(),
        session
            .arrivals()
            .iter()
            .map(|m| (m.mean.to_bits(), m.var.to_bits()))
            .collect(),
    )
}

#[test]
fn divergent_branches_are_bit_identical_at_every_pool_width() {
    for name in ["c17", "adder_16"] {
        let mut reference: Option<Vec<Signature>> = None;
        for threads in widths() {
            let mut parent = session(name, threads);
            parent.refresh();
            let signatures: Vec<_> = spread_resizes(&parent, 4)
                .into_iter()
                .map(|(gate, size)| {
                    let mut branch = parent.fork();
                    branch.try_resize(gate, size).expect("valid size");
                    branch_signature(&mut branch)
                })
                .collect();
            match &reference {
                None => reference = Some(signatures),
                Some(expected) => assert_eq!(
                    expected, &signatures,
                    "{name}: {threads}-wide pool diverged from the serial reference"
                ),
            }
        }
    }
}

#[test]
fn branch_answers_equal_a_from_scratch_session() {
    for name in ["c17", "adder_16"] {
        let mut parent = session(name, 1);
        parent.refresh();
        let resizes = spread_resizes(&parent, 2);

        let mut branch = parent.fork();
        for &(gate, size) in &resizes {
            branch.try_resize(gate, size).expect("valid size");
        }
        let branch_moments = branch.refresh();

        let library = Library::synthetic_90nm();
        let mut netlist = circuit(name, &library);
        for &(gate, size) in &resizes {
            netlist.set_size(gate, size);
        }
        let mut scratch = TimingSession::new(library, SstaConfig::default(), netlist);
        let scratch_moments = scratch.refresh();

        assert_eq!(
            branch_moments.mean.to_bits(),
            scratch_moments.mean.to_bits()
        );
        assert_eq!(branch_moments.var.to_bits(), scratch_moments.var.to_bits());
        assert_eq!(
            branch.arrivals(),
            scratch.arrivals(),
            "{name}: branch arrivals must equal the from-scratch session's"
        );
    }
}

#[test]
fn commit_and_drop_leave_the_parent_exactly_where_direct_ops_would() {
    let mut parent = session("adder_16", 1);
    parent.refresh();
    let resizes = spread_resizes(&parent, 3);
    let (commit_gate, commit_size) = resizes[0];

    // Control A: never forked, never mutated.
    let mut untouched = session("adder_16", 1);
    untouched.refresh();
    // Control B: the committed resize applied directly.
    let mut direct = session("adder_16", 1);
    direct.try_resize(commit_gate, commit_size).expect("valid");
    direct.refresh();

    // Dropping branches — diverged or not — must not move the parent.
    {
        let mut doomed = parent.fork();
        doomed
            .try_resize(resizes[1].0, resizes[1].1)
            .expect("valid");
        doomed.refresh();
        let undiverged = parent.fork();
        drop(doomed);
        drop(undiverged);
    }
    assert_eq!(
        session_signature(&parent),
        session_signature(&untouched),
        "dropped branches leaked state into the parent"
    );

    // Committing one branch moves the parent to exactly the state the
    // direct resize produces — and sizes it identically.
    let mut winner = parent.fork();
    winner.try_resize(commit_gate, commit_size).expect("valid");
    winner.refresh();
    let committed = parent.commit(winner).expect("clean commit");
    assert_eq!(
        session_signature(&parent),
        session_signature(&direct),
        "committed parent diverged from the direct-resize control"
    );
    assert_eq!(
        committed.mean.to_bits(),
        direct.circuit_moments().mean.to_bits()
    );
    assert_eq!(parent.sizes(), direct.sizes());
}

#[test]
fn panic_in_one_branch_does_not_poison_its_siblings() {
    let mut parent = session("c17", 1);
    parent.refresh();
    let resizes = spread_resizes(&parent, 2);

    let mut healthy = parent.fork();
    healthy
        .try_resize(resizes[0].0, resizes[0].1)
        .expect("valid size");

    // Sizing a primary input panics inside the doomed branch (the
    // unchecked `resize` is documented to do so).
    let input = parent.netlist().inputs()[0];
    let mut doomed = parent.fork();
    let panicked = catch_unwind(AssertUnwindSafe(|| doomed.resize(input, 3)));
    assert!(panicked.is_err(), "resizing a primary input must panic");
    drop(doomed);

    // The sibling still answers, and still bit-equal to from-scratch.
    let healthy_moments = healthy.refresh();
    let library = Library::synthetic_90nm();
    let mut netlist = circuit("c17", &library);
    netlist.set_size(resizes[0].0, resizes[0].1);
    let scratch = TimingSession::new(library, SstaConfig::default(), netlist);
    assert_eq!(
        healthy_moments.mean.to_bits(),
        scratch.circuit_moments().mean.to_bits()
    );

    // And the parent still commits the healthy branch.
    parent.commit(healthy).expect("sibling commit survives");
}

/// The PR's acceptance number, also asserted in CI at an explicit
/// 16-wide pool: 8 divergent single-gate branches of the paper's
/// largest circuit recompute strictly fewer nodes in total than 8
/// independent session rebuilds, while answering bit-identically at
/// every pool width.
#[test]
fn eight_c7552_branches_beat_eight_rebuilds_and_agree_across_widths() {
    let mut reference: Option<Vec<(u64, u64, u64)>> = None;
    let mut branch_visits_at_1 = 0u64;
    for threads in widths() {
        let mut parent = session("c7552", threads);
        parent.refresh();
        let resizes = spread_resizes(&parent, 8);
        let mut total_branch_visits = 0u64;
        let signatures: Vec<(u64, u64, u64)> = resizes
            .iter()
            .map(|&(gate, size)| {
                let mut branch = parent.fork();
                branch.try_resize(gate, size).expect("valid size");
                let moments = branch.refresh();
                total_branch_visits += branch.recompute_count();
                (
                    moments.mean.to_bits(),
                    moments.var.to_bits(),
                    branch.total_area().to_bits(),
                )
            })
            .collect();
        match &reference {
            None => {
                reference = Some(signatures);
                branch_visits_at_1 = total_branch_visits;
            }
            Some(expected) => assert_eq!(
                expected, &signatures,
                "c7552 branches: {threads}-wide pool diverged from the serial reference"
            ),
        }
    }

    // The rebuild baseline: 8 fresh sessions, each resized on one gate
    // and built from scratch. `recompute_count` on a session counts
    // every node visit including the initial full build.
    let resizes = {
        let mut p = session("c7552", 1);
        p.refresh();
        spread_resizes(&p, 8)
    };
    let mut rebuild_visits = 0u64;
    for &(gate, size) in &resizes {
        let library = Library::synthetic_90nm();
        let mut netlist = circuit("c7552", &library);
        netlist.set_size(gate, size);
        let mut fresh = TimingSession::new(library, SstaConfig::default(), netlist);
        fresh.refresh();
        rebuild_visits += fresh.recompute_count();
    }
    assert!(
        branch_visits_at_1 < rebuild_visits,
        "8 branches must recompute strictly fewer nodes than 8 rebuilds: \
         {branch_visits_at_1} vs {rebuild_visits}"
    );
    // And not marginally fewer: single-gate cones are a small fraction
    // of 8 full propagations.
    assert!(
        branch_visits_at_1 * 4 < rebuild_visits,
        "branch cones should be well under a quarter of the rebuild cost: \
         {branch_visits_at_1} vs {rebuild_visits}"
    );
}
