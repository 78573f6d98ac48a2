//! Circuit versions: owned, forkable [`SessionBranch`]es.
//!
//! [`TimingSession::fork`](crate::TimingSession::fork) replaces the
//! mutate-and-rollback idiom (resize the one authoritative session, read,
//! resize back) with first-class **versions** of a circuit. A branch is a
//! forked session:
//!
//! * The fork copies the parent's refreshed session once — netlist and
//!   propagation state — and records the fork-point sizes and their
//!   fingerprint. The parent is never touched again.
//! * [`SessionBranch::refresh`] is the session's own incremental update:
//!   it recomputes only the fanout cone of the gates resized since the
//!   branch's *last* refresh, so a long walk pays per move, not for its
//!   whole divergence from the fork point.
//! * A branch can be **committed back**
//!   ([`TimingSession::commit`](crate::TimingSession::commit)) — the
//!   parent takes over the branch's sizes and evaluated state by move —
//!   or simply dropped.
//! * Inside a branch, a trial that may be rejected uses
//!   [`SessionBranch::refresh_undoable`] and [`SessionBranch::undo`], the
//!   session's undo contract: a rejected trial returns the branch to its
//!   pre-trial state without re-timing anything. Forks serve divergent,
//!   parallel or long-lived versions; undo serves try-then-maybe-keep on
//!   one session or branch.
//!
//! # Determinism
//!
//! A branch's answers depend only on `(library, config, structure,
//! branch sizes)`: its refresh runs the same per-node kernels as a
//! from-scratch analysis and is bit-identical to one (the
//! incremental-equals-scratch contract of the session layer). Branches
//! share no mutable state with each other or with the parent, so
//! concurrent evaluation at any pool width returns bit-identical answers,
//! and a panic inside one branch's evaluation cannot reach its siblings
//! (the panicked branch itself may hold half-updated state and should be
//! dropped).
//!
//! # Example
//!
//! ```
//! use vartol_liberty::Library;
//! use vartol_netlist::generators::ripple_carry_adder;
//! use vartol_ssta::{SstaConfig, TimingSession};
//!
//! let lib = Library::synthetic_90nm();
//! let mut session = TimingSession::new(&lib, SstaConfig::default(), ripple_carry_adder(8, &lib));
//! let baseline = session.refresh();
//!
//! // Two divergent what-ifs, side by side, parent untouched.
//! let gate = session.netlist().gate_ids().next().unwrap();
//! let mut a = session.fork();
//! let mut b = session.fork();
//! a.resize(gate, 4);
//! b.resize(gate, 5);
//! let (ma, mb) = (a.refresh(), b.refresh());
//! assert_ne!(ma, mb);
//! assert_eq!(session.refresh(), baseline);
//!
//! // Keep the better one.
//! let keep = if ma.mean < mb.mean { a } else { b };
//! session.commit(keep).unwrap();
//! ```

use crate::config::SstaConfig;
use crate::engine::EngineKind;
use crate::fingerprint::size_fingerprint;
use crate::session::TimingSession;
use std::sync::Arc;
use vartol_liberty::Library;
use vartol_netlist::{GateId, Netlist, NetlistError};
use vartol_stats::Moments;

/// Why a branch could not be committed back into its parent session.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BranchError {
    /// The parent has pending resizes; refresh it first.
    ParentDirty,
    /// The parent's sizes changed since the fork (e.g. a sibling branch
    /// committed first): the branch's fork point no longer matches.
    BaseMismatch {
        /// Size fingerprint the branch was forked from.
        expected: u64,
        /// The parent's current size fingerprint.
        found: u64,
    },
    /// The branch belongs to a different circuit, engine kind, or
    /// configuration than the session it was committed into.
    CircuitMismatch,
}

impl std::fmt::Display for BranchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ParentDirty => write!(f, "cannot commit into a dirty session: refresh first"),
            Self::BaseMismatch { expected, found } => write!(
                f,
                "branch base {expected:#018x} no longer matches the parent \
                 ({found:#018x}): the parent diverged since the fork"
            ),
            Self::CircuitMismatch => {
                write!(f, "branch and session disagree on circuit, kind, or config")
            }
        }
    }
}

impl std::error::Error for BranchError {}

/// An owned version of a circuit: a private [`TimingSession`] forked by
/// [`TimingSession::fork`] (see the [module docs](self)).
///
/// A branch is `Send` and carries no lifetimes: it can be stored in a
/// registry, handed to a worker thread, evaluated, and committed back or
/// dropped. Cloning a branch copies its session state.
#[derive(Debug, Clone)]
pub struct SessionBranch {
    session: TimingSession,
    /// Sizes at the fork point.
    base_sizes: Vec<usize>,
    /// Fingerprint of `base_sizes`, checked again at commit.
    base_fp: u64,
}

impl SessionBranch {
    /// Wraps a refreshed copy of the parent session whose cost meter the
    /// caller has reset.
    pub(crate) fn new(session: TimingSession) -> Self {
        let base_sizes = session.sizes();
        let base_fp = size_fingerprint(&base_sizes);
        Self {
            session,
            base_sizes,
            base_fp,
        }
    }

    /// Hands the branch's session to the commit path.
    pub(crate) fn into_session(self) -> TimingSession {
        self.session
    }

    /// The shared library.
    #[must_use]
    pub fn library(&self) -> &Library {
        self.session.library()
    }

    /// A shared handle to the library.
    #[must_use]
    pub fn library_handle(&self) -> Arc<Library> {
        self.session.library_handle()
    }

    /// The timing configuration inherited from the parent session.
    #[must_use]
    pub fn config(&self) -> &SstaConfig {
        self.session.config()
    }

    /// The engine flavor inherited from the parent session.
    #[must_use]
    pub fn kind(&self) -> EngineKind {
        self.session.kind()
    }

    /// The branch's netlist at its current sizes.
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        self.session.netlist()
    }

    /// Snapshot of all gate sizes.
    #[must_use]
    pub fn sizes(&self) -> Vec<usize> {
        self.session.sizes()
    }

    /// Stable fingerprint of the branch's current size vector (same
    /// scheme as [`TimingSession::size_fingerprint`], so service layers
    /// can key per-branch caches with it).
    #[must_use]
    pub fn size_fingerprint(&self) -> u64 {
        self.session.size_fingerprint()
    }

    /// The size fingerprint of the fork point this branch diverged from.
    #[must_use]
    pub fn base_fingerprint(&self) -> u64 {
        self.base_fp
    }

    /// Whether the branch's sizes differ from its fork point.
    #[must_use]
    pub fn is_diverged(&self) -> bool {
        self.sizes() != self.base_sizes
    }

    /// Gate indices whose sizes differ from the fork point, ascending.
    #[must_use]
    pub fn diverged_gates(&self) -> Vec<usize> {
        self.sizes()
            .iter()
            .zip(&self.base_sizes)
            .enumerate()
            .filter_map(|(i, (now, base))| (now != base).then_some(i))
            .collect()
    }

    /// Node recomputations this branch has caused since the fork.
    #[must_use]
    pub fn recompute_count(&self) -> u64 {
        self.session.recompute_count()
    }

    /// Sets the size of a cell gate in this branch only.
    ///
    /// # Panics
    ///
    /// Panics if `id` is a primary input or out of range (see
    /// [`SessionBranch::try_resize`] for the non-panicking form).
    pub fn resize(&mut self, id: GateId, size: usize) {
        self.session.resize(id, size);
    }

    /// Sets the size of a cell gate in this branch only, rejecting bad
    /// ids and input nodes instead of panicking; on error the branch is
    /// untouched.
    ///
    /// # Errors
    ///
    /// Propagates [`Netlist::try_set_size`] errors.
    pub fn try_resize(&mut self, id: GateId, size: usize) -> Result<(), NetlistError> {
        self.session.try_resize(id, size)
    }

    /// Restores a full size snapshot into this branch.
    ///
    /// # Errors
    ///
    /// Propagates [`Netlist::try_restore_sizes`] errors.
    pub fn try_restore_sizes(&mut self, sizes: &[usize]) -> Result<(), NetlistError> {
        self.session.try_restore_sizes(sizes)
    }

    /// Brings the branch's analysis up to date with its sizes by
    /// recomputing only the cone of the gates resized since its last
    /// refresh, and returns the circuit moments. Bit-identical to a
    /// from-scratch session at the branch's sizes.
    pub fn refresh(&mut self) -> Moments {
        self.session.refresh()
    }

    /// [`SessionBranch::refresh`], logged so that [`SessionBranch::undo`]
    /// can revert it (see [`TimingSession::refresh_undoable`]).
    pub fn refresh_undoable(&mut self) -> Moments {
        self.session.refresh_undoable()
    }

    /// Reverts the last [`SessionBranch::refresh_undoable`] with zero node
    /// visits; `false` if there is nothing to undo (see
    /// [`TimingSession::undo`]).
    pub fn undo(&mut self) -> bool {
        self.session.undo()
    }

    /// Sets every gate back to its fork-point size, marking only the
    /// gates that differ from the branch's last refresh dirty (none, if
    /// the branch was at its fork point when last refreshed).
    pub fn restore_fork_point(&mut self) {
        self.session
            .try_restore_sizes(&self.base_sizes)
            .expect("fork-point sizes match the branch's netlist");
    }

    /// Circuit output moments at the branch's sizes (refreshing first).
    pub fn circuit_moments(&mut self) -> Moments {
        self.refresh()
    }

    /// The statistically-worst output at the branch's sizes (refreshing
    /// first).
    pub fn worst_output(&mut self) -> GateId {
        self.refresh();
        self.session.worst_output()
    }

    /// Arrival moments of one node at the branch's sizes (refreshing
    /// first).
    pub fn arrival(&mut self, id: GateId) -> Moments {
        self.refresh();
        self.session.arrival(id)
    }

    /// All arrival moments at the branch's sizes, indexed by
    /// [`GateId::index`] (refreshing first).
    pub fn arrivals(&mut self) -> &[Moments] {
        self.refresh();
        self.session.arrivals()
    }

    /// Total cell area at the branch's current sizes.
    #[must_use]
    pub fn total_area(&self) -> f64 {
        self.session.total_area()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vartol_netlist::generators::{benchmark, ripple_carry_adder};

    fn session(name: &str) -> TimingSession {
        let lib = Library::synthetic_90nm();
        let n = benchmark(name, &lib).expect("known circuit");
        TimingSession::new(&lib, SstaConfig::default(), n)
    }

    #[test]
    fn undiverged_branch_serves_base_state_for_free() {
        let mut s = session("c432");
        let baseline = s.refresh();
        let mut b = s.fork();
        assert!(!b.is_diverged());
        assert_eq!(b.refresh(), baseline);
        assert_eq!(b.recompute_count(), 0);
        assert_eq!(b.size_fingerprint(), b.base_fingerprint());
    }

    #[test]
    fn branch_refresh_equals_from_scratch_session() {
        let mut s = session("c432");
        s.refresh();
        let g = s.netlist().gate_ids().nth(17).expect("gates");
        let mut b = s.fork();
        b.resize(g, 4);
        let branch_moments = b.refresh();

        let lib = Library::synthetic_90nm();
        let mut fresh = benchmark("c432", &lib).expect("known");
        fresh.set_size(g, 4);
        let scratch = TimingSession::new(&lib, SstaConfig::default(), fresh);
        assert_eq!(branch_moments, scratch.circuit_moments());
        assert_eq!(b.arrivals(), scratch.arrivals());
    }

    #[test]
    fn divergent_cone_is_recomputed_not_the_whole_circuit() {
        let mut s = session("c1908");
        s.refresh();
        let node_count = s.netlist().node_count() as u64;
        let g = s.netlist().gate_ids().last().expect("gates");
        let mut b = s.fork();
        b.resize(g, 4);
        b.refresh();
        assert!(b.recompute_count() > 0);
        assert!(
            b.recompute_count() < node_count / 10,
            "branch visited {} of {node_count} nodes",
            b.recompute_count()
        );
    }

    #[test]
    fn commit_adopts_the_branch_without_recomputation() {
        let mut s = session("c432");
        s.refresh();
        let g = s.netlist().gate_ids().nth(12).expect("gates");
        let mut b = s.fork();
        b.resize(g, 4);
        let branch_moments = b.refresh();

        let parent_visits = s.recompute_count();
        let committed = s.commit(b).expect("clean commit");
        assert_eq!(committed, branch_moments);
        assert_eq!(
            s.recompute_count(),
            parent_visits,
            "commit adopts, never recomputes"
        );
        assert_eq!(s.netlist().gate(g).size(), Some(4));
        assert!(!s.is_dirty());
        // The committed state is bit-identical to refreshing the resize
        // directly.
        let scratch = s.report(EngineKind::FullSsta);
        assert_eq!(s.circuit_moments(), scratch.circuit_moments());
        assert_eq!(s.arrivals(), scratch.arrivals());
    }

    #[test]
    fn commit_of_undiverged_branch_is_a_no_op() {
        let mut s = session("c432");
        let baseline = s.refresh();
        let b = s.fork();
        assert_eq!(s.commit(b).expect("no-op commit"), baseline);
    }

    #[test]
    fn commit_after_parent_diverged_is_rejected() {
        let mut s = session("c432");
        s.refresh();
        let gates: Vec<GateId> = s.netlist().gate_ids().collect();
        let mut b = s.fork();
        b.resize(gates[3], 4);
        b.refresh();
        // Parent moves on before the commit.
        s.resize(gates[7], 2);
        s.refresh();
        let err = s.commit(b).expect_err("stale base");
        assert!(matches!(err, BranchError::BaseMismatch { .. }), "{err:?}");
    }

    #[test]
    fn commit_into_dirty_parent_is_rejected() {
        let mut s = session("c432");
        s.refresh();
        let gates: Vec<GateId> = s.netlist().gate_ids().collect();
        let mut b = s.fork();
        b.resize(gates[3], 4);
        s.resize(gates[7], 2); // pending, not refreshed
        assert_eq!(s.commit(b).expect_err("dirty"), BranchError::ParentDirty);
    }

    #[test]
    fn commit_from_a_foreign_session_is_rejected() {
        let lib = Library::synthetic_90nm();
        let mut other =
            TimingSession::new(&lib, SstaConfig::default(), ripple_carry_adder(8, &lib));
        other.refresh();
        let g = other.netlist().gate_ids().next().expect("gates");
        let mut b = other.fork();
        b.resize(g, 3);
        let mut s = session("c432");
        s.refresh();
        let err = s.commit(b).expect_err("foreign circuit");
        assert!(
            matches!(
                err,
                BranchError::CircuitMismatch | BranchError::BaseMismatch { .. }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn branch_panic_does_not_poison_siblings_or_parent() {
        let mut s = session("c432");
        let baseline = s.refresh();
        let g = s.netlist().gate_ids().nth(5).expect("gates");
        let mut bad = s.fork();
        let mut good = s.fork();
        // A size far beyond the library group passes netlist-level
        // validation but panics during evaluation (missing cell).
        bad.resize(g, usize::MAX / 2);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = bad.refresh();
        }));
        assert!(panicked.is_err(), "evaluation of a bogus size must panic");
        drop(bad);
        // Siblings and parent share no state with the panicked branch.
        good.resize(g, 4);
        let m = good.refresh();
        assert!(m.mean > 0.0);
        assert_eq!(s.refresh(), baseline);
        assert_eq!(s.commit(good).expect("commit survivor").mean, m.mean);
    }

    #[test]
    fn resize_back_to_base_undiverges_the_branch() {
        let mut s = session("c432");
        let baseline = s.refresh();
        let g = s.netlist().gate_ids().nth(3).expect("gates");
        let original = s.netlist().gate(g).size().expect("cell");
        let mut b = s.fork();
        b.resize(g, original + 1);
        assert!(b.is_diverged());
        b.resize(g, original);
        assert!(!b.is_diverged());
        assert_eq!(b.refresh(), baseline);
    }

    #[test]
    fn try_resize_rejects_inputs_and_bad_ids_without_divergence() {
        let mut s = session("c432");
        s.refresh();
        let mut b = s.fork();
        let input = b.netlist().inputs()[0];
        assert!(b.try_resize(input, 2).is_err());
        let bogus = GateId::from_index(b.netlist().node_count() + 3);
        assert!(b.try_resize(bogus, 0).is_err());
        assert!(!b.is_diverged());
    }
}
