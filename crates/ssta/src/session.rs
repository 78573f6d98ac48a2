//! Incremental timing sessions — long-lived **owned handles**.
//!
//! A [`TimingSession`] owns the whole analysis context an optimizer or a
//! query service needs across thousands of what-if resizes: a shared
//! [`Arc<Library>`], the [`SstaConfig`], the **netlist itself**, cached
//! levelization/fanout data, and the live propagation state of one
//! engine flavor. Because the session borrows nothing, it has no
//! lifetime parameters: it can be stored in a struct, kept in a map of
//! circuits, sent to another thread, or held open for the lifetime of a
//! service (see `vartol::workspace` in the façade crate). The netlist
//! comes back out with [`TimingSession::into_netlist`].
//!
//! After [`TimingSession::resize`], a
//! [`TimingSession::refresh`] re-analyzes **incrementally**: only the
//! transitive fanout cone of the changed gates (plus their fanins, whose
//! loads changed) is recomputed, instead of the whole netlist — yet the
//! result matches a from-scratch
//! [`TimingEngine::analyze`](crate::TimingEngine::analyze) run bit for
//! bit, because both paths share the same per-node kernels.
//!
//! This is the performance core of the optimization loop: on deep
//! circuits, a single-gate resize near the outputs touches a handful of
//! nodes where a from-scratch pass would touch thousands.
//!
//! For speculative work a session is **forked**: [`TimingSession::fork`]
//! copies the refreshed session once (netlist and propagation state) and
//! returns another `TimingSession` that also records its fork-point sizes
//! and their fingerprint. A fork re-times its own resizes incrementally
//! against its *last* refresh, so a long walk pays per move, not for its
//! whole divergence from the fork point, and forks on different worker
//! threads can trial resizes concurrently without ever touching the
//! parent or each other. A fork is either committed back
//! ([`TimingSession::commit`]: the parent takes over its sizes and
//! evaluated state by move, without recomputing) or simply dropped.
//! Forks serve divergent, parallel or long-lived versions; undo (below)
//! serves try-then-maybe-keep on one session, forked or not.
//!
//! A fork's answers depend only on `(library, config, structure, sizes)`,
//! like every session's. Forks share no mutable state with each other or
//! with the parent, so concurrent evaluation at any pool width returns
//! bit-identical answers, and a panic inside one fork's evaluation cannot
//! reach its siblings (the panicked fork itself may hold half-updated
//! state and should be dropped).
//!
//! Dirty-flag contract (audited for the parallel optimizer): `resize`
//! and `restore_sizes` mark exactly the gates whose current size differs
//! from the last-analyzed snapshot, resizing back cancels the pending
//! work, and `refresh` re-seeds every dirty gate *plus its fanins*
//! (whose loads changed). Read accessors between a resize/restore and
//! the next `refresh` intentionally serve the last-refreshed state
//! (frozen boundary semantics, §4.3); after a `refresh` they are always
//! bit-identical to a from-scratch analysis — there is no interleaving
//! of `resize`/`restore_sizes`/`refresh` that can leave an accessor
//! serving arrivals stale with respect to a completed refresh (see the
//! `restore_then_refresh_*` and randomized-interleaving tests below).
//!
//! Undo contract (for try-then-maybe-keep loops on one session):
//! [`TimingSession::refresh_undoable`] is a `refresh` that also logs
//! every value it overwrites and the dirty gates' previous analyzed
//! sizes. [`TimingSession::undo`] then puts the session back exactly as
//! it was before that refresh — sizes, propagation state, circuit
//! summary, clean dirty set — without visiting a node
//! ([`TimingSession::recompute_count`] does not move). The restored
//! state is the one a re-time of the old sizes would recompute, by the
//! incremental-equals-scratch contract above. Any later resize, restore,
//! rebuild or commit drops the log, and so does a refresh with work to
//! do, so `undo` returns `false` and changes nothing; plain `refresh`
//! logs nothing. The log is bounded by one refresh's cone. Dropping the
//! log or undoing it keeps its buffers for the next undoable refresh, and
//! the propagation keeps its scratch between refreshes, so on a warm
//! session a DSTA or FASSTA trial, rejected or kept, allocates nothing
//! (`tests/refresh_allocations.rs`).
//!
//! # Example
//!
//! ```
//! use vartol_liberty::Library;
//! use vartol_netlist::generators::ripple_carry_adder;
//! use vartol_ssta::{SstaConfig, TimingSession};
//!
//! let lib = Library::synthetic_90nm();
//! let netlist = ripple_carry_adder(8, &lib);
//! // The session takes the netlist by value and a shared library handle
//! // (`&Library` converts by cloning); it owns everything it needs.
//! let mut session = TimingSession::new(&lib, SstaConfig::default(), netlist);
//!
//! let before = session.refresh();
//! let gate = session.netlist().gate_ids().next().unwrap();
//! session.resize(gate, 4);
//! let after = session.refresh(); // recomputes only the affected cone
//! assert_ne!(before, after);
//! let netlist = session.into_netlist(); // hand the circuit back out
//! assert_eq!(netlist.gate(gate).size(), Some(4));
//! ```

use crate::config::SstaConfig;
use crate::criticality::Criticality;
use crate::delay::CircuitTiming;
use crate::engine::{EngineKind, TimingReport};
use crate::slack::StatisticalSlacks;
use crate::state::{CircuitSummary, TimingState, UndoLog};
use std::sync::Arc;
use vartol_liberty::Library;
use vartol_netlist::{GateId, Netlist, NetlistError};
use vartol_stats::{DiscretePdf, Moments};

/// An incremental timing-analysis session over one netlist — an owned
/// handle with no lifetime parameters.
///
/// The session owns the netlist: all size changes flow through
/// [`TimingSession::resize`] / [`TimingSession::restore_sizes`], which is
/// what makes precise dirty tracking possible, and the circuit comes
/// back out via [`TimingSession::into_netlist`]. The library is shared
/// through an [`Arc`], so many sessions (one per circuit in a service)
/// reference one library without copies. Read accessors reflect the
/// state as of the last [`TimingSession::refresh`] — reading stale
/// arrivals between a resize and a refresh is explicitly supported (the
/// optimizer's subcircuit trials evaluate against frozen boundary
/// statistics, §4.3).
#[derive(Debug, Clone)]
pub struct TimingSession {
    library: Arc<Library>,
    config: SstaConfig,
    netlist: Netlist,
    state: TimingState,
    summary: CircuitSummary,
    /// Gate indices resized since the last refresh, ascending.
    dirty: Vec<usize>,
    /// Sizes as of the last refresh, for no-op resize detection.
    analyzed_sizes: Vec<usize>,
    /// What [`TimingSession::undo`] restores, if the last refresh was
    /// undoable and nothing has changed since; otherwise empty buffers
    /// kept for the next undoable refresh.
    undo: UndoRecord,
    /// Where [`TimingSession::fork`] branched this session off; `None`
    /// for a session opened by `new`/`with_kind`.
    fork_point: Option<ForkPoint>,
}

/// The sizes a fork started from, checked again at commit.
#[derive(Debug, Clone)]
struct ForkPoint {
    sizes: Vec<usize>,
    fingerprint: u64,
}

/// Why a fork could not be committed back into its parent session.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BranchError {
    /// The parent has pending resizes; refresh it first.
    ParentDirty,
    /// The committed session was not made by [`TimingSession::fork`], so
    /// it has no fork point to check against the parent.
    NotForked,
    /// The parent's sizes changed since the fork (e.g. a sibling fork
    /// committed first): the fork point no longer matches.
    BaseMismatch {
        /// Size fingerprint the fork was made from.
        expected: u64,
        /// The parent's current size fingerprint.
        found: u64,
    },
    /// The fork belongs to a different circuit, engine kind, or
    /// configuration than the session it was committed into.
    CircuitMismatch,
}

impl std::fmt::Display for BranchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ParentDirty => write!(f, "cannot commit into a dirty session: refresh first"),
            Self::NotForked => write!(f, "only a forked session can be committed"),
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

/// The pre-refresh state an undoable refresh replaced. A discarded record
/// keeps its buffers for the next undoable refresh.
#[derive(Debug, Clone, Default)]
struct UndoRecord {
    state: UndoLog,
    /// The summary before the refresh: `Some` exactly while the record
    /// can be undone.
    summary: Option<CircuitSummary>,
    /// A summary no one reads any more, whose PDF buffers the next
    /// refresh reduces into.
    spare: Option<CircuitSummary>,
    /// `(gate index, analyzed size before the refresh)`.
    sizes: Vec<(usize, usize)>,
}

impl UndoRecord {
    /// Forgets the record, keeping its buffers.
    fn discard(&mut self) {
        self.state.clear();
        if let Some(summary) = self.summary.take() {
            self.spare = Some(summary);
        }
        self.sizes.clear();
    }
}

impl TimingSession {
    /// Opens a session with the accurate engine
    /// ([`EngineKind::FullSsta`]) as the incremental flavor.
    ///
    /// Accepts anything that converts into a shared library handle: an
    /// `Arc<Library>` (shared, no copy), an owned `Library`, or a
    /// `&Library` (cloned once).
    #[must_use]
    pub fn new(library: impl Into<Arc<Library>>, config: SstaConfig, netlist: Netlist) -> Self {
        Self::with_kind(library, config, netlist, EngineKind::FullSsta)
    }

    /// Opens a session with an explicit incremental engine flavor.
    ///
    /// # Panics
    ///
    /// Panics if `kind` does not support incremental re-analysis
    /// ([`EngineKind::MonteCarlo`]) or the netlist references cells
    /// missing from the library.
    #[must_use]
    pub fn with_kind(
        library: impl Into<Arc<Library>>,
        config: SstaConfig,
        netlist: Netlist,
        kind: EngineKind,
    ) -> Self {
        assert!(
            kind.supports_incremental(),
            "{kind} cannot back an incremental session"
        );
        let library = library.into();
        let state = TimingState::full(&netlist, &library, &config, kind);
        let summary = state.circuit(&netlist, &config);
        let analyzed_sizes = netlist.sizes();
        Self {
            library,
            config,
            netlist,
            state,
            summary,
            dirty: Vec::new(),
            analyzed_sizes,
            undo: UndoRecord::default(),
            fork_point: None,
        }
    }

    /// The incremental engine flavor.
    #[must_use]
    pub fn kind(&self) -> EngineKind {
        self.state.kind
    }

    /// The session's library.
    #[must_use]
    pub fn library(&self) -> &Library {
        &self.library
    }

    /// A shared handle to the session's library, for building sibling
    /// sessions or sizers against the same cells without another clone.
    #[must_use]
    pub fn library_handle(&self) -> Arc<Library> {
        Arc::clone(&self.library)
    }

    /// Consumes the session and hands the netlist (at its current sizes)
    /// back to the caller.
    #[must_use]
    pub fn into_netlist(self) -> Netlist {
        self.netlist
    }

    /// The shared timing configuration.
    #[must_use]
    pub fn config(&self) -> &SstaConfig {
        &self.config
    }

    /// The netlist under analysis (current sizes, possibly ahead of the
    /// last refresh).
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Whether resizes are pending a [`TimingSession::refresh`].
    #[must_use]
    pub fn is_dirty(&self) -> bool {
        !self.dirty.is_empty()
    }

    /// Cumulative number of per-node recomputations, including the
    /// initial full build — the incremental path's cost meter.
    #[must_use]
    pub fn recompute_count(&self) -> u64 {
        self.state.visits
    }

    /// Number of topological levels the propagation frontier walks — the
    /// depth of the level-ordered arena (inputs count as level 0).
    #[must_use]
    pub fn propagation_levels(&self) -> usize {
        self.state.schedule.level_count()
    }

    /// The propagation state, for the arena's own layout checks.
    #[cfg(test)]
    pub(crate) fn state(&self) -> &TimingState {
        &self.state
    }

    /// Widest topological level: the per-level parallelism ceiling of
    /// one propagation (levels below the spawn-amortization threshold
    /// run inline regardless of [`crate::SstaConfig::threads`]).
    #[must_use]
    pub fn max_level_width(&self) -> usize {
        self.state.schedule.max_width()
    }

    /// Sets the size of a cell gate. Resizing back to the last analyzed
    /// size cancels the pending work.
    ///
    /// # Panics
    ///
    /// Panics if `id` is a primary input or out of range (see
    /// [`TimingSession::try_resize`] for the non-panicking form).
    pub fn resize(&mut self, id: GateId, size: usize) {
        self.try_resize(id, size)
            .unwrap_or_else(|e| panic!("cannot size a primary input or bad id: {e}"));
    }

    /// Sets the size of a cell gate, rejecting bad ids and input nodes
    /// instead of panicking; on error the session (netlist, dirty set,
    /// analysis state) is untouched. This is the resize entry point for
    /// services validating untrusted requests.
    ///
    /// # Errors
    ///
    /// Propagates [`Netlist::try_set_size`] errors.
    pub fn try_resize(&mut self, id: GateId, size: usize) -> Result<(), NetlistError> {
        self.netlist.try_set_size(id, size)?;
        self.undo.discard();
        let i = id.index();
        match (self.dirty.binary_search(&i), self.analyzed_sizes[i] == size) {
            (Ok(at), true) => {
                self.dirty.remove(at);
            }
            (Err(at), false) => self.dirty.insert(at, i),
            _ => {}
        }
        Ok(())
    }

    /// Snapshot of all gate sizes (see [`Netlist::sizes`]).
    #[must_use]
    pub fn sizes(&self) -> Vec<usize> {
        self.netlist.sizes()
    }

    /// Stable fingerprint of the current size vector (see
    /// [`crate::fingerprint::size_fingerprint`]) — together with the
    /// circuit name and [`crate::fingerprint::config_fingerprint`] it
    /// identifies every analysis result this session can produce, which
    /// is how the service layer keys its cross-request result cache.
    #[must_use]
    pub fn size_fingerprint(&self) -> u64 {
        crate::fingerprint::size_fingerprint(&self.netlist.sizes())
    }

    /// Restores a size snapshot, marking exactly the differing gates
    /// dirty.
    ///
    /// # Panics
    ///
    /// Panics if `sizes.len() != netlist.node_count()` (see
    /// [`TimingSession::try_restore_sizes`] for the non-panicking form).
    pub fn restore_sizes(&mut self, sizes: &[usize]) {
        self.try_restore_sizes(sizes)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Restores a size snapshot, rejecting a length mismatch instead of
    /// panicking; on error the session is untouched.
    ///
    /// # Errors
    ///
    /// Propagates [`Netlist::try_restore_sizes`] errors.
    pub fn try_restore_sizes(&mut self, sizes: &[usize]) -> Result<(), NetlistError> {
        self.netlist.try_restore_sizes(sizes)?;
        self.undo.discard();
        let analyzed = &self.analyzed_sizes;
        self.dirty.clear();
        self.dirty.extend(
            self.netlist
                .gate_ids()
                .map(GateId::index)
                .filter(|&i| sizes[i] != analyzed[i]),
        );
        Ok(())
    }

    /// Total cell area at current sizes.
    #[must_use]
    pub fn total_area(&self) -> f64 {
        self.netlist.total_area(&self.library)
    }

    /// Brings the analysis up to date with the netlist's current sizes by
    /// recomputing only the affected cone, and returns the circuit
    /// moments. A no-op when nothing changed.
    pub fn refresh(&mut self) -> Moments {
        if !self.dirty.is_empty() {
            self.propagate(false);
        }
        self.summary.moments
    }

    /// [`TimingSession::refresh`], logging what it overwrites so that
    /// [`TimingSession::undo`] can put the pre-refresh state back (see
    /// the module's undo contract). Same answer and same node visits as
    /// `refresh`; a refresh with nothing to do logs nothing.
    ///
    /// ```
    /// use vartol_liberty::Library;
    /// use vartol_netlist::generators::ripple_carry_adder;
    /// use vartol_ssta::{SstaConfig, TimingSession};
    ///
    /// let lib = Library::synthetic_90nm();
    /// let mut session = TimingSession::new(&lib, SstaConfig::default(), ripple_carry_adder(8, &lib));
    /// let before = session.refresh();
    /// let gate = session.netlist().gate_ids().next().unwrap();
    /// let original = session.netlist().gate(gate).size();
    /// let visits = session.recompute_count();
    ///
    /// session.resize(gate, 4);
    /// let trial = session.refresh_undoable();
    /// assert_ne!(trial, before);
    /// // Rejected: back to the pre-trial state without re-timing.
    /// let trial_visits = session.recompute_count();
    /// assert!(session.undo());
    /// assert_eq!(session.circuit_moments(), before);
    /// assert_eq!(session.netlist().gate(gate).size(), original);
    /// assert!(!session.is_dirty());
    /// assert_eq!(session.recompute_count(), trial_visits);
    /// assert!(trial_visits > visits);
    /// ```
    pub fn refresh_undoable(&mut self) -> Moments {
        if self.dirty.is_empty() {
            self.undo.discard();
        } else {
            self.propagate(true);
        }
        self.summary.moments
    }

    /// Reverts the last [`TimingSession::refresh_undoable`]: sizes,
    /// propagation state and circuit summary return to what they were
    /// before it, with zero node visits. Returns `false` and changes
    /// nothing when there is no log to undo (nothing was logged, or a
    /// resize, restore, rebuild, commit or working refresh came since).
    pub fn undo(&mut self) -> bool {
        let Some(summary) = self.undo.summary.take() else {
            return false;
        };
        self.state.undo(&mut self.undo.state);
        self.undo.spare = Some(std::mem::replace(&mut self.summary, summary));
        for (i, size) in self.undo.sizes.drain(..) {
            self.netlist.set_size(GateId::from_index(i), size);
            self.analyzed_sizes[i] = size;
        }
        true
    }

    /// Re-times the cone of the dirty gates, logging the overwritten
    /// state for [`TimingSession::undo`] when `undoable`.
    fn propagate(&mut self, undoable: bool) {
        self.undo.discard();
        // The resized gate's own drive and delay change, and its input
        // capacitance changes the load (hence delay and output slew) of
        // every fanin.
        let netlist = &self.netlist;
        let seeds = self.dirty.iter().flat_map(|&i| {
            let fanins = netlist.gate(GateId::from_index(i)).fanins();
            std::iter::once(i).chain(fanins.iter().map(|f| f.index()))
        });
        self.state.update(
            netlist,
            &self.library,
            &self.config,
            seeds,
            undoable.then_some(&mut self.undo.state),
        );
        let mut fresh = self
            .undo
            .spare
            .take()
            .unwrap_or_else(|| self.summary.clone());
        self.state
            .circuit_into(&self.netlist, &self.config, &mut fresh);
        let summary = std::mem::replace(&mut self.summary, fresh);
        // Only the dirty gates can differ from the analyzed snapshot, so
        // the bookkeeping stays proportional to the cone.
        for &i in &self.dirty {
            let size = self
                .netlist
                .gate(GateId::from_index(i))
                .size()
                .expect("dirty nodes are cells");
            let old = std::mem::replace(&mut self.analyzed_sizes[i], size);
            if undoable {
                self.undo.sizes.push((i, old));
            }
        }
        self.dirty.clear();
        if undoable {
            self.undo.summary = Some(summary);
        } else {
            self.undo.spare = Some(summary);
        }
    }

    /// Discards the incremental analysis state and rebuilds it from
    /// scratch for the netlist's current sizes, clearing any pending
    /// dirt. The result is identical to opening a fresh session on
    /// [`TimingSession::into_netlist`] — this is the recovery hatch for
    /// services that must keep a session alive after a query against it
    /// panicked mid-analysis.
    pub fn rebuild(&mut self) {
        self.state = TimingState::full(&self.netlist, &self.library, &self.config, self.state.kind);
        self.summary = self.state.circuit(&self.netlist, &self.config);
        self.analyzed_sizes = self.netlist.sizes();
        self.dirty.clear();
        self.undo.discard();
    }

    /// Circuit output moments as of the last refresh.
    #[must_use]
    pub fn circuit_moments(&self) -> Moments {
        self.summary.moments
    }

    /// Circuit output PDF as of the last refresh (FULLSSTA sessions).
    #[must_use]
    pub fn circuit_pdf(&self) -> Option<&DiscretePdf> {
        self.summary.pdf.as_ref()
    }

    /// The statistically-worst output as of the last refresh.
    #[must_use]
    pub fn worst_output(&self) -> GateId {
        self.summary.worst_output
    }

    /// Arrival moments of one node as of the last refresh.
    #[must_use]
    pub fn arrival(&self, id: GateId) -> Moments {
        self.state.arrivals[id.index()]
    }

    /// All arrival moments as of the last refresh, indexed by
    /// [`GateId::index`] — boundary data for the fast engine and the WNSS
    /// tracer.
    #[must_use]
    pub fn arrivals(&self) -> &[Moments] {
        &self.state.arrivals
    }

    /// The electrical snapshot as of the last refresh.
    #[must_use]
    pub fn timing(&self) -> &CircuitTiming {
        &self.state.timing
    }

    /// Packages the incremental state as a [`TimingReport`] (refreshing
    /// first if needed), copying only what the report holds: arrivals,
    /// electrical snapshot, circuit summary and, for FULLSSTA, the PDF
    /// slab (without its level buckets) with its node → slot map; a
    /// conditioned session's report holds the per-node lane mixtures
    /// instead.
    pub fn current_report(&mut self) -> TimingReport {
        self.refresh();
        self.state.report(&self.summary)
    }

    /// Runs any engine from scratch over the netlist's current sizes —
    /// the session as an engine front-end.
    #[must_use]
    pub fn report(&self, kind: EngineKind) -> TimingReport {
        kind.engine(&self.library, &self.config)
            .analyze(&self.netlist)
    }

    /// Statistical required times and slacks of the refreshed state
    /// against a required time `t_req` at every output — the session's
    /// own arrivals and electrical snapshot, no external plumbing.
    pub fn slacks(&mut self, t_req: f64) -> StatisticalSlacks {
        self.refresh();
        StatisticalSlacks::compute_with_timing(
            &self.netlist,
            &self.state.timing,
            &self.state.arrivals,
            t_req,
        )
    }

    /// Per-node statistical criticality of the refreshed state (the
    /// probability of lying on the critical path of a manufactured die).
    pub fn criticality(&mut self) -> Criticality {
        self.refresh();
        Criticality::compute(
            &self.netlist,
            &self.library,
            &self.config,
            &self.state.arrivals,
        )
    }

    /// Forks this session: a private copy of the refreshed session
    /// (netlist and propagation state, one state copy) that also records
    /// the fork-point sizes and their fingerprint. The fork re-times its
    /// own resizes incrementally against its last refresh (see the
    /// [module docs](self)) and is either committed back through
    /// [`TimingSession::commit`] or simply dropped. Its
    /// [`TimingSession::recompute_count`] starts at zero.
    ///
    /// ```
    /// use vartol_liberty::Library;
    /// use vartol_netlist::generators::ripple_carry_adder;
    /// use vartol_ssta::{SstaConfig, TimingSession};
    ///
    /// let lib = Library::synthetic_90nm();
    /// let mut session = TimingSession::new(&lib, SstaConfig::default(), ripple_carry_adder(8, &lib));
    /// let baseline = session.refresh();
    ///
    /// // Two divergent what-ifs, side by side, parent untouched.
    /// let gate = session.netlist().gate_ids().next().unwrap();
    /// let mut a = session.fork();
    /// let mut b = session.fork();
    /// a.resize(gate, 4);
    /// b.resize(gate, 5);
    /// let (ma, mb) = (a.refresh(), b.refresh());
    /// assert_ne!(ma, mb);
    /// assert_eq!(session.refresh(), baseline);
    ///
    /// // Keep the better one.
    /// let keep = if ma.mean < mb.mean { a } else { b };
    /// session.commit(keep).unwrap();
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if resizes are pending ([`TimingSession::is_dirty`]): the
    /// fork point must be consistent with the sizes it was computed
    /// from, so callers refresh first.
    #[must_use]
    pub fn fork(&self) -> TimingSession {
        assert!(
            !self.is_dirty(),
            "fork requires a refreshed session (pending resizes would \
             make the frozen snapshot inconsistent)"
        );
        let mut state = self.state.clone();
        state.visits = 0;
        let sizes = self.sizes();
        TimingSession {
            library: Arc::clone(&self.library),
            config: self.config.clone(),
            netlist: self.netlist.clone(),
            state,
            summary: self.summary.clone(),
            dirty: Vec::new(),
            analyzed_sizes: self.analyzed_sizes.clone(),
            undo: UndoRecord::default(),
            fork_point: Some(ForkPoint {
                fingerprint: crate::fingerprint::size_fingerprint(&sizes),
                sizes,
            }),
        }
    }

    fn fork_point(&self) -> &ForkPoint {
        self.fork_point
            .as_ref()
            .expect("only a forked session has a fork point")
    }

    /// The size fingerprint of the fork point this session diverged from.
    ///
    /// # Panics
    ///
    /// Panics if the session was not made by [`TimingSession::fork`].
    #[must_use]
    pub fn base_fingerprint(&self) -> u64 {
        self.fork_point().fingerprint
    }

    /// Whether the sizes differ from the fork point.
    ///
    /// # Panics
    ///
    /// Panics if the session was not made by [`TimingSession::fork`].
    #[must_use]
    pub fn is_diverged(&self) -> bool {
        self.netlist.sizes() != self.fork_point().sizes
    }

    /// Gate indices whose sizes differ from the fork point, ascending.
    ///
    /// # Panics
    ///
    /// Panics if the session was not made by [`TimingSession::fork`].
    #[must_use]
    pub fn diverged_gates(&self) -> Vec<usize> {
        self.netlist
            .sizes()
            .iter()
            .zip(&self.fork_point().sizes)
            .enumerate()
            .filter_map(|(i, (now, base))| (now != base).then_some(i))
            .collect()
    }

    /// Sets every gate back to its fork-point size, marking only the
    /// gates that differ from the last refresh dirty (none, if the fork
    /// was at its fork point when last refreshed).
    ///
    /// # Panics
    ///
    /// Panics if the session was not made by [`TimingSession::fork`].
    pub fn restore_fork_point(&mut self) {
        let fork_point = self
            .fork_point
            .take()
            .expect("only a forked session has a fork point");
        self.try_restore_sizes(&fork_point.sizes)
            .expect("fork-point sizes match the fork's netlist");
        self.fork_point = Some(fork_point);
    }

    /// Checks whether `branch` could be committed into this session,
    /// without touching either: the rule [`TimingSession::commit`]
    /// applies, for callers that must keep a rejected fork.
    ///
    /// # Errors
    ///
    /// As [`TimingSession::commit`].
    pub fn check_commit(&self, branch: &TimingSession) -> Result<(), BranchError> {
        if self.is_dirty() {
            return Err(BranchError::ParentDirty);
        }
        let Some(base) = &branch.fork_point else {
            return Err(BranchError::NotForked);
        };
        let found = self.size_fingerprint();
        if base.fingerprint != found {
            return Err(BranchError::BaseMismatch {
                expected: base.fingerprint,
                found,
            });
        }
        if branch.netlist.node_count() != self.netlist.node_count()
            || branch.netlist.name() != self.netlist.name()
            || branch.state.kind != self.state.kind
            || branch.config != self.config
        {
            return Err(BranchError::CircuitMismatch);
        }
        Ok(())
    }

    /// Commits a fork back into this session: the fork is refreshed if
    /// it has pending resizes, then this session takes over its sizes
    /// and propagation state by move, without recomputing anything itself
    /// ([`TimingSession::recompute_count`] is unchanged), and returns the
    /// committed circuit moments. The result is bit-identical to applying
    /// the fork's resizes directly and refreshing. This session keeps its
    /// own fork point, if it has one.
    ///
    /// Consumes the fork; sibling forks made from the same state stay
    /// valid for reads, but committing them afterwards fails with
    /// [`BranchError::BaseMismatch`] because their fork point no longer
    /// matches the parent. A rejected fork is dropped with the call;
    /// callers that must keep it check [`TimingSession::check_commit`]
    /// first.
    ///
    /// # Errors
    ///
    /// [`BranchError::ParentDirty`] when resizes are pending here;
    /// [`BranchError::NotForked`] when `branch` was not made by
    /// [`TimingSession::fork`]; [`BranchError::BaseMismatch`] when this
    /// session's sizes changed since the fork;
    /// [`BranchError::CircuitMismatch`] when the fork belongs to a
    /// different circuit, engine kind, or configuration.
    pub fn commit(&mut self, mut branch: TimingSession) -> Result<Moments, BranchError> {
        self.check_commit(&branch)?;
        branch.refresh();
        // Keep the parent's own cost meter: the fork's visits were
        // counted on the fork.
        branch.state.visits = self.state.visits;
        self.netlist = branch.netlist;
        self.state = branch.state;
        self.summary = branch.summary;
        self.analyzed_sizes = branch.analyzed_sizes;
        self.undo.discard();
        Ok(self.summary.moments)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Fassta, FullSsta};
    use vartol_netlist::generators::{benchmark, ripple_carry_adder};

    fn assert_moments_eq(a: Moments, b: Moments, tol: f64, what: &str) {
        assert!(
            (a.mean - b.mean).abs() <= tol && (a.var - b.var).abs() <= tol,
            "{what}: {a} vs {b}"
        );
    }

    #[test]
    fn fresh_session_matches_direct_engines() {
        let lib = Library::synthetic_90nm();
        let config = SstaConfig::default();
        let n = ripple_carry_adder(8, &lib);
        let full = FullSsta::new(&lib, &config).analyze(&n);
        let fast = Fassta::new(&lib, &config).analyze(&n);

        let session = TimingSession::new(&lib, config.clone(), n);
        assert_eq!(session.circuit_moments(), full.circuit_moments());
        assert_eq!(session.arrivals(), full.arrivals());

        let n2 = ripple_carry_adder(8, &lib);
        let session = TimingSession::with_kind(&lib, config, n2, EngineKind::Fassta);
        assert_eq!(session.circuit_moments(), fast.circuit_moments());
    }

    #[test]
    fn incremental_refresh_equals_from_scratch_for_every_kind() {
        let lib = Library::synthetic_90nm();
        let config = SstaConfig::default();
        for kind in [EngineKind::Dsta, EngineKind::Fassta, EngineKind::FullSsta] {
            let n = benchmark("c432", &lib).expect("known");
            let gates: Vec<GateId> = n.gate_ids().collect();
            let mut session = TimingSession::with_kind(&lib, config.clone(), n, kind);
            // A spread of resizes, including cancelling one out.
            session.resize(gates[3], 4);
            session.resize(gates[40], 2);
            session.resize(gates[40], 0); // back to original
            session.resize(*gates.last().expect("gates"), 5);
            let incremental = session.refresh();
            let scratch = session.report(kind);
            assert_moments_eq(
                incremental,
                scratch.circuit_moments(),
                1e-9,
                &format!("{kind} circuit"),
            );
            assert_eq!(session.arrivals(), scratch.arrivals(), "{kind} arrivals");
        }
    }

    #[test]
    fn refresh_without_changes_is_free() {
        let lib = Library::synthetic_90nm();
        let config = SstaConfig::default();
        let n = ripple_carry_adder(6, &lib);
        let mut session = TimingSession::new(&lib, config, n);
        let visits_after_build = session.recompute_count();
        let a = session.refresh();
        let b = session.refresh();
        assert_eq!(a, b);
        assert_eq!(session.recompute_count(), visits_after_build);
    }

    #[test]
    fn resize_back_to_analyzed_size_cancels_dirt() {
        let lib = Library::synthetic_90nm();
        let config = SstaConfig::default();
        let n = ripple_carry_adder(6, &lib);
        let mut session = TimingSession::new(&lib, config, n);
        let g = session.netlist().gate_ids().nth(5).expect("gates");
        let original = session.netlist().gate(g).size().expect("cell");
        session.resize(g, 4);
        assert!(session.is_dirty());
        session.resize(g, original);
        assert!(!session.is_dirty());
        let before = session.recompute_count();
        session.refresh();
        assert_eq!(session.recompute_count(), before, "no-op refresh");
    }

    #[test]
    fn restore_sizes_tracks_exact_differences() {
        let lib = Library::synthetic_90nm();
        let config = SstaConfig::default();
        let n = ripple_carry_adder(6, &lib);
        let mut session = TimingSession::new(&lib, config, n);
        let snapshot = session.sizes();
        let g = session.netlist().gate_ids().nth(2).expect("gates");
        session.resize(g, 3);
        session.refresh();
        session.restore_sizes(&snapshot);
        assert!(session.is_dirty());
        let restored = session.refresh();
        let scratch = session.report(EngineKind::FullSsta);
        assert_moments_eq(restored, scratch.circuit_moments(), 1e-9, "restored");
    }

    #[test]
    fn current_report_matches_scratch_engine() {
        // On c432, upsizing the first gate shrinks a PDF's point count,
        // so an incremental refresh leaves stale values past it in the
        // slot: report equality must compare the PDFs, not the strides.
        let lib = Library::synthetic_90nm();
        let n = benchmark("c432", &lib).expect("known");
        let g = n.gate_ids().next().expect("gates");
        for config in [
            SstaConfig::default(),
            SstaConfig::default().with_model(crate::variation::VariationModel::die_to_die(0.5)),
        ] {
            let laneless = config.model.is_empty();
            let mut session = TimingSession::new(&lib, config, n.clone());
            let before = session.current_report();
            session.resize(g, 5);
            let report = session.current_report();
            let scratch = session.report(EngineKind::FullSsta);
            assert_eq!(report.circuit_moments(), scratch.circuit_moments());
            assert_eq!(report.arrivals(), scratch.arrivals());
            assert_eq!(report.worst_output(), scratch.worst_output());
            assert_eq!(report, scratch);
            let points = |r: &TimingReport, id| r.arrival_pdf(id).expect("fullssta").len();
            if laneless {
                let shrunk = n
                    .node_ids()
                    .any(|id| points(&report, id) < points(&before, id));
                assert!(shrunk, "the resize shrinks no PDF");
            }
        }
    }

    #[test]
    fn single_resize_visits_only_the_affected_cone() {
        let lib = Library::synthetic_90nm();
        let config = SstaConfig::default();
        // c1908 is comfortably past 500 gates.
        let n = benchmark("c1908", &lib).expect("known");
        assert!(n.gate_count() >= 500, "need a big circuit");
        let node_count = n.node_count();

        // A gate whose affected cone is small: high topological index.
        let g = n.gate_ids().last().expect("gates");
        let mut cone_seeds: Vec<GateId> = vec![g];
        cone_seeds.extend_from_slice(n.gate(g).fanins());
        let cone = n.fanout_cone(cone_seeds.iter().copied());

        let mut session = TimingSession::new(&lib, config, n);
        let before = session.recompute_count();
        session.resize(g, 4);
        session.refresh();
        let visited = session.recompute_count() - before;

        assert!(
            visited <= cone.len() as u64,
            "visited {visited} nodes, affected cone has {}",
            cone.len()
        );
        assert!(
            (visited as usize) < node_count / 10,
            "incremental refresh must not approach a full pass: \
             {visited} of {node_count}"
        );
    }

    #[test]
    fn fork_trials_never_touch_the_parent() {
        let lib = Library::synthetic_90nm();
        let config = SstaConfig::default();
        let n = ripple_carry_adder(8, &lib);
        let mut session = TimingSession::new(&lib, config, n);
        let baseline = session.refresh();
        let sizes_before = session.sizes();
        let arrivals_before = session.arrivals().to_vec();

        let g = session.netlist().gate_ids().nth(4).expect("gates");
        let mut branch = session.fork();
        branch.resize(g, 5);
        assert_eq!(branch.netlist().gate(g).size(), Some(5));
        assert_ne!(branch.refresh(), baseline);

        // The parent saw none of it.
        assert!(!session.is_dirty());
        assert_eq!(session.sizes(), sizes_before);
        assert_eq!(session.refresh(), baseline);
        assert_eq!(session.arrivals(), arrivals_before.as_slice());
    }

    #[test]
    fn forks_score_candidates_identically_across_pool_widths() {
        use crate::pool::ScopedPool;
        let lib = Library::synthetic_90nm();
        let config = SstaConfig::default();
        let n = benchmark("c432", &lib).expect("known");
        let mut session = TimingSession::new(&lib, config, n);
        session.refresh();
        let gates: Vec<GateId> = session.netlist().gate_ids().take(24).collect();

        // Score "upsize by one" for each gate in a branch against the
        // parent's frozen boundary; the trial is rolled back before the
        // next task, so results depend only on the task index.
        let score = |branch: &mut TimingSession, i: usize| -> (u64, u64) {
            let g = gates[i];
            let current = branch.netlist().gate(g).size().expect("cell");
            branch.resize(g, current + 1);
            let fast = crate::Fassta::new(branch.library(), branch.config());
            let sub = vartol_netlist::Subcircuit::extract(branch.netlist(), g, 2);
            let outs = fast.evaluate_subcircuit(
                branch.netlist(),
                &sub,
                session.arrivals(),
                session.timing(),
            );
            branch.resize(g, current);
            let m = outs.iter().copied().reduce(|a, b| a + b).expect("outputs");
            (m.mean.to_bits(), m.var.to_bits())
        };

        let serial = ScopedPool::new(1).map_init(gates.len(), || session.fork(), score);
        for threads in [2, 8] {
            let parallel = ScopedPool::new(threads).map_init(gates.len(), || session.fork(), score);
            assert_eq!(serial, parallel, "{threads}-thread pool");
        }
    }

    #[test]
    #[should_panic(expected = "requires a refreshed session")]
    fn fork_of_a_dirty_session_is_rejected() {
        let lib = Library::synthetic_90nm();
        let n = ripple_carry_adder(4, &lib);
        let mut session = TimingSession::new(&lib, SstaConfig::default(), n);
        let g = session.netlist().gate_ids().next().expect("gates");
        session.resize(g, 3);
        let _ = session.fork();
    }

    #[test]
    fn restore_then_refresh_never_serves_stale_arrivals() {
        // The dirty-flag audit regression: every interleaving of resize /
        // restore_sizes / refresh must leave post-refresh accessors
        // bit-identical to a from-scratch analysis, including restores
        // that cancel part of the pending work.
        let lib = Library::synthetic_90nm();
        let config = SstaConfig::default();
        let n = benchmark("c432", &lib).expect("known");
        let gates: Vec<GateId> = n.gate_ids().collect();
        let mut session = TimingSession::new(&lib, config, n);

        let snapshot = session.sizes();
        session.resize(gates[5], 4);
        session.resize(gates[17], 3);
        session.refresh();
        let refreshed_sizes = session.sizes();
        let refreshed_arrivals = session.arrivals().to_vec();

        // Restore while clean: accessors before the refresh still serve
        // the last-refreshed state (documented staleness), never a
        // half-updated one.
        session.restore_sizes(&snapshot);
        assert!(session.is_dirty());
        assert_eq!(session.arrivals(), refreshed_arrivals.as_slice());

        // Partially cancel the restore: gate 5 back to its refreshed
        // size, so only gate 17 (and its cone) should be recomputed.
        session.resize(gates[5], 4);
        let after = session.refresh();
        let mut expected_sizes = snapshot.clone();
        expected_sizes[gates[5].index()] = refreshed_sizes[gates[5].index()];
        assert_eq!(session.sizes(), expected_sizes);

        let scratch = session.report(EngineKind::FullSsta);
        assert_moments_eq(
            after,
            scratch.circuit_moments(),
            0.0,
            "post-restore refresh",
        );
        assert_eq!(
            session.arrivals(),
            scratch.arrivals(),
            "arrivals must be fresh"
        );
    }

    #[test]
    fn randomized_resize_restore_interleavings_match_scratch() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let lib = Library::synthetic_90nm();
        let config = SstaConfig::default();
        let n = benchmark("c432", &lib).expect("known");
        let gates: Vec<GateId> = n.gate_ids().collect();
        let mut session = TimingSession::with_kind(&lib, config, n, EngineKind::Fassta);
        let mut rng = StdRng::seed_from_u64(0x5e_5510);
        let mut snapshot = session.sizes();

        for step in 0..60 {
            match rng.gen_range(0..4u8) {
                0 => {
                    let g = gates[rng.gen_range(0..gates.len())];
                    let gate = session.netlist().gate(g);
                    let group = session
                        .library()
                        .group(gate.function().expect("cell"), gate.fanins().len())
                        .expect("library covers suite functions");
                    let size = rng.gen_range(0..group.len());
                    session.resize(g, size);
                }
                1 => snapshot = session.sizes(),
                2 => session.restore_sizes(&snapshot.clone()),
                _ => {
                    let refreshed = session.refresh();
                    let scratch = session.report(EngineKind::Fassta);
                    assert_moments_eq(
                        refreshed,
                        scratch.circuit_moments(),
                        0.0,
                        &format!("step {step}"),
                    );
                    assert_eq!(session.arrivals(), scratch.arrivals(), "step {step}");
                }
            }
        }
        let last = session.refresh();
        let scratch = session.report(EngineKind::Fassta);
        assert_moments_eq(last, scratch.circuit_moments(), 0.0, "final");
    }

    #[test]
    fn sessions_are_owned_handles_storable_and_sendable() {
        // The whole point of the redesign: a session with no lifetime
        // parameters can live in a struct, in a map, and on another
        // thread — none of this compiled against the borrowed API.
        struct Service {
            sessions: Vec<TimingSession>,
        }
        let lib = std::sync::Arc::new(Library::synthetic_90nm());
        let mut service = Service {
            sessions: (4..=6)
                .map(|bits| {
                    TimingSession::new(
                        std::sync::Arc::clone(&lib),
                        SstaConfig::default(),
                        ripple_carry_adder(bits, &lib),
                    )
                })
                .collect(),
        };
        let moments: Vec<Moments> = service
            .sessions
            .iter_mut()
            .map(TimingSession::refresh)
            .collect();
        assert!(moments.windows(2).all(|w| w[0].mean < w[1].mean));

        let session = service.sessions.pop().expect("three sessions");
        let from_thread = std::thread::spawn(move || {
            let mut session = session;
            session.refresh()
        })
        .join()
        .expect("worker");
        assert_eq!(from_thread, moments[2]);
    }

    #[test]
    fn into_netlist_round_trips_the_current_sizes() {
        let lib = Library::synthetic_90nm();
        let mut session =
            TimingSession::new(&lib, SstaConfig::default(), ripple_carry_adder(6, &lib));
        let g = session.netlist().gate_ids().nth(3).expect("gates");
        session.resize(g, 5);
        session.refresh();
        let n = session.into_netlist();
        assert_eq!(n.gate(g).size(), Some(5));
        // A fresh session over the returned netlist agrees exactly.
        let reopened = TimingSession::new(&lib, SstaConfig::default(), n);
        assert!(reopened.circuit_moments().mean > 0.0);
    }

    #[test]
    fn try_resize_rejects_bad_requests_without_dirtying() {
        let lib = Library::synthetic_90nm();
        let mut session =
            TimingSession::new(&lib, SstaConfig::default(), ripple_carry_adder(4, &lib));
        let input = session.netlist().inputs()[0];
        assert!(session.try_resize(input, 2).is_err());
        let bogus = GateId::from_index(session.netlist().node_count() + 7);
        assert!(session.try_resize(bogus, 0).is_err());
        assert!(!session.is_dirty(), "failed resizes leave no dirt");
        assert!(
            session.try_restore_sizes(&[0, 1]).is_err(),
            "length mismatch rejected"
        );
        assert!(!session.is_dirty());
    }

    #[test]
    fn rebuild_matches_incremental_state_exactly() {
        let lib = Library::synthetic_90nm();
        let n = benchmark("c432", &lib).expect("known");
        let mut session = TimingSession::new(&lib, SstaConfig::default(), n);
        let g = session.netlist().gate_ids().nth(20).expect("gates");
        session.resize(g, 3);
        let incremental = session.refresh();
        let arrivals = session.arrivals().to_vec();
        session.rebuild();
        assert!(!session.is_dirty());
        assert_eq!(session.circuit_moments(), incremental);
        assert_eq!(session.arrivals(), arrivals.as_slice());
    }

    #[test]
    fn session_slack_and_criticality_match_free_functions() {
        let lib = Library::synthetic_90nm();
        let n = ripple_carry_adder(6, &lib);
        let config = SstaConfig::default();
        let mut session = TimingSession::new(&lib, config.clone(), n.clone());
        let m = session.refresh();
        let t = m.mean + 2.0 * m.std();

        let via_session = session.slacks(t);
        let direct =
            StatisticalSlacks::compute_with_timing(&n, session.timing(), session.arrivals(), t);
        assert_eq!(via_session, direct);

        let crit = session.criticality();
        let direct = Criticality::compute(&n, &lib, &config, session.arrivals());
        assert_eq!(crit, direct);
    }

    #[test]
    fn conditioned_incremental_refresh_matches_scratch() {
        // The correlated-variation lanes ride the same worklist as the
        // legacy path: an incremental refresh under a die-to-die model
        // must still reproduce a from-scratch conditioned analysis.
        let lib = Library::synthetic_90nm();
        let config =
            SstaConfig::default().with_model(crate::variation::VariationModel::die_to_die(0.6));
        for kind in [EngineKind::Dsta, EngineKind::Fassta, EngineKind::FullSsta] {
            let n = ripple_carry_adder(8, &lib);
            let gates: Vec<GateId> = n.gate_ids().collect();
            let mut session = TimingSession::with_kind(&lib, config.clone(), n, kind);
            session.resize(gates[3], 4);
            session.resize(*gates.last().expect("gates"), 5);
            let incremental = session.refresh();
            let scratch = session.report(kind);
            assert_moments_eq(
                incremental,
                scratch.circuit_moments(),
                1e-9,
                &format!("{kind} conditioned circuit"),
            );
            assert_eq!(
                session.arrivals(),
                scratch.arrivals(),
                "{kind} conditioned arrivals"
            );
        }
    }

    #[test]
    fn conditioned_refresh_recomputes_only_the_cone() {
        let lib = Library::synthetic_90nm();
        let config =
            SstaConfig::default().with_model(crate::variation::VariationModel::die_to_die(0.5));
        let n = benchmark("c1908", &lib).expect("known");
        let node_count = n.node_count();
        let g = n.gate_ids().last().expect("gates");
        let mut session = TimingSession::new(&lib, config, n);
        let before = session.recompute_count();
        session.resize(g, 4);
        session.refresh();
        let visited = session.recompute_count() - before;
        assert!(
            (visited as usize) < node_count / 10,
            "conditioned incremental refresh must stay cone-local: \
             {visited} of {node_count}"
        );
    }

    #[test]
    #[should_panic(expected = "cannot back an incremental session")]
    fn monte_carlo_sessions_are_rejected() {
        let lib = Library::synthetic_90nm();
        let n = ripple_carry_adder(4, &lib);
        let _ = TimingSession::with_kind(&lib, SstaConfig::default(), n, EngineKind::MonteCarlo);
    }

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

    #[test]
    fn commit_of_a_session_that_was_not_forked_is_rejected() {
        let mut s = session("c432");
        let baseline = s.refresh();
        let before = s.sizes();
        let g = s.netlist().gate_ids().nth(9).expect("gates");
        let mut stranger = session("c432");
        stranger.resize(g, before[g.index()] + 1);
        stranger.refresh();
        assert_eq!(
            s.check_commit(&stranger).expect_err("no fork point"),
            BranchError::NotForked
        );
        let visits = s.recompute_count();
        assert_eq!(
            s.commit(stranger).expect_err("no fork point"),
            BranchError::NotForked
        );
        assert_eq!(s.refresh(), baseline);
        assert_eq!(s.sizes(), before);
        assert_eq!(s.recompute_count(), visits);
    }
}
