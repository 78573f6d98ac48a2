//! Deterministic multi-start simulated annealing over session branches.
//!
//! Each restart is an independent Metropolis walk over the discrete
//! size space, running on its own branch, a
//! [`TimingSession::fork`](crate::TimingSession::fork): proposing a size
//! is a private mutation, evaluating it is an undoable incremental
//! refresh of the moved gate's cone against the branch's last state, a
//! rejected move is undone without re-timing, and the parent session
//! stays frozen throughout. Restarts fan out over a
//! [`ScopedPool`]; each draws from its own SplitMix64 stream keyed by
//! `(seed, restart index)`, so the walk — and therefore the whole
//! outcome — is **bit-identical at every pool width**, and a run over
//! restarts `[k, k+n)` via [`AnnealingConfig::restart_offset`]
//! reproduces exactly those restarts of a full run (the
//! restart-chunking property the determinism suite pins down).
//!
//! The best branch (lowest energy; ties go to the earliest restart) is
//! adopted with [`TimingSession::commit`], which moves the branch's
//! evaluated state into the session without recomputing it — so the
//! committed winner is exactly the state its restart reported.
//!
//! [`ScopedPool`]: crate::ScopedPool
//! [`TimingSession::commit`]: crate::TimingSession::commit

use super::{recover_area, Objective, Sizer, SizingOutcome, SizingPass};
use crate::config::SstaConfig;
use crate::engine::EngineKind;
use crate::pool::ScopedPool;
use crate::session::TimingSession;
use std::sync::Arc;
use std::time::Instant;
use vartol_liberty::Library;
use vartol_netlist::{GateId, GateKind, Netlist};
use vartol_stats::Moments;

/// Initial temperature as a fraction of the initial objective magnitude.
const INITIAL_TEMP_FRAC: f64 = 0.05;

/// Tuning knobs for [`AnnealingSizer`].
#[derive(Debug, Clone, PartialEq)]
pub struct AnnealingConfig {
    /// What to minimize. Default: the paper's `μ + 3σ`.
    pub objective: Objective,
    /// Independent restarts (each gets its own branch and RNG stream).
    pub restarts: usize,
    /// Metropolis moves per restart.
    pub moves: usize,
    /// Geometric cooling factor applied after every move.
    pub cooling: f64,
    /// Area pressure in the energy: `E = objective + area_weight ·
    /// (area / initial_area) · |initial objective|`.
    pub area_weight: f64,
    /// Base RNG seed; restart `r` draws from stream
    /// `mix(seed, restart_offset + r)`.
    pub seed: u64,
    /// Global index of the first restart — lets a sharded run cover
    /// restarts `[offset, offset + restarts)` of a larger schedule and
    /// reproduce them bit for bit.
    pub restart_offset: u64,
    /// Fraction of the energy gain the polish of each restart's best
    /// state (before the winner is picked) must keep: its budget is
    /// `start − keep·(start − best)`, so `1.0` trades nothing back and
    /// `0.8` spends a fifth of the win on area.
    pub recovery_keep_frac: f64,
    /// Timing/variation configuration shared with the session.
    pub ssta: SstaConfig,
}

impl Default for AnnealingConfig {
    fn default() -> Self {
        Self {
            objective: Objective::Statistical { alpha: 3.0 },
            restarts: 4,
            moves: 400,
            cooling: 0.985,
            area_weight: 0.01,
            seed: 0x5eed_ba5e,
            restart_offset: 0,
            recovery_keep_frac: 0.85,
            ssta: SstaConfig::default(),
        }
    }
}

impl AnnealingConfig {
    /// Sets the objective.
    #[must_use]
    pub fn with_objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Sets the restart count.
    #[must_use]
    pub fn with_restarts(mut self, restarts: usize) -> Self {
        self.restarts = restarts;
        self
    }

    /// Sets the per-restart move budget.
    #[must_use]
    pub fn with_moves(mut self, moves: usize) -> Self {
        self.moves = moves;
        self
    }

    /// Sets the base seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Starts the restart schedule at a global index (for chunked runs).
    #[must_use]
    pub fn with_restart_offset(mut self, offset: u64) -> Self {
        self.restart_offset = offset;
        self
    }

    /// Replaces the timing configuration.
    #[must_use]
    pub fn with_ssta(mut self, ssta: SstaConfig) -> Self {
        self.ssta = ssta;
        self
    }
}

/// SplitMix64 — the tiny deterministic generator behind each restart
/// stream. Sequential, allocation-free, identical on every platform.
#[derive(Debug, Clone)]
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` from the top 53 bits.
    fn next_f64(&mut self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let v = (self.next_u64() >> 11) as f64;
        v / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`. `n` must be nonzero.
    fn next_below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The stream seed of global restart `r` under base `seed`: a SplitMix64
/// finalizer over `seed ⊕ golden·(r+1)`, so neighboring restarts land in
/// unrelated regions of the state space.
#[must_use]
pub fn restart_seed(seed: u64, restart: u64) -> u64 {
    let mut z = seed ^ restart.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// What one restart walked to: its final (polished) best state, still
/// alive on its branch so the winner can be committed without recompute.
struct RestartResult {
    energy: f64,
    moments: Moments,
    area: f64,
    resized: usize,
    branch: TimingSession,
}

/// Deterministic multi-start simulated-annealing sizer.
///
/// See the module docs above. Holds its library through a shared
/// handle, like every sizer in the workspace.
#[derive(Debug, Clone)]
pub struct AnnealingSizer {
    library: Arc<Library>,
    config: AnnealingConfig,
}

impl AnnealingSizer {
    /// Creates a sizer over a library. Accepts an `Arc<Library>`, an
    /// owned `Library`, or a `&Library` (cloned once).
    #[must_use]
    pub fn new(library: impl Into<Arc<Library>>, config: AnnealingConfig) -> Self {
        Self {
            library: library.into(),
            config,
        }
    }

    /// The configuration in effect.
    #[must_use]
    pub fn config(&self) -> &AnnealingConfig {
        &self.config
    }

    /// One Metropolis walk on a private branch. Everything here reads
    /// only the branch and the restart's own RNG stream, so the result
    /// depends on nothing but the global restart index.
    fn run_restart(
        &self,
        mut branch: TimingSession,
        resizable: &[(GateId, usize)],
        restart: u64,
        base_sizes: &[usize],
        initial_area: f64,
        objective_norm: f64,
    ) -> RestartResult {
        let objective = self.config.objective;
        let energy = |m: Moments, area: f64| {
            objective.value(m) + self.config.area_weight * (area / initial_area) * objective_norm
        };
        let mut rng = SplitMix64::new(restart_seed(self.config.seed, restart));

        let m0 = branch.refresh();
        let mut current_energy = energy(m0, branch.total_area());
        let walk_start_energy = current_energy;
        let mut best_energy = current_energy;
        let mut best_sizes = branch.sizes();
        let mut temp = INITIAL_TEMP_FRAC * objective_norm;

        for _ in 0..self.config.moves {
            let (g, group_len) = resizable[rng.next_below(resizable.len() as u64) as usize];
            let proposal = rng.next_below(group_len as u64) as usize;
            let current = branch.netlist().gate(g).size().expect("a resizable cell");
            // A same-size proposal still advances the stream (and the
            // schedule) so the walk is a pure function of the seed.
            if proposal != current {
                branch.resize(g, proposal);
                let m = branch.refresh_undoable();
                let next_energy = energy(m, branch.total_area());
                let delta = next_energy - current_energy;
                let accept = delta <= 0.0 || (temp > 0.0 && rng.next_f64() < (-delta / temp).exp());
                if accept {
                    current_energy = next_energy;
                    if next_energy < best_energy {
                        best_energy = next_energy;
                        best_sizes = branch.sizes();
                    }
                } else {
                    branch.undo();
                }
            }
            temp *= self.config.cooling;
        }

        // Land the branch on its best state, then polish: downsize
        // sinks-first wherever the energy stays within budget (the area
        // term arbitrates objective-vs-area), repeating the pass until it
        // moves nothing, since freeing one gate can unlock slack
        // upstream. The branch the winner commits is the polished one.
        branch
            .try_restore_sizes(&best_sizes)
            .expect("best sizes came from this branch");
        branch.refresh();
        let gain = (walk_start_energy - best_energy).max(0.0);
        let keep = self.config.recovery_keep_frac.clamp(0.0, 1.0);
        let budget = best_energy + (1.0 - keep) * gain + 1e-12 * best_energy.abs().max(1.0);
        let gates: Vec<GateId> = resizable.iter().map(|&(g, _)| g).collect();
        let within_budget = |b: &TimingSession, m: Moments| energy(m, b.total_area()) <= budget;
        while recover_area(&mut branch, &gates, within_budget) > 0 {}

        let moments = branch.refresh();
        let area = branch.total_area();
        let resized = branch
            .sizes()
            .iter()
            .zip(base_sizes)
            .filter(|(a, b)| a != b)
            .count();
        RestartResult {
            energy: energy(moments, area),
            moments,
            area,
            resized,
            branch,
        }
    }
}

impl Sizer for AnnealingSizer {
    fn name(&self) -> &'static str {
        "annealing"
    }

    /// Runs the restart schedule and commits the winning branch.
    ///
    /// # Panics
    ///
    /// Panics if the netlist references cells missing from the library.
    fn size(&self, netlist: &mut Netlist) -> SizingOutcome {
        let start = Instant::now();
        let objective = self.config.objective;
        let mut session = TimingSession::with_kind(
            Arc::clone(&self.library),
            self.config.ssta.clone(),
            netlist.clone(),
            EngineKind::FullSsta,
        );
        let initial = session.circuit_moments();
        let initial_area = session.total_area();
        let objective_norm = objective.value(initial).abs().max(1e-9);

        let mut resizable: Vec<(GateId, usize)> = Vec::new();
        for g in session.netlist().gate_ids() {
            let gate = session.netlist().gate(g);
            if let GateKind::Cell { function, .. } = *gate.kind() {
                let arity = gate.fanins().len();
                if let Some(group) = self.library.group(function, arity) {
                    if group.len() > 1 {
                        resizable.push((g, group.len()));
                    }
                }
            }
        }

        if resizable.is_empty() || self.config.restarts == 0 || self.config.moves == 0 {
            let outcome = SizingOutcome {
                optimizer: self.name(),
                objective,
                initial_moments: initial,
                final_moments: initial,
                initial_area,
                final_area: initial_area,
                passes: Vec::new(),
                runtime: start.elapsed(),
            };
            *netlist = session.into_netlist();
            return outcome;
        }

        // Fork the whole population up front (one state copy each), walk
        // the restarts concurrently, join in restart order.
        let base_sizes = session.sizes();
        let branches: Vec<TimingSession> =
            (0..self.config.restarts).map(|_| session.fork()).collect();
        let pool = ScopedPool::new(self.config.ssta.threads);
        let results: Vec<RestartResult> = pool.map_items(branches, |r, branch| {
            self.run_restart(
                branch,
                &resizable,
                self.config.restart_offset + r as u64,
                &base_sizes,
                initial_area,
                objective_norm,
            )
        });

        let passes: Vec<SizingPass> = results
            .iter()
            .enumerate()
            .map(|(r, res)| SizingPass {
                pass: usize::try_from(self.config.restart_offset).unwrap_or(usize::MAX) + r + 1,
                moments: res.moments,
                objective: objective.value(res.moments),
                area: res.area,
                resized: res.resized,
            })
            .collect();

        // Lowest energy wins; ties go to the earliest restart, and a
        // winner that is no better than the start is discarded (the
        // outcome is never worse than its starting point).
        let mut winner: Option<usize> = None;
        for (r, res) in results.iter().enumerate() {
            if winner.is_none_or(|w| res.energy < results[w].energy) {
                winner = Some(r);
            }
        }
        let start_energy = objective.value(initial) + self.config.area_weight * objective_norm;
        let winner = winner.filter(|&w| results[w].energy <= start_energy);

        if let Some(w) = winner {
            let branch = results
                .into_iter()
                .nth(w)
                .expect("winner index is in range")
                .branch;
            session
                .commit(branch)
                .expect("the parent stayed frozen while the restarts ran");
        }

        let final_moments = session.circuit_moments();
        let final_area = session.total_area();
        *netlist = session.into_netlist();
        SizingOutcome {
            optimizer: self.name(),
            objective,
            initial_moments: initial,
            final_moments,
            initial_area,
            final_area,
            passes,
            runtime: start.elapsed(),
        }
    }
}
