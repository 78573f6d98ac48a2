//! The sharded service core: request routing, per-shard worker threads,
//! bounded admission queues, and the cache-fronted request handlers.
//!
//! # Topology
//!
//! A [`Service`] owns `N` independent shards. Each shard is one worker
//! thread owning a private [`vartol::workspace::Workspace`] (and so a
//! private set of cached timing sessions) plus a private
//! [`ResultCache`]. Circuits are partitioned by name:
//! `FNV-1a(name) mod N` picks the shard, so every request for a circuit
//! — registration included — lands on the same worker and no
//! cross-shard locking exists anywhere.
//!
//! # Admission control
//!
//! Each shard's queue is a bounded [`std::sync::mpsc::sync_channel`].
//! Routing uses `try_send`: when a shard's queue is at its configured
//! depth the request is rejected **immediately** with
//! [`ServeResponse::Busy`] — it is never enqueued, no session is
//! touched, and the caller is expected to retry. This keeps a flood on
//! one hot circuit from stalling the acceptor or starving other shards
//! (per-shard backpressure instead of global).
//!
//! # Determinism
//!
//! Routing by name is stable, each worker processes its queue in FIFO
//! order, and the `Workspace` underneath is bit-identical at every pool
//! width — so replaying a request script serially produces
//! byte-identical payloads for **any** shard count and any
//! [`WorkspaceConfig::threads`] width. The service-level merges keep it
//! that way: `ListCircuits` sorts the union of the shards' registries.
//! Only [`ServeRequest::Stats`] (per-shard rows) and concurrent-load
//! `Busy` rejections depend on the topology.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use vartol::core::SizerConfig;
use vartol::liberty::Library;
use vartol::netlist::generators::{benchmark, preset};
use vartol::ssta::{
    config_fingerprint, fingerprint_bytes, size_fingerprint, Fnv64, OptimizerKind, ScopedPool,
    SstaConfig, VariationModel,
};
use vartol::workspace::{
    Answer, ErrorCode, GateResize, Request, WhatIfTrial, Workspace, WorkspaceConfig,
};

use crate::cache::{CacheKey, ResultCache};
use crate::protocol::{
    Frame, ServeRequest, ServeResponse, ServiceStats, ShardStats, PROTOCOL_VERSION,
};

/// Knobs of a [`Service`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ServeConfig {
    /// Number of shards (independent worker threads / workspaces).
    /// Clamped to at least 1. A pure throughput knob: answers are
    /// byte-identical at every shard count.
    pub shards: usize,
    /// Bounded per-shard queue depth; a request arriving at a full
    /// queue is rejected with [`ServeResponse::Busy`].
    pub queue_depth: usize,
    /// Result-cache capacity per shard, in entries (0 disables
    /// caching).
    pub cache_capacity: usize,
    /// Configuration of every shard's underlying `Workspace`.
    pub workspace: WorkspaceConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            shards: 2,
            queue_depth: 64,
            cache_capacity: 256,
            workspace: WorkspaceConfig::default(),
        }
    }
}

impl ServeConfig {
    /// Sets the shard count.
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Sets the per-shard queue depth.
    #[must_use]
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth;
        self
    }

    /// Sets the per-shard cache capacity (0 disables caching).
    #[must_use]
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Sets the per-shard workspace configuration.
    #[must_use]
    pub fn with_workspace(mut self, workspace: WorkspaceConfig) -> Self {
        self.workspace = workspace;
        self
    }
}

/// The shard a circuit name routes to, out of `shards`.
#[must_use]
pub fn shard_of(circuit: &str, shards: usize) -> usize {
    #[allow(clippy::cast_possible_truncation)]
    {
        (fingerprint_bytes(circuit.as_bytes()) % shards.max(1) as u64) as usize
    }
}

/// Folds everything that can change an answer — the engine
/// configuration (minus its pure speed knob) and the Monte-Carlo
/// budget/seed — into the shard's cache-key fingerprint.
fn service_fingerprint(config: &WorkspaceConfig) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(config_fingerprint(&config.ssta));
    h.write_u64(config.mc_samples as u64);
    h.write_u64(config.mc_seed);
    h.finish()
}

enum Job {
    Request {
        request: ServeRequest,
        reply: Sender<Frame>,
    },
    /// Test-only: parks the worker until the paired sender drops,
    /// letting tests fill the queue behind a deterministically-busy
    /// shard. `ready` acknowledges the park, so the fence occupies no
    /// queue slot by the time the test starts filling.
    #[cfg(test)]
    Fence {
        ready: Sender<()>,
        gate: Receiver<()>,
    },
}

struct ShardHandle {
    tx: Option<SyncSender<Job>>,
    busy: Arc<AtomicU64>,
    queue_depth: usize,
    thread: Option<JoinHandle<()>>,
}

/// The sharded, cache-fronted request router (see the
/// [module docs](self)).
///
/// `Service` is `Sync`: any number of connection threads can route
/// requests concurrently. Dropping it shuts the workers down and joins
/// them.
pub struct Service {
    shards: Vec<ShardHandle>,
    closed: AtomicBool,
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("shards", &self.shards.len())
            .field("closed", &self.closed.load(Ordering::SeqCst))
            .finish()
    }
}

impl Service {
    /// Spawns the shard workers over a shared library.
    #[must_use]
    pub fn new(library: impl Into<Arc<Library>>, config: ServeConfig) -> Self {
        let library = library.into();
        let shards = (0..config.shards.max(1))
            .map(|id| {
                let (tx, rx) = sync_channel(config.queue_depth.max(1));
                let busy = Arc::new(AtomicU64::new(0));
                let thread = {
                    let library = Arc::clone(&library);
                    let config = config.clone();
                    let busy = Arc::clone(&busy);
                    std::thread::Builder::new()
                        .name(format!("vartol-serve-shard-{id}"))
                        .spawn(move || run_worker(id, &library, &config, &busy, &rx))
                        .expect("spawn shard worker")
                };
                ShardHandle {
                    tx: Some(tx),
                    busy,
                    queue_depth: config.queue_depth.max(1),
                    thread: Some(thread),
                }
            })
            .collect();
        Self {
            shards,
            closed: AtomicBool::new(false),
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Whether [`ServeRequest::Shutdown`] has been processed; a closed
    /// service answers every request with an error frame.
    #[must_use]
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }

    /// Routes one request, streaming every response frame to
    /// `on_frame` as it arrives (a [`ServeRequest::Size`] run yields
    /// progress frames before its final answer; everything else yields
    /// exactly one frame).
    pub fn call_with(&self, request: ServeRequest, on_frame: &mut dyn FnMut(Frame)) {
        let start = Instant::now();
        if self.is_closed() {
            on_frame(Frame::new(
                ServeResponse::unavailable("service is shut down"),
                0,
            ));
            return;
        }
        match request.circuit() {
            Some(name) => {
                let shard = shard_of(name, self.shards.len());
                match self.enqueue(shard, request) {
                    Ok(replies) => drain_replies(shard, &replies, on_frame),
                    Err(frame) => on_frame(frame),
                }
            }
            None => self.broadcast(&request, start, on_frame),
        }
    }

    /// Routes one request and collects its frames (the blocking
    /// convenience over [`Service::call_with`]).
    pub fn call(&self, request: ServeRequest) -> Vec<Frame> {
        let mut frames = Vec::new();
        self.call_with(request, &mut |f| frames.push(f));
        frames
    }

    /// The merged statistics snapshot (a typed
    /// [`ServeRequest::Stats`]).
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        for frame in self.call(ServeRequest::Stats) {
            if let ServeResponse::Stats { stats } = frame.payload {
                return stats;
            }
        }
        ServiceStats {
            protocol: PROTOCOL_VERSION,
            shards: Vec::new(),
        }
    }

    /// Enqueues on one shard with admission control: a full queue
    /// rejects with a `Busy` frame instead of blocking.
    fn enqueue(&self, shard: usize, request: ServeRequest) -> Result<Receiver<Frame>, Frame> {
        let handle = &self.shards[shard];
        let tx = handle.tx.as_ref().expect("senders live until drop");
        let (reply_tx, reply_rx) = channel();
        match tx.try_send(Job::Request {
            request,
            reply: reply_tx,
        }) {
            Ok(()) => Ok(reply_rx),
            Err(TrySendError::Full(_)) => {
                handle.busy.fetch_add(1, Ordering::SeqCst);
                Err(Frame::new(
                    ServeResponse::Busy {
                        shard,
                        depth: handle.queue_depth,
                    },
                    0,
                ))
            }
            Err(TrySendError::Disconnected(_)) => Err(Frame::new(
                ServeResponse::unavailable(format!("shard {shard} worker is gone")),
                0,
            )),
        }
    }

    /// Sends a service-level request to every shard (blocking sends —
    /// these verbs are cheap and must not be load-shed) and merges the
    /// per-shard answers into one deterministic frame.
    fn broadcast(&self, request: &ServeRequest, start: Instant, on_frame: &mut dyn FnMut(Frame)) {
        let mut replies = Vec::with_capacity(self.shards.len());
        for handle in &self.shards {
            let tx = handle.tx.as_ref().expect("senders live until drop");
            let (reply_tx, reply_rx) = channel();
            let sent = tx
                .send(Job::Request {
                    request: request.clone(),
                    reply: reply_tx,
                })
                .is_ok();
            replies.push(sent.then_some(reply_rx));
        }
        let mut circuits: Vec<String> = Vec::new();
        let mut rows: Vec<ShardStats> = Vec::new();
        for (shard, reply) in replies.into_iter().enumerate() {
            let Some(frame) = reply.and_then(|rx| rx.recv().ok()) else {
                on_frame(Frame::new(
                    ServeResponse::unavailable(format!("shard {shard} worker is gone")),
                    wall_us(start),
                ));
                return;
            };
            match frame.payload {
                ServeResponse::Circuits { circuits: names } => circuits.extend(names),
                ServeResponse::Stats { stats } => rows.extend(stats.shards),
                ServeResponse::ShuttingDown => {}
                other => {
                    on_frame(Frame::new(other, wall_us(start)));
                    return;
                }
            }
        }
        let payload = match request {
            ServeRequest::ListCircuits => {
                circuits.sort_unstable();
                ServeResponse::Circuits { circuits }
            }
            ServeRequest::Stats => ServeResponse::Stats {
                stats: ServiceStats {
                    protocol: PROTOCOL_VERSION,
                    shards: rows,
                },
            },
            _ => {
                self.closed.store(true, Ordering::SeqCst);
                ServeResponse::ShuttingDown
            }
        };
        on_frame(Frame::new(payload, wall_us(start)));
    }

    #[cfg(test)]
    fn fence(&self, shard: usize) -> Sender<()> {
        let (ready_tx, ready_rx) = channel();
        let (gate_tx, gate_rx) = channel();
        self.shards[shard]
            .tx
            .as_ref()
            .expect("senders live until drop")
            .send(Job::Fence {
                ready: ready_tx,
                gate: gate_rx,
            })
            .expect("worker alive");
        ready_rx.recv().expect("worker parks at the fence");
        gate_tx
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        for handle in &mut self.shards {
            // Dropping the sender ends the worker's job loop…
            handle.tx.take();
        }
        for handle in &mut self.shards {
            // …so the join below cannot deadlock (reply channels are
            // unbounded: workers never block sending).
            if let Some(thread) = handle.thread.take() {
                let _ = thread.join();
            }
        }
    }
}

/// Streams one enqueued request's reply frames to `on_frame` until the
/// terminal frame (or the worker dies).
fn drain_replies(shard: usize, replies: &Receiver<Frame>, on_frame: &mut dyn FnMut(Frame)) {
    loop {
        match replies.recv() {
            Ok(frame) => {
                let done = frame.done;
                on_frame(frame);
                if done {
                    return;
                }
            }
            Err(_) => {
                on_frame(Frame::new(
                    ServeResponse::unavailable(format!("shard {shard} worker died mid-request")),
                    0,
                ));
                return;
            }
        }
    }
}

#[allow(clippy::cast_possible_truncation)]
fn wall_us(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
}

// ---------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------

fn run_worker(
    id: usize,
    library: &Arc<Library>,
    config: &ServeConfig,
    busy: &Arc<AtomicU64>,
    jobs: &Receiver<Job>,
) {
    let workspace = Workspace::new(Arc::clone(library), config.workspace.clone());
    let config_fp = service_fingerprint(workspace.config());
    let mut state = ShardState {
        id,
        workspace,
        cache: ResultCache::new(config.cache_capacity),
        config_fp,
        served: 0,
        busy: Arc::clone(busy),
    };
    for job in jobs.iter() {
        match job {
            Job::Request { request, reply } => {
                state.handle(request, &reply);
                state.served += 1;
            }
            #[cfg(test)]
            Job::Fence { ready, gate } => {
                let _ = ready.send(());
                let _ = gate.recv();
            }
        }
    }
}

struct ShardState {
    id: usize,
    workspace: Workspace,
    cache: ResultCache,
    config_fp: u64,
    served: u64,
    busy: Arc<AtomicU64>,
}

impl ShardState {
    /// Answers one request. The four service verbs have their own arms;
    /// every other verb takes the same path: cache lookup if it is
    /// cacheable, lowering onto the `Workspace` request, the query,
    /// invalidation of the circuit's cache entries if it mutated, and
    /// one lifting of the answer onto the wire.
    fn handle(&mut self, request: ServeRequest, reply: &Sender<Frame>) {
        let start = Instant::now();
        let mut send = |payload: ServeResponse| {
            // A send failure just means the client hung up; the worker
            // keeps serving its queue.
            let _ = reply.send(Frame::new(payload, wall_us(start)));
        };
        match request {
            ServeRequest::Register {
                circuit,
                preset: preset_name,
                bench,
            } => send(self.register(&circuit, preset_name.as_deref(), bench.as_deref())),
            ServeRequest::ListCircuits => send(ServeResponse::Circuits {
                circuits: self.workspace.circuit_names().map(String::from).collect(),
            }),
            ServeRequest::Stats => send(ServeResponse::Stats {
                stats: ServiceStats {
                    protocol: PROTOCOL_VERSION,
                    shards: vec![self.stats_row()],
                },
            }),
            ServeRequest::Shutdown => send(ServeResponse::ShuttingDown),
            request => self.query(request, &mut send),
        }
    }

    fn register(
        &mut self,
        circuit: &str,
        preset_name: Option<&str>,
        bench: Option<&str>,
    ) -> ServeResponse {
        let result = match (preset_name, bench) {
            (Some(p), None) => {
                let library = self.workspace.library();
                match preset(p, &library).or_else(|| benchmark(p, &library)) {
                    Some(netlist) => self.workspace.register(circuit, netlist),
                    None => {
                        return ServeResponse::error_with(
                            ErrorCode::UnknownPreset.as_str(),
                            format!("unknown preset or benchmark `{p}`"),
                        )
                    }
                }
            }
            (None, Some(text)) => self.workspace.register_bench_str(circuit, text),
            _ => return ServeResponse::error("Register needs exactly one of `preset` or `bench`"),
        };
        if let Err(e) = result {
            return ServeResponse::error_with(e.code().as_str(), e.to_string());
        }
        let netlist = self.workspace.netlist(circuit).expect("just registered");
        ServeResponse::Registered {
            circuit: circuit.to_owned(),
            gates: netlist.gate_count(),
            depth: netlist.depth(),
            registers: netlist.register_count(),
        }
    }

    /// Answers a workspace verb, sending its payloads through `send`.
    ///
    /// A cacheable request is looked up by `(circuit, sizes, config,
    /// request)` first, and every non-error answer to it is stored. A
    /// `BranchAnalyze` keys on the **branch's** size fingerprint, not
    /// the session's: a branch answer is a pure function of the
    /// branch's own sizes, so a commit on the parent can never make a
    /// sibling's cached answer stale (the serve-level face of the
    /// session's fork-cache invalidation). A `WhatIf` keys on the
    /// session's sizes — its trials diverge *from* them.
    ///
    /// A mutating request that succeeds drops all of the circuit's
    /// entries (the clock is not part of the key, hence `SetClock`).
    fn query(&mut self, request: ServeRequest, send: &mut dyn FnMut(ServeResponse)) {
        let key = request
            .cacheable()
            .then(|| self.cache_key(&request))
            .flatten();
        if let Some(hit) = key.as_ref().and_then(|key| self.cache.get(key)) {
            return send(hit);
        }
        let circuit = request.circuit().unwrap_or_default().to_owned();
        let mutates = request.mutates();
        let forwarded = match to_workspace_request(request, &self.workspace.config().ssta) {
            Ok(forwarded) => forwarded,
            Err(payload) => return send(payload),
        };
        let answer = self.workspace.query(forwarded).answer;
        let failed = matches!(answer, Answer::Error { .. });
        if mutates && !failed {
            self.cache.invalidate_circuit(&circuit);
        }
        let payload = answer_payload(&circuit, answer, send);
        if let (Some(key), false) = (key, failed) {
            self.cache.insert(key, payload.clone());
        }
        send(payload);
    }

    /// The cache key of a cacheable request, or `None` when its circuit
    /// (or branch) is unknown — such a request is answered uncached.
    fn cache_key(&self, request: &ServeRequest) -> Option<CacheKey> {
        let name = request.circuit()?;
        let size_fp = match request {
            ServeRequest::BranchAnalyze { circuit, branch } => {
                self.workspace.branch_fingerprint(circuit, branch)?
            }
            _ => size_fingerprint(&self.workspace.netlist(name)?.sizes()),
        };
        Some(CacheKey {
            circuit: name.to_owned(),
            size_fp,
            config_fp: self.config_fp,
            query_fp: fingerprint_bytes(request.to_line().as_bytes()),
        })
    }

    fn stats_row(&self) -> ShardStats {
        let counters = self.cache.counters();
        let names: Vec<String> = self.workspace.circuit_names().map(String::from).collect();
        let (branches_live, branches_committed, branches_dropped) =
            self.workspace.branch_counters();
        ShardStats {
            shard: self.id,
            circuits: self.workspace.len(),
            served: self.served,
            busy_rejections: self.busy.load(Ordering::SeqCst),
            cache_hits: counters.hits,
            cache_misses: counters.misses,
            cache_evictions: counters.evictions,
            cache_invalidations: counters.invalidations,
            branches_live,
            branches_committed,
            branches_dropped,
            propagation_threads: ScopedPool::new(self.workspace.config().ssta.threads).threads(),
            propagation_levels: names
                .iter()
                .filter_map(|name| self.workspace.propagation_levels(name))
                .max()
                .unwrap_or(0),
        }
    }
}

/// Lowers a wire request onto the `Workspace` request it forwards to,
/// validating wire-level parameters that the library-level constructors
/// would panic on or that only the wire spells as text. `ssta` is the
/// shard's engine configuration, which a `Size` run's sizer inherits.
fn to_workspace_request(
    request: ServeRequest,
    ssta: &SstaConfig,
) -> Result<Request, ServeResponse> {
    Ok(match request {
        ServeRequest::Analyze { circuit, kind } => Request::Analyze { circuit, kind },
        ServeRequest::AnalyzeUnder {
            circuit,
            kind,
            d2d_share,
        } => {
            if !(d2d_share.is_finite() && (0.0..=1.0).contains(&d2d_share)) {
                return Err(ServeResponse::error_with(
                    ErrorCode::InvalidParameter.as_str(),
                    format!("d2d_share must be in [0, 1], got {d2d_share}"),
                ));
            }
            Request::AnalyzeUnder {
                circuit,
                kind,
                model: VariationModel::die_to_die(d2d_share),
            }
        }
        ServeRequest::Arrival { circuit, node } => Request::Arrival { circuit, node },
        ServeRequest::Slack {
            circuit,
            t_req,
            alpha,
        } => Request::Slack {
            circuit,
            t_req,
            alpha,
        },
        ServeRequest::Criticality { circuit, top } => Request::Criticality { circuit, top },
        ServeRequest::Yield { circuit, deadline } => Request::Yield { circuit, deadline },
        ServeRequest::Resize {
            circuit,
            gate,
            size,
        } => Request::Resize {
            circuit,
            gate,
            size,
        },
        ServeRequest::Size {
            circuit,
            alpha,
            max_passes,
            optimizer,
            yield_deadline,
        } => {
            let optimizer = match optimizer.as_deref() {
                None => OptimizerKind::Greedy,
                Some(name) => OptimizerKind::parse(name).ok_or_else(|| {
                    ServeResponse::error_with(
                        ErrorCode::InvalidParameter.as_str(),
                        format!(
                            "unknown optimizer `{name}`; expected one of \
                             greedy, mean_delay, lagrangian, annealing"
                        ),
                    )
                })?,
            };
            if !(alpha.is_finite() && alpha >= 0.0) {
                return Err(ServeResponse::error_with(
                    ErrorCode::InvalidParameter.as_str(),
                    format!("alpha must be finite and >= 0, got {alpha}"),
                ));
            }
            let mut config = SizerConfig::with_alpha(alpha).with_ssta(ssta.clone());
            if let Some(passes) = max_passes {
                config = config.with_max_passes(passes);
            }
            Request::Size {
                circuit,
                config,
                optimizer,
                yield_deadline,
            }
        }
        ServeRequest::Fork { circuit, branch } => Request::Fork { circuit, branch },
        ServeRequest::BranchResize {
            circuit,
            branch,
            gate,
            size,
        } => Request::BranchResize {
            circuit,
            branch,
            gate,
            size,
        },
        ServeRequest::BranchAnalyze { circuit, branch } => {
            Request::BranchAnalyze { circuit, branch }
        }
        ServeRequest::Commit { circuit, branch } => Request::Commit { circuit, branch },
        ServeRequest::DropBranch { circuit, branch } => Request::DropBranch { circuit, branch },
        ServeRequest::SetClock {
            circuit,
            period,
            uncertainty,
        } => Request::SetClock {
            circuit,
            period,
            uncertainty,
        },
        ServeRequest::GroupSlack { circuit, kind } => Request::GroupSlack { circuit, kind },
        ServeRequest::Wns { circuit, kind } => Request::Wns { circuit, kind },
        ServeRequest::Tns { circuit, kind } => Request::Tns { circuit, kind },
        ServeRequest::WhatIf { circuit, trials } => Request::WhatIfBatch {
            circuit,
            trials: trials
                .into_iter()
                .map(|resizes| WhatIfTrial {
                    resizes: resizes
                        .into_iter()
                        .map(|(gate, size)| GateResize { gate, size })
                        .collect(),
                })
                .collect(),
        },
        other => {
            return Err(ServeResponse::error(format!(
                "not a workspace query: {other:?}"
            )))
        }
    })
}

/// Lowers a `Workspace` answer to a request on `circuit` onto its wire
/// payload. A sized answer first sends one [`ServeResponse::Progress`]
/// payload per pass row through `progress`.
fn answer_payload(
    circuit: &str,
    answer: Answer,
    progress: &mut dyn FnMut(ServeResponse),
) -> ServeResponse {
    match answer {
        Answer::Analysis {
            kind,
            moments,
            worst_output,
        } => ServeResponse::Analysis {
            kind,
            mu: moments.mean,
            sigma: moments.std(),
            worst_output,
        },
        Answer::Arrival { node, moments } => ServeResponse::Arrival {
            node,
            mu: moments.mean,
            sigma: moments.std(),
        },
        Answer::Slack { worst, worst_node } => ServeResponse::Slack { worst, worst_node },
        Answer::Criticality { ranking } => ServeResponse::Criticality { ranking },
        Answer::Yield { fraction } => ServeResponse::Yield { fraction },
        Answer::Resized { moments, area } => ServeResponse::Resized {
            mu: moments.mean,
            sigma: moments.std(),
            area,
        },
        Answer::Sized {
            report,
            moments,
            resized,
            area,
            optimizer,
        } => {
            for pass in report.passes() {
                progress(ServeResponse::Progress {
                    circuit: circuit.to_owned(),
                    pass: pass.pass,
                    mu: pass.circuit.mean,
                    sigma: pass.circuit.std(),
                    area: pass.area,
                    resized: pass.resized,
                });
            }
            ServeResponse::Sized {
                mu: moments.mean,
                sigma: moments.std(),
                area,
                passes: report.passes().len(),
                resized,
                optimizer: optimizer.to_string(),
            }
        }
        Answer::Forked {
            branch,
            fingerprint,
        } => ServeResponse::Forked {
            branch,
            // Hex keeps all 64 bits; JSON numbers are f64.
            fingerprint: format!("{fingerprint:016x}"),
        },
        Answer::BranchResized { branch, diverged } => {
            ServeResponse::BranchResized { branch, diverged }
        }
        Answer::BranchAnalysis {
            branch,
            moments,
            area,
        } => ServeResponse::BranchAnalysis {
            branch,
            mu: moments.mean,
            sigma: moments.std(),
            area,
        },
        Answer::Committed {
            branch,
            moments,
            area,
        } => ServeResponse::Committed {
            branch,
            mu: moments.mean,
            sigma: moments.std(),
            area,
        },
        Answer::Dropped { branch } => ServeResponse::Dropped { branch },
        Answer::WhatIf { outcomes } => ServeResponse::WhatIf {
            outcomes: outcomes
                .into_iter()
                .map(|outcome| answer_payload(circuit, outcome, progress))
                .collect(),
        },
        Answer::ClockSet {
            period,
            uncertainty,
        } => ServeResponse::ClockSet {
            period,
            uncertainty,
        },
        Answer::GroupSlack { kind, groups } => ServeResponse::GroupSlack { kind, groups },
        Answer::Wns { kind, wns } => ServeResponse::Wns { kind, wns },
        Answer::Tns { kind, tns } => ServeResponse::Tns { kind, tns },
        Answer::Error { code, message } => ServeResponse::Error {
            code: code.as_str().to_owned(),
            message,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vartol::ssta::EngineKind;

    fn small_service(shards: usize) -> Service {
        Service::new(
            Library::synthetic_90nm(),
            ServeConfig::default().with_shards(shards),
        )
    }

    fn register(service: &Service, circuit: &str) {
        let frames = service.call(ServeRequest::Register {
            circuit: circuit.into(),
            preset: Some(circuit.into()),
            bench: None,
        });
        assert!(
            matches!(frames[0].payload, ServeResponse::Registered { .. }),
            "{:?}",
            frames[0].payload
        );
    }

    #[test]
    fn routing_is_stable_and_in_range() {
        for shards in [1usize, 2, 4, 7] {
            for name in ["adder_8", "c17", "x", ""] {
                let s = shard_of(name, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(name, shards), "stable");
            }
        }
        assert_eq!(shard_of("anything", 1), 0);
    }

    #[test]
    fn register_analyze_and_cache_hit() {
        let service = small_service(2);
        register(&service, "adder_8");
        let analyze = ServeRequest::Analyze {
            circuit: "adder_8".into(),
            kind: EngineKind::FullSsta,
        };
        let cold = service.call(analyze.clone());
        let warm = service.call(analyze);
        assert_eq!(cold.len(), 1);
        assert!(matches!(cold[0].payload, ServeResponse::Analysis { .. }));
        // Cached answer is identical payload-for-payload.
        assert_eq!(cold[0].payload, warm[0].payload);
        let stats = service.stats();
        assert_eq!(stats.hits(), 1);
        assert_eq!(stats.misses(), 1);
        // Schema additions: the registered circuit gives its shard a
        // non-trivial propagation schedule, and the width is resolved
        // (never the 0 sentinel).
        let row = stats
            .shards
            .iter()
            .find(|s| s.circuits > 0)
            .expect("one shard holds the circuit");
        assert!(row.propagation_threads >= 1);
        assert!(row.propagation_levels > 1);
    }

    #[test]
    fn resize_invalidates_only_the_touched_circuit() {
        let service = small_service(1);
        register(&service, "adder_8");
        register(&service, "cmp_8");
        for circuit in ["adder_8", "cmp_8"] {
            service.call(ServeRequest::Analyze {
                circuit: circuit.into(),
                kind: EngineKind::FullSsta,
            });
        }
        // Resize adder_8: its cached analysis must go, cmp_8's must stay.
        let gate = {
            // Any real gate name; ask the criticality ranking for one.
            let frames = service.call(ServeRequest::Criticality {
                circuit: "adder_8".into(),
                top: 1,
            });
            match &frames[0].payload {
                ServeResponse::Criticality { ranking } => ranking[0].0.clone(),
                other => panic!("{other:?}"),
            }
        };
        let frames = service.call(ServeRequest::Resize {
            circuit: "adder_8".into(),
            gate,
            size: 0,
        });
        assert!(
            matches!(frames[0].payload, ServeResponse::Resized { .. }),
            "{:?}",
            frames[0].payload
        );
        let stats = service.stats();
        assert!(
            stats
                .shards
                .iter()
                .map(|s| s.cache_invalidations)
                .sum::<u64>()
                >= 1
        );
        // cmp_8 must still hit.
        let before = service.stats().hits();
        service.call(ServeRequest::Analyze {
            circuit: "cmp_8".into(),
            kind: EngineKind::FullSsta,
        });
        assert_eq!(service.stats().hits(), before + 1);
        // adder_8 must miss (sizes changed → new key even without
        // invalidation; invalidation keeps the cache from filling with
        // dead entries).
        let misses = service.stats().misses();
        service.call(ServeRequest::Analyze {
            circuit: "adder_8".into(),
            kind: EngineKind::FullSsta,
        });
        assert_eq!(service.stats().misses(), misses + 1);
    }

    #[test]
    fn list_circuits_is_sorted_and_shard_independent() {
        let names = ["adder_8", "adder_16", "cmp_8", "mult_8"];
        let mut listings = Vec::new();
        for shards in [1usize, 2, 4] {
            let service = small_service(shards);
            for name in names {
                register(&service, name);
            }
            let frames = service.call(ServeRequest::ListCircuits);
            let ServeResponse::Circuits { circuits } = &frames[0].payload else {
                panic!("{:?}", frames[0].payload);
            };
            let mut sorted = circuits.clone();
            sorted.sort();
            assert_eq!(&sorted, circuits, "sorted at {shards} shards");
            listings.push(circuits.clone());
        }
        assert!(listings.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn duplicate_registration_is_a_typed_wire_error() {
        let service = small_service(4);
        register(&service, "adder_8");
        let frames = service.call(ServeRequest::Register {
            circuit: "adder_8".into(),
            preset: Some("adder_8".into()),
            bench: None,
        });
        let ServeResponse::Error { code, message } = &frames[0].payload else {
            panic!("{:?}", frames[0].payload);
        };
        assert_eq!(code, "duplicate-circuit");
        assert_eq!(message, "circuit `adder_8` is already registered");
    }

    #[test]
    fn admission_control_rejects_over_depth_without_touching_sessions() {
        let depth = 2;
        let service = Service::new(
            Library::synthetic_90nm(),
            ServeConfig::default()
                .with_shards(1)
                .with_queue_depth(depth),
        );
        register(&service, "adder_8");

        // Park the worker, then fill the queue to its depth.
        let gate = service.fence(0);
        let mut queued = Vec::new();
        for _ in 0..depth {
            let rx = service
                .enqueue(
                    0,
                    ServeRequest::Analyze {
                        circuit: "adder_8".into(),
                        kind: EngineKind::Dsta,
                    },
                )
                .expect("queue has room");
            queued.push(rx);
        }
        // The next request must be rejected immediately with Busy.
        let rejected = service.enqueue(
            0,
            ServeRequest::Analyze {
                circuit: "adder_8".into(),
                kind: EngineKind::Dsta,
            },
        );
        match rejected {
            Err(frame) => assert!(
                matches!(frame.payload, ServeResponse::Busy { shard: 0, depth: d } if d == depth),
                "{:?}",
                frame.payload
            ),
            Ok(_) => panic!("over-depth request must be rejected"),
        }

        // Release the worker: everything that *was* admitted completes.
        drop(gate);
        for rx in queued {
            let frame = rx.recv().expect("queued request completes");
            assert!(matches!(frame.payload, ServeResponse::Analysis { .. }));
        }
        let stats = service.stats();
        assert_eq!(stats.shards[0].busy_rejections, 1);
        // The registration plus every admitted request — and nothing
        // for the rejected one.
        assert_eq!(stats.shards[0].served, 1 + depth as u64);
    }

    #[test]
    fn shutdown_closes_the_service() {
        let service = small_service(2);
        let frames = service.call(ServeRequest::Shutdown);
        assert!(matches!(frames[0].payload, ServeResponse::ShuttingDown));
        assert!(service.is_closed());
        let after = service.call(ServeRequest::ListCircuits);
        let ServeResponse::Error { code, message } = &after[0].payload else {
            panic!("{:?}", after[0].payload);
        };
        assert_eq!(code, "unavailable");
        assert!(message.contains("shut down"));
    }

    #[test]
    fn size_streams_progress_before_the_final_answer() {
        let service = small_service(1);
        register(&service, "cmp_8");
        let frames = service.call(ServeRequest::Size {
            circuit: "cmp_8".into(),
            alpha: 3.0,
            max_passes: Some(1),
            optimizer: None,
            yield_deadline: None,
        });
        assert!(frames.len() >= 2, "progress + final, got {}", frames.len());
        for frame in &frames[..frames.len() - 1] {
            assert!(!frame.done);
            assert!(matches!(frame.payload, ServeResponse::Progress { .. }));
        }
        let last = frames.last().unwrap();
        assert!(last.done);
        assert!(matches!(last.payload, ServeResponse::Sized { .. }));
    }

    #[test]
    fn size_selects_the_named_optimizer_and_reports_it_back() {
        let service = small_service(1);
        register(&service, "cmp_8");
        // Annealing streams one progress frame per restart; the final
        // frame echoes the optimizer that actually ran.
        let frames = service.call(ServeRequest::Size {
            circuit: "cmp_8".into(),
            alpha: 3.0,
            max_passes: Some(2),
            optimizer: Some("annealing".into()),
            yield_deadline: None,
        });
        let last = frames.last().unwrap();
        let ServeResponse::Sized {
            optimizer, passes, ..
        } = &last.payload
        else {
            panic!("{:?}", last.payload);
        };
        assert_eq!(optimizer, "annealing");
        // One restart = one pass row = one progress frame.
        assert_eq!(frames.len() - 1, *passes);
    }

    #[test]
    fn size_rejects_an_unknown_optimizer() {
        let service = small_service(1);
        register(&service, "cmp_8");
        let frames = service.call(ServeRequest::Size {
            circuit: "cmp_8".into(),
            alpha: 3.0,
            max_passes: None,
            optimizer: Some("gradient_descent".into()),
            yield_deadline: None,
        });
        let ServeResponse::Error { code, message } = &frames[0].payload else {
            panic!("{:?}", frames[0].payload);
        };
        assert_eq!(code, "invalid-parameter");
        assert!(message.contains("gradient_descent"), "{message}");
        assert!(message.contains("lagrangian"), "{message}");
    }

    #[test]
    fn size_rejects_a_yield_deadline_on_the_greedy_optimizer() {
        let service = small_service(1);
        register(&service, "cmp_8");
        let frames = service.call(ServeRequest::Size {
            circuit: "cmp_8".into(),
            alpha: 3.0,
            max_passes: None,
            optimizer: None,
            yield_deadline: Some(2500.0),
        });
        let ServeResponse::Error { code, message } = &frames[0].payload else {
            panic!("{:?}", frames[0].payload);
        };
        assert_eq!(code, "invalid-parameter");
        assert!(message.contains("yield"), "{message}");
    }

    #[test]
    fn sequential_verbs_round_trip_and_set_clock_invalidates() {
        let service = small_service(2);
        let frames = service.call(ServeRequest::Register {
            circuit: "seq".into(),
            preset: None,
            bench: Some(
                "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nq = DFF(d)\nd = AND(a, q)\ny = OR(q, b)\n".into(),
            ),
        });
        let ServeResponse::Registered {
            registers, gates, ..
        } = frames[0].payload
        else {
            panic!("{:?}", frames[0].payload);
        };
        assert_eq!(registers, 1);
        assert!(gates >= 3);

        // Clocked queries without a clock are a typed error.
        let frames = service.call(ServeRequest::Wns {
            circuit: "seq".into(),
            kind: EngineKind::FullSsta,
        });
        let ServeResponse::Error { code, .. } = &frames[0].payload else {
            panic!("{:?}", frames[0].payload);
        };
        assert_eq!(code, "no-clock");

        let frames = service.call(ServeRequest::SetClock {
            circuit: "seq".into(),
            period: 500.0,
            uncertainty: 0.0,
        });
        assert!(
            matches!(frames[0].payload, ServeResponse::ClockSet { period, .. } if period == 500.0),
            "{:?}",
            frames[0].payload
        );

        // The feedback circuit has endpoints in all four groups.
        let group_slack = ServeRequest::GroupSlack {
            circuit: "seq".into(),
            kind: EngineKind::FullSsta,
        };
        let cold = service.call(group_slack.clone());
        let ServeResponse::GroupSlack { groups, .. } = &cold[0].payload else {
            panic!("{:?}", cold[0].payload);
        };
        assert_eq!(groups.len(), 4);
        assert!(groups.iter().all(|g| g.endpoints >= 1), "{groups:?}");
        let reg2reg_at_500 = groups.iter().find(|g| g.group == "reg2reg").unwrap().wns;

        // Second call hits the cache with an identical payload.
        let hits_before = service.stats().hits();
        let warm = service.call(group_slack.clone());
        assert_eq!(cold[0].payload, warm[0].payload);
        assert_eq!(service.stats().hits(), hits_before + 1);

        // Re-clocking invalidates: the next query recomputes under the
        // new period, shifting reg→reg slack by exactly the delta.
        let invalidations_before: u64 = service
            .stats()
            .shards
            .iter()
            .map(|s| s.cache_invalidations)
            .sum();
        service.call(ServeRequest::SetClock {
            circuit: "seq".into(),
            period: 800.0,
            uncertainty: 0.0,
        });
        let after: u64 = service
            .stats()
            .shards
            .iter()
            .map(|s| s.cache_invalidations)
            .sum();
        assert!(after > invalidations_before);
        let reclocked = service.call(group_slack);
        let ServeResponse::GroupSlack { groups, .. } = &reclocked[0].payload else {
            panic!("{:?}", reclocked[0].payload);
        };
        let reg2reg_at_800 = groups.iter().find(|g| g.group == "reg2reg").unwrap().wns;
        assert!(
            (reg2reg_at_800 - reg2reg_at_500 - 300.0).abs() < 1e-9,
            "{reg2reg_at_500} -> {reg2reg_at_800}"
        );
    }

    #[test]
    fn invalid_wire_parameters_answer_errors_not_panics() {
        let service = small_service(1);
        register(&service, "adder_8");
        for (request, needle, expected_code) in [
            (
                ServeRequest::AnalyzeUnder {
                    circuit: "adder_8".into(),
                    kind: EngineKind::FullSsta,
                    d2d_share: 1.5,
                },
                "d2d_share",
                "invalid-parameter",
            ),
            (
                ServeRequest::Size {
                    circuit: "adder_8".into(),
                    alpha: -1.0,
                    max_passes: None,
                    optimizer: None,
                    yield_deadline: None,
                },
                "alpha",
                "invalid-parameter",
            ),
            (
                ServeRequest::Analyze {
                    circuit: "nope".into(),
                    kind: EngineKind::Dsta,
                },
                "unknown circuit",
                "unknown-circuit",
            ),
        ] {
            let frames = service.call(request);
            let ServeResponse::Error { code, message } = &frames[0].payload else {
                panic!("{:?}", frames[0].payload);
            };
            assert_eq!(code, expected_code, "{message}");
            assert!(message.contains(needle), "{message}");
        }
    }
}
