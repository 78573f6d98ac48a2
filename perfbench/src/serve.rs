//! `serve_mixed`: `vartol-serve` over loopback TCP with its default two
//! shards, driven by two closed-loop clients (each sends its next
//! request only after the previous reply), each owning its own
//! circuits. The request script is generated from the seed.
//!
//! The verb mix is synthetic and unverified: no record of how clients
//! use the service exists, so the shares below say what each verb
//! exercises, not how often clients send it. Some were set to keep the
//! benchmark steady: Yield is 3% rather than 10%, and Criticality and
//! Yield take fresh keys. The traced run reports the measured read
//! share (`serve.read_share`) and cache hit ratio beside the latencies.
//!
//! Steps per 100 on each circuit (a fork step expands to three
//! requests):
//!
//! | verb | share | exercises |
//! |---|---|---|
//! | `Analyze` FASSTA / FULLSSTA | 15% / 15% | the cached read path; repeats between writes hit |
//! | `Slack` (3 deadlines) | 15% | a cached query family with several keys per circuit |
//! | `Criticality` (top 8–64) | 10% | the costliest analytic query, on a fresh key |
//! | `Yield` (fresh deadline) | 3% | Monte Carlo, ~100x a cached read |
//! | `WhatIf` (4 trials) | 7% | branch fan-out on the read path |
//! | `Resize` | 25% | session refresh on the write path; invalidates the cache |
//! | `Fork`+`BranchResize`+`Commit` | 10% | the branch write path |
//!
//! The cache capacity is raised above the working set and each client
//! owns its circuits, so hit, miss and invalidation counts do not
//! depend on how the two clients interleave.

use crate::common::{
    percentile, secs_since, span_medians, timed_loop, Checks, Ctx, Meter, Outcome, Rng,
};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::Instant;
use vartol::workspace::{GateResize, Request, WhatIfTrial, Workspace, WorkspaceConfig};
use vartol_liberty::Library;
use vartol_netlist::generators::{benchmark, preset};
use vartol_netlist::iscas::{parse_bench, write_bench};
use vartol_netlist::{GateKind, Netlist};
use vartol_serve::protocol::deterministic_part;
use vartol_serve::{ServeConfig, ServeRequest, Server, Service};
use vartol_ssta::{EngineKind, FullSsta, SstaConfig};

const CLIENTS: usize = 2;
/// Repetitions of the set-up, for a steady median.
const SETUP_REPS: usize = 15;
/// Shuffled decks of the mix per client in one pass: enough that reads
/// and writes each have more than 1000 samples, so p99 has more than 10
/// beyond it.
const DECKS_PER_PASS: usize = 3;
/// Per-shard result-cache capacity: far above any circuit's working
/// set between two writes, so nothing is evicted.
const CACHE_CAPACITY: usize = 4096;

/// Each client's circuits: generator presets and ISCAS stand-ins.
const CIRCUITS: [&[&str]; CLIENTS] = [
    &["adder_16", "alu_8", "dag_150", "c432"],
    &["mult_8", "cmp_16", "ecc_16", "c880"],
];

/// One registered circuit as the script generator sees it.
struct Circuit {
    name: String,
    bench: String,
    /// Cell gates with the number of sizes their cell group offers.
    gates: Vec<(String, usize)>,
    /// FULLSSTA μ and σ at registration, to place deadlines.
    mu: f64,
    sigma: f64,
}

/// One client's circuits as netlists: the netlist layer's work.
fn generate(lib: &Library, client: usize) -> Vec<Netlist> {
    CIRCUITS[client]
        .iter()
        .map(|name| {
            preset(name, lib)
                .or_else(|| benchmark(name, lib))
                .expect("known circuit")
        })
        .collect()
}

fn describe(lib: &Library, client: usize, n: &Netlist) -> Circuit {
    let gates = n
        .gate_ids()
        .filter_map(|id| {
            let g = n.gate(id);
            let GateKind::Cell { function, .. } = *g.kind() else {
                return None;
            };
            let sizes = lib.group(function, g.fanins().len())?.len();
            Some((g.name().to_owned(), sizes))
        })
        .collect();
    let m = FullSsta::new(lib, &ssta_config())
        .analyze(n)
        .circuit_moments();
    Circuit {
        name: format!("k{client}_{}", n.name()),
        bench: write_bench(n),
        gates,
        mu: m.mean,
        sigma: m.std(),
    }
}

fn circuits(lib: &Library, client: usize) -> Vec<Circuit> {
    generate(lib, client)
        .iter()
        .map(|n| describe(lib, client, n))
        .collect()
}

fn register(c: &Circuit) -> ServeRequest {
    ServeRequest::Register {
        circuit: c.name.clone(),
        preset: None,
        bench: Some(c.bench.clone()),
    }
}

#[derive(Clone, Copy)]
enum Verb {
    AnalyzeFassta,
    AnalyzeFullSsta,
    Slack,
    Criticality,
    Yield,
    WhatIf,
    Resize,
    ForkCommit,
}

/// Steps of each verb per 100 steps on one circuit (the table above;
/// synthetic shares).
const MIX: [(Verb, usize); 8] = [
    (Verb::AnalyzeFassta, 15),
    (Verb::AnalyzeFullSsta, 15),
    (Verb::Slack, 15),
    (Verb::Criticality, 10),
    (Verb::Yield, 3),
    (Verb::WhatIf, 7),
    (Verb::Resize, 25),
    (Verb::ForkCommit, 10),
];

/// The seeded request script of one client (registration excluded):
/// `decks` shuffled decks, each holding every (circuit, verb) step of
/// the mix exactly, so every seed does the same amount of each kind of
/// work; the seed picks the order, gates, sizes and deadlines.
fn script(circuits: &[Circuit], rng: &mut Rng, decks: usize) -> Vec<ServeRequest> {
    let mut deck: Vec<(usize, Verb)> = (0..circuits.len())
        .flat_map(|c| {
            MIX.iter()
                .flat_map(move |&(v, n)| std::iter::repeat_n((c, v), n))
        })
        .collect();
    let mut out = Vec::new();
    let mut branches = 0usize;
    for _ in 0..decks {
        for i in (1..deck.len()).rev() {
            deck.swap(i, rng.below(i + 1));
        }
        for &(c, verb) in &deck {
            let c = &circuits[c];
            let circuit = c.name.clone();
            let pick = |rng: &mut Rng| {
                let (gate, sizes) = &c.gates[rng.below(c.gates.len())];
                (gate.clone(), rng.below(*sizes))
            };
            match verb {
                Verb::AnalyzeFassta => out.push(ServeRequest::Analyze {
                    circuit,
                    kind: EngineKind::Fassta,
                }),
                Verb::AnalyzeFullSsta => out.push(ServeRequest::Analyze {
                    circuit,
                    kind: EngineKind::FullSsta,
                }),
                Verb::Slack => {
                    #[allow(clippy::cast_precision_loss)]
                    let t_req = c.mu + c.sigma * rng.below(3) as f64;
                    out.push(ServeRequest::Slack {
                        circuit,
                        t_req,
                        alpha: 3.0,
                    });
                }
                // The costly reads take a fresh key almost every time, so
                // their cost does not hang on how often the seed's order
                // happens to repeat them between writes.
                Verb::Criticality => out.push(ServeRequest::Criticality {
                    circuit,
                    top: 8 + rng.below(57),
                }),
                Verb::Yield => {
                    #[allow(clippy::cast_precision_loss)]
                    let deadline = c.mu + c.sigma * (0.5 + rng.below(1024) as f64 / 1024.0);
                    out.push(ServeRequest::Yield { circuit, deadline });
                }
                Verb::WhatIf => {
                    let trials = (0..4).map(|_| vec![pick(rng)]).collect();
                    out.push(ServeRequest::WhatIf { circuit, trials });
                }
                Verb::Resize => {
                    let (gate, size) = pick(rng);
                    out.push(ServeRequest::Resize {
                        circuit,
                        gate,
                        size,
                    });
                }
                Verb::ForkCommit => {
                    branches += 1;
                    let branch = format!("b{branches}");
                    let (gate, size) = pick(rng);
                    out.push(ServeRequest::Fork {
                        circuit: circuit.clone(),
                        branch: branch.clone(),
                    });
                    out.push(ServeRequest::BranchResize {
                        circuit: circuit.clone(),
                        branch: branch.clone(),
                        gate,
                        size,
                    });
                    out.push(ServeRequest::Commit { circuit, branch });
                }
            }
        }
    }
    out
}

/// A reply that is an error or a refusal.
fn refused(line: &str) -> bool {
    line.contains("\"payload\":{\"Error\"") || line.contains("\"payload\":{\"Busy\"")
}

/// What the checks keep of a reply line: whether it was refused, and a
/// digest and the length of its part without the wall-clock stamp.
/// Whole lines, kept for the replay and a pass, were the harness's own
/// memory and moved the peak heap with the seed's reply sizes (8.4–10.7
/// MiB over eight seeds).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Reply {
    refused: bool,
    digest: u64,
    len: usize,
}

impl Reply {
    fn of(line: &str) -> Self {
        use std::hash::{DefaultHasher, Hash, Hasher};
        let part = deterministic_part(line);
        let mut h = DefaultHasher::new();
        part.hash(&mut h);
        Self {
            refused: refused(line),
            digest: h.finish(),
            len: part.len(),
        }
    }
}

/// Analyses run with one pool thread: the two shards (or clients)
/// already fill the two cores, and a fixed width keeps results from
/// moving with the host's core count.
fn ssta_config() -> SstaConfig {
    SstaConfig::default().with_threads(1)
}

/// The service configuration: default shards and queues, the cache
/// raised above the working set, and one pool thread per shard.
fn config(shards: usize) -> ServeConfig {
    let one = WorkspaceConfig::default()
        .with_threads(1)
        .with_ssta(ssta_config());
    ServeConfig::default()
        .with_shards(shards)
        .with_cache_capacity(CACHE_CAPACITY)
        .with_workspace(one)
}

/// A running TCP server and its acceptor thread.
struct Running {
    service: Arc<Service>,
    addr: std::net::SocketAddr,
    acceptor: std::thread::JoinHandle<std::io::Result<()>>,
}

impl Running {
    fn start() -> std::io::Result<Self> {
        let shards = ServeConfig::default().shards;
        let service = Arc::new(Service::new(Library::synthetic_90nm(), config(shards)));
        let server = Server::bind("127.0.0.1:0", Arc::clone(&service))?;
        let addr = server.local_addr()?;
        let acceptor = std::thread::spawn(move || server.run());
        Ok(Self {
            service,
            addr,
            acceptor,
        })
    }

    /// Sends `Shutdown` and waits for the acceptor to stop.
    fn stop(self) -> std::io::Result<()> {
        let mut conn = Conn::open(self.addr)?;
        conn.call(&ServeRequest::Shutdown)?;
        drop(conn);
        self.acceptor
            .join()
            .map_err(|_| std::io::Error::other("acceptor panicked"))?
    }
}

struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: std::net::SocketAddr) -> std::io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Self { writer, reader })
    }

    /// One request, one (terminal) reply line.
    fn call(&mut self, request: &ServeRequest) -> std::io::Result<String> {
        let mut line = request.to_line();
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        let mut reply = String::new();
        loop {
            reply.clear();
            if self.reader.read_line(&mut reply)? == 0 {
                return Err(std::io::Error::other("server closed the connection"));
            }
            if reply.starts_with("{\"done\":true") {
                return Ok(reply.trim_end().to_owned());
            }
        }
    }
}

/// Registers every client's circuits over TCP; returns the replies.
fn register_all(
    addr: std::net::SocketAddr,
    clients: &[Vec<Circuit>],
) -> std::io::Result<Vec<Vec<String>>> {
    let mut conn = Conn::open(addr)?;
    clients
        .iter()
        .map(|cs| cs.iter().map(|c| conn.call(&register(c))).collect())
        .collect()
}

/// Set-up: starts a server and registers every circuit. Returns the
/// server and the registration replies; the server is stopped again if
/// registration fails.
fn set_up(clients: &[Vec<Circuit>]) -> std::io::Result<(Running, Vec<Vec<String>>)> {
    let running = Running::start()?;
    match register_all(running.addr, clients) {
        Ok(registered) => Ok((running, registered)),
        Err(e) => running.stop().and(Err(e)),
    }
}

/// What one client saw: reply lines and per-request latencies.
#[derive(Default)]
struct ClientLog {
    replies: Vec<Reply>,
    read_ms: Vec<f64>,
    write_ms: Vec<f64>,
    error: Option<String>,
}

/// The start and end of every deck, shared by the clients and the
/// thread that times the decks.
struct DeckGates {
    start: Barrier,
    done: Barrier,
}

/// One client: its script, deck by deck, each deck started and ended
/// together with the other client's. After an error the client sends
/// nothing more but still passes every gate, so no one waits on it.
fn drive(
    ctx: &Ctx,
    addr: std::net::SocketAddr,
    script: &[ServeRequest],
    gates: &DeckGates,
    parent: Option<u64>,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut conn = Conn::open(addr)
        .map_err(|e| log.error = Some(e.to_string()))
        .ok();
    let _client = ctx.tracer.span_under("serve.client", parent);
    // The script is DECKS_PER_PASS decks of equal length.
    let per_deck = script.len().div_ceil(DECKS_PER_PASS);
    for k in 0..DECKS_PER_PASS {
        let deck =
            &script[(k * per_deck).min(script.len())..((k + 1) * per_deck).min(script.len())];
        gates.start.wait();
        if let Some(c) = conn.as_mut() {
            if let Err(e) = run_deck(ctx, c, deck, &mut log) {
                log.error = Some(e.to_string());
                conn = None;
            }
        }
        gates.done.wait();
    }
    log
}

fn run_deck(
    ctx: &Ctx,
    conn: &mut Conn,
    deck: &[ServeRequest],
    log: &mut ClientLog,
) -> std::io::Result<()> {
    for request in deck {
        let name = if request.cacheable() {
            "serve.request.read"
        } else {
            "serve.request.write"
        };
        let t0 = Instant::now();
        let line = {
            let _s = ctx.tracer.span(name);
            conn.call(request)?
        };
        let ms = secs_since(t0) * 1e3;
        if request.cacheable() {
            &mut log.read_ms
        } else {
            &mut log.write_ms
        }
        .push(ms);
        log.replies.push(Reply::of(&line));
    }
    Ok(())
}

/// One measured pass: a fresh server, registration (set-up), then the
/// clients' scripts (the timed part, one job of the meter per deck).
struct Pass {
    logs: Vec<ClientLog>,
    stats: vartol_serve::ServiceStats,
    registered: Vec<Vec<String>>,
}

fn pass(
    ctx: &Ctx,
    meter: &mut Meter,
    clients: &[Vec<Circuit>],
    scripts: &[Vec<ServeRequest>],
) -> std::io::Result<Pass> {
    let (running, registered) = set_up(clients)?;

    let gates = DeckGates {
        start: Barrier::new(scripts.len() + 1),
        done: Barrier::new(scripts.len() + 1),
    };
    let root = ctx.tracer.span("serve.script");
    let parent = root.id();
    let logs = std::thread::scope(|s| {
        let handles: Vec<_> = scripts
            .iter()
            .map(|script| {
                let gates = &gates;
                s.spawn(move || drive(ctx, running.addr, script, gates, parent))
            })
            .collect();
        // Each deck is one job: both clients' share of it, from the
        // start gate to the end gate.
        for _ in 0..DECKS_PER_PASS {
            gates.start.wait();
            meter.job(|| gates.done.wait());
        }
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| ClientLog {
                    error: Some("client panicked".into()),
                    ..ClientLog::default()
                })
            })
            .collect::<Vec<_>>()
    });
    drop(root);
    let stats = running.service.stats();
    running.stop()?;
    Ok(Pass {
        logs,
        stats,
        registered,
    })
}

/// Replays each client's registration and script, in order, on a fresh
/// single-shard in-process service; returns the reply lines per client.
fn replay_in_process(clients: &[Vec<Circuit>], scripts: &[Vec<ServeRequest>]) -> Vec<Vec<Reply>> {
    let service = Service::new(Library::synthetic_90nm(), config(1));
    let call = |r: ServeRequest| {
        let frames = service.call(r);
        Reply::of(&frames.last().map(|f| f.to_line()).unwrap_or_default())
    };
    clients
        .iter()
        .zip(scripts)
        .map(|(cs, script)| {
            let mut replies: Vec<Reply> = cs.iter().map(|c| call(register(c))).collect();
            replies.extend(script.iter().cloned().map(call));
            replies
        })
        .collect()
}

/// One served request per reply: neither refused nor different from
/// the replay's reply once the wall-clock stamp is stripped.
fn check_replies(checks: &mut Checks, client: usize, got: &[Reply], expect: &[Reply]) {
    for (i, (reply, want)) in got.iter().zip(expect).enumerate() {
        checks.op(!reply.refused, || {
            format!("client {client} request {i} refused")
        });
        checks.check(reply == want, || {
            format!("client {client} request {i}: {reply:?} != replay {want:?}")
        });
    }
    checks.op(got.len() == expect.len(), || {
        format!("client {client}: {} of {} replies", got.len(), expect.len())
    });
}

fn to_workspace(request: &ServeRequest) -> Option<Request> {
    Some(match request.clone() {
        ServeRequest::Analyze { circuit, kind } => Request::Analyze { circuit, kind },
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
        ServeRequest::Commit { circuit, branch } => Request::Commit { circuit, branch },
        ServeRequest::WhatIf { circuit, trials } => Request::WhatIfBatch {
            circuit,
            trials: trials
                .into_iter()
                .map(|t| WhatIfTrial {
                    resizes: t
                        .into_iter()
                        .map(|(gate, size)| GateResize { gate, size })
                        .collect(),
                })
                .collect(),
        },
        _ => return None,
    })
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let t = &ctx.tracer;

    // Inputs: circuits and scripts from the seed.
    let lib = Library::synthetic_90nm();
    let clients: Vec<Vec<Circuit>> = (0..CLIENTS).map(|k| circuits(&lib, k)).collect();
    let mut rng = Rng::new(ctx.seed);
    let scripts: Vec<Vec<ServeRequest>> = clients
        .iter()
        .map(|cs| script(cs, &mut rng, DECKS_PER_PASS))
        .collect();

    // The expected replies: a single-shard in-process replay. It runs
    // before the measured passes, so it also warms the machine up.
    let t0 = Instant::now();
    let replay = replay_in_process(&clients, &scripts);
    let call_s = secs_since(t0);

    // Set-up (start and register; the stop is not timed), measured on
    // its own.
    let mut setups = Meter::start(ctx.ref_threads);
    for _ in 0..SETUP_REPS {
        let ok = setups
            .job(|| set_up(&clients))
            .and_then(|(running, _)| running.stop());
        out.checks
            .check(ok.is_ok(), || format!("set-up failed: {ok:?}"));
    }
    let setup_s = setups.median_job();

    // Every pass serves the same scripts on a fresh server, so its
    // replies and counters must repeat the replay and the first pass.
    let mut first: Option<Pass> = None;
    let timings = timed_loop(ctx, |_, meter| match pass(ctx, meter, &clients, &scripts) {
        Ok(p) => {
            for (k, (log, expect)) in p.logs.iter().zip(&replay).enumerate() {
                out.checks.check(log.error.is_none(), || {
                    format!("client {k}: {:?}", log.error)
                });
                let got: Vec<Reply> = p.registered[k]
                    .iter()
                    .map(|l| Reply::of(l))
                    .chain(log.replies.iter().copied())
                    .collect();
                check_replies(&mut out.checks, k, &got, expect);
            }
            if let Some(f) = &first {
                out.checks.check(p.stats == f.stats, || {
                    format!(
                        "counters differ between passes: {:?} vs {:?}",
                        f.stats, p.stats
                    )
                });
            }
            first.get_or_insert(p);
        }
        Err(e) => out.checks.op(false, || format!("serving failed: {e}")),
    });
    timings.report(ctx, &mut out);
    out.e2e.insert("setup_s", setup_s);
    let Some(first) = first else {
        return out;
    };

    if ctx.traced {
        let layer = &mut out.layer;
        let reads: Vec<f64> = first
            .logs
            .iter()
            .flat_map(|l| l.read_ms.iter().copied())
            .collect();
        let writes: Vec<f64> = first
            .logs
            .iter()
            .flat_map(|l| l.write_ms.iter().copied())
            .collect();
        #[allow(clippy::cast_precision_loss)]
        {
            layer.insert("serve.read_p50_ms", percentile(&reads, 50.0));
            layer.insert("serve.read_p99_ms", percentile(&reads, 99.0));
            layer.insert("serve.read_samples", reads.len() as f64);
            layer.insert("serve.write_p50_ms", percentile(&writes, 50.0));
            layer.insert("serve.write_p99_ms", percentile(&writes, 99.0));
            layer.insert("serve.write_samples", writes.len() as f64);
            layer.insert(
                "serve.read_share",
                reads.len() as f64 / (reads.len() + writes.len()) as f64,
            );
            let s = &first.stats;
            let sum = |f: &dyn Fn(&vartol_serve::ShardStats) -> u64| {
                s.shards.iter().map(f).sum::<u64>() as f64
            };
            layer.insert("serve.cache.hits", s.hits() as f64);
            layer.insert("serve.cache.misses", s.misses() as f64);
            layer.insert("serve.cache.hit_ratio", s.hit_rate());
            layer.insert("serve.cache.invalidations", sum(&|r| r.cache_invalidations));
            layer.insert("serve.cache.evictions", sum(&|r| r.cache_evictions));
            layer.insert("serve.busy_rejections", sum(&|r| r.busy_rejections));
            layer.insert(
                "netlist.gates",
                clients
                    .iter()
                    .flatten()
                    .map(|c| c.gates.len())
                    .sum::<usize>() as f64,
            );
        }
        layer.insert("serve.call_s", call_s);

        // Probes: the codec, the in-process workspace, and the netlist
        // layer on the same inputs, each timed on its own.
        t.set_enabled(true);
        let probe_run = t.begin_run();
        let mut bytes = 0usize;
        {
            let _s = t.span("serve.codec");
            for request in scripts.iter().flatten() {
                let line = request.to_line();
                bytes += line.len();
                out.checks.check(
                    ServeRequest::from_line(&line).as_ref() == Ok(request),
                    || format!("codec round trip changed {line}"),
                );
            }
        }
        // Reply bytes without their wall-clock stamps, so the count is exact.
        let reply_bytes: usize = replay.iter().flatten().map(|r| r.len).sum();
        #[allow(clippy::cast_precision_loss)]
        layer.insert("serve.codec_bytes", (bytes + reply_bytes) as f64);
        drop({
            let _s = t.span("liberty.build");
            Library::synthetic_90nm()
        });
        let generated: Vec<Netlist> = {
            let _s = t.span("netlist.generate");
            (0..CLIENTS).flat_map(|k| generate(&lib, k)).collect()
        };
        out.checks
            .check(generated.len() == clients.iter().flatten().count(), || {
                "generated circuits differ from the registered ones".into()
            });
        {
            let _s = t.span("netlist.parse");
            for c in clients.iter().flatten() {
                out.checks
                    .check(parse_bench(&c.bench, &c.name).is_ok(), || {
                        format!("{} does not parse", c.name)
                    });
            }
        }
        let mut ws = Workspace::new(Library::synthetic_90nm(), config(1).workspace);
        for c in clients.iter().flatten() {
            let ok = ws.register_bench_str(&c.name, &c.bench);
            out.checks.check(ok.is_ok(), || {
                format!("workspace register {}: {ok:?}", c.name)
            });
        }
        {
            let _s = t.span("workspace.exec");
            for request in scripts.iter().flatten().filter_map(to_workspace) {
                let answer = ws.query(request).answer;
                out.checks.check(
                    !matches!(answer, vartol::workspace::Answer::Error { .. }),
                    || format!("workspace refused: {answer:?}"),
                );
            }
        }
        // Each circuit's net size change over the script, replayed
        // through the session and branch layers.
        let lib = Arc::new(lib);
        let cfg = ssta_config();
        for c in clients.iter().flatten() {
            let (Ok(start), Some(end)) = (parse_bench(&c.bench, &c.name), ws.netlist(&c.name))
            else {
                continue;
            };
            let expect = FullSsta::new(&lib, &cfg).analyze(end).circuit_moments();
            crate::probe::replay(
                ctx,
                &lib,
                &cfg,
                (&start, &end.sizes()),
                expect,
                layer,
                &mut out.checks,
            );
        }
        t.set_enabled(false);
        span_medians(ctx, &[probe_run], layer);
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames(script: &[ServeRequest]) -> Vec<String> {
        let service = Service::new(
            Library::synthetic_90nm(),
            ServeConfig::default().with_shards(1),
        );
        script
            .iter()
            .map(|r| service.call(r.clone()).pop().expect("a reply").to_line())
            .collect()
    }

    /// The serve check passes an honest replay (the wall-clock stamp may
    /// differ) and catches a reply with one digit changed.
    #[test]
    fn a_perturbed_reply_is_caught() {
        let circuit = "adder_8".to_owned();
        let script = [
            ServeRequest::Register {
                circuit: circuit.clone(),
                preset: Some(circuit.clone()),
                bench: None,
            },
            ServeRequest::Analyze {
                circuit,
                kind: EngineKind::FullSsta,
            },
        ];
        let expect = frames(&script);
        let mut honest = frames(&script);
        let stamp = honest[1].rfind("\"wall_us\":").expect("stamped");
        honest[1].replace_range(stamp.., "\"wall_us\":987654}");
        let replies = |lines: &[String]| lines.iter().map(|l| Reply::of(l)).collect::<Vec<_>>();
        let mut checks = Checks::default();
        check_replies(&mut checks, 0, &replies(&honest), &replies(&expect));
        assert_eq!((checks.attempted, checks.failed), (3, 0));

        let mut perturbed = expect.clone();
        let mu = perturbed[1].find("\"mu\":").expect("an analysis") + 5;
        let digit = perturbed[1].as_bytes()[mu];
        let other = if digit == b'1' { "2" } else { "1" };
        perturbed[1].replace_range(mu..=mu, other);
        let mut checks = Checks::default();
        check_replies(&mut checks, 0, &replies(&perturbed), &replies(&expect));
        assert_eq!(checks.failed, 1);
    }
}
