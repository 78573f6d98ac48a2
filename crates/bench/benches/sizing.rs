//! End-to-end sizing benchmarks: the cost of one StatisticalGreedy run on
//! small suite circuits, plus the deterministic baseline and the
//! subcircuit-evaluation inner loop it amortizes (Table 1's runtime
//! column, scaled down), alone and as one sensitivity-probe pass over a
//! whole shipped circuit, and the two ways a sizer can take back a
//! rejected FULLSSTA trial: undo it or re-time the old size.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use std::hint::black_box;
use vartol_core::{MeanDelaySizer, SizerConfig, StatisticalGreedy};
use vartol_liberty::Library;
use vartol_netlist::generators::benchmark;
use vartol_netlist::iscas::parse_bench;
use vartol_netlist::{GateKind, Subcircuit};
use vartol_ssta::{Fassta, FullSsta, SstaConfig, TimingSession};

fn bench_sizing(c: &mut Criterion) {
    let lib = Library::synthetic_90nm();
    let ssta = SstaConfig::default();

    let mut group = c.benchmark_group("optimize");
    group.sample_size(10);
    for name in ["alu2", "c432"] {
        let n = benchmark(name, &lib).expect("known benchmark");
        group.bench_with_input(
            BenchmarkId::new("statistical_greedy_a3", name),
            &n,
            |b, n| {
                let sizer = StatisticalGreedy::new(&lib, SizerConfig::with_alpha(3.0));
                b.iter_batched(
                    || n.clone(),
                    |mut n| black_box(sizer.optimize(&mut n)),
                    BatchSize::SmallInput,
                );
            },
        );
        group.bench_with_input(BenchmarkId::new("mean_baseline", name), &n, |b, n| {
            let sizer = MeanDelaySizer::new(&lib, &ssta);
            b.iter_batched(
                || n.clone(),
                |mut n| black_box(sizer.minimize_delay(&mut n)),
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();

    // The optimizer's hot inner loop: one subcircuit evaluation.
    let mut group = c.benchmark_group("inner_loop");
    let n = benchmark("c880", &lib).expect("known benchmark");
    let full = FullSsta::new(&lib, &ssta).analyze(&n);
    let fast = Fassta::new(&lib, &ssta);
    let center = n.gate_ids().nth(100).expect("large enough");
    for depth in [1usize, 2, 3] {
        let sub = Subcircuit::extract(&n, center, depth);
        group.bench_with_input(
            BenchmarkId::new("evaluate_subcircuit", depth),
            &sub,
            |b, sub| {
                b.iter(|| {
                    black_box(fast.evaluate_subcircuit(&n, sub, full.arrivals(), full.timing()))
                });
            },
        );
    }

    // One Lagrangian probe pass: every resizable gate of s344_like (the
    // endpoint-marked view the sequential sizers run on) evaluated at its
    // neighbour sizes over a depth-2 region extracted once.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../data/s344_like.bench");
    let text = std::fs::read_to_string(path).expect("shipped circuit is readable");
    let mut s344 = parse_bench(&text, "s344_like")
        .expect("shipped circuit parses")
        .endpoint_marked();
    let full = FullSsta::new(&lib, &ssta).analyze(&s344);
    let probes: Vec<(Subcircuit, usize, usize)> = s344
        .gate_ids()
        .filter_map(|g| {
            let gate = s344.gate(g);
            let GateKind::Cell { function, size } = *gate.kind() else {
                return None;
            };
            let ladder = lib.group(function, gate.fanins().len())?.len();
            (ladder > 1).then(|| (Subcircuit::extract(&s344, g, 2), size, ladder))
        })
        .collect();
    group.bench_function("s344_probe_pass", |b| {
        b.iter(|| {
            for (sub, size, ladder) in &probes {
                let g = sub.center();
                for trial in [size.checked_sub(1), Some(size + 1).filter(|s| s < ladder)] {
                    let Some(trial) = trial else { continue };
                    s344.set_size(g, trial);
                    black_box(fast.evaluate_subcircuit(&s344, sub, full.arrivals(), full.timing()));
                }
                s344.set_size(g, *size);
            }
        });
    });

    // One rejected single-gate trial on a c432 FULLSSTA session: resize,
    // refresh, then take it back by undo or by re-timing the old size.
    let c432 = benchmark("c432", &lib).expect("known benchmark");
    let mut session = TimingSession::new(&lib, ssta.clone(), c432);
    let (g, size, ladder) = session
        .netlist()
        .gate_ids()
        .skip(40)
        .find_map(|g| {
            let gate = session.netlist().gate(g);
            let GateKind::Cell { function, size } = *gate.kind() else {
                return None;
            };
            let ladder = lib.group(function, gate.fanins().len())?.len();
            (ladder > 1).then_some((g, size, ladder))
        })
        .expect("c432 has resizable gates");
    let trial = (size + 1) % ladder;
    group.bench_function("c432_reject_undo", |b| {
        b.iter(|| {
            session.resize(g, trial);
            black_box(session.refresh_undoable());
            session.undo();
        });
    });
    group.bench_function("c432_reject_retime", |b| {
        b.iter(|| {
            session.resize(g, trial);
            black_box(session.refresh());
            session.resize(g, size);
            session.refresh();
        });
    });
    group.finish();
}

criterion_group!(benches, bench_sizing);
criterion_main!(benches);
