//! Benchmarks of the three timing engines over suite circuits — the
//! motivation for the paper's nested architecture: FULLSSTA is accurate
//! but too slow for an optimizer inner loop; FASSTA trades a little
//! accuracy for a large speedup (experiment E7).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;
use vartol_liberty::Library;
use vartol_netlist::generators::{
    benchmark, preset, random_dag, ripple_carry_adder, RandomDagConfig,
};
use vartol_ssta::{Dsta, EngineKind, Fassta, FullSsta, MonteCarloTimer, SstaConfig, TimingSession};

fn bench_engines(c: &mut Criterion) {
    let lib = Library::synthetic_90nm();
    let config = SstaConfig::default();

    let mut group = c.benchmark_group("engines");
    for name in ["c432", "c880", "c1908"] {
        let n = benchmark(name, &lib).expect("known benchmark");
        group.bench_with_input(BenchmarkId::new("dsta", name), &n, |b, n| {
            let engine = Dsta::new(&lib, &config);
            b.iter(|| black_box(engine.analyze(n).max_delay()));
        });
        group.bench_with_input(BenchmarkId::new("fassta", name), &n, |b, n| {
            let engine = Fassta::new(&lib, &config);
            b.iter(|| black_box(engine.analyze(n).circuit_moments()));
        });
        group.bench_with_input(BenchmarkId::new("fullssta", name), &n, |b, n| {
            let engine = FullSsta::new(&lib, &config);
            b.iter(|| black_box(engine.analyze(n).circuit_moments()));
        });
    }
    group.finish();

    // The session's incremental value proposition: a single-gate resize
    // re-analyzed through the cone vs a from-scratch FULLSSTA pass.
    let mut group = c.benchmark_group("incremental_resize");
    for name in ["c880", "c1908"] {
        let base = benchmark(name, &lib).expect("known benchmark");
        let gate = base.gate_ids().last().expect("gates");
        group.bench_with_input(BenchmarkId::new("session_cone", name), &base, |b, base| {
            let mut session =
                TimingSession::with_kind(&lib, config.clone(), base.clone(), EngineKind::FullSsta);
            let mut size = 0usize;
            b.iter(|| {
                size = (size + 1) % 4;
                session.resize(gate, size);
                black_box(session.refresh())
            });
        });
        // What a `Fork` or a `WhatIf` worker pays before its first trial:
        // a copy of the session's flat state.
        group.bench_with_input(BenchmarkId::new("session_fork", name), &base, |b, base| {
            let session =
                TimingSession::with_kind(&lib, config.clone(), base.clone(), EngineKind::FullSsta);
            b.iter(|| black_box(session.fork()));
        });
        group.bench_with_input(BenchmarkId::new("from_scratch", name), &base, |b, base| {
            let mut n = base.clone();
            let engine = FullSsta::new(&lib, &config);
            let mut size = 0usize;
            b.iter(|| {
                size = (size + 1) % 4;
                n.set_size(gate, size);
                black_box(engine.analyze(&n).circuit_moments())
            });
        });
    }
    group.finish();

    // FULLSSTA cost vs sample count (the paper's 10-15 knob).
    let mut group = c.benchmark_group("fullssta_samples");
    let n = benchmark("c880", &lib).expect("known benchmark");
    for samples in [8usize, 12, 15, 30] {
        group.bench_with_input(BenchmarkId::from_parameter(samples), &samples, |b, &s| {
            let sampled = config.clone().with_pdf_samples(s);
            let engine = FullSsta::new(&lib, &sampled);
            b.iter(|| black_box(engine.analyze(&n).circuit_moments()));
        });
    }
    group.finish();

    // Deterministic parallel Monte Carlo: the reference engine's chunked
    // sampling path at the ablation workload — 20k samples on the largest
    // suite circuits. Every thread count returns bit-identical results
    // (see vartol_ssta::montecarlo); this group records the speedup the
    // extra threads buy on the current hardware.
    let mut group = c.benchmark_group("mc_parallel");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    let largest = benchmark("c7552", &lib).expect("known benchmark");
    for threads in [1usize, 2, 4, 8] {
        let config = config.clone().with_threads(threads);
        let timer = MonteCarloTimer::new(&lib, &config).with_seed(2025);
        group.bench_with_input(BenchmarkId::new("threads", threads), &largest, |b, n| {
            b.iter(|| black_box(timer.sample_parallel(n, 20_000).moments()));
        });
    }
    group.finish();

    // A served `Yield`: the fraction of 2000 seeded samples of c880 that
    // meet a deadline at the mean. `exact` materializes the samples and
    // counts them; `count_within` counts on fast draws and recomputes
    // only the samples inside the error band. Both give the same count.
    let mut group = c.benchmark_group("yield_count");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    let c880 = benchmark("c880", &lib).expect("known benchmark");
    let serial = config.clone().with_threads(1);
    let timer = MonteCarloTimer::new(&lib, &serial).with_seed(2025);
    let deadline = timer.sample_parallel(&c880, 2000).moments().mean;
    group.bench_function("exact", |b| {
        b.iter(|| black_box(timer.sample_parallel(&c880, 2000).yield_at(deadline)));
    });
    group.bench_function("count_within", |b| {
        b.iter(|| black_box(timer.count_within(&c880, 2000, deadline).fraction()));
    });
    // `count_within` on mult_8 (320 gates), the largest circuit the
    // service benchmark sends `Yield` to, at pool widths 1 and 2: the
    // four chunks run as one group of four lanes on one thread, or as two
    // groups of two on two.
    let mult_8 = preset("mult_8", &lib).expect("known preset");
    let deadline = timer.sample_parallel(&mult_8, 2000).moments().mean;
    for threads in [1usize, 2] {
        let config = config.clone().with_threads(threads);
        let timer = MonteCarloTimer::new(&lib, &config).with_seed(2025);
        group.bench_with_input(BenchmarkId::new("mult_8", threads), &mult_8, |b, n| {
            b.iter(|| black_box(timer.count_within(n, 2000, deadline).fraction()));
        });
    }
    group.finish();

    // The level-ordered propagation arena's parallel fan-out. Two
    // shapes bracket the design space:
    //
    // * a wide seeded DAG, whose levels hold hundreds of nodes — the
    //   per-level task count clears the arena's inline threshold
    //   (`PARALLEL_LEVEL_MIN`) and the fan-out actually spawns;
    // * a 7-bit ripple-carry adder, whose every level (including the
    //   15-input level — phase 1a computes electrical state for inputs
    //   too) stays *below* the threshold — this row pins the
    //   spawn-amortization guarantee: extra configured threads must
    //   cost nothing on small circuits, because narrow levels run
    //   inline on the calling thread. The assert below keeps the pin
    //   honest if the threshold or the generator ever moves.
    //
    // Every width returns bit-identical reports (tests/engine_determinism.rs);
    // this group records what the threads buy — or must not cost.
    let mut group = c.benchmark_group("analytic_parallel");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    let wide = random_dag(
        RandomDagConfig {
            inputs: 64,
            gates: 6_000,
            window: 512,
        },
        0xA12E,
        &lib,
    );
    let narrow = ripple_carry_adder(7, &lib);
    {
        let probe = TimingSession::new(&lib, config.clone(), narrow.clone());
        assert!(
            probe.max_level_width() < 16,
            "narrow_inline circuit crossed the arena's inline threshold \
             (max level width {})",
            probe.max_level_width()
        );
    }
    for threads in [1usize, 2, 4, 8] {
        let threaded = config.clone().with_threads(threads);
        group.bench_with_input(BenchmarkId::new("wide_dag", threads), &wide, |b, n| {
            let engine = FullSsta::new(&lib, &threaded);
            b.iter(|| black_box(engine.analyze(n).circuit_moments()));
        });
        group.bench_with_input(
            BenchmarkId::new("narrow_inline", threads),
            &narrow,
            |b, n| {
                let engine = FullSsta::new(&lib, &threaded);
                b.iter(|| black_box(engine.analyze(n).circuit_moments()));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_engines);
criterion_main!(benches);
