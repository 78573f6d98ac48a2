//! The parallel Monte-Carlo determinism contract, end to end: the same
//! seed must produce an **identical** `TimingReport` — raw samples,
//! per-node moments, circuit moments, and the empirical PDF — no matter
//! how many worker threads sample it.
//!
//! Thread counts 1, 2, and 8 are always compared; CI additionally drives
//! an explicit pool width through the `VARTOL_MC_THREADS` environment
//! variable (run with `--test-threads=1` there so the pool, not the test
//! harness, owns the parallelism).

use vartol::liberty::Library;
use vartol::netlist::generators::{benchmark, ripple_carry_adder};
use vartol::netlist::Netlist;
use vartol::ssta::{MonteCarloTimer, SstaConfig, MC_CHUNK_SAMPLES};

/// Thread counts under test: 1, 2, 8, plus any `VARTOL_MC_THREADS`
/// width from the environment (deduplicated). An unparseable value is a
/// misconfigured CI step and fails loudly rather than passing as a no-op.
fn thread_counts() -> Vec<usize> {
    let mut counts = vec![1usize, 2, 8];
    if let Ok(raw) = std::env::var("VARTOL_MC_THREADS") {
        let extra: usize = raw
            .parse()
            .unwrap_or_else(|_| panic!("VARTOL_MC_THREADS must be a thread count, got `{raw}`"));
        if !counts.contains(&extra) {
            counts.push(extra);
        }
    }
    counts
}

/// The default configuration at pool width `threads`.
fn width(threads: usize) -> SstaConfig {
    SstaConfig::default().with_threads(threads)
}

fn assert_reports_thread_invariant(netlist: &Netlist, samples: usize, seed: u64) {
    let lib = Library::synthetic_90nm();
    let analyze = |threads| {
        MonteCarloTimer::new(&lib, &width(threads))
            .with_seed(seed)
            .analyze(netlist, samples)
    };

    let reference = analyze(1);
    assert_eq!(
        reference.samples().map(<[f64]>::len),
        Some(samples),
        "sample budget honored"
    );
    for threads in thread_counts() {
        let report = analyze(threads);
        // Full structural equality: samples, arrivals, circuit moments,
        // PDF, worst output, electrical snapshot.
        assert_eq!(
            report,
            reference,
            "{threads}-thread report differs on {}",
            netlist.name()
        );
    }
}

#[test]
fn suite_circuit_reports_identical_across_thread_counts() {
    let lib = Library::synthetic_90nm();
    let n = benchmark("c880", &lib).expect("known benchmark");
    // A few full chunks plus a ragged tail chunk.
    assert_reports_thread_invariant(&n, 2 * MC_CHUNK_SAMPLES + 191, 42);
}

#[test]
fn generator_circuit_reports_identical_across_thread_counts() {
    let lib = Library::synthetic_90nm();
    let n = ripple_carry_adder(16, &lib);
    assert_reports_thread_invariant(&n, 3 * MC_CHUNK_SAMPLES, 7);
}

#[test]
fn explicit_sampling_entry_points_are_thread_invariant() {
    let lib = Library::synthetic_90nm();
    let n = benchmark("c432", &lib).expect("known benchmark");
    let samples = MC_CHUNK_SAMPLES + 57;
    let analyze = |threads| {
        MonteCarloTimer::new(&lib, &width(threads))
            .with_seed(11)
            .analyze(&n, samples)
    };

    let reference = analyze(1);
    for threads in thread_counts() {
        assert_eq!(analyze(threads), reference, "{threads} threads");
    }
    // The arrival-free path draws the identical delay stream.
    let plain = MonteCarloTimer::new(&lib, &width(8))
        .with_seed(11)
        .sample_parallel(&n, samples);
    assert_eq!(Some(plain.samples()), reference.samples());
    assert_eq!(plain.moments(), reference.circuit_moments());
}

#[test]
fn seed_changes_the_stream_thread_count_does_not() {
    let lib = Library::synthetic_90nm();
    let config = SstaConfig::default();
    let n = ripple_carry_adder(4, &lib);
    let timer = MonteCarloTimer::new(&lib, &config);
    let a = timer.with_seed(1).sample_parallel(&n, 600);
    let b = timer.with_seed(2).sample_parallel(&n, 600);
    assert_ne!(a.samples(), b.samples(), "different seeds, different draws");
    let a8 = MonteCarloTimer::new(&lib, &width(8))
        .with_seed(1)
        .sample_parallel(&n, 600);
    assert_eq!(a, a8, "thread count is purely a speed knob");
}
