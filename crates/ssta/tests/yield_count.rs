//! The certified yield count equals the exact Monte Carlo count.
//!
//! `MonteCarloTimer::count_within` runs on fast normal draws and
//! recomputes exactly every sample whose fast delay lies within the error
//! band of the deadline. Its `within` must equal the number of
//! `sample_parallel` samples `≤ deadline` for every deadline — most
//! sharply at deadlines equal to sample values and one ulp either side,
//! where only the exact recompute can decide. Those deadlines must take
//! the fallback (`recomputed > 0`), and far-tail deadlines must not.

use vartol_liberty::Library;
use vartol_netlist::generators::{
    benchmark, preset, random_dag, small_preset_names, RandomDagConfig,
};
use vartol_netlist::iscas::parse_bench;
use vartol_netlist::Netlist;
use vartol_ssta::variation::{GlobalSource, SpatialGrid, VariationModel};
use vartol_ssta::{MonteCarloTimer, SstaConfig, MC_CHUNK_SAMPLES};

/// A full chunk and a partial one.
const SAMPLES: usize = MC_CHUNK_SAMPLES + 77;

/// Checks the count against the exact samples at sample-valued
/// deadlines, their ulp neighbours and both far tails; returns the
/// number of at-sample deadlines checked.
fn check(netlist: &Netlist, library: &Library, config: &SstaConfig, seed: u64) -> usize {
    let timer = MonteCarloTimer::new(library, config)
        .with_seed(seed)
        .with_threads(1);
    let exact = timer.sample_parallel(netlist, SAMPLES);
    let samples = exact.samples();
    let exact_count = |deadline: f64| samples.iter().filter(|&&s| s <= deadline).count();
    let count = |deadline: f64| {
        let got = timer.count_within(netlist, SAMPLES, deadline);
        assert_eq!(got.samples, SAMPLES);
        assert_eq!(
            got.within,
            exact_count(deadline),
            "{}: deadline {deadline:e}",
            netlist.name()
        );
        assert_eq!(got.fraction().to_bits(), exact.yield_at(deadline).to_bits());
        got
    };

    let correlated = !config.model.is_empty();
    let mut at_samples = 0;
    // Spread over the chunks, plus the extremes.
    let (lo, hi) = samples
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &s| {
            (lo.min(s), hi.max(s))
        });
    let picks = samples.iter().step_by(SAMPLES / 5).copied().chain([lo, hi]);
    for s in picks {
        for deadline in [s.next_down(), s, s.next_up()] {
            let got = count(deadline);
            // The sample that equals `s` lies within the band of these
            // deadlines, so only the exact recompute can place it.
            assert!(
                got.recomputed >= 1,
                "{}: {deadline:e} skipped the fallback",
                netlist.name()
            );
        }
        at_samples += 1;
    }
    let spread = (hi - lo).max(1.0);
    for deadline in [lo - spread, 0.0, hi + spread, 2.0 * hi + 1e6] {
        let got = count(deadline);
        let expected = if correlated { SAMPLES } else { 0 };
        assert_eq!(
            got.recomputed,
            expected,
            "{}: tail {deadline:e}",
            netlist.name()
        );
    }
    at_samples
}

#[test]
fn count_matches_exact_samples_on_random_dags() {
    let lib = Library::synthetic_90nm();
    let config = SstaConfig::default();
    for seed in 0..8u64 {
        let cfg = RandomDagConfig {
            inputs: 3 + (seed as usize % 5),
            gates: 20 + 17 * seed as usize,
            window: 2 + 3 * seed as usize,
        };
        let n = random_dag(cfg, seed, &lib);
        assert!(check(&n, &lib, &config, seed ^ 0xd1ce) > 0);
    }
}

#[test]
fn count_matches_exact_samples_on_shipped_benches() {
    let lib = Library::synthetic_90nm();
    let config = SstaConfig::default();
    let data = concat!(env!("CARGO_MANIFEST_DIR"), "/../../data");
    let mut benches = 0;
    for entry in std::fs::read_dir(data).expect("data directory") {
        let path = entry.expect("entry").path();
        if path.extension().is_some_and(|e| e == "bench") {
            let text = std::fs::read_to_string(&path).expect("readable");
            let name = path.file_stem().expect("stem").to_string_lossy();
            let n = parse_bench(&text, &name).expect("parses").endpoint_marked();
            assert!(check(&n, &lib, &config, 7) > 0, "{name}");
            benches += 1;
        }
    }
    assert!(benches >= 5, "found {benches} .bench files");
}

#[test]
fn count_matches_exact_samples_on_serve_presets() {
    let lib = Library::synthetic_90nm();
    let config = SstaConfig::default();
    // The small preset tier plus the circuits the service benchmark
    // sends `Yield` to.
    let names = small_preset_names()
        .iter()
        .copied()
        .chain(["cmp_16", "c432", "c880"]);
    for name in names {
        let n = preset(name, &lib)
            .or_else(|| benchmark(name, &lib))
            .expect("known circuit");
        assert!(check(&n, &lib, &config, 0xDA7E_2005) > 0, "{name}");
    }
}

#[test]
fn count_matches_exact_samples_under_a_correlated_model() {
    let lib = Library::synthetic_90nm();
    let config = SstaConfig::default().with_model(
        VariationModel::none()
            .with_global_source(GlobalSource::with_variance_share("d2d", 0.4))
            .with_spatial(SpatialGrid::with_variance_share(3, 3, 2.0, 0.2))
            .normalized(),
    );
    for name in ["adder_16", "alu_8"] {
        let n = preset(name, &lib).expect("preset");
        assert!(check(&n, &lib, &config, 31) > 0, "{name}");
    }
}

#[test]
fn count_is_thread_count_invariant() {
    let lib = Library::synthetic_90nm();
    let config = SstaConfig::default();
    let n = preset("mult_8", &lib).expect("preset");
    let timer = MonteCarloTimer::new(&lib, &config).with_seed(5);
    let exact = timer.with_threads(1).sample_parallel(&n, SAMPLES);
    let deadline = exact.samples()[SAMPLES / 2];
    let one = timer.with_threads(1).count_within(&n, SAMPLES, deadline);
    for threads in [2, 4] {
        assert_eq!(
            timer
                .with_threads(threads)
                .count_within(&n, SAMPLES, deadline),
            one
        );
    }
}
