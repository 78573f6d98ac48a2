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

/// Sample counts whose chunks fill lane groups in every shape: one, three,
/// four, five and nine chunks, each ending in a partial chunk.
const LANE_SHAPES: [usize; 5] = [300, 1300, 2000, 2100, 4097];

/// [`check_at`] at [`SAMPLES`] samples.
fn check(netlist: &Netlist, library: &Library, config: &SstaConfig, seed: u64) -> usize {
    check_at(netlist, library, config, seed, SAMPLES)
}

/// Checks the count of `n` samples against the exact samples at
/// sample-valued deadlines, their ulp neighbours and both far tails;
/// returns the number of at-sample deadlines checked.
fn check_at(
    netlist: &Netlist,
    library: &Library,
    config: &SstaConfig,
    seed: u64,
    n: usize,
) -> usize {
    let timer = MonteCarloTimer::new(library, config)
        .with_seed(seed)
        .with_threads(1);
    let exact = timer.sample_parallel(netlist, n);
    let samples = exact.samples();
    let exact_count = |deadline: f64| samples.iter().filter(|&&s| s <= deadline).count();
    let count = |deadline: f64| {
        let got = timer.count_within(netlist, n, deadline);
        assert_eq!(got.samples, n);
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
    let picks = samples.iter().step_by(n / 5).copied().chain([lo, hi]);
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
        let expected = if correlated { n } else { 0 };
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
fn count_matches_exact_samples_at_every_lane_shape() {
    // A one-wide pool counts up to four chunks in lockstep lanes: these
    // sample counts leave one lane alone, three lanes (and an idle one),
    // a full group with a short last lane, four lanes then one, and two
    // full groups then one.
    let lib = Library::synthetic_90nm();
    let config = SstaConfig::default();
    let cfg = RandomDagConfig {
        inputs: 6,
        gates: 90,
        window: 12,
    };
    let dag = random_dag(cfg, 0x1A7E, &lib);
    let alu = preset("alu_8", &lib).expect("preset");
    for n in LANE_SHAPES {
        assert_ne!(n % MC_CHUNK_SAMPLES, 0, "{n} has a partial chunk");
        assert!(check_at(&dag, &lib, &config, 0x5EED, n) > 0, "dag at {n}");
        assert!(check_at(&alu, &lib, &config, 0xA1B, n) > 0, "alu_8 at {n}");
    }
}

#[test]
fn count_is_thread_count_invariant() {
    let lib = Library::synthetic_90nm();
    let config = SstaConfig::default();
    let n = preset("mult_8", &lib).expect("preset");
    let timer = MonteCarloTimer::new(&lib, &config).with_seed(5);
    for samples in [SAMPLES, 2000, 4097] {
        let exact = timer.with_threads(1).sample_parallel(&n, samples);
        let deadline = exact.samples()[samples / 2];
        let one = timer.with_threads(1).count_within(&n, samples, deadline);
        for threads in [2, 4] {
            assert_eq!(
                timer
                    .with_threads(threads)
                    .count_within(&n, samples, deadline),
                one,
                "{samples} samples, {threads} threads"
            );
        }
    }
}
