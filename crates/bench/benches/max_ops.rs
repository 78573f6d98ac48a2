//! Microbenchmarks of the statistical max implementations.
//!
//! The paper's core speed claim: the FASSTA approximation (dominance
//! shortcuts plus the quadratic erf) is much cheaper than either exact
//! Clark evaluation or discrete-PDF manipulation.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;
use vartol_stats::clark::clark_max_correlated;
use vartol_stats::erf::{erf, half_erf_quadratic};
use vartol_stats::fast_max::fast_max_moments;
use vartol_stats::{clark_max, DiscretePdf, Moments};

/// Deterministic pseudo-random moment pairs spanning dominance and overlap
/// regimes.
fn moment_pairs(n: usize) -> Vec<(Moments, Moments)> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|_| {
            let a = Moments::from_mean_std(100.0 + 400.0 * next(), 1.0 + 50.0 * next());
            let b = Moments::from_mean_std(100.0 + 400.0 * next(), 1.0 + 50.0 * next());
            (a, b)
        })
        .collect()
}

/// 64 FULLSSTA-shaped `(arrival, delay)` pairs: each arrival a 24-point
/// normal rebinned to 12 points, each delay a 12-point normal whose
/// support (±4σ) spans `ratio` times the arrival's point spacing.
fn fullssta_pairs(pairs: &[(Moments, Moments)], ratio: f64) -> Vec<(DiscretePdf, DiscretePdf)> {
    pairs
        .iter()
        .take(64)
        .map(|&(x, y)| {
            let arrival = DiscretePdf::from_moments(x, 24).rebin(12);
            let spacing = 8.0 * x.std() / 12.0;
            (
                arrival,
                DiscretePdf::from_normal(y.mean / 10.0, ratio * spacing / 8.0, 12),
            )
        })
        .collect()
}

fn bench_max_ops(c: &mut Criterion) {
    let pairs = moment_pairs(1024);

    let mut group = c.benchmark_group("statistical_max");
    group.bench_function("fast_max (paper)", |b| {
        b.iter(|| {
            for &(x, y) in &pairs {
                black_box(fast_max_moments(x, y));
            }
        });
    });
    group.bench_function("clark_exact", |b| {
        b.iter(|| {
            for &(x, y) in &pairs {
                black_box(clark_max(x, y).max);
            }
        });
    });
    let pdf_pairs: Vec<(DiscretePdf, DiscretePdf)> = pairs
        .iter()
        .take(64)
        .map(|&(x, y)| {
            (
                DiscretePdf::from_moments(x, 12),
                DiscretePdf::from_moments(y, 12),
            )
        })
        .collect();
    group.bench_function("discrete_pdf_12pt", |b| {
        b.iter_batched(
            || pdf_pairs.clone(),
            |ps| {
                for (x, y) in &ps {
                    black_box(x.max_rebinned(y, 12));
                }
            },
            BatchSize::SmallInput,
        );
    });
    // FULLSSTA's per-node sum: the 144-point convolution rebinned to 12.
    // The 64 pairs differ in spacing, so the merge order of the
    // convolution's rows varies from call to call (one repeated pair lets
    // the branch predictor learn it and overstates the speed).
    group.bench_function("discrete_pdf_12pt_sum", |b| {
        b.iter(|| {
            for (x, y) in &pdf_pairs {
                black_box(x.add_rebinned(y, 12));
            }
        });
    });
    // FULLSSTA's own shape: a wide rebinned arrival plus a narrow gate
    // delay. With the delay's support under the arrival's spacing every
    // row of the convolution ends before the next starts (`ordered`);
    // past it neighbouring rows interleave.
    for (name, ratio) in [
        ("discrete_pdf_12pt_sum_ordered", 0.5),
        ("discrete_pdf_12pt_sum_interleaved", 2.0),
    ] {
        let shaped = fullssta_pairs(&pairs, ratio);
        group.bench_function(name, |b| {
            b.iter(|| {
                for (x, y) in &shaped {
                    black_box(x.add_rebinned(y, 12));
                }
            });
        });
    }
    // The correlated max: the independent max's shape stretched to
    // Clark's correlated moments and rebinned.
    let targets: Vec<Moments> = pairs
        .iter()
        .take(64)
        .map(|&(x, y)| clark_max_correlated(x, y, 0.5).max)
        .collect();
    group.bench_function("discrete_pdf_12pt_corr_max", |b| {
        b.iter(|| {
            for ((x, y), &t) in pdf_pairs.iter().zip(&targets) {
                black_box(x.max_with_moments(y, t, 12));
            }
        });
    });
    group.finish();

    let mut group = c.benchmark_group("erf");
    group.bench_function("accurate_rational", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for i in 0..1024 {
                acc += erf(black_box(f64::from(i) / 128.0 - 4.0));
            }
            black_box(acc)
        });
    });
    group.bench_function("quadratic (paper)", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for i in 0..1024 {
                acc += half_erf_quadratic(black_box(f64::from(i) / 128.0 - 4.0));
            }
            black_box(acc)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_max_ops);
criterion_main!(benches);
