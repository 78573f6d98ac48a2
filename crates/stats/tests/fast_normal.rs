//! The fast Box–Muller transform stays within `Z_ERR / 100` of the exact
//! one: on a million seeded uniform pairs, and on the edge uniforms where
//! `ln` and the quadrant reduction of `cos` are hardest.

use rand::rngs::StdRng;
use rand::SeedableRng;
use vartol_stats::normal::{box_muller, box_muller_fast, box_muller_uniforms, Z_ERR};

fn deviation(u1: f64, u2: f64) -> f64 {
    let exact = box_muller(u1, u2);
    let fast = box_muller_fast(u1, u2);
    assert!(
        exact.is_finite() && fast.is_finite(),
        "u1 {u1:e}, u2 {u2:e}"
    );
    (fast - exact).abs()
}

#[test]
fn fast_draw_tracks_the_exact_draw_on_seeded_pairs() {
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let mut worst = (0.0f64, 0.0, 0.0);
    for _ in 0..1_000_000 {
        let (u1, u2) = box_muller_uniforms(&mut rng);
        let d = deviation(u1, u2);
        if d > worst.0 {
            worst = (d, u1, u2);
        }
    }
    let (d, u1, u2) = worst;
    assert!(
        d <= Z_ERR / 100.0,
        "deviation {d:e} at u1 {u1:e}, u2 {u2:e}"
    );
}

#[test]
fn fast_draw_tracks_the_exact_draw_on_edge_uniforms() {
    let ulp = f64::EPSILON / 2.0; // 2^-53, the uniforms' grid step
    let u1s = [
        f64::MIN_POSITIVE,
        2f64.powi(-1000),
        0.5,
        std::f64::consts::FRAC_1_SQRT_2,
        1.0 - ulp,
    ];
    let u2s = [0.0, ulp, 0.125, 0.25, 0.5, 0.75, 1.0 - ulp];
    for &u1 in &u1s {
        for &u2 in &u2s {
            // Each edge and its grid neighbours, where they are in range.
            for (a, b) in [
                (u1, u2),
                (u1 + u1 * ulp, u2 + ulp),
                (u1, (u2 - ulp).max(0.0)),
            ] {
                if a < 1.0 && b < 1.0 {
                    let d = deviation(a, b);
                    assert!(d <= Z_ERR / 100.0, "deviation {d:e} at u1 {a:e}, u2 {b:e}");
                }
            }
        }
    }
}

#[test]
fn fast_draw_tracks_the_exact_draw_across_every_binade() {
    // u1 = 2^-e · v for every exponent down to the smallest normal, so
    // the log's exponent reduction sees every binade.
    let mut rng = StdRng::seed_from_u64(17);
    for e in 0..1022 {
        for _ in 0..64 {
            let (v, u2) = box_muller_uniforms(&mut rng);
            let u1 = (0.5 + 0.5 * v) * 2f64.powi(-e);
            let d = deviation(u1, u2);
            assert!(
                d <= Z_ERR / 100.0,
                "deviation {d:e} at u1 {u1:e}, u2 {u2:e}"
            );
        }
    }
}
