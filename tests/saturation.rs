//! Saturation behaviour across the crates: the model's divergence point,
//! the simulator's queue blow-up, and the hot-channel flit bound must all
//! tell the same story.

use kncube::model::{find_saturation_ncube, NCubeConfig, NCubeModel};
use kncube::sim::{SimConfig, Simulator};

/// The flit bound of the paper's `k × k` torus ([`NCubeModel::flit_bound`]):
/// the last channel into the hot node carries `λ h k(k-1)` hot messages
/// plus its regular share, `Lm + 1` cycles each, and cannot absorb more
/// than one flit per cycle.
fn flit_bound(k: u32, lm: u32, h: f64) -> f64 {
    NCubeModel::new(NCubeConfig::new(k, 2, 2, lm, 0.0, h))
        .expect("paper configurations are valid")
        .flit_bound()
}

#[test]
fn model_saturation_tracks_flit_bound() {
    for (k, lm, h) in [
        (8u32, 16u32, 0.3f64),
        (8, 32, 0.5),
        (16, 32, 0.2),
        (16, 100, 0.7),
    ] {
        let base = NCubeConfig::new(k, 2, 2, lm, 0.0, h);
        let sat = find_saturation_ncube(base, 1e-8, 1e-1, 1e-3)
            .expect("paper configurations saturate inside the bracket");
        let bound = flit_bound(k, lm, h);
        assert!(
            sat < bound,
            "k={k} Lm={lm} h={h}: λ*={sat:.3e} must sit below the flit bound {bound:.3e}"
        );
        assert!(
            sat > 0.99 * bound,
            "k={k} Lm={lm} h={h}: λ*={sat:.3e} implausibly far below the bound {bound:.3e}"
        );
    }
}

#[test]
fn saturation_rate_decreases_with_h_and_lm() {
    let sat = |lm: u32, h: f64| {
        find_saturation_ncube(NCubeConfig::new(8, 2, 2, lm, 0.0, h), 1e-8, 1e-1, 1e-3)
            .expect("paper configurations saturate inside the bracket")
    };
    assert!(sat(16, 0.1) > sat(16, 0.3));
    assert!(sat(16, 0.3) > sat(16, 0.7));
    assert!(sat(16, 0.3) > sat(32, 0.3));
    assert!(sat(32, 0.3) > sat(100, 0.3));
}

#[test]
fn simulator_survives_below_and_collapses_above() {
    let (k, lm, h) = (8, 16, 0.5);
    let bound = flit_bound(k, lm, h);
    // 60% of the bound: healthy.
    let healthy = Simulator::new(
        SimConfig::ncube(k, 2, 2, lm, 0.6 * bound, h, 5).with_limits(400_000, 30_000, 10_000),
    )
    .unwrap()
    .run();
    assert!(!healthy.saturated, "unexpected saturation below the bound");
    // 160% of the bound: must blow up.
    let mut cfg = SimConfig::ncube(k, 2, 2, lm, 1.6 * bound, h, 5).with_limits(400_000, 30_000, 0);
    cfg.max_source_queue = 300;
    let choked = Simulator::new(cfg).unwrap().run();
    assert!(choked.saturated, "expected saturation above the bound");
}

#[test]
fn throughput_below_saturation_matches_offered_load() {
    let (k, lm, h) = (8, 16, 0.3);
    let lambda = 0.5 * flit_bound(k, lm, h);
    let report = Simulator::new(
        SimConfig::ncube(k, 2, 2, lm, lambda, h, 17).with_limits(900_000, 50_000, 0),
    )
    .unwrap()
    .run();
    assert!(!report.saturated);
    let rel = (report.throughput - lambda).abs() / lambda;
    assert!(
        rel < 0.05,
        "delivered {:.3e} vs offered {lambda:.3e} ({:.1}% off)",
        report.throughput,
        rel * 100.0
    );
}
