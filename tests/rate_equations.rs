//! Direct validation of the paper's traffic-rate equations (Eqs. 3–9)
//! against the simulator's per-channel flit counters.
//!
//! This is the strongest kind of cross-check the reproduction has: the
//! closed-form channel rates come from pure combinatorics (`kncube-core`),
//! while the flit counters come from the cycle-level machinery
//! (`kncube-sim`) with none of the queueing approximations in between —
//! at any load below saturation they must agree to statistical accuracy.

use kncube::model::NCubeRates;
use kncube::sim::{SimConfig, Simulator};
use kncube::topology::{Channel, Direction, KAryNCube, NodeId};

/// The paper's x and y dimensions.
const X: u32 = 0;
const Y: u32 = 1;

/// The paper's distance `j` of the `dim` channel leaving `from` from the
/// hot node: forward ring distance to the hot coordinate, with 0 (the
/// channel leaving the hot coordinate) read as `k`.
fn paper_distance(topo: &KAryNCube, from: NodeId, hot: NodeId, dim: u32) -> u32 {
    match topo.ring_distance_forward(topo.coord(from, dim), topo.coord(hot, dim)) {
        0 => topo.k(),
        j => j,
    }
}

/// Run the simulator and return (cycles, per-channel flit counts keyed by
/// channel id).
fn measure(k: u32, lm: u32, lambda: f64, h: f64, cycles: u64) -> (Simulator, u64) {
    let cfg = SimConfig::ncube(k, 2, 2, lm, lambda, h, 777).with_limits(cycles, 0, 0);
    let mut sim = Simulator::new(cfg).unwrap();
    while sim.cycle() < cycles {
        sim.step();
    }
    (sim, cycles)
}

#[test]
fn hot_ring_channel_rates_match_eq9() {
    let (k, lm, lambda, h) = (8u32, 16u32, 1e-3, 0.4);
    let cycles = 400_000u64;
    let (sim, cycles) = measure(k, lm, lambda, h, cycles);
    let topo = *sim.topology();
    let rates = NCubeRates::new(k, 2, lambda, h);

    // The hot y-ring: the nodes sharing the hot node's x coordinate.
    for from in (0..k).map(|y| topo.with_coord(NodeId(0), Y, y)) {
        let ch = Channel {
            from,
            dim: Y,
            direction: Direction::Plus,
        };
        let j = paper_distance(&topo, from, NodeId(0), Y);
        // Flit rate = message rate × Lm (every message contributes Lm
        // flits to every channel it crosses).
        let expected = rates.total_rate(Y, j) * lm as f64;
        let observed = sim.channel_flits(ch.id(&topo)) as f64 / cycles as f64;
        let tol = 0.12 * expected.max(0.002);
        assert!(
            (observed - expected).abs() < tol,
            "hot-ring channel j={j}: observed flit rate {observed:.5} vs Eq. 9 {expected:.5}"
        );
    }
}

#[test]
fn x_channel_rates_match_eq8() {
    let (k, lm, lambda, h) = (8u32, 16u32, 1e-3, 0.4);
    let (sim, cycles) = measure(k, lm, lambda, h, 400_000);
    let topo = *sim.topology();
    let rates = NCubeRates::new(k, 2, lambda, h);

    // Average the observed rate over the k rings at each distance j (the
    // closed form says position within the ring is all that matters).
    for j in 1..=k {
        let mut observed_sum = 0.0;
        let mut count = 0;
        for from in topo.nodes() {
            let ch = Channel {
                from,
                dim: X,
                direction: Direction::Plus,
            };
            if paper_distance(&topo, from, NodeId(0), X) == j {
                observed_sum += sim.channel_flits(ch.id(&topo)) as f64 / cycles as f64;
                count += 1;
            }
        }
        assert_eq!(count, k, "one channel per ring at distance {j}");
        let observed = observed_sum / count as f64;
        let expected = rates.total_rate(X, j) * lm as f64;
        let tol = 0.10 * expected.max(0.002);
        assert!(
            (observed - expected).abs() < tol,
            "x channels at j={j}: observed {observed:.5} vs Eq. 8 {expected:.5}"
        );
    }
}

#[test]
fn non_hot_y_channels_carry_only_regular_traffic() {
    let (k, lm, lambda, h) = (8u32, 16u32, 1e-3, 0.5);
    let (sim, cycles) = measure(k, lm, lambda, h, 400_000);
    let topo = *sim.topology();
    let rates = NCubeRates::new(k, 2, lambda, h);
    let expected = rates.regular_channel_rate() * lm as f64;

    let mut observed_sum = 0.0;
    let mut count = 0;
    for from in topo.nodes() {
        if topo.coord(from, X) == 0 {
            continue; // hot column
        }
        let ch = Channel {
            from,
            dim: Y,
            direction: Direction::Plus,
        };
        observed_sum += sim.channel_flits(ch.id(&topo)) as f64 / cycles as f64;
        count += 1;
    }
    let observed = observed_sum / count as f64;
    assert!(
        (observed - expected).abs() < 0.10 * expected,
        "non-hot y channels: observed {observed:.5} vs Eq. 3 {expected:.5}"
    );
}

#[test]
fn uniform_traffic_loads_all_channels_equally_eq3() {
    let (k, lm, lambda) = (8u32, 16u32, 2e-3);
    let (sim, cycles) = measure(k, lm, lambda, 0.0, 300_000);
    let topo = *sim.topology();
    let expected = lambda * (k as f64 - 1.0) / 2.0 * lm as f64;

    let mut min_rate = f64::INFINITY;
    let mut max_rate: f64 = 0.0;
    for from in topo.nodes() {
        for dim in 0..2 {
            let ch = Channel {
                from,
                dim,
                direction: Direction::Plus,
            };
            let rate = sim.channel_flits(ch.id(&topo)) as f64 / cycles as f64;
            min_rate = min_rate.min(rate);
            max_rate = max_rate.max(rate);
        }
    }
    assert!(
        (min_rate - expected).abs() < 0.15 * expected,
        "min channel rate {min_rate:.5} vs Eq. 3 {expected:.5}"
    );
    assert!(
        (max_rate - expected).abs() < 0.15 * expected,
        "max channel rate {max_rate:.5} vs Eq. 3 {expected:.5}"
    );
}
