//! The hypercube baseline model (reference [12] rebuilt) against the
//! flit-level simulator running the binary cube as a 2-ary n-cube.

use kncube::model::HypercubeModel;
use kncube::sim::{SimConfig, Simulator};

fn simulate(n: u32, lm: u32, lambda: f64, h: f64) -> kncube::sim::SimReport {
    let cfg = SimConfig::ncube(2, n, 2, lm, lambda, h, 8_128).with_limits(700_000, 40_000, 12_000);
    Simulator::new(cfg).unwrap().run()
}

#[test]
fn light_load_agreement() {
    let (n, lm, h) = (6u32, 16u32, 0.3);
    let model = HypercubeModel::new(n, 2, lm, 0.0, h).unwrap();
    let lambda = 0.25 * model.saturation_bound();
    let predicted = HypercubeModel::new(n, 2, lm, lambda, h)
        .unwrap()
        .solve()
        .unwrap();
    let sim = simulate(n, lm, lambda, h);
    assert!(!sim.saturated && !sim.deadlocked);
    let err = (predicted.latency - sim.mean_latency).abs() / sim.mean_latency;
    assert!(
        err < 0.15,
        "hypercube model {:.1} vs sim {:.1} ({:.0}%)",
        predicted.latency,
        sim.mean_latency,
        err * 100.0
    );
}

#[test]
fn zero_load_intercept_matches_simulator() {
    let (n, lm, h) = (5u32, 16u32, 0.2);
    let model = HypercubeModel::new(n, 2, lm, 1e-6, h).unwrap();
    let predicted = model.solve().unwrap();
    let sim = simulate(n, lm, 1e-6, h);
    // Allow the simulator's injection/observation offset (~2 cycles).
    assert!(
        (predicted.latency - sim.mean_latency).abs() < 3.0,
        "zero-load: model {:.2} vs sim {:.2}",
        predicted.latency,
        sim.mean_latency
    );
}

#[test]
fn simulator_saturates_near_the_models_bound() {
    let (n, lm, h) = (5u32, 16u32, 0.5);
    let bound = HypercubeModel::new(n, 2, lm, 0.0, h)
        .unwrap()
        .saturation_bound();
    // Below: deliverable.
    let below = simulate(n, lm, 0.7 * bound, h);
    assert!(!below.saturated);
    let deficit = (below.offered_load - below.throughput) / below.offered_load;
    assert!(
        deficit < 0.03,
        "throughput deficit {deficit:.3} below bound"
    );
    // Above: cannot keep up.
    let above = {
        let cfg =
            SimConfig::ncube(2, n, 2, lm, 1.5 * bound, h, 8_128).with_limits(700_000, 40_000, 0);
        Simulator::new(cfg).unwrap().run()
    };
    let deficit = (above.offered_load - above.throughput) / above.offered_load;
    assert!(
        above.saturated || deficit > 0.05,
        "expected saturation past the bound (deficit {deficit:.3})"
    );
}

#[test]
fn hypercube_latency_beats_torus_at_equal_n_under_hot_load() {
    // 64 nodes, same Lm and h, same absolute λ: the hypercube's shorter
    // paths and lighter worst channel give lower latency.
    let lm = 16u32;
    let h = 0.3;
    let lambda = 4e-4;
    let hyper = HypercubeModel::new(6, 2, lm, lambda, h)
        .unwrap()
        .solve()
        .unwrap();
    let torus =
        kncube::model::NCubeModel::new(kncube::model::NCubeConfig::new(8, 2, 2, lm, lambda, h))
            .unwrap()
            .solve()
            .unwrap();
    assert!(
        hyper.latency < torus.latency,
        "hypercube {:.1} !< torus {:.1}",
        hyper.latency,
        torus.latency
    );
}
