//! Workspace-level smoke test: the facade re-exports compose across every
//! crate, and one 2-D torus parameterisation round-trips through both the analytical model and a short simulator
//! run with consistent answers.

use kncube::model::{find_saturation_ncube, NCubeConfig, NCubeModel};
use kncube::sim::{SimConfig, Simulator};

/// One modest operating point shared by every check below: an 8×8 torus
/// at roughly 40% of the hot-channel flit bound.
const K: u32 = 8;
const V: u32 = 2;
const LM: u32 = 16;
const H: f64 = 0.2;

fn lambda() -> f64 {
    0.4 / (H * (K * (K - 1)) as f64 * (LM + 1) as f64)
}

#[test]
fn facade_reexports_compose_across_all_crates() {
    // topology → traffic → queueing → model, all through the facade paths.
    let topo = kncube::topology::KAryNCube::unidirectional(K, 2).unwrap();
    assert_eq!(topo.num_nodes(), K * K);

    let pattern = kncube::traffic::TrafficPattern::HotSpot {
        hot: kncube::topology::NodeId(0),
        h: H,
    };
    let _ = pattern; // constructible through the facade

    let wait = kncube::queueing::mg1::waiting_time(1e-3, (LM + 1) as f64, LM as f64).unwrap();
    assert!(wait > 0.0);

    let cases = kncube::model::entry_cases(K, 2);
    let total: f64 = cases.iter().map(|c| c.probability).sum();
    assert!((total - 1.0).abs() < 1e-12);
}

#[test]
fn paper_torus_round_trips_model_and_simulator() {
    let lambda = lambda();

    // Model side.
    let model_cfg = NCubeConfig::new(K, 2, V, LM, lambda, H);
    let model = NCubeModel::new(model_cfg).unwrap();
    let out = model.solve().expect("sub-saturation point must solve");
    assert!(out.latency >= model.zero_load_latency());
    assert!(out.max_utilization < 1.0);

    // Simulator side, same parameterisation, short but real run.
    let sim_cfg =
        SimConfig::ncube(K, 2, V, LM, lambda, H, 20_050_408).with_limits(80_000, 8_000, 4_000);
    let report = Simulator::new(sim_cfg).unwrap().run();
    assert!(!report.saturated, "sub-saturation run flagged saturated");
    assert!(report.completed > 0);

    // Round-trip consistency: model and measurement describe the same
    // network, so they must land in the same latency regime.  The bound
    // is loose on purpose — this is a smoke test, not a validation run
    // (the validation binary does that job on full-length runs).
    let rel = (out.latency - report.mean_latency).abs() / report.mean_latency;
    assert!(
        rel < 0.35,
        "model {:.1} vs simulated {:.1} ({:.0}% apart) at λ={lambda:.3e}",
        out.latency,
        report.mean_latency,
        rel * 100.0
    );
}

#[test]
fn sweep_entrypoint_is_reachable_through_the_facade() {
    let base = NCubeConfig::new(K, 2, V, LM, 0.0, H);
    let grid = [0.5 * lambda(), lambda()];
    for lambda in grid {
        let model = NCubeModel::new(NCubeConfig { lambda, ..base }).unwrap();
        assert!(model.solve().is_ok(), "λ={lambda:.3e} must solve");
    }
    let sat = find_saturation_ncube(base, 1e-8, 1e-1, 1e-3)
        .expect("paper configurations saturate inside the bracket");
    assert!(sat > grid[1], "grid was supposed to sit below saturation");
}

#[test]
fn model_and_simulator_accept_the_same_virtual_channel_range() {
    use kncube::model::MAX_VIRTUAL_CHANNELS;
    for v in [0, 1, MAX_VIRTUAL_CHANNELS, MAX_VIRTUAL_CHANNELS + 1] {
        let model = NCubeModel::new(NCubeConfig::new(K, 2, v, LM, lambda(), H)).is_ok();
        let sim = SimConfig::ncube(K, 2, v, LM, lambda(), H, 1)
            .validate()
            .is_ok();
        assert_eq!(model, sim, "V = {v}");
        assert_eq!(model, (1..=MAX_VIRTUAL_CHANNELS).contains(&v), "V = {v}");
    }
}
