//! The paper's headline claim, as an integration test: "the analytical
//! model predicts the mean message latency with a reasonable degree of
//! accuracy when the network operates in the light and moderate load
//! regions" (§4).
//!
//! These tests run the flit-level simulator against the analytical model
//! on small networks (debug-build friendly); the full 256-node figures are
//! regenerated by `cargo run --release -p kncube-bench --bin figure1/2`.

use kncube::topology::KAryNCube;
use kncube_bench::validate::{self, Grid};
use kncube_bench::{run_points, FigureConfig, FigureRow};

/// Run model and simulation at `lambda`, with the run sized so the offered
/// rate yields `target` measured messages: the whole network generates
/// N·λ messages per cycle, and the run may last `slack` times the ideal
/// length after `warmup`.
fn run_sized(config: FigureConfig, lambda: f64, warmup: u64, target: u64, slack: f64) -> FigureRow {
    let rate = config.num_nodes() as f64 * lambda;
    let max_cycles = warmup + (slack * target as f64 / rate) as u64;
    let config = FigureConfig {
        sim_limits: (max_cycles, warmup, target),
        ..config
    };
    let row = run_points(&[(config, lambda)]).remove(0);
    assert!(!row.sim.saturated, "simulation saturated at λ={lambda}");
    assert!(!row.sim.deadlocked);
    row
}

/// Run both model and simulation on the `k × k` torus, returning (model,
/// sim) mean latencies.
fn compare(k: u32, v: u32, lm: u32, lambda: f64, h: f64) -> (f64, f64) {
    let config = FigureConfig {
        k,
        v,
        seed: 31_415,
        ..FigureConfig::paper(lm, h, true)
    };
    let row = run_sized(config, lambda, 40_000, 8_000, 1.3);
    assert!(
        row.sim.completed >= 5_000,
        "too few samples: {}",
        row.sim.completed
    );
    let model = row.model.expect("below saturation");
    (model.latency, row.sim.mean_latency)
}

#[test]
fn light_load_agreement_hot_spot() {
    // 64-node torus, 16-flit messages, h = 20%, light load (~20% of λ*).
    let (model, sim) = compare(8, 2, 16, 3e-4, 0.2);
    let err = (model - sim).abs() / sim;
    assert!(
        err < 0.15,
        "light-load disagreement: model {model:.1} vs sim {sim:.1} ({:.0}%)",
        err * 100.0
    );
}

#[test]
fn light_load_agreement_high_hot_fraction() {
    let (model, sim) = compare(8, 2, 16, 1.2e-4, 0.7);
    let err = (model - sim).abs() / sim;
    assert!(
        err < 0.15,
        "h=0.7 light-load disagreement: model {model:.1} vs sim {sim:.1}"
    );
}

#[test]
fn moderate_load_agreement_uniform() {
    let (model, sim) = compare(8, 2, 16, 2e-3, 0.0);
    let err = (model - sim).abs() / sim;
    assert!(
        err < 0.25,
        "uniform moderate-load disagreement: model {model:.1} vs sim {sim:.1}"
    );
}

#[test]
fn model_and_sim_rank_hot_fractions_identically() {
    // At a fixed λ, higher h means higher latency in both worlds.
    let lambda = 2e-4;
    let (m20, s20) = compare(8, 2, 16, lambda, 0.2);
    let (m40, s40) = compare(8, 2, 16, lambda, 0.4);
    assert!(m20 < m40, "model ordering broken: {m20} !< {m40}");
    assert!(s20 < s40, "sim ordering broken: {s20} !< {s40}");
}

#[test]
fn zero_load_offsets_match_within_injection_overhead() {
    // At vanishing load both must sit at hops + Lm (+ the simulator's
    // injection/observation offset of ~2 cycles).
    let (model, sim) = compare(8, 2, 16, 1e-5, 0.2);
    assert!(
        (model - sim).abs() < 3.0,
        "zero-load offset too large: model {model:.2} vs sim {sim:.2}"
    );
}

#[test]
fn ncube_8_3_hot_spot_within_the_sim_confidence_interval() {
    // The generalized model on the 512-node 8-ary 3-cube under hot-spot
    // traffic (V = 2, Lm = 16, h = 20%), held to the simulator's
    // batch-means 95% CI at low and moderate load.
    //
    // The simulator's measured latency carries a constant instrumentation
    // offset the model deliberately excludes (one cycle to cross the
    // injection port, and completion observed at the end of the delivery
    // cycle).  That offset is a property of the measurement apparatus, not
    // of either latency model, so the protocol calibrates it once at
    // near-zero load — where the model is exact (hops + Lm, enforced by
    // the ncube unit tests) — and the CI comparison is made on the
    // calibrated prediction, with the calibration run's own CI widening
    // the band.  Density 0 is the fault-free cube.
    let grid = Grid {
        densities: &[0.0],
        fracs: &[0.15, 0.35],
        seed_base: 31_415,
        cal_target: 3_000,
        target: 5_000,
        warmup: 25_000,
        min_completed: 5_000,
    };
    let topo = KAryNCube::unidirectional(8, 3).unwrap();
    let out = validate::sweep("(k=8, n=3)", topo, &grid);
    assert!(out.violations.is_empty(), "{}", out.violations.join("\n"));
    assert_eq!(out.rows.len(), grid.fracs.len());
    for row in &out.rows {
        let ci = row.ci.expect("batch means available");
        let residual = (row.predicted - row.sim).abs();
        assert!(
            residual <= ci,
            "(k=8, n=3) at {:.0}% of λ*: model {:.2} vs sim {:.2} — residual {residual:.3} \
             exceeds the 95% CI band {ci:.3}",
            row.frac * 100.0,
            row.predicted,
            row.sim
        );
    }
}

#[test]
fn ncube_8_3_ranks_hot_and_regular_like_the_simulator() {
    let config = FigureConfig {
        seed: 7,
        ..FigureConfig::ncube(8, 3, 16, 0.4, true)
    };
    let lambda = 0.3 * config.saturation().expect("hot-spot cubes saturate");
    let row = run_sized(config, lambda, 25_000, 5_000, 1.5);
    let model = row.model.unwrap();
    assert!(model.hot_latency > model.regular_latency);
    assert!(
        row.sim.mean_latency_hot > row.sim.mean_latency_regular,
        "sim: hot {:.1} !> regular {:.1}",
        row.sim.mean_latency_hot,
        row.sim.mean_latency_regular
    );
}

#[test]
fn hot_messages_slower_in_both_worlds() {
    let config = FigureConfig {
        k: 8,
        seed: 7,
        sim_limits: (600_000, 40_000, 12_000),
        ..FigureConfig::paper(16, 0.4, true)
    };
    let row = run_points(&[(config, 2.5e-4)]).remove(0);
    let model = row.model.unwrap();
    assert!(model.hot_latency > model.regular_latency);
    assert!(
        row.sim.mean_latency_hot > row.sim.mean_latency_regular,
        "sim: hot {:.1} !> regular {:.1}",
        row.sim.mean_latency_hot,
        row.sim.mean_latency_regular
    );
}
