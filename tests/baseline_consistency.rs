//! Cross-validation of the two independently-implemented analytical
//! models: the hot-spot solver at `h → 0` must agree with the uniform
//! baseline, and both must agree with the simulator.

use kncube::model::{NCubeConfig, NCubeModel, UniformModel};

#[test]
fn h_zero_reduces_to_uniform_baseline() {
    for k in [4u32, 8, 16] {
        for lambda_frac in [0.1, 0.4, 0.7] {
            // Scale the load to each radix's uniform saturation.
            let sat = 1.0 / ((k as f64 - 1.0) / 2.0 * 33.0);
            let lambda = lambda_frac * sat;
            let hot = NCubeModel::new(NCubeConfig::new(k, 2, 2, 32, lambda, 0.0))
                .unwrap()
                .solve()
                .unwrap_or_else(|e| panic!("hot-spot model failed at k={k}: {e}"));
            let uni = UniformModel::new(k, 2, 32, lambda)
                .solve()
                .unwrap_or_else(|e| panic!("uniform model failed at k={k}: {e}"));
            let rel = (hot.latency - uni.latency).abs() / uni.latency;
            assert!(
                rel < 0.05,
                "k={k} λ={lambda:.3e}: hot-spot(h=0) {:.2} vs uniform {:.2} ({:.1}%)",
                hot.latency,
                uni.latency,
                rel * 100.0
            );
        }
    }
}

#[test]
fn both_models_share_the_zero_load_intercept() {
    let hot = NCubeModel::new(NCubeConfig::new(16, 2, 2, 32, 1e-9, 0.0))
        .unwrap()
        .solve()
        .unwrap();
    let uni = UniformModel::new(16, 2, 32, 1e-9).solve().unwrap();
    assert!(
        (hot.latency - uni.latency).abs() < 0.5,
        "zero-load intercepts differ: {} vs {}",
        hot.latency,
        uni.latency
    );
}

#[test]
fn hot_spot_fraction_only_hurts() {
    // For every load where both solve, latency(h) >= latency(0).
    for lambda in [5e-5, 1e-4, 1.5e-4] {
        let base = NCubeModel::new(NCubeConfig::new(16, 2, 2, 32, lambda, 0.0))
            .unwrap()
            .solve()
            .unwrap();
        for h in [0.05, 0.2, 0.4] {
            let hot = NCubeModel::new(NCubeConfig::new(16, 2, 2, 32, lambda, h))
                .unwrap()
                .solve()
                .unwrap();
            assert!(
                hot.latency >= base.latency - 1e-9,
                "λ={lambda} h={h}: {} < uniform {}",
                hot.latency,
                base.latency
            );
        }
    }
}

#[test]
fn virtual_channels_only_help_capacity() {
    // More VCs postpone saturation (multiplexing spreads the same flit
    // bandwidth, so latency can rise slightly, but the saturation rate
    // must not shrink).
    let sat = |v: u32| {
        kncube::model::find_saturation_ncube(
            NCubeConfig::new(16, 2, v, 32, 0.0, 0.4),
            1e-8,
            1e-2,
            1e-3,
        )
        .expect("paper configurations saturate inside the bracket")
    };
    let s2 = sat(2);
    let s4 = sat(4);
    assert!(
        s4 >= 0.95 * s2,
        "V=4 saturates earlier than V=2: {s4:.3e} vs {s2:.3e}"
    );
}
