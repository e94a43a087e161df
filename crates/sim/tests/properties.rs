//! Property-based tests of the flit-level simulator.

use kncube_sim::{SimConfig, Simulator};
use kncube_topology::NodeId;
use kncube_traffic::{ArrivalProcess, TrafficPattern};
use proptest::prelude::*;

/// Strategy over small sub-saturation configurations that finish quickly,
/// spanning dimension counts 1..=3 (ring, torus, 3-D cube).
fn small_config() -> impl Strategy<Value = SimConfig> {
    (
        3u32..=6,      // k
        1u32..=3,      // n
        2u32..=3,      // V
        4u32..=16,     // Lm
        0.0f64..=0.6,  // h
        1u64..1000,    // seed
        0.05f64..=0.4, // fraction of the flit bound
    )
        .prop_map(|(k, n, v, lm, h, seed, frac)| {
            // Generalized hot-channel flit bound: the last channel into the
            // hot node funnels k^{n-1}(k-1) hot sources.
            let funnel = (k as f64).powi(n as i32 - 1) * (k - 1) as f64;
            let hot_bound = 1.0 / (h.max(0.02) * funnel * (lm + 1) as f64);
            let uni_bound = 1.0 / ((k as f64 - 1.0) / 2.0 * (lm + 1) as f64);
            let lambda = frac * hot_bound.min(uni_bound);
            SimConfig::ncube(k, n, v, lm, lambda, h, seed).with_limits(40_000, 2_000, 1_500)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn conservation_holds_throughout(cfg in small_config()) {
        let mut sim = Simulator::new(cfg).unwrap();
        for _ in 0..3_000 {
            sim.step();
            if sim.cycle().is_multiple_of(256) {
                prop_assert!(sim.flit_conservation_check(),
                    "conservation violated at cycle {}", sim.cycle());
            }
        }
    }

    #[test]
    fn runs_are_reproducible(cfg in small_config()) {
        let a = Simulator::new(cfg).unwrap().run();
        let b = Simulator::new(cfg).unwrap().run();
        prop_assert_eq!(a.completed, b.completed);
        prop_assert_eq!(a.generated, b.generated);
        prop_assert!((a.mean_latency - b.mean_latency).abs() == 0.0);
    }

    #[test]
    fn no_deadlock_below_saturation(cfg in small_config()) {
        let report = Simulator::new(cfg).unwrap().run();
        prop_assert!(!report.deadlocked, "deadlock at {cfg:?}");
        prop_assert!(report.completed > 0, "nothing completed at {cfg:?}");
    }

    #[test]
    fn latencies_at_least_the_pipeline_minimum(cfg in small_config()) {
        // Every message needs at least Lm + 2 cycles (one network hop,
        // injection, drain); the minimum observed latency must respect
        // the shortest possible path.
        let report = Simulator::new(cfg).unwrap().run();
        prop_assume!(report.completed > 10);
        prop_assert!(
            report.mean_latency >= (cfg.message_length + 2) as f64,
            "mean latency {} below pipeline minimum {}",
            report.mean_latency,
            cfg.message_length + 2
        );
    }

    #[test]
    fn hot_share_of_completions_tracks_h(
        seed in 1u64..500,
        h in 0.1f64..=0.9,
    ) {
        let lambda = 0.3 / (h * 12.0 * 9.0); // 30% of the k=4, Lm=8 bound
        let cfg = SimConfig {
            pattern: TrafficPattern::HotSpot { h, hot: NodeId(3) },
            arrivals: ArrivalProcess::Poisson(lambda),
            ..SimConfig::ncube(4, 2, 2, 8, lambda, h, seed)
        }
        .with_limits(400_000, 2_000, 4_000);
        let report = Simulator::new(cfg).unwrap().run();
        prop_assume!(report.completed >= 2_000);
        let share = report.completed_hot as f64 / report.completed as f64;
        // The hot node itself (1/16 of sources) sends only regular
        // traffic, so the expected share is h·15/16.
        let expected = h * 15.0 / 16.0;
        prop_assert!(
            (share - expected).abs() < 0.05,
            "hot share {share:.3} vs expected {expected:.3}"
        );
    }

    #[test]
    fn throughput_matches_offered_load_below_saturation(cfg in small_config()) {
        let report = Simulator::new(SimConfig {
            target_messages: 0,
            max_cycles: 120_000,
            warmup_cycles: 5_000,
            ..cfg
        }).unwrap().run();
        prop_assert!(!report.saturated);
        let offered = cfg.arrivals.rate();
        // Generous tolerance: short runs at tiny rates are noisy.
        let nodes = (cfg.k as u64).pow(cfg.n) as f64;
        let sigma = (offered / (115_000.0 * nodes)).sqrt();
        prop_assert!(
            (report.throughput - offered).abs() < 4.0 * sigma + 0.1 * offered,
            "throughput {:.3e} vs offered {offered:.3e}",
            report.throughput
        );
    }
}
