//! Property-based tests of the analytical model.

use kncube_core::{
    entry_cases, ModelError, NCubeConfig, NCubeModel, NCubeRates, ServiceTimeModel, SolveCache,
};
use kncube_topology::{Channel, Direction, KAryNCube, NodeId};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// [`NCubeModel::flit_bound`] of the configuration at any rate: the hot
/// funnel plus the regular share on the busiest channel.
fn flit_bound(cfg: NCubeConfig) -> f64 {
    NCubeModel::new(NCubeConfig { lambda: 0.0, ..cfg })
        .unwrap()
        .flit_bound()
}

/// Strategy over valid configurations of the paper's `k × k` torus at a
/// load comfortably below the flit bound.
fn sub_saturation_config() -> impl Strategy<Value = NCubeConfig> {
    (
        4u32..=16,     // k
        2u32..=4,      // V
        8u32..=64,     // Lm
        0.0f64..=0.8,  // h
        0.05f64..=0.5, // fraction of the flit bound
    )
        .prop_map(|(k, v, lm, h, frac)| {
            let cfg = NCubeConfig::new(k, 2, v, lm, 0.0, h);
            NCubeConfig {
                lambda: frac * flit_bound(cfg),
                ..cfg
            }
        })
}

/// Strategy over modest unidirectional 2-D tori plus a hot-spot node.
fn torus_and_hot() -> impl Strategy<Value = (KAryNCube, u32)> {
    (2u32..=9).prop_flat_map(|k| {
        let t = KAryNCube::unidirectional(k, 2).unwrap();
        let n = t.num_nodes();
        (Just(t), 0..n)
    })
}

/// Strategy over unidirectional k-ary n-cubes (`k <= 16`, `n <= 4`,
/// at most 1024 nodes so the brute-force route count stays fast) plus a
/// hot node and a channel source node.
fn ncube_hot_and_from() -> impl Strategy<Value = (KAryNCube, u32, u32)> {
    (2u32..=16, 1u32..=4).prop_flat_map(|(k, n)| {
        // Clamp the radix so high dimensions stay enumerable.
        let k = match n {
            3 => k.min(10),
            4 => k.min(5),
            _ => k,
        };
        let t = KAryNCube::unidirectional(k, n).unwrap();
        let nodes = t.num_nodes();
        (Just(t), 0..nodes, 0..nodes)
    })
}

/// Brute-force count of the sources whose dimension-order route to `hot`
/// crosses `channel`.
fn hot_sources_crossing(t: &KAryNCube, hot: NodeId, channel: Channel) -> u32 {
    t.nodes()
        .filter(|&src| src != hot)
        .filter(|&src| {
            t.dor_route(src, hot)
                .hops
                .iter()
                .any(|h| h.channel == channel)
        })
        .count() as u32
}

/// Check the model's hot rate on the `Plus` channel of dimension `dim`
/// leaving `from` against the brute-force count: on a hot ring of `dim`
/// (the source matches the hot node below `dim`) the channel `j` hops
/// from the hot coordinate (`0` read as `k`) carries `hot_rate(dim, j)`
/// per unit `λh`; every other channel carries no hot traffic.
fn check_hot_rate(t: &KAryNCube, hot: NodeId, from: NodeId, dim: u32) -> Result<(), TestCaseError> {
    let channel = Channel {
        from,
        dim,
        direction: Direction::Plus,
    };
    let counted = hot_sources_crossing(t, hot, channel);
    if (0..dim).all(|lower| t.coord(from, lower) == t.coord(hot, lower)) {
        let j = match t.ring_distance_forward(t.coord(from, dim), t.coord(hot, dim)) {
            0 => t.k(),
            j => j,
        };
        let rate = NCubeRates::new(t.k(), t.n(), 1.0, 1.0).hot_rate(dim, j);
        prop_assert_eq!(
            rate,
            counted as f64,
            "k={} n={} dim={} j={} from {:?}",
            t.k(),
            t.n(),
            dim,
            j,
            t.coords(from)
        );
    } else {
        prop_assert_eq!(
            counted,
            0,
            "off the hot rings: k={} n={} dim={}",
            t.k(),
            t.n(),
            dim
        );
    }
    Ok(())
}

proptest! {
    #[test]
    fn hot_fractions_match_bruteforce((t, hot) in torus_and_hot(), from in 0u32..81, dim in 0u32..2) {
        // Eq. 4 on x channels, Eq. 5 on hot y-ring channels, 0 elsewhere.
        check_hot_rate(&t, NodeId(hot), NodeId(from % t.num_nodes()), dim)?;
    }

    #[test]
    fn ndim_hot_fractions_match_bruteforce((t, hot, from) in ncube_hot_and_from(), dim in 0u32..4) {
        // Generalized Eqs. 4-5 against route enumeration on random cubes.
        check_hot_rate(&t, NodeId(hot), NodeId(from), dim % t.n())?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn solves_below_half_of_the_flit_bound(cfg in sub_saturation_config()) {
        let out = NCubeModel::new(cfg).unwrap().solve();
        prop_assert!(out.is_ok(), "diverged at {cfg:?}: {:?}", out.err());
        let out = out.unwrap();
        prop_assert!(out.latency.is_finite() && out.latency > 0.0);
        prop_assert!(out.max_utilization < 1.0);
    }

    #[test]
    fn latency_at_least_zero_load(cfg in sub_saturation_config()) {
        let model = NCubeModel::new(cfg).unwrap();
        let out = model.solve().unwrap();
        // Queueing can only add delay over the contention-free network.
        prop_assert!(
            out.latency >= model.zero_load_latency() - 1e-6,
            "latency {} below zero-load {}",
            out.latency,
            model.zero_load_latency()
        );
    }

    #[test]
    fn latency_monotone_in_lambda(cfg in sub_saturation_config()) {
        let lo = NCubeModel::new(NCubeConfig { lambda: cfg.lambda * 0.5, ..cfg })
            .unwrap().solve().unwrap();
        let hi = NCubeModel::new(cfg).unwrap().solve().unwrap();
        prop_assert!(hi.latency >= lo.latency - 1e-9,
            "latency fell with load: {} -> {}", lo.latency, hi.latency);
    }

    #[test]
    fn multiplexing_factors_within_bounds(cfg in sub_saturation_config()) {
        let out = NCubeModel::new(cfg).unwrap().solve().unwrap();
        let v = cfg.virtual_channels as f64;
        for (name, vbar) in [
            ("hot ring", out.vbar_hot[1]),
            ("non-hot", out.vbar_nonhot),
            ("x", out.vbar_hot[0]),
        ] {
            prop_assert!(vbar >= 1.0 - 1e-9 && vbar <= v + 1e-9,
                "{name} multiplexing {vbar} outside [1, {v}]");
        }
    }

    #[test]
    fn hot_latency_dominates_regular_when_hot_ring_loaded(cfg in sub_saturation_config()) {
        prop_assume!(cfg.hot_fraction > 0.05);
        let out = NCubeModel::new(cfg).unwrap().solve().unwrap();
        // Hot messages end at the most congested channels; their mean
        // cannot be lower than the overall regular mean minus the path
        // difference (hot paths can be shorter: they end at a fixed node).
        // A hard invariant that always holds: both components are finite
        // and the mix reproduces Eq. 10.
        let mix = (1.0 - cfg.hot_fraction) * out.regular_latency
            + cfg.hot_fraction * out.hot_latency;
        prop_assert!((mix - out.latency).abs() < 1e-9 * out.latency.max(1.0));
    }

    #[test]
    fn rates_are_consistent(k in 2u32..=32, lambda in 0.0f64..1e-2, h in 0.0f64..=1.0) {
        let r = NCubeRates::new(k, 2, lambda, h);
        // Eq. 8/9 are sums of Eq. 3 and Eqs. 6/7.
        for j in 1..=k {
            for dim in 0..2 {
                prop_assert!((r.total_rate(dim, j) - r.regular_channel_rate() - r.hot_rate(dim, j)).abs() < 1e-15);
            }
        }
        // Hot rates integrate to the global hot hop count: Σ_j λ^h_y,j =
        // λ h k(k-1)/2 · k/k ... the closed form k²(k-1)/2 per dimension.
        let sum_y: f64 = (1..=k).map(|j| r.hot_rate(1, j)).sum();
        let expected = lambda * h * (k * k * (k - 1)) as f64 / 2.0;
        prop_assert!((sum_y - expected).abs() < 1e-12 + 1e-9 * expected);
    }

    #[test]
    fn route_probabilities_always_marginalise(k in 2u32..=64, n in 1u32..=4) {
        let cases = entry_cases(k, n);
        let total: f64 = cases.iter().map(|c| c.probability).sum();
        prop_assert!((total - 1.0).abs() < 1e-12);
        prop_assert!(cases.iter().all(|c| c.probability >= 0.0));
        // The least likely family, entry in the innermost hot ring, is
        // still possible.
        prop_assert!(cases.iter().all(|c| !c.hot || c.probability > 0.0));
    }

    #[test]
    fn warm_continuation_agrees_with_cold_solves_on_random_grids(
        k in 4u32..=8,
        n in 2u32..=3,
        lm in 8u32..=32,
        h in 0.05f64..=0.7,
        top in 0.3f64..=0.9,
        iterative in 0u32..=1,
    ) {
        let iterative = iterative == 1;
        // A random ascending λ grid under either service model: a chain of
        // warm-started solves of the snapped points, the query engine's
        // walk, must answer every point like a cold solve of that exact
        // (quantized) point.  Under the default pipelined model the
        // agreement is bitwise (the update is load-only); under the
        // path-occupancy ablation both runs converge to the same fixed
        // point within the solver tolerance.
        let mut base = NCubeConfig::new(k, n, 2, lm, 0.0, h);
        if iterative {
            base.service_model = ServiceTimeModel::PathOccupancy;
        }
        let cap = top * flit_bound(base);
        let configs: Vec<NCubeConfig> = (1..=6)
            .map(|i| NCubeConfig { lambda: cap * i as f64 / 6.0, ..base })
            .collect();
        let mut state: Option<Vec<f64>> = None;
        for cfg in &configs {
            let model = NCubeModel::new(SolveCache::quantize(cfg)).unwrap();
            let warm = model.solve_warm(state.as_deref());
            state = warm.as_ref().ok().map(|(_, next)| next.clone());
            let warm = warm.map(|(out, _)| out);
            let cold = model.solve();
            match (&cold, &warm) {
                (Ok(c), Ok(w)) => {
                    let rel = (c.latency - w.latency).abs() / c.latency.max(1.0);
                    prop_assert!(rel < 1e-6,
                        "warm {} vs cold {} at λ={} (rel {rel:.3e})",
                        w.latency, c.latency, cfg.lambda);
                    if !iterative {
                        prop_assert_eq!(c.latency.to_bits(), w.latency.to_bits());
                    }
                }
                (Err(_), Err(_)) => {}
                other => prop_assert!(false,
                    "solvability mismatch at λ={}: {other:?}", cfg.lambda),
            }
        }
    }

    #[test]
    fn saturation_error_reports_above_the_bound(
        k in 4u32..=16, lm in 8u32..=64, h in 0.1f64..=0.8
    ) {
        // 2× the flit bound must be unsolvable.
        let bound = 1.0 / (h * (k * (k - 1)) as f64 * (lm + 1) as f64);
        let cfg = NCubeConfig::new(k, 2, 2, lm, 2.0 * bound, h);
        match NCubeModel::new(cfg).unwrap().solve() {
            Err(ModelError::Saturated { max_utilization }) => {
                prop_assert!(max_utilization >= 1.0);
            }
            Err(ModelError::NotConverged) => {} // also an accepted witness
            Ok(out) => prop_assert!(false,
                "solved past the flit bound: latency {}", out.latency),
            Err(e) => prop_assert!(false, "unexpected error {e}"),
        }
    }
}
