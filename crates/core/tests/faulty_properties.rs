//! Property-based tests of the faulty-network model: structural
//! invariants that must hold for *any* fault set, pinned over random
//! fault chains on random geometries.
//!
//! The vendored proptest shim draws deterministically per test name, so
//! these properties are exactly reproducible in CI — an empirically
//! validated property here cannot flake.

use kncube_core::{FaultyNCubeConfig, FaultyNCubeModel};
use kncube_topology::{Channel, ChannelId, Direction, FaultRouter, FaultSet, KAryNCube, NodeId};
use proptest::prelude::*;

/// A random element to fail: a router, or a physical link.
#[derive(Clone, Debug)]
enum FaultElem {
    Node(u32),
    Link { from: u32, dim: u32, plus: bool },
}

fn arb_elem() -> impl Strategy<Value = FaultElem> {
    (0u32..4, 0u32..1024, 0u32..4, proptest::bool::ANY).prop_map(|(kind, from, dim, plus)| {
        if kind == 0 {
            FaultElem::Node(from)
        } else {
            FaultElem::Link { from, dim, plus }
        }
    })
}

/// Small geometries the model enumerates quickly (N ≤ 36).
fn arb_topology() -> impl Strategy<Value = KAryNCube> {
    (0u32..5, 3u32..7).prop_map(|(which, k)| match which {
        0 => KAryNCube::unidirectional(k, 2).unwrap(),
        1 => KAryNCube::bidirectional(k, 2).unwrap(),
        2 => KAryNCube::mesh(k, 2).unwrap(),
        3 => KAryNCube::bidirectional(3, 3).unwrap(),
        _ => KAryNCube::mesh(3, 3).unwrap(),
    })
}

/// Apply one element to the set, reducing raw indices into range.
fn apply(faults: &mut FaultSet, elem: &FaultElem) {
    let topo = *faults.topology();
    match *elem {
        FaultElem::Node(raw) => {
            // Never fail node 0: it is the hot node in every test here,
            // which keeps the hot-traffic weighting stable along a chain.
            let node = NodeId(1 + raw % (topo.num_nodes() - 1));
            faults.fail_node(node);
        }
        FaultElem::Link { from, dim, plus } => {
            faults.fail_link(Channel {
                from: NodeId(from % topo.num_nodes()),
                dim: dim % topo.n(),
                direction: if plus {
                    Direction::Plus
                } else {
                    Direction::Minus
                },
            });
        }
    }
}

fn model(faults: FaultSet, lambda: f64) -> FaultyNCubeModel {
    FaultyNCubeModel::new(FaultyNCubeConfig::new(faults, 2, 16, lambda, 0.2))
        .expect("valid faulty config")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Near zero load, latency is `Lm` plus the delivered-weighted mean
    /// surviving distance — and removing network elements can only
    /// lengthen surviving routes.  Monotonicity is only claimed while
    /// the reachable-pair census is unchanged: a disconnection removes
    /// (long) routes from the average and may legitimately lower it.
    #[test]
    fn zero_load_latency_monotone_while_reachability_is_preserved(
        topo in arb_topology(),
        chain in proptest::collection::vec(arb_elem(), 1..6),
    ) {
        let mut faults = FaultSet::none(topo);
        let mut prev = model(faults.clone(), 1e-7);
        let mut prev_latency = prev.solve().unwrap().latency;
        for elem in &chain {
            apply(&mut faults, elem);
            let cur = model(faults.clone(), 1e-7);
            let out = cur.solve().unwrap();
            if cur.router().reachable_pairs() == prev.router().reachable_pairs()
            {
                prop_assert!(
                    out.latency >= prev_latency - 1e-6,
                    "latency fell {} -> {} after {:?} on {:?}",
                    prev_latency, out.latency, elem, topo
                );
            }
            prev = cur;
            prev_latency = out.latency;
        }
    }

    /// The model's reachability numbers are the router's, exactly, on the
    /// delegated and the per-channel path alike: a census of its own
    /// would desynchronize the delivered-traffic weighting from the
    /// simulator's drop accounting.
    #[test]
    fn reachable_pairs_match_the_router_census_exactly(
        topo in arb_topology(),
        chain in proptest::collection::vec(arb_elem(), 0..8),
    ) {
        let mut faults = FaultSet::none(topo);
        for elem in &chain {
            apply(&mut faults, elem);
        }
        let m = model(faults.clone(), 1e-6);
        let census = FaultRouter::new(faults).reachable_pairs();
        let out = m.solve().unwrap();
        prop_assert_eq!(out.reachable_pairs, census);
        let n = topo.num_nodes() as u64;
        let expected_fraction = census as f64 / (n * (n - 1)) as f64;
        prop_assert!((out.reachable_fraction - expected_fraction).abs() < 1e-15);
    }

    /// The saturation story that *is* invariant.  Strict "λ* never rises
    /// under an added fault" is false — proptest found the counterexample
    /// on the 5-ary bidirectional torus, where rerouting around a failed
    /// link drains the binding funnel and raises λ* by ~10% (the
    /// engineered directional case lives in the `faulty` unit tests
    /// instead).  What holds for every fault set:
    ///
    /// 1. λ* never exceeds the bottleneck capacity bound
    ///    `1 / (max per-unit-λ channel load · (Lm + 1))` — when faults
    ///    concentrate load, the bound tightens and λ* falls with it;
    /// 2. whenever an added link fault *does* raise the per-unit
    ///    bottleneck load (reachability preserved, so demand is
    ///    unchanged), λ* does not rise.
    #[test]
    fn saturation_is_pinned_by_the_fault_concentrated_bottleneck(
        topo in arb_topology(),
        links in proptest::collection::vec(
            (0u32..1024, 0u32..4, proptest::bool::ANY), 1..5,
        ),
    ) {
        const REL_TOL: f64 = 1e-3;
        let hold = 17.0; // Lm + 1
        let max_unit = |m: &FaultyNCubeModel| -> f64 {
            (0..m.channel_rates().num_channels())
                .map(|i| m.channel_rates().total_rate(ChannelId(i as u32), 1.0))
                .fold(0.0f64, f64::max)
        };
        let mut faults = FaultSet::none(topo);
        let mut prev = model(faults.clone(), 0.0);
        let mut prev_sat = prev.saturation(1e-9, 1e-1, REL_TOL).unwrap().lambda_star;
        for &(from, dim, plus) in &links {
            apply(&mut faults, &FaultElem::Link { from, dim, plus });
            let cur = model(faults.clone(), 0.0);
            if cur.router().reachable_pairs() == 0 {
                break;
            }
            let sat = cur.saturation(1e-9, 1e-1, REL_TOL).unwrap().lambda_star;
            let bound = 1.0 / (max_unit(&cur) * hold);
            prop_assert!(
                sat <= bound * (1.0 + 4.0 * REL_TOL),
                "λ* {} exceeds the capacity bound {} on {:?}",
                sat, bound, topo
            );
            if cur.router().reachable_pairs() == prev.router().reachable_pairs()
                && max_unit(&cur) > max_unit(&prev) * (1.0 + 1e-9)
            {
                prop_assert!(
                    sat <= prev_sat * (1.0 + 4.0 * REL_TOL),
                    "bottleneck load rose but λ* rose too: {} -> {} on {:?}",
                    prev_sat, sat, topo
                );
            }
            prev = cur;
            prev_sat = sat;
        }
    }
}
