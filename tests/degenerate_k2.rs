//! The `k = 2` degeneracy, model side: a 2-ary ring has one other node,
//! one hop away in either direction, so unidirectional and bidirectional
//! 2-ary n-cubes are the *same hypercube*.  Every topology-level quantity
//! the analytical model consumes — hop counts, routes, mean hops,
//! hot-spot channel fractions — must agree **bitwise** between the two
//! link kinds, and the closed-form model (which takes only `(k, n, V, Lm,
//! λ, h)`) must solve to finite outputs that match the shared zero-load
//! geometry across a λ grid.
//!
//! The engine-level half of the equivalence (bit-identical simulation
//! reports) lives in `crates/sim/tests/degenerate_equivalence.rs`.

use kncube_core::{FaultyNCubeConfig, FaultyNCubeModel, NCubeConfig, NCubeModel};
use kncube_topology::{Channel, Direction, FaultSet, HotSpotGeometry, KAryNCube, NodeId};

#[test]
fn k2_topology_quantities_coincide_bitwise() {
    for n in 1..=6 {
        let uni = KAryNCube::unidirectional(2, n).unwrap();
        let bi = KAryNCube::bidirectional(2, n).unwrap();
        assert_eq!(uni.num_nodes(), bi.num_nodes());
        assert_eq!(uni.max_hops(), bi.max_hops(), "n={n}");
        // (k-1)/2 = 1/2 (unidirectional) and k/4 = 1/2 (bidirectional,
        // even k) are the same real number — and the same f64.
        assert_eq!(
            uni.mean_hops_per_dim().to_bits(),
            bi.mean_hops_per_dim().to_bits(),
            "n={n}"
        );
        assert_eq!(
            uni.mean_hops_total().to_bits(),
            bi.mean_hops_total().to_bits(),
            "n={n}"
        );
        for src in uni.nodes() {
            for dest in uni.nodes() {
                assert_eq!(uni.hop_count(src, dest), bi.hop_count(src, dest));
                // Same routes, hop for hop: channels *and* virtual-channel
                // classes (every hop is a Plus hop of a 2-ring).
                assert_eq!(
                    uni.dor_route(src, dest).hops,
                    bi.dor_route(src, dest).hops,
                    "n={n} {:?}→{:?}",
                    uni.coords(src),
                    uni.coords(dest)
                );
            }
        }
    }
}

#[test]
fn k2_hot_spot_fractions_coincide_and_minus_channels_carry_nothing() {
    for n in [1u32, 2, 3, 5] {
        let uni = KAryNCube::unidirectional(2, n).unwrap();
        let bi = KAryNCube::bidirectional(2, n).unwrap();
        let hot = NodeId(uni.num_nodes() / 3);
        let gu = HotSpotGeometry::new(uni, hot);
        let gb = HotSpotGeometry::new(bi, hot);
        for from in uni.nodes() {
            for dim in 0..n {
                let plus = Channel {
                    from,
                    dim,
                    direction: Direction::Plus,
                };
                assert_eq!(
                    gu.p_hot_channel(plus).to_bits(),
                    gb.p_hot_channel(plus).to_bits(),
                    "n={n} {:?} dim {dim}",
                    uni.coords(from)
                );
                // No k=2 route ever takes a Minus channel, so no hot-spot
                // traffic crosses one.
                let minus = Channel {
                    from,
                    dim,
                    direction: Direction::Minus,
                };
                assert_eq!(gb.p_hot_channel(minus), 0.0, "n={n}");
                assert_eq!(gb.count_hot_sources_crossing(minus), 0, "n={n}");
            }
        }
    }
}

#[test]
fn k2_faulty_model_coincides_bitwise_across_link_kinds() {
    // The faulty model consumes the route substrate directly, so the k=2
    // equivalence must survive it: identical enumeration order (the
    // lowest-channel-id tie-break picks Plus on both link kinds), hence
    // identical floating-point operation order, hence bitwise-equal
    // outputs — on the empty fault set AND under node faults (a failed
    // node kills the same routes in both cubes; link faults differ, as
    // bidirectional 2-rings have a second physical link).
    for n in [2u32, 3] {
        let uni = KAryNCube::unidirectional(2, n).unwrap();
        let bi = KAryNCube::bidirectional(2, n).unwrap();
        let fault_sets: Vec<(FaultSet, FaultSet)> = vec![
            (FaultSet::none(uni), FaultSet::none(bi)),
            {
                let mut fu = FaultSet::none(uni);
                let mut fb = FaultSet::none(bi);
                let node = NodeId(uni.num_nodes() - 1);
                fu.fail_node(node);
                fb.fail_node(node);
                (fu, fb)
            },
            {
                let mut fu = FaultSet::none(uni);
                let mut fb = FaultSet::none(bi);
                for node in [NodeId(1), NodeId(2)] {
                    fu.fail_node(node);
                    fb.fail_node(node);
                }
                (fu, fb)
            },
        ];
        for (fu, fb) in fault_sets {
            for &lambda in &[0.0, 1e-4, 1e-3] {
                let mu =
                    FaultyNCubeModel::new(FaultyNCubeConfig::new(fu.clone(), 2, 16, lambda, 0.2))
                        .unwrap();
                let mb =
                    FaultyNCubeModel::new(FaultyNCubeConfig::new(fb.clone(), 2, 16, lambda, 0.2))
                        .unwrap();
                // Same delegation decision on both link kinds…
                assert_eq!(mu.delegates_to_ncube(), mb.delegates_to_ncube(), "n={n}");
                let (a, b) = (mu.solve().unwrap(), mb.solve().unwrap());
                assert_eq!(
                    a.latency.to_bits(),
                    b.latency.to_bits(),
                    "n={n} λ={lambda} solve()"
                );
                assert_eq!(a.reachable_pairs, b.reachable_pairs);
                assert_eq!(
                    a.delivered_fraction.to_bits(),
                    b.delivered_fraction.to_bits()
                );
                // …and the forced general path agrees bitwise too, which
                // pins the enumeration-order argument itself.
                let (ga, gb) = (
                    mu.solve_general_at(lambda).unwrap(),
                    mb.solve_general_at(lambda).unwrap(),
                );
                assert_eq!(
                    ga.latency.to_bits(),
                    gb.latency.to_bits(),
                    "n={n} λ={lambda} solve_general_at()"
                );
                assert_eq!(ga.max_utilization.to_bits(), gb.max_utilization.to_bits());
                assert_eq!(ga.hot_latency.to_bits(), gb.hot_latency.to_bits());
            }
        }
    }
}

#[test]
fn k2_model_solves_on_the_shared_geometry_across_a_lambda_grid() {
    // The closed-form model has no link-kind knob — its inputs are the
    // quantities shown bitwise-equal above.  Tie the loop shut: its
    // zero-load latency must be reproducible from *either* topology's mean
    // hop count, and it must solve to finite, sane outputs on a λ grid.
    for n in [2u32, 3, 4] {
        let uni = KAryNCube::unidirectional(2, n).unwrap();
        let bi = KAryNCube::bidirectional(2, n).unwrap();
        for h in [0.0, 0.2] {
            for &lambda in &[1e-4, 5e-4, 1e-3] {
                let lm = 16;
                let model = NCubeModel::new(NCubeConfig::new(2, n, 4, lm, lambda, h)).unwrap();
                let out = model.solve().expect("light k=2 load must solve");
                assert!(out.latency.is_finite() && out.latency > lm as f64);
                // Zero-load floor from the shared geometry: at h = 0 the
                // model's uniform-traffic entry-case average equals
                // Lm + n·(k-1)/2 · N/(N-1) computed from either cube (the
                // model's destinations exclude the source itself).
                if h == 0.0 {
                    let nodes = uni.num_nodes() as f64;
                    let self_excluded = nodes / (nodes - 1.0);
                    let floor_uni = lm as f64 + uni.mean_hops_total() * self_excluded;
                    let floor_bi = lm as f64 + bi.mean_hops_total() * self_excluded;
                    assert_eq!(floor_uni.to_bits(), floor_bi.to_bits());
                    assert!(
                        (model.zero_load_latency() - floor_uni).abs() < 1e-9,
                        "n={n}: zero-load {} vs geometric floor {}",
                        model.zero_load_latency(),
                        floor_uni
                    );
                    assert!(out.latency >= floor_uni - 1e-9);
                }
            }
        }
    }
}
