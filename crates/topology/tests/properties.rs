//! Property-based tests for the topology substrate: the 2-D cases the
//! paper analyses, plus the n-dimensional generalization for random
//! `(k, n)` up to `k = 16`, `n = 4`.

use kncube_topology::{
    Boundary, Channel, Direction, FaultRouter, FaultSet, KAryNCube, NodeId, VcClass,
};
use proptest::prelude::*;
use std::collections::VecDeque;

/// Strategy over modest unidirectional 2-D tori plus a hot-spot node.
fn torus_and_hot() -> impl Strategy<Value = (KAryNCube, u32)> {
    (2u32..=9).prop_flat_map(|k| {
        let t = KAryNCube::unidirectional(k, 2).unwrap();
        let n = t.num_nodes();
        (Just(t), 0..n)
    })
}

/// Strategy over unidirectional k-ary n-cubes (`k <= 16`, `n <= 4`,
/// bounded to <= 4096 nodes so brute-force oracles stay fast) plus a pair
/// of node ids.
fn ncube_and_pair() -> impl Strategy<Value = (KAryNCube, u32, u32)> {
    (2u32..=16, 1u32..=4).prop_flat_map(|(k, n)| {
        let k = if (k as u64).pow(n) > 4096 {
            // Clamp the radix so high dimensions stay enumerable.
            match n {
                3 => k.min(8),
                4 => k.min(6),
                _ => k,
            }
        } else {
            k
        };
        let t = KAryNCube::unidirectional(k, n).unwrap();
        let nodes = t.num_nodes();
        (Just(t), 0..nodes, 0..nodes)
    })
}

/// Strategy over bidirectional k-ary n-cubes (tori and meshes) plus a pair
/// of node ids.
fn bidirectional_and_pair() -> impl Strategy<Value = (KAryNCube, u32, u32)> {
    (2u32..=9, 1u32..=3, proptest::bool::ANY).prop_flat_map(|(k, n, mesh)| {
        let t = if mesh {
            KAryNCube::mesh(k, n).unwrap()
        } else {
            KAryNCube::bidirectional(k, n).unwrap()
        };
        let nodes = t.num_nodes();
        (Just(t), 0..nodes, 0..nodes)
    })
}

/// Strategy over faulty networks: a small topology of any link kind and
/// boundary plus a random fault set (router and physical-link failures
/// drawn from explicit index lists, so shrinking peels faults off one by
/// one).
fn faulty_network() -> impl Strategy<Value = FaultSet> {
    (2u32..=6, 1u32..=3, 0u8..3).prop_flat_map(|(k, n, kind)| {
        let t = match kind {
            0 => KAryNCube::unidirectional(k, n).unwrap(),
            1 => KAryNCube::bidirectional(k, n).unwrap(),
            _ => KAryNCube::mesh(k, n).unwrap(),
        };
        let nodes = t.num_nodes();
        (
            Just(t),
            proptest::collection::vec(0..nodes, 0..=3),
            proptest::collection::vec((0..nodes, 0..n), 0..=4),
        )
            .prop_map(|(t, dead_nodes, dead_links)| {
                let mut faults = FaultSet::none(t);
                for node in dead_nodes {
                    faults.fail_node(NodeId(node));
                }
                for (node, dim) in dead_links {
                    faults.fail_link(Channel {
                        from: NodeId(node),
                        dim,
                        direction: Direction::Plus,
                    });
                }
                faults
            })
    })
}

/// Reference BFS distance over the surviving digraph, using only the
/// fault set's public element predicates (the fully independent explicit
/// graph oracle lives in `tests/fault_oracle.rs`).
fn bfs_surviving_distance(faults: &FaultSet, src: NodeId, dest: NodeId) -> Option<u32> {
    let t = *faults.topology();
    if faults.node_failed(src) {
        return None;
    }
    let mut dist: Vec<Option<u32>> = vec![None; t.num_nodes() as usize];
    dist[src.index()] = Some(0);
    let mut queue = VecDeque::new();
    queue.push_back(src);
    while let Some(u) = queue.pop_front() {
        let d = dist[u.index()].unwrap();
        for dim in 0..t.n() {
            for direction in [Direction::Plus, Direction::Minus] {
                let c = Channel {
                    from: u,
                    dim,
                    direction,
                };
                if !faults.channel_failed(c) && dist[c.to(&t).index()].is_none() {
                    dist[c.to(&t).index()] = Some(d + 1);
                    queue.push_back(c.to(&t));
                }
            }
        }
    }
    dist[dest.index()]
}

proptest! {
    #[test]
    fn fault_routes_never_traverse_failed_elements(faults in faulty_network(), a in 0u32..216, b in 0u32..216) {
        let t = *faults.topology();
        let (src, dest) = (NodeId(a % t.num_nodes()), NodeId(b % t.num_nodes()));
        let router = FaultRouter::new(faults);
        if let Some(route) = router.route(src, dest) {
            let mut cur = src;
            for hop in &route {
                prop_assert_eq!(hop.channel.from, cur);
                prop_assert!(t.channel_exists(hop.channel),
                    "route used nonexistent channel {:?}", hop.channel);
                prop_assert!(!router.fault_set().channel_failed(hop.channel),
                    "route crossed failed channel {:?}", hop.channel);
                prop_assert!(!router.fault_set().node_failed(hop.channel.to(&t)),
                    "route entered failed router");
                cur = hop.channel.to(&t);
            }
            prop_assert_eq!(cur, dest);
        }
    }

    #[test]
    fn fault_routes_are_minimal_among_surviving_paths(faults in faulty_network(), a in 0u32..216, b in 0u32..216) {
        let t = *faults.topology();
        let (src, dest) = (NodeId(a % t.num_nodes()), NodeId(b % t.num_nodes()));
        let oracle = bfs_surviving_distance(&faults, src, dest);
        let router = FaultRouter::new(faults);
        prop_assert_eq!(router.distance(src, dest), oracle,
            "distance mismatch {:?}→{:?}", t.coords(src), t.coords(dest));
        match oracle {
            None => prop_assert!(router.route(src, dest).is_none()),
            Some(d) => {
                let route = router.route(src, dest).unwrap();
                prop_assert_eq!(route.len() as u32, d,
                    "route not minimal among surviving paths");
                // A detour is never shorter than the fault-free minimum.
                prop_assert!(d >= t.hop_count(src, dest));
            }
        }
    }

    // Dally–Seitz dateline rule: a torus hop rides the Low class iff the
    // remaining travel in its dimension still has to cross the wrap link
    // (`VcClass::for_hop`), with one detour special case — a sidestep hop
    // whose coordinate already matches the destination is Low iff the hop
    // itself physically crosses the wrap.  This matches `dor_route` exactly
    // on fault-free routes and keeps the per-dimension channel-dependence
    // graph acyclic (see `FaultRouter::deadlock_free`).
    #[test]
    fn fault_routes_on_tori_follow_the_dateline_class_rule(faults in faulty_network(), a in 0u32..216, b in 0u32..216) {
        let t = *faults.topology();
        prop_assume!(t.boundary() == Boundary::Torus);
        let (src, dest) = (NodeId(a % t.num_nodes()), NodeId(b % t.num_nodes()));
        let router = FaultRouter::new(faults);
        if let Some(route) = router.route(src, dest) {
            for hop in &route {
                let cur = t.coord(hop.channel.from, hop.channel.dim);
                let target = t.coord(dest, hop.channel.dim);
                let want = if cur == target {
                    let crosses = match hop.channel.direction {
                        Direction::Plus => cur == t.k() - 1,
                        Direction::Minus => cur == 0,
                    };
                    if crosses { VcClass::Low } else { VcClass::High }
                } else {
                    VcClass::for_hop(cur, target, hop.channel.direction)
                };
                prop_assert_eq!(hop.vc_class, want,
                    "dateline class rule violated at {:?}", hop.channel);
            }
        }
    }

    #[test]
    fn mesh_fault_routes_stay_in_the_high_class(faults in faulty_network(), a in 0u32..216, b in 0u32..216) {
        let t = *faults.topology();
        prop_assume!(t.boundary() == Boundary::Mesh);
        let (src, dest) = (NodeId(a % t.num_nodes()), NodeId(b % t.num_nodes()));
        let router = FaultRouter::new(faults);
        if let Some(route) = router.route(src, dest) {
            prop_assert!(route.iter().all(|h| h.vc_class == VcClass::High));
        }
    }

    #[test]
    fn bidirectional_routes_are_minimal_and_never_overshoot((t, a, b) in bidirectional_and_pair()) {
        let (a, b) = (NodeId(a), NodeId(b));
        let route = t.dor_route(a, b);
        prop_assert_eq!(route.len() as u32, t.hop_count(a, b));
        // Per dimension: the route takes |shortest signed offset| hops, all
        // in the same direction.
        for d in 0..t.n() {
            let offset = t.ring_offset_routed(t.coord(a, d), t.coord(b, d));
            let hops: Vec<_> = route.hops.iter().filter(|h| h.channel.dim == d).collect();
            prop_assert_eq!(hops.len() as i64, offset.abs());
            let want = if offset > 0 { Direction::Plus } else { Direction::Minus };
            prop_assert!(hops.iter().all(|h| h.channel.direction == want));
        }
        let mut cur = a;
        for hop in &route.hops {
            prop_assert_eq!(hop.channel.from, cur);
            cur = hop.channel.to(&t);
        }
        prop_assert_eq!(cur, b);
    }

    #[test]
    fn routes_are_minimal_and_valid((t, hot) in torus_and_hot(), src in 0u32..81) {
        let src = kncube_topology::NodeId(src % t.num_nodes());
        let hot = kncube_topology::NodeId(hot);
        let route = t.dor_route(src, hot);
        prop_assert_eq!(route.len() as u32, t.hop_count(src, hot));
        let mut cur = src;
        for hop in &route.hops {
            prop_assert_eq!(hop.channel.from, cur);
            cur = hop.channel.to(&t);
        }
        prop_assert_eq!(cur, hot);
    }

    #[test]
    fn route_hops_stay_in_source_x_ring_then_dest_y_ring((t, hot) in torus_and_hot(), src in 0u32..81) {
        let src = kncube_topology::NodeId(src % t.num_nodes());
        let hot = kncube_topology::NodeId(hot);
        let route = t.dor_route(src, hot);
        for hop in &route.hops {
            match hop.channel.dim {
                0 => prop_assert_eq!(t.coord(hop.channel.from, 1), t.coord(src, 1)),
                1 => prop_assert_eq!(t.coord(hop.channel.from, 0), t.coord(hot, 0)),
                _ => prop_assert!(false, "unexpected dimension"),
            }
        }
    }

    #[test]
    fn vc_labels_strictly_decrease_along_routes((t, _) in torus_and_hot(), a in 0u32..81, b in 0u32..81) {
        // Dally-Seitz deadlock-freedom witness: label every virtual channel
        // of a ring with label(Low, i) = 2k-1-i and label(High, i) = k-1-i
        // (i = source coordinate). Every dimension-order route must visit
        // channels of a ring in strictly decreasing label order; since
        // messages acquire channels in path order, all channel-wait cycles
        // would need a label increase somewhere, so none exist.
        let a = kncube_topology::NodeId(a % t.num_nodes());
        let b = kncube_topology::NodeId(b % t.num_nodes());
        let k = t.k();
        let route = t.dor_route(a, b);
        for dim in 0..t.n() {
            let mut last_label: Option<u32> = None;
            for hop in route.hops.iter().filter(|h| h.channel.dim == dim) {
                let i = t.coord(hop.channel.from, dim);
                let label = match hop.vc_class {
                    VcClass::Low => 2 * k - 1 - i,
                    VcClass::High => k - 1 - i,
                };
                if let Some(prev) = last_label {
                    prop_assert!(label < prev,
                        "labels must strictly decrease: {} then {}", prev, label);
                }
                last_label = Some(label);
            }
        }
    }

    // ------------------------------------------------------------------
    // n-dimensional dimension-order routing, random (k, n) up to k=16, n=4.
    // ------------------------------------------------------------------

    #[test]
    fn ndim_hop_count_is_sum_of_per_dimension_ring_offsets((t, a, b) in ncube_and_pair()) {
        let (a, b) = (NodeId(a), NodeId(b));
        let per_dim: u32 = (0..t.n())
            .map(|d| t.ring_distance_forward(t.coord(a, d), t.coord(b, d)))
            .sum();
        prop_assert_eq!(t.hop_count(a, b), per_dim);
        prop_assert_eq!(t.dor_route(a, b).len() as u32, per_dim);
    }

    #[test]
    fn ndim_routes_are_minimal_in_the_unidirectional_metric((t, a, b) in ncube_and_pair()) {
        // Minimality: any walk from a to b over unidirectional ring links
        // must move at least the forward ring distance in every dimension
        // (each hop advances exactly one dimension by exactly one forward
        // step, and dimensions are independent); the dimension-order route
        // spends exactly that many hops per dimension and no more.
        let (a, b) = (NodeId(a), NodeId(b));
        let route = t.dor_route(a, b);
        for d in 0..t.n() {
            let needed = t.ring_distance_forward(t.coord(a, d), t.coord(b, d));
            let spent = route.hops.iter().filter(|h| h.channel.dim == d).count() as u32;
            prop_assert_eq!(spent, needed, "dim {} of route {:?}→{:?}",
                d, t.coords(a), t.coords(b));
        }
        // And the hops are grouped in ascending dimension order
        // (deterministic dimension-order discipline).
        let dims: Vec<u32> = route.hops.iter().map(|h| h.channel.dim).collect();
        let mut sorted = dims.clone();
        sorted.sort_unstable();
        prop_assert_eq!(dims, sorted);
    }

    #[test]
    fn ndim_vc_class_assignment_never_cycles((t, a, b) in ncube_and_pair()) {
        // Deadlock-freedom invariant in every dimension: once a message
        // stops needing the wrap-around link of a ring (switches to the
        // High class) it never returns to the Low class, and the
        // Dally-Seitz channel labels strictly decrease along the route.
        let (a, b) = (NodeId(a), NodeId(b));
        let k = t.k();
        let route = t.dor_route(a, b);
        for dim in 0..t.n() {
            let mut seen_high = false;
            let mut last_label: Option<u32> = None;
            for hop in route.hops.iter().filter(|h| h.channel.dim == dim) {
                match hop.vc_class {
                    VcClass::High => seen_high = true,
                    VcClass::Low => prop_assert!(!seen_high,
                        "Low after High in dim {} of {:?}→{:?}", dim, t.coords(a), t.coords(b)),
                }
                let i = t.coord(hop.channel.from, dim);
                let label = match hop.vc_class {
                    VcClass::Low => 2 * k - 1 - i,
                    VcClass::High => k - 1 - i,
                };
                if let Some(prev) = last_label {
                    prop_assert!(label < prev, "label increase {} → {}", prev, label);
                }
                last_label = Some(label);
            }
        }
    }

    #[test]
    fn ndim_incremental_routing_agrees_with_full_route((t, a, b) in ncube_and_pair()) {
        // The simulator's per-hop routing must replay the closed-form
        // route hop for hop in any dimension count.
        let (a, b) = (NodeId(a), NodeId(b));
        let route = t.dor_route(a, b);
        let mut cur = a;
        for hop in &route.hops {
            let next = t.dor_next_hop(cur, b);
            prop_assert_eq!(next.as_ref(), Some(hop));
            cur = hop.channel.to(&t);
        }
        prop_assert_eq!(t.dor_next_hop(cur, b), None);
    }
}
