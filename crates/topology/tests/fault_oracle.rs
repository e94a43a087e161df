//! Brute-force graph oracle for the fault-aware router.
//!
//! This suite rebuilds the faulty network as an **explicit digraph in test
//! code** — its own mixed-radix coordinate arithmetic, its own edge
//! enumeration, its own forward breadth-first search — and property-checks
//! the production [`FaultRouter`] against it over a grid of sampled
//! topologies (`k <= 8`, `n <= 4`), both link kinds, torus and mesh, and a
//! spread of deterministic fault sets:
//!
//! * distances agree pair-for-pair (including unreachable markers), and
//!   `reachable` answers whether the oracle's distance is finite — for
//!   failed endpoints and `src == dest` too,
//! * every produced route is legal (edge-by-edge present in the surviving
//!   digraph) and **minimal** (length equals the oracle's BFS distance),
//! * `reachable_pairs` / `reachable_fraction` / `expected_detour` /
//!   `max_finite_distance` match oracle recomputation, with the fault-free
//!   minimal distances themselves re-derived by a second oracle BFS.
//!
//! The only production code the oracle consumes is the `(k, n, link-kind,
//! boundary)` tuple and the fault *events* (which routers / which physical
//! links died) — everything downstream of those is computed twice.

use kncube_topology::{
    Boundary, Channel, Direction, FaultRouter, FaultSet, KAryNCube, LinkKind, NodeId,
};
use std::collections::HashSet;
use std::collections::VecDeque;

// ---------------------------------------------------------------------
// The oracle: an explicit surviving digraph, independent of production
// channel ids, routing tables, and fault predicates.
// ---------------------------------------------------------------------

struct OracleGraph {
    k: u32,
    n: u32,
    bidirectional: bool,
    mesh: bool,
    num_nodes: u32,
    failed_nodes: HashSet<u32>,
    /// Physical links, keyed by their `Plus`-direction source node and
    /// dimension (the canonical end of the link).
    failed_links: HashSet<(u32, u32)>,
}

impl OracleGraph {
    fn new(k: u32, n: u32, link_kind: LinkKind, boundary: Boundary) -> Self {
        OracleGraph {
            k,
            n,
            bidirectional: link_kind == LinkKind::Bidirectional,
            mesh: boundary == Boundary::Mesh,
            num_nodes: k.pow(n),
            failed_nodes: HashSet::new(),
            failed_links: HashSet::new(),
        }
    }

    /// Mixed-radix digit `dim` of `node`, computed from scratch.
    fn coord(&self, node: u32, dim: u32) -> u32 {
        (node / self.k.pow(dim)) % self.k
    }

    /// The node whose digit `dim` is `digit` and whose other digits match
    /// `node`.
    fn with_coord(&self, node: u32, dim: u32, digit: u32) -> u32 {
        let stride = self.k.pow(dim);
        node - self.coord(node, dim) * stride + digit * stride
    }

    /// Record a physical link failure at the canonical (`Plus`-source)
    /// end, mirroring `FaultSet::fail_link`'s no-op on links that do not
    /// exist (mesh wrap-around positions).
    fn fail_link(&mut self, node: u32, dim: u32) {
        if self.mesh && self.coord(node, dim) == self.k - 1 {
            return;
        }
        self.failed_links.insert((node, dim));
    }

    /// Surviving out-edges of `node`: `(neighbor, dim, is_plus)`.
    fn out_edges(&self, node: u32) -> Vec<(u32, u32, bool)> {
        let mut edges = Vec::new();
        if self.failed_nodes.contains(&node) {
            return edges;
        }
        for dim in 0..self.n {
            let c = self.coord(node, dim);
            // Plus edge: exists unless this is the wrap position of a mesh.
            if !(self.mesh && c == self.k - 1) {
                let to = self.with_coord(node, dim, (c + 1) % self.k);
                if !self.failed_nodes.contains(&to) && !self.failed_links.contains(&(node, dim)) {
                    edges.push((to, dim, true));
                }
            }
            // Minus edge: bidirectional networks only; on meshes only away
            // from the 0 face.  Its physical link is the Plus channel of
            // the neighbor we are stepping onto.
            if self.bidirectional && !(self.mesh && c == 0) {
                let to = self.with_coord(node, dim, (c + self.k - 1) % self.k);
                if !self.failed_nodes.contains(&to) && !self.failed_links.contains(&(to, dim)) {
                    edges.push((to, dim, false));
                }
            }
        }
        edges
    }

    /// Whether the directed edge taken by `hop` survives in this graph.
    fn edge_survives(&self, from: u32, to: u32, dim: u32, is_plus: bool) -> bool {
        self.out_edges(from)
            .iter()
            .any(|&(t, d, p)| t == to && d == dim && p == is_plus)
    }

    /// Forward BFS: shortest surviving distance from `src` to every node
    /// (`None` = unreachable).  A failed source reaches nothing, not even
    /// itself.
    fn bfs(&self, src: u32) -> Vec<Option<u32>> {
        let mut dist = vec![None; self.num_nodes as usize];
        if self.failed_nodes.contains(&src) {
            return dist;
        }
        dist[src as usize] = Some(0);
        let mut queue = VecDeque::new();
        queue.push_back(src);
        while let Some(u) = queue.pop_front() {
            let d = dist[u as usize].unwrap();
            for (v, _, _) in self.out_edges(u) {
                if dist[v as usize].is_none() {
                    dist[v as usize] = Some(d + 1);
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// The full `N × N` distance table, `table[src][dest]`.
    fn all_distances(&self) -> Vec<Vec<Option<u32>>> {
        (0..self.num_nodes).map(|src| self.bfs(src)).collect()
    }
}

/// splitmix64 — the test's own deterministic fault sampler.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

fn roll(state: &mut u64, prob: f64) -> bool {
    (splitmix64(state) >> 11) as f64 / ((1u64 << 53) as f64) < prob
}

/// Sample the same fault events into the production `FaultSet` and the
/// oracle graph, then hand both back.
fn sample_faults(
    topo: KAryNCube,
    node_prob: f64,
    link_prob: f64,
    seed: u64,
) -> (FaultSet, OracleGraph) {
    let mut faults = FaultSet::none(topo);
    let mut oracle = OracleGraph::new(topo.k(), topo.n(), topo.link_kind(), topo.boundary());
    let mut state = seed;
    for node in 0..topo.num_nodes() {
        if roll(&mut state, node_prob) {
            faults.fail_node(NodeId(node));
            oracle.failed_nodes.insert(node);
        }
        for dim in 0..topo.n() {
            if roll(&mut state, link_prob) {
                faults.fail_link(Channel {
                    from: NodeId(node),
                    dim,
                    direction: Direction::Plus,
                });
                oracle.fail_link(node, dim);
            }
        }
    }
    (faults, oracle)
}

/// The sampled topology grid: every `(k, n)` stays within the oracle
/// budget (`k <= 8`, `n <= 4`, at most a few hundred nodes), and each pair
/// is exercised as a unidirectional torus, a bidirectional torus, and a
/// mesh.
fn sampled_topologies() -> Vec<KAryNCube> {
    let mut topologies = Vec::new();
    for &(k, n) in &[
        (8, 1),
        (5, 2),
        (6, 2),
        (8, 2),
        (3, 3),
        (4, 3),
        (2, 4),
        (3, 4),
    ] {
        topologies.push(KAryNCube::unidirectional(k, n).unwrap());
        topologies.push(KAryNCube::bidirectional(k, n).unwrap());
        topologies.push(KAryNCube::mesh(k, n).unwrap());
    }
    topologies
}

/// The full property check of one `(topology, fault set)` instance.
fn check_against_oracle(topo: KAryNCube, faults: FaultSet, oracle: &OracleGraph, ctx: &str) {
    let router = FaultRouter::new(faults);
    let dist = oracle.all_distances();
    // Fault-free minimal distances, re-derived by a second oracle BFS so
    // the detour check does not lean on `KAryNCube::hop_count`.
    let healthy = OracleGraph::new(topo.k(), topo.n(), topo.link_kind(), topo.boundary());
    let minimal = healthy.all_distances();

    let mut reachable = 0u64;
    let mut extra_hops = 0u64;
    let mut max_finite = 0u32;
    for src in topo.nodes() {
        for dest in topo.nodes() {
            let expected = dist[src.index()][dest.index()];
            assert_eq!(
                router.distance(src, dest),
                expected,
                "{ctx}: distance {:?}→{:?}",
                topo.coords(src),
                topo.coords(dest)
            );
            assert_eq!(
                router.reachable(src, dest),
                expected.is_some(),
                "{ctx}: reachable {:?}→{:?}",
                topo.coords(src),
                topo.coords(dest)
            );
            let route = router.route(src, dest);
            match expected {
                None => assert!(route.is_none(), "{ctx}: route for unreachable pair"),
                Some(d) => {
                    max_finite = max_finite.max(d);
                    if src != dest {
                        reachable += 1;
                        extra_hops += (d - minimal[src.index()][dest.index()].unwrap()) as u64;
                    }
                    // Legal: every hop is a surviving edge of the oracle
                    // digraph, and the hops chain src → dest.  Minimal:
                    // exactly the oracle's BFS distance many of them.
                    let route = route.unwrap();
                    assert_eq!(route.len() as u32, d, "{ctx}: route not minimal");
                    let mut cur = src;
                    for hop in &route {
                        assert_eq!(hop.channel.from, cur, "{ctx}: broken hop chain");
                        let to = hop.channel.to(&topo);
                        assert!(
                            oracle.edge_survives(
                                cur.0,
                                to.0,
                                hop.channel.dim,
                                hop.channel.direction == Direction::Plus
                            ),
                            "{ctx}: route crosses a dead edge {:?}→{:?} dim {}",
                            topo.coords(cur),
                            topo.coords(to),
                            hop.channel.dim
                        );
                        cur = to;
                    }
                    assert_eq!(cur, dest, "{ctx}: route ends elsewhere");
                }
            }
        }
    }

    assert_eq!(
        router.reachable_pairs(),
        reachable,
        "{ctx}: reachable_pairs"
    );
    let n = topo.num_nodes() as u64;
    let expected_fraction = reachable as f64 / (n * (n - 1)) as f64;
    assert_eq!(
        router.reachable_fraction().to_bits(),
        expected_fraction.to_bits(),
        "{ctx}: reachable_fraction"
    );
    let expected_detour = if reachable == 0 {
        0.0
    } else {
        extra_hops as f64 / reachable as f64
    };
    assert_eq!(
        router.expected_detour().to_bits(),
        expected_detour.to_bits(),
        "{ctx}: expected_detour"
    );
    assert_eq!(
        router.max_finite_distance(),
        max_finite,
        "{ctx}: max_finite_distance"
    );
}

#[test]
fn fault_free_router_matches_the_oracle_everywhere() {
    for topo in sampled_topologies() {
        let (faults, oracle) = sample_faults(topo, 0.0, 0.0, 1);
        let ctx = format!(
            "{:?}/{:?} k={} n={} p=0",
            topo.link_kind(),
            topo.boundary(),
            topo.k(),
            topo.n()
        );
        check_against_oracle(topo, faults, &oracle, &ctx);
    }
}

#[test]
fn router_failures_match_the_oracle() {
    for topo in sampled_topologies() {
        for seed in [11, 12] {
            let (faults, oracle) = sample_faults(topo, 0.15, 0.0, seed);
            let ctx = format!(
                "{:?}/{:?} k={} n={} routers seed {seed} ({} dead)",
                topo.link_kind(),
                topo.boundary(),
                topo.k(),
                topo.n(),
                faults.num_failed_routers()
            );
            check_against_oracle(topo, faults, &oracle, &ctx);
        }
    }
}

#[test]
fn link_failures_match_the_oracle() {
    for topo in sampled_topologies() {
        for seed in [21, 22] {
            let (faults, oracle) = sample_faults(topo, 0.0, 0.15, seed);
            let ctx = format!(
                "{:?}/{:?} k={} n={} links seed {seed} ({} dead)",
                topo.link_kind(),
                topo.boundary(),
                topo.k(),
                topo.n(),
                faults.num_failed_links()
            );
            check_against_oracle(topo, faults, &oracle, &ctx);
        }
    }
}

#[test]
fn mixed_failures_match_the_oracle() {
    for topo in sampled_topologies() {
        for seed in [31, 32] {
            let (faults, oracle) = sample_faults(topo, 0.08, 0.08, seed);
            let ctx = format!(
                "{:?}/{:?} k={} n={} mixed seed {seed}",
                topo.link_kind(),
                topo.boundary(),
                topo.k(),
                topo.n()
            );
            check_against_oracle(topo, faults, &oracle, &ctx);
        }
    }
}

#[test]
fn heavy_failures_match_the_oracle_down_to_fragmentation() {
    // 35% dead routers shatters these small networks into islands; the
    // oracle must agree on *which* pairs die, not just how many.
    for topo in sampled_topologies() {
        let (faults, oracle) = sample_faults(topo, 0.35, 0.2, 41);
        let ctx = format!(
            "{:?}/{:?} k={} n={} heavy",
            topo.link_kind(),
            topo.boundary(),
            topo.k(),
            topo.n()
        );
        check_against_oracle(topo, faults, &oracle, &ctx);
    }
}

#[test]
fn single_targeted_faults_match_the_oracle() {
    // Deterministic single-fault placements (no sampling): each router and
    // each physical link of a small topology killed one at a time.
    for &(k, n) in &[(5, 1), (4, 2), (3, 2)] {
        for topo in [
            KAryNCube::unidirectional(k, n).unwrap(),
            KAryNCube::bidirectional(k, n).unwrap(),
            KAryNCube::mesh(k, n).unwrap(),
        ] {
            for node in topo.nodes() {
                let mut faults = FaultSet::none(topo);
                faults.fail_node(node);
                let mut oracle =
                    OracleGraph::new(topo.k(), topo.n(), topo.link_kind(), topo.boundary());
                oracle.failed_nodes.insert(node.0);
                let ctx = format!(
                    "{:?}/{:?} k={k} n={n} node {:?}",
                    topo.link_kind(),
                    topo.boundary(),
                    topo.coords(node)
                );
                check_against_oracle(topo, faults, &oracle, &ctx);

                for dim in 0..topo.n() {
                    let mut faults = FaultSet::none(topo);
                    faults.fail_link(Channel {
                        from: node,
                        dim,
                        direction: Direction::Plus,
                    });
                    let mut oracle =
                        OracleGraph::new(topo.k(), topo.n(), topo.link_kind(), topo.boundary());
                    oracle.fail_link(node.0, dim);
                    let ctx = format!(
                        "{:?}/{:?} k={k} n={n} link {:?}+{dim}",
                        topo.link_kind(),
                        topo.boundary(),
                        topo.coords(node)
                    );
                    check_against_oracle(topo, faults, &oracle, &ctx);
                }
            }
        }
    }
}
