//! Oracle for the route-tree sweeps behind the faulty-network model.
//!
//! `FaultRouter` stores one route in-tree per destination, and the model
//! reads every per-pair quantity off those trees: per-channel loads are
//! subtree sums, route latencies are prefix sums, and the deadlock
//! certificate takes its dependencies from (hop at a node, hop at its
//! parent).  This suite keeps the pair walk those sweeps replaced as
//! reference code and holds the production answers to it:
//!
//! * the next-hop rule, recomputed from the fault set alone (one reverse
//!   breadth-first search per destination over `FaultSet::channel_failed`,
//!   then the lowest surviving distance-decreasing channel and the
//!   Dally–Seitz dateline class), equals `next_hop` for every ordered
//!   pair;
//! * per-channel unit rates, accumulated pair by pair along each route,
//!   agree with `FaultyChannelRates` within `1e-12` relative;
//! * `latency`, `regular_latency`, `hot_latency` and
//!   `source_wait_regular`, composed pair by pair, agree with
//!   `solve_general_at` within `1e-10` relative at {0, 0.1, 0.5, 0.9,
//!   0.99}·λ*.  The summation order differs, and the per-pair sums over
//!   262k pairs carry ~1e-12 rounding of their own;
//! * the dependency graph built from every route's consecutive hops gives
//!   the same acyclicity verdict as `deadlock_free()`.
//!
//! Grid: uni-torus, bi-torus and mesh at (8,2), (4,3), (16,2), (8,3), at
//! {0, 2, 5, 10}% router and link faults, over several sampling seeds;
//! plus the failed-hot-node and fully-partitioned corner cases.

use kncube::model::{FaultyNCubeConfig, FaultyNCubeModel, FaultyNCubeOutput};
use kncube::queueing::blocking::{blocking_delay, channel_utilization, TrafficClass};
use kncube::queueing::mg1;
use kncube::queueing::vc_multiplex::multiplexing_factor;
use kncube::topology::{
    Boundary, Channel, Direction, FaultRouter, FaultSet, Hop, KAryNCube, NodeId, VcClass,
};
use kncube::traffic::{sample_fault_set, FaultSpec};

const V: u32 = 2;
const LM: u32 = 16;
const H: f64 = 0.2;
/// The solver's utilization cap for the blocking operator.
const RHO_CAP: f64 = 1.0 - 1e-7;

/// The dateline class of the original next-hop rule.
fn reference_class(topo: &KAryNCube, channel: Channel, dest: NodeId) -> VcClass {
    if topo.boundary() == Boundary::Mesh {
        return VcClass::High;
    }
    let cur = topo.coord(channel.from, channel.dim);
    let target = topo.coord(dest, channel.dim);
    if cur == target {
        let crosses = match channel.direction {
            Direction::Plus => cur == topo.k() - 1,
            Direction::Minus => cur == 0,
        };
        return if crosses { VcClass::Low } else { VcClass::High };
    }
    VcClass::for_hop(cur, target, channel.direction)
}

/// Distance marker of nodes that cannot reach the destination.
const UNREACHABLE: u32 = u32::MAX;

/// The surviving channels out of `node`, lowest id first.
fn surviving_channels(faults: &FaultSet, node: NodeId) -> impl Iterator<Item = Channel> + '_ {
    (0..faults.topology().n()).flat_map(move |dim| {
        [Direction::Plus, Direction::Minus]
            .into_iter()
            .map(move |direction| Channel {
                from: node,
                dim,
                direction,
            })
            .filter(|&channel| !faults.channel_failed(channel))
    })
}

/// Every node's surviving distance to `dest` (`UNREACHABLE` when it has
/// none), by a reverse breadth-first search over the channels that
/// `preds` lists into each node.
fn distances_to(preds: &[Vec<NodeId>], dest: NodeId) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; preds.len()];
    dist[dest.index()] = 0;
    let mut queue = std::collections::VecDeque::from([dest]);
    while let Some(u) = queue.pop_front() {
        for &v in &preds[u.index()] {
            if dist[v.index()] == UNREACHABLE {
                dist[v.index()] = dist[u.index()] + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// The original next-hop rule: the lowest-id surviving channel out of
/// `cur` that decreases the distance to `dest` (`dist` is `dest`'s row).
fn reference_next_hop(faults: &FaultSet, dist: &[u32], cur: NodeId, dest: NodeId) -> Option<Hop> {
    let topo = faults.topology();
    if cur == dest || dist[cur.index()] == UNREACHABLE {
        return None;
    }
    let d = dist[cur.index()];
    let channel = surviving_channels(faults, cur)
        .find(|channel| dist[channel.to(topo).index()] == d - 1)
        .expect("finite distance without a distance-decreasing channel");
    let vc_class = reference_class(topo, channel, dest);
    Some(Hop { channel, vc_class })
}

/// Every ordered reachable pair's route, walked hop by hop with the
/// reference rule, flattened: pair `i` is `(src, dest)` and its hops are
/// `hops[start[i]..start[i + 1]]` as `(channel id, class index)`.
struct PairWalk {
    pairs: Vec<(NodeId, NodeId)>,
    start: Vec<usize>,
    hops: Vec<(usize, usize)>,
}

impl PairWalk {
    /// The walk over `faults`' surviving routes, checking `router`'s
    /// next-hop lookup for every ordered pair on the way.
    fn new(faults: &FaultSet, router: &FaultRouter) -> Self {
        let topo = *faults.topology();
        let nodes = topo.num_nodes() as usize;
        let mut preds = vec![Vec::new(); nodes];
        for node in topo.nodes() {
            for channel in surviving_channels(faults, node) {
                preds[channel.to(&topo).index()].push(node);
            }
        }
        // The rule depends only on (node, dest): evaluate it once per pair.
        let mut next = vec![None; nodes * nodes];
        for dest in topo.nodes() {
            let dist = distances_to(&preds, dest);
            for cur in topo.nodes() {
                let hop = reference_next_hop(faults, &dist, cur, dest);
                assert_eq!(router.next_hop(cur, dest), hop, "{cur:?}→{dest:?}");
                next[dest.index() * nodes + cur.index()] = hop;
            }
        }
        let mut walk = PairWalk {
            pairs: Vec::new(),
            start: vec![0],
            hops: Vec::new(),
        };
        for src in topo.nodes() {
            for dest in topo.nodes() {
                let mut cur = src;
                while let Some(hop) = next[dest.index() * nodes + cur.index()] {
                    walk.hops
                        .push((hop.channel.id(&topo).index(), hop.vc_class.index()));
                    cur = hop.channel.to(&topo);
                }
                if cur != src {
                    walk.pairs.push((src, dest));
                    walk.start.push(walk.hops.len());
                }
            }
        }
        walk
    }

    fn route(&self, i: usize) -> &[(usize, usize)] {
        &self.hops[self.start[i]..self.start[i + 1]]
    }

    /// Per-channel (regular, hot) unit rates, one pair at a time.
    fn unit_rates(&self, topo: &KAryNCube, hot: NodeId) -> (Vec<f64>, Vec<f64>) {
        let others = (topo.num_nodes() - 1) as f64;
        let mut regular = vec![0.0; topo.num_channels() as usize];
        let mut hot_unit = vec![0.0; topo.num_channels() as usize];
        for (i, &(src, dest)) in self.pairs.iter().enumerate() {
            let share = if src == hot { 1.0 } else { 1.0 - H };
            for &(c, _) in self.route(i) {
                regular[c] += share / others;
                if dest == hot && src != hot {
                    hot_unit[c] += H;
                }
            }
        }
        (regular, hot_unit)
    }

    /// The per-pair composition of the model at rate `lambda`: `None`
    /// when it saturates.
    fn solve(&self, topo: &KAryNCube, faults: &FaultSet, hot: NodeId, lambda: f64) -> Option<Out> {
        let (regular, hot_unit) = self.unit_rates(topo, hot);
        let lm = LM as f64;
        let others = (topo.num_nodes() - 1) as f64;
        let mut blocking = vec![0.0; regular.len()];
        let mut vbar = vec![0.0; regular.len()];
        for c in 0..regular.len() {
            let reg_class = TrafficClass::new(lambda * regular[c], lm + 1.0);
            let hot_class = TrafficClass::new(lambda * hot_unit[c], lm + 1.0);
            let utilization = channel_utilization(reg_class, hot_class);
            if utilization >= 1.0 {
                return None;
            }
            blocking[c] = blocking_delay(reg_class, hot_class, lm, RHO_CAP);
            vbar[c] = multiplexing_factor(utilization, V);
        }
        let (mut reg_num, mut reg_den, mut hot_num, mut hot_den) = (0.0, 0.0, 0.0, 0.0);
        let (mut wait_sum, mut healthy) = (0.0, 0u32);
        let mut i = 0;
        for src in topo.nodes() {
            if faults.node_failed(src) {
                continue;
            }
            healthy += 1;
            let pair_weight = (if src == hot { 1.0 } else { 1.0 - H }) / others;
            let mut pairs = Vec::new();
            let (mut service_num, mut delivered) = (0.0, 0.0);
            while i < self.pairs.len() && self.pairs[i].0 == src {
                let dest = self.pairs[i].1;
                let route = self.route(i);
                let s_net: f64 = lm + route.iter().map(|&(c, _)| 1.0 + blocking[c]).sum::<f64>();
                let is_hot = dest == hot;
                let weight = pair_weight + if is_hot { H } else { 0.0 };
                service_num += weight * s_net;
                delivered += weight;
                pairs.push((s_net, vbar[route[0].0], is_hot));
                i += 1;
            }
            let wait = if delivered > 0.0 {
                let injection = lambda * delivered / V as f64;
                mg1::waiting_time(injection, service_num / delivered, lm).ok()?
            } else {
                0.0
            };
            wait_sum += wait;
            for (s_net, entry_vbar, is_hot) in pairs {
                let scaled = (s_net + wait) * entry_vbar;
                reg_num += pair_weight * scaled;
                reg_den += pair_weight;
                if is_hot {
                    hot_num += H * scaled;
                    hot_den += H;
                }
            }
        }
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        Some(Out {
            latency: ratio(reg_num + hot_num, reg_den + hot_den),
            regular_latency: ratio(reg_num, reg_den),
            hot_latency: ratio(hot_num, hot_den),
            source_wait_regular: if healthy > 0 {
                wait_sum / healthy as f64
            } else {
                0.0
            },
        })
    }

    /// Dally's criterion over the walked routes: every consecutive hop
    /// pair is a dependency edge; acyclic iff Kahn's algorithm drains.
    fn deadlock_free(&self, topo: &KAryNCube) -> bool {
        let nv = topo.num_channels() as usize * 2;
        let mut out: Vec<Vec<usize>> = vec![Vec::new(); nv];
        for i in 0..self.pairs.len() {
            for w in self.route(i).windows(2) {
                let (u, v) = (w[0].0 * 2 + w[0].1, w[1].0 * 2 + w[1].1);
                if !out[u].contains(&v) {
                    out[u].push(v);
                }
            }
        }
        let mut indeg = vec![0u32; nv];
        for &v in out.iter().flatten() {
            indeg[v] += 1;
        }
        let mut stack: Vec<usize> = (0..nv).filter(|&v| indeg[v] == 0).collect();
        let mut drained = 0;
        while let Some(u) = stack.pop() {
            drained += 1;
            for &v in &out[u] {
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    stack.push(v);
                }
            }
        }
        drained == nv
    }
}

/// The four outputs the oracle composes.
struct Out {
    latency: f64,
    regular_latency: f64,
    hot_latency: f64,
    source_wait_regular: f64,
}

fn assert_close(got: f64, want: f64, tol: f64, what: &str) {
    assert!(
        (got - want).abs() <= tol * got.abs().max(want.abs()),
        "{what}: {got} vs reference {want} (rel {:e})",
        (got - want).abs() / got.abs().max(want.abs())
    );
}

/// Saturation of the per-channel path (not the delegate), by bisection to
/// 1e-3 relative; `None` when no load saturates.
fn general_lambda_star(model: &FaultyNCubeModel) -> Option<f64> {
    let solvable = |lambda| model.solve_general_at(lambda).is_ok();
    let mut hi = 1e-3;
    while solvable(hi) {
        hi *= 2.0;
        if hi > 1e3 {
            return None;
        }
    }
    let mut lo = 0.0;
    while hi - lo > 1e-3 * hi {
        let mid = 0.5 * (lo + hi);
        if solvable(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(lo)
}

/// Every check of the suite on one fault set, at the given loads.
fn check(faults: FaultSet, hot: NodeId, loads: &[f64], ctx: &str) {
    let topo = *faults.topology();
    let model = FaultyNCubeModel::new(
        FaultyNCubeConfig::new(faults.clone(), V, LM, 0.0, H).with_hot_node(hot),
    )
    .unwrap();
    let router = model.router();
    let walk = PairWalk::new(&faults, router);

    assert_eq!(
        router.deadlock_free(),
        walk.deadlock_free(&topo),
        "{ctx}: certificate"
    );
    assert_eq!(router.dependency_cycle().is_none(), router.deadlock_free());

    assert_eq!(router.reachable_pairs(), walk.pairs.len() as u64, "{ctx}");
    let rates = model.channel_rates();
    let (regular, hot_unit) = walk.unit_rates(&topo, hot);
    for c in 0..regular.len() {
        let id = kncube::topology::ChannelId(c as u32);
        assert_close(rates.regular_rate(id, 1.0), regular[c], 1e-12, ctx);
        assert_close(rates.hot_rate(id, 1.0), hot_unit[c], 1e-12, ctx);
    }

    let lambdas: Vec<f64> = match general_lambda_star(&model) {
        Some(star) => loads.iter().map(|f| f * star).collect(),
        None => loads.to_vec(),
    };
    for lambda in lambdas {
        let got: Option<FaultyNCubeOutput> = model.solve_general_at(lambda).ok();
        let want = walk.solve(&topo, &faults, hot, lambda);
        let (got, want) = match (got, want) {
            (Some(g), Some(w)) => (g, w),
            (None, None) => continue,
            (g, w) => panic!(
                "{ctx} λ={lambda}: tree solvable {}, pair walk solvable {}",
                g.is_some(),
                w.is_some()
            ),
        };
        let at = format!("{ctx} λ={lambda:e}");
        assert_close(got.latency, want.latency, 1e-10, &format!("{at} latency"));
        assert_close(
            got.regular_latency,
            want.regular_latency,
            1e-10,
            &format!("{at} regular"),
        );
        assert_close(
            got.hot_latency,
            want.hot_latency,
            1e-10,
            &format!("{at} hot"),
        );
        assert_close(
            got.source_wait_regular,
            want.source_wait_regular,
            1e-10,
            &format!("{at} wait"),
        );
    }
}

const LOADS: [f64; 5] = [0.0, 0.1, 0.5, 0.9, 0.99];

/// The three network kinds at `(k, n)`, each at every fault density and
/// seed; the hot node alternates between the corner and an interior node.
fn grid(k: u32, n: u32, seeds: &[u64]) {
    for topo in [
        KAryNCube::unidirectional(k, n).unwrap(),
        KAryNCube::bidirectional(k, n).unwrap(),
        KAryNCube::mesh(k, n).unwrap(),
    ] {
        for density in [0.0, 0.02, 0.05, 0.10] {
            // A 0% sample is the same for every seed.
            let seeds = if density == 0.0 { &seeds[..1] } else { seeds };
            for &seed in seeds {
                let spec = FaultSpec {
                    router_failure_prob: density,
                    link_failure_prob: density,
                };
                let faults = sample_fault_set(topo, spec, seed);
                let hot = NodeId(if seed % 2 == 0 {
                    topo.num_nodes() / 2 + 1
                } else {
                    0
                });
                let ctx = format!(
                    "{:?}/{:?} ({k},{n}) p={density} seed={seed} hot={}",
                    topo.link_kind(),
                    topo.boundary(),
                    hot.0
                );
                check(faults, hot, &LOADS, &ctx);
            }
        }
    }
}

#[test]
fn tree_sweeps_match_the_pair_walk_at_8_2() {
    grid(8, 2, &[1, 2, 3]);
}

#[test]
fn tree_sweeps_match_the_pair_walk_at_4_3() {
    grid(4, 3, &[1, 2, 3]);
}

#[test]
fn tree_sweeps_match_the_pair_walk_at_16_2() {
    grid(16, 2, &[1, 2]);
}

#[test]
fn tree_sweeps_match_the_pair_walk_at_8_3() {
    grid(8, 3, &[1, 2]);
}

#[test]
fn failed_hot_node_matches_the_pair_walk() {
    for topo in [
        KAryNCube::unidirectional(8, 2).unwrap(),
        KAryNCube::bidirectional(8, 2).unwrap(),
        KAryNCube::mesh(4, 3).unwrap(),
    ] {
        let mut faults = sample_fault_set(
            topo,
            FaultSpec {
                router_failure_prob: 0.02,
                link_failure_prob: 0.02,
            },
            7,
        );
        faults.fail_node(NodeId(0));
        check(
            faults,
            NodeId(0),
            &LOADS,
            &format!("{topo:?} dead hot node"),
        );
    }
}

#[test]
fn fully_partitioned_network_matches_the_pair_walk() {
    for topo in [
        KAryNCube::bidirectional(4, 3).unwrap(),
        KAryNCube::mesh(8, 2).unwrap(),
    ] {
        let mut faults = FaultSet::none(topo);
        for node in topo.nodes() {
            faults.fail_node(node);
        }
        // Nothing saturates, so the loads are absolute rates.
        check(
            faults,
            NodeId(0),
            &[0.0, 1e-3, 0.5],
            &format!("{topo:?} all failed"),
        );
    }
    // Every link failed but the routers alive: nothing communicates, yet
    // every source still counts towards the mean source wait.
    let topo = KAryNCube::bidirectional(4, 2).unwrap();
    let mut faults = FaultSet::none(topo);
    for node in topo.nodes() {
        for dim in 0..topo.n() {
            faults.fail_link(Channel {
                from: node,
                dim,
                direction: Direction::Plus,
            });
        }
    }
    check(faults, NodeId(3), &[0.0, 1e-3], "all links failed");
}
