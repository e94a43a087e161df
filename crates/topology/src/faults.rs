//! Router/link fault injection and fault-aware shortest-path routing.
//!
//! The analytical model assumes a fault-free network; this module supplies
//! the machinery for the reliability extension: a [`FaultSet`] names failed
//! routers and physical links, and a [`FaultRouter`] computes deterministic
//! shortest surviving routes around them (reporting unreachable pairs and
//! detour lengths), in the spirit of the probabilistic reliability analyses
//! of faulty k-ary n-cubes and meshes (arXiv:1301.5993, math/0407185).
//!
//! Semantics:
//!
//! * a **failed router** removes the node: no traffic may originate at,
//!   terminate at, or transit through it (all incident channels die);
//! * a **failed link** is a *physical* failure: on bidirectional networks
//!   both directed channels of the link die together;
//! * channels that do not exist in the topology ([`KAryNCube::channel_exists`]
//!   — `Minus` channels of unidirectional networks, wrap-around channels of
//!   meshes) are permanently "failed".
//!
//! The router is a brute-force breadth-first search per destination over
//! the surviving digraph — exact and deterministic (ties broken by lowest
//! [`ChannelId`]), which is what a correctness oracle and a small-network
//! simulator need; it is *not* a scalable fault-tolerant routing algorithm.
//! With an empty fault set its hop sequences coincide with dimension-order
//! routing ([`KAryNCube::dor_route`]): the lowest-channel-id tie-break
//! picks the lowest dimension first and resolves the even-`k` half-ring tie
//! towards `Plus`, exactly the DOR conventions.

use crate::channel::{Channel, ChannelId, Direction};
use crate::geometry::{Boundary, KAryNCube, LinkKind, NodeId};
use crate::routing::{Hop, VcClass};
use std::collections::HashMap;
use std::sync::{Arc, LazyLock, Mutex, MutexGuard, PoisonError, Weak};

/// Distance marker for nodes the current breadth-first search has not
/// reached.
const UNREACHABLE: u32 = u32::MAX;

/// A set of failed routers and physical links in a topology.
///
/// Equality and hashing cover the topology and every failed element, so a
/// `FaultSet` can key a memo directly: sets with the same failure *counts*
/// but different failed elements, or on different topologies, never
/// compare equal.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct FaultSet {
    topo: KAryNCube,
    failed_nodes: Vec<bool>,
    failed_channels: Vec<bool>,
    num_failed_routers: u32,
    num_failed_links: u32,
}

impl FaultSet {
    /// The empty fault set: every router and link of `topo` is healthy.
    pub fn none(topo: KAryNCube) -> Self {
        FaultSet {
            topo,
            failed_nodes: vec![false; topo.num_nodes() as usize],
            failed_channels: vec![false; topo.num_channels() as usize],
            num_failed_routers: 0,
            num_failed_links: 0,
        }
    }

    /// The topology the faults live in.
    pub fn topology(&self) -> &KAryNCube {
        &self.topo
    }

    /// Fail the router at `node` (idempotent).  All channels into and out
    /// of the node become unusable via [`FaultSet::channel_failed`].
    pub fn fail_node(&mut self, node: NodeId) {
        if !self.failed_nodes[node.index()] {
            self.failed_nodes[node.index()] = true;
            self.num_failed_routers += 1;
        }
    }

    /// Fail the *physical* link carried by `channel` (idempotent).  On
    /// bidirectional networks the opposite-direction channel of the same
    /// link fails with it.  Failing a channel that does not exist in the
    /// topology is a no-op (it already carries no traffic).
    pub fn fail_link(&mut self, channel: Channel) {
        if !self.topo.channel_exists(channel) {
            return;
        }
        let id = channel.id(&self.topo).index();
        if self.failed_channels[id] {
            return;
        }
        self.failed_channels[id] = true;
        self.num_failed_links += 1;
        if self.topo.link_kind() == LinkKind::Bidirectional {
            let reverse = Channel {
                from: channel.to(&self.topo),
                dim: channel.dim,
                direction: match channel.direction {
                    Direction::Plus => Direction::Minus,
                    Direction::Minus => Direction::Plus,
                },
            };
            self.failed_channels[reverse.id(&self.topo).index()] = true;
        }
    }

    /// Whether the router at `node` has failed.
    #[inline]
    pub fn node_failed(&self, node: NodeId) -> bool {
        self.failed_nodes[node.index()]
    }

    /// Whether `channel` is unusable: it does not exist in the topology,
    /// its physical link failed, or either endpoint router failed.
    pub fn channel_failed(&self, channel: Channel) -> bool {
        if !self.topo.channel_exists(channel) {
            return true;
        }
        self.failed_channels[channel.id(&self.topo).index()]
            || self.failed_nodes[channel.from.index()]
            || self.failed_nodes[channel.to(&self.topo).index()]
    }

    /// Number of failed routers.
    #[inline]
    pub fn num_failed_routers(&self) -> u32 {
        self.num_failed_routers
    }

    /// Number of failed physical links (a bidirectional pair counts once).
    #[inline]
    pub fn num_failed_links(&self) -> u32 {
        self.num_failed_links
    }

    /// True iff no router or link has failed.
    pub fn is_empty(&self) -> bool {
        self.num_failed_routers == 0 && self.num_failed_links == 0
    }
}

/// Hop byte of a pair with no next hop: the node is the destination, or
/// the destination is unreachable from it (failed endpoints included).
const NO_HOP: u8 = u8::MAX;

/// Port-table marker for an unusable channel.
const NO_NODE: u32 = u32::MAX;

/// Bytes a [`FaultRouter`] stores per ordered `(node, destination)` pair:
/// the one-byte next hop and the `u16` entry of the destination's
/// breadth-first order.  The per-node port tables add `O(N·n)` on top,
/// negligible beside the `N²` pairs.
pub const FAULT_ROUTER_BYTES_PER_PAIR: u64 = 3;

/// Largest network a [`FaultRouter`] covers: the breadth-first orders
/// hold node ids in 16 bits.
const MAX_ROUTER_NODES: usize = 1 << 16;

/// One edge of a destination's route in-tree: the next hop from `node`
/// crosses `channel` to `parent`, one hop closer to the destination.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TreeEdge {
    /// The node the hop leaves.
    pub node: NodeId,
    /// The node the hop enters.
    pub parent: NodeId,
    /// The channel the hop crosses.
    pub channel: ChannelId,
}

/// Where one output port of a node leads: the neighbour and the channel
/// id, or `to == NO_NODE` when the channel is failed or does not exist.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Port {
    to: u32,
    channel: u32,
}

/// The channel behind port `port` of `node`: port `p` runs in dimension
/// `p / 2`, `Plus` for even `p` and `Minus` for odd `p`.  Ascending ports
/// are ascending [`ChannelId`]s.
fn port_channel(node: NodeId, port: usize) -> Channel {
    Channel {
        from: node,
        dim: (port / 2) as u32,
        direction: if port.is_multiple_of(2) {
            Direction::Plus
        } else {
            Direction::Minus
        },
    }
}

/// Stateless Dally–Seitz dateline class of a hop in a ring of radix `k`
/// from coordinate `cur` towards the destination coordinate `target`:
/// [`VcClass::Low`] while the remaining travel in the hop's ring still
/// crosses that ring's wrap-around link, [`VcClass::High`] after.
///
/// Detour routes can *sidestep* — move in a dimension whose coordinate
/// already matches the destination's, which dimension-order routing never
/// does and [`VcClass::for_hop`] rejects.  A sidestep takes the Low class
/// iff the hop itself crosses the wrap-around link.
fn torus_hop_class(k: u32, cur: u32, target: u32, direction: Direction) -> VcClass {
    if cur == target {
        let crosses = match direction {
            Direction::Plus => cur == k - 1,
            Direction::Minus => cur == 0,
        };
        return if crosses { VcClass::Low } else { VcClass::High };
    }
    VcClass::for_hop(cur, target, direction)
}

/// Deterministic fault-aware router: exact shortest surviving paths.
///
/// Routing is destination-based, so for each destination the next hops
/// form an in-tree over the nodes that can reach it.  Construction runs
/// one reverse breadth-first search per destination over the surviving
/// digraph and stores, per destination, every node's next hop (one byte:
/// the output port and the VC class) and the BFS order of the reachable
/// nodes (`u16` node ids) — [`FAULT_ROUTER_BYTES_PER_PAIR`] bytes per
/// ordered pair.  The next hop is the lowest-[`ChannelId`] surviving
/// out-channel that decreases the distance to the destination — a
/// deterministic minimal route in the surviving graph.  Distances live
/// only in one scratch row during construction, which also totals the
/// reachable pairs, the detour and the longest route.
///
/// [`FaultRouter::next_hop`] and [`FaultRouter::reachable`] are table
/// lookups, [`FaultRouter::distance`] walks the route, and
/// [`FaultRouter::tree`] hands out a destination's tree in BFS order, so
/// per-channel loads (subtree sums, in reverse order) and per-pair
/// latencies (prefix sums, in order) take one linear sweep per
/// destination.
///
/// The tables are a pure function of the [`FaultSet`], so a router is a
/// handle on tables shared by every router built from an equal set:
/// [`FaultRouter::new`] looks the set up in a process-wide registry of
/// weak references before it searches, and `clone` is O(1).  While any
/// handle on a fault set lives — a model, a simulator, a cached model —
/// the process holds one copy of its tables; once the last handle drops,
/// the tables are freed and the next `new` builds them again.
#[derive(Clone, Debug)]
pub struct FaultRouter {
    tables: Arc<RouteTables>,
}

/// The route tables of one fault set, shared by its routers.
#[derive(Debug, PartialEq)]
struct RouteTables {
    topo: KAryNCube,
    faults: FaultSet,
    /// Output ports per node, `2n` (unidirectional `Minus` ports are dead).
    ports: usize,
    /// `out[node·2n + port]`: where the port leads.
    out: Vec<Port>,
    /// Destination-major next-hop table: `hop[dest·N + node]` is
    /// `port·2 + class` (class 1 = [`VcClass::Low`]), or `NO_HOP`.
    hop: Vec<u8>,
    /// Each destination's reachable nodes in BFS order, the destination
    /// first, concatenated: destination `d`'s run is
    /// `order[order_start[d]..order_start[d + 1]]` (empty when `d` failed).
    order: Vec<u16>,
    order_start: Vec<usize>,
    /// Ordered pairs `(src, dest)`, `src != dest`, with a surviving route.
    reachable_pairs: u64,
    /// Σ over reachable pairs of the surviving distance minus the
    /// fault-free minimal distance.
    detour_hops: u64,
    /// The longest surviving shortest route, in hops.
    max_finite_distance: u32,
}

/// The route tables of every fault set some [`FaultRouter`] may still
/// hold, keyed by the set itself (its `Eq`/`Hash` cover the topology and
/// every failed element, so unequal sets never share).  Entries are weak:
/// the registry never keeps tables alive, and dead entries are pruned
/// whenever a new set is registered.  The lock is never held across a
/// search.
static REGISTRY: LazyLock<Mutex<HashMap<FaultSet, Weak<RouteTables>>>> =
    LazyLock::new(Default::default);

/// The registry's lock.  Nothing panics while it is held (searches run
/// outside it), so a poisoned lock still guards a consistent map.
fn registry() -> MutexGuard<'static, HashMap<FaultSet, Weak<RouteTables>>> {
    REGISTRY.lock().unwrap_or_else(PoisonError::into_inner)
}

impl FaultRouter {
    /// The router for `faults` (which carries its topology): the live
    /// tables of an equal set when some router still holds them, else a
    /// new search.  When two threads search for the same set at once, the
    /// first to register its tables wins and the other adopts them.
    ///
    /// # Panics
    ///
    /// If the network has more than 65 536 nodes (its tables would take
    /// 12 GiB).
    pub fn new(faults: FaultSet) -> Self {
        let live = registry().get(&faults).and_then(Weak::upgrade);
        if let Some(tables) = live {
            return FaultRouter { tables };
        }
        let built = Arc::new(RouteTables::build(faults));
        let mut entries = registry();
        if let Some(tables) = entries.get(&built.faults).and_then(Weak::upgrade) {
            return FaultRouter { tables };
        }
        entries.retain(|_, tables| tables.strong_count() > 0);
        entries.insert(built.faults.clone(), Arc::downgrade(&built));
        FaultRouter { tables: built }
    }
}

impl RouteTables {
    /// Run one reverse breadth-first search per destination of `faults`'s
    /// topology and keep the route trees.
    fn build(faults: FaultSet) -> Self {
        let topo = *faults.topology();
        let nodes = topo.num_nodes() as usize;
        assert!(
            nodes <= MAX_ROUTER_NODES,
            "fault router limited to {MAX_ROUTER_NODES} nodes (got {nodes})"
        );
        let n = topo.n() as usize;
        let ports = 2 * n;
        // Port tables.  `into[node·2n + port]` is the source of the
        // surviving channel that enters `node` travelling like `port`.
        let mut out = vec![
            Port {
                to: NO_NODE,
                channel: 0
            };
            nodes * ports
        ];
        let mut into = vec![NO_NODE; nodes * ports];
        let mut coords = vec![0u32; nodes * n];
        for node in topo.nodes() {
            for dim in 0..n {
                coords[node.index() * n + dim] = topo.coord(node, dim as u32);
            }
            for port in 0..ports {
                let channel = port_channel(node, port);
                if faults.channel_failed(channel) {
                    continue;
                }
                let to = channel.to(&topo);
                out[node.index() * ports + port] = Port {
                    to: to.0,
                    channel: channel.id(&topo).0,
                };
                into[to.index() * ports + port] = node.0;
            }
        }

        // `healthy_ring[dim·k + t]`: fault-free hops in `dim` from every
        // healthy node to coordinate `t`, so the minimal distances from
        // all healthy nodes to a destination sum to
        // `Σ_dim healthy_ring[dim·k + target[dim]]`.
        let k = topo.k() as usize;
        let mut per_coord = vec![0u64; n * k];
        for node in topo.nodes().filter(|&node| !faults.node_failed(node)) {
            for dim in 0..n {
                per_coord[dim * k + coords[node.index() * n + dim] as usize] += 1;
            }
        }
        let mut healthy_ring = vec![0u64; n * k];
        for dim in 0..n {
            for t in 0..k {
                healthy_ring[dim * k + t] = (0..k)
                    .map(|c| {
                        per_coord[dim * k + c]
                            * topo.ring_offset_routed(c as u32, t as u32).unsigned_abs()
                    })
                    .sum();
            }
        }

        let healthy = nodes - faults.num_failed_routers() as usize;
        // One destination's distances, refilled for each search.
        let mut dist = vec![UNREACHABLE; nodes];
        let mut hop = vec![NO_HOP; nodes * nodes];
        let mut order: Vec<u16> = Vec::with_capacity(healthy * healthy);
        let mut order_start = Vec::with_capacity(nodes + 1);
        let mut reachable_pairs = 0u64;
        let mut detour_hops = 0u64;
        let mut max_finite_distance = 0u32;
        for dest in topo.nodes() {
            order_start.push(order.len());
            if faults.node_failed(dest) {
                continue;
            }
            let start = order.len();
            dist.fill(UNREACHABLE);
            dist[dest.index()] = 0;
            order.push(dest.0 as u16);
            let mut head = start;
            while head < order.len() {
                let u = usize::from(order[head]);
                head += 1;
                let d = dist[u] + 1;
                // Predecessors of `u`: sources of surviving channels into it.
                for &v in &into[u * ports..(u + 1) * ports] {
                    if v != NO_NODE && dist[v as usize] == UNREACHABLE {
                        dist[v as usize] = d;
                        order.push(v as u16);
                    }
                }
            }
            reachable_pairs += (order.len() - start - 1) as u64;
            // BFS visits nodes by distance, so the last is the farthest.
            let last = usize::from(order[order.len() - 1]);
            max_finite_distance = max_finite_distance.max(dist[last]);
            let target = &coords[dest.index() * n..(dest.index() + 1) * n];
            let hop = &mut hop[dest.index() * nodes..(dest.index() + 1) * nodes];
            let mut distance_sum = 0u64;
            for &v in &order[start + 1..] {
                let v = usize::from(v);
                distance_sum += u64::from(dist[v]);
                // `d - 1` rather than `neighbor + 1`: the neighbor may sit
                // at the UNREACHABLE marker, which must not wrap.
                let d = dist[v] - 1;
                let port = (0..ports)
                    .find(|&p| {
                        let to = out[v * ports + p].to;
                        to != NO_NODE && dist[to as usize] == d
                    })
                    .expect("finite BFS distance implies a distance-decreasing out-channel");
                let class = match topo.boundary() {
                    Boundary::Mesh => VcClass::High,
                    Boundary::Torus => {
                        let channel = port_channel(NodeId(v as u32), port);
                        let dim = channel.dim as usize;
                        torus_hop_class(
                            topo.k(),
                            coords[v * n + dim],
                            target[dim],
                            channel.direction,
                        )
                    }
                };
                hop[v] = (port as u8) << 1 | class.index() as u8;
            }
            // Minimal distances of the reached nodes: those of all healthy
            // nodes, less those of the healthy nodes the search missed.
            let mut minimal_sum: u64 = (0..n)
                .map(|dim| healthy_ring[dim * k + target[dim] as usize])
                .sum();
            if order.len() - start < healthy {
                for (v, &d) in dist.iter().enumerate() {
                    let v = NodeId(v as u32);
                    if d == UNREACHABLE && !faults.node_failed(v) {
                        minimal_sum -= u64::from(topo.hop_count(v, dest));
                    }
                }
            }
            detour_hops += distance_sum - minimal_sum;
        }
        order_start.push(order.len());
        RouteTables {
            topo,
            faults,
            ports,
            out,
            hop,
            order,
            order_start,
            reachable_pairs,
            detour_hops,
            max_finite_distance,
        }
    }
}

impl FaultRouter {
    /// The underlying topology.
    pub fn topology(&self) -> &KAryNCube {
        &self.tables.topo
    }

    /// The fault set the routes avoid.
    pub fn fault_set(&self) -> &FaultSet {
        &self.tables.faults
    }

    #[inline]
    fn pair(&self, node: NodeId, dest: NodeId) -> usize {
        dest.index() * self.tables.topo.num_nodes() as usize + node.index()
    }

    /// Destination `dest`'s reachable nodes in BFS order, `dest` first.
    #[inline]
    fn run(&self, dest: NodeId) -> &[u16] {
        let tables = &*self.tables;
        &tables.order[tables.order_start[dest.index()]..tables.order_start[dest.index() + 1]]
    }

    /// Whether a surviving path leads from `src` to `dest` — false when
    /// either endpoint router has failed, true when `src == dest` on a
    /// healthy node.  Equivalent to `self.distance(src, dest).is_some()`,
    /// in one table lookup.
    #[inline]
    pub fn reachable(&self, src: NodeId, dest: NodeId) -> bool {
        if src == dest {
            !self.tables.faults.node_failed(src)
        } else {
            self.tables.hop[self.pair(src, dest)] != NO_HOP
        }
    }

    /// Length in hops of the shortest surviving path from `src` to `dest`,
    /// or `None` when no such path exists (including when either endpoint
    /// router has failed).  `Some(0)` iff `src == dest` on a healthy node.
    /// Walks the route, so it costs one step per hop.
    pub fn distance(&self, src: NodeId, dest: NodeId) -> Option<u32> {
        if !self.reachable(src, dest) {
            return None;
        }
        let tables = &*self.tables;
        let hop = &tables.hop[dest.index() * tables.topo.num_nodes() as usize..];
        let mut hops = 0;
        let mut cur = src.index();
        while cur != dest.index() {
            cur = tables.out[cur * tables.ports + usize::from(hop[cur] >> 1)].to as usize;
            hops += 1;
        }
        Some(hops)
    }

    /// The next hop of the deterministic shortest surviving route at `cur`
    /// heading for `dest`; `None` when `cur == dest` or `dest` is
    /// unreachable from `cur`.
    ///
    /// The virtual-channel class is the stateless Dally–Seitz dateline
    /// rule ([`VcClass::for_hop`]) applied to the hop's own ring: it
    /// compares the hop's source coordinate against the *destination's*
    /// coordinate in that dimension (a *sidestep* in a dimension already
    /// at the destination's coordinate is Low iff it crosses the
    /// wrap-around link).  On fault-free networks this reproduces
    /// dimension-order routes class-for-class (an acyclic dependency
    /// graph, so the route set is wormhole-deadlock-free by construction —
    /// pinned by [`FaultRouter::deadlock_free`]).  Detour routes keep a
    /// deterministic class but may still close a dependency cycle; check
    /// [`FaultRouter::deadlock_free`] before driving a simulator with a
    /// faulted route set.  Mesh routes use only [`VcClass::High`].
    pub fn next_hop(&self, cur: NodeId, dest: NodeId) -> Option<Hop> {
        let byte = self.tables.hop[self.pair(cur, dest)];
        (byte != NO_HOP).then(|| Hop {
            channel: port_channel(cur, usize::from(byte >> 1)),
            vc_class: if byte & 1 == 1 {
                VcClass::Low
            } else {
                VcClass::High
            },
        })
    }

    /// The route in-tree of `dest`: one edge per node that can reach
    /// `dest` (other than `dest` itself), in BFS order — every edge comes
    /// after its parent's, so a forward sweep sees each route from its
    /// destination end and a reverse sweep sees subtrees before their
    /// roots.  Empty when `dest` has failed.
    pub fn tree(
        &self,
        dest: NodeId,
    ) -> impl DoubleEndedIterator<Item = TreeEdge> + ExactSizeIterator + '_ {
        let tables = &*self.tables;
        let nodes = tables.topo.num_nodes() as usize;
        let hop = &tables.hop[dest.index() * nodes..(dest.index() + 1) * nodes];
        let run = self.run(dest);
        run[run.len().min(1)..].iter().map(move |&v| {
            let v = usize::from(v);
            let port = tables.out[v * tables.ports + usize::from(hop[v] >> 1)];
            TreeEdge {
                node: NodeId(v as u32),
                parent: NodeId(port.to),
                channel: ChannelId(port.channel),
            }
        })
    }

    /// The full deterministic route from `src` to `dest` (empty when
    /// `src == dest`), or `None` when `dest` is unreachable from `src`.
    pub fn route(&self, src: NodeId, dest: NodeId) -> Option<Vec<Hop>> {
        if !self.reachable(src, dest) {
            return None;
        }
        let mut hops = Vec::new();
        let mut cur = src;
        while cur != dest {
            let hop = self
                .next_hop(cur, dest)
                .expect("a reachable destination has a next hop");
            cur = hop.channel.to(&self.tables.topo);
            hops.push(hop);
        }
        Some(hops)
    }

    /// Number of ordered pairs `(src, dest)` with `src != dest` that can
    /// still communicate.
    pub fn reachable_pairs(&self) -> u64 {
        self.tables.reachable_pairs
    }

    /// Fraction of the `N(N-1)` ordered pairs that can still communicate
    /// (1.0 on a fault-free network).
    pub fn reachable_fraction(&self) -> f64 {
        let n = self.tables.topo.num_nodes() as u64;
        self.reachable_pairs() as f64 / (n * (n - 1)) as f64
    }

    /// Mean detour over the reachable ordered pairs: surviving shortest
    /// distance minus the fault-free minimal distance
    /// ([`KAryNCube::hop_count`]).  0.0 when no pair is reachable.
    pub fn expected_detour(&self) -> f64 {
        match self.tables.reachable_pairs {
            0 => 0.0,
            pairs => self.tables.detour_hops as f64 / pairs as f64,
        }
    }

    /// Whether the route set is wormhole-deadlock-free, by Dally's
    /// criterion: the channel-dependency graph over `(channel, VC class)`
    /// vertices — one edge per consecutive hop pair of any surviving
    /// route — is acyclic.  Equivalent to
    /// `self.dependency_cycle().is_none()`.
    ///
    /// Fault-free dimension-order routes satisfy this by construction
    /// (the Dally–Seitz classes break every ring cycle), but detour
    /// routes around faults may turn against dimension order and close a
    /// cycle; a simulator driving such a route set can deadlock under
    /// load.  Sweeps that need clean latency measurements use this
    /// predicate to select provably safe fault samples.
    pub fn deadlock_free(&self) -> bool {
        self.dependency_cycle().is_none()
    }

    /// A cycle of the channel-dependency graph (see
    /// [`FaultRouter::deadlock_free`]), or `None` when the graph is
    /// acyclic.  The witness lists `(channel, class)` vertices in
    /// dependency order: each vertex is followed on some surviving route
    /// by the next one, and the last by the first.
    ///
    /// Every consecutive hop pair of a route is an edge of a destination's
    /// tree, (hop at a node, hop at its parent), so the graph is built in
    /// one sweep per destination with no route walks.  A dependency leaves
    /// a channel for a hop out of the channel's sink node, so a vertex's
    /// out-list is a bitmask over that node's `2n` ports × 2 classes (at
    /// most 32 bits).  Kahn's algorithm drains the acyclic part; every
    /// undrained vertex keeps an undrained predecessor, so walking
    /// predecessors from one revisits a vertex, and the revisited stretch
    /// is the cycle.
    pub fn dependency_cycle(&self) -> Option<Vec<(ChannelId, VcClass)>> {
        let tables = &*self.tables;
        let topo = &tables.topo;
        let nodes = topo.num_nodes() as usize;
        // Vertex per (channel, class): index = channel · 2 + class.
        let nv = topo.num_channels() as usize * 2;
        let mut succ = vec![0u32; nv];
        for dest in topo.nodes() {
            let hop = &tables.hop[dest.index() * nodes..(dest.index() + 1) * nodes];
            for edge in self.tree(dest) {
                if edge.parent == dest {
                    continue;
                }
                let class = u32::from(hop[edge.node.index()] & 1);
                let vertex = edge.channel.index() * 2 + class as usize;
                succ[vertex] |= 1 << hop[edge.parent.index()];
            }
        }
        // Expand the bitmasks into a compressed adjacency list.
        let mut adj_start = Vec::with_capacity(nv + 1);
        let mut adj = Vec::new();
        for (u, &mask) in succ.iter().enumerate() {
            adj_start.push(adj.len());
            if mask == 0 {
                continue;
            }
            let sink = Channel::from_id(topo, ChannelId((u / 2) as u32))
                .to(topo)
                .index();
            let mut bits = mask;
            while bits != 0 {
                let byte = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let channel = tables.out[sink * tables.ports + byte / 2].channel as usize;
                adj.push(channel * 2 + byte % 2);
            }
        }
        adj_start.push(adj.len());
        let successors = |u: usize| &adj[adj_start[u]..adj_start[u + 1]];

        // Kahn's algorithm: the graph is acyclic iff every vertex drains.
        let mut indeg = vec![0u32; nv];
        for &v in &adj {
            indeg[v] += 1;
        }
        let mut stack: Vec<usize> = (0..nv).filter(|&v| indeg[v] == 0).collect();
        while let Some(u) = stack.pop() {
            for &v in successors(u) {
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    stack.push(v);
                }
            }
        }
        let start = (0..nv).find(|&v| indeg[v] > 0)?;
        let mut pred = vec![usize::MAX; nv];
        for u in (0..nv).filter(|&u| indeg[u] > 0) {
            for &v in successors(u) {
                if indeg[v] > 0 {
                    pred[v] = u;
                }
            }
        }
        let mut position = vec![usize::MAX; nv];
        let mut walk = Vec::new();
        let mut v = start;
        while position[v] == usize::MAX {
            position[v] = walk.len();
            walk.push(v);
            v = pred[v];
        }
        // `walk` runs against the edges; the cycle is its tail from `v`.
        Some(
            walk[position[v]..]
                .iter()
                .rev()
                .map(|&u| {
                    let class = if u % 2 == 1 {
                        VcClass::Low
                    } else {
                        VcClass::High
                    };
                    (ChannelId((u / 2) as u32), class)
                })
                .collect(),
        )
    }

    /// The largest finite distance between any two nodes (0 on a
    /// fully-failed network) — an upper bound on surviving route lengths,
    /// used to size per-message hop storage.
    pub fn max_finite_distance(&self) -> u32 {
        self.tables.max_finite_distance
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_topologies(k: u32, n: u32) -> Vec<KAryNCube> {
        vec![
            KAryNCube::unidirectional(k, n).unwrap(),
            KAryNCube::bidirectional(k, n).unwrap(),
            KAryNCube::mesh(k, n).unwrap(),
        ]
    }

    #[test]
    fn empty_fault_set_reproduces_dimension_order_channels() {
        for t in all_topologies(5, 2).into_iter().chain(all_topologies(4, 2)) {
            let router = FaultRouter::new(FaultSet::none(t));
            for src in t.nodes() {
                for dest in t.nodes() {
                    assert_eq!(router.distance(src, dest), Some(t.hop_count(src, dest)));
                    let dor = t.dor_route(src, dest);
                    let fault_route = router.route(src, dest).unwrap();
                    // Hop-for-hop: channels AND Dally–Seitz classes (the
                    // dateline rule coincides with DOR's on direct routes).
                    assert_eq!(
                        dor.hops,
                        fault_route,
                        "{:?} {:?} {:?}→{:?}",
                        t.link_kind(),
                        t.boundary(),
                        t.coords(src),
                        t.coords(dest)
                    );
                }
            }
            assert_eq!(router.reachable_fraction(), 1.0);
            assert_eq!(router.expected_detour(), 0.0);
            assert_eq!(router.max_finite_distance(), t.max_hops());
        }
    }

    #[test]
    fn table_sizes_match_the_stated_bytes_per_pair() {
        let t = KAryNCube::bidirectional(8, 2).unwrap();
        let pairs = u64::from(t.num_nodes()).pow(2);
        let bytes = |router: &FaultRouter| {
            (std::mem::size_of_val(&router.tables.hop[..])
                + std::mem::size_of_val(&router.tables.order[..])) as u64
        };
        // Fault-free, every pair holds a hop byte and a BFS-order entry.
        let router = FaultRouter::new(FaultSet::none(t));
        assert_eq!(bytes(&router), FAULT_ROUTER_BYTES_PER_PAIR * pairs);
        let mut faults = FaultSet::none(t);
        faults.fail_node(NodeId(9));
        faults.fail_link(Channel {
            from: NodeId(20),
            dim: 1,
            direction: Direction::Minus,
        });
        let router = FaultRouter::new(faults);
        assert!(bytes(&router) <= FAULT_ROUTER_BYTES_PER_PAIR * pairs);
        assert_eq!(router.tables.hop.len() as u64, pairs);
    }

    #[test]
    fn mesh_empty_fault_routes_match_dor_exactly_including_classes() {
        let m = KAryNCube::mesh(4, 3).unwrap();
        let router = FaultRouter::new(FaultSet::none(m));
        for src in m.nodes() {
            for dest in m.nodes() {
                assert_eq!(
                    router.route(src, dest).unwrap(),
                    m.dor_route(src, dest).hops
                );
            }
        }
    }

    #[test]
    fn failed_router_is_unreachable_and_not_transited() {
        let t = KAryNCube::bidirectional(4, 2).unwrap();
        let dead = t.node_at(&[1, 1]);
        let mut faults = FaultSet::none(t);
        faults.fail_node(dead);
        faults.fail_node(dead); // idempotent
        assert_eq!(faults.num_failed_routers(), 1);
        let router = FaultRouter::new(faults);
        for other in t.nodes().filter(|&o| o != dead) {
            assert_eq!(router.distance(other, dead), None);
            assert_eq!(router.distance(dead, other), None);
        }
        // Surviving routes never visit the dead node.
        for src in t.nodes().filter(|&s| s != dead) {
            for dest in t.nodes().filter(|&d| d != dead) {
                let route = router.route(src, dest).expect("2-D torus is 2-connected");
                assert!(route.iter().all(|h| h.channel.to(&t) != dead));
            }
        }
        // N-1 healthy nodes all still talk: (N-1)(N-2) ordered pairs.
        assert_eq!(router.reachable_pairs(), 15 * 14);
    }

    #[test]
    fn bidirectional_link_failure_kills_both_directions() {
        let t = KAryNCube::bidirectional(4, 1).unwrap();
        let mut faults = FaultSet::none(t);
        let forward = Channel {
            from: NodeId(1),
            dim: 0,
            direction: Direction::Plus,
        };
        faults.fail_link(forward);
        assert_eq!(faults.num_failed_links(), 1);
        assert!(faults.channel_failed(forward));
        assert!(faults.channel_failed(Channel {
            from: NodeId(2),
            dim: 0,
            direction: Direction::Minus,
        }));
        // The ring minus one link is a path: everyone still reachable, the
        // 1↔2 pairs detour the long way round (3 hops instead of 1).
        let router = FaultRouter::new(faults);
        assert_eq!(router.reachable_fraction(), 1.0);
        assert_eq!(router.distance(NodeId(1), NodeId(2)), Some(3));
        assert_eq!(router.distance(NodeId(2), NodeId(1)), Some(3));
        // Mean detour: 2 of the 12 ordered pairs gained 2 hops each.
        assert!((router.expected_detour() - 4.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn unidirectional_link_failure_disconnects_the_ring() {
        // A unidirectional ring has exactly one path between any pair, so a
        // single link failure severs every pair that used it.
        let t = KAryNCube::unidirectional(4, 1).unwrap();
        let mut faults = FaultSet::none(t);
        faults.fail_link(Channel {
            from: NodeId(0),
            dim: 0,
            direction: Direction::Plus,
        });
        let router = FaultRouter::new(faults);
        assert_eq!(router.distance(NodeId(0), NodeId(1)), None);
        assert_eq!(router.distance(NodeId(3), NodeId(1)), None);
        assert_eq!(router.distance(NodeId(1), NodeId(0)), Some(3));
        // Pairs not crossing 0→1 survive: (1,2),(1,3),(1,0),(2,3),(2,0),(3,0).
        assert_eq!(router.reachable_pairs(), 6);
    }

    #[test]
    fn failing_nonexistent_channels_is_a_noop() {
        let m = KAryNCube::mesh(3, 2).unwrap();
        let mut faults = FaultSet::none(m);
        // Wrap-around channel of a mesh: does not exist.
        faults.fail_link(Channel {
            from: m.node_at(&[2, 0]),
            dim: 0,
            direction: Direction::Plus,
        });
        assert_eq!(faults.num_failed_links(), 0);
        assert!(faults.is_empty());
        let u = KAryNCube::unidirectional(3, 1).unwrap();
        let mut faults = FaultSet::none(u);
        faults.fail_link(Channel {
            from: NodeId(0),
            dim: 0,
            direction: Direction::Minus,
        });
        assert_eq!(faults.num_failed_links(), 0);
    }

    #[test]
    fn detour_routes_are_minimal_in_the_surviving_graph() {
        // Mesh corner cut off except one path: routes must still be BFS
        // shortest.  Fail the two links next to corner (0,0)'s neighbors so
        // reaching it requires a specific detour.
        let m = KAryNCube::mesh(3, 2).unwrap();
        let mut faults = FaultSet::none(m);
        faults.fail_link(Channel {
            from: m.node_at(&[0, 0]),
            dim: 0,
            direction: Direction::Plus,
        });
        let router = FaultRouter::new(faults);
        // (0,0) → (1,0) must now go up, right, down: 3 hops.
        assert_eq!(
            router.distance(m.node_at(&[0, 0]), m.node_at(&[1, 0])),
            Some(3)
        );
        let route = router
            .route(m.node_at(&[0, 0]), m.node_at(&[1, 0]))
            .unwrap();
        assert_eq!(route.len(), 3);
        assert!(route
            .iter()
            .all(|h| !router.fault_set().channel_failed(h.channel)));
        assert!(route.iter().all(|h| h.vc_class == VcClass::High));
    }

    #[test]
    fn next_hop_walk_matches_route_and_terminates() {
        let t = KAryNCube::bidirectional(5, 2).unwrap();
        let mut faults = FaultSet::none(t);
        faults.fail_node(NodeId(7));
        faults.fail_link(Channel {
            from: NodeId(3),
            dim: 1,
            direction: Direction::Plus,
        });
        let router = FaultRouter::new(faults);
        for src in t.nodes() {
            for dest in t.nodes() {
                match router.route(src, dest) {
                    None => assert_eq!(router.next_hop(src, dest), None),
                    Some(route) => {
                        let mut cur = src;
                        for hop in &route {
                            assert_eq!(router.next_hop(cur, dest).as_ref(), Some(hop));
                            cur = hop.channel.to(&t);
                        }
                        assert_eq!(router.next_hop(cur, dest), None);
                        assert_eq!(route.len() as u32, router.distance(src, dest).unwrap());
                    }
                }
            }
        }
    }

    #[test]
    fn equality_separates_distinct_sets_and_topologies() {
        let t = KAryNCube::bidirectional(4, 2).unwrap();
        let empty = FaultSet::none(t);
        // Same content compares equal.
        assert_eq!(empty, FaultSet::none(t));
        // Same failure *count*, different failed element: must not alias.
        let mut a = FaultSet::none(t);
        a.fail_node(NodeId(1));
        let mut b = FaultSet::none(t);
        b.fail_node(NodeId(2));
        assert_eq!(a.num_failed_routers(), b.num_failed_routers());
        assert_ne!(a, b);
        assert_ne!(a, empty);
        // A link failure is not a router failure.
        let mut c = FaultSet::none(t);
        c.fail_link(Channel {
            from: NodeId(1),
            dim: 0,
            direction: Direction::Plus,
        });
        assert_ne!(c, a);
        // The topology is part of the identity: the same (empty) set on a
        // different geometry or link kind is a different set.
        for other in [
            KAryNCube::unidirectional(4, 2).unwrap(),
            KAryNCube::mesh(4, 2).unwrap(),
            KAryNCube::bidirectional(2, 4).unwrap(),
        ] {
            assert_ne!(FaultSet::none(other), empty);
        }
    }

    #[test]
    fn equality_is_insertion_order_independent() {
        let t = KAryNCube::mesh(4, 2).unwrap();
        let mut ab = FaultSet::none(t);
        ab.fail_node(NodeId(3));
        ab.fail_node(NodeId(9));
        let mut ba = FaultSet::none(t);
        ba.fail_node(NodeId(9));
        ba.fail_node(NodeId(3));
        assert_eq!(ab, ba);
        // Failing a link twice, or from either end of a bidirectional
        // link, is the same set too.
        let bt = KAryNCube::bidirectional(4, 2).unwrap();
        let plus = Channel {
            from: NodeId(1),
            dim: 0,
            direction: Direction::Plus,
        };
        let minus = Channel {
            from: NodeId(2),
            dim: 0,
            direction: Direction::Minus,
        };
        let mut once = FaultSet::none(bt);
        once.fail_link(plus);
        let mut twice = FaultSet::none(bt);
        twice.fail_link(minus);
        twice.fail_link(plus);
        assert_eq!(once, twice);
    }

    #[test]
    fn fault_free_route_sets_are_deadlock_free() {
        // Dimension-order routes with Dally–Seitz wrap classes have an
        // acyclic channel-dependency graph on every geometry.
        for t in all_topologies(5, 2)
            .into_iter()
            .chain(all_topologies(4, 3))
            .chain(all_topologies(2, 4))
        {
            let router = FaultRouter::new(FaultSet::none(t));
            assert!(router.deadlock_free(), "{t:?}");
            assert_eq!(router.dependency_cycle(), None);
        }
    }

    #[test]
    fn a_detour_that_turns_against_dimension_order_closes_a_cycle() {
        // On a bidirectional torus, killing a dim-0 link forces detours
        // through dim 1 and back into dim 0 — the classic turn pattern
        // that closes a channel-dependency cycle under the wrap-crossing
        // class rule.  The predicate must catch at least one such set
        // (this is the mechanism behind the simulator deadlocks the
        // faulty-model sweep works around).
        let t = KAryNCube::bidirectional(8, 2).unwrap();
        let mut any_cyclic = false;
        for node in 0..16u32 {
            let mut faults = FaultSet::none(t);
            faults.fail_node(NodeId(node));
            faults.fail_link(Channel {
                from: NodeId(node + 17),
                dim: 0,
                direction: Direction::Plus,
            });
            let router = FaultRouter::new(faults);
            if router.reachable_pairs() > 0 && !router.deadlock_free() {
                any_cyclic = true;
                break;
            }
        }
        assert!(
            any_cyclic,
            "no cyclic dependency found across the probe fault sets"
        );
    }

    #[test]
    fn dependency_cycle_witness_is_a_closed_cycle_of_route_dependencies() {
        // The cyclic 8×8 bi-torus probe above: every consecutive vertex
        // pair of the witness, the last back to the first included, must
        // be consecutive on some surviving route.
        let t = KAryNCube::bidirectional(8, 2).unwrap();
        let vertex = |hop: &Hop| (hop.channel.id(&t), hop.vc_class);
        let mut witnessed = 0;
        for node in 0..16u32 {
            let mut faults = FaultSet::none(t);
            faults.fail_node(NodeId(node));
            faults.fail_link(Channel {
                from: NodeId(node + 17),
                dim: 0,
                direction: Direction::Plus,
            });
            let router = FaultRouter::new(faults);
            let Some(cycle) = router.dependency_cycle() else {
                assert!(router.deadlock_free());
                continue;
            };
            assert!(!router.deadlock_free());
            witnessed += 1;
            let mut dependencies = std::collections::HashSet::new();
            for src in t.nodes() {
                for dest in t.nodes() {
                    if let Some(route) = router.route(src, dest) {
                        for pair in route.windows(2) {
                            dependencies.insert((vertex(&pair[0]), vertex(&pair[1])));
                        }
                    }
                }
            }
            assert!(cycle.len() >= 2, "{cycle:?}");
            for (i, &from) in cycle.iter().enumerate() {
                let to = cycle[(i + 1) % cycle.len()];
                assert!(
                    dependencies.contains(&(from, to)),
                    "{from:?} → {to:?} is no route's consecutive hop pair"
                );
                // A simple cycle: no vertex repeats.
                assert_eq!(cycle.iter().filter(|&&v| v == from).count(), 1);
            }
        }
        assert!(witnessed > 0, "no cyclic probe fault set");
    }

    #[test]
    fn tree_edges_follow_next_hop_in_bfs_order() {
        let t = KAryNCube::bidirectional(5, 2).unwrap();
        let mut faults = FaultSet::none(t);
        faults.fail_node(NodeId(7));
        faults.fail_link(Channel {
            from: NodeId(3),
            dim: 1,
            direction: Direction::Plus,
        });
        let router = FaultRouter::new(faults);
        for dest in t.nodes() {
            let edges: Vec<TreeEdge> = router.tree(dest).collect();
            let mut seen = vec![false; t.num_nodes() as usize];
            seen[dest.index()] = true;
            let mut last_distance = 0;
            for edge in &edges {
                let hop = router.next_hop(edge.node, dest).unwrap();
                assert_eq!(hop.channel.id(&t), edge.channel);
                assert_eq!(hop.channel.to(&t), edge.parent);
                // Parents come first, and distances never decrease.
                assert!(seen[edge.parent.index()]);
                seen[edge.node.index()] = true;
                let d = router.distance(edge.node, dest).unwrap();
                assert!(d >= last_distance);
                last_distance = d;
            }
            // One edge per node that can reach `dest`.
            let reaching = t
                .nodes()
                .filter(|&s| s != dest && router.distance(s, dest).is_some())
                .count();
            assert_eq!(edges.len(), reaching);
        }
        assert_eq!(router.tree(NodeId(7)).len(), 0);
    }

    #[test]
    fn node_failures_keep_mesh_routes_deadlock_free_when_detours_stay_minimal() {
        // A single failed corner router on a mesh leaves every surviving
        // route dimension-ordered (no wrap links exist to close ring
        // cycles through), so the dependency graph stays acyclic.
        let t = KAryNCube::mesh(5, 2).unwrap();
        let mut faults = FaultSet::none(t);
        faults.fail_node(NodeId(0));
        let router = FaultRouter::new(faults);
        assert!(router.reachable_pairs() > 0);
        assert!(router.deadlock_free());
    }

    // The registry tests run alongside the rest of this module, so each
    // builds fault sets no other test builds: a concurrent test can then
    // only prune dead entries, never hold or register these sets.

    /// Whether `faults` has a registry entry, and whether it is live.
    fn registered(faults: &FaultSet) -> Option<bool> {
        registry()
            .get(faults)
            .map(|tables| tables.strong_count() > 0)
    }

    fn link(from: u32, dim: u32, direction: Direction) -> Channel {
        Channel {
            from: NodeId(from),
            dim,
            direction,
        }
    }

    #[test]
    fn equal_sets_built_independently_share_tables() {
        let t = KAryNCube::bidirectional(6, 2).unwrap();
        let mut forward = FaultSet::none(t);
        forward.fail_node(NodeId(14));
        forward.fail_link(link(3, 0, Direction::Plus));
        forward.fail_link(link(20, 1, Direction::Minus));
        // The same failures in the other order, one link named from its
        // other end.
        let mut backward = FaultSet::none(t);
        backward.fail_link(link(14, 1, Direction::Plus));
        backward.fail_link(link(4, 0, Direction::Minus));
        backward.fail_node(NodeId(14));
        let a = FaultRouter::new(forward.clone());
        let b = FaultRouter::new(backward);
        assert!(Arc::ptr_eq(&a.tables, &b.tables));
        assert!(Arc::ptr_eq(&a.tables, &a.clone().tables));
        assert_eq!(registered(&forward), Some(true));
    }

    #[test]
    fn sets_differing_in_one_link_or_only_in_topology_never_share() {
        let t = KAryNCube::bidirectional(6, 2).unwrap();
        let mut base = FaultSet::none(t);
        base.fail_node(NodeId(9));
        let mut one_more = base.clone();
        one_more.fail_link(link(30, 1, Direction::Plus));
        let a = FaultRouter::new(base);
        let b = FaultRouter::new(one_more);
        assert!(!Arc::ptr_eq(&a.tables, &b.tables));
        assert_ne!(a.reachable_pairs(), 0);
        // The empty set on three geometries of the same radix and rank.
        let empty: Vec<FaultRouter> = [
            KAryNCube::unidirectional(6, 2).unwrap(),
            t,
            KAryNCube::mesh(6, 2).unwrap(),
        ]
        .into_iter()
        .map(|topo| FaultRouter::new(FaultSet::none(topo)))
        .collect();
        for (i, x) in empty.iter().enumerate() {
            for y in &empty[i + 1..] {
                assert!(!Arc::ptr_eq(&x.tables, &y.tables));
            }
        }
    }

    #[test]
    fn dropped_tables_are_rebuilt_and_their_dead_entry_pruned() {
        let t = KAryNCube::bidirectional(7, 2).unwrap();
        let mut faults = FaultSet::none(t);
        faults.fail_node(NodeId(5));
        let router = FaultRouter::new(faults.clone());
        assert_eq!(registered(&faults), Some(true));
        // A weak handle keeps the allocation, so its address cannot be
        // reused by the rebuild.
        let old = Arc::downgrade(&router.tables);
        drop(router);
        assert!(old.upgrade().is_none());
        assert_ne!(registered(&faults), Some(true));

        let rebuilt = FaultRouter::new(faults.clone());
        assert!(!Weak::ptr_eq(&old, &Arc::downgrade(&rebuilt.tables)));
        assert_eq!(*rebuilt.tables, RouteTables::build(faults.clone()));
        assert_eq!(registered(&faults), Some(true));

        // Registering another set prunes the dead entry.
        drop(rebuilt);
        let _other = FaultRouter::new(FaultSet::none(KAryNCube::mesh(7, 2).unwrap()));
        assert_eq!(registered(&faults), None);
    }

    #[test]
    fn concurrent_builds_of_one_set_share_the_winners_tables() {
        let t = KAryNCube::bidirectional(5, 3).unwrap();
        let mut faults = FaultSet::none(t);
        faults.fail_node(NodeId(31));
        faults.fail_link(link(62, 2, Direction::Plus));
        let start = std::sync::Barrier::new(8);
        let routers: Vec<FaultRouter> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        FaultRouter::new(faults.clone())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for router in &routers {
            assert!(Arc::ptr_eq(&router.tables, &routers[0].tables));
        }
        assert_eq!(*routers[0].tables, RouteTables::build(faults));
    }
}
