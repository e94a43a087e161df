//! The k-ary n-cube geometry: nodes, coordinates and adjacency.
//!
//! A k-ary n-cube has `N = k^n` nodes arranged in `n` dimensions with `k`
//! nodes per dimension.  Node `v` is addressed by its coordinate vector
//! `(v_0, …, v_{n-1})` with `0 <= v_d < k`; dimension 0 is the paper's `x`
//! dimension and dimension 1 its `y` dimension.  Nodes are also identified
//! by a dense integer [`NodeId`] in mixed radix `k`:
//! `id = v_0 + v_1·k + v_2·k² + …`.
//!
//! The paper analyses *unidirectional* links (each node has one outgoing
//! channel per dimension, towards coordinate `+1 mod k`); the geometry also
//! supports bidirectional links for extension studies in the simulator.

use std::fmt;

/// Maximum supported number of dimensions.
///
/// Eight dimensions with `k = 2` is already a 256-node binary hypercube; the
/// bound exists only so coordinates can live in a fixed-size array on the
/// simulator's hot paths.
pub const MAX_DIMS: usize = 8;

/// Dense integer identifier of a node, in mixed radix `k`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The raw index as a `usize`, for table lookups.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Whether ring links are unidirectional (the paper's case) or bidirectional.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum LinkKind {
    /// One outgoing channel per node per dimension, towards `+1 mod k`.
    Unidirectional,
    /// Two outgoing channels per node per dimension (`+1` and `-1 mod k`);
    /// routing takes the shorter way around each ring.
    Bidirectional,
}

/// Whether each dimension wraps around (torus) or terminates at its edges
/// (mesh).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Boundary {
    /// Coordinate `k-1` connects back to coordinate `0`: the k-ary n-cube
    /// proper (the paper's case).
    Torus,
    /// No wrap-around links: an n-dimensional `k × … × k` mesh.  Requires
    /// bidirectional links (a unidirectional mesh is disconnected).
    Mesh,
}

/// Errors constructing a topology.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TopologyError {
    /// `k < 2` — a ring needs at least two nodes.
    RadixTooSmall,
    /// `n` outside `1..=MAX_DIMS`.
    BadDimensionCount,
    /// `k^n` overflows the node-id space.
    TooManyNodes,
    /// The network's channel count overflows the channel-id space.
    TooManyChannels,
    /// The requested link-kind/boundary combination is not supported by the
    /// operation named in `context`.
    UnsupportedLinkKind {
        /// The call site or configuration that rejected the combination.
        context: &'static str,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::RadixTooSmall => write!(f, "radix k must be at least 2"),
            TopologyError::BadDimensionCount => {
                write!(f, "dimension count n must be in 1..={MAX_DIMS}")
            }
            TopologyError::TooManyNodes => write!(f, "k^n exceeds the supported node-id space"),
            TopologyError::TooManyChannels => write!(f, "channels exceed the channel-id space"),
            TopologyError::UnsupportedLinkKind { context } => {
                write!(f, "unsupported link kind: {context}")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// The k-ary n-cube topology.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct KAryNCube {
    k: u32,
    n: u32,
    nodes: u32,
    links: LinkKind,
    boundary: Boundary,
}

impl KAryNCube {
    /// Create a unidirectional k-ary n-cube (the configuration analysed in
    /// the paper).
    pub fn unidirectional(k: u32, n: u32) -> Result<Self, TopologyError> {
        Self::with_boundary(k, n, LinkKind::Unidirectional, Boundary::Torus)
    }

    /// Create a bidirectional k-ary n-cube.
    pub fn bidirectional(k: u32, n: u32) -> Result<Self, TopologyError> {
        Self::with_boundary(k, n, LinkKind::Bidirectional, Boundary::Torus)
    }

    /// Create a bidirectional n-dimensional `k × … × k` mesh (no
    /// wrap-around links).
    pub fn mesh(k: u32, n: u32) -> Result<Self, TopologyError> {
        Self::with_boundary(k, n, LinkKind::Bidirectional, Boundary::Mesh)
    }

    /// Create a topology with the given link kind and boundary condition.
    pub fn with_boundary(
        k: u32,
        n: u32,
        links: LinkKind,
        boundary: Boundary,
    ) -> Result<Self, TopologyError> {
        if k < 2 {
            return Err(TopologyError::RadixTooSmall);
        }
        if n == 0 || n as usize > MAX_DIMS {
            return Err(TopologyError::BadDimensionCount);
        }
        if boundary == Boundary::Mesh && links == LinkKind::Unidirectional {
            return Err(TopologyError::UnsupportedLinkKind {
                context: "KAryNCube::with_boundary: a unidirectional mesh is disconnected \
                          (edge nodes would have no route back); meshes require \
                          LinkKind::Bidirectional",
            });
        }
        let mut nodes: u64 = 1;
        for _ in 0..n {
            nodes = nodes
                .checked_mul(k as u64)
                .ok_or(TopologyError::TooManyNodes)?;
            if nodes > u32::MAX as u64 {
                return Err(TopologyError::TooManyNodes);
            }
        }
        let topo = KAryNCube {
            k,
            n,
            nodes: nodes as u32,
            links,
            boundary,
        };
        if nodes * u64::from(topo.channels_per_node()) > u64::from(u32::MAX) {
            return Err(TopologyError::TooManyChannels);
        }
        Ok(topo)
    }

    /// Radix `k`: nodes per dimension.
    #[inline]
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Dimension count `n`.
    #[inline]
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Total node count `N = k^n`.
    #[inline]
    pub fn num_nodes(&self) -> u32 {
        self.nodes
    }

    /// The link kind (unidirectional for the paper's analysis).
    #[inline]
    pub fn link_kind(&self) -> LinkKind {
        self.links
    }

    /// The boundary condition (torus for the paper's analysis).
    #[inline]
    pub fn boundary(&self) -> Boundary {
        self.boundary
    }

    /// Number of outgoing network channels per node (`n` for unidirectional,
    /// `2n` for bidirectional); injection/ejection channels are not counted.
    ///
    /// Meshes keep the bidirectional channel-id space — wrap-around channel
    /// ids exist but name links that are not physically present (see
    /// [`KAryNCube::channel_exists`]), so flat per-channel tables stay
    /// rectangular across boundary conditions.
    #[inline]
    pub fn channels_per_node(&self) -> u32 {
        match self.links {
            LinkKind::Unidirectional => self.n,
            LinkKind::Bidirectional => 2 * self.n,
        }
    }

    /// Total number of network channels.
    #[inline]
    pub fn num_channels(&self) -> u32 {
        self.nodes * self.channels_per_node()
    }

    /// Iterate over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes).map(NodeId)
    }

    /// Coordinate of `node` in dimension `dim`.
    #[inline]
    pub fn coord(&self, node: NodeId, dim: u32) -> u32 {
        debug_assert!(dim < self.n);
        (node.0 / self.k.pow(dim)) % self.k
    }

    /// All coordinates of `node`, least-significant dimension (x) first.
    pub fn coords(&self, node: NodeId) -> Vec<u32> {
        (0..self.n).map(|d| self.coord(node, d)).collect()
    }

    /// Node id from coordinates (must supply exactly `n` coordinates, each
    /// `< k`).
    pub fn node_at(&self, coords: &[u32]) -> NodeId {
        assert_eq!(coords.len(), self.n as usize, "coordinate arity mismatch");
        let mut id = 0u32;
        for (d, &c) in coords.iter().enumerate() {
            assert!(c < self.k, "coordinate {c} out of range for k={}", self.k);
            id += c * self.k.pow(d as u32);
        }
        NodeId(id)
    }

    /// The node reached from `node` by moving one hop in `dim` towards
    /// increasing coordinates (with wrap-around).
    #[inline]
    pub fn neighbor_plus(&self, node: NodeId, dim: u32) -> NodeId {
        let stride = self.k.pow(dim);
        let c = self.coord(node, dim);
        if c + 1 == self.k {
            NodeId(node.0 - c * stride)
        } else {
            NodeId(node.0 + stride)
        }
    }

    /// The node reached from `node` by moving one hop in `dim` towards
    /// decreasing coordinates (with wrap-around).
    #[inline]
    pub fn neighbor_minus(&self, node: NodeId, dim: u32) -> NodeId {
        let stride = self.k.pow(dim);
        let c = self.coord(node, dim);
        if c == 0 {
            NodeId(node.0 + (self.k - 1) * stride)
        } else {
            NodeId(node.0 - stride)
        }
    }

    /// Replace the coordinate of `node` in `dim` by `c`.
    #[inline]
    pub fn with_coord(&self, node: NodeId, dim: u32, c: u32) -> NodeId {
        debug_assert!(c < self.k);
        let stride = self.k.pow(dim);
        let old = self.coord(node, dim);
        NodeId(node.0 - old * stride + c * stride)
    }

    /// Forward (unidirectional) distance from coordinate `from` to `to` in a
    /// single ring: `(to - from) mod k`.
    #[inline]
    pub fn ring_distance_forward(&self, from: u32, to: u32) -> u32 {
        debug_assert!(from < self.k && to < self.k, "coordinates lie in 0..k");
        if to >= from {
            to - from
        } else {
            to + self.k - from
        }
    }

    /// Shortest signed offset from `from` to `to` in a bidirectional ring;
    /// ties (`k` even, distance exactly `k/2`) resolve to the positive
    /// direction, the usual convention for minimal torus routing.
    pub fn ring_offset_shortest(&self, from: u32, to: u32) -> i64 {
        let fwd = self.ring_distance_forward(from, to) as i64;
        let k = self.k as i64;
        if fwd * 2 <= k {
            fwd
        } else {
            fwd - k
        }
    }

    /// The signed per-ring offset dimension-order routing actually takes
    /// from coordinate `from` to `to` under this topology's link kind and
    /// boundary: the forward distance for the unidirectional torus, the
    /// shortest signed offset for the bidirectional torus (ties positive),
    /// and the plain difference `to - from` for the mesh (no wrap-around
    /// exists to take).
    pub fn ring_offset_routed(&self, from: u32, to: u32) -> i64 {
        match (self.boundary, self.links) {
            (Boundary::Mesh, _) => to as i64 - from as i64,
            (Boundary::Torus, LinkKind::Unidirectional) => {
                self.ring_distance_forward(from, to) as i64
            }
            (Boundary::Torus, LinkKind::Bidirectional) => self.ring_offset_shortest(from, to),
        }
    }

    /// Whether the physical channel `(from, dim, direction)` exists in this
    /// topology.  Unidirectional networks have no `Minus` channels; meshes
    /// have no wrap-around channels (`Plus` out of coordinate `k-1`,
    /// `Minus` out of coordinate `0`).  The channel-id space still contains
    /// ids for the missing channels (tables stay rectangular); they simply
    /// carry no traffic.
    pub fn channel_exists(&self, channel: crate::channel::Channel) -> bool {
        use crate::channel::Direction;
        if self.links == LinkKind::Unidirectional && channel.direction == Direction::Minus {
            return false;
        }
        if self.boundary == Boundary::Mesh {
            let c = self.coord(channel.from, channel.dim);
            match channel.direction {
                Direction::Plus => c + 1 < self.k,
                Direction::Minus => c > 0,
            }
        } else {
            true
        }
    }

    /// Number of channels a dimension-order-routed message from `src` to
    /// `dest` crosses (its hop count), given the configured link kind and
    /// boundary.
    pub fn hop_count(&self, src: NodeId, dest: NodeId) -> u32 {
        let mut hops = 0u32;
        for d in 0..self.n {
            let (a, b) = (self.coord(src, d), self.coord(dest, d));
            hops += self.ring_offset_routed(a, b).unsigned_abs() as u32;
        }
        hops
    }

    /// The longest dimension-order route in the network (hops): `n(k-1)`
    /// for the unidirectional torus and the mesh, `n⌊k/2⌋` for the
    /// bidirectional torus.
    pub fn max_hops(&self) -> u32 {
        let per_dim = match (self.boundary, self.links) {
            (Boundary::Torus, LinkKind::Bidirectional) => self.k / 2,
            _ => self.k - 1,
        };
        self.n * per_dim
    }

    /// Mean hops per dimension for uniformly-distributed source/destination
    /// pairs, Eq. (1) of the paper: `k̄ = Σ_{i=1}^{k-1} i/k = (k-1)/2`
    /// (unidirectional links; the average includes destinations that need no
    /// movement in the dimension).
    pub fn mean_hops_per_dim(&self) -> f64 {
        let k = self.k as f64;
        if self.boundary == Boundary::Mesh {
            // Mean |a - b| over independent uniform coordinates a, b:
            // (k² - 1)/(3k).
            return (k * k - 1.0) / (3.0 * k);
        }
        match self.links {
            LinkKind::Unidirectional => (k - 1.0) / 2.0,
            // For bidirectional links the mean of |shortest offset| over a
            // uniform destination coordinate: k/4 for even k, (k²-1)/(4k)
            // for odd k.
            LinkKind::Bidirectional => {
                if self.k.is_multiple_of(2) {
                    k / 4.0
                } else {
                    (k * k - 1.0) / (4.0 * k)
                }
            }
        }
    }

    /// Mean total hops for uniformly-distributed destinations, Eq. (2):
    /// `d̄ = n·k̄`.
    pub fn mean_hops_total(&self) -> f64 {
        self.n as f64 * self.mean_hops_per_dim()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_parameters() {
        assert_eq!(
            KAryNCube::unidirectional(1, 2),
            Err(TopologyError::RadixTooSmall)
        );
        assert_eq!(
            KAryNCube::unidirectional(4, 0),
            Err(TopologyError::BadDimensionCount)
        );
        assert_eq!(
            KAryNCube::unidirectional(4, 9),
            Err(TopologyError::BadDimensionCount)
        );
        assert_eq!(
            KAryNCube::unidirectional(1 << 11, 3),
            Err(TopologyError::TooManyNodes)
        );
    }

    #[test]
    fn channel_ids_must_fit_in_u32() {
        // 2^30 nodes fit the node-id space, but their 6·2^30 channels do
        // not fit the channel-id space.
        assert_eq!(
            KAryNCube::bidirectional(1024, 3),
            Err(TopologyError::TooManyChannels)
        );
        // Unidirectional, the same nodes need 3·2^30 channel ids: they fit.
        assert_eq!(
            KAryNCube::unidirectional(1024, 3).unwrap().num_channels(),
            3 << 30
        );
        // The largest unidirectional ring fills the channel-id space
        // exactly: one channel per node.
        let ring = KAryNCube::unidirectional(u32::MAX, 1).unwrap();
        assert_eq!(ring.num_channels(), u32::MAX);
        assert_eq!(
            KAryNCube::bidirectional(u32::MAX, 1),
            Err(TopologyError::TooManyChannels)
        );
    }

    #[test]
    fn paper_network_size() {
        // The paper's validation network: 16-ary 2-cube, N = 256.
        let t = KAryNCube::unidirectional(16, 2).unwrap();
        assert_eq!(t.num_nodes(), 256);
        assert_eq!(t.num_channels(), 512);
        assert_eq!(t.channels_per_node(), 2);
    }

    #[test]
    fn coordinate_roundtrip() {
        let t = KAryNCube::unidirectional(5, 3).unwrap();
        for node in t.nodes() {
            let coords = t.coords(node);
            assert_eq!(t.node_at(&coords), node);
            for (d, &c) in coords.iter().enumerate() {
                assert_eq!(t.coord(node, d as u32), c);
            }
        }
    }

    #[test]
    fn neighbors_wrap_around() {
        let t = KAryNCube::unidirectional(4, 2).unwrap();
        let n = t.node_at(&[3, 2]);
        assert_eq!(t.coords(t.neighbor_plus(n, 0)), vec![0, 2]);
        assert_eq!(t.coords(t.neighbor_plus(n, 1)), vec![3, 3]);
        assert_eq!(t.coords(t.neighbor_minus(n, 0)), vec![2, 2]);
        let z = t.node_at(&[0, 0]);
        assert_eq!(t.coords(t.neighbor_minus(z, 1)), vec![0, 3]);
    }

    #[test]
    fn neighbor_plus_minus_inverse() {
        let t = KAryNCube::unidirectional(7, 2).unwrap();
        for node in t.nodes() {
            for d in 0..2 {
                assert_eq!(t.neighbor_minus(t.neighbor_plus(node, d), d), node);
                assert_eq!(t.neighbor_plus(t.neighbor_minus(node, d), d), node);
            }
        }
    }

    #[test]
    fn forward_distance() {
        let t = KAryNCube::unidirectional(8, 1).unwrap();
        assert_eq!(t.ring_distance_forward(3, 3), 0);
        assert_eq!(t.ring_distance_forward(3, 4), 1);
        assert_eq!(t.ring_distance_forward(4, 3), 7);
        assert_eq!(t.ring_distance_forward(7, 0), 1);
    }

    #[test]
    fn shortest_offset_bidirectional() {
        let t = KAryNCube::bidirectional(8, 1).unwrap();
        assert_eq!(t.ring_offset_shortest(0, 3), 3);
        assert_eq!(t.ring_offset_shortest(0, 5), -3);
        // Tie at exactly half way resolves positive.
        assert_eq!(t.ring_offset_shortest(0, 4), 4);
    }

    #[test]
    fn mean_hops_matches_enumeration_unidirectional() {
        for k in [2u32, 3, 4, 8, 16] {
            let t = KAryNCube::unidirectional(k, 2).unwrap();
            // Enumerate destination coordinates uniformly (including self).
            let total: u32 = (0..k).map(|d| t.ring_distance_forward(0, d)).sum();
            let mean = total as f64 / k as f64;
            assert!((mean - t.mean_hops_per_dim()).abs() < 1e-12);
            assert!((t.mean_hops_total() - 2.0 * mean).abs() < 1e-12);
        }
    }

    #[test]
    fn mean_hops_matches_enumeration_bidirectional() {
        for k in [2u32, 3, 4, 5, 8, 9, 16] {
            let t = KAryNCube::bidirectional(k, 2).unwrap();
            let total: u32 = (0..k)
                .map(|d| t.ring_offset_shortest(0, d).unsigned_abs() as u32)
                .sum();
            let mean = total as f64 / k as f64;
            assert!(
                (mean - t.mean_hops_per_dim()).abs() < 1e-12,
                "k={k}: enumerated {mean} vs formula {}",
                t.mean_hops_per_dim()
            );
        }
    }

    #[test]
    fn hop_count_is_sum_of_ring_distances() {
        let t = KAryNCube::unidirectional(6, 2).unwrap();
        let s = t.node_at(&[1, 4]);
        let d = t.node_at(&[4, 2]);
        // x: 1→4 is 3 hops; y: 4→2 is 4 hops (wrap).
        assert_eq!(t.hop_count(s, d), 7);
        assert_eq!(t.hop_count(s, s), 0);
    }

    #[test]
    fn mesh_requires_bidirectional_links() {
        let err =
            KAryNCube::with_boundary(4, 2, LinkKind::Unidirectional, Boundary::Mesh).unwrap_err();
        assert!(matches!(err, TopologyError::UnsupportedLinkKind { .. }));
        // The context names the offending call site, not generic text.
        assert!(format!("{err}").contains("with_boundary"));
        assert!(KAryNCube::mesh(4, 2).is_ok());
    }

    #[test]
    fn mesh_channels_exist_except_wraparound() {
        use crate::channel::{Channel, Direction};
        let m = KAryNCube::mesh(4, 2).unwrap();
        let t = KAryNCube::bidirectional(4, 2).unwrap();
        let mut missing = 0;
        for from in m.nodes() {
            for dim in 0..m.n() {
                for direction in [Direction::Plus, Direction::Minus] {
                    let c = Channel {
                        from,
                        dim,
                        direction,
                    };
                    assert!(t.channel_exists(c), "torus has every channel");
                    let wrap = (direction == Direction::Plus && m.coord(from, dim) == 3)
                        || (direction == Direction::Minus && m.coord(from, dim) == 0);
                    assert_eq!(m.channel_exists(c), !wrap);
                    if wrap {
                        missing += 1;
                    }
                }
            }
        }
        // 2 wrap channels per ring, k rings per dimension, 2 dimensions.
        assert_eq!(missing, 2 * 4 * 2);
        // Unidirectional networks have no Minus channels at all.
        let u = KAryNCube::unidirectional(4, 2).unwrap();
        let minus = Channel {
            from: NodeId(0),
            dim: 0,
            direction: Direction::Minus,
        };
        assert!(!u.channel_exists(minus));
    }

    #[test]
    fn mesh_offsets_never_wrap() {
        let m = KAryNCube::mesh(8, 1).unwrap();
        assert_eq!(m.ring_offset_routed(0, 5), 5);
        assert_eq!(m.ring_offset_routed(5, 0), -5);
        assert_eq!(m.ring_offset_routed(7, 0), -7);
        // Torus counterparts for contrast.
        let t = KAryNCube::bidirectional(8, 1).unwrap();
        assert_eq!(t.ring_offset_routed(0, 5), -3);
        assert_eq!(t.ring_offset_routed(7, 0), 1);
        let u = KAryNCube::unidirectional(8, 1).unwrap();
        assert_eq!(u.ring_offset_routed(5, 0), 3);
    }

    #[test]
    fn mesh_hop_count_is_manhattan_distance() {
        let m = KAryNCube::mesh(5, 2).unwrap();
        let s = m.node_at(&[0, 4]);
        let d = m.node_at(&[4, 1]);
        assert_eq!(m.hop_count(s, d), 4 + 3);
        assert_eq!(m.max_hops(), 8);
        assert_eq!(KAryNCube::bidirectional(8, 2).unwrap().max_hops(), 8);
        assert_eq!(KAryNCube::unidirectional(8, 2).unwrap().max_hops(), 14);
    }

    #[test]
    fn mesh_mean_hops_matches_enumeration() {
        for k in [2u32, 3, 4, 5, 8] {
            let m = KAryNCube::mesh(k, 2).unwrap();
            let total: i64 = (0..k)
                .flat_map(|a| (0..k).map(move |b| (a as i64 - b as i64).abs()))
                .sum();
            let mean = total as f64 / (k * k) as f64;
            assert!(
                (mean - m.mean_hops_per_dim()).abs() < 1e-12,
                "k={k}: enumerated {mean} vs formula {}",
                m.mean_hops_per_dim()
            );
        }
    }

    #[test]
    fn with_coord_replaces_single_dimension() {
        let t = KAryNCube::unidirectional(9, 3).unwrap();
        let n = t.node_at(&[2, 5, 7]);
        assert_eq!(t.coords(t.with_coord(n, 1, 0)), vec![2, 0, 7]);
        assert_eq!(t.coords(t.with_coord(n, 2, 8)), vec![2, 5, 8]);
    }
}
