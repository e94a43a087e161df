//! Hot-spot geometry of §3 of the paper, generalized to arbitrary k-ary
//! n-cubes.
//!
//! With dimension-order routing (dimension 0 first) every hot-spot message
//! corrects its coordinates in ascending dimension order, so all of its
//! movement in dimension `d` happens inside the *hot ring of dimension
//! `d`* that matches the hot-spot node on every dimension below `d`.  A
//! channel of such a ring is **`j` hops away** (`1 <= j <= k`) when `j`
//! forward hops from its source node reach the hot node's coordinate;
//! `j = k` names the channel *leaving* the hot coordinate (the paper's
//! convention for "distance zero").
//!
//! The fraction of system nodes whose hot-spot traffic crosses a hot
//! dimension-`d` channel `j` hops away is the product-over-rings
//! generalization of Eqs. (4)–(5):
//!
//! ```text
//! P_{h,d,j} = k^d (k - j) / N
//! ```
//!
//! (`k - j` source coordinates behind the channel in its own ring, times
//! the `k^d` free coordinates in the already-corrected dimensions below
//! `d`; the coordinates above `d` are pinned to the channel's ring.)  The
//! paper's 2-D forms are the `d = 0` ("x") and `d = 1` ("y") instances:
//! Eq. 4 is `p_hot(0, j)` and Eq. 5 is `p_hot(1, j)`.
//!
//! ```text
//! P_hx,j = (k - j) / N          (x channel, j hops from the hot y-ring)
//! P_hy,j = k (k - j) / N        (hot y-ring channel, j hops from hot node)
//! ```
//!
//! All of this is verified against brute-force route enumeration in the
//! tests, for 2-D and higher-dimensional cubes alike.

use crate::channel::{Channel, Direction};
use crate::geometry::{Boundary, KAryNCube, LinkKind, NodeId};

/// Hot-spot geometry helper for any k-ary n-cube or mesh.
///
/// The paper's closed forms ([`HotSpotGeometry::p_hot`] and friends) are
/// the unidirectional-torus instances; the generalized per-channel form is
/// [`HotSpotGeometry::p_hot_channel`], which covers bidirectional tori
/// (signed shortest-path offsets, ties positive) and meshes (no
/// wrap-around) as well.
#[derive(Clone, Copy, Debug)]
pub struct HotSpotGeometry {
    topo: KAryNCube,
    hot: NodeId,
}

impl HotSpotGeometry {
    /// Build the geometry.  Every link kind and boundary is supported: the
    /// unidirectional torus is the paper's analysis, the bidirectional
    /// torus and the mesh use the generalized per-channel fractions of
    /// [`HotSpotGeometry::p_hot_channel`].
    pub fn new(topo: KAryNCube, hot: NodeId) -> Self {
        HotSpotGeometry { topo, hot }
    }

    /// The underlying topology.
    pub fn topology(&self) -> &KAryNCube {
        &self.topo
    }

    /// The hot-spot node.
    pub fn hot_node(&self) -> NodeId {
        self.hot
    }

    /// Paper distance convention: forward distance mapped into `1..=k`, with
    /// `k` standing for "zero" (the channel leaving the reference node /
    /// the reference ring itself).
    #[inline]
    fn paper_distance(&self, forward: u32) -> u32 {
        if forward == 0 {
            self.topo.k()
        } else {
            forward
        }
    }

    /// Whether `channel` carries hot-spot traffic, and at which paper
    /// distance (`1..=k`) from the hot coordinate of its dimension.
    ///
    /// A dimension-`d` channel carries hot traffic iff its source node
    /// already matches the hot node on every dimension *below* `d`
    /// (dimension-order routing corrects lower dimensions first), so every
    /// dimension-0 channel qualifies while only one in `k^d` rings of
    /// dimension `d` does.  Returns `None` for channels that no hot-spot
    /// route crosses.
    pub fn hot_channel_distance(&self, channel: Channel) -> Option<u32> {
        if channel.direction != Direction::Plus {
            return None;
        }
        for lower in 0..channel.dim {
            if self.topo.coord(channel.from, lower) != self.topo.coord(self.hot, lower) {
                return None;
            }
        }
        let fwd = self.topo.ring_distance_forward(
            self.topo.coord(channel.from, channel.dim),
            self.topo.coord(self.hot, channel.dim),
        );
        Some(self.paper_distance(fwd))
    }

    /// The forward distance from `src` to the hot node in every dimension —
    /// the source's position in the generalized source taxonomy.  A
    /// hot-spot message from `src` crosses exactly the hot channels of
    /// dimension `d` at distances `profile[d], profile[d]-1, …, 1`.
    pub fn distance_profile(&self, src: NodeId) -> Vec<u32> {
        (0..self.topo.n())
            .map(|d| {
                self.topo
                    .ring_distance_forward(self.topo.coord(src, d), self.topo.coord(self.hot, d))
            })
            .collect()
    }

    /// Generalized Eqs. (4)–(5): `P_{h,d,j} = k^d (k - j) / N` — fraction
    /// of system nodes whose hot-spot messages cross a hot dimension-`dim`
    /// channel `j` hops from the hot coordinate (`1 <= j <= k`; zero at
    /// `j = k`).  Eq. 4 (`P_hx,j`) is `p_hot(0, j)` and Eq. 5 (`P_hy,j`)
    /// is `p_hot(1, j)`.
    ///
    /// ```
    /// use kncube_topology::{HotSpotGeometry, KAryNCube, NodeId};
    /// let t = KAryNCube::unidirectional(16, 2).unwrap();
    /// let g = HotSpotGeometry::new(t, NodeId(0));
    /// // The last y channel into the hot node serves k(k-1) = 240 of the
    /// // 256 nodes (everyone outside the hot node's own x-ring).
    /// assert_eq!(g.p_hot(1, 1), 240.0 / 256.0);
    /// assert_eq!(g.p_hot(1, 16), 0.0);
    /// ```
    pub fn p_hot(&self, dim: u32, j: u32) -> f64 {
        assert!(dim < self.topo.n());
        assert!((1..=self.topo.k()).contains(&j));
        let lower_rings = (self.topo.k() as u64).pow(dim);
        (lower_rings * (self.topo.k() - j) as u64) as f64 / self.topo.num_nodes() as f64
    }

    /// Number of source *coordinates* in `channel`'s own ring whose
    /// dimension-order movement towards the hot coordinate crosses
    /// `channel`, for any link kind and boundary.  The channel's ring is
    /// assumed to be a hot ring of its dimension (lower coordinates
    /// matching the hot node's — [`HotSpotGeometry::p_hot_channel`] checks
    /// that); channels that do not exist count zero sources.
    ///
    /// Closed forms, with `c` the channel's source coordinate, `H` the hot
    /// coordinate, `j = (H - c) mod k` the forward and `b = (c - H) mod k`
    /// the backward distance:
    ///
    /// * unidirectional torus, `Plus`: `k - j` (`j = 0` reads as `k`, the
    ///   paper's Eqs. 4–5);
    /// * bidirectional torus, `Plus`: `⌊k/2⌋ - j + 1` for
    ///   `1 <= j <= ⌊k/2⌋` (sources whose shortest signed offset is
    ///   positive and reaches past the channel; ties route positive);
    /// * bidirectional torus, `Minus`: `⌈k/2⌉ - b` for
    ///   `1 <= b <= ⌈k/2⌉ - 1`;
    /// * mesh, `Plus`: `c + 1` when `c < H` (every coordinate at or below
    ///   `c` routes up through the channel); `Minus`: `k - c` when
    ///   `c > H`.
    pub fn hot_sources_in_ring(&self, channel: Channel) -> u32 {
        if !self.topo.channel_exists(channel) {
            return 0;
        }
        let k = self.topo.k();
        let c = self.topo.coord(channel.from, channel.dim);
        let h = self.topo.coord(self.hot, channel.dim);
        match (self.topo.boundary(), self.topo.link_kind()) {
            (Boundary::Torus, LinkKind::Unidirectional) => {
                let j = self.paper_distance(self.topo.ring_distance_forward(c, h));
                k - j
            }
            (Boundary::Torus, LinkKind::Bidirectional) => match channel.direction {
                Direction::Plus => {
                    let j = self.topo.ring_distance_forward(c, h);
                    if (1..=k / 2).contains(&j) {
                        k / 2 - j + 1
                    } else {
                        0
                    }
                }
                Direction::Minus => {
                    let b = self.topo.ring_distance_forward(h, c);
                    let half_up = k.div_ceil(2);
                    if b >= 1 && b < half_up {
                        half_up - b
                    } else {
                        0
                    }
                }
            },
            (Boundary::Mesh, _) => match channel.direction {
                Direction::Plus if c < h => c + 1,
                Direction::Minus if c > h => k - c,
                _ => 0,
            },
        }
    }

    /// Generalized per-channel hot-spot fraction: the fraction of system
    /// nodes whose dimension-order route to the hot node crosses
    /// `channel`, for any link kind and boundary.  Zero for channels that
    /// do not exist and for channels outside the hot rings (lower
    /// coordinates must match the hot node's, because dimension-order
    /// routing corrects lower dimensions first).  On the unidirectional
    /// torus this coincides with [`HotSpotGeometry::p_hot`] at the
    /// channel's paper distance.
    pub fn p_hot_channel(&self, channel: Channel) -> f64 {
        for lower in 0..channel.dim {
            if self.topo.coord(channel.from, lower) != self.topo.coord(self.hot, lower) {
                return 0.0;
            }
        }
        let lower_rings = (self.topo.k() as u64).pow(channel.dim);
        (lower_rings * self.hot_sources_in_ring(channel) as u64) as f64
            / self.topo.num_nodes() as f64
    }

    /// Brute-force count of the source nodes whose dimension-order route to
    /// the hot-spot node crosses `channel` (test oracle for Eqs. 4–5 and
    /// their n-dimensional generalization).
    pub fn count_hot_sources_crossing(&self, channel: Channel) -> u32 {
        let mut count = 0;
        for src in self.topo.nodes() {
            if src == self.hot {
                continue;
            }
            let route = self.topo.dor_route(src, self.hot);
            if route.hops.iter().any(|h| h.channel == channel) {
                count += 1;
            }
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geometry(k: u32, hot: &[u32]) -> HotSpotGeometry {
        let t = KAryNCube::unidirectional(k, 2).unwrap();
        let hot = t.node_at(hot);
        HotSpotGeometry::new(t, hot)
    }

    #[test]
    fn accepts_any_dimension_and_link_kind() {
        let t3 = KAryNCube::unidirectional(4, 3).unwrap();
        let g3 = HotSpotGeometry::new(t3, NodeId(0));
        assert_eq!(g3.distance_profile(NodeId(1)), vec![3, 0, 0]);
        // Bidirectional tori and meshes are first-class now; their hot
        // fractions flow through p_hot_channel.
        let tb = KAryNCube::bidirectional(4, 2).unwrap();
        let gb = HotSpotGeometry::new(tb, NodeId(0));
        assert!(
            gb.p_hot_channel(Channel {
                from: tb.node_at(&[3, 0]),
                dim: 0,
                direction: Direction::Plus,
            }) > 0.0
        );
        let tm = KAryNCube::mesh(4, 2).unwrap();
        let gm = HotSpotGeometry::new(tm, tm.node_at(&[3, 3]));
        assert!(
            gm.p_hot_channel(Channel {
                from: tm.node_at(&[0, 3]),
                dim: 0,
                direction: Direction::Plus,
            }) > 0.0
        );
    }

    #[test]
    fn hot_y_ring_is_hot_column() {
        let g = geometry(5, &[3, 1]);
        let ring = g.topology().ring_of(g.hot_node(), 1);
        assert_eq!(ring.nodes.len(), 5);
        for &m in &ring.nodes {
            assert_eq!(g.topology().coord(m, 0), 3);
        }
    }

    #[test]
    fn paper_distance_conventions() {
        let g = geometry(4, &[1, 2]);
        let t = g.topology();
        let distance = |at: &[u32], dim: u32| {
            g.hot_channel_distance(Channel {
                from: t.node_at(at),
                dim,
                direction: Direction::Plus,
            })
        };
        // Outgoing y channel of the hot node itself: distance k.
        assert_eq!(distance(&[1, 2], 1), Some(4));
        // One hop before the hot node: distance 1.
        assert_eq!(distance(&[1, 1], 1), Some(1));
        // Wrap-around counting: node y=3 is (2-3) mod 4 = 3 hops away.
        assert_eq!(distance(&[1, 3], 1), Some(3));
        // y channels outside the hot column are not hot-ring channels.
        assert_eq!(distance(&[0, 1], 1), None);
        // x channel leaving the hot column: distance k.
        assert_eq!(distance(&[1, 0], 0), Some(4));
        // The x-ring through the hot node is 0 forward hops away in y (the
        // paper's distance k); the ring below it is 1.
        assert_eq!(g.distance_profile(t.node_at(&[0, 2]))[1], 0);
        assert_eq!(g.distance_profile(t.node_at(&[0, 1]))[1], 1);
    }

    #[test]
    fn source_classification_partitions_nodes() {
        // The source taxonomy is the distance profile: the hot node is the
        // all-zero profile, and every other profile names exactly one node.
        let g = geometry(6, &[2, 4]);
        let t = g.topology();
        let k = t.k() as usize;
        let mut seen = vec![0u32; k * k];
        for src in t.nodes() {
            let profile = g.distance_profile(src);
            assert_eq!(profile == [0, 0], src == g.hot_node());
            seen[profile[0] as usize * k + profile[1] as usize] += 1;
        }
        assert!(seen.iter().all(|&c| c == 1), "{seen:?}");
    }

    #[test]
    fn distance_profile_matches_route_structure() {
        let t = KAryNCube::unidirectional(4, 3).unwrap();
        let hot = t.node_at(&[1, 2, 3]);
        let g = HotSpotGeometry::new(t, hot);
        for src in t.nodes() {
            let profile = g.distance_profile(src);
            let route = t.dor_route(src, hot);
            // Per-dimension hop counts of the route equal the profile.
            for (d, &p) in profile.iter().enumerate() {
                let hops = route
                    .hops
                    .iter()
                    .filter(|h| h.channel.dim == d as u32)
                    .count() as u32;
                assert_eq!(hops, p, "src {:?} dim {d}", t.coords(src));
            }
        }
    }

    #[test]
    fn eq4_matches_bruteforce_on_every_x_channel() {
        for k in [3u32, 4, 5] {
            let g = geometry(k, &[k - 1, 1]);
            let t = *g.topology();
            let n = t.num_nodes() as f64;
            for from in t.nodes() {
                let c = Channel {
                    from,
                    dim: 0,
                    direction: Direction::Plus,
                };
                let j = g.hot_channel_distance(c).unwrap();
                let counted = g.count_hot_sources_crossing(c) as f64 / n;
                assert!(
                    (counted - g.p_hot(0, j)).abs() < 1e-12,
                    "k={k} channel from {:?}: bruteforce {counted} vs P_hx,{j}={}",
                    t.coords(from),
                    g.p_hot(0, j)
                );
            }
        }
    }

    #[test]
    fn eq5_matches_bruteforce_on_every_hot_ring_channel() {
        for k in [3u32, 4, 5] {
            let g = geometry(k, &[0, 2 % k]);
            let t = *g.topology();
            let n = t.num_nodes() as f64;
            for &from in &t.ring_of(g.hot_node(), 1).nodes {
                let c = Channel {
                    from,
                    dim: 1,
                    direction: Direction::Plus,
                };
                let j = g.hot_channel_distance(c).unwrap();
                let counted = g.count_hot_sources_crossing(c) as f64 / n;
                assert!(
                    (counted - g.p_hot(1, j)).abs() < 1e-12,
                    "k={k} hot-ring channel at j={j}: bruteforce {counted} vs {}",
                    g.p_hot(1, j)
                );
            }
        }
    }

    #[test]
    fn generalized_fractions_match_bruteforce_in_3d_and_4d() {
        for (k, n) in [(3u32, 3u32), (4, 3), (2, 4)] {
            let t = KAryNCube::unidirectional(k, n).unwrap();
            let hot = NodeId(t.num_nodes() / 3);
            let g = HotSpotGeometry::new(t, hot);
            let nodes = t.num_nodes() as f64;
            for from in t.nodes() {
                for dim in 0..n {
                    let c = Channel {
                        from,
                        dim,
                        direction: Direction::Plus,
                    };
                    let counted = g.count_hot_sources_crossing(c) as f64 / nodes;
                    let expected = match g.hot_channel_distance(c) {
                        Some(j) => g.p_hot(dim, j),
                        None => 0.0,
                    };
                    assert!(
                        (counted - expected).abs() < 1e-12,
                        "k={k} n={n} dim={dim} from {:?}: bruteforce {counted} vs {expected}",
                        t.coords(from)
                    );
                }
            }
        }
    }

    /// Brute-force check of the generalized per-channel fractions on every
    /// channel of `topo` (both directions), hot node at `hot`.
    fn check_p_hot_channel_bruteforce(topo: KAryNCube, hot: NodeId) {
        let g = HotSpotGeometry::new(topo, hot);
        let nodes = topo.num_nodes() as f64;
        for from in topo.nodes() {
            for dim in 0..topo.n() {
                for direction in [Direction::Plus, Direction::Minus] {
                    let c = Channel {
                        from,
                        dim,
                        direction,
                    };
                    let counted = g.count_hot_sources_crossing(c) as f64 / nodes;
                    let expected = g.p_hot_channel(c);
                    assert!(
                        (counted - expected).abs() < 1e-12,
                        "{:?} {:?} dim={dim} {direction:?} from {:?}: \
                         bruteforce {counted} vs closed form {expected}",
                        topo.link_kind(),
                        topo.boundary(),
                        topo.coords(from)
                    );
                }
            }
        }
    }

    #[test]
    fn p_hot_channel_matches_bruteforce_on_bidirectional_tori() {
        for (k, n) in [(3u32, 2u32), (4, 2), (5, 2), (8, 2), (3, 3), (2, 4)] {
            let t = KAryNCube::bidirectional(k, n).unwrap();
            check_p_hot_channel_bruteforce(t, NodeId(t.num_nodes() / 3));
        }
    }

    #[test]
    fn p_hot_channel_matches_bruteforce_on_meshes() {
        for (k, n) in [(3u32, 2u32), (4, 2), (5, 2), (8, 2), (3, 3), (2, 4)] {
            let t = KAryNCube::mesh(k, n).unwrap();
            // Off-center hot nodes exercise the asymmetric mesh counts.
            check_p_hot_channel_bruteforce(t, NodeId(t.num_nodes() / 3));
            check_p_hot_channel_bruteforce(t, NodeId(0));
        }
    }

    #[test]
    fn p_hot_channel_reduces_to_paper_form_on_unidirectional_tori() {
        for (k, n) in [(4u32, 2u32), (5, 2), (3, 3)] {
            let t = KAryNCube::unidirectional(k, n).unwrap();
            let g = HotSpotGeometry::new(t, NodeId(t.num_nodes() / 2));
            check_p_hot_channel_bruteforce(t, NodeId(t.num_nodes() / 2));
            for from in t.nodes() {
                for dim in 0..n {
                    let c = Channel {
                        from,
                        dim,
                        direction: Direction::Plus,
                    };
                    let expected = match g.hot_channel_distance(c) {
                        Some(j) => g.p_hot(dim, j),
                        None => 0.0,
                    };
                    assert_eq!(
                        g.p_hot_channel(c).to_bits(),
                        expected.to_bits(),
                        "generalized form must be bit-identical to Eqs. 4-5"
                    );
                }
            }
        }
    }

    #[test]
    fn non_hot_ring_y_channels_carry_no_hot_traffic() {
        let g = geometry(4, &[2, 2]);
        let t = *g.topology();
        for from in t.nodes() {
            if t.coord(from, 0) == 2 {
                continue;
            }
            let c = Channel {
                from,
                dim: 1,
                direction: Direction::Plus,
            };
            assert_eq!(g.count_hot_sources_crossing(c), 0);
            assert_eq!(g.hot_channel_distance(c), None);
        }
    }

    #[test]
    fn hot_traffic_conservation() {
        // Total channel crossings by hot traffic must equal the total hop
        // count of all sources' routes to the hot node; checks that the
        // per-position rates integrate to the global load.
        let g = geometry(5, &[1, 3]);
        let t = *g.topology();
        let total_hops: u32 = t
            .nodes()
            .filter(|&s| s != g.hot_node())
            .map(|s| t.hop_count(s, g.hot_node()))
            .sum();
        let mut by_channels = 0u32;
        for from in t.nodes() {
            for dim in 0..2 {
                let c = Channel {
                    from,
                    dim,
                    direction: Direction::Plus,
                };
                by_channels += g.count_hot_sources_crossing(c);
            }
        }
        assert_eq!(total_hops, by_channels);
        // And the closed forms integrate to the same: k rings × Σ_j (k-j)
        // in x, plus Σ_j k(k-j) in y.
        let k = t.k();
        let closed: u32 = (1..=k).map(|j| k * (k - j)).sum::<u32>() * 2;
        assert_eq!(total_hops, closed);
    }

    #[test]
    fn hot_traffic_conservation_generalizes() {
        // n-dimensional conservation: per dimension the k^{n-1-d} hot rings
        // carry k^d(k-j) crossings at each of their k positions, so the
        // closed forms integrate to n·k^{n-1}·Σ_j(k-j) — the total hop
        // count of all hot routes.
        let t = KAryNCube::unidirectional(3, 4).unwrap();
        let hot = NodeId(5);
        let total_hops: u64 = t
            .nodes()
            .filter(|&s| s != hot)
            .map(|s| t.hop_count(s, hot) as u64)
            .sum();
        let k = t.k() as u64;
        let per_ring: u64 = (1..=k).map(|j| k - j).sum();
        let closed = t.n() as u64 * k.pow(t.n() - 1) * per_ring;
        assert_eq!(total_hops, closed);
    }
}
