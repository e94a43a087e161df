//! Channel traffic rates: Eqs. (1)–(9) of the paper, generalized to
//! arbitrary k-ary n-cubes.
//!
//! Regular (uniform-destination) traffic loads every channel of a dimension
//! equally; hot-spot traffic concentrates on the channels that funnel into
//! the hot-spot node.  With dimension-order routing on the unidirectional
//! n-cube:
//!
//! * every hot-spot message corrects its dimensions in ascending order, so
//!   its dimension-`d` movement happens inside the *hot ring of dimension
//!   `d`* (the ring matching the hot node on every dimension below `d`);
//! * the hot dimension-`d` channel `j` hops from the hot coordinate carries
//!   the hot traffic of the `k^d (k - j)` nodes that funnel through it —
//!   the product-over-rings generalization of Eqs. (4)–(7), whose 2-D
//!   instances are the paper's `k - j` (x, Eqs. 4/6) and `k(k - j)`
//!   (hot y-ring, Eqs. 5/7).
//!
//! Both rate tables are checked against a brute-force count of the
//! sources whose dimension-order route crosses each channel:
//! [`NCubeRates::hot_rate`] on random cubes in this crate's
//! `tests/properties.rs`, and [`FaultyChannelRates`] on fault-free
//! unidirectional tori, bidirectional tori and meshes in the unit tests.

use kncube_topology::{ChannelId, FaultRouter, NodeId};

/// Per-channel traffic rates for a k-ary n-cube at a given load —
/// Eqs. (1)–(9) with dimension as a parameter.
#[derive(Clone, Copy, Debug)]
pub struct NCubeRates {
    k: u32,
    n: u32,
    lambda: f64,
    hot_fraction: f64,
}

impl NCubeRates {
    /// Rates for a unidirectional k-ary n-cube with per-node generation
    /// rate `lambda` and hot fraction `hot_fraction`.
    pub fn new(k: u32, n: u32, lambda: f64, hot_fraction: f64) -> Self {
        assert!(k >= 2);
        assert!(n >= 1);
        assert!(lambda >= 0.0);
        assert!((0.0..=1.0).contains(&hot_fraction));
        NCubeRates {
            k,
            n,
            lambda,
            hot_fraction,
        }
    }

    /// Eq. (1): mean channels crossed per dimension by a regular message,
    /// `k̄ = (k-1)/2` (the paper's convention: the average includes
    /// destinations needing no movement in the dimension).
    pub fn mean_hops_per_dim(&self) -> f64 {
        (self.k as f64 - 1.0) / 2.0
    }

    /// Eq. (2): mean channels crossed in the whole network, `d̄ = n k̄`.
    pub fn mean_hops_total(&self) -> f64 {
        self.n as f64 * self.mean_hops_per_dim()
    }

    /// Eq. (3): regular traffic rate on any channel of any dimension,
    /// `λ_r = λ (1-h) k̄`.
    ///
    /// Derivation: each of the `N` nodes generates `λ(1-h)` regular
    /// messages/cycle, each crossing `k̄` channels per dimension on
    /// average; a dimension has `N` channels, so the per-channel rate is
    /// `N·λ(1-h)·k̄ / N` — independent of the dimension count.
    pub fn regular_channel_rate(&self) -> f64 {
        self.lambda * (1.0 - self.hot_fraction) * self.mean_hops_per_dim()
    }

    /// Generalized Eqs. (4)–(7): hot-spot traffic rate on the hot
    /// dimension-`dim` channel `j` hops from the hot coordinate
    /// (`1 <= j <= k`): `λ^h_{d,j} = N λ h P_{h,d,j} = λ h k^d (k-j)`.
    pub fn hot_rate(&self, dim: u32, j: u32) -> f64 {
        assert!(dim < self.n);
        assert!((1..=self.k).contains(&j));
        let funnel = (self.k as u64).pow(dim) * (self.k - j) as u64;
        self.lambda * self.hot_fraction * funnel as f64
    }

    /// Generalized Eqs. (8)–(9): total rate on the hot dimension-`dim`
    /// channel `j` hops from the hot coordinate.
    pub fn total_rate(&self, dim: u32, j: u32) -> f64 {
        self.regular_channel_rate() + self.hot_rate(dim, j)
    }
}

/// Per-channel traffic rates of a *faulty* (or bidirectional / mesh)
/// network, computed by exact route enumeration over the surviving paths
/// of a [`FaultRouter`] instead of the closed forms above.
///
/// The closed forms of [`NCubeRates`] assume every source can reach every
/// destination over the fault-free dimension-order route.  With faults the
/// load redistributes along the detoured shortest surviving routes, and
/// pairs with no surviving route contribute nothing (the simulator drops
/// them at generation).  Every ordered reachable pair counts once,
/// accumulating per directed channel:
///
/// * **regular** traffic — each healthy source spreads its uniform share
///   over the *other* `N - 1` nodes (delivered only where reachable); the
///   hot node itself generates only regular traffic (Pfister–Norton);
/// * **hot-spot** traffic — each healthy non-hot source adds rate `λh`
///   along its surviving route to the hot node.
///
/// Routes to one destination form the router's in-tree
/// ([`FaultRouter::tree`]), so a channel's load from that destination is
/// the summed share of the sources in the subtree below it: one reverse
/// sweep per destination, `O(N²)` in all, with no route walks.
///
/// Rates are stored per unit `λ`; multiply by the per-node generation rate
/// at query time, which keeps one enumeration valid for a whole λ sweep.
#[derive(Clone, Debug)]
pub struct FaultyChannelRates {
    regular_unit: Vec<f64>,
    hot_unit: Vec<f64>,
}

impl FaultyChannelRates {
    /// Accumulate the per-channel rates of the surviving routes of
    /// `router` for hot node `hot` and hot fraction `hot_fraction`
    /// (`0 <= h <= 1`).
    pub fn from_router(router: &FaultRouter, hot: NodeId, hot_fraction: f64) -> Self {
        assert!((0.0..=1.0).contains(&hot_fraction));
        let topo = *router.topology();
        let n_nodes = topo.num_nodes();
        let mut regular_unit = vec![0.0; topo.num_channels() as usize];
        let mut hot_unit = vec![0.0; topo.num_channels() as usize];
        let others = (n_nodes - 1) as f64;
        // The hot node generates only regular traffic; everyone else
        // splits `1 - h` uniform / `h` hot.  Failed sources generate
        // traffic that is dropped whole (they sit in no tree).
        let pair_share = |src: NodeId| {
            let regular_share = if src == hot { 1.0 } else { 1.0 - hot_fraction };
            regular_share / others
        };
        let mut below = vec![0.0f64; n_nodes as usize];
        for dest in topo.nodes() {
            add_subtree_loads(router, dest, pair_share, &mut below, &mut regular_unit);
            if dest == hot {
                add_subtree_loads(router, dest, |_| hot_fraction, &mut below, &mut hot_unit);
            }
        }
        FaultyChannelRates {
            regular_unit,
            hot_unit,
        }
    }

    /// Regular traffic rate on `channel` at per-node generation rate
    /// `lambda`.
    #[inline]
    pub fn regular_rate(&self, channel: ChannelId, lambda: f64) -> f64 {
        lambda * self.regular_unit[channel.index()]
    }

    /// Hot-spot traffic rate on `channel` at per-node generation rate
    /// `lambda`.
    #[inline]
    pub fn hot_rate(&self, channel: ChannelId, lambda: f64) -> f64 {
        lambda * self.hot_unit[channel.index()]
    }

    /// Combined rate on `channel` at per-node generation rate `lambda`.
    pub fn total_rate(&self, channel: ChannelId, lambda: f64) -> f64 {
        self.regular_rate(channel, lambda) + self.hot_rate(channel, lambda)
    }

    /// Number of directed channels in the topology (indexable by
    /// [`ChannelId`]).
    pub fn num_channels(&self) -> usize {
        self.regular_unit.len()
    }
}

/// Add to `unit` the per-channel load of `dest`'s route tree when each
/// source `s` sends `weight(s)`: a channel carries the summed weight of
/// the subtree below it, accumulated in reverse BFS order.  `below` is
/// per-node scratch space.
fn add_subtree_loads(
    router: &FaultRouter,
    dest: NodeId,
    weight: impl Fn(NodeId) -> f64,
    below: &mut [f64],
    unit: &mut [f64],
) {
    for edge in router.tree(dest) {
        below[edge.node.index()] = weight(edge.node);
    }
    for edge in router.tree(dest).rev() {
        let load = below[edge.node.index()];
        unit[edge.channel.index()] += load;
        below[edge.parent.index()] += load;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_hops_eq1_eq2() {
        let r = NCubeRates::new(16, 2, 1e-4, 0.2);
        assert_eq!(r.mean_hops_per_dim(), 7.5);
        assert_eq!(r.mean_hops_total(), 15.0);
    }

    #[test]
    fn regular_rate_eq3() {
        let r = NCubeRates::new(16, 2, 4e-4, 0.25);
        let expected = 4e-4 * 0.75 * 7.5;
        assert!((r.regular_channel_rate() - expected).abs() < 1e-15);
    }

    #[test]
    fn hot_rates_vanish_at_j_equals_k() {
        let r = NCubeRates::new(8, 2, 1e-3, 0.5);
        assert_eq!(r.hot_rate(0, 8), 0.0);
        assert_eq!(r.hot_rate(1, 8), 0.0);
    }

    #[test]
    fn hot_rates_peak_next_to_hot_node() {
        let r = NCubeRates::new(8, 2, 1e-3, 0.5);
        for j in 1..8 {
            assert!(r.hot_rate(1, j) > r.hot_rate(1, j + 1));
            assert!(r.hot_rate(0, j) > r.hot_rate(0, j + 1));
        }
        // The last hop into the hot node carries h·λ·k(k-1): all hot
        // traffic except what is generated inside the hot node's column at
        // distance 0 — i.e. everything but the hot node itself, spread per
        // Poisson splitting.
        assert!((r.hot_rate(1, 1) - 1e-3 * 0.5 * 56.0).abs() < 1e-15);
    }

    #[test]
    fn hot_traffic_conservation_across_ring_positions() {
        // Summing the hot rate over the k channels of the hot y-ring gives
        // the total hop-rate of hot traffic in dimension y:
        // λh Σ_j k(k-j) = λh k·k(k-1)/2 = N λh k̄', matching (N-1)-ish
        // sources each crossing their y-distance. The identity checked here
        // is the closed form Σ_{j=1}^{k} k(k-j) = k²(k-1)/2.
        let r = NCubeRates::new(10, 2, 2e-3, 0.3);
        let total: f64 = (1..=10).map(|j| r.hot_rate(1, j)).sum();
        let expected = 2e-3 * 0.3 * (100.0 * 9.0 / 2.0);
        assert!((total - expected).abs() < 1e-12);
    }

    #[test]
    fn zero_hot_fraction_means_uniform_only() {
        let r = NCubeRates::new(16, 2, 1e-4, 0.0);
        for j in 1..=16 {
            assert_eq!(r.hot_rate(0, j), 0.0);
            assert_eq!(r.hot_rate(1, j), 0.0);
            assert!((r.total_rate(0, j) - r.regular_channel_rate()).abs() < 1e-18);
        }
    }

    #[test]
    fn ncube_rates_specialize_to_the_2d_forms() {
        // At n = 2 the generalized rates are the paper's printed Eqs. 4-7:
        // λ^h_x,j = λh(k-j) on x channels, λ^h_y,j = λhk(k-j) on the hot
        // y-ring.
        let (k, lambda, h) = (12u32, 3e-4, 0.35);
        let g = NCubeRates::new(k, 2, lambda, h);
        assert_eq!(
            g.regular_channel_rate(),
            lambda * (1.0 - h) * (k as f64 - 1.0) / 2.0
        );
        for j in 1..=k {
            let x = lambda * h * (k - j) as f64;
            let y = lambda * h * (k * (k - j)) as f64;
            assert!((g.hot_rate(0, j) - x).abs() <= 1e-15 * x.max(1.0));
            assert!((g.hot_rate(1, j) - y).abs() <= 1e-15 * y.max(1.0));
        }
    }

    #[test]
    fn ncube_hot_rates_scale_by_k_pow_dim() {
        // Generalized Eqs. 6-7: moving one dimension inwards multiplies the
        // funnel by k (one more fully-corrected dimension feeds the ring).
        let g = NCubeRates::new(4, 4, 1e-3, 0.5);
        for dim in 0..3 {
            for j in 1..4 {
                let lo = g.hot_rate(dim, j);
                let hi = g.hot_rate(dim + 1, j);
                assert!((hi - 4.0 * lo).abs() < 1e-15, "dim={dim} j={j}");
            }
        }
        // Binding channel of the innermost dimension: λ h k^{n-1}(k-1).
        let binding = g.hot_rate(3, 1);
        assert!((binding - 1e-3 * 0.5 * 192.0).abs() < 1e-15);
    }

    #[test]
    fn faulty_rates_cross_check_p_hot_channel_on_fault_free_networks() {
        // On a fault-free network the enumerated hot load on a channel is
        // exactly `λ h` times the number of sources whose dimension-order
        // route to the hot node crosses it, on every link kind/boundary
        // (bidirectional ties route positive; meshes have no wrap-around).
        use kncube_topology::{FaultSet, KAryNCube};
        let h = 0.35;
        let uni = KAryNCube::unidirectional;
        let bi = KAryNCube::bidirectional;
        let mesh = KAryNCube::mesh;
        for topo in [
            uni(5, 2),
            uni(3, 3),
            bi(6, 2),
            bi(5, 2),
            bi(3, 3),
            bi(2, 4),
            mesh(4, 2),
            mesh(5, 2),
            mesh(3, 3),
            mesh(2, 4),
        ] {
            let topo = topo.unwrap();
            let router = FaultRouter::new(FaultSet::none(topo));
            for hot_idx in [0u32, 3, topo.num_nodes() / 3, topo.num_nodes() - 1] {
                let hot = NodeId(hot_idx);
                let rates = FaultyChannelRates::from_router(&router, hot, h);
                let mut crossing = vec![0u32; topo.num_channels() as usize];
                for src in topo.nodes().filter(|&src| src != hot) {
                    for hop in topo.dor_route(src, hot).hops {
                        crossing[hop.channel.id(&topo).index()] += 1;
                    }
                }
                for (id, &count) in crossing.iter().enumerate() {
                    let expected = h * count as f64;
                    let got = rates.hot_rate(ChannelId(id as u32), 1.0);
                    assert!(
                        (got - expected).abs() < 1e-12,
                        "{:?} {:?} k={} n={} hot={hot_idx} channel {id}: {got} vs {expected}",
                        topo.link_kind(),
                        topo.boundary(),
                        topo.k(),
                        topo.n()
                    );
                }
            }
        }
    }

    #[test]
    fn faulty_rates_conserve_hop_rate_under_faults() {
        // Load redistribution conserves work: summed over channels, the
        // unit hot rate is `h` times the total surviving distance to the
        // hot node, and the unit regular rate is the share-weighted mean
        // surviving distance over reachable uniform pairs — both exactly
        // recomputable from the router's pair distances, faults included.
        use kncube_topology::{Channel, Direction, FaultSet, KAryNCube, NodeId};
        let topo = KAryNCube::bidirectional(5, 2).unwrap();
        let h = 0.2;
        let hot = NodeId(0);
        let mut faults = FaultSet::none(topo);
        faults.fail_node(NodeId(12));
        faults.fail_link(Channel {
            from: NodeId(6),
            dim: 1,
            direction: Direction::Plus,
        });
        let router = FaultRouter::new(faults);
        let rates = FaultyChannelRates::from_router(&router, hot, h);
        let others = (topo.num_nodes() - 1) as f64;
        let mut expected_reg = 0.0;
        let mut expected_hot = 0.0;
        for src in topo.nodes() {
            let share = if src == hot { 1.0 } else { 1.0 - h };
            for dest in topo.nodes() {
                if let Some(d) = router.distance(src, dest).filter(|_| src != dest) {
                    expected_reg += share * d as f64 / others;
                    if dest == hot {
                        expected_hot += h * d as f64;
                    }
                }
            }
        }
        let sum_reg: f64 = (0..topo.num_channels())
            .map(|id| rates.regular_rate(ChannelId(id), 1.0))
            .sum();
        let sum_hot: f64 = (0..topo.num_channels())
            .map(|id| rates.hot_rate(ChannelId(id), 1.0))
            .sum();
        assert!(
            (sum_reg - expected_reg).abs() < 1e-9,
            "{sum_reg} {expected_reg}"
        );
        assert!(
            (sum_hot - expected_hot).abs() < 1e-9,
            "{sum_hot} {expected_hot}"
        );
        // Channels incident to the failed router carry nothing.
        for dim in 0..topo.n() {
            for direction in [Direction::Plus, Direction::Minus] {
                let ch = Channel {
                    from: NodeId(12),
                    dim,
                    direction,
                };
                assert_eq!(rates.total_rate(ch.id(&topo), 1.0), 0.0);
            }
        }
    }

    #[test]
    fn ncube_rate_at_k2_matches_hypercube_levels() {
        // At k = 2 the hot dimension-d channel at distance 1 is the
        // hypercube's level-d hot channel: γ_d = λ h 2^d.
        let g = NCubeRates::new(2, 6, 2e-3, 0.4);
        for d in 0..6 {
            let expected = 2e-3 * 0.4 * (1u64 << d) as f64;
            assert!((g.hot_rate(d, 1) - expected).abs() < 1e-15);
            assert_eq!(g.hot_rate(d, 2), 0.0);
        }
    }
}
