//! Destination patterns.
//!
//! The paper's validation uses two: **uniform** (every other node equally
//! likely) and the **hot-spot** model of Pfister & Norton \[20\] (each
//! message goes to the distinguished hot-spot node with probability `h`,
//! otherwise to a uniformly-random other node).  The hot-spot node itself
//! "generates only regular traffic" (§3, discussion before Eq. 32), so its
//! own messages are always uniform.
//!
//! One adversarial pattern rides along for the simulator's own tests:
//! tornado, the classic worst case for rings.

use kncube_topology::{KAryNCube, NodeId};
use rand::Rng;

/// Classification of a generated message, used to account latency per class
/// (the model predicts `S_r` and `S_h` separately, Eq. 10).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MessageClass {
    /// A message following the background (uniform) distribution.
    Regular,
    /// A message addressed to the hot-spot node by the hot-spot coin flip.
    HotSpot,
}

/// A destination pattern.
///
/// ```
/// use kncube_topology::{KAryNCube, NodeId};
/// use kncube_traffic::{MessageClass, TrafficPattern};
/// use rand::SeedableRng;
/// let t = KAryNCube::unidirectional(8, 2).unwrap();
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
/// let pattern = TrafficPattern::HotSpot { h: 1.0, hot: NodeId(9) };
/// let (dest, class) = pattern.pick_destination(&t, NodeId(0), &mut rng);
/// assert_eq!((dest, class), (NodeId(9), MessageClass::HotSpot));
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TrafficPattern {
    /// Uniform over the `N-1` other nodes.
    Uniform,
    /// Pfister–Norton hot-spot traffic: probability `h` to `hot`, else
    /// uniform over the other nodes (excluding the source).
    HotSpot {
        /// The hot-spot fraction `h` in `[0, 1]`.
        h: f64,
        /// The hot-spot node.
        hot: NodeId,
    },
    /// Tornado: `⌈k/2⌉ - 1` hops forward in every dimension — the classic
    /// adversary for rings.
    Tornado,
}

impl TrafficPattern {
    /// Draw a destination for a message generated at `src`, together with
    /// its class.
    ///
    /// Destinations never equal the source: patterns that would map a node
    /// to itself fall back to a uniform other node (and stay `Regular`).
    pub fn pick_destination<R: Rng + ?Sized>(
        &self,
        topo: &KAryNCube,
        src: NodeId,
        rng: &mut R,
    ) -> (NodeId, MessageClass) {
        match *self {
            TrafficPattern::Uniform => (uniform_other(topo, src, rng), MessageClass::Regular),
            TrafficPattern::HotSpot { h, hot } => {
                // The hot node itself generates only regular traffic.
                if src != hot && rng.gen_bool(h) {
                    (hot, MessageClass::HotSpot)
                } else {
                    (uniform_other(topo, src, rng), MessageClass::Regular)
                }
            }
            TrafficPattern::Tornado => {
                let offset = topo.k().div_ceil(2) - 1;
                let mut dest = src;
                for d in 0..topo.n() {
                    let c = (topo.coord(src, d) + offset) % topo.k();
                    dest = topo.with_coord(dest, d, c);
                }
                (
                    fallback_if_self(topo, src, dest, rng),
                    MessageClass::Regular,
                )
            }
        }
    }

    /// The hot-spot fraction of this pattern (`0` for all non-hot-spot
    /// patterns).
    pub fn hot_fraction(&self) -> f64 {
        match *self {
            TrafficPattern::HotSpot { h, .. } => h,
            _ => 0.0,
        }
    }
}

/// Uniform over all nodes except `src`.
fn uniform_other<R: Rng + ?Sized>(topo: &KAryNCube, src: NodeId, rng: &mut R) -> NodeId {
    let n = topo.num_nodes();
    let raw = rng.gen_range(0..n - 1);
    // Skip over the source without rejection sampling.
    NodeId(if raw >= src.0 { raw + 1 } else { raw })
}

fn fallback_if_self<R: Rng + ?Sized>(
    topo: &KAryNCube,
    src: NodeId,
    dest: NodeId,
    rng: &mut R,
) -> NodeId {
    if dest == src {
        uniform_other(topo, src, rng)
    } else {
        dest
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn torus(k: u32) -> KAryNCube {
        KAryNCube::unidirectional(k, 2).unwrap()
    }

    #[test]
    fn uniform_never_targets_self_and_covers_all_nodes() {
        let t = torus(4);
        let src = NodeId(5);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut seen = vec![0u32; t.num_nodes() as usize];
        for _ in 0..20_000 {
            let (d, class) = TrafficPattern::Uniform.pick_destination(&t, src, &mut rng);
            assert_ne!(d, src);
            assert_eq!(class, MessageClass::Regular);
            seen[d.index()] += 1;
        }
        assert_eq!(seen[src.index()], 0);
        // Every other node hit roughly 20000/15 ≈ 1333 times.
        for (i, &c) in seen.iter().enumerate() {
            if i != src.index() {
                assert!(c > 1000 && c < 1700, "node {i} hit {c} times");
            }
        }
    }

    #[test]
    fn hot_spot_frequency_matches_h() {
        let t = torus(4);
        let hot = NodeId(9);
        let src = NodeId(2);
        let h = 0.4;
        let mut rng = SmallRng::seed_from_u64(2);
        let trials = 50_000;
        let mut hot_count = 0;
        for _ in 0..trials {
            let (d, class) = TrafficPattern::HotSpot { h, hot }.pick_destination(&t, src, &mut rng);
            if class == MessageClass::HotSpot {
                assert_eq!(d, hot);
                hot_count += 1;
            }
        }
        let freq = hot_count as f64 / trials as f64;
        assert!((freq - h).abs() < 0.01, "hot frequency {freq} vs h={h}");
    }

    #[test]
    fn hot_node_generates_only_regular_traffic() {
        let t = torus(4);
        let hot = NodeId(9);
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..5_000 {
            let (d, class) =
                TrafficPattern::HotSpot { h: 0.9, hot }.pick_destination(&t, hot, &mut rng);
            assert_eq!(class, MessageClass::Regular);
            assert_ne!(d, hot, "hot node must not send to itself");
        }
    }

    #[test]
    fn regular_messages_under_hot_spot_are_uniform_over_others() {
        // The `1-h` share is uniform over all nodes but the source —
        // including the hot node itself (Pfister-Norton's definition).
        let t = torus(4);
        let hot = NodeId(0);
        let src = NodeId(7);
        let mut rng = SmallRng::seed_from_u64(4);
        let mut regular_to_hot = 0u32;
        let mut regular_total = 0u32;
        for _ in 0..60_000 {
            let (d, class) =
                TrafficPattern::HotSpot { h: 0.3, hot }.pick_destination(&t, src, &mut rng);
            if class == MessageClass::Regular {
                regular_total += 1;
                if d == hot {
                    regular_to_hot += 1;
                }
            }
        }
        let freq = regular_to_hot as f64 / regular_total as f64;
        let expected = 1.0 / 15.0;
        assert!(
            (freq - expected).abs() < 0.01,
            "regular-to-hot {freq} vs uniform share {expected}"
        );
    }

    #[test]
    fn tornado_offsets_every_dimension() {
        let t = torus(8);
        let src = t.node_at(&[6, 2]);
        let mut rng = SmallRng::seed_from_u64(9);
        let (d, _) = TrafficPattern::Tornado.pick_destination(&t, src, &mut rng);
        // ⌈8/2⌉-1 = 3 hops forward per dimension.
        assert_eq!(t.coords(d), vec![1, 5]);
    }

    #[test]
    fn tornado_fixed_points_fall_back_to_uniform() {
        // At k = 2 the tornado offset is 0 hops: every node maps to
        // itself and must draw a uniform other node instead.
        let t = torus(2);
        let src = NodeId(1);
        let mut rng = SmallRng::seed_from_u64(6);
        let mut seen = [0u32; 4];
        for _ in 0..300 {
            let (d, class) = TrafficPattern::Tornado.pick_destination(&t, src, &mut rng);
            assert_eq!(class, MessageClass::Regular);
            seen[d.index()] += 1;
        }
        assert_eq!(seen[src.index()], 0);
        assert!(seen.iter().filter(|&&c| c > 0).count() == 3, "{seen:?}");
    }

    #[test]
    fn zero_h_hot_spot_equals_uniform_distribution() {
        let t = torus(4);
        let hot = NodeId(1);
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..2_000 {
            let (_, class) =
                TrafficPattern::HotSpot { h: 0.0, hot }.pick_destination(&t, NodeId(6), &mut rng);
            assert_eq!(class, MessageClass::Regular);
        }
    }
}
