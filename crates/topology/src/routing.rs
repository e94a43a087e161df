//! Deterministic dimension-order routing and deadlock-avoidance classes.
//!
//! Assumption (v) of the paper: routing is deterministic, messages cross
//! dimensions in a fixed order — dimension `x` (0) first, then `y` (1).
//! Within a dimension a message follows the ring (always `+1 mod k` in the
//! unidirectional case) until its coordinate matches the destination's.
//!
//! Assumption (vi): each physical channel carries `V >= 2` virtual channels
//! so that wrap-around links do not create cyclic channel dependencies.
//! We implement the Dally–Seitz *dating* scheme \[5\]: within a ring a
//! message uses the **high** virtual-channel class while its current
//! coordinate is below the destination coordinate (it will not cross the
//! wrap-around link any more) and the **low** class otherwise.  The
//! resulting channel ordering is acyclic, which is the classical
//! deadlock-freedom argument for wormhole tori.

use crate::channel::{Channel, Direction};
use crate::geometry::{KAryNCube, NodeId};

/// Largest number of virtual channels per physical channel that the
/// models and the simulator accept.  Every model configuration can then
/// also be simulated, and the model's per-channel work stays bounded.
pub const MAX_VIRTUAL_CHANNELS: u32 = 64;

/// Dally–Seitz virtual-channel class within a ring.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum VcClass {
    /// Used while `current coordinate < destination coordinate`: the
    /// remaining path in this ring does not cross the wrap-around link.
    High,
    /// Used while `current coordinate > destination coordinate`: the
    /// remaining path still crosses the wrap-around link.
    Low,
}

impl VcClass {
    /// Class for a hop in a ring from coordinate `cur` towards `dest`
    /// (coordinates in `0..k`; `cur != dest` for a real hop).
    ///
    /// For `Plus`-direction travel the wrap-around is the `k-1 → 0` link, so
    /// the remaining path wraps iff `cur > dest`; for `Minus`-direction
    /// travel the wrap-around is `0 → k-1`, so it wraps iff `cur < dest`.
    #[inline]
    pub fn for_hop(cur: u32, dest: u32, direction: Direction) -> VcClass {
        debug_assert_ne!(cur, dest);
        let wraps = match direction {
            Direction::Plus => cur > dest,
            Direction::Minus => cur < dest,
        };
        if wraps {
            VcClass::Low
        } else {
            VcClass::High
        }
    }

    /// 0 for `High`, 1 for `Low` — used to index VC groups.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            VcClass::High => 0,
            VcClass::Low => 1,
        }
    }
}

/// One hop of a deterministic route.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Hop {
    /// The physical channel crossed.
    pub channel: Channel,
    /// The Dally–Seitz virtual-channel class required on that channel.
    pub vc_class: VcClass,
}

/// A complete dimension-order route.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DorRoute {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dest: NodeId,
    /// The hops in traversal order (empty iff `src == dest`).
    pub hops: Vec<Hop>,
}

impl DorRoute {
    /// Number of channels crossed.
    pub fn len(&self) -> usize {
        self.hops.len()
    }

    /// True iff the route crosses no channel (`src == dest`).
    pub fn is_empty(&self) -> bool {
        self.hops.is_empty()
    }
}

impl KAryNCube {
    /// Direction of travel for dimension `dim` from `src` to `dest` under
    /// this topology's link kind and boundary, or `None` if no movement is
    /// needed.
    pub fn travel_direction(&self, src: NodeId, dest: NodeId, dim: u32) -> Option<Direction> {
        let (a, b) = (self.coord(src, dim), self.coord(dest, dim));
        if a == b {
            return None;
        }
        Some(if self.ring_offset_routed(a, b) > 0 {
            Direction::Plus
        } else {
            Direction::Minus
        })
    }

    /// Compute the full dimension-order route from `src` to `dest`:
    /// dimension 0 (`x`) first, then dimension 1 (`y`), and so on.
    ///
    /// ```
    /// use kncube_topology::KAryNCube;
    /// let t = KAryNCube::unidirectional(4, 2).unwrap();
    /// let route = t.dor_route(t.node_at(&[3, 1]), t.node_at(&[1, 2]));
    /// // x: 3→1 wraps (2 hops), then y: 1→2 (1 hop).
    /// assert_eq!(route.len(), 3);
    /// assert!(route.hops[..2].iter().all(|h| h.channel.dim == 0));
    /// assert_eq!(route.hops[2].channel.dim, 1);
    /// ```
    pub fn dor_route(&self, src: NodeId, dest: NodeId) -> DorRoute {
        let mut hops = Vec::with_capacity(self.hop_count(src, dest) as usize);
        let mut cur = src;
        for dim in 0..self.n() {
            let target = self.coord(dest, dim);
            while self.coord(cur, dim) != target {
                let direction = self
                    .travel_direction(cur, dest, dim)
                    .expect("coordinate differs, so a direction exists");
                let vc_class = VcClass::for_hop(self.coord(cur, dim), target, direction);
                let channel = Channel {
                    from: cur,
                    dim,
                    direction,
                };
                hops.push(Hop { channel, vc_class });
                cur = channel.to(self);
            }
        }
        debug_assert_eq!(cur, dest);
        DorRoute { src, dest, hops }
    }

    /// The next hop of the dimension-order route at `cur` heading for
    /// `dest`, or `None` when `cur == dest`.  This is the incremental form
    /// used by the simulator's routing stage; it agrees hop-for-hop with
    /// [`KAryNCube::dor_route`].
    pub fn dor_next_hop(&self, cur: NodeId, dest: NodeId) -> Option<Hop> {
        for dim in 0..self.n() {
            let target = self.coord(dest, dim);
            if self.coord(cur, dim) != target {
                let direction = self.travel_direction(cur, dest, dim)?;
                let vc_class = VcClass::for_hop(self.coord(cur, dim), target, direction);
                return Some(Hop {
                    channel: Channel {
                        from: cur,
                        dim,
                        direction,
                    },
                    vc_class,
                });
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_reaches_destination_and_matches_hop_count() {
        let t = KAryNCube::unidirectional(4, 2).unwrap();
        for src in t.nodes() {
            for dest in t.nodes() {
                let route = t.dor_route(src, dest);
                assert_eq!(route.len() as u32, t.hop_count(src, dest));
                let mut cur = src;
                for hop in &route.hops {
                    assert_eq!(hop.channel.from, cur);
                    cur = hop.channel.to(&t);
                }
                assert_eq!(cur, dest);
            }
        }
    }

    #[test]
    fn route_is_dimension_ordered() {
        let t = KAryNCube::unidirectional(5, 3).unwrap();
        let src = t.node_at(&[4, 2, 1]);
        let dest = t.node_at(&[1, 0, 3]);
        let route = t.dor_route(src, dest);
        let dims: Vec<u32> = route.hops.iter().map(|h| h.channel.dim).collect();
        let mut sorted = dims.clone();
        sorted.sort_unstable();
        assert_eq!(dims, sorted, "hops must be grouped by ascending dimension");
    }

    #[test]
    fn incremental_routing_agrees_with_full_route() {
        let t = KAryNCube::unidirectional(4, 2).unwrap();
        for src in t.nodes() {
            for dest in t.nodes() {
                let route = t.dor_route(src, dest);
                let mut cur = src;
                for hop in &route.hops {
                    let next = t.dor_next_hop(cur, dest).expect("hop expected");
                    assert_eq!(&next, hop);
                    cur = next.channel.to(&t);
                }
                assert_eq!(t.dor_next_hop(cur, dest), None);
            }
        }
    }

    #[test]
    fn vc_class_switches_exactly_at_wraparound() {
        let t = KAryNCube::unidirectional(8, 1).unwrap();
        // Route 5 → 2 wraps: hops at coords 5,6,7 are Low, then 0,1 High.
        let route = t.dor_route(t.node_at(&[5]), t.node_at(&[2]));
        let classes: Vec<VcClass> = route.hops.iter().map(|h| h.vc_class).collect();
        assert_eq!(
            classes,
            vec![
                VcClass::Low,
                VcClass::Low,
                VcClass::Low,
                VcClass::High,
                VcClass::High
            ]
        );
        // Route 2 → 5 does not wrap: all High.
        let route = t.dor_route(t.node_at(&[2]), t.node_at(&[5]));
        assert!(route.hops.iter().all(|h| h.vc_class == VcClass::High));
    }

    #[test]
    fn vc_class_never_returns_to_low_after_high() {
        // Once a message stops needing the wrap-around in a ring it must
        // stay in the High class — the heart of the deadlock argument.
        let t = KAryNCube::unidirectional(9, 2).unwrap();
        for src in t.nodes() {
            for dest in t.nodes() {
                let route = t.dor_route(src, dest);
                for dim in 0..t.n() {
                    let mut seen_high = false;
                    for hop in route.hops.iter().filter(|h| h.channel.dim == dim) {
                        match hop.vc_class {
                            VcClass::High => seen_high = true,
                            VcClass::Low => assert!(!seen_high, "Low after High in dim {dim}"),
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn bidirectional_routes_take_shortest_way() {
        let t = KAryNCube::bidirectional(8, 2).unwrap();
        let src = t.node_at(&[0, 0]);
        let dest = t.node_at(&[6, 3]);
        let route = t.dor_route(src, dest);
        // x: 0→6 is 2 hops backwards; y: 0→3 is 3 hops forwards.
        assert_eq!(route.len(), 5);
        assert_eq!(t.hop_count(src, dest), 5);
        assert!(route.hops[0].channel.direction == Direction::Minus);
        assert!(route.hops[2].channel.direction == Direction::Plus);
    }

    #[test]
    fn mesh_routes_are_minimal_and_never_wrap() {
        let m = KAryNCube::mesh(5, 2).unwrap();
        for src in m.nodes() {
            for dest in m.nodes() {
                let route = m.dor_route(src, dest);
                assert_eq!(route.len() as u32, m.hop_count(src, dest));
                let mut cur = src;
                for hop in &route.hops {
                    assert!(m.channel_exists(hop.channel), "mesh route used a wrap link");
                    // No wrap-around exists, so no hop ever needs the Low
                    // (dating) class — the mesh is deadlock-free on High
                    // alone.
                    assert_eq!(hop.vc_class, VcClass::High);
                    assert_eq!(hop.channel.from, cur);
                    cur = hop.channel.to(&m);
                }
                assert_eq!(cur, dest);
            }
        }
    }

    #[test]
    fn mesh_incremental_routing_agrees_with_full_route() {
        let m = KAryNCube::mesh(4, 3).unwrap();
        for src in m.nodes() {
            for dest in m.nodes() {
                let route = m.dor_route(src, dest);
                let mut cur = src;
                for hop in &route.hops {
                    let next = m.dor_next_hop(cur, dest).expect("hop expected");
                    assert_eq!(&next, hop);
                    cur = next.channel.to(&m);
                }
                assert_eq!(m.dor_next_hop(cur, dest), None);
            }
        }
    }

    #[test]
    fn hot_spot_paths_cross_expected_channels() {
        // Spot-check the geometry reasoning used in Eqs. (4)-(5): for the
        // unidirectional 2-D torus, every hot-spot message travels x-first
        // within its own x-ring, then down the hot y-ring.
        let t = KAryNCube::unidirectional(4, 2).unwrap();
        let hot = t.node_at(&[1, 2]);
        for src in t.nodes() {
            if src == hot {
                continue;
            }
            let route = t.dor_route(src, hot);
            for hop in &route.hops {
                if hop.channel.dim == 1 {
                    // All y-dimension hops happen inside the hot y-ring
                    // (x coordinate already equals the hot node's).
                    assert_eq!(t.coord(hop.channel.from, 0), t.coord(hot, 0));
                }
            }
        }
    }
}
