//! Rings of the torus.
//!
//! §3 of the paper views the 2-D torus "as a set of k rings along each
//! dimension": the *x-rings* (rings that travel in dimension `x`, one per
//! `y` coordinate) and the *y-rings* (rings that travel in dimension `y`,
//! one per `x` coordinate).  In general, a ring of dimension `d` is the set
//! of `k` nodes that share all coordinates except the one in `d`.

use crate::geometry::{KAryNCube, NodeId};

/// A ring of the torus: the `k` nodes sharing all coordinates except the one
/// in dimension [`Ring::dim`].
#[derive(Clone, Debug)]
pub struct Ring {
    /// Dimension the ring travels in.
    pub dim: u32,
    /// The member nodes, ordered by their coordinate in `dim`.
    pub nodes: Vec<NodeId>,
}

impl KAryNCube {
    /// The ring of dimension `dim` containing `node`.
    pub fn ring_of(&self, node: NodeId, dim: u32) -> Ring {
        let nodes = (0..self.k())
            .map(|c| self.with_coord(node, dim, c))
            .collect();
        Ring { dim, nodes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn ring_membership_2d() {
        let t = KAryNCube::unidirectional(4, 2).unwrap();
        let node = t.node_at(&[2, 1]);
        // x-ring (dim 0): all nodes with y = 1.
        let xr = t.ring_of(node, 0);
        assert_eq!(xr.nodes.len(), 4);
        for (i, &m) in xr.nodes.iter().enumerate() {
            assert_eq!(t.coords(m), vec![i as u32, 1]);
        }
        // y-ring (dim 1): all nodes with x = 2.
        let yr = t.ring_of(node, 1);
        for (i, &m) in yr.nodes.iter().enumerate() {
            assert_eq!(t.coords(m), vec![2, i as u32]);
        }
    }

    #[test]
    fn ring_ids_partition_nodes() {
        // The rings of one dimension partition the nodes into `N/k` sets
        // of `k` members each.
        let t = KAryNCube::unidirectional(5, 3).unwrap();
        for dim in 0..t.n() {
            let mut rings: HashSet<Vec<NodeId>> = HashSet::new();
            for node in t.nodes() {
                let ring = t.ring_of(node, dim);
                assert_eq!(ring.dim, dim);
                assert_eq!(ring.nodes.len(), t.k() as usize);
                assert!(ring.nodes.contains(&node));
                rings.insert(ring.nodes);
            }
            assert_eq!(rings.len(), (t.num_nodes() / t.k()) as usize);
            let members: HashSet<NodeId> = rings.into_iter().flatten().collect();
            assert_eq!(members.len(), t.num_nodes() as usize);
        }
    }

    #[test]
    fn same_ring_agrees_with_ring_of() {
        // Two nodes share a ring exactly when they agree on every
        // coordinate but the ring's dimension.
        let t = KAryNCube::unidirectional(3, 2).unwrap();
        for a in t.nodes() {
            for dim in 0..t.n() {
                let ring = t.ring_of(a, dim);
                for b in t.nodes() {
                    let same = (0..t.n()).all(|d| d == dim || t.coord(a, d) == t.coord(b, d));
                    assert_eq!(same, ring.nodes.contains(&b));
                }
            }
        }
    }
}
