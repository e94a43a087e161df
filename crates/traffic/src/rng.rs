//! Deterministic per-node random-number generators.
//!
//! Every node derives its own `SmallRng` from a master seed and its node id
//! through a SplitMix64 mixing step, so (a) nodes generate traffic
//! independently (assumption (i)) and (b) an entire experiment is
//! reproducible from a single seed regardless of the order in which nodes
//! are stepped.

use kncube_topology::NodeId;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// SplitMix64 step: the standard 64-bit finalizer used to decorrelate
/// sequential seeds.
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The RNG for `node` under `master_seed`.
pub fn node_rng(master_seed: u64, node: NodeId) -> SmallRng {
    let mixed = splitmix64(master_seed ^ splitmix64(node.0 as u64 + 1));
    SmallRng::seed_from_u64(mixed)
}

/// An auxiliary RNG stream for `node` (e.g. one stream for arrivals and one
/// for destinations), decorrelated from [`node_rng`] by a stream index.
pub fn node_stream_rng(master_seed: u64, node: NodeId, stream: u64) -> SmallRng {
    let mixed =
        splitmix64(master_seed ^ splitmix64(node.0 as u64 + 1) ^ splitmix64(0xABCD_EF01 + stream));
    SmallRng::seed_from_u64(mixed)
}

/// The master seed of replication `rep` of an experiment seeded with
/// `master_seed`.
///
/// This is the seed-derivation rule behind the sweep cells of the
/// `validation` and `bursty` binaries, so independent replications of
/// the same experiment never collide and the same `(master_seed, rep)`
/// pair always names the same workload.  Replication 0 is `master_seed`
/// itself, so replication 0 is identical to a plain run with the master
/// seed.
pub fn replication_seed(master_seed: u64, rep: u32) -> u64 {
    if rep == 0 {
        master_seed
    } else {
        // A distinct domain constant keeps the replication stream
        // decorrelated from the node and stream derivations above.
        splitmix64(master_seed ^ splitmix64(0x5EED_0000_0000_0000 + rep as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_seed_same_stream() {
        let mut a = node_rng(42, NodeId(7));
        let mut b = node_rng(42, NodeId(7));
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_nodes_diverge() {
        let mut a = node_rng(42, NodeId(7));
        let mut b = node_rng(42, NodeId(8));
        let same = (0..100)
            .filter(|_| a.gen::<u64>() == b.gen::<u64>())
            .count();
        assert_eq!(same, 0);
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = node_rng(1, NodeId(0));
        let mut b = node_rng(2, NodeId(0));
        let same = (0..100)
            .filter(|_| a.gen::<u64>() == b.gen::<u64>())
            .count();
        assert_eq!(same, 0);
    }

    #[test]
    fn replication_zero_is_the_master_seed() {
        assert_eq!(replication_seed(42, 0), 42);
        assert_eq!(replication_seed(7, 0), 7);
    }

    #[test]
    fn replications_diverge_and_are_stable() {
        let seeds: Vec<u64> = (0..64).map(|r| replication_seed(42, r)).collect();
        for (i, &a) in seeds.iter().enumerate() {
            for &b in seeds.iter().skip(i + 1) {
                assert_ne!(a, b, "replication seeds must not collide");
            }
        }
        // Deterministic: the derivation is a pure function.
        assert_eq!(replication_seed(42, 5), replication_seed(42, 5));
        // Different masters give different replication streams.
        assert_ne!(replication_seed(1, 3), replication_seed(2, 3));
    }

    #[test]
    fn streams_diverge() {
        let mut a = node_stream_rng(9, NodeId(3), 0);
        let mut b = node_stream_rng(9, NodeId(3), 1);
        let same = (0..100)
            .filter(|_| a.gen::<u64>() == b.gen::<u64>())
            .count();
        assert_eq!(same, 0);
    }
}
