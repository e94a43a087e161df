//! Per-node workload generation: arrivals × destinations.
//!
//! Arrivals are generated by *gap sampling*: instead of flipping a coin
//! every cycle, the generator samples the time to the next arrival directly
//! (exponential gaps for the Poisson process and within on-off bursts).
//! This is exact — the resulting point process is the same — and lets the
//! simulator skip idle cycles entirely, which matters at the paper's loads
//! (`λ` down to 10⁻⁵ messages/node/cycle).

use crate::arrival::{ArrivalProcess, ArrivalSampler};
use crate::patterns::{MessageClass, TrafficPattern};
use crate::rng::{node_rng, node_stream_rng};
use kncube_topology::{KAryNCube, NodeId};
use rand::rngs::SmallRng;

/// Static description of a workload, shared by all nodes.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadConfig {
    /// Arrival process per node (rate `λ` messages/cycle).
    pub arrivals: ArrivalProcess,
    /// Destination pattern.
    pub pattern: TrafficPattern,
    /// Master seed; per-node streams are derived deterministically.
    pub seed: u64,
    /// Cycles the run lasts: arrivals at or after this cycle are never
    /// generated, so the sampler may stop walking on-off phases there.
    pub horizon: u64,
}

/// A message emitted by a workload generator, before it enters the network.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GeneratedMessage {
    /// Source node.
    pub src: NodeId,
    /// Destination node (never equals `src`).
    pub dest: NodeId,
    /// Regular or hot-spot, per the pattern's coin flip.
    pub class: MessageClass,
    /// Cycle at which the message was generated.
    pub birth_cycle: u64,
}

/// The traffic generator of a single node.
#[derive(Clone, Debug)]
pub struct NodeWorkload {
    node: NodeId,
    config: WorkloadConfig,
    arrival_rng: SmallRng,
    dest_rng: SmallRng,
    sampler: ArrivalSampler,
    /// Real-valued time of the next arrival (`f64::INFINITY` when the rate
    /// is zero).
    next_time: f64,
}

impl NodeWorkload {
    /// Build the generator for `node`.
    pub fn new(node: NodeId, config: WorkloadConfig) -> Self {
        let mut wl = NodeWorkload {
            node,
            config,
            arrival_rng: node_rng(config.seed, node),
            dest_rng: node_stream_rng(config.seed, node, 1),
            sampler: ArrivalSampler::new(config.arrivals, config.horizon as f64),
            next_time: 0.0,
        };
        // The first arrival is one gap from time zero.
        wl.next_time = wl.sampler.next_arrival_after(0.0, &mut wl.arrival_rng);
        wl
    }

    /// The node this generator belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The cycle of the next arrival, or `None` if the rate is zero.
    pub fn next_arrival_cycle(&self) -> Option<u64> {
        if self.next_time.is_finite() {
            Some(self.next_time as u64)
        } else {
            None
        }
    }

    /// Generate every message arriving in cycle `cycle`, appending them to
    /// `out`.  Must be driven with non-decreasing cycles; cycles before the
    /// next arrival simply produce nothing, so skipping idle cycles is
    /// sound as long as the caller never jumps *past* an arrival
    /// (use [`NodeWorkload::next_arrival_cycle`]).
    pub fn generate_into(&mut self, topo: &KAryNCube, cycle: u64, out: &mut Vec<GeneratedMessage>) {
        debug_assert!(
            self.next_time.is_infinite() || self.next_time as u64 >= cycle,
            "workload driven past an arrival: next {} < cycle {cycle}",
            self.next_time
        );
        while self.next_time < (cycle + 1) as f64 {
            let (dest, class) =
                self.config
                    .pattern
                    .pick_destination(topo, self.node, &mut self.dest_rng);
            out.push(GeneratedMessage {
                src: self.node,
                dest,
                class,
                birth_cycle: cycle,
            });
            self.next_time = self
                .sampler
                .next_arrival_after(self.next_time, &mut self.arrival_rng);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(lambda: f64, seed: u64) -> WorkloadConfig {
        WorkloadConfig {
            arrivals: ArrivalProcess::Poisson(lambda),
            pattern: TrafficPattern::HotSpot {
                h: 0.2,
                hot: NodeId(0),
            },
            seed,
            horizon: u64::MAX,
        }
    }

    #[test]
    fn generation_is_reproducible() {
        let t = KAryNCube::unidirectional(8, 2).unwrap();
        let mut a = NodeWorkload::new(NodeId(5), config(0.05, 42));
        let mut b = NodeWorkload::new(NodeId(5), config(0.05, 42));
        let mut out_a = Vec::new();
        let mut out_b = Vec::new();
        for cycle in 0..5_000 {
            a.generate_into(&t, cycle, &mut out_a);
            b.generate_into(&t, cycle, &mut out_b);
        }
        assert_eq!(out_a, out_b);
        assert!(!out_a.is_empty());
    }

    #[test]
    fn observed_rate_matches_lambda() {
        let t = KAryNCube::unidirectional(8, 2).unwrap();
        let lambda = 0.02;
        let cycles = 100_000u64;
        let mut w = NodeWorkload::new(NodeId(3), config(lambda, 7));
        let mut out = Vec::new();
        for cycle in 0..cycles {
            w.generate_into(&t, cycle, &mut out);
        }
        let rate = out.len() as f64 / cycles as f64;
        assert!(
            (rate - lambda).abs() < 0.002,
            "observed rate {rate} vs λ {lambda}"
        );
    }

    #[test]
    fn skipping_idle_cycles_is_equivalent() {
        // Driving only the cycles `next_arrival_cycle` names produces the
        // same messages as driving every cycle.
        let t = KAryNCube::unidirectional(8, 2).unwrap();
        let mut dense = NodeWorkload::new(NodeId(9), config(0.003, 11));
        let mut sparse = NodeWorkload::new(NodeId(9), config(0.003, 11));
        let mut out_dense = Vec::new();
        for cycle in 0..200_000 {
            dense.generate_into(&t, cycle, &mut out_dense);
        }
        let mut out_sparse = Vec::new();
        while let Some(cycle) = sparse.next_arrival_cycle() {
            if cycle >= 200_000 {
                break;
            }
            sparse.generate_into(&t, cycle, &mut out_sparse);
        }
        assert_eq!(out_dense, out_sparse);
    }

    #[test]
    fn zero_rate_never_arrives() {
        let w = NodeWorkload::new(NodeId(0), config(0.0, 3));
        assert_eq!(w.next_arrival_cycle(), None);
    }

    #[test]
    fn different_nodes_generate_independent_streams() {
        let t = KAryNCube::unidirectional(8, 2).unwrap();
        let mut a = NodeWorkload::new(NodeId(1), config(0.5, 42));
        let mut b = NodeWorkload::new(NodeId(2), config(0.5, 42));
        let mut out_a = Vec::new();
        let mut out_b = Vec::new();
        for cycle in 0..1_000 {
            a.generate_into(&t, cycle, &mut out_a);
            b.generate_into(&t, cycle, &mut out_b);
        }
        let dests_a: Vec<NodeId> = out_a.iter().map(|m| m.dest).collect();
        let dests_b: Vec<NodeId> = out_b.iter().map(|m| m.dest).collect();
        assert_ne!(dests_a, dests_b);
    }
}
