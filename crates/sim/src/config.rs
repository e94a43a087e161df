//! Simulator configuration.

use kncube_topology::{
    Boundary, KAryNCube, LinkKind, NodeId, TopologyError, FAULT_ROUTER_BYTES_PER_PAIR,
    MAX_VIRTUAL_CHANNELS,
};
use kncube_traffic::{ArrivalProcess, FaultSpec, TrafficPattern};
use std::fmt;

/// Memory the simulator may spend on the fault router's per-pair tables.
pub const FAULT_ROUTER_BUDGET_BYTES: u64 = 1 << 30;

/// Largest network, in nodes, the simulator accepts with faults
/// configured.  The fault router stores [`FAULT_ROUTER_BYTES_PER_PAIR`]
/// bytes per ordered node pair, so `N² · 7 B` within
/// [`FAULT_ROUTER_BUDGET_BYTES`] gives `N ≤ 12 385`: a 16³ cube fits, a
/// 32³ cube (7 GiB of tables) does not.
pub const MAX_FAULTY_SIM_NODES: u64 =
    (FAULT_ROUTER_BUDGET_BYTES / FAULT_ROUTER_BYTES_PER_PAIR).isqrt();

/// How arrived messages leave the network at their destination.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum EjectionPolicy {
    /// Every arrived message drains into the local PE at one flit per
    /// cycle, independently of other arrivals — "messages are transferred
    /// to the local PE as soon as they arrive" (assumption iv).  This is
    /// the reading the analytical model's `Lm` drain term corresponds to.
    #[default]
    PerMessageSink,
    /// A single ejection channel per node: one flit per cycle total,
    /// round-robin over the messages draining at the node (ablation
    /// `ABL-EJECT`).
    SharedChannel,
}

/// Full configuration of a simulation run.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Radix `k` (nodes per dimension).
    pub k: u32,
    /// Dimension count `n` (the paper validates `n = 2`; the simulator is
    /// general).
    pub n: u32,
    /// Link kind (the paper's analysis is unidirectional; bidirectional
    /// links route the shorter way around each ring).
    pub link_kind: LinkKind,
    /// Boundary condition (torus with wrap-around, or mesh without; meshes
    /// require bidirectional links).
    pub boundary: Boundary,
    /// Optional fault injection: router/link failure probabilities sampled
    /// deterministically from the master seed.  When set, routing runs on
    /// the fault-aware shortest-path router and messages whose endpoints
    /// cannot communicate are dropped at generation (counted in the
    /// report).
    pub faults: Option<FaultSpec>,
    /// Virtual channels per physical channel (`V >= 2` for deadlock-free
    /// torus routing).
    pub virtual_channels: u32,
    /// Flit capacity of each virtual-channel buffer.
    ///
    /// The default is 2: one slot covering the flit in flight plus one
    /// covering the single-cycle credit return, which is the minimum that
    /// sustains one flit/cycle through a pipeline — the rate the paper's
    /// cycle definition and the model's `Lm` terms assume.  Depth 1 is
    /// accepted (halves sustained bandwidth; ablation `ABL-BUF`).
    pub buffer_depth: u32,
    /// Message length in flits.
    pub message_length: u32,
    /// Per-node arrival process (rate `λ` messages/cycle).
    pub arrivals: ArrivalProcess,
    /// Destination pattern.
    pub pattern: TrafficPattern,
    /// Ejection model.
    pub ejection: EjectionPolicy,
    /// Master RNG seed.
    pub seed: u64,
    /// Cycles to run before statistics collection starts (messages born
    /// during warm-up never enter the statistics).
    pub warmup_cycles: u64,
    /// Hard stop: total cycles simulated (warm-up included).
    pub max_cycles: u64,
    /// Stop early once this many measured messages completed (0 = run to
    /// `max_cycles`).
    pub target_messages: u64,
    /// Consider the run saturated if any source queue exceeds this many
    /// waiting messages (0 disables the check).
    pub max_source_queue: usize,
}

/// Configuration errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimConfigError {
    /// Underlying topology rejected the parameters.
    Topology(TopologyError),
    /// A parameter is out of range.
    Invalid(&'static str),
    /// The message length or buffer depth does not fit the engine's
    /// 16-bit packed virtual-channel fields (`value >= 2^16`).
    PackedFieldTooWide {
        /// `"message_length"` or `"buffer_depth"`.
        field: &'static str,
        /// The configured value.
        value: u32,
    },
    /// The longest route needs `stages` pipeline stages (injection plus
    /// one per hop), more than the 16-bit packed stage field counts
    /// (`stages >= 2^16`).
    ChainTooLong {
        /// Stages of the longest route.
        stages: u32,
    },
}

/// Exclusive bound of the engine's 16-bit packed virtual-channel fields
/// (message length, buffer count, chain stage).
pub(crate) const PACKED_FIELD_LIMIT: u32 = 1 << 16;

impl fmt::Display for SimConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimConfigError::Topology(e) => write!(f, "topology: {e}"),
            SimConfigError::Invalid(msg) => write!(f, "invalid simulator config: {msg}"),
            SimConfigError::PackedFieldTooWide { field, value } => write!(
                f,
                "{field} {value} does not fit the simulator's 16-bit packed fields \
                 (must be < {PACKED_FIELD_LIMIT})"
            ),
            SimConfigError::ChainTooLong { stages } => write!(
                f,
                "the longest route needs {stages} chain stages; \
                 the simulator's 16-bit stage field holds fewer than {PACKED_FIELD_LIMIT}"
            ),
        }
    }
}

impl std::error::Error for SimConfigError {}

impl SimConfig {
    /// A generalized k-ary n-cube hot-spot run: a unidirectional cube of
    /// radix `k` and dimension count `n`, Poisson sources of rate
    /// `lambda`, Pfister–Norton hot-spot pattern with fraction `h` towards
    /// node 0 (uniform traffic when `h` is 0), fixed `lm`-flit messages.
    ///
    /// The engine itself is dimension-agnostic — router ports and
    /// Dally–Seitz virtual-channel classes come from the topology's
    /// channel ids, so the same flit pipeline serves a ring (`n = 1`), the
    /// paper's torus (`n = 2`), a binary hypercube (`k = 2`) or any other
    /// cube.  Warm-up and run lengths default to values suitable for the
    /// paper's loads; tune with [`SimConfig::with_limits`].
    pub fn ncube(k: u32, n: u32, v: u32, lm: u32, lambda: f64, h: f64, seed: u64) -> Self {
        SimConfig {
            k,
            n,
            link_kind: LinkKind::Unidirectional,
            boundary: Boundary::Torus,
            faults: None,
            virtual_channels: v,
            buffer_depth: 2,
            message_length: lm,
            arrivals: ArrivalProcess::Poisson(lambda),
            pattern: if h != 0.0 {
                TrafficPattern::HotSpot { h, hot: NodeId(0) }
            } else {
                TrafficPattern::Uniform
            },
            ejection: EjectionPolicy::PerMessageSink,
            seed,
            warmup_cycles: 100_000,
            max_cycles: 2_000_000,
            target_messages: 60_000,
            max_source_queue: 2_000,
        }
    }

    /// Override run lengths: `max_cycles`, `warmup_cycles` and the early
    /// stop at `target_messages` measured completions.
    pub fn with_limits(mut self, max_cycles: u64, warmup_cycles: u64, target: u64) -> Self {
        self.max_cycles = max_cycles;
        self.warmup_cycles = warmup_cycles;
        self.target_messages = target;
        self
    }

    /// Override the link kind and boundary condition.
    pub fn with_topology(mut self, link_kind: LinkKind, boundary: Boundary) -> Self {
        self.link_kind = link_kind;
        self.boundary = boundary;
        self
    }

    /// Enable fault injection with the given failure probabilities.
    pub fn with_faults(mut self, spec: FaultSpec) -> Self {
        self.faults = Some(spec);
        self
    }

    /// Build the topology this configuration describes.
    pub fn topology(&self) -> Result<KAryNCube, SimConfigError> {
        KAryNCube::with_boundary(self.k, self.n, self.link_kind, self.boundary)
            .map_err(SimConfigError::Topology)
    }

    /// Validate parameter ranges.
    pub fn validate(&self) -> Result<(), SimConfigError> {
        let nodes = u64::from(self.k).checked_pow(self.n);
        if let Some(spec) = self.faults {
            if !spec.is_valid() {
                return Err(SimConfigError::Invalid(
                    "fault probabilities must lie in [0, 1]",
                ));
            }
            if nodes.is_none_or(|nodes| nodes > MAX_FAULTY_SIM_NODES) {
                return Err(SimConfigError::Invalid(
                    "fault injection needs N x N fault-router tables: network above MAX_FAULTY_SIM_NODES",
                ));
            }
        }
        if self.virtual_channels < 1 {
            return Err(SimConfigError::Invalid("need at least 1 virtual channel"));
        }
        if self.virtual_channels > MAX_VIRTUAL_CHANNELS {
            return Err(SimConfigError::Invalid(
                "more virtual channels than MAX_VIRTUAL_CHANNELS",
            ));
        }
        if self.buffer_depth < 1 {
            return Err(SimConfigError::Invalid("buffer depth must be >= 1"));
        }
        if self.message_length < 1 {
            return Err(SimConfigError::Invalid("messages need at least 1 flit"));
        }
        for (field, value) in [
            ("message_length", self.message_length),
            ("buffer_depth", self.buffer_depth),
        ] {
            if value >= PACKED_FIELD_LIMIT {
                return Err(SimConfigError::PackedFieldTooWide { field, value });
            }
        }
        if self.warmup_cycles >= self.max_cycles {
            return Err(SimConfigError::Invalid(
                "warm-up must be shorter than the total run",
            ));
        }
        if !self.arrivals.rate().is_finite() || self.arrivals.rate() < 0.0 {
            return Err(SimConfigError::Invalid("arrival rate must be >= 0"));
        }
        if let ArrivalProcess::OnOff {
            rate_on,
            mean_on,
            mean_off,
        } = self.arrivals
        {
            // The burst sampler loops forever unless bursts have a
            // positive length and both phases end.
            if ![rate_on, mean_on, mean_off].iter().all(|x| x.is_finite())
                || rate_on < 0.0
                || mean_on <= 0.0
                || mean_off < 0.0
            {
                return Err(SimConfigError::Invalid(
                    "on-off arrivals need finite rate_on >= 0, mean_on > 0 and mean_off >= 0",
                ));
            }
        }
        if let TrafficPattern::HotSpot { h, hot } = self.pattern {
            if !(0.0..=1.0).contains(&h) {
                return Err(SimConfigError::Invalid(
                    "hot-spot fraction h must lie in [0, 1]",
                ));
            }
            if nodes.is_some_and(|nodes| u64::from(hot.0) >= nodes) {
                return Err(SimConfigError::Invalid("hot-spot node outside the network"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_torus_defaults_are_valid() {
        let c = SimConfig::ncube(16, 2, 2, 32, 1e-4, 0.2, 1);
        assert!(c.validate().is_ok());
        assert_eq!(c.topology().unwrap().num_nodes(), 256);
        assert!(matches!(c.pattern, TrafficPattern::HotSpot { .. }));
    }

    #[test]
    fn ncube_constructor_covers_cubes_and_hypercubes() {
        let c = SimConfig::ncube(8, 3, 2, 16, 1e-4, 0.2, 1);
        assert!(c.validate().is_ok());
        let t = c.topology().unwrap();
        assert_eq!((t.k(), t.n(), t.num_nodes()), (8, 3, 512));
        // A binary hypercube is the 2-ary n-cube.
        let hc = SimConfig::ncube(2, 6, 2, 16, 1e-4, 0.2, 1);
        assert_eq!(hc.topology().unwrap().num_nodes(), 64);
    }

    #[test]
    fn zero_h_becomes_uniform() {
        let c = SimConfig::ncube(8, 2, 2, 32, 1e-4, 0.0, 1);
        assert_eq!(c.pattern, TrafficPattern::Uniform);
    }

    #[test]
    fn rejects_bad_parameters() {
        let base = SimConfig::ncube(8, 2, 2, 32, 1e-4, 0.2, 1);
        let mut c = base;
        c.virtual_channels = 0;
        assert!(c.validate().is_err());
        let mut c = base;
        c.buffer_depth = 0;
        assert!(c.validate().is_err());
        let mut c = base;
        c.message_length = 0;
        assert!(c.validate().is_err());
        let mut c = base;
        c.warmup_cycles = c.max_cycles;
        assert!(c.validate().is_err());
        let mut c = base;
        c.k = 1;
        assert!(c.topology().is_err());
    }

    #[test]
    fn hot_spot_and_on_off_parameters_are_typed_errors() {
        let base = SimConfig::ncube(4, 2, 2, 8, 1e-3, 0.2, 1);
        let h = |h| SimConfig::ncube(4, 2, 2, 8, 1e-3, h, 1);
        let on_off = |rate_on, mean_on, mean_off| SimConfig {
            arrivals: ArrivalProcess::OnOff {
                rate_on,
                mean_on,
                mean_off,
            },
            ..base
        };
        let hot_99 = SimConfig {
            pattern: TrafficPattern::HotSpot {
                h: 0.2,
                hot: NodeId(99),
            },
            ..base
        };
        let cases = [
            ("h = 1.5", h(1.5)),
            ("h = -0.5", h(-0.5)),
            ("h = NaN", h(f64::NAN)),
            ("hot node 99 of 16", hot_99),
            ("negative on-off means", on_off(1.0, -5.0, -10.0)),
            ("zero mean_on", on_off(1.0, 0.0, 10.0)),
            ("infinite mean_off", on_off(1.0, 5.0, f64::INFINITY)),
        ];
        for (name, cfg) in cases {
            assert!(
                matches!(cfg.validate(), Err(SimConfigError::Invalid(_))),
                "{name}: validate"
            );
            assert!(
                matches!(crate::Simulator::new(cfg), Err(SimConfigError::Invalid(_))),
                "{name}: Simulator::new"
            );
        }
        assert_eq!(h(0.0).pattern, TrafficPattern::Uniform);
        assert!(on_off(1.0, 5.0, 0.0).validate().is_ok());
    }

    #[test]
    fn fault_injection_is_capped_by_the_router_table_budget() {
        use kncube_traffic::FaultSpec;
        assert_eq!(MAX_FAULTY_SIM_NODES, 12_385);
        let faulty = |k, n| {
            SimConfig::ncube(k, n, 2, 16, 1e-4, 0.2, 1)
                .with_topology(LinkKind::Bidirectional, Boundary::Torus)
                .with_faults(FaultSpec::NONE)
        };
        // 16³ = 4096 nodes: 112 MiB of tables, accepted.
        assert!(faulty(16, 3).validate().is_ok());
        // 32³ = 32768 nodes: 7 GiB of tables, refused before anything is
        // allocated — by `validate` and by `Simulator::new`.
        assert!(matches!(
            faulty(32, 3).validate(),
            Err(SimConfigError::Invalid(_))
        ));
        assert!(matches!(
            crate::Simulator::new(faulty(32, 3)),
            Err(SimConfigError::Invalid(_))
        ));
        // k^n overflowing u64 is refused, not wrapped.
        assert!(faulty(1 << 16, 8).validate().is_err());
        // Without faults no router is built, so the cap does not apply.
        assert!(SimConfig::ncube(32, 3, 2, 16, 1e-4, 0.2, 1)
            .validate()
            .is_ok());
    }

    #[test]
    fn packed_field_overflow_is_a_typed_error() {
        let base = SimConfig::ncube(4, 2, 2, 16, 1e-4, 0.2, 1);
        let lm = |message_length| SimConfig {
            message_length,
            ..base
        };
        let depth = |buffer_depth| SimConfig {
            buffer_depth,
            ..base
        };
        assert!(lm(PACKED_FIELD_LIMIT - 1).validate().is_ok());
        assert!(depth(PACKED_FIELD_LIMIT - 1).validate().is_ok());
        assert_eq!(
            lm(PACKED_FIELD_LIMIT).validate(),
            Err(SimConfigError::PackedFieldTooWide {
                field: "message_length",
                value: 1 << 16
            })
        );
        assert_eq!(
            crate::Simulator::new(depth(u32::MAX)).err(),
            Some(SimConfigError::PackedFieldTooWide {
                field: "buffer_depth",
                value: u32::MAX
            })
        );
    }

    #[test]
    fn chains_longer_than_the_stage_field_are_a_typed_error() {
        // A unidirectional ring of k nodes has a (k-1)-hop route, so
        // k - 1 + 1 = k injection-plus-hop stages.
        let ring = |k| SimConfig::ncube(k, 1, 2, 16, 1e-4, 0.2, 1);
        assert_eq!(
            crate::Simulator::new(ring(PACKED_FIELD_LIMIT)).err(),
            Some(SimConfigError::ChainTooLong { stages: 1 << 16 })
        );
        // Bidirectional rings route the shorter way round: half the stages.
        let bi =
            ring(2 * PACKED_FIELD_LIMIT).with_topology(LinkKind::Bidirectional, Boundary::Torus);
        assert_eq!(
            crate::Simulator::new(bi).err(),
            Some(SimConfigError::ChainTooLong {
                stages: (1 << 16) + 1
            })
        );
        assert!(crate::Simulator::new(ring(PACKED_FIELD_LIMIT - 1)).is_ok());
    }

    #[test]
    fn with_limits_overrides() {
        let c = SimConfig::ncube(8, 2, 2, 32, 1e-4, 0.2, 1).with_limits(9, 3, 7);
        assert_eq!(
            (c.max_cycles, c.warmup_cycles, c.target_messages),
            (9, 3, 7)
        );
    }
}
