//! Flit-level discrete event simulator for wormhole-routed k-ary n-cubes.
//!
//! This is the validation vehicle of §4 of the paper, rebuilt from the
//! architectural assumptions its model states (§2–3):
//!
//! * every node couples a router to its processing element through an
//!   injection and an ejection channel;
//! * each physical channel carries `V` virtual channels, each with its own
//!   flit buffer; the physical channel transmits **one flit per cycle**,
//!   time-multiplexed over its virtual channels (the network cycle is the
//!   transmission time of one flit);
//! * routing is deterministic dimension-order (dimension 0 first, then 1,
//!   and so on), deadlock-free by Dally–Seitz virtual-channel classes on
//!   every ring;
//! * sources have infinite injection queues and generate messages by a
//!   Poisson process; destinations drain arrived messages at channel rate.
//!
//! The engine is dimension-agnostic: router ports and virtual-channel
//! classes are indexed by the topology's channel ids, so one flit pipeline
//! serves any radix and dimension count — build a run with
//! [`SimConfig::ncube`] (the paper's 2-D torus is its `n = 2` instance; a
//! binary hypercube is `k = 2`).
//!
//! # Model
//!
//! The simulator is cycle-based with a compressed flit representation: a
//! virtual-channel buffer only ever holds flits of the single message the
//! VC is allocated to (wormhole invariant), so buffers are occupancy
//! counters rather than flit objects, and a message is a chain of held
//! virtual channels plus per-stage progress counters.  Determinism is
//! guaranteed by fixed phase ordering (generate → allocate → move →
//! complete), per-channel round-robin arbitration, FIFO virtual-channel
//! allocation and per-node seeded RNG streams — the same seed always
//! reproduces the same run, cycle for cycle.
//!
//! # Quick start
//!
//! ```
//! use kncube_sim::{SimConfig, Simulator};
//!
//! let config = SimConfig::ncube(8, 2, 2, 32, 1e-3, 0.2, 42)
//!     .with_limits(20_000, 5_000, 2_000);
//! let report = Simulator::new(config).unwrap().run();
//! assert!(report.completed > 0);
//! assert!(report.mean_latency > 32.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod engine;
pub mod message;
pub mod report;
pub mod stats;

pub use config::{
    EjectionPolicy, SimConfig, SimConfigError, FAULT_ROUTER_BUDGET_BYTES, MAX_FAULTY_SIM_NODES,
    MAX_SIM_NODES, SIM_STATE_BUDGET_BYTES,
};
pub use engine::Simulator;
pub use report::SimReport;
pub use stats::{BatchMeans, StreamingStats};
