//! Traffic generation for k-ary n-cube experiments.
//!
//! Implements assumptions (i)–(iii) of the paper's model:
//!
//! * nodes generate messages independently, following a Poisson process
//!   with mean rate `λ` messages/cycle ([`arrival`]);
//! * destinations follow the hot-spot model of Pfister & Norton \[20\]:
//!   with probability `h` a message is directed to the hot-spot node, with
//!   probability `1-h` to a uniformly-random other node ([`patterns`]);
//! * message length is a fixed `Lm` flits.
//!
//! Beyond the paper's two patterns (uniform and hot-spot) the crate ships
//! the tornado pattern, the classic adversary for rings, and a bursty
//! on-off arrival process for the paper's non-Poissonian future work.
//!
//! All randomness flows through [`rand`]'s `SmallRng`, seeded per node from
//! a single master seed ([`rng`]), making every workload fully reproducible
//! from `(master_seed, node)`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrival;
pub mod faults;
pub mod patterns;
pub mod rng;
pub mod workload;

pub use arrival::{ArrivalProcess, ArrivalSampler};
pub use faults::{sample_fault_set, FaultSpec};
pub use patterns::{MessageClass, TrafficPattern};
pub use rng::{node_rng, replication_seed};
pub use workload::{GeneratedMessage, NodeWorkload, WorkloadConfig};
