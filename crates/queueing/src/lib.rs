//! Queueing-theoretic machinery for the analytical model.
//!
//! The IPDPS 2005 hot-spot model is a system of interdependent M/G/1-style
//! equations.  This crate provides the reusable pieces:
//!
//! * [`mg1`] — the M/G/1 mean waiting time with the Draper–Ghosh variance
//!   approximation `σ ≈ S - Lm` (Eq. 28 of the paper);
//! * [`blocking`] — the two-class blocking-delay operator
//!   `B(λ, γ, S_λ, S_γ)` of Eqs. (26)–(30);
//! * [`vc_multiplex`] — Dally's Markovian model of virtual-channel
//!   multiplexing (Eqs. 33–35), giving the average multiplexing degree `V̄`
//!   that scales all latencies;
//! * [`fixed_point`] — a Picard/Anderson fixed-point iterator with
//!   convergence and divergence detection, used to solve the
//!   interdependent equations ("the different variables of the model are
//!   computed using iterative techniques", §3).
//!
//! Everything is deliberately scalar and allocation-free on the hot paths so
//! model evaluation stays cheap inside parameter sweeps.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blocking;
pub mod fixed_point;
pub mod mg1;
pub mod vc_multiplex;

pub use blocking::{blocking_delay, weighted_service, TrafficClass};
pub use fixed_point::{solve, Acceleration, FixedPointError, FixedPointReport};
pub use mg1::{utilization, waiting_time, waiting_time_clamped, Saturated};
pub use vc_multiplex::{multiplexing_factor, occupancy_distribution};
