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
//! Everything is allocation-free on the hot paths so model evaluation
//! stays cheap inside parameter sweeps.  The formulas the models
//! evaluate per channel or per source, the blocking operator, the
//! multiplexing degree and the source-queue wait, also come in row forms
//! ([`blocking_delays`], [`multiplexing_factors`], [`waiting_times`])
//! that run four `[f64; 4]` lanes per step through the scalar form's own
//! branch-free body.  The optimizer packs
//! those lanes into two-lane SSE2 `divpd`/`mulpd` on the baseline x86-64
//! target, which is where the models spend their divisions.  The row
//! forms add no operation, reorder none and fuse none (no `mul_add`, no
//! target feature), so every answer is the scalar one bit for bit on
//! every host; `tests/properties.rs` checks this lane by lane.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blocking;
pub mod fixed_point;
pub mod mg1;
pub mod vc_multiplex;

pub use blocking::{blocking_delay, blocking_delays, weighted_service, TrafficClass};
pub use fixed_point::{solve, Acceleration, FixedPointError, FixedPointReport};
pub use mg1::{utilization, waiting_time, waiting_time_clamped, waiting_times, Saturated};
pub use vc_multiplex::{multiplexing_factor, multiplexing_factors, occupancy_distribution};

/// `if cond { picked } else { other }` without a branch: both values are
/// already computed and a mask of `cond` picks one's bits.  With an `if`
/// the optimizer may sink the computation of a value used on one side
/// only into that side's branch, and a branch per lane keeps the lanes
/// of a row form from being packed.
#[inline(always)]
pub(crate) fn select(cond: bool, picked: f64, other: f64) -> f64 {
    let mask = (cond as u64).wrapping_neg();
    f64::from_bits((picked.to_bits() & mask) | (other.to_bits() & !mask))
}
