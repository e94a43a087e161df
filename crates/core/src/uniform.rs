//! Independently-derived uniform-traffic baseline model.
//!
//! Before the hot-spot model, the literature (Dally \[4\], Draper & Ghosh
//! \[6\], Ould-Khaoua \[18\]) modelled deterministically-routed k-ary
//! n-cubes under *uniform* traffic.  This module implements such a model
//! for the 2-D unidirectional torus from first principles — deliberately
//! *not* by setting `h = 0` in the hot-spot solver — so the two
//! implementations can cross-validate each other (see the `h → 0` tests in
//! the facade crate).
//!
//! Structure: with uniform traffic every channel of a dimension carries the
//! same rate `λ_c = λ k̄` and the per-channel service-time recursions
//! collapse to one family per dimension:
//!
//! ```text
//! S_y,j = 1 + B(λ_c, S_y,k̄) + { Lm            j = 1
//!                              { S_y,j-1       j > 1
//! S_x,j = 1 + B(λ_c, S_x,k̄) + { Lm/k + (1-1/k)·S_y,k̄   j = 1
//!                              { S_x,j-1                 j > 1
//! ```
//!
//! (after the last x channel a message is done with probability `1/k` —
//! its destination shares the source's y coordinate — and otherwise
//! continues into its destination column).  The latency composition mixes
//! the two entrance cases `P(enter via x) = k/(k+1)`,
//! `P(y only) = 1/(k+1)`, adds the M/G/1 source wait at rate `λ/V`, and
//! scales by the multiplexing degree of Eqs. (33)–(35).

use crate::ncube::{ModelError, NCubeConfig, NCubeModel, ServiceTimeModel, RHO_CAP};
use kncube_queueing::blocking::{blocking_delay, channel_utilization, TrafficClass};
use kncube_queueing::fixed_point::{self, Acceleration, FixedPointError};
use kncube_queueing::mg1;
use kncube_queueing::vc_multiplex::multiplexing_factor;

/// The uniform-traffic baseline model.
///
/// ```
/// use kncube_core::UniformModel;
/// let model = UniformModel::new(16, 2, 32, 5e-4);
/// let out = model.solve().unwrap();
/// // Light uniform load: slightly above the contention-free latency.
/// assert!(out.latency > out.network_latency - 1e-9);
/// assert!(out.latency < 80.0);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct UniformModel {
    /// Radix of the `k × k` unidirectional torus.
    pub k: u32,
    /// Virtual channels per physical channel.
    pub virtual_channels: u32,
    /// Message length in flits.
    pub message_length: u32,
    /// Per-node generation rate, messages/cycle.
    pub lambda: f64,
    /// Channel service-time model (see [`ServiceTimeModel`]).
    pub service_model: ServiceTimeModel,
}

/// Solved baseline latency and diagnostics.
#[derive(Clone, Copy, Debug)]
pub struct UniformOutput {
    /// Mean message latency in cycles.
    pub latency: f64,
    /// Mean network latency (no source wait, no multiplexing scaling).
    pub network_latency: f64,
    /// Source-queue wait.
    pub source_wait: f64,
    /// Average multiplexing degree.
    pub vbar: f64,
    /// Channel utilization `λ_c · S` at the solution.
    pub utilization: f64,
}

impl UniformModel {
    /// Construct with defaults mirroring [`crate::NCubeConfig::new`].
    pub fn new(k: u32, virtual_channels: u32, message_length: u32, lambda: f64) -> Self {
        UniformModel {
            k,
            virtual_channels,
            message_length,
            lambda,
            service_model: ServiceTimeModel::default(),
        }
    }

    /// Per-channel rate `λ_c = λ (k-1)/2`.
    pub fn channel_rate(&self) -> f64 {
        self.lambda * (self.k as f64 - 1.0) / 2.0
    }

    /// Solve the baseline model.  The closed-form twin (the same `k × k`
    /// torus at `h = 0`) owns the parameter ranges: a config
    /// [`NCubeModel::new`] refuses errs with its message.
    pub fn solve(&self) -> Result<UniformOutput, ModelError> {
        NCubeModel::new(NCubeConfig::new(
            self.k,
            2,
            self.virtual_channels,
            self.message_length,
            self.lambda,
            0.0,
        ))?;
        let k = self.k as usize;
        let m = k - 1;
        let kf = self.k as f64;
        let lm = self.message_length as f64;
        let lc = self.channel_rate();

        // Entrance-averaged channel *holding* time of a family (see
        // `ServiceTimeModel`): pipelined transfer `Lm + 1` by default, or
        // header-plus-remaining-path for the path-occupancy ablation.
        let service_model = self.service_model;
        let family_hold = move |family: &[f64]| -> f64 {
            match service_model {
                ServiceTimeModel::PipelinedTransfer => lm + 1.0,
                ServiceTimeModel::PathOccupancy => {
                    1.0 + (lm + family[..m - 1].iter().sum::<f64>()) / m as f64
                }
            }
        };

        // State: [S_y,1..m  |  S_x,1..m (x-only)  |  S_xy,1..m (x then y)].
        let mut initial = vec![0.0; 3 * m];
        for j in 1..=m {
            initial[j - 1] = j as f64 + lm;
            initial[m + j - 1] = j as f64 + lm;
            initial[2 * m + j - 1] = j as f64 + lm + kf / 2.0;
        }
        let report = fixed_point::solve(initial, Acceleration::Picard, |state, next| {
            let h_y = family_hold(&state[0..m]);
            let h_x = family_hold(&state[m..2 * m]);
            let s_y_k = state[0..m].iter().sum::<f64>() / m as f64;
            let b_y = blocking_delay(
                TrafficClass::new(lc, h_y),
                TrafficClass::none(),
                lm,
                RHO_CAP,
            );
            let b_x = blocking_delay(
                TrafficClass::new(lc, h_x),
                TrafficClass::none(),
                lm,
                RHO_CAP,
            );
            // Gauss-Seidel within the sweep: the chains are exact given the
            // blocking terms (see the solver's update for the rationale).
            for j in 1..=m {
                next[j - 1] = 1.0 + b_y + if j == 1 { lm } else { next[j - 2] };
                next[m + j - 1] = 1.0 + b_x + if j == 1 { lm } else { next[m + j - 2] };
                let tail = if j == 1 { s_y_k } else { next[2 * m + j - 2] };
                next[2 * m + j - 1] = 1.0 + b_x + tail;
            }
        })
        .map_err(|e| match e {
            FixedPointError::NonFinite | FixedPointError::NotConverged => ModelError::NotConverged,
        })?;

        let state = &report.state;
        let s_y_k = state[0..m].iter().sum::<f64>() / m as f64;
        let s_x_k = state[m..2 * m].iter().sum::<f64>() / m as f64;
        let s_xy_k = state[2 * m..3 * m].iter().sum::<f64>() / m as f64;
        let h_y = family_hold(&state[0..m]);
        let h_x = family_hold(&state[m..2 * m]);

        let util = channel_utilization(TrafficClass::new(lc, h_x.max(h_y)), TrafficClass::none());
        if util >= 1.0 {
            return Err(ModelError::Saturated {
                max_utilization: util,
            });
        }

        // Entrance mix: P(y only) = 1/(k+1); P(enter via x) = k/(k+1),
        // splitting 1/k x-only vs (k-1)/k continuing into y.
        let p_x = kf / (kf + 1.0);
        let p_y = 1.0 / (kf + 1.0);
        let network_latency = p_x * (s_x_k / kf + (1.0 - 1.0 / kf) * s_xy_k) + p_y * s_y_k;

        let vc_rate = self.lambda / self.virtual_channels as f64;
        let source_wait = mg1::waiting_time(vc_rate, network_latency, lm).map_err(|sat| {
            ModelError::Saturated {
                max_utilization: sat.rho,
            }
        })?;

        let vbar_x = multiplexing_factor(lc * h_x, self.virtual_channels);
        let vbar_y = multiplexing_factor(lc * h_y, self.virtual_channels);
        let vbar = (vbar_x + vbar_y) / 2.0;

        Ok(UniformOutput {
            latency: (network_latency + source_wait) * vbar,
            network_latency,
            source_wait,
            vbar,
            utilization: util,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_load_is_hops_plus_length() {
        let m = UniformModel::new(16, 2, 32, 1e-9);
        let out = m.solve().unwrap();
        // Zero-load family latencies: one-dimension trips average
        // k/2 + Lm; x-then-y trips average k + Lm. Composed over the
        // entrance mix:
        let kf = 16.0;
        let one = kf / 2.0 + 32.0;
        let two = kf + 32.0;
        let expected =
            (kf / (kf + 1.0)) * (one / kf + (1.0 - 1.0 / kf) * two) + (1.0 / (kf + 1.0)) * one;
        assert!(
            (out.latency - expected).abs() < 0.1,
            "latency {} vs {}",
            out.latency,
            expected
        );
    }

    #[test]
    fn latency_monotone_in_load_until_saturation() {
        let mut prev = 0.0;
        for i in 1..=10 {
            let lambda = i as f64 * 1e-4;
            let out = UniformModel::new(16, 2, 32, lambda).solve().unwrap();
            assert!(out.latency > prev);
            prev = out.latency;
        }
    }

    #[test]
    fn saturates_when_channel_utilization_reaches_one() {
        // λ_c·(Lm+1) = λ·7.5·33 → saturation at λ* ≈ 4.04e-3.
        assert!(UniformModel::new(16, 2, 32, 2e-3).solve().is_ok());
        assert!(UniformModel::new(16, 2, 32, 4.5e-3).solve().is_err());
    }

    #[test]
    fn uniform_traffic_outlives_hot_spot_loads() {
        // The whole point of the paper: hot spots saturate the network at a
        // small fraction of the uniform-traffic capacity. The uniform model
        // is perfectly happy at λ = 1e-3 where h=0.2 hot-spot traffic
        // long since collapsed.
        assert!(UniformModel::new(16, 2, 32, 1e-3).solve().is_ok());
    }
}
