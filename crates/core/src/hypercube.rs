//! Hot-spot latency model for the binary hypercube — the paper's closest
//! prior work (reference \[12\]: Loucif & Ould-Khaoua, "Modelling latency
//! in deterministic wormhole-routed hypercubes under hot-spot traffic",
//! J. Supercomputing 27(3), 2004), rebuilt with the same methodology as
//! the torus model so the two can be compared side by side — and so the
//! generalized k-ary n-cube solver ([`crate::ncube`]) can be
//! cross-validated against an independently-derived closed form at
//! `k = 2` (the facade's cross-validation suite holds them to within
//! `1e-9` of each other).
//!
//! # Setting
//!
//! An `n`-dimensional binary hypercube (`N = 2^n` nodes) is the 2-ary
//! n-cube: every node has one outgoing channel per dimension (flipping one
//! address bit).  Deterministic e-cube routing corrects address bits in
//! ascending dimension order — exactly [`kncube_topology`]'s
//! dimension-order routing at `k = 2`, so the flit-level simulator runs
//! this network natively.
//!
//! # Hot-spot channel rates
//!
//! With the hot node `H` and e-cube routing, the dimension-`i` channel out
//! of node `u` carries hot-spot traffic **iff** `u` matches `H` on bits
//! `0..i` except bit `i` itself (`u_i ≠ H_i`, lower bits already
//! corrected).  The hot sources feeding it are the `2^i` nodes sharing
//! `u`'s upper bits, so its hot rate is
//!
//! ```text
//! γ_i = λ h 2^i        (one "level-i" hot channel per upper-bit pattern)
//! ```
//!
//! Half of all hot-spot traffic funnels through the single level-`(n-1)`
//! channel into `H`, giving the hypercube saturation bound
//! `λ* ≈ 2 / (h N (Lm + 1))` — the hypercube analogue of the torus
//! flit-bound, verified against the simulator in the tests.
//!
//! Regular (uniform) traffic loads every channel equally at
//! `λ_r = λ (1-h) / 2` — the torus model's Eq. (3) convention
//! `λ_r = λ(1-h)·(k-1)/2` at `k = 2` (the paper averages the per-dimension
//! hop count over all destinations *including* the source; the exact
//! uniform-destination rate would carry an extra `N/(N-1)`).
//!
//! # Composition
//!
//! Blocking, source-queue waits and virtual-channel multiplexing reuse the
//! torus model's operators (Eqs. 26–30, 33–35 of the paper) with the
//! pipelined channel service time `Lm + 1`, composed exactly as the
//! generalized solver composes them: regular messages by *entry family*
//! (first dimension moved × hot/non-hot entry ring, exact `N-1`
//! denominators) and hot messages per source position (one per address
//! mask), each scaled by the multiplexing degree of its entry channel.
//! Because the `Lm + 1` service time is load-independent, everything
//! evaluates in closed form — no fixed-point iteration is needed.

use crate::ncube::{ModelError, NCubeConfig, NCubeModel, RHO_CAP};
use kncube_queueing::blocking::{blocking_delay, channel_utilization, TrafficClass};
use kncube_queueing::mg1;
use kncube_queueing::vc_multiplex::multiplexing_factor;

/// Hot-spot latency model for the `n`-dimensional binary hypercube.
///
/// ```
/// use kncube_core::HypercubeModel;
/// let model = HypercubeModel::new(8, 2, 32, 1e-4, 0.2).unwrap();
/// let out = model.solve().unwrap();
/// assert!(out.latency >= model.zero_load_latency());
/// assert!(out.hot_latency > out.regular_latency);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct HypercubeModel {
    /// Dimension count `n` (`N = 2^n` nodes).
    pub n: u32,
    /// Virtual channels per physical channel.
    pub virtual_channels: u32,
    /// Message length in flits.
    pub message_length: u32,
    /// Per-node generation rate, messages/cycle.
    pub lambda: f64,
    /// Hot-spot fraction `h`.
    pub hot_fraction: f64,
}

/// Solved hypercube latencies and diagnostics.
#[derive(Clone, Debug)]
pub struct HypercubeOutput {
    /// Mean message latency, cycles.
    pub latency: f64,
    /// Mean latency of regular messages.
    pub regular_latency: f64,
    /// Mean latency of hot-spot messages.
    pub hot_latency: f64,
    /// Mean source-queue wait (averaged over the `N` sources).
    pub source_wait: f64,
    /// Largest channel utilization (level `n-1` hot channel).
    pub max_utilization: f64,
    /// Per-level blocking delays seen by hot messages (`B_i`).
    pub hot_blocking: Vec<f64>,
}

impl HypercubeModel {
    /// Build the model; `n` in `1..=20`, and V, Lm, h and λ in the
    /// ranges [`NCubeModel::new`] accepts.
    pub fn new(
        n: u32,
        virtual_channels: u32,
        message_length: u32,
        lambda: f64,
        hot_fraction: f64,
    ) -> Result<Self, ModelError> {
        if n == 0 || n > 20 {
            return Err(ModelError::BadConfig("n must be in 1..=20".into()));
        }
        // The closed-form twin (the 2-ary n-cube) owns the V, Lm, h and λ
        // ranges.
        NCubeModel::new(NCubeConfig::new(
            2,
            n,
            virtual_channels,
            message_length,
            lambda,
            hot_fraction,
        ))?;
        Ok(HypercubeModel {
            n,
            virtual_channels,
            message_length,
            lambda,
            hot_fraction,
        })
    }

    /// Node count `N = 2^n`.
    pub fn num_nodes(&self) -> f64 {
        (1u64 << self.n) as f64
    }

    /// Regular traffic rate per channel, `λ_r = λ (1-h) / 2` — the torus
    /// Eq. (3) convention `λ(1-h)·(k-1)/2` at `k = 2`.
    pub fn regular_channel_rate(&self) -> f64 {
        self.lambda * (1.0 - self.hot_fraction) * 0.5
    }

    /// Hot-spot rate on a level-`i` hot channel, `γ_i = λ h 2^i`.
    pub fn hot_channel_rate(&self, level: u32) -> f64 {
        assert!(level < self.n);
        self.lambda * self.hot_fraction * (1u64 << level) as f64
    }

    /// Mean distance of a uniform destination, `n (N/2) / (N-1)` —
    /// the hypercube's Eq. (2) analogue.
    pub fn mean_distance(&self) -> f64 {
        let n_nodes = self.num_nodes();
        self.n as f64 * (n_nodes / 2.0) / (n_nodes - 1.0)
    }

    /// Zero-load latency: mean distance plus the message drain.
    pub fn zero_load_latency(&self) -> f64 {
        self.mean_distance() + self.message_length as f64
    }

    /// Evaluate the model.
    #[allow(clippy::needless_range_loop)] // i is the paper's level index
    pub fn solve(&self) -> Result<HypercubeOutput, ModelError> {
        let n = self.n as usize;
        let lm = self.message_length as f64;
        let service = lm + 1.0; // pipelined channel service
        let lr = self.regular_channel_rate();
        let n_nodes = self.num_nodes();
        let h = self.hot_fraction;

        // --- Saturation: the level-(n-1) channel into the hot node is the
        // binding resource.
        let mut max_util: f64 = channel_utilization(
            TrafficClass::new(lr, service),
            TrafficClass::new(self.hot_channel_rate(self.n - 1), service),
        );
        max_util = max_util.max(channel_utilization(
            TrafficClass::new(lr, service),
            TrafficClass::none(),
        ));
        if max_util >= 1.0 {
            return Err(ModelError::Saturated {
                max_utilization: max_util,
            });
        }

        // --- Per-level blocking: B_i at a level-i hot channel, b_plain at
        // a channel with no hot traffic.  A regular message crossing a
        // dimension whose ring is hot meets the hot channel at one of the
        // ring's two positions, uniformly: (B_i + b_plain)/2.
        let b_plain = blocking_delay(
            TrafficClass::new(lr, service),
            TrafficClass::none(),
            lm,
            RHO_CAP,
        );
        let hot_blocking: Vec<f64> = (0..self.n)
            .map(|i| {
                blocking_delay(
                    TrafficClass::new(lr, service),
                    TrafficClass::new(self.hot_channel_rate(i), service),
                    lm,
                    RHO_CAP,
                )
            })
            .collect();
        let b_hot_avg: Vec<f64> = hot_blocking.iter().map(|&b| (b + b_plain) / 2.0).collect();

        // --- Multiplexing degrees (Eqs. 33-35) per channel kind; the
        // hot-ring family average pairs the level channel with the ring's
        // hot-coordinate-outgoing channel, which carries no hot traffic.
        let v = self.virtual_channels;
        let vbar_plain = multiplexing_factor(lr * service, v);
        let vbar_level: Vec<f64> = (0..self.n)
            .map(|i| multiplexing_factor((lr + self.hot_channel_rate(i)) * service, v))
            .collect();
        let vbar_hot_avg: Vec<f64> = vbar_level.iter().map(|&f| (f + vbar_plain) / 2.0).collect();

        // --- Entry families (exact N-1 denominators): a regular message
        // enters at dimension d0 with probability 2^{n-1-d0}/(N-1); the
        // entry ring is hot iff the source matches the hot node below d0
        // (probability 2^{-d0}).  Conditional on the entry, each later
        // dimension is crossed with its 1/2 share folded into the expected
        // hop count, in a hot ring with probability 2^{-(d-d0)} iff the
        // entry ring was hot (bitwise independence of a uniform
        // destination).
        let p_entry = |d0: usize| (1u64 << (n - 1 - d0)) as f64 / (n_nodes - 1.0);
        let family = |d0: usize, hot: bool| -> f64 {
            let first = if hot { b_hot_avg[d0] } else { b_plain };
            let mut s = lm + 1.0 + first;
            for d in d0 + 1..n {
                let p_hot_ring = if hot {
                    0.5f64.powi((d - d0) as i32)
                } else {
                    0.0
                };
                s += 0.5
                    * (p_hot_ring * (1.0 + b_hot_avg[d]) + (1.0 - p_hot_ring) * (1.0 + b_plain));
            }
            s
        };
        let mut s_r_network = 0.0;
        for d0 in 0..n {
            let hot_share = 0.5f64.powi(d0 as i32);
            s_r_network += p_entry(d0)
                * (hot_share * family(d0, true) + (1.0 - hot_share) * family(d0, false));
        }

        // --- Per-source composition: one source per address mask.  A hot
        // message from mask `m` crosses the level-`i` hot channel for every
        // set bit `i`, paying `1 + B_i`; its entry channel is the level of
        // its lowest set bit.  Source-queue waits are M/G/1 at rate λ/V on
        // each node's own traffic mix (Eq. 32 per source).
        let vc_rate = self.lambda / v as f64;
        let wait = |s: f64| -> Result<f64, ModelError> {
            mg1::waiting_time(vc_rate, s, lm).map_err(|sat| ModelError::Saturated {
                max_utilization: sat.rho,
            })
        };
        let mut ws_sum = 0.0;
        let mut s_h_sum = 0.0;
        let masks = (1u64 << self.n) - 1;
        for mask in 1..=masks {
            let mut s_h_net = lm;
            let mut bits = mask;
            while bits != 0 {
                let i = bits.trailing_zeros() as usize;
                s_h_net += 1.0 + hot_blocking[i];
                bits &= bits - 1;
            }
            let d0 = mask.trailing_zeros() as usize;
            let w = wait((1.0 - h) * s_r_network + h * s_h_net)?;
            ws_sum += w;
            s_h_sum += (s_h_net + w) * vbar_level[d0];
        }
        let source_wait = (ws_sum + wait(s_r_network)?) / n_nodes;
        let hot_latency = s_h_sum / (n_nodes - 1.0);

        // --- Regular latency: the entry-family mix, each family scaled by
        // its entry channel family's multiplexing degree and carrying the
        // mean source wait once.
        let mut regular_latency = 0.0;
        for d0 in 0..n {
            let hot_share = 0.5f64.powi(d0 as i32);
            regular_latency += p_entry(d0)
                * (hot_share * (family(d0, true) + source_wait) * vbar_hot_avg[d0]
                    + (1.0 - hot_share) * (family(d0, false) + source_wait) * vbar_plain);
        }

        let latency = (1.0 - h) * regular_latency + h * hot_latency;

        Ok(HypercubeOutput {
            latency,
            regular_latency,
            hot_latency,
            source_wait,
            max_utilization: max_util,
            hot_blocking,
        })
    }

    /// The hypercube saturation bound `λ* ≈ 2/(h N (Lm+1))` (exact once
    /// the regular share of the binding channel is included).
    pub fn saturation_bound(&self) -> f64 {
        let lm1 = self.message_length as f64 + 1.0;
        let hot_share = self.hot_fraction * self.num_nodes() / 2.0;
        let reg_share = (1.0 - self.hot_fraction) * 0.5;
        1.0 / ((hot_share + reg_share) * lm1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_configs() {
        assert!(HypercubeModel::new(0, 2, 32, 1e-4, 0.2).is_err());
        assert!(HypercubeModel::new(8, 0, 32, 1e-4, 0.2).is_err());
        assert!(HypercubeModel::new(8, 2, 0, 1e-4, 0.2).is_err());
        assert!(HypercubeModel::new(8, 2, 32, 1e-4, 1.5).is_err());
        assert!(HypercubeModel::new(8, 2, 32, f64::NAN, 0.2).is_err());
    }

    #[test]
    fn zero_load_matches_mean_distance() {
        let m = HypercubeModel::new(8, 2, 32, 1e-12, 0.2).unwrap();
        let out = m.solve().unwrap();
        assert!(
            (out.latency - m.zero_load_latency()).abs() < 0.01,
            "latency {} vs zero-load {}",
            out.latency,
            m.zero_load_latency()
        );
        // Mean distance of the 256-node hypercube: 8·128/255 ≈ 4.0157.
        assert!((m.mean_distance() - 8.0 * 128.0 / 255.0).abs() < 1e-12);
    }

    #[test]
    fn hot_rates_double_per_level() {
        let m = HypercubeModel::new(6, 2, 32, 1e-3, 0.5).unwrap();
        for i in 0..5 {
            assert!((m.hot_channel_rate(i + 1) - 2.0 * m.hot_channel_rate(i)).abs() < 1e-15);
        }
        // Total hot traffic entering the hot node: Σ over levels of
        // (channels per level × rate) = Σ 2^{n-1-i}·λh2^i = n λh 2^{n-1}:
        // every hot message crosses ~n/2 of the levels... sanity: the
        // level-(n-1) channel alone carries λhN/2.
        assert!((m.hot_channel_rate(5) - 1e-3 * 0.5 * 32.0).abs() < 1e-15);
    }

    #[test]
    fn latency_monotone_in_load() {
        let mut prev = 0.0;
        for i in 1..=8 {
            let lambda = i as f64 * 2e-5;
            let out = HypercubeModel::new(8, 2, 32, lambda, 0.3)
                .unwrap()
                .solve()
                .unwrap();
            assert!(out.latency > prev);
            prev = out.latency;
        }
    }

    #[test]
    fn saturates_at_the_bound() {
        let m = HypercubeModel::new(8, 2, 32, 0.0, 0.3).unwrap();
        let bound = m.saturation_bound();
        let below = HypercubeModel::new(8, 2, 32, 0.95 * bound, 0.3).unwrap();
        assert!(below.solve().is_ok());
        let above = HypercubeModel::new(8, 2, 32, 1.05 * bound, 0.3).unwrap();
        assert!(above.solve().is_err());
    }

    #[test]
    fn hot_messages_pay_more_than_regular() {
        let out = HypercubeModel::new(8, 2, 32, 5e-5, 0.4)
            .unwrap()
            .solve()
            .unwrap();
        assert!(out.hot_latency > out.regular_latency);
        // Blocking grows monotonically with level (rates double).
        for w in out.hot_blocking.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    #[test]
    fn hypercube_saturates_later_than_torus_at_equal_n() {
        // 256 nodes: hypercube funnels λhN/2 through its worst channel,
        // the 16×16 torus funnels λh·k(k-1) = λh·240 — nearly twice as
        // much, so the torus saturates earlier.
        let hyper = HypercubeModel::new(8, 2, 32, 0.0, 0.2)
            .unwrap()
            .saturation_bound();
        let torus = crate::sweep::find_saturation_ncube(
            crate::NCubeConfig::new(16, 2, 2, 32, 0.0, 0.2),
            1e-8,
            1e-2,
            1e-3,
        )
        .expect("torus saturates inside the bracket");
        assert!(
            hyper > 1.5 * torus,
            "hypercube bound {hyper:.3e} vs torus λ* {torus:.3e}"
        );
    }
}
