//! The paper's primary contribution: an analytical model of mean message
//! latency in deterministically-routed k-ary n-cubes under hot-spot traffic
//! (Loucif, Ould-Khaoua & Min, IPDPS 2005).
//!
//! The paper instantiates the analysis for the 2-D unidirectional torus
//! (`k`-ary 2-cube) with dimension-order (x-then-y) wormhole routing,
//! `V >= 2` virtual channels per physical channel, fixed `Lm`-flit
//! messages, Poisson sources of rate `λ` messages/node/cycle, and the
//! Pfister–Norton hot-spot destination model with hot fraction `h`.  This
//! crate carries the model at full generality — radix *and* dimension as
//! parameters — behind one closed-form API:
//!
//! * [`NCubeModel`] — the model for any `(k, n)`; the paper's torus is
//!   `n = 2`;
//! * [`HypercubeModel`] — the closed-form binary-hypercube model
//!   (reference \[12\]), which [`NCubeModel`] reproduces at `k = 2`;
//! * [`FaultyNCubeModel`] — the same queueing chain over the surviving
//!   routes of a faulty (or bidirectional / mesh) network.
//!
//! # Quick start
//!
//! ```
//! use kncube_core::{NCubeConfig, NCubeModel};
//!
//! // The paper's 16-ary 2-cube…
//! let torus = NCubeModel::new(NCubeConfig::new(16, 2, 2, 32, 1e-4, 0.2)).unwrap();
//! assert!(torus.solve().unwrap().latency > 32.0); // at least the message length
//!
//! // …and an 8-ary 3-cube.
//! let cube = NCubeModel::new(NCubeConfig::new(8, 3, 2, 32, 1e-5, 0.2)).unwrap();
//! assert!(cube.solve().unwrap().latency > 32.0);
//! ```
//!
//! # Structure
//!
//! * [`rates`] — channel traffic rates, Eqs. (1)–(9) for any `(k, n)`,
//!   and the exact per-channel rates of a faulty network;
//! * [`probabilities`] — the entry families of regular messages, the
//!   n-dimensional aggregation of the route cases of Eqs. (11)–(15), (22),
//!   (24) and (31)–(32);
//! * [`ncube`] — the fixed-point solver and latency composition
//!   (Eqs. 10–37), its configuration and error types;
//! * [`hypercube`] — the binary-hypercube comparison model (closed form);
//! * [`uniform`] — an independently-derived uniform-traffic baseline (the
//!   `h → 0` sanity anchor);
//! * [`faulty`] — the faulty-network model: the same queueing chain over
//!   the exact surviving-route substrate of a fault-aware router, which
//!   also covers the bidirectional and mesh geometries;
//! * [`sweep`] — saturation search by bisection, warm-started across
//!   probes;
//! * [`cache`] — the quantization lattice of batched queries, and a memo of
//!   faulty-network solves behind it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod faulty;
pub mod hypercube;
pub mod ncube;
pub mod probabilities;
pub mod rates;
pub mod sweep;
pub mod uniform;

pub use cache::SolveCache;
pub use faulty::{FaultyNCubeConfig, FaultyNCubeModel, FaultyNCubeOutput};
pub use hypercube::{HypercubeModel, HypercubeOutput};
pub use ncube::{
    ModelError, ModelVariant, MultiplexingModel, NCubeConfig, NCubeModel, NCubeOutput,
    ServiceTimeModel, MAX_VIRTUAL_CHANNELS,
};
pub use probabilities::{entry_cases, EntryCase};
pub use rates::{FaultyChannelRates, NCubeRates};
pub use sweep::{
    bisect_saturation, find_saturation_ncube, find_saturation_ncube_report, SaturationError,
    SaturationReport,
};
pub use uniform::UniformModel;

#[cfg(test)]
mod tests {
    use super::*;
    use kncube_topology::{FaultSet, KAryNCube};

    /// Every model checks V through `NCubeModel::new` on its closed-form
    /// twin, so all four refuse the same values with the same message.
    #[test]
    fn every_model_refuses_out_of_range_virtual_channels_alike() {
        let bi_torus = KAryNCube::bidirectional(4, 2).unwrap();
        for v in [0, MAX_VIRTUAL_CHANNELS + 1] {
            let message = |result: Result<(), ModelError>| match result {
                Err(ModelError::BadConfig(message)) => message,
                other => panic!("V = {v}: {other:?}"),
            };
            let messages = [
                message(NCubeModel::new(NCubeConfig::new(4, 2, v, 16, 1e-4, 0.2)).map(drop)),
                message(
                    FaultyNCubeModel::new(FaultyNCubeConfig::new(
                        FaultSet::none(bi_torus),
                        v,
                        16,
                        1e-4,
                        0.2,
                    ))
                    .map(drop),
                ),
                message(HypercubeModel::new(4, v, 16, 1e-4, 0.2).map(drop)),
                message(UniformModel::new(4, v, 16, 1e-4).solve().map(drop)),
            ];
            for m in &messages {
                assert_eq!(
                    *m,
                    format!("virtual channels must be in 1..={MAX_VIRTUAL_CHANNELS}"),
                    "V = {v}"
                );
            }
        }
    }
}
