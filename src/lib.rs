//! # kncube — hot-spot traffic in deterministically-routed k-ary n-cubes
//!
//! A from-scratch reproduction of *Loucif, Ould-Khaoua & Min, "Analytical
//! Modelling of Hot-Spot Traffic in Deterministically-Routed K-Ary
//! N-Cubes", IPDPS 2005*: the first analytical model of mean message
//! latency for dimension-order wormhole routing under Pfister–Norton
//! hot-spot traffic, together with the flit-level simulator used to
//! validate it — carried at full generality, with radix `k` *and*
//! dimension count `n` as first-class parameters.  The paper's 2-D
//! unidirectional torus is the `n = 2` instance, and the binary hypercube
//! of its reference \[12\] is the `k = 2` instance (within `1e-9`, by
//! test — see `tests/cross_validation.rs`).
//!
//! This facade re-exports the workspace crates:
//!
//! * [`topology`] — k-ary n-cube geometry, dimension-order routing,
//!   Dally–Seitz virtual-channel classes, fault sets and the fault-aware
//!   router;
//! * [`traffic`] — Poisson and bursty sources, destination patterns
//!   (uniform, hot-spot, tornado) and fault-set sampling;
//! * [`queueing`] — M/G/1 waits, the blocking operator, Dally's
//!   virtual-channel multiplexing model, fixed-point machinery
//!   (Eqs. 26–30, 33–35);
//! * [`model`] — channel rates (Eqs. 1–9 and their product-over-rings
//!   generalization), the latency model for any `(k, n)` (`NCubeModel`),
//!   the faulty-network model, the hypercube comparison model and the
//!   uniform-traffic baseline;
//! * [`sim`] — the cycle-accurate wormhole simulator (§4's validation
//!   vehicle), dimension-agnostic by construction.
//!
//! ## Reproduce the paper in three lines
//!
//! ```
//! use kncube::model::{NCubeConfig, NCubeModel};
//!
//! // Figure 1, h = 20%: N = 256 (16×16) torus, V = 2, Lm = 32 flits.
//! let cfg = NCubeConfig::new(16, 2, 2, 32, 3e-4, 0.2);
//! let latency = NCubeModel::new(cfg).unwrap().solve().unwrap().latency;
//! assert!(latency > 32.0 && latency < 200.0);
//! ```
//!
//! And the matching simulation:
//!
//! ```no_run
//! use kncube::sim::{SimConfig, Simulator};
//!
//! let cfg = SimConfig::ncube(16, 2, 2, 32, 3e-4, 0.2, 42);
//! let report = Simulator::new(cfg).unwrap().run();
//! println!("simulated: {report}");
//! ```
//!
//! ## Beyond the paper: any `(k, n)`
//!
//! ```
//! use kncube::model::{NCubeConfig, NCubeModel};
//! use kncube::sim::SimConfig;
//!
//! // An 8-ary 3-cube (512 nodes) under 20% hot-spot traffic…
//! let model = NCubeModel::new(NCubeConfig::new(8, 3, 2, 16, 1e-4, 0.2)).unwrap();
//! assert!(model.solve().unwrap().latency > 16.0);
//! // …and the matching simulator configuration.
//! let sim_cfg = SimConfig::ncube(8, 3, 2, 16, 1e-4, 0.2, 42);
//! assert_eq!(sim_cfg.topology().unwrap().num_nodes(), 512);
//! ```
//!
//! See `DESIGN.md` for the system inventory and the reconstruction notes
//! (the paper's equations are OCR-damaged; every reconstruction decision
//! is documented and justified against the figures), and `EXPERIMENTS.md`
//! for the paper-vs-measured record of every figure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use kncube_core as model;
pub use kncube_queueing as queueing;
pub use kncube_sim as sim;
pub use kncube_topology as topology;
pub use kncube_traffic as traffic;

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compose() {
        // A request flowing through all the crates via the facade.
        let topo = crate::topology::KAryNCube::unidirectional(4, 2).unwrap();
        assert_eq!(topo.num_nodes(), 16);
        let cases = crate::model::entry_cases(4, 2);
        let total: f64 = cases.iter().map(|c| c.probability).sum();
        assert!((total - 1.0).abs() < 1e-12);
        let w = crate::queueing::mg1::waiting_time(0.001, 33.0, 32.0).unwrap();
        assert!(w > 0.0);
    }

    #[test]
    fn facade_generalized_entry_points_compose() {
        // The generalized model and entry families through the facade.
        for (k, n) in [(4u32, 3u32), (8, 3), (4, 4), (16, 2)] {
            let cases = crate::model::entry_cases(k, n);
            let total: f64 = cases.iter().map(|c| c.probability).sum();
            assert!((total - 1.0).abs() < 1e-12, "k={k} n={n}");
            let cfg = crate::model::NCubeConfig::new(k, n, 2, 16, 1e-6, 0.2);
            let out = crate::model::NCubeModel::new(cfg).unwrap().solve().unwrap();
            assert!(out.latency > 16.0);
        }
    }
}
