//! The fault-regime cross-validation suite: the faulty-network
//! analytical model ([`FaultyNCubeModel`]) against the flit-level
//! simulator on bidirectional tori and meshes, across fault densities
//! {0, 2, 5, 10}% — the headline gate of the faulty-model extension.
//!
//! The protocol is [`kncube_bench::validate`], shared with the
//! `faulty_model` binary: one fault set per density shared by model and
//! simulator (their reachability censuses must agree exactly), the
//! simulator's instrumentation offset calibrated at 5% of λ*, and each
//! calibrated prediction held to the load-dependent agreement factor —
//! 1.2× at 0.45·λ*, 2× at 0.85·λ* — with the batch-means 95% CI band as
//! an absolute override.  Samples without the deadlock-freedom
//! certificate are only driven through 0.7·λ*.
//!
//! The empty-fault-set reduction (faulty model ≡ closed-form `NCubeModel`,
//! bitwise) is pinned here as well; `tests/degenerate_k2.rs` carries the
//! `k = 2` bidirectional↔unidirectional half.

use kncube::model::{FaultyNCubeConfig, FaultyNCubeModel, NCubeConfig, NCubeModel};
use kncube::topology::{Boundary, FaultSet, KAryNCube, LinkKind};
use kncube_bench::validate::{self, Grid, H, LM, V};

/// Run the shared protocol on one geometry and fail on any violation.
fn validate_geometry(name: &str, k: u32, n: u32, boundary: Boundary) {
    let topo =
        KAryNCube::with_boundary(k, n, LinkKind::Bidirectional, boundary).expect("valid topology");
    let grid = Grid {
        densities: &[0.0, 0.02, 0.05, 0.10],
        fracs: &[0.45, 0.85],
        seed_base: 0x1AB0,
        cal_target: 1_500,
        target: 2_500,
        warmup: 15_000,
        min_completed: 1_000,
    };
    let violations = validate::sweep(name, topo, &grid).violations;
    assert!(
        violations.is_empty(),
        "{name}:\n  {}",
        violations.join("\n  ")
    );
}

#[test]
fn bitorus_8_2_model_tracks_the_simulator_across_fault_densities() {
    validate_geometry("8x8 bi-torus", 8, 2, Boundary::Torus);
}

#[test]
fn mesh_8_2_model_tracks_the_simulator_across_fault_densities() {
    validate_geometry("8x8 mesh", 8, 2, Boundary::Mesh);
}

#[test]
fn bitorus_4_3_model_tracks_the_simulator_across_fault_densities() {
    validate_geometry("4-ary 3-cube bi-torus", 4, 3, Boundary::Torus);
}

#[test]
fn mesh_4_3_model_tracks_the_simulator_across_fault_densities() {
    validate_geometry("4-ary 3-cube mesh", 4, 3, Boundary::Mesh);
}

#[test]
fn empty_fault_set_reduces_bitwise_to_the_closed_form_model() {
    // The tentpole's anchor: with no faults on the paper's unidirectional
    // torus, the faulty model delegates to the closed-form solver and
    // reproduces it bit for bit — same latency, same class split, same
    // bottleneck utilization.
    for (k, n) in [(8u32, 2u32), (4, 3), (16, 2)] {
        let topo = KAryNCube::unidirectional(k, n).unwrap();
        for lambda in [1e-5, 5e-4, 1e-3] {
            let faulty = FaultyNCubeModel::new(FaultyNCubeConfig::new(
                FaultSet::none(topo),
                V,
                LM,
                lambda,
                H,
            ))
            .unwrap();
            assert!(faulty.delegates_to_ncube());
            let a = faulty.solve().expect("light load solves");
            let b = NCubeModel::new(NCubeConfig::new(k, n, V, LM, lambda, H))
                .unwrap()
                .solve()
                .expect("light load solves");
            assert_eq!(a.latency.to_bits(), b.latency.to_bits(), "k={k} n={n}");
            assert_eq!(a.regular_latency.to_bits(), b.regular_latency.to_bits());
            assert_eq!(a.hot_latency.to_bits(), b.hot_latency.to_bits());
            assert_eq!(a.max_utilization.to_bits(), b.max_utilization.to_bits());
            assert_eq!(a.reachable_fraction, 1.0);
            assert_eq!(a.mean_detour_hops, 0.0);
            assert_eq!(a.delivered_fraction, 1.0);
            assert!(a.delegated);
        }
    }
}
