//! Fault-injection behaviour of the engine: deterministic sampling,
//! unreachable-message drops, detour statistics, and the guarantee that
//! enabling the fault machinery with probability zero changes nothing on a
//! mesh (where the fault router reproduces dimension-order routing
//! exactly, virtual-channel classes included).

use kncube_sim::{SimConfig, SimReport, Simulator};
use kncube_topology::{Boundary, LinkKind};
use kncube_traffic::FaultSpec;

/// Bitwise equality of two reports: `f64`'s `Debug` form is a function
/// of its bits, so comparing the `Debug` strings checks every field.
fn assert_bit_identical(a: &SimReport, b: &SimReport, ctx: &str) {
    assert_eq!(format!("{a:?}"), format!("{b:?}"), "{ctx}");
}

#[test]
fn zero_probability_faults_on_a_mesh_change_nothing() {
    // On a mesh every dimension-order hop is class High and the fault
    // router's shortest paths coincide with DOR hop-for-hop, so routing
    // through the fault machinery with an empty fault set must be
    // *bit-identical* to not having it at all.
    let base = SimConfig::ncube(6, 2, 2, 16, 4e-3, 0.3, 91)
        .with_topology(LinkKind::Bidirectional, Boundary::Mesh)
        .with_limits(25_000, 2_000, 0);
    let plain = Simulator::new(base).unwrap().run();
    let faulted = Simulator::new(base.with_faults(FaultSpec::NONE))
        .unwrap()
        .run();
    assert_bit_identical(&plain, &faulted, "mesh p=0");
}

#[test]
fn fault_runs_are_deterministic_in_the_seed() {
    let spec = FaultSpec {
        router_failure_prob: 0.05,
        link_failure_prob: 0.05,
    };
    let cfg = SimConfig::ncube(8, 2, 2, 8, 3e-3, 0.2, 5150)
        .with_topology(LinkKind::Bidirectional, Boundary::Torus)
        .with_faults(spec)
        .with_limits(20_000, 1_000, 0);
    let a = Simulator::new(cfg).unwrap().run();
    let b = Simulator::new(cfg).unwrap().run();
    assert_bit_identical(&a, &b, "same seed");
    // A different seed samples a different fault set (and workload).
    let c = Simulator::new(SimConfig { seed: 5151, ..cfg })
        .unwrap()
        .run();
    assert!(
        c.reachable_fraction.to_bits() != a.reachable_fraction.to_bits()
            || c.generated != a.generated
            || c.mean_latency.to_bits() != a.mean_latency.to_bits(),
        "different seeds should not reproduce the run"
    );
}

#[test]
fn router_failures_drop_unreachable_messages_and_account_for_all() {
    let spec = FaultSpec {
        router_failure_prob: 0.1,
        link_failure_prob: 0.02,
    };
    // warmup 0 so every message is measured: generated messages either
    // drop at the source, complete, or are still in flight at the end.
    let cfg = SimConfig::ncube(8, 2, 2, 8, 2e-3, 0.2, 60)
        .with_topology(LinkKind::Bidirectional, Boundary::Torus)
        .with_faults(spec)
        .with_limits(20_000, 0, 0);
    let report = Simulator::new(cfg).unwrap().run();
    assert!(!report.deadlocked, "fault run deadlocked");
    assert!(
        report.dropped_unreachable > 0,
        "10% router failures on 64 nodes should strand some messages"
    );
    assert!(report.reachable_fraction < 1.0);
    assert!(report.reachable_fraction > 0.0);
    assert_eq!(
        report.generated,
        report.dropped_unreachable + report.completed + report.in_flight_at_end,
        "message accounting must balance"
    );
    assert!(report.completed > 0, "survivors must still communicate");
}

#[test]
fn report_reachability_matches_the_routers() {
    let spec = FaultSpec {
        router_failure_prob: 0.08,
        link_failure_prob: 0.04,
    };
    for (link_kind, boundary) in [
        (LinkKind::Unidirectional, Boundary::Torus),
        (LinkKind::Bidirectional, Boundary::Torus),
        (LinkKind::Bidirectional, Boundary::Mesh),
    ] {
        let cfg = SimConfig::ncube(6, 2, 2, 8, 1e-3, 0.0, 31)
            .with_topology(link_kind, boundary)
            .with_faults(spec)
            .with_limits(10_000, 0, 0);
        let sim = Simulator::new(cfg).unwrap();
        let expected = sim.fault_router().unwrap().reachable_fraction();
        let report = sim.run();
        assert_eq!(
            report.reachable_fraction.to_bits(),
            expected.to_bits(),
            "{link_kind:?} {boundary:?}"
        );
    }
}

#[test]
fn link_faults_on_a_bidirectional_torus_cause_detours() {
    // Plenty of link failures but no router failures: the 2-D torus is
    // 4-connected, so nearly everything stays reachable — via longer
    // routes whose extra hops show up in the detour statistic.
    let spec = FaultSpec {
        router_failure_prob: 0.0,
        link_failure_prob: 0.15,
    };
    let cfg = SimConfig::ncube(8, 2, 2, 8, 1e-3, 0.0, 23)
        .with_topology(LinkKind::Bidirectional, Boundary::Torus)
        .with_faults(spec)
        .with_limits(30_000, 0, 0);
    let sim = Simulator::new(cfg).unwrap();
    let expected_detour = sim.fault_router().unwrap().expected_detour();
    assert!(
        expected_detour > 0.0,
        "15% link failures must force some detours"
    );
    let report = sim.run();
    assert!(!report.deadlocked);
    assert!(
        report.mean_detour_hops > 0.0,
        "measured messages should show detours (router expects {expected_detour})"
    );
}

#[test]
fn faulty_mesh_completes_messages() {
    let spec = FaultSpec {
        router_failure_prob: 0.05,
        link_failure_prob: 0.05,
    };
    let cfg = SimConfig::ncube(6, 2, 2, 8, 2e-3, 0.3, 47)
        .with_topology(LinkKind::Bidirectional, Boundary::Mesh)
        .with_faults(spec)
        .with_limits(25_000, 0, 0);
    let report = Simulator::new(cfg).unwrap().run();
    assert!(!report.deadlocked, "faulty mesh deadlocked");
    assert!(report.completed > 0);
    assert_eq!(
        report.generated,
        report.dropped_unreachable + report.completed + report.in_flight_at_end
    );
}

#[test]
fn fully_partitioned_network_drops_everything_without_panicking() {
    // With every router failed the network has zero reachable pairs: each
    // generated message is dropped at the source, nothing ever moves, and
    // the run must terminate cleanly (no deadlock flag, no panic from the
    // routing invariants in `on_head_arrival`).
    let spec = FaultSpec {
        router_failure_prob: 1.0,
        link_failure_prob: 0.0,
    };
    let cfg = SimConfig::ncube(4, 2, 2, 8, 2e-3, 0.2, 11)
        .with_topology(LinkKind::Bidirectional, Boundary::Torus)
        .with_faults(spec)
        .with_limits(10_000, 0, 0);
    let sim = Simulator::new(cfg).unwrap();
    assert_eq!(sim.fault_router().unwrap().reachable_pairs(), 0);
    let report = sim.run();
    assert_eq!(report.completed, 0);
    assert!(
        report.dropped_unreachable > 0,
        "arrivals must still be drawn"
    );
    assert_eq!(report.generated, report.dropped_unreachable);
    assert!(!report.deadlocked, "an idle network is not deadlocked");
    assert_eq!(report.reachable_fraction, 0.0);
}
