//! Fixed-seed report snapshots pinning the engine's observable behaviour.
//!
//! Each case runs a fixed configuration (fixed seed) and compares every
//! `SimReport` field against values recorded from the engine before the
//! struct-of-arrays refactor — floating-point fields down to the bit
//! (`f64::to_bits`).  A run is a pure function of (config, seed); these
//! tests prove the SoA engine is *observably identical* to the original
//! object-graph engine, not merely statistically close, for n ∈ {2, 3}
//! and for both ejection policies and buffer depths.
//!
//! If an intentional behaviour change ever lands (new arbitration rule,
//! different accumulation order), re-record the constants in the same
//! change and say so in the commit — a silent diff here is a determinism
//! regression.

use kncube_sim::{EjectionPolicy, SimConfig, Simulator};

struct Snapshot {
    name: &'static str,
    config: SimConfig,
    mean_latency: u64,
    ci_half_width: Option<u64>,
    latency_std_dev: u64,
    max_latency: u64,
    completed: u64,
    completed_regular: u64,
    completed_hot: u64,
    mean_latency_regular: u64,
    mean_latency_hot: u64,
    generated: u64,
    dropped_unreachable: u64,
    mean_detour_hops: u64,
    reachable_fraction: u64,
    cycles: u64,
    throughput: u64,
    vbar_measured: u64,
    max_source_queue: usize,
    in_flight_at_end: u64,
}

fn check(s: Snapshot) {
    let r = Simulator::new(s.config).unwrap().run();
    let ctx = s.name;
    assert!(!r.saturated, "{ctx}: unexpectedly saturated");
    assert!(!r.deadlocked, "{ctx}: unexpectedly deadlocked");
    assert_eq!(
        r.mean_latency.to_bits(),
        s.mean_latency,
        "{ctx}: mean_latency"
    );
    assert_eq!(
        r.ci_half_width.map(f64::to_bits),
        s.ci_half_width,
        "{ctx}: ci_half_width"
    );
    assert_eq!(
        r.latency_std_dev.to_bits(),
        s.latency_std_dev,
        "{ctx}: latency_std_dev"
    );
    assert_eq!(r.max_latency.to_bits(), s.max_latency, "{ctx}: max_latency");
    assert_eq!(r.completed, s.completed, "{ctx}: completed");
    assert_eq!(
        r.completed_regular, s.completed_regular,
        "{ctx}: completed_regular"
    );
    assert_eq!(r.completed_hot, s.completed_hot, "{ctx}: completed_hot");
    assert_eq!(
        r.mean_latency_regular.to_bits(),
        s.mean_latency_regular,
        "{ctx}: mean_latency_regular"
    );
    assert_eq!(
        r.mean_latency_hot.to_bits(),
        s.mean_latency_hot,
        "{ctx}: mean_latency_hot"
    );
    assert_eq!(r.generated, s.generated, "{ctx}: generated");
    assert_eq!(
        r.dropped_unreachable, s.dropped_unreachable,
        "{ctx}: dropped_unreachable"
    );
    assert_eq!(
        r.mean_detour_hops.to_bits(),
        s.mean_detour_hops,
        "{ctx}: mean_detour_hops"
    );
    assert_eq!(
        r.reachable_fraction.to_bits(),
        s.reachable_fraction,
        "{ctx}: reachable_fraction"
    );
    assert_eq!(r.cycles, s.cycles, "{ctx}: cycles");
    assert_eq!(r.throughput.to_bits(), s.throughput, "{ctx}: throughput");
    assert_eq!(
        r.vbar_measured.to_bits(),
        s.vbar_measured,
        "{ctx}: vbar_measured"
    );
    assert_eq!(
        r.max_source_queue, s.max_source_queue,
        "{ctx}: max_source_queue"
    );
    assert_eq!(
        r.in_flight_at_end, s.in_flight_at_end,
        "{ctx}: in_flight_at_end"
    );
}

#[test]
fn snapshot_paper_k8_v2_lm16_h30() {
    check(Snapshot {
        name: "paper_k8_v2_lm16_h30",
        config: SimConfig::ncube(8, 2, 2, 16, 5e-3, 0.3, 1234).with_limits(30_000, 2_000, 0),
        mean_latency: 0x40903d606f4647f8,
        ci_half_width: Some(0x408e6698be2907eb),
        latency_std_dev: 0x40a923cb07377eed,
        max_latency: 0x40d88d0000000000,
        completed: 5227,
        completed_regular: 3681,
        completed_hot: 1546,
        mean_latency_regular: 0x40905fc594c2739a,
        mean_latency_hot: 0x408fd6f70ee72965,
        generated: 9536,
        dropped_unreachable: 0,
        mean_detour_hops: 0x0,
        reachable_fraction: 0x3ff0000000000000,
        cycles: 30000,
        throughput: 0x3f67e5155b9329d6,
        vbar_measured: 0x3ff1dc68a0636ada,
        max_source_queue: 174,
        in_flight_at_end: 3733,
    });
}

#[test]
fn snapshot_paper_k16_v2_lm32_h20() {
    check(Snapshot {
        name: "paper_k16_v2_lm32_h20",
        config: SimConfig::ncube(16, 2, 2, 32, 3e-4, 0.2, 42).with_limits(60_000, 5_000, 0),
        mean_latency: 0x404cc60c7ff81442,
        ci_half_width: Some(0x3ff43c67fae4d26e),
        latency_std_dev: 0x40361e2486051673,
        max_latency: 0x4072300000000000,
        completed: 4137,
        completed_regular: 3314,
        completed_hot: 823,
        mean_latency_regular: 0x404b320e85cb2998,
        mean_latency_hot: 0x4051906883e361f5,
        generated: 4529,
        dropped_unreachable: 0,
        mean_detour_hops: 0x0,
        reachable_fraction: 0x3ff0000000000000,
        cycles: 60000,
        throughput: 0x3f33417faef9429e,
        vbar_measured: 0x3ff09cb0be17b697,
        max_source_queue: 0,
        in_flight_at_end: 3,
    });
}

#[test]
fn snapshot_cube_k4_n3_v2_lm8_h40() {
    check(Snapshot {
        name: "cube_k4_n3_v2_lm8_h40",
        config: SimConfig::ncube(4, 3, 2, 8, 0.01, 0.4, 17).with_limits(50_000, 5_000, 0),
        mean_latency: 0x409d4abb5b1856ae,
        ci_half_width: Some(0x408293b8acd40be3),
        latency_std_dev: 0x40b5d27fe8f81292,
        max_latency: 0x40e412c000000000,
        completed: 18039,
        completed_regular: 11052,
        completed_hot: 6987,
        mean_latency_regular: 0x409d01aaf1d2f849,
        mean_latency_hot: 0x409dbe4de540d0be,
        generated: 32195,
        dropped_unreachable: 0,
        mean_detour_hops: 0x0,
        reachable_fraction: 0x3ff0000000000000,
        cycles: 50000,
        throughput: 0x3f79a7cca9d8f393,
        vbar_measured: 0x3ff0907e272bc37d,
        max_source_queue: 512,
        in_flight_at_end: 11289,
    });
}

#[test]
fn snapshot_cube_k3_n3_v2_lm8_h50() {
    check(Snapshot {
        name: "cube_k3_n3_v2_lm8_h50",
        config: SimConfig::ncube(3, 3, 2, 8, 0.02, 0.5, 29).with_limits(30_000, 2_000, 0),
        mean_latency: 0x409928f67ddbda98,
        ci_half_width: Some(0x40853b99c649974f),
        latency_std_dev: 0x40ad7cbc63d1dc2b,
        max_latency: 0x40d87f4000000000,
        completed: 10581,
        completed_regular: 5620,
        completed_hot: 4961,
        mean_latency_regular: 0x409767927e7384ce,
        mean_latency_hot: 0x409b260c7ce0c7c5,
        generated: 16226,
        dropped_unreachable: 0,
        mean_detour_hops: 0x0,
        reachable_fraction: 0x3ff0000000000000,
        cycles: 30000,
        throughput: 0x3f8ca9f394fbdf1a,
        vbar_measured: 0x3ff0a112a757a11b,
        max_source_queue: 556,
        in_flight_at_end: 4604,
    });
}

#[test]
fn snapshot_shared_ejection_k8() {
    check(Snapshot {
        name: "shared_ejection_k8",
        config: SimConfig {
            ejection: EjectionPolicy::SharedChannel,
            ..SimConfig::ncube(8, 2, 2, 32, 3e-3, 0.4, 11)
        }
        .with_limits(40_000, 4_000, 0),
        mean_latency: 0x409dee0cf7a24d01,
        ci_half_width: Some(0x40a6aee1c48e7349),
        latency_std_dev: 0x40b24ea0278de6c5,
        max_latency: 0x40de56c000000000,
        completed: 2448,
        completed_regular: 1514,
        completed_hot: 934,
        mean_latency_regular: 0x409e0b74abcb3e95,
        mean_latency_hot: 0x409dbe62ac20e40d,
        generated: 7715,
        dropped_unreachable: 0,
        mean_detour_hops: 0x0,
        reachable_fraction: 0x3ff0000000000000,
        cycles: 40000,
        throughput: 0x3f516872b020c49c,
        vbar_measured: 0x3ff165d99563ac26,
        max_source_queue: 139,
        in_flight_at_end: 4791,
    });
}

#[test]
fn snapshot_buffer_depth1_k8() {
    check(Snapshot {
        name: "buffer_depth1_k8",
        config: SimConfig {
            buffer_depth: 1,
            ..SimConfig::ncube(8, 2, 2, 32, 2e-3, 0.0, 21)
        }
        .with_limits(40_000, 4_000, 0),
        mean_latency: 0x40924645aba63c13,
        ci_half_width: Some(0x408507c2bd03f733),
        latency_std_dev: 0x40a239de77d3e182,
        max_latency: 0x40d5998000000000,
        completed: 4255,
        completed_regular: 4255,
        completed_hot: 0,
        mean_latency_regular: 0x40924645aba63c13,
        mean_latency_hot: 0x0000000000000000,
        generated: 5051,
        dropped_unreachable: 0,
        mean_detour_hops: 0x0,
        reachable_fraction: 0x3ff0000000000000,
        cycles: 40000,
        throughput: 0x3f5e41fdb97530ed,
        vbar_measured: 0x3ff5673887b2fce9,
        max_source_queue: 38,
        in_flight_at_end: 286,
    });
}

#[test]
fn snapshot_bidirectional_torus_k8() {
    use kncube_topology::{Boundary, LinkKind};
    check(Snapshot {
        name: "bidi_torus_k8",
        config: SimConfig::ncube(8, 2, 2, 16, 5e-3, 0.3, 77)
            .with_topology(LinkKind::Bidirectional, Boundary::Torus)
            .with_limits(30_000, 2_000, 0),
        mean_latency: 0x4058d44bcd50d909,
        ci_half_width: Some(0x4045d18121095c31),
        latency_std_dev: 0x40755bb7ca601c2f,
        max_latency: 0x40b4530000000000,
        completed: 9132,
        completed_regular: 6547,
        completed_hot: 2585,
        mean_latency_regular: 0x4055bfaaea10583b,
        mean_latency_hot: 0x406050d2bdf1eff0,
        generated: 9821,
        dropped_unreachable: 0,
        mean_detour_hops: 0x0,
        reachable_fraction: 0x3ff0000000000000,
        cycles: 30000,
        throughput: 0x3f74df864a502a21,
        vbar_measured: 0x3ff0af9dd0fd27dd,
        max_source_queue: 22,
        in_flight_at_end: 32,
    });
}

#[test]
fn snapshot_mesh_k8() {
    use kncube_topology::{Boundary, LinkKind};
    check(Snapshot {
        name: "mesh_k8",
        config: SimConfig::ncube(8, 2, 2, 16, 5e-3, 0.3, 78)
            .with_topology(LinkKind::Bidirectional, Boundary::Mesh)
            .with_limits(30_000, 2_000, 0),
        mean_latency: 0x4088f2714007ba1f,
        ci_half_width: Some(0x407d64b8f57fee86),
        latency_std_dev: 0x40a4cf3f933609ea,
        max_latency: 0x40d9d54000000000,
        completed: 6361,
        completed_regular: 4427,
        completed_hot: 1934,
        mean_latency_regular: 0x40871f5ad89ead5b,
        mean_latency_hot: 0x408d1f9fa2d01534,
        generated: 9727,
        dropped_unreachable: 0,
        mean_detour_hops: 0x0,
        reachable_fraction: 0x3ff0000000000000,
        cycles: 30000,
        throughput: 0x3f6d142ffb51a09f,
        vbar_measured: 0x3ffcf181f76e6509,
        max_source_queue: 159,
        in_flight_at_end: 2731,
    });
}
