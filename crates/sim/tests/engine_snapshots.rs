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
//! The later cases (faulty leg, (8,3) near saturation, V = 1 and V = 4,
//! a saturated run, a watchdog-stopped run, and the mid-run hook values)
//! were recorded from the per-flit engine before uncontended worms began
//! to advance as a unit; they pin that the streaming representation is
//! observably identical too.
//!
//! The long-worm cases (the `validation` grid's Lm = 64 and 100 corner,
//! four-flit buffers, the faulty bi-torus with Lm = 64) were recorded from
//! the engine before materialised worms could drain in closed form; they
//! pin that representation too.
//!
//! If an intentional behaviour change ever lands (new arbitration rule,
//! different accumulation order), re-record the constants in the same
//! change and say so in the commit — a silent diff here is a determinism
//! regression.

use kncube_sim::{EjectionPolicy, SimConfig, Simulator};
use kncube_topology::{Boundary, ChannelId, LinkKind};
use kncube_traffic::{FaultSpec, TrafficPattern};

/// The fault densities of the validation benchmark's faulty leg.
const FIVE_PERCENT_FAULTS: FaultSpec = FaultSpec {
    router_failure_prob: 0.05,
    link_failure_prob: 0.05,
};

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
    offered_load: u64,
    vbar_measured: u64,
    max_source_queue: usize,
    in_flight_at_end: u64,
}

/// Compare a run that must end neither saturated nor deadlocked.
fn check(s: Snapshot) {
    check_flags(s, false, false);
}

/// Compare every report field, the `saturated` and `deadlocked` flags
/// included.
fn check_flags(s: Snapshot, saturated: bool, deadlocked: bool) {
    let r = Simulator::new(s.config).unwrap().run();
    let ctx = s.name;
    assert_eq!(r.saturated, saturated, "{ctx}: saturated");
    assert_eq!(r.deadlocked, deadlocked, "{ctx}: deadlocked");
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
        r.offered_load.to_bits(),
        s.offered_load,
        "{ctx}: offered_load"
    );
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
        offered_load: 0x3f747ae147ae147b,
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
        offered_load: 0x3f33a92a30553261,
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
        offered_load: 0x3f847ae147ae147b,
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
        offered_load: 0x3f947ae147ae147b,
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
        offered_load: 0x3f689374bc6a7efa,
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
        offered_load: 0x3f60624dd2f1a9fc,
        vbar_measured: 0x3ff5673887b2fce9,
        max_source_queue: 38,
        in_flight_at_end: 286,
    });
}

#[test]
fn snapshot_bidirectional_torus_k8() {
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
        offered_load: 0x3f747ae147ae147b,
        vbar_measured: 0x3ff0af9dd0fd27dd,
        max_source_queue: 22,
        in_flight_at_end: 32,
    });
}

#[test]
fn snapshot_mesh_k8() {
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
        offered_load: 0x3f747ae147ae147b,
        vbar_measured: 0x3ffcf181f76e6509,
        max_source_queue: 159,
        in_flight_at_end: 2731,
    });
}

/// The shape of the validation benchmark's faulty leg: an 8×8
/// bidirectional torus with 5% router and 5% link faults at about 0.6·λ*
/// of the faulty model, so unreachable drops and detour routes are both
/// exercised, stopped by `target_messages`.
#[test]
fn snapshot_faulty_leg_bitorus_k8() {
    check(Snapshot {
        name: "faulty_leg_bitorus_k8",
        config: SimConfig::ncube(8, 2, 2, 16, 4.7e-3, 0.2, 1)
            .with_topology(LinkKind::Bidirectional, Boundary::Torus)
            .with_faults(FIVE_PERCENT_FAULTS)
            .with_limits(200_000, 5_000, 4_000),
        mean_latency: 0x403bb291c417c4ce,
        ci_half_width: Some(0x3ff094654310436e),
        latency_std_dev: 0x402c93b8a7af2de2,
        max_latency: 0x406ac00000000000,
        completed: 4222,
        completed_regular: 3391,
        completed_hot: 831,
        mean_latency_regular: 0x4039f120b05a97cc,
        mean_latency_hot: 0x40416e4951a2f711,
        generated: 5833,
        dropped_unreachable: 178,
        mean_detour_hops: 0x3fa70a8cea4af1d0,
        reachable_fraction: 0x3fef000000000000,
        cycles: 19456,
        throughput: 0x3f72b116cf1f97bb,
        offered_load: 0x3f73404ea4a8c155,
        vbar_measured: 0x3ff07b77f4ccd33e,
        max_source_queue: 0,
        in_flight_at_end: 9,
    });
}

/// The (8,3) uni-torus of the `ncube` figure at 0.8·λ* (λ* = 6.3626e-4),
/// stopped by `target_messages`: heavy port sharing and header waits.
#[test]
fn snapshot_cube_k8_n3_v2_lm16_h20_near_saturation() {
    check(Snapshot {
        name: "cube_k8_n3_v2_lm16_h20_near_saturation",
        config: SimConfig::ncube(8, 3, 2, 16, 5.09e-4, 0.2, 83).with_limits(200_000, 5_000, 3_000),
        mean_latency: 0x4041eeb9b3b42efd,
        ci_half_width: Some(0x4010a51ea21baf1e),
        latency_std_dev: 0x40413e48e2b5a838,
        max_latency: 0x4083b00000000000,
        completed: 3201,
        completed_regular: 2559,
        completed_hot: 642,
        mean_latency_regular: 0x403e6d57bbf93282,
        mean_latency_hot: 0x404cc52f0d8ec102,
        generated: 4490,
        dropped_unreachable: 0,
        mean_detour_hops: 0x0000000000000000,
        reachable_fraction: 0x3ff0000000000000,
        cycles: 17408,
        throughput: 0x3f4082b931057262,
        offered_load: 0x3f40adcd2d44dca9,
        vbar_measured: 0x3ff04710f89b1bf1,
        max_source_queue: 0,
        in_flight_at_end: 7,
    });
}

/// One virtual channel on the uni-torus: the Low (pre-wrap) class is
/// empty, so every wrapping route blocks at its first wrapping hop.
#[test]
fn snapshot_uni_torus_k8_v1() {
    check(Snapshot {
        name: "uni_torus_k8_v1",
        config: SimConfig::ncube(8, 2, 1, 16, 5e-4, 0.2, 41).with_limits(40_000, 4_000, 0),
        mean_latency: 0x4037bda12f684bda,
        ci_half_width: None,
        latency_std_dev: 0x4008f6e7e94b3d53,
        max_latency: 0x403d000000000000,
        completed: 27,
        completed_regular: 27,
        completed_hot: 0,
        mean_latency_regular: 0x4037bda12f684bda,
        mean_latency_hot: 0x0000000000000000,
        generated: 1284,
        dropped_unreachable: 0,
        mean_detour_hops: 0x0000000000000000,
        reachable_fraction: 0x3ff0000000000000,
        cycles: 40000,
        throughput: 0x3ee89374bc6a7efa,
        offered_load: 0x3f40624dd2f1a9fc,
        vbar_measured: 0x3ff0000000000000,
        max_source_queue: 31,
        in_flight_at_end: 1239,
    });
}

/// Four virtual channels per port (two per Dally–Seitz class).
#[test]
fn snapshot_uni_torus_k8_v4() {
    check(Snapshot {
        name: "uni_torus_k8_v4",
        config: SimConfig::ncube(8, 2, 4, 16, 2e-3, 0.2, 44).with_limits(40_000, 4_000, 0),
        mean_latency: 0x403f18c80876f35a,
        ci_half_width: Some(0x3fe2ad7ee0925c12),
        latency_std_dev: 0x40256dcea7e5e4d9,
        max_latency: 0x4061200000000000,
        completed: 4597,
        completed_regular: 3698,
        completed_hot: 899,
        mean_latency_regular: 0x403de18a50946c02,
        mean_latency_hot: 0x40420c878bd14c9e,
        generated: 5103,
        dropped_unreachable: 0,
        mean_detour_hops: 0x0000000000000000,
        reachable_fraction: 0x3ff0000000000000,
        cycles: 40000,
        throughput: 0x3f60584aa3628814,
        offered_load: 0x3f60624dd2f1a9fc,
        vbar_measured: 0x3ff4490783ec0c6c,
        max_source_queue: 0,
        in_flight_at_end: 4,
    });
}

/// The heavy corner of the `validation` grid: the 8×8 uni-torus with
/// V = 3, h = 0.4 and Lm = 64 at 0.4·λ* (λ* = 6.2618e-4), under that
/// cell's seed.  Long worms that share ports and finish draining alone.
#[test]
fn snapshot_validation_k8_v3_lm64_h40() {
    check(Snapshot {
        name: "validation_k8_v3_lm64_h40",
        config: SimConfig::ncube(8, 2, 3, 64, 2.5047e-4, 0.4, 14_416_253_990_734_835_934)
            .with_limits(400_000, 10_000, 5_000),
        mean_latency: 0x40564ad42c3c9ee6,
        ci_half_width: Some(0x4002e1b948075434),
        latency_std_dev: 0x404279d913bee8ab,
        max_latency: 0x407f300000000000,
        completed: 5000,
        completed_regular: 3018,
        completed_hot: 1982,
        mean_latency_regular: 0x4054a83fc9b65f43,
        mean_latency_hot: 0x4058c833aa3c72b1,
        generated: 5186,
        dropped_unreachable: 0,
        mean_detour_hops: 0x0000000000000000,
        reachable_fraction: 0x3ff0000000000000,
        cycles: 320512,
        throughput: 0x3f307d2845c12f14,
        offered_load: 0x3f306a307568b7cf,
        vbar_measured: 0x3ff0b4ef6e2345f5,
        max_source_queue: 0,
        in_flight_at_end: 1,
    });
}

/// The same corner with Lm = 100 at 0.4·λ* (λ* = 4.0302e-4).
#[test]
fn snapshot_validation_k8_v3_lm100_h40() {
    check(Snapshot {
        name: "validation_k8_v3_lm100_h40",
        config: SimConfig::ncube(8, 2, 3, 100, 1.6121e-4, 0.4, 427_956_710_659_413_795)
            .with_limits(400_000, 10_000, 5_000),
        mean_latency: 0x4060e7e0ae8f5ec6,
        ci_half_width: Some(0x4010c61dd4caa23b),
        latency_std_dev: 0x404f1b59a85c4998,
        max_latency: 0x4089500000000000,
        completed: 3989,
        completed_regular: 2372,
        completed_hot: 1617,
        mean_latency_regular: 0x405edb8c4db4e23a,
        mean_latency_hot: 0x40631285efda00f7,
        generated: 4086,
        dropped_unreachable: 0,
        mean_detour_hops: 0x0000000000000000,
        reachable_fraction: 0x3ff0000000000000,
        cycles: 400000,
        throughput: 0x3f24f286742deace,
        offered_load: 0x3f25214f5b070cba,
        vbar_measured: 0x3ff0aee90b1263b6,
        max_source_queue: 0,
        in_flight_at_end: 1,
    });
}

/// Four-flit buffers on the (8,3) uni-torus with Lm = 32 and h = 0.5
/// at 0.7·λ* (λ* = 1.3416e-4): a worm's flits bunch up deeper behind a
/// blocked header.
#[test]
fn snapshot_buffer_depth4_k8_n3_lm32_h50() {
    check(Snapshot {
        name: "buffer_depth4_k8_n3_lm32_h50",
        config: SimConfig {
            buffer_depth: 4,
            ..SimConfig::ncube(8, 3, 2, 32, 9.391e-5, 0.5, 47)
        }
        .with_limits(400_000, 10_000, 5_000),
        mean_latency: 0x404f52f4f3039d92,
        ci_half_width: Some(0x40124d015f2f0d3c),
        latency_std_dev: 0x404955c022bf15e9,
        max_latency: 0x4087680000000000,
        completed: 5027,
        completed_regular: 2518,
        completed_hot: 2509,
        mean_latency_regular: 0x4046dc367e799842,
        mean_latency_hot: 0x4053e8bc8e700821,
        generated: 5511,
        dropped_unreachable: 0,
        mean_detour_hops: 0x0000000000000000,
        reachable_fraction: 0x3ff0000000000000,
        cycles: 115712,
        throughput: 0x3f1858f66df69f8f,
        offered_load: 0x3f189e3183db9740,
        vbar_measured: 0x3ff0142d88fba143,
        max_source_queue: 0,
        in_flight_at_end: 5,
    });
}

/// The faulty leg's 8×8 bi-torus with 5% faults and Lm = 64, at the flit
/// load of the Lm = 16 leg: long worms on detour routes.
#[test]
fn snapshot_faulty_bitorus_k8_lm64() {
    check(Snapshot {
        name: "faulty_bitorus_k8_lm64",
        config: SimConfig::ncube(8, 2, 2, 64, 1.2e-3, 0.2, 1)
            .with_topology(LinkKind::Bidirectional, Boundary::Torus)
            .with_faults(FIVE_PERCENT_FAULTS)
            .with_limits(200_000, 5_000, 5_000),
        mean_latency: 0x4057f9037b08050e,
        ci_half_width: Some(0x40128d6d45886d25),
        latency_std_dev: 0x404d4a9d1f96ccdd,
        max_latency: 0x408a500000000000,
        completed: 5075,
        completed_regular: 4071,
        completed_hot: 1004,
        mean_latency_regular: 0x4056363cbeea4e01,
        mean_latency_hot: 0x405f1cd0105197fb,
        generated: 5618,
        dropped_unreachable: 174,
        mean_detour_hops: 0x3fa9051843646ec6,
        reachable_fraction: 0x3fef000000000000,
        cycles: 73728,
        throughput: 0x3f52e74c042bfb97,
        offered_load: 0x3f53a92a30553261,
        vbar_measured: 0x3ff083d707274043,
        max_source_queue: 1,
        in_flight_at_end: 4,
    });
}

/// Far past λ*: the run stops when a source queue exceeds
/// `max_source_queue`.
#[test]
fn snapshot_saturated_source_queue() {
    check_flags(
        Snapshot {
            name: "saturated_source_queue",
            config: SimConfig {
                max_source_queue: 100,
                ..SimConfig::ncube(8, 2, 2, 16, 0.01, 0.5, 7)
            }
            .with_limits(200_000, 2_000, 0),
            mean_latency: 0x4084238836191df3,
            ci_half_width: Some(0x409df18575d6d517),
            latency_std_dev: 0x40936b19b5b9cade,
            max_latency: 0x40b6730000000000,
            completed: 1060,
            completed_regular: 554,
            completed_hot: 506,
            mean_latency_regular: 0x4081d0f049ef5d56,
            mean_latency_hot: 0x4086ae8796c44ce7,
            generated: 5908,
            dropped_unreachable: 0,
            mean_detour_hops: 0x0000000000000000,
            reachable_fraction: 0x3ff0000000000000,
            cycles: 9216,
            throughput: 0x3f62cd7b2cd7b2cd,
            offered_load: 0x3f847ae147ae147b,
            vbar_measured: 0x3ff1c3372bb7a58e,
            max_source_queue: 112,
            in_flight_at_end: 4273,
        },
        true,
        false,
    );
}

/// V = 1 tornado traffic on a faulty bi-torus: detour routes close a
/// channel-dependency cycle and the deadlock watchdog stops the run.
#[test]
fn snapshot_deadlock_watchdog_v1_tornado() {
    check_flags(
        Snapshot {
            name: "deadlock_watchdog_v1_tornado",
            config: SimConfig {
                virtual_channels: 1,
                pattern: TrafficPattern::Tornado,
                max_source_queue: 0,
                ..SimConfig::ncube(8, 2, 1, 8, 5e-3, 0.0, 1)
            }
            .with_topology(LinkKind::Bidirectional, Boundary::Torus)
            .with_faults(FIVE_PERCENT_FAULTS)
            .with_limits(200_000, 0, 0),
            mean_latency: 0x4030ad2d2d2d2d2c,
            ci_half_width: None,
            latency_std_dev: 0x400a0862569b9a75,
            max_latency: 0x403c000000000000,
            completed: 34,
            completed_regular: 34,
            completed_hot: 0,
            mean_latency_regular: 0x4030ad2d2d2d2d2c,
            mean_latency_hot: 0x0000000000000000,
            generated: 3906,
            dropped_unreachable: 116,
            mean_detour_hops: 0x0000000000000000,
            reachable_fraction: 0x3fef000000000000,
            cycles: 12288,
            throughput: 0x3f06aaaaaaaaaaab,
            offered_load: 0x3f747ae147ae147b,
            vbar_measured: 0x3ff0000000000000,
            max_source_queue: 0,
            in_flight_at_end: 3756,
        },
        false,
        true,
    );
}

/// The inspection hooks mid-run: at fixed cycles of a stepped, contended
/// run, the live message count, the flits moved over all network channels
/// and the conservation check.
#[test]
fn snapshot_hooks_mid_run() {
    let cfg = SimConfig::ncube(8, 2, 2, 16, 4e-3, 0.3, 5);
    let channels = cfg.topology().unwrap().num_channels();
    let mut sim = Simulator::new(cfg).unwrap();
    // (cycle, in_flight, Σ channel_flits)
    let expected: [(u64, usize, u64); 4] = [
        (500, 40, 8773),
        (1500, 82, 31765),
        (3000, 216, 59369),
        (5000, 408, 95465),
    ];
    for (cycle, in_flight, flits) in expected {
        while sim.cycle() < cycle {
            sim.step();
        }
        let moved: u64 = (0..channels).map(|c| sim.channel_flits(ChannelId(c))).sum();
        assert_eq!(sim.in_flight(), in_flight, "in_flight at cycle {cycle}");
        assert_eq!(moved, flits, "channel flits at cycle {cycle}");
        assert!(
            sim.flit_conservation_check(),
            "conservation at cycle {cycle}"
        );
    }
}
