//! Fixed-sample snapshots of the fault router and the faulty-network
//! model, down to the bit.
//!
//! Each fault set is drawn by `sample_fault_set` from a fixed seed, so a
//! case is a pure function of its constants.  The router summaries
//! (`reachable_pairs`, `expected_detour` as `f64` bits,
//! `max_finite_distance`, `deadlock_free`) pin the route tables; the
//! model points pin every `FaultyNCubeOutput` field (floats as bits) and
//! λ* at four loads on a bi-torus, a mesh and a unidirectional torus,
//! all with faults.  They were recorded from the router that kept a
//! `u16` distance and a `u32` BFS-order entry per pair, so they hold any
//! later table layout to the same routes, in the same order.
//!
//! If an intentional behaviour change lands (a new tie-break, a
//! different summation order), re-record the constants in the same
//! change and say so in the commit.

use kncube::model::{FaultyNCubeConfig, FaultyNCubeModel};
use kncube::topology::{FaultRouter, FaultSet, KAryNCube};
use kncube::traffic::{sample_fault_set, FaultSpec};

const V: u32 = 2;
const LM: u32 = 16;
const H: f64 = 0.2;
const SEED: u64 = 0xfa7b;

fn faults(topo: KAryNCube, p: f64, seed: u64) -> FaultSet {
    let spec = FaultSpec {
        router_failure_prob: p,
        link_failure_prob: p,
    };
    sample_fault_set(topo, spec, seed)
}

fn bi(k: u32, n: u32) -> KAryNCube {
    KAryNCube::bidirectional(k, n).unwrap()
}

fn mesh(k: u32, n: u32) -> KAryNCube {
    KAryNCube::mesh(k, n).unwrap()
}

fn uni(k: u32, n: u32) -> KAryNCube {
    KAryNCube::unidirectional(k, n).unwrap()
}

/// The three model samples, each with at least one fault.
fn model_cases() -> [(&'static str, FaultSet); 3] {
    [
        ("bi-torus 8x8 5%", faults(bi(8, 2), 0.05, SEED)),
        ("mesh 8x8 5%", faults(mesh(8, 2), 0.05, SEED)),
        ("uni-torus 8x8 5%", faults(uni(8, 2), 0.05, SEED)),
    ]
}

fn router_summary(name: &str, faults: FaultSet) -> String {
    let router = FaultRouter::new(faults);
    format!(
        "{name}: pairs {} detour {:#018x} max {} deadlock_free {}",
        router.reachable_pairs(),
        router.expected_detour().to_bits(),
        router.max_finite_distance(),
        router.deadlock_free()
    )
}

const ROUTER_SUMMARIES: [&str; 11] = [
    "bi-torus 8x8 5%: pairs 3422 detour 0x3fc8aff407c7be2b max 9 deadlock_free false",
    "mesh 8x8 5%: pairs 3306 detour 0x3fc21eaa0c14715d max 14 deadlock_free false",
    "uni-torus 8x8 5%: pairs 3251 detour 0x3fef2eda704a55d5 max 18 deadlock_free false",
    "bi-torus 8x8 0%: pairs 4032 detour 0x0000000000000000 max 8 deadlock_free true",
    "bi-torus 16x16 5%: pairs 55932 detour 0x3fcbc13d8872f951 max 17 deadlock_free false",
    "bi-torus 16x16 15%: pairs 49952 detour 0x3fe86d8cdfb147ff max 20 deadlock_free false",
    "uni-torus 16x16 2%: pairs 61504 detour 0x3fe6c8db8132e15e max 34 deadlock_free false",
    "bi-torus 8x8x8 2%: pairs 251502 detour 0x3f7da40b57e2dd34 max 12 deadlock_free false",
    "mesh 4x4x4 10%: pairs 3192 detour 0x3fcac976b25dac97 max 9 deadlock_free false",
    "mesh 5x5 10%: pairs 462 detour 0x3fd97d3abc65f4eb max 8 deadlock_free true",
    "bi-torus 4x4 60%: pairs 12 detour 0x0000000000000000 max 2 deadlock_free true",
];

#[test]
fn router_summaries_match_the_recorded_tables() {
    let mut cases: Vec<(&str, FaultSet)> = model_cases().into_iter().collect();
    cases.extend([
        ("bi-torus 8x8 0%", FaultSet::none(bi(8, 2))),
        ("bi-torus 16x16 5%", faults(bi(16, 2), 0.05, SEED)),
        ("bi-torus 16x16 15%", faults(bi(16, 2), 0.15, SEED)),
        ("uni-torus 16x16 2%", faults(uni(16, 2), 0.02, SEED)),
        ("bi-torus 8x8x8 2%", faults(bi(8, 3), 0.02, SEED)),
        ("mesh 4x4x4 10%", faults(mesh(4, 3), 0.10, SEED)),
        ("mesh 5x5 10%", faults(mesh(5, 2), 0.10, SEED)),
        ("bi-torus 4x4 60%", faults(bi(4, 2), 0.60, SEED)),
    ]);
    let actual: Vec<String> = cases
        .into_iter()
        .map(|(name, faults)| router_summary(name, faults))
        .collect();
    assert_eq!(actual, ROUTER_SUMMARIES);
}

const MODEL_POINTS: [&str; 15] = [
    "bi-torus 8x8 5%: lambda* 0x3f7c0dcc400347ce probes 25",
    "bi-torus 8x8 5% @ 0.1: latency 0x4035073f82bb30ee regular 0x4034ebc73175e70b hot 0x40356e966b52224f wait 0x3fb1d9919e7ab0ea util 0x3fb948bce11bd33f pairs 3422 reach 0x3feb28a28a28a28a detour 0x3fc8aff407c7be2b delivered 0x3feb9e79e79e79e4 iterations 1 delegated false",
    "bi-torus 8x8 5% @ 0.4: latency 0x4037dd2c5cd1c892 regular 0x4037265517dfcbd7 hot 0x403a8d00da16f935 wait 0x3fd3c6adc41e354e util 0x3fd948bce11bd33f pairs 3422 reach 0x3feb28a28a28a28a detour 0x3fc8aff407c7be2b delivered 0x3feb9e79e79e79e4 iterations 1 delegated false",
    "bi-torus 8x8 5% @ 0.7: latency 0x403da1e808931b05 regular 0x403a92baa41848b8 hot 0x404492128a6d86cb wait 0x3fe85e74dfecb155 util 0x3fe61fa544f858d6 pairs 3422 reach 0x3feb28a28a28a28a detour 0x3fc8aff407c7be2b delivered 0x3feb9e79e79e79e4 iterations 1 delegated false",
    "bi-torus 8x8 5% @ 0.95: latency 0x404f712e412c48f6 regular 0x40455c4dd363daae hot 0x4061578c5910b6e9 wait 0x401768012b700aa3 util 0x3fee06604b510ada pairs 3422 reach 0x3feb28a28a28a28a detour 0x3fc8aff407c7be2b delivered 0x3feb9e79e79e79e4 iterations 1 delegated false",
    "mesh 8x8 5%: lambda* 0x3f747cde41483e4c probes 26",
    "mesh 8x8 5% @ 0.1: latency 0x40369d0c00cac5b6 regular 0x4036071e85436efc hot 0x4038c78a90c35fdd wait 0x3fae133330db7d75 util 0x3fb9772467d9020e pairs 3306 reach 0x3fea3cf3cf3cf3cf detour 0x3fc21eaa0c14715d delivered 0x3feac7ec7ec7ec7a iterations 1 delegated false",
    "mesh 8x8 5% @ 0.4: latency 0x403ab80148259939 regular 0x40389c90c87645c3 hot 0x40414189903068fb wait 0x3fd25ede0d04e350 util 0x3fd9772467d9020e pairs 3306 reach 0x3fea3cf3cf3cf3cf detour 0x3fc21eaa0c14715d delivered 0x3feac7ec7ec7ec7a iterations 1 delegated false",
    "mesh 8x8 5% @ 0.7: latency 0x4042fd2614cd21a8 regular 0x403d68bdf367c0ec hot 0x40516abe26299594 wait 0x3fef502586c8f1d2 util 0x3fe6483fdadde1cc pairs 3306 reach 0x3fea3cf3cf3cf3cf detour 0x3fc21eaa0c14715d delivered 0x3feac7ec7ec7ec7a iterations 1 delegated false",
    "mesh 8x8 5% @ 0.95: latency 0x405a1db2825afb78 regular 0x404979e94aad10bb hot 0x4072e5f38a670cd8 wait 0x402525b7d6534ed5 util 0x3fee3d7b3b51b270 pairs 3306 reach 0x3fea3cf3cf3cf3cf detour 0x3fc21eaa0c14715d delivered 0x3feac7ec7ec7ec7a iterations 1 delegated false",
    "uni-torus 8x8 5%: lambda* 0x3f64cc3352bfeb79 probes 27",
    "uni-torus 8x8 5% @ 0.1: latency 0x4039725e90f242e7 regular 0x4039558743aa1ad8 hot 0x4039dd244509a796 wait 0x3fa33618ab04a14d util 0x3fb956a6a2aef138 pairs 3251 reach 0x3fe9cd34d34d34d3 detour 0x3fef2eda704a55d5 delivered 0x3fea54ed4ed4ed4a iterations 1 delegated false",
    "uni-torus 8x8 5% @ 0.4: latency 0x403fe3a4fa186277 regular 0x403eec2ea6416b6b hot 0x4041bbe3087e33ed wait 0x3fc94c944ee877b7 util 0x3fd956a6a2aef138 pairs 3251 reach 0x3fe9cd34d34d34d3 detour 0x3fef2eda704a55d5 delivered 0x3fea54ed4ed4ed4a iterations 1 delegated false",
    "uni-torus 8x8 5% @ 0.7: latency 0x4048cd37b403e3f1 regular 0x4046470cf6282c12 hot 0x405112b201ca0877 wait 0x3fe9a5024eef89fc util 0x3fe62bd1ce591310 pairs 3251 reach 0x3fe9cd34d34d34d3 detour 0x3fef2eda704a55d5 delivered 0x3fea54ed4ed4ed4a iterations 1 delegated false",
    "uni-torus 8x8 5% @ 0.95: latency 0x40633c9a34e4dee1 regular 0x405dfe27b908e2f1 hot 0x407177a9159e8aa6 wait 0x4026eb17b9f4b123 util 0x3fee16e5e12fbe72 pairs 3251 reach 0x3fe9cd34d34d34d3 detour 0x3fef2eda704a55d5 delivered 0x3fea54ed4ed4ed4a iterations 1 delegated false",
];

#[test]
fn model_outputs_match_the_recorded_bits() {
    let mut actual = Vec::new();
    for (name, faults) in model_cases() {
        assert!(!faults.is_empty(), "{name}: the sample must carry faults");
        let model = FaultyNCubeModel::new(FaultyNCubeConfig::new(faults, V, LM, 0.0, H)).unwrap();
        let sat = model.saturation(1e-9, 1e-1, 1e-6).unwrap();
        actual.push(format!(
            "{name}: lambda* {:#018x} probes {}",
            sat.lambda_star.to_bits(),
            sat.probes
        ));
        for frac in [0.1, 0.4, 0.7, 0.95] {
            let out = model.solve_at(frac * sat.lambda_star).unwrap();
            actual.push(format!(
                "{name} @ {frac}: latency {:#018x} regular {:#018x} hot {:#018x} \
                 wait {:#018x} util {:#018x} pairs {} reach {:#018x} \
                 detour {:#018x} delivered {:#018x} iterations {} delegated {}",
                out.latency.to_bits(),
                out.regular_latency.to_bits(),
                out.hot_latency.to_bits(),
                out.source_wait_regular.to_bits(),
                out.max_utilization.to_bits(),
                out.reachable_pairs,
                out.reachable_fraction.to_bits(),
                out.mean_detour_hops.to_bits(),
                out.delivered_fraction.to_bits(),
                out.iterations,
                out.delegated
            ));
        }
    }
    assert_eq!(actual, MODEL_POINTS);
}
