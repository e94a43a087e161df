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
//! later table layout to the same routes, in the same order.  The
//! benchmark-sized cases (256- and 512-node bi-tori at 2% and 5% faults)
//! pin the same fields at the sizes `perfbench --workload faulty_scale`
//! runs; they were recorded from the model that composed every probe
//! its route bound did not certify.
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

/// λ* and every output field at four loads of each case, as bit strings.
fn model_points(cases: impl IntoIterator<Item = (&'static str, FaultSet)>) -> Vec<String> {
    let mut actual = Vec::new();
    for (name, faults) in cases {
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
    actual
}

#[test]
fn model_outputs_match_the_recorded_bits() {
    assert_eq!(model_points(model_cases()), MODEL_POINTS);
}

/// The benchmark's faulted shapes: 256- and 512-node bi-tori at 2% and
/// 5% faults.
fn benchmark_cases() -> [(&'static str, FaultSet); 4] {
    [
        ("bi-torus 16x16 2%", faults(bi(16, 2), 0.02, SEED)),
        ("bi-torus 16x16 5%", faults(bi(16, 2), 0.05, SEED)),
        ("bi-torus 8x8x8 2%", faults(bi(8, 3), 0.02, SEED)),
        ("bi-torus 8x8x8 5%", faults(bi(8, 3), 0.05, SEED)),
    ]
}

const BENCHMARK_ROUTER_SUMMARIES: [&str; 4] = [
    "bi-torus 16x16 2%: pairs 61752 detour 0x3fabb9d2b25c65c0 max 16 deadlock_free false",
    "bi-torus 16x16 5%: pairs 55932 detour 0x3fcbc13d8872f951 max 17 deadlock_free false",
    "bi-torus 8x8x8 2%: pairs 251502 detour 0x3f7da40b57e2dd34 max 12 deadlock_free false",
    "bi-torus 8x8x8 5%: pairs 228006 detour 0x3fa4e2379abc0533 max 12 deadlock_free false",
];

const BENCHMARK_MODEL_POINTS: [&str; 20] = [
    "bi-torus 16x16 2%: lambda* 0x3f633891b96a09b4 probes 27",
    "bi-torus 16x16 2% @ 0.1: latency 0x403899662302be5a regular 0x40388a95fa7fe364 hot 0x4038d350bb60bb1a wait 0x3fa319bc19d02220 util 0x3fb98a6951341a2e pairs 61752 reach 0x3fee454545454545 detour 0x3fabb9d2b25c65c0 delivered 0x3fee70d73da40a8b iterations 1 delegated false",
    "bi-torus 16x16 2% @ 0.4: latency 0x403b1ffa95187f18 regular 0x403a0cde6a981d02 hot 0x403f539ae6f054ed wait 0x3fc553bee6e6e7dd util 0x3fd98a6951341a2e pairs 61752 reach 0x3fee454545454545 detour 0x3fabb9d2b25c65c0 delivered 0x3fee70d73da40a8b iterations 1 delegated false",
    "bi-torus 16x16 2% @ 0.7: latency 0x4040cdfa5c45c812 regular 0x403c258a92c8a35b hot 0x404b7bbdd243d835 wait 0x3fdbde2c1501b0a6 util 0x3fe6591c270d96e9 pairs 61752 reach 0x3fee454545454545 detour 0x3fabb9d2b25c65c0 delivered 0x3fee70d73da40a8b iterations 1 delegated false",
    "bi-torus 16x16 2% @ 0.95: latency 0x40511fc48584aaa6 regular 0x40416f39293e6eee hot 0x4068ff234a60c087 wait 0x4007864fa48234dd util 0x3fee545d106ddf16 pairs 61752 reach 0x3fee454545454545 detour 0x3fabb9d2b25c65c0 delivered 0x3fee70d73da40a8b iterations 1 delegated false",
    "bi-torus 16x16 5%: lambda* 0x3f62ffbb530d2c76 probes 27",
    "bi-torus 16x16 5% @ 0.1: latency 0x4038cb0b102ac86a regular 0x4038bd0af5bab8ee hot 0x4038ff258ca8afb9 wait 0x3fa272fa918d6629 util 0x3fb98a12465ca718 pairs 55932 reach 0x3feb6aeaeaeaeaeb detour 0x3fcbc13d8872f951 delivered 0x3febdb750ea841e7 iterations 1 delegated false",
    "bi-torus 16x16 5% @ 0.4: latency 0x403b77fde0a973b0 regular 0x403a5fed1330b239 hot 0x403f8a4672ec5bc7 wait 0x3fc4ad713056b156 util 0x3fd98a12465ca718 pairs 55932 reach 0x3feb6aeaeaeaeaeb detour 0x3fcbc13d8872f951 delivered 0x3febdb750ea841e7 iterations 1 delegated false",
    "bi-torus 16x16 5% @ 0.7: latency 0x40412ece64905eb6 regular 0x403cab87a8d6e9fc hot 0x404bc7fbba3ee39d wait 0x3fdb5a778cd07840 util 0x3fe658cffd911235 pairs 55932 reach 0x3feb6aeaeaeaeaeb detour 0x3fcbc13d8872f951 delivered 0x3febdb750ea841e7 iterations 1 delegated false",
    "bi-torus 16x16 5% @ 0.95: latency 0x4052acde1cbaf38a regular 0x4042244e0a88a833 hot 0x406b35928edb561e wait 0x40091c477846b4cd util 0x3fee53f5b38e066c pairs 55932 reach 0x3feb6aeaeaeaeaeb detour 0x3fcbc13d8872f951 delivered 0x3febdb750ea841e7 iterations 1 delegated false",
    "bi-torus 8x8x8 2%: lambda* 0x3f548933dc3b885b probes 28",
    "bi-torus 8x8x8 2% @ 0.1: latency 0x40362ce74f3f29a1 regular 0x403622dd6ecc0aa1 hot 0x4036545ecc3159db wait 0x3f9088c4aff670ce util 0x3fb991da91acea20 pairs 251502 reach 0x3feec2d168b45a2d detour 0x3f7da40b57e2dd34 delivered 0x3feee231188c4674 iterations 1 delegated false",
    "bi-torus 8x8x8 2% @ 0.4: latency 0x403714527a21d5b4 regular 0x403681a2ab330d71 hot 0x40395505ab324ebc wait 0x3fb18287562b69ff util 0x3fd991da91acea20 pairs 251502 reach 0x3feec2d168b45a2d detour 0x3f7da40b57e2dd34 delivered 0x3feee231188c4674 iterations 1 delegated false",
    "bi-torus 8x8x8 2% @ 0.7: latency 0x4039d4d1c72c8910 regular 0x4036f6183353af35 hot 0x40428eb29ec40cd9 wait 0x3fc35a9cfa857478 util 0x3fe65f9f3f774cdb pairs 251502 reach 0x3feec2d168b45a2d detour 0x3f7da40b57e2dd34 delivered 0x3feee231188c4674 iterations 1 delegated false",
    "bi-torus 8x8x8 2% @ 0.95: latency 0x40466f9771808c05 regular 0x40385f7c29b510e0 hot 0x405f5da2d653c44c wait 0x3fea5d8a2ba7bdf4 util 0x3fee5d338cfd5606 pairs 251502 reach 0x3feec2d168b45a2d detour 0x3f7da40b57e2dd34 delivered 0x3feee231188c4674 iterations 1 delegated false",
    "bi-torus 8x8x8 5%: lambda* 0x3f5514670f5760f7 probes 28",
    "bi-torus 8x8x8 5% @ 0.1: latency 0x403638068ba04667 regular 0x40362de8593fc7b8 hot 0x40365de74f3b9d69 wait 0x3f90625589edec1c util 0x3fb99197eb6bfafd pairs 228006 reach 0x3febe32190c86432 detour 0x3fa4e2379abc0533 delivered 0x3fec48b1255f7c6a iterations 1 delegated false",
    "bi-torus 8x8x8 5% @ 0.4: latency 0x4037225d696bc2fc regular 0x40369395289105ff hot 0x403938e3e2f9d118 wait 0x3fb151a87d4ae2b3 util 0x3fd99197eb6bfafd pairs 228006 reach 0x3febe32190c86432 detour 0x3fa4e2379abc0533 delivered 0x3fec48b1255f7c6a iterations 1 delegated false",
    "bi-torus 8x8x8 5% @ 0.7: latency 0x4039d4a1b0494937 regular 0x40370e702b740f87 hot 0x40421bab87e3db27 wait 0x3fc2ffac2c6bc0d9 util 0x3fe65f64edfe7b9d pairs 228006 reach 0x3febe32190c86432 detour 0x3fa4e2379abc0533 delivered 0x3fec48b1255f7c6a iterations 1 delegated false",
    "bi-torus 8x8x8 5% @ 0.95: latency 0x4046660e8d45ed3d regular 0x4038821381a59747 hot 0x405e302e10fa376c wait 0x3fea8271268f4f63 util 0x3fee5ce467903a0c pairs 228006 reach 0x3febe32190c86432 detour 0x3fa4e2379abc0533 delivered 0x3fec48b1255f7c6a iterations 1 delegated false",
];

#[test]
fn benchmark_sized_routers_match_the_recorded_tables() {
    let actual: Vec<String> = benchmark_cases()
        .into_iter()
        .map(|(name, faults)| router_summary(name, faults))
        .collect();
    assert_eq!(actual, BENCHMARK_ROUTER_SUMMARIES);
}

#[test]
fn benchmark_sized_models_match_the_recorded_bits() {
    assert_eq!(model_points(benchmark_cases()), BENCHMARK_MODEL_POINTS);
}
