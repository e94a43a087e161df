//! The seeded input generator.  Everything a workload hands the program
//! is derived here from `--seed` alone: the query batches as JSON text,
//! the validation point list, and the fault-set seeds.  The generator
//! uses its own PRNG and its own pinned constants, so a change to the
//! program cannot change the inputs it is measured on.

use std::fmt::Write as _;

/// SplitMix64: a small, fixed, well-mixed stream per seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6b6e_6375_6265_2d62)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

// ---------------------------------------------------------------------
// sim_validate
// ---------------------------------------------------------------------

/// Virtual channels, message length and hot fraction of every point.
pub const SIM_V: u32 = 2;
pub const SIM_LM: u32 = 16;
pub const SIM_H: f64 = 0.2;
/// The uni-torus leg: the (8, 3) cube of the `ncube` figure.
pub const UNI_KN: (u32, u32) = (8, 3);
/// The faulty leg: an 8×8 bidirectional torus with sampled faults.
pub const FAULTY_KN: (u32, u32) = (8, 2);
pub const FAULTY_DENSITY: f64 = 0.05;
/// Load of the calibration point that fixes the simulator's constant
/// instrumentation offset, as a fraction of λ*.
pub const CALIBRATION_FRAC: f64 = 0.05;
/// Validation loads, as fractions of λ*.  The faulty leg stops at 0.6
/// because uncertified fault samples can deadlock above it.
pub const UNI_FRACS: [f64; 6] = [0.1, 0.2, 0.35, 0.5, 0.65, 0.8];
pub const FAULTY_FRACS: [f64; 2] = [0.3, 0.6];
/// Fault-sample seeds of the faulty leg.  No 5% sample of the 8×8
/// bi-torus carries the deadlock-freedom certificate, and some deadlock
/// the simulator even at 0.3·λ*; these run every faulty-leg point to its
/// target (a test re-checks them), so the leg measures speed, not that
/// known gap.
pub const SIM_FAULT_SEEDS: [u64; 16] = [1, 2, 3, 5, 6, 7, 8, 9, 10, 12, 13, 14, 15, 16, 17, 18];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Leg {
    Uni,
    Faulty,
}

/// One model-vs-sim validation point.
#[derive(Clone, Debug, PartialEq)]
pub struct SimPoint {
    pub leg: Leg,
    /// Load as a fraction of the leg's model λ*.
    pub frac: f64,
    /// Simulator seed; on the faulty leg it is also the fault-sample
    /// seed, which the simulator and the model share.
    pub seed: u64,
}

/// The validation point list: per leg, its calibration point first.
pub fn sim_points(seed: u64) -> Vec<SimPoint> {
    let mut rng = Rng::new(seed ^ 0x5157);
    let fault_seed = SIM_FAULT_SEEDS[rng.below(SIM_FAULT_SEEDS.len())];
    let mut points = Vec::new();
    for frac in std::iter::once(CALIBRATION_FRAC).chain(UNI_FRACS) {
        points.push(SimPoint {
            leg: Leg::Uni,
            frac,
            seed: rng.next_u64(),
        });
    }
    for frac in std::iter::once(CALIBRATION_FRAC).chain(FAULTY_FRACS) {
        points.push(SimPoint {
            leg: Leg::Faulty,
            frac,
            seed: fault_seed,
        });
    }
    points
}

// ---------------------------------------------------------------------
// query_mix
// ---------------------------------------------------------------------

/// The six query geometries `(k, n, v, lm, h)`, from 256 to 4096 nodes.
pub const GEOMETRIES: [(u32, u32, u32, u32, f64); 6] = [
    (16, 2, 2, 32, 0.2),
    (4, 4, 2, 16, 0.2),
    (8, 3, 2, 16, 0.2),
    (32, 2, 2, 32, 0.1),
    (16, 3, 2, 16, 0.3),
    (8, 4, 2, 16, 0.1),
];

/// λ* of each geometry under the default pipelined service model and
/// under `path_occupancy`, pinned so the generator needs no model (a
/// test checks them against the model's own bisection).
pub const LAMBDA_STAR_PIPELINED: [f64; 6] = [
    5.605579004152237e-4,
    1.48348559814671e-3,
    6.36258709633603e-4,
    2.6774330332752464e-4,
    5.082711329831794e-5,
    1.6268677752384863e-4,
];
pub const LAMBDA_STAR_PATH: [f64; 6] = [
    1.4880876644880942e-4,
    9.001627211675847e-4,
    2.622181248884952e-4,
    4.41189657195042e-5,
    1.450788754106985e-5,
    7.000379802497161e-5,
];

/// Latency loads as fractions of λ*; from 0.9 up each load also appears
/// under the iterative path-occupancy service model with Anderson
/// acceleration.
pub const LATENCY_FRACS: [f64; 13] = [
    0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.98, 0.99,
];
pub const NEAR_SATURATION: f64 = 0.9;
pub const QUERIES_PER_BATCH: usize = 32;
pub const BATCHES: usize = 200;
/// Per batch: verbatim repeats of an earlier latency query of the same
/// batch (answered from the cache), and latency queries past λ* (which
/// must come back as typed errors).
pub const REPEATS_PER_BATCH: usize = 6;
pub const PAST_SATURATION_PER_BATCH: usize = 1;
/// Every second batch carries one `saturation` query, every fourth one
/// `pareto` query.
const SATURATION_EVERY: usize = 2;
const PARETO_EVERY: usize = 4;
/// Relative jitter on every generated λ.
const LAMBDA_JITTER: f64 = 0.01;

/// One query batch as the program receives it, plus what the checks
/// need to know about it.
#[derive(Clone, Debug, PartialEq)]
pub struct Batch {
    pub text: String,
    pub queries: usize,
    /// Indices of the latency queries placed deliberately past λ*.
    pub past_saturation: Vec<usize>,
}

fn knobs(out: &mut String, path_occupancy: bool) {
    if path_occupancy {
        out.push_str(",\"service_model\":\"path_occupancy\",\"anderson_depth\":4");
    }
}

fn latency_query(g: usize, lambda: f64, path_occupancy: bool) -> String {
    let (k, n, v, lm, h) = GEOMETRIES[g];
    let mut q = format!(
        "{{\"type\":\"latency\",\"k\":{k},\"n\":{n},\"v\":{v},\"lm\":{lm},\"h\":{h},\"lambda\":{lambda:e}"
    );
    knobs(&mut q, path_occupancy);
    q.push('}');
    q
}

/// A generated query: a below-λ* latency query (the kind a repeat may
/// copy), a latency query past λ*, or neither.
struct Query {
    text: String,
    repeatable: bool,
    past: bool,
}

/// A latency query at `frac`·λ*, with the λ jitter applied.
fn latency(rng: &mut Rng, g: usize, frac: f64, path_occupancy: bool) -> Query {
    let star = if path_occupancy {
        LAMBDA_STAR_PATH[g]
    } else {
        LAMBDA_STAR_PIPELINED[g]
    };
    let jitter = 1.0 + LAMBDA_JITTER * (rng.uniform() - 0.5);
    Query {
        text: latency_query(g, frac * star * jitter, path_occupancy),
        repeatable: frac < 1.0,
        past: frac > 1.0,
    }
}

/// Slots of batch `b` that are neither repeats nor fresh below-λ*
/// latency queries.
fn special_slots(b: usize) -> usize {
    PAST_SATURATION_PER_BATCH
        + usize::from(b.is_multiple_of(SATURATION_EVERY))
        + usize::from(b % PARETO_EVERY == 1)
}

/// `count` batches whose combined mix is fixed: the below-λ* latency
/// queries cycle evenly through every (geometry, load, service model),
/// and the saturation, pareto and past-λ* queries through the
/// geometries.  The seed decides which batch each query lands in, the
/// order within a batch, what the repeats copy, and the λ jitter — so
/// seeds differ in their inputs but not in the amount of work.
fn batches(rng: &mut Rng, count: usize) -> Vec<Batch> {
    let mut kinds = Vec::new();
    for g in 0..GEOMETRIES.len() {
        for frac in LATENCY_FRACS {
            kinds.push((g, frac, false));
            if frac >= NEAR_SATURATION {
                kinds.push((g, frac, true));
            }
        }
    }
    let fresh_slots = |b| QUERIES_PER_BATCH - REPEATS_PER_BATCH - special_slots(b);
    let total: usize = (0..count).map(fresh_slots).sum();
    let mut fresh: Vec<_> = (0..total).map(|i| kinds[i % kinds.len()]).collect();
    rng.shuffle(&mut fresh);
    let mut fresh = fresh.into_iter();

    let mut out = Vec::with_capacity(count);
    for b in 0..count {
        let mut queries = Vec::with_capacity(QUERIES_PER_BATCH);
        for _ in 0..fresh_slots(b) {
            let (g, frac, path) = fresh.next().expect("sized to the slots");
            queries.push(latency(rng, g, frac, path));
        }
        for i in 0..PAST_SATURATION_PER_BATCH {
            let g = (b * PAST_SATURATION_PER_BATCH + i) % GEOMETRIES.len();
            let frac = 1.05 + 0.45 * rng.uniform();
            queries.push(latency(rng, g, frac, false));
        }
        if b.is_multiple_of(SATURATION_EVERY) {
            let (k, n, v, lm, h) = GEOMETRIES[(b / SATURATION_EVERY) % GEOMETRIES.len()];
            queries.push(Query {
                text: format!(
                    "{{\"type\":\"saturation\",\"k\":{k},\"n\":{n},\"v\":{v},\"lm\":{lm},\"h\":{h}}}"
                ),
                repeatable: false,
                past: false,
            });
        }
        if b % PARETO_EVERY == 1 {
            let (_, _, v, lm, h) = GEOMETRIES[(b / PARETO_EVERY) % GEOMETRIES.len()];
            let min_nodes = [64, 256, 512][(b / PARETO_EVERY) % 3];
            let lambda = 5e-6 * (1.0 + rng.uniform());
            queries.push(Query {
                text: format!(
                    "{{\"type\":\"pareto\",\"v\":{v},\"lm\":{lm},\"h\":{h},\"lambda\":{lambda:e},\"min_nodes\":{min_nodes}}}"
                ),
                repeatable: false,
                past: false,
            });
        }
        rng.shuffle(&mut queries);
        for _ in 0..REPEATS_PER_BATCH {
            let sources: Vec<usize> = (0..queries.len())
                .filter(|&i| queries[i].repeatable)
                .collect();
            let src = sources[rng.below(sources.len())];
            let at = src + 1 + rng.below(queries.len() - src);
            let text = queries[src].text.clone();
            queries.insert(
                at,
                Query {
                    text,
                    repeatable: false,
                    past: false,
                },
            );
        }
        out.push(render(&queries));
    }
    out
}

fn render(queries: &[Query]) -> Batch {
    let mut text = String::from("{\"queries\": [\n");
    let mut past_saturation = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        if q.past {
            past_saturation.push(i);
        }
        let sep = if i + 1 < queries.len() { "," } else { "" };
        let _ = writeln!(text, "  {}{sep}", q.text);
    }
    text.push_str("]}\n");
    Batch {
        text,
        queries: queries.len(),
        past_saturation,
    }
}

/// Batches each round runs first, as its set-up; no per-batch figure
/// counts them.
pub const WARMUP_BATCHES: usize = 4;

/// The [`WARMUP_BATCHES`] warm-up batches and the [`BATCHES`] measured
/// batches.
pub fn query_batches(seed: u64) -> (Vec<Batch>, Vec<Batch>) {
    let mut rng = Rng::new(seed ^ 0x9e7);
    let warmup = batches(&mut rng, WARMUP_BATCHES);
    (warmup, batches(&mut rng, BATCHES))
}

// ---------------------------------------------------------------------
// faulty_scale
// ---------------------------------------------------------------------

/// Bidirectional tori `(k, n)` of 256 and 512 nodes.
pub const FAULTY_SIZES: [(u32, u32); 2] = [(16, 2), (8, 3)];
pub const FAULTY_DENSITIES: [f64; 3] = [0.0, 0.02, 0.05];
pub const FAULTY_V: u32 = 2;
pub const FAULTY_LM: u32 = 16;
pub const FAULTY_H: f64 = 0.2;
/// The latency curve, as fractions of the fault set's λ*.
pub const CURVE_FRACS: [f64; 6] = [0.1, 0.3, 0.5, 0.7, 0.8, 0.9];
/// Loads of the cache calls; the repeat is answered from the cache.
pub const CACHE_FRACS: [f64; 3] = [0.25, 0.55, 0.25];

/// One fault set to analyse.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultCase {
    pub k: u32,
    pub n: u32,
    pub density: f64,
    pub seed: u64,
}

pub fn fault_cases(seed: u64) -> Vec<FaultCase> {
    let mut rng = Rng::new(seed ^ 0xfa17);
    let mut cases = Vec::new();
    for (k, n) in FAULTY_SIZES {
        for density in FAULTY_DENSITIES {
            cases.push(FaultCase {
                k,
                n,
                density,
                seed: rng.next_u64(),
            });
        }
    }
    cases
}

#[cfg(test)]
mod tests {
    use super::*;
    use kncube_core::{find_saturation_ncube, NCubeConfig, ServiceTimeModel};

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        for seed in [0, 1, 42, u64::MAX] {
            let (w1, b1) = query_batches(seed);
            let (w2, b2) = query_batches(seed);
            assert_eq!(w1, w2);
            assert_eq!(b1, b2);
            assert_eq!(
                format!("{:?}", sim_points(seed)),
                format!("{:?}", sim_points(seed))
            );
            assert_eq!(
                format!("{:?}", fault_cases(seed)),
                format!("{:?}", fault_cases(seed))
            );
        }
        assert_ne!(query_batches(1).1, query_batches(2).1);
        assert_ne!(sim_points(1), sim_points(2));
        assert_ne!(fault_cases(1), fault_cases(2));
    }

    #[test]
    fn batches_have_the_stated_mix() {
        let (_, batches) = query_batches(7);
        assert_eq!(batches.len(), BATCHES);
        let text: String = batches.iter().map(|b| b.text.as_str()).collect();
        let count = |needle: &str| text.matches(needle).count();
        let total = BATCHES * QUERIES_PER_BATCH;
        assert_eq!(count("\"type\""), total);
        assert!(count("\"saturation\"") > 0 && count("\"pareto\"") > 0);
        assert!(count("path_occupancy") > 0);
        let past: usize = batches.iter().map(|b| b.past_saturation.len()).sum();
        assert!(past > 0 && past < total / 10, "{past}");
        for b in &batches {
            assert_eq!(b.queries, QUERIES_PER_BATCH);
            kncube_bench::json::parse(&b.text).expect("generated batches are valid JSON");
        }
    }

    #[test]
    fn pinned_saturation_rates_match_the_model() {
        for (g, &(k, n, v, lm, h)) in GEOMETRIES.iter().enumerate() {
            let mut cfg = NCubeConfig::new(k, n, v, lm, 0.0, h);
            let pipelined = find_saturation_ncube(cfg, 1e-9, 1e-1, 1e-9).unwrap();
            cfg.service_model = ServiceTimeModel::PathOccupancy;
            let path = find_saturation_ncube(cfg, 1e-9, 1e-1, 1e-9).unwrap();
            let close = |a: f64, b: f64| (a - b).abs() <= 1e-6 * b;
            assert!(
                close(LAMBDA_STAR_PIPELINED[g], pipelined) && close(LAMBDA_STAR_PATH[g], path),
                "geometry {g}: pinned ({:e}, {:e}) vs model ({pipelined:e}, {path:e})",
                LAMBDA_STAR_PIPELINED[g],
                LAMBDA_STAR_PATH[g]
            );
        }
    }
}
