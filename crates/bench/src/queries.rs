//! The batched model-query engine: JSON in, JSON out.
//!
//! The `queries` binary answers batches of design-space questions against
//! the analytical model — point latencies, saturation rates, and Pareto
//! picks ("the lowest-latency cube with at least N nodes").  The engine
//! is built from two ingredients the interactive figure binaries don't
//! use, plus a dedupe that rides on the first:
//!
//! * **warm-start continuation**: every solve of the batch — a latency
//!   query or a Pareto candidate — is a link of the chain of its geometry
//!   (its snapped configuration at `λ = 0`), and each chain is solved in
//!   order of `λ`, every fixed point starting from its neighbour's
//!   converged state ([`kncube_core::NCubeModel::solve_warm`]);
//! * **Anderson acceleration** for the iterative service-time ablation,
//!   where plain Picard slows to hundreds of iterations near saturation;
//! * **shared repeats**: a link is solved at its snapped configuration
//!   ([`SolveCache::quantize`]), and a link whose snapped configuration
//!   equals its predecessor's reuses that answer and warm state.  Within
//!   a chain only `λ` varies, links are sorted by `λ`, and snapping is
//!   monotone, so equal snapped configurations are adjacent: every
//!   distinct one is solved once per batch.
//!
//! Chains and saturation searches run in parallel on the bounded rayon
//! pool, largest estimated cost first; Pareto answers are assembled from
//! their candidates' links afterwards.  Units share no state, so the
//! output is a pure function of the input batch, whatever the thread
//! count and the order units run in.
//!
//! # Input document
//!
//! ```json
//! { "queries": [
//!   { "type": "latency", "k": 16, "n": 2, "v": 2, "lm": 32,
//!     "h": 0.2, "lambda": 1e-4 },
//!   { "type": "saturation", "k": 8, "n": 3, "v": 2, "lm": 16, "h": 0.3 },
//!   { "type": "pareto", "v": 2, "lm": 32, "h": 0.2, "lambda": 1e-5,
//!     "min_nodes": 256, "candidates": [[16, 2], [8, 3], [4, 4]] }
//! ] }
//! ```
//!
//! Latency and saturation queries accept two optional knobs:
//! `"service_model"` (`"pipelined_transfer"`, the default, or
//! `"path_occupancy"`) and `"anderson_depth"` (a positive integer turning
//! on Anderson acceleration of that depth).  Pareto queries accept them
//! too and apply them to every candidate.
//!
//! # Output document
//!
//! One result object per query, in input order, each tagged with the
//! query `type` and an `"ok"` flag; failures (e.g. a latency query past
//! `λ*`) carry an `"error"` string instead of aborting the batch.  The
//! footer `"cache"` object counts the batch's links: `misses` and
//! `entries` are its distinct snapped configurations, each solved once,
//! and `hits` the links that shared one of those solves.
//!
//! Answers are for the *quantized* configuration (the `λ`/`h` lattice of
//! [`SolveCache::quantize`], relative snap below `2⁻²⁰`); latency results
//! echo the snapped `λ` they solved.

use crate::benchfile;
use crate::json::Json;
use crate::{or_exit, SATURATION_BRACKET};
use kncube_core::{
    find_saturation_ncube_report, ModelError, NCubeConfig, NCubeModel, NCubeOutput,
    ServiceTimeModel, SolveCache,
};
use kncube_queueing::fixed_point::Acceleration;
use rayon::prelude::*;
use std::collections::HashMap;
use std::time::Instant;

/// Default candidate `(k, n)` geometries for Pareto queries that don't
/// supply their own list: every cube from 16 to ~4096 nodes with radix a
/// power of two, the range the simulator cross-validates.
pub const DEFAULT_PARETO_CANDIDATES: [(u32, u32); 9] = [
    (4, 2),
    (8, 2),
    (16, 2),
    (32, 2),
    (4, 3),
    (8, 3),
    (16, 3),
    (4, 4),
    (8, 4),
];

/// Relative tolerance of the saturation bisections behind `"saturation"`
/// queries and the query benchmark's grids: finer than the crate's
/// [`crate::SATURATION_REL_TOL`], so that the reported `λ*` is stable
/// under the `λ` quantization of [`SolveCache::quantize`].
const SATURATION_REL_TOL: f64 = 1e-6;

/// A parsed query.
#[derive(Debug)]
enum Query {
    Latency(NCubeConfig),
    Saturation(NCubeConfig),
    Pareto {
        proto: NCubeConfig,
        min_nodes: u64,
        candidates: Vec<(u32, u32)>,
    },
}

/// A link's answer: its solve, or why it has none.
type Answer = Result<NCubeOutput, ModelError>;

/// A schedulable unit of batch work: one continuation chain (link
/// indices, in solve order) or one saturation search (by query index).
enum Unit {
    Chain(Vec<usize>),
    Saturation(usize, NCubeConfig),
}

impl Unit {
    /// Estimated run time, to order units longest first: the geometry's
    /// node count `k^n` times a weight per unit kind, times the chain
    /// length for a chain.  The weights are measured unit times per node,
    /// in steps of about 15 ns (release build on 2 vCPUs, geometries of
    /// 256 to 4096 nodes): a link weighs 1 under pipelined transfer and
    /// 10 under path occupancy with Anderson depth 4; a λ* search weighs
    /// 14 under pipelined transfer and 10 000 under path occupancy,
    /// whose cold probes near λ* iterate far longer.  Since then the
    /// composition's profile row made pipelined units 2–4× cheaper at
    /// 4096 nodes; no replay has shown other weights to schedule shorter
    /// (EXPERIMENTS.md §Cost per query kind).  The estimate only orders
    /// units; no answer depends on it.
    fn estimated_cost(&self, links: &[NCubeConfig]) -> u64 {
        let (cfg, solves, [pipelined, path_occupancy]) = match self {
            Unit::Chain(chain) => (&links[chain[0]], chain.len() as u64, [1, 10]),
            Unit::Saturation(_, cfg) => (cfg, 1, [14, 10_000]),
        };
        let weight = match cfg.service_model {
            ServiceTimeModel::PipelinedTransfer => pipelined,
            ServiceTimeModel::PathOccupancy => path_occupancy,
        };
        u64::from(cfg.k)
            .saturating_pow(cfg.n)
            .saturating_mul(solves * weight)
    }
}

/// Order `units` longest first (LPT scheduling): the pool's workers take
/// units in this order, so the largest ones start at once and the small
/// ones fill in around them instead of a large one starting last.
fn longest_first(units: &mut [Unit], links: &[NCubeConfig]) {
    units.sort_by_cached_key(|unit| std::cmp::Reverse(unit.estimated_cost(links)));
}

/// What a unit produced: each link's solve and the number of solves that
/// ran, or one saturation answer.
enum Done {
    Chain(Vec<(usize, Answer)>, usize),
    Saturation(usize, Json),
}

fn req_num(q: &Json, i: usize, key: &str) -> Result<f64, String> {
    q.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("queries[{i}]: missing numeric field '{key}'"))
}

fn req_u32(q: &Json, i: usize, key: &str) -> Result<u32, String> {
    let x = req_num(q, i, key)?;
    if x >= 0.0 && x.fract() == 0.0 && x <= u32::MAX as f64 {
        Ok(x as u32)
    } else {
        Err(format!("queries[{i}]: field '{key}' must be an integer"))
    }
}

/// Shared `(v, lm, h, knobs)` parsing of latency, saturation and pareto
/// queries into a config at the given `k`, `n` and `λ` (pareto prototypes
/// pass placeholders for `k`/`n`).
fn parse_config(q: &Json, i: usize, k: u32, n: u32, lambda: f64) -> Result<NCubeConfig, String> {
    let v = req_u32(q, i, "v")?;
    let lm = req_u32(q, i, "lm")?;
    let h = req_num(q, i, "h")?;
    let mut cfg = NCubeConfig::new(k, n, v, lm, lambda, h);
    match q.get("service_model").and_then(Json::as_str) {
        None | Some("pipelined_transfer") => {}
        Some("path_occupancy") => cfg.service_model = ServiceTimeModel::PathOccupancy,
        Some(other) => {
            return Err(format!(
                "queries[{i}]: unknown service_model '{other}' \
                 (expected 'pipelined_transfer' or 'path_occupancy')"
            ))
        }
    }
    if let Some(depth) = q.get("anderson_depth") {
        let depth = depth
            .as_f64()
            .filter(|d| *d >= 1.0 && d.fract() == 0.0 && *d <= 64.0)
            .ok_or_else(|| format!("queries[{i}]: anderson_depth must be an integer in 1..=64"))?;
        cfg.acceleration = Acceleration::Anderson {
            depth: depth as usize,
        };
    }
    Ok(cfg)
}

fn parse_query(q: &Json, i: usize) -> Result<Query, String> {
    match q.get("type").and_then(Json::as_str) {
        Some("latency") => {
            let k = req_u32(q, i, "k")?;
            let n = req_u32(q, i, "n")?;
            let lambda = req_num(q, i, "lambda")?;
            Ok(Query::Latency(parse_config(q, i, k, n, lambda)?))
        }
        Some("saturation") => {
            let k = req_u32(q, i, "k")?;
            let n = req_u32(q, i, "n")?;
            Ok(Query::Saturation(parse_config(q, i, k, n, 0.0)?))
        }
        Some("pareto") => {
            let lambda = req_num(q, i, "lambda")?;
            let min_nodes = req_num(q, i, "min_nodes")?;
            if !(min_nodes >= 1.0 && min_nodes.fract() == 0.0) {
                return Err(format!(
                    "queries[{i}]: min_nodes must be a positive integer"
                ));
            }
            let candidates = match q.get("candidates") {
                None => DEFAULT_PARETO_CANDIDATES.to_vec(),
                Some(list) => {
                    let items = list
                        .as_arr()
                        .ok_or_else(|| format!("queries[{i}]: candidates must be an array"))?;
                    let mut pairs = Vec::with_capacity(items.len());
                    for item in items {
                        let pair = item.as_arr().filter(|p| p.len() == 2).ok_or_else(|| {
                            format!("queries[{i}]: each candidate must be a [k, n] pair")
                        })?;
                        let as_u32 = |x: &Json| {
                            x.as_f64()
                                .filter(|v| *v >= 1.0 && v.fract() == 0.0 && *v <= u32::MAX as f64)
                                .map(|v| v as u32)
                        };
                        match (as_u32(&pair[0]), as_u32(&pair[1])) {
                            (Some(k), Some(n)) => pairs.push((k, n)),
                            _ => {
                                return Err(format!(
                                    "queries[{i}]: candidate entries must be positive integers"
                                ))
                            }
                        }
                    }
                    pairs
                }
            };
            if candidates.is_empty() {
                return Err(format!("queries[{i}]: candidates must not be empty"));
            }
            // k/n placeholders: each candidate substitutes its own.
            let proto = parse_config(q, i, 2, 2, lambda)?;
            Ok(Query::Pareto {
                proto,
                min_nodes: min_nodes as u64,
                candidates,
            })
        }
        Some(other) => Err(format!(
            "queries[{i}]: unknown type '{other}' \
             (expected 'latency', 'saturation' or 'pareto')"
        )),
        None => Err(format!("queries[{i}]: missing string field 'type'")),
    }
}

/// The result object of a query of type `kind` that has no answer.
fn error_result(kind: &str, message: String) -> Json {
    let mut out = Json::obj();
    out.set("type", Json::Str(kind.into()));
    out.set("ok", Json::Bool(false));
    out.set("error", Json::Str(message));
    out
}

fn latency_result(cfg: &NCubeConfig, solved: Answer) -> Json {
    match solved {
        Ok(out) => {
            let mut r = Json::obj();
            r.set("type", Json::Str("latency".into()));
            r.set("ok", Json::Bool(true));
            r.set("lambda", Json::Num(SolveCache::quantize(cfg).lambda));
            r.set("latency", Json::Num(out.latency));
            r.set("regular_latency", Json::Num(out.regular_latency));
            r.set("hot_latency", Json::Num(out.hot_latency));
            r.set("max_utilization", Json::Num(out.max_utilization));
            r.set("iterations", Json::Num(out.iterations as f64));
            r
        }
        Err(e) => error_result("latency", e.to_string()),
    }
}

/// Solve the links of `chain` in order, each at its snapped config and
/// warm-started from the last solve; a link whose snapped config equals
/// the last solve's shares its answer.  Returns each link's answer and the
/// number of solves that ran.
fn solve_chain(chain: &[usize], links: &[NCubeConfig]) -> (Vec<(usize, Answer)>, usize) {
    let mut answers: Vec<(usize, Answer)> = Vec::with_capacity(chain.len());
    // The last solve: its snapped config, the position of its answer and
    // its converged state (none after a failure).
    let mut last: Option<(NCubeConfig, usize, Option<Vec<f64>>)> = None;
    let mut solves = 0;
    for &link in chain {
        let snapped = SolveCache::quantize(&links[link]);
        if let Some((key, at, _)) = &last {
            if *key == snapped {
                let shared = answers[*at].1.clone();
                answers.push((link, shared));
                continue;
            }
        }
        let warm = last.take().and_then(|(.., state)| state);
        let (answer, state) =
            match NCubeModel::new(snapped).and_then(|model| model.solve_warm(warm.as_deref())) {
                Ok((out, state)) => (Ok(out), Some(state)),
                Err(e) => (Err(e), None),
            };
        last = Some((snapped, answers.len(), state));
        answers.push((link, answer));
        solves += 1;
    }
    (answers, solves)
}

fn run_unit(unit: &Unit, links: &[NCubeConfig]) -> Done {
    match unit {
        Unit::Chain(chain) => {
            let (answers, solves) = solve_chain(chain, links);
            Done::Chain(answers, solves)
        }
        Unit::Saturation(idx, cfg) => {
            let (lo, hi) = SATURATION_BRACKET;
            let report = find_saturation_ncube_report(*cfg, lo, hi, SATURATION_REL_TOL);
            let result = match report {
                Ok(report) => {
                    let mut r = Json::obj();
                    r.set("type", Json::Str("saturation".into()));
                    r.set("ok", Json::Bool(true));
                    r.set("lambda_star", Json::Num(report.lambda_star));
                    r.set("probes", Json::Num(report.probes as f64));
                    r.set(
                        "solver_iterations",
                        Json::Num(report.solver_iterations as f64),
                    );
                    r.set("mean_iterations", Json::Num(report.mean_iterations()));
                    r
                }
                Err(e) => error_result("saturation", e.to_string()),
            };
            Done::Saturation(*idx, result)
        }
    }
}

/// The answer of a Pareto query from the solves of its eligible
/// candidates (`links`, in candidate order): the lowest latency, the
/// first candidate on a tie.
fn pareto_result(
    proto: &NCubeConfig,
    min_nodes: u64,
    links: &[NCubeConfig],
    solved: &[Option<Answer>],
) -> Json {
    let mut best: Option<(&NCubeConfig, f64)> = None;
    for (cfg, solve) in links.iter().zip(solved) {
        if let Some(Ok(out)) = solve {
            if best.is_none_or(|(_, l)| out.latency < l) {
                best = Some((cfg, out.latency));
            }
        }
    }
    let Some((cfg, latency)) = best else {
        return error_result(
            "pareto",
            format!(
                "no candidate with at least {min_nodes} nodes solves at λ={}",
                proto.lambda
            ),
        );
    };
    let mut r = Json::obj();
    r.set("type", Json::Str("pareto".into()));
    r.set("ok", Json::Bool(true));
    r.set("k", Json::Num(cfg.k as f64));
    r.set("n", Json::Num(cfg.n as f64));
    r.set(
        "nodes",
        Json::Num((cfg.k as u64).saturating_pow(cfg.n) as f64),
    );
    r.set("latency", Json::Num(latency));
    r
}

/// Answer a batch document.  Returns the output document, or a message
/// describing the first malformed query.
pub fn run_batch(doc: &Json) -> Result<Json, String> {
    let queries = doc
        .get("queries")
        .and_then(Json::as_arr)
        .ok_or("input document must have a 'queries' array")?;
    let parsed: Vec<Query> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| parse_query(q, i))
        .collect::<Result<_, _>>()?;

    // Every solve is a link: one per latency query, one per Pareto
    // candidate with enough nodes; query `idx` owns `query_links[idx]`.
    let mut links: Vec<NCubeConfig> = Vec::new();
    let mut query_links = Vec::with_capacity(parsed.len());
    let mut units: Vec<Unit> = Vec::new();
    for (idx, query) in parsed.iter().enumerate() {
        let first = links.len();
        match query {
            Query::Latency(cfg) => links.push(*cfg),
            Query::Saturation(cfg) => units.push(Unit::Saturation(idx, *cfg)),
            Query::Pareto {
                proto,
                min_nodes,
                candidates,
            } => links.extend(
                candidates
                    .iter()
                    .filter(|&&(k, n)| (k as u64).saturating_pow(n) >= *min_nodes)
                    .map(|&(k, n)| NCubeConfig { k, n, ..*proto }),
            ),
        }
        query_links.push(first..links.len());
    }

    // A link joins the chain of its snapped config at λ = 0, solved in
    // order of λ (input order on a tie).
    let mut chains: HashMap<NCubeConfig, Vec<usize>> = HashMap::new();
    for (link, cfg) in links.iter().enumerate() {
        let geometry = SolveCache::quantize(&NCubeConfig {
            lambda: 0.0,
            ..*cfg
        });
        chains.entry(geometry).or_default().push(link);
    }
    for (_, mut chain) in chains {
        chain.sort_by(|&a, &b| links[a].lambda.total_cmp(&links[b].lambda));
        units.push(Unit::Chain(chain));
    }

    longest_first(&mut units, &links);
    let done: Vec<Done> = units
        .par_iter()
        .map(|unit| run_unit(unit, &links))
        .collect();

    let mut solved: Vec<Option<Answer>> = vec![None; links.len()];
    let mut results: Vec<Json> = vec![Json::Null; parsed.len()];
    let mut solves = 0;
    for unit in done {
        match unit {
            Done::Chain(chain, chain_solves) => {
                for (link, solve) in chain {
                    solved[link] = Some(solve);
                }
                solves += chain_solves;
            }
            Done::Saturation(idx, result) => results[idx] = result,
        }
    }
    for ((query, range), result) in parsed.iter().zip(query_links).zip(&mut results) {
        match query {
            Query::Latency(cfg) => {
                let solve = solved[range.start].take().expect("every link is solved");
                *result = latency_result(cfg, solve);
            }
            Query::Saturation(_) => {}
            Query::Pareto {
                proto, min_nodes, ..
            } => {
                *result = pareto_result(proto, *min_nodes, &links[range.clone()], &solved[range]);
            }
        }
    }

    let mut out = Json::obj();
    out.set("results", Json::Arr(results));
    let mut stats = Json::obj();
    stats.set("hits", Json::Num((links.len() - solves) as f64));
    stats.set("misses", Json::Num(solves as f64));
    stats.set("entries", Json::Num(solves as f64));
    out.set("cache", stats);
    Ok(out)
}

/// Cross-check an output document against cold solves: every latency
/// result must agree with a fresh `NCubeModel::solve` of its quantized
/// configuration to within `1e-9` relative.  Returns the violations
/// (empty = the engine and the cold path agree).
pub fn check_cold(input: &Json, output: &Json) -> Result<Vec<String>, String> {
    let queries = input
        .get("queries")
        .and_then(Json::as_arr)
        .ok_or("input document must have a 'queries' array")?;
    let results = output
        .get("results")
        .and_then(Json::as_arr)
        .ok_or("output document must have a 'results' array")?;
    if queries.len() != results.len() {
        return Err(format!(
            "query/result length mismatch: {} vs {}",
            queries.len(),
            results.len()
        ));
    }
    let mut violations = Vec::new();
    for (i, (q, r)) in queries.iter().zip(results).enumerate() {
        let Query::Latency(cfg) = parse_query(q, i)? else {
            continue;
        };
        let cold = NCubeModel::new(SolveCache::quantize(&cfg)).and_then(|m| m.solve());
        let ok = r.get("ok") == Some(&Json::Bool(true));
        match (cold, ok) {
            (Ok(cold), true) => {
                let engine = r.get("latency").and_then(Json::as_f64).unwrap_or(f64::NAN);
                let rel = (engine - cold.latency).abs() / cold.latency.abs().max(1.0);
                if rel.is_nan() || rel > 1e-9 {
                    violations.push(format!(
                        "queries[{i}]: engine latency {engine} vs cold {} \
                         (relative difference {rel:.3e} > 1e-9)",
                        cold.latency
                    ));
                }
            }
            (Err(_), false) => {}
            (Ok(_), false) => violations.push(format!(
                "queries[{i}]: engine failed where cold solve succeeds"
            )),
            (Err(e), true) => violations.push(format!(
                "queries[{i}]: engine answered where cold solve fails ({e})"
            )),
        }
    }
    Ok(violations)
}

// ---------------------------------------------------------------------
// The query-throughput benchmark (BENCH_model_queries.json)
// ---------------------------------------------------------------------

/// Benchmark geometries `(k, n, v, lm, h)` — the paper's torus at two
/// subfigure corners plus a 3-cube, all under the iterative
/// path-occupancy ablation (the service model where the fixed point
/// actually iterates; the default pipelined model converges in 2
/// iterations from any start and has nothing to accelerate).
const BENCH_CONFIGS: [(u32, u32, u32, u32, f64); 3] = [
    (16, 2, 2, 32, 0.2),
    (16, 2, 2, 100, 0.7),
    (8, 3, 2, 16, 0.3),
];

/// The benchmark λ grid spans this band of `λ*` — the near-saturation
/// regime where Picard's contraction rate degrades towards 1 and cold
/// solves cost hundreds of iterations.  This is also where design-space
/// exploration spends its probes: bisection clusters at `λ*`.
const GRID_BAND: (f64, f64) = (0.98, 0.9999);

/// Run the λ-grid query benchmark and emit the
/// `BENCH_model_queries.json` document (schema
/// [`benchfile::MODEL_QUERIES`]).  `quick` shrinks the grids for CI smoke
/// runs; the reduction factors are deterministic either way.
pub fn run_query_bench(quick: bool) -> Json {
    let points = if quick { 48 } else { 128 };
    let (lo, hi) = GRID_BAND;

    let mut configs = Vec::new();
    let mut total_queries = 0usize;
    let mut total_cold_iters = 0usize;
    let mut total_warm_iters = 0usize;
    let mut total_warm_secs = 0.0f64;

    for (k, n, v, lm, h) in BENCH_CONFIGS {
        let mut base = NCubeConfig::new(k, n, v, lm, 0.0, h);
        base.service_model = ServiceTimeModel::PathOccupancy;
        let (sat_lo, sat_hi) = SATURATION_BRACKET;
        let sat = or_exit(
            find_saturation_ncube_report(base, sat_lo, sat_hi, SATURATION_REL_TOL),
            "saturation search failed",
        )
        .lambda_star;
        let configs_grid: Vec<NCubeConfig> = (0..points)
            .map(|i| {
                let f = lo + (hi - lo) * i as f64 / (points - 1) as f64;
                NCubeConfig {
                    lambda: sat * f,
                    ..base
                }
            })
            .collect();

        // Cold pass: what a naive caller pays — independent Picard
        // solves, no shared repeats, no continuation.
        let cold_start = Instant::now();
        let mut cold_iters = 0usize;
        for cfg in &configs_grid {
            let solved = NCubeModel::new(*cfg).and_then(|m| m.solve());
            cold_iters += or_exit(
                solved,
                format_args!("cold solve failed at λ={}", cfg.lambda),
            )
            .iterations;
        }
        let cold_secs = cold_start.elapsed().as_secs_f64().max(1e-9);

        // Engine pass: the batch path — one Anderson-accelerated chain of
        // warm-started solves, as `run_batch` runs it.
        let mut accelerated = configs_grid.clone();
        for cfg in &mut accelerated {
            cfg.acceleration = Acceleration::Anderson { depth: 4 };
        }
        let warm_start = Instant::now();
        let chain: Vec<usize> = (0..points).collect();
        let (answers, _) = solve_chain(&chain, &accelerated);
        let warm_secs = warm_start.elapsed().as_secs_f64().max(1e-9);
        let mut warm_iters = 0usize;
        for ((_, solved), cfg) in answers.into_iter().zip(&accelerated) {
            warm_iters += or_exit(
                solved,
                format_args!("engine solve failed at λ={}", cfg.lambda),
            )
            .iterations;
        }

        let reduction = cold_iters as f64 / warm_iters.max(1) as f64;
        eprintln!(
            "k={k} n={n} lm={lm} h={h}: {points} queries in [{lo}, {hi}]·λ*: \
             cold {:.1} iters/query, engine {:.1} ({reduction:.2}x), \
             {:.0} queries/s warm",
            cold_iters as f64 / points as f64,
            warm_iters as f64 / points as f64,
            points as f64 / warm_secs,
        );

        let mut entry = benchfile::config_entry(k, n, v, lm, h);
        entry.set("service_model", Json::Str("path_occupancy".into()));
        entry.set("saturation_lambda", Json::Num(sat));
        entry.set("points", Json::Num(points as f64));
        entry.set("grid_lo_fraction", Json::Num(lo));
        entry.set("grid_hi_fraction", Json::Num(hi));
        entry.set(
            "cold_mean_iterations",
            Json::Num(cold_iters as f64 / points as f64),
        );
        entry.set(
            "warm_mean_iterations",
            Json::Num(warm_iters as f64 / points as f64),
        );
        entry.set("iteration_reduction", Json::Num(reduction));
        entry.set("cold_seconds", Json::Num(cold_secs));
        entry.set("warm_seconds", Json::Num(warm_secs));
        entry.set("queries_per_sec", Json::Num(points as f64 / warm_secs));
        configs.push(entry);

        total_queries += points;
        total_cold_iters += cold_iters;
        total_warm_iters += warm_iters;
        total_warm_secs += warm_secs;
    }

    let mut doc = benchfile::header(&benchfile::MODEL_QUERIES, quick);
    doc.set(
        "queries_per_sec",
        Json::Num(total_queries as f64 / total_warm_secs.max(1e-9)),
    );
    doc.set(
        "mean_iteration_reduction",
        Json::Num(total_cold_iters as f64 / total_warm_iters.max(1) as f64),
    );
    doc.set("configs", Json::Arr(configs));
    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn batch(text: &str) -> Json {
        parse(text).expect("test batches are valid JSON")
    }

    /// A batch of latency queries of `cfg` (default knobs), one per rate.
    fn latency_batch(cfg: &NCubeConfig, lambdas: &[f64]) -> Json {
        let queries: Vec<String> = lambdas
            .iter()
            .map(|lambda| {
                format!(
                    r#"{{"type": "latency", "k": {}, "n": {}, "v": {}, "lm": {}, "h": {:?}, "lambda": {lambda:?}}}"#,
                    cfg.k, cfg.n, cfg.virtual_channels, cfg.message_length, cfg.hot_fraction
                )
            })
            .collect();
        batch(&format!(r#"{{"queries": [{}]}}"#, queries.join(", ")))
    }

    /// Result `i`'s field `key`.
    fn field<'a>(output: &'a Json, i: usize, key: &str) -> &'a Json {
        output.get("results").unwrap().as_arr().unwrap()[i]
            .get(key)
            .unwrap()
    }

    /// The `[hits, misses, entries]` footer of an output document.
    fn footer(output: &Json) -> [f64; 3] {
        let stats = output.get("cache").unwrap();
        ["hits", "misses", "entries"].map(|key| stats.get(key).and_then(Json::as_f64).unwrap())
    }

    #[test]
    fn latency_batch_matches_cold_solves() {
        let input = batch(
            r#"{"queries": [
                {"type": "latency", "k": 16, "n": 2, "v": 2, "lm": 32, "h": 0.2, "lambda": 1e-4},
                {"type": "latency", "k": 16, "n": 2, "v": 2, "lm": 32, "h": 0.2, "lambda": 5e-5},
                {"type": "latency", "k": 8, "n": 3, "v": 2, "lm": 16, "h": 0.3, "lambda": 2e-5}
            ]}"#,
        );
        let output = run_batch(&input).unwrap();
        let violations = check_cold(&input, &output).unwrap();
        assert!(violations.is_empty(), "{violations:?}");
        // Results come back in input order: λ=1e-4 first despite the
        // chain being sorted ascending.
        let results = output.get("results").unwrap().as_arr().unwrap();
        assert_eq!(results.len(), 3);
        assert!((results[0].get("lambda").unwrap().as_f64().unwrap() - 1e-4).abs() < 1e-9);
        let l0 = results[0].get("latency").unwrap().as_f64().unwrap();
        let l1 = results[1].get("latency").unwrap().as_f64().unwrap();
        assert!(
            l0 > l1,
            "higher load must have higher latency: {l0} vs {l1}"
        );
    }

    #[test]
    fn saturated_latency_queries_fail_soft() {
        // Far past saturation for the paper geometry, twice: the repeat
        // shares the failed solve.
        let cfg = NCubeConfig::new(16, 2, 2, 32, 5e-3, 0.2);
        let input = latency_batch(&cfg, &[5e-3, 1e-5, 5e-3]);
        let output = run_batch(&input).unwrap();
        assert_eq!(field(&output, 0, "ok"), &Json::Bool(false));
        let error = field(&output, 0, "error").as_str().unwrap();
        assert!(error.contains("saturated"), "{error}");
        assert_eq!(field(&output, 2, "error"), field(&output, 0, "error"));
        assert_eq!(field(&output, 1, "ok"), &Json::Bool(true));
        assert_eq!(footer(&output), [1.0, 2.0, 2.0]);
        let violations = check_cold(&input, &output).unwrap();
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn tiny_negative_rates_are_typed_errors() {
        // -5e-324 has no mantissa bit above the snapped ones; it must not
        // snap to a zero-load answer.
        let cfg = NCubeConfig::new(8, 3, 2, 16, 0.0, 0.2);
        let input = latency_batch(&cfg, &[-5e-324, -1e-5, 0.0]);
        let output = run_batch(&input).unwrap();
        for i in [0, 1] {
            assert_eq!(field(&output, i, "ok"), &Json::Bool(false), "query {i}");
        }
        let error = field(&output, 0, "error").as_str().unwrap();
        assert!(error.contains("λ must be finite and >= 0"), "{error}");
        assert_eq!(field(&output, 1, "error"), field(&output, 0, "error"));
        assert_eq!(field(&output, 2, "ok"), &Json::Bool(true));
    }

    #[test]
    fn saturation_query_agrees_with_the_direct_search() {
        let input = batch(
            r#"{"queries": [
                {"type": "saturation", "k": 8, "n": 3, "v": 2, "lm": 16, "h": 0.3}
            ]}"#,
        );
        let output = run_batch(&input).unwrap();
        let r = &output.get("results").unwrap().as_arr().unwrap()[0];
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)));
        let engine = r.get("lambda_star").unwrap().as_f64().unwrap();
        let (lo, hi) = SATURATION_BRACKET;
        let direct = kncube_core::find_saturation_ncube(
            NCubeConfig::new(8, 3, 2, 16, 0.0, 0.3),
            lo,
            hi,
            SATURATION_REL_TOL,
        )
        .unwrap();
        assert_eq!(engine.to_bits(), direct.to_bits());
        assert!(r.get("probes").unwrap().as_f64().unwrap() > 10.0);
    }

    #[test]
    fn pareto_picks_the_lowest_latency_big_enough_cube() {
        let input = batch(
            r#"{"queries": [
                {"type": "pareto", "v": 2, "lm": 16, "h": 0.2, "lambda": 1e-6,
                 "min_nodes": 256, "candidates": [[4, 2], [16, 2], [8, 3], [4, 4]]}
            ]}"#,
        );
        let output = run_batch(&input).unwrap();
        let r = &output.get("results").unwrap().as_arr().unwrap()[0];
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{r:?}");
        let (k, n) = (
            r.get("k").unwrap().as_f64().unwrap() as u32,
            r.get("n").unwrap().as_f64().unwrap() as u32,
        );
        let nodes = r.get("nodes").unwrap().as_f64().unwrap() as u64;
        assert!(nodes >= 256, "picked an undersized cube: {k}-ary {n}-cube");
        // The winner must actually be the argmin over qualifying
        // candidates, recomputed cold.
        let reported = r.get("latency").unwrap().as_f64().unwrap();
        for (ck, cn) in [(16u32, 2u32), (8, 3), (4, 4)] {
            let cfg = SolveCache::quantize(&NCubeConfig::new(ck, cn, 2, 16, 1e-6, 0.2));
            let cold = NCubeModel::new(cfg).unwrap().solve().unwrap().latency;
            assert!(
                reported <= cold + 1e-9,
                "({ck},{cn}) beats the reported winner: {cold} < {reported}"
            );
        }
    }

    #[test]
    fn malformed_batches_are_rejected_with_the_query_index() {
        for (text, needle) in [
            (r#"{"no_queries": []}"#, "queries"),
            (
                r#"{"queries": [{"type": "latency", "k": 16}]}"#,
                "queries[0]",
            ),
            (
                r#"{"queries": [{"type": "latency", "k": 16, "n": 2, "v": 2,
                   "lm": 32, "h": 0.2, "lambda": 1e-4, "service_model": "warp"}]}"#,
                "service_model",
            ),
            (r#"{"queries": [{"type": "teleport"}]}"#, "teleport"),
            (
                r#"{"queries": [{"type": "pareto", "v": 2, "lm": 16, "h": 0.2,
                   "lambda": 1e-6, "min_nodes": 4, "candidates": []}]}"#,
                "candidates",
            ),
        ] {
            let err = run_batch(&batch(text)).unwrap_err();
            assert!(err.contains(needle), "'{err}' should mention '{needle}'");
        }
    }

    #[test]
    fn an_absurd_virtual_channel_count_fails_at_once() {
        let input = batch(
            r#"{"queries": [
                {"type": "latency", "k": 16, "n": 2, "v": 1e8, "lm": 32, "h": 0.2, "lambda": 1e-4},
                {"type": "latency", "k": 16, "n": 2, "v": 2, "lm": 32, "h": 0.2, "lambda": 1e-4}
            ]}"#,
        );
        let start = std::time::Instant::now();
        let output = run_batch(&input).unwrap();
        assert!(start.elapsed() < std::time::Duration::from_secs(2));
        let results = output.get("results").unwrap().as_arr().unwrap();
        assert_eq!(results[0].get("ok"), Some(&Json::Bool(false)));
        let error = results[0].get("error").unwrap().as_str().unwrap();
        assert!(error.contains("virtual channels"), "{error}");
        assert_eq!(results[1].get("ok"), Some(&Json::Bool(true)));
    }

    #[test]
    fn duplicate_queries_hit_the_cache() {
        // A repeat in one batch shares the first query's solve, which is
        // the exact solution of the snapped config.
        let cfg = NCubeConfig::new(8, 3, 2, 16, 1.234_567_89e-5, 0.3);
        let snapped = SolveCache::quantize(&cfg);
        let direct = NCubeModel::new(snapped).unwrap().solve().unwrap();
        let once = run_batch(&latency_batch(&cfg, &[cfg.lambda])).unwrap();
        assert_eq!(footer(&once), [0.0, 1.0, 1.0]);
        let twice = run_batch(&latency_batch(&cfg, &[cfg.lambda, cfg.lambda])).unwrap();
        assert_eq!(footer(&twice), [1.0, 1.0, 1.0]);
        for (output, i) in [(&once, 0), (&twice, 0), (&twice, 1)] {
            assert_eq!(field(output, i, "latency"), &Json::Num(direct.latency));
            assert_eq!(field(output, i, "lambda"), &Json::Num(snapped.lambda));
        }
    }

    #[test]
    fn nearby_lambdas_collapse_onto_one_lattice_point() {
        let cfg = NCubeConfig::new(8, 3, 2, 16, 1e-5, 0.3);
        // Perturb λ by one ulp-scale nudge far below the lattice spacing.
        let nudged = f64::from_bits(cfg.lambda.to_bits() + 3);
        assert_ne!(cfg.lambda.to_bits(), nudged.to_bits());
        let output = run_batch(&latency_batch(&cfg, &[nudged, cfg.lambda])).unwrap();
        for key in ["lambda", "latency", "iterations"] {
            assert_eq!(field(&output, 0, key), field(&output, 1, key), "{key}");
        }
        assert_eq!(footer(&output), [1.0, 1.0, 1.0]);
    }

    /// A Pareto candidate that shares its geometry and λ with latency
    /// queries under the iterative service model, where a warm and a cold
    /// solve of one key differ in the last bits.
    const SHARED_KEY_QUERIES: [&str; 3] = [
        r#"{"type": "pareto", "v": 2, "lm": 16, "h": 0.3, "lambda": 1.4e-5, "min_nodes": 1,
            "candidates": [[16, 3]], "service_model": "path_occupancy"}"#,
        r#"{"type": "latency", "k": 16, "n": 3, "v": 2, "lm": 16, "h": 0.3, "lambda": 1.35e-5,
            "service_model": "path_occupancy"}"#,
        r#"{"type": "latency", "k": 16, "n": 3, "v": 2, "lm": 16, "h": 0.3, "lambda": 1.4e-5,
            "service_model": "path_occupancy"}"#,
    ];

    #[test]
    fn answers_do_not_depend_on_thread_scheduling() {
        let input = batch(&format!(
            r#"{{"queries": [{}]}}"#,
            SHARED_KEY_QUERIES.join(",")
        ));
        let first = run_batch(&input).unwrap();
        for _ in 0..20 {
            assert_eq!(run_batch(&input).unwrap().pretty(), first.pretty());
        }
        // The Pareto candidate joins the latency chain, so each latency
        // answer is the one the chain gives without the Pareto query.
        let alone = run_batch(&batch(&format!(
            r#"{{"queries": [{}]}}"#,
            SHARED_KEY_QUERIES[1..].join(",")
        )))
        .unwrap();
        let results = |doc: &Json| doc.get("results").unwrap().as_arr().unwrap().to_vec();
        assert_eq!(results(&first)[1..], results(&alone)[..]);
        assert_eq!(
            results(&first)[0].get("latency"),
            results(&alone)[1].get("latency")
        );
    }

    #[test]
    fn larger_units_run_first() {
        let cfg = |k, n, service_model| NCubeConfig {
            service_model,
            ..NCubeConfig::new(k, n, 2, 16, 1e-5, 0.2)
        };
        let links = [
            cfg(16, 2, ServiceTimeModel::PipelinedTransfer),
            cfg(8, 4, ServiceTimeModel::PathOccupancy),
        ];
        let mut units = vec![
            Unit::Chain(vec![0]),
            Unit::Saturation(0, cfg(16, 2, ServiceTimeModel::PipelinedTransfer)),
            Unit::Chain(vec![1]),
            Unit::Saturation(1, cfg(8, 4, ServiceTimeModel::PipelinedTransfer)),
        ];
        longest_first(&mut units, &links);
        // Each unit by (is a chain, its link or query index).
        let order: Vec<(bool, usize)> = units
            .iter()
            .map(|unit| match unit {
                Unit::Chain(chain) => (true, chain[0]),
                Unit::Saturation(idx, _) => (false, *idx),
            })
            .collect();
        let at = |unit| order.iter().position(|&u| u == unit).unwrap();
        // A path-occupancy chain on 4096 nodes before a pipelined chain
        // on 256 nodes.
        assert!(at((true, 1)) < at((true, 0)), "{order:?}");
        // A λ* search on 4096 nodes before one on 256 nodes.
        assert!(at((false, 1)) < at((false, 0)), "{order:?}");
    }

    #[test]
    fn hostile_field_values_give_answers_or_typed_errors() {
        use crate::json::tests::Rng;
        // "" leaves the field (or candidate entry) out; 1e400 parses to
        // infinity.
        const HOSTILE: [&str; 10] = [
            "0",
            "-1",
            "-0.0",
            "0.5",
            "5e-324",
            "1e400",
            "4294967295",
            "4294967296",
            "",
            r#""x""#,
        ];
        // One value in eight is hostile.  Valid geometries stay at
        // k^n <= 512: a path-occupancy saturation search on 4096 nodes
        // takes seconds in a debug build, because every probe past λ*
        // spends the whole iteration budget.
        fn value(rng: &mut Rng, valid: &[&'static str], extra: &[&'static str]) -> &'static str {
            if rng.below(8) == 0 {
                let i = rng.below(HOSTILE.len() + extra.len());
                HOSTILE.get(i).unwrap_or_else(|| &extra[i - HOSTILE.len()])
            } else {
                valid[rng.below(valid.len())]
            }
        }
        fn field(
            rng: &mut Rng,
            key: &str,
            valid: &[&'static str],
            extra: &[&'static str],
        ) -> String {
            match value(rng, valid, extra) {
                "" => String::new(),
                value => format!(r#", "{key}": {value}"#),
            }
        }
        let mut rng = Rng(0x686f_7374);
        let (mut answered, mut failed, mut rejected) = (0, 0, 0);
        for _ in 0..2_000 {
            let mut queries = Vec::new();
            for _ in 0..1 + rng.below(3) {
                let kind = ["latency", "saturation", "pareto"][rng.below(3)];
                let mut q = format!(r#"{{"type": "{kind}""#);
                q += &field(&mut rng, "v", &["1", "2", "4"], &[]);
                q += &field(&mut rng, "lm", &["1", "8", "32"], &[]);
                q += &field(&mut rng, "h", &["0", "0.2", "1"], &[]);
                if rng.below(4) == 0 {
                    q += &field(&mut rng, "anderson_depth", &["1", "4"], &[]);
                }
                if rng.below(4) == 0 {
                    let model = [r#""path_occupancy""#, r#""pipelined_transfer""#];
                    q += &field(&mut rng, "service_model", &model, &[]);
                }
                if kind != "saturation" {
                    q += &field(&mut rng, "lambda", &["1e-6", "1e-4", "1e-2"], &[]);
                }
                if kind == "pareto" {
                    q += &field(&mut rng, "min_nodes", &["1", "64"], &["1e300"]);
                    let pair = |rng: &mut Rng| {
                        let k = value(rng, &["2", "4", "8"], &[]);
                        let n = value(rng, &["1", "2", "3"], &[]);
                        let entries: Vec<&str> =
                            [k, n].into_iter().filter(|v| !v.is_empty()).collect();
                        format!("[{}]", entries.join(", "))
                    };
                    q += &format!(
                        r#", "candidates": [{}, {}]"#,
                        pair(&mut rng),
                        pair(&mut rng)
                    );
                } else {
                    q += &field(&mut rng, "k", &["2", "4", "8"], &[]);
                    q += &field(&mut rng, "n", &["1", "2", "3"], &[]);
                }
                queries.push(q + "}");
            }
            let text = format!(r#"{{"queries": [{}]}}"#, queries.join(", "));
            let input = parse(&text).unwrap_or_else(|e| panic!("{e} in {text}"));
            match run_batch(&input) {
                Ok(output) => {
                    let results = output.get("results").unwrap().as_arr().unwrap();
                    assert_eq!(results.len(), queries.len(), "{text}");
                    for r in results {
                        if r.get("ok") == Some(&Json::Bool(true)) {
                            // Rates, latencies and counts alike.
                            let Json::Obj(fields) = r else { unreachable!() };
                            for (key, value) in fields {
                                if let Json::Num(x) = value {
                                    assert!(
                                        *x >= 0.0 && x.is_finite(),
                                        "{key} in {r:?} for {text}"
                                    );
                                }
                            }
                            answered += 1;
                        } else {
                            let error = r.get("error").and_then(Json::as_str);
                            assert!(error.is_some_and(|e| !e.is_empty()), "{r:?} for {text}");
                            failed += 1;
                        }
                    }
                }
                Err(message) => {
                    assert!(!message.is_empty(), "{text}");
                    rejected += 1;
                }
            }
        }
        assert!(
            answered > 0 && failed > 0 && rejected > 0,
            "{answered} {failed} {rejected}"
        );
    }

    #[test]
    fn query_bench_schema_accepts_its_own_output_shape() {
        // A fresh header plus the keys `run_query_bench` writes (running
        // the real benchmark here would be slow; the binary self-checks
        // its fresh output at every run).
        let mut cfg = Json::obj();
        for (key, val) in [
            ("k", 16.0),
            ("n", 2.0),
            ("v", 2.0),
            ("lm", 32.0),
            ("h", 0.2),
            ("saturation_lambda", 1.5e-4),
            ("points", 48.0),
            ("cold_mean_iterations", 117.0),
            ("warm_mean_iterations", 10.7),
            ("iteration_reduction", 10.9),
            ("queries_per_sec", 4000.0),
        ] {
            cfg.set(key, Json::Num(val));
        }
        cfg.set("service_model", Json::Str("path_occupancy".into()));
        let document = |reduction: f64| {
            let mut doc = benchfile::header(&benchfile::MODEL_QUERIES, true);
            doc.set("queries_per_sec", Json::Num(4000.0));
            doc.set("mean_iteration_reduction", Json::Num(reduction));
            doc.set("configs", Json::Arr(vec![cfg.clone()]));
            benchfile::violations(&doc, &benchfile::MODEL_QUERIES)
        };
        assert_eq!(document(7.4), Vec::<String>::new());

        // Dropping below the committed reduction floor is a schema
        // violation, not a warning.
        let bad = document(3.0);
        assert!(
            bad.iter().any(|b| b.contains("below the committed floor")),
            "{bad:?}"
        );
    }
}
