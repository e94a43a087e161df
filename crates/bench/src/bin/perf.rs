//! Perf trajectory harness: measures simulator throughput (cycles/s) and
//! model solve time across representative `(k, n)` configurations and
//! emits a machine-readable `BENCH_simulator.json`.
//!
//! Three load points per configuration, all driven through the production
//! `Simulator::run()` path:
//!
//! * `anchor` — 5% of the model's saturation rate λ*, the near-zero-load
//!   regime the paper's validation curves start from.  This is the
//!   **headline** `cycles_per_sec`: the engine's idle fast-forward makes
//!   it the rate a validation sweep actually experiences at its first
//!   grid points.
//! * `light` — 25% of λ*: busy-cycle dominated, little queueing.
//! * `moderate` — 50% of λ*: every cycle does flit work.
//!
//! The committed `BENCH_simulator.json` at the repo root is the baseline;
//! CI re-runs this harness with `--quick` and compares via `--baseline`.
//! Checking, writing and comparing the document is
//! [`kncube_bench::benchfile`]'s job (its module docs list the exit
//! codes); any measurement failure here exits 2.

use kncube_bench::benchfile::{self, SIMULATOR};
use kncube_bench::json::Json;
use kncube_bench::{SATURATION_BRACKET, SATURATION_REL_TOL};
use kncube_core::{find_saturation_ncube, NCubeConfig, NCubeModel};
use kncube_sim::{SimConfig, Simulator};
use std::time::Instant;

/// One benchmarked configuration: `(k, n, v, lm, h)`.
const CONFIGS: [(u32, u32, u32, u32, f64); 3] =
    [(16, 2, 2, 32, 0.2), (8, 3, 2, 16, 0.2), (4, 4, 2, 16, 0.2)];

/// `(label, fraction of λ*, full-run cycle budget, quick-run cycle budget)`.
const LOADS: [(&str, f64, u64, u64); 3] = [
    ("anchor", 0.05, 20_000_000, 2_000_000),
    ("light", 0.25, 6_000_000, 600_000),
    ("moderate", 0.50, 2_000_000, 200_000),
];

const SEED: u64 = 7;

const USAGE: &str = "usage: perf [--quick] [--out FILE] [--baseline FILE]\n\
\n\
Measures simulator cycles/s and model solve time across (k,n) in\n\
{(16,2),(8,3),(4,4)} and writes a BENCH_simulator.json document.\n\
With --baseline, compares against a previous document: ratios below\n\
0.8 warn; a malformed baseline is an error (exit 1).";

/// Time one production `run()` and return `(cycles/s, cycles, seconds,
/// completed)`.
fn time_run(cfg: SimConfig) -> (f64, u64, f64, u64) {
    let sim = match Simulator::new(cfg) {
        Ok(sim) => sim,
        Err(e) => {
            eprintln!("error: invalid benchmark configuration: {e}");
            std::process::exit(2);
        }
    };
    let start = Instant::now();
    let report = sim.run();
    let dt = start.elapsed().as_secs_f64().max(1e-9);
    (
        report.cycles as f64 / dt,
        report.cycles,
        dt,
        report.completed,
    )
}

/// Mean solve time of the generalized model, in microseconds.
fn time_model_solve(cfg: NCubeConfig, iters: u32) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        let out = NCubeModel::new(cfg).and_then(|m| m.solve());
        if let Err(e) = out {
            eprintln!("error: model failed to solve at λ={}: {e}", cfg.lambda);
            std::process::exit(2);
        }
    }
    start.elapsed().as_secs_f64() / iters as f64 * 1e6
}

fn measure(quick: bool) -> Json {
    let mut configs = Vec::new();
    for (k, n, v, lm, h) in CONFIGS {
        let base = NCubeConfig::new(k, n, v, lm, 0.0, h);
        let (lo, hi) = SATURATION_BRACKET;
        let sat = match find_saturation_ncube(base, lo, hi, SATURATION_REL_TOL) {
            Ok(sat) => sat,
            Err(e) => {
                eprintln!("error: no saturation rate for k={k} n={n}: {e}");
                std::process::exit(2);
            }
        };
        let mut entry = Json::obj();
        entry.set("k", Json::Num(k as f64));
        entry.set("n", Json::Num(n as f64));
        entry.set("v", Json::Num(v as f64));
        entry.set("lm", Json::Num(lm as f64));
        entry.set("h", Json::Num(h));
        entry.set("saturation_lambda", Json::Num(sat));

        let mut loads = Vec::new();
        let mut headline = 0.0;
        for (label, frac, full_cycles, quick_cycles) in LOADS {
            let budget = if quick { quick_cycles } else { full_cycles };
            let lambda = sat * frac;
            let cfg = SimConfig::ncube(k, n, v, lm, lambda, h, SEED).with_limits(budget, 0, 0);
            let (cps, cycles, seconds, completed) = time_run(cfg);
            eprintln!(
                "k={k} n={n} {label:>8} λ={lambda:.3e}: {:.3}M cycles/s \
                 ({cycles} cycles, {completed} messages, {seconds:.2}s)",
                cps / 1e6
            );
            if label == "anchor" {
                headline = cps;
            }
            let mut point = Json::obj();
            point.set("label", Json::Str(label.into()));
            point.set("lambda", Json::Num(lambda));
            point.set("cycles", Json::Num(cycles as f64));
            point.set("seconds", Json::Num(seconds));
            point.set("cycles_per_sec", Json::Num(cps));
            point.set("completed", Json::Num(completed as f64));
            loads.push(point);
        }
        entry.set("cycles_per_sec", Json::Num(headline));
        entry.set("loads", Json::Arr(loads));

        let solve_iters = if quick { 20 } else { 200 };
        let solve_cfg = NCubeConfig::new(k, n, v, lm, sat * 0.5, h);
        let solve_us = time_model_solve(solve_cfg, solve_iters);
        eprintln!("k={k} n={n} model solve: {solve_us:.1} µs");
        entry.set("model_solve_us", Json::Num(solve_us));

        configs.push(entry);
    }

    let mut doc = benchfile::header(quick);
    doc.set("configs", Json::Arr(configs));
    doc
}

fn main() {
    let opts = benchfile::parse_args(USAGE, |_, _| false);
    benchfile::finish(&measure(opts.quick), &SIMULATOR, &opts);
}
