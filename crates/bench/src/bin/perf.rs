//! Perf trajectory harness: measures simulator throughput (delivered
//! messages/s and cycles/s) and model solve time across representative
//! `(k, n)` configurations and emits a machine-readable
//! `BENCH_simulator.json`.
//!
//! Four load points per configuration, all driven through the production
//! `Simulator::run()` path:
//!
//! * `anchor` — 5% of the model's saturation rate λ*, the near-zero-load
//!   regime the paper's validation curves start from;
//! * `light` — 25% of λ*: little queueing;
//! * `moderate` — 50% of λ*: ports shared, headers waiting;
//! * `heavy` — 80% of λ*: most worms share a port on the way and finish
//!   draining alone at their destination.
//!
//! Each load runs [`REPEATS`] times (the same seed, so the same run) and
//! reports the median and interquartile range of the repeats.  The
//! headline is `messages_per_sec`: messages delivered per second of
//! simulation over the four loads.  Cycles/s says little about cost once
//! the engine skips cycles: idle stretches, and the quiet cycles while
//! every worm in flight streams, cost nothing.
//!
//! The committed `BENCH_simulator.json` at the repo root is the baseline;
//! CI re-runs this harness with `--quick` and compares via `--baseline`.
//! Checking, writing and comparing the document is
//! [`kncube_bench::benchfile`]'s job (its module docs list the exit
//! codes); any measurement failure here exits 2.

use kncube_bench::benchfile::{self, SIMULATOR};
use kncube_bench::json::Json;
use kncube_bench::{or_exit, SATURATION_BRACKET, SATURATION_REL_TOL};
use kncube_core::{find_saturation_ncube, NCubeConfig, NCubeModel};
use kncube_sim::{SimConfig, Simulator};
use std::time::Instant;

/// One benchmarked configuration: `(k, n, v, lm, h)`.
const CONFIGS: [(u32, u32, u32, u32, f64); 3] =
    [(16, 2, 2, 32, 0.2), (8, 3, 2, 16, 0.2), (4, 4, 2, 16, 0.2)];

/// `(label, fraction of λ*, full-run cycle budget, quick-run cycle budget)`.
const LOADS: [(&str, f64, u64, u64); 4] = [
    ("anchor", 0.05, 20_000_000, 2_000_000),
    ("light", 0.25, 6_000_000, 600_000),
    ("moderate", 0.50, 2_000_000, 200_000),
    ("heavy", 0.80, 1_200_000, 120_000),
];

const SEED: u64 = 7;

/// Timed repeats of every load point: full runs, then `--quick` runs.
const REPEATS: (usize, usize) = (5, 3);

const USAGE: &str = "usage: perf [--quick] [--out FILE] [--baseline FILE]\n\
\n\
Measures simulator messages/s, cycles/s and model solve time across (k,n) in\n\
{(16,2),(8,3),(4,4)} and writes a BENCH_simulator.json document.\n\
With --baseline, compares against a previous document: ratios below\n\
0.8 warn; a malformed baseline is an error (exit 1).";

/// Time one production `run()` and return `(seconds, cycles, completed)`.
fn time_run(cfg: SimConfig) -> (f64, u64, u64) {
    let sim = or_exit(Simulator::new(cfg), "invalid benchmark configuration");
    let start = Instant::now();
    let report = sim.run();
    let dt = start.elapsed().as_secs_f64().max(1e-9);
    (dt, report.cycles, report.completed)
}

/// `(median, interquartile range)` of `xs`, with linear interpolation
/// between order statistics.
fn median_iqr(xs: &[f64]) -> (f64, f64) {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (sorted.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
    };
    (at(0.5), at(0.75) - at(0.25))
}

/// Mean solve time of the generalized model, in microseconds.
fn time_model_solve(cfg: NCubeConfig, iters: u32) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        or_exit(
            NCubeModel::new(cfg).and_then(|m| m.solve()),
            format_args!("model failed to solve at λ={}", cfg.lambda),
        );
    }
    start.elapsed().as_secs_f64() / iters as f64 * 1e6
}

fn measure(quick: bool) -> Json {
    let mut configs = Vec::new();
    for (k, n, v, lm, h) in CONFIGS {
        let base = NCubeConfig::new(k, n, v, lm, 0.0, h);
        let (lo, hi) = SATURATION_BRACKET;
        let sat = or_exit(
            find_saturation_ncube(base, lo, hi, SATURATION_REL_TOL),
            "saturation search failed",
        );
        let mut entry = benchfile::config_entry(k, n, v, lm, h);
        entry.set("saturation_lambda", Json::Num(sat));

        let mut loads = Vec::new();
        let mut anchor_cps = 0.0;
        let (mut delivered, mut busy_s) = (0, 0.0);
        for (label, frac, full_cycles, quick_cycles) in LOADS {
            let budget = if quick { quick_cycles } else { full_cycles };
            let lambda = sat * frac;
            let cfg = SimConfig::ncube(k, n, v, lm, lambda, h, SEED).with_limits(budget, 0, 0);
            let repeats = if quick { REPEATS.1 } else { REPEATS.0 };
            let runs: Vec<(f64, u64, u64)> = (0..repeats).map(|_| time_run(cfg)).collect();
            let (_, cycles, completed) = runs[0];
            let seconds: Vec<f64> = runs.iter().map(|r| r.0).collect();
            let per_sec =
                |count: u64| -> Vec<f64> { seconds.iter().map(|s| count as f64 / s).collect() };
            let (seconds, _) = median_iqr(&seconds);
            let (cps, cps_iqr) = median_iqr(&per_sec(cycles));
            let (mps, mps_iqr) = median_iqr(&per_sec(completed));
            eprintln!(
                "k={k} n={n} {label:>8} λ={lambda:.3e}: {:.1}k messages/s ± {:.1}k, \
                 {:.3}M cycles/s ({cycles} cycles, {completed} messages, {seconds:.3}s median \
                 of {repeats})",
                mps / 1e3,
                mps_iqr / 1e3,
                cps / 1e6
            );
            if label == "anchor" {
                anchor_cps = cps;
            }
            delivered += completed;
            busy_s += seconds;
            let mut point = Json::obj();
            point.set("label", Json::Str(label.into()));
            point.set("lambda", Json::Num(lambda));
            point.set("cycles", Json::Num(cycles as f64));
            point.set("completed", Json::Num(completed as f64));
            point.set("repeats", Json::Num(repeats as f64));
            point.set("seconds", Json::Num(seconds));
            point.set("cycles_per_sec", Json::Num(cps));
            point.set("cycles_per_sec_iqr", Json::Num(cps_iqr));
            point.set("messages_per_sec", Json::Num(mps));
            point.set("messages_per_sec_iqr", Json::Num(mps_iqr));
            loads.push(point);
        }
        entry.set("messages_per_sec", Json::Num(delivered as f64 / busy_s));
        entry.set("cycles_per_sec", Json::Num(anchor_cps));
        entry.set("loads", Json::Arr(loads));

        let solve_iters = if quick { 20 } else { 200 };
        let solve_cfg = NCubeConfig::new(k, n, v, lm, sat * 0.5, h);
        let solve_us = time_model_solve(solve_cfg, solve_iters);
        eprintln!("k={k} n={n} model solve: {solve_us:.1} µs");
        entry.set("model_solve_us", Json::Num(solve_us));

        configs.push(entry);
    }

    let mut doc = benchfile::header(&SIMULATOR, quick);
    doc.set("configs", Json::Arr(configs));
    doc
}

fn main() {
    let opts = benchfile::parse_args(USAGE, |_, _| false);
    benchfile::finish(&measure(opts.quick), &SIMULATOR, &opts);
}
