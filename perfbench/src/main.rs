//! The kncube benchmark: one command, three seeded workloads, checked
//! outputs, end-to-end metrics from untraced runs and per-layer metrics
//! from traced ones.
//!
//! ```text
//! perfbench --workload <sim_validate|query_mix|faulty_scale>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run repeats *rounds* — one complete pass over the workload's
//! generated inputs — until `--seconds` have passed, then prints one JSON
//! line with the metrics.  Timings are medians over rounds, scaled to the
//! reference host speed measured around each round (`host.rs`).  With
//! `--trace 1`, every other round records spans around each call into a
//! layer; the per-layer metrics are medians over those rounds, and the
//! untraced rounds in between state the tracing overhead.  See README.md.

mod faulty_scale;
mod gen;
mod host;
mod query_mix;
mod sim_validate;
mod stats;
mod trace;

use stats::Digest;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

/// What one round of a workload measured.
#[derive(Default)]
pub struct Round {
    /// Host seconds for the whole round, set-up included.
    pub wall_s: f64,
    /// Host seconds of one-off construction inside the round.
    pub setup_s: f64,
    /// Work items completed and the host seconds they took.
    pub items: f64,
    pub item_s: f64,
    /// Latency of each request (a sim point, a batch, a curve solve) in ms,
    /// tagged with its kind for [`stats::kind_median`].
    pub requests: Vec<(usize, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    pub digest: Digest,
    /// Reference-work seconds: the mean of its medians just before and
    /// just after the round.
    pub ref_s: f64,
    /// Per-round counts for the per-layer metrics.
    values: BTreeMap<&'static str, f64>,
}

impl Round {
    pub fn set(&mut self, key: &'static str, value: f64) {
        self.values.insert(key, value);
    }

    pub fn add(&mut self, key: &'static str, value: f64) {
        *self.values.entry(key).or_default() += value;
    }

    pub fn get(&self, key: &str) -> f64 {
        self.values.get(key).copied().unwrap_or(0.0)
    }
}

/// Run `f` inside a span named `name` and return its host seconds.
pub fn timed<R>(tr: &mut Tracer, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let open = tr.enter(name);
    let start = Instant::now();
    let out = f();
    let seconds = start.elapsed().as_secs_f64();
    tr.exit(open);
    (out, seconds)
}

/// End-to-end metrics, reported by untraced runs.
const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("request_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics that are the total duration of one span name.
const SPAN_METRICS: [(&str, &str); 13] = [
    ("sim.run_s", "sim.run"),
    ("sim.new_s", "sim.new"),
    ("ncube.sat_s", "ncube.saturation"),
    ("json.parse_s", "json.parse"),
    ("json.emit_s", "json.emit"),
    ("queries.run_batch_s", "queries.run_batch"),
    ("cache.solve_faulty_s", "cache.solve_faulty"),
    ("router.bfs_s", "router.new"),
    ("router.deadlock_free_s", "router.deadlock_free"),
    ("faulty.new_s", "faulty.new"),
    ("faulty.solve_at_s", "faulty.solve_at"),
    ("faulty.sat_s", "faulty.saturation"),
    ("traffic.sample_s", "traffic.sample"),
];

/// Per-layer metrics the workloads count themselves, with their units.
const COUNT_METRICS: [(&str, &str); 21] = [
    ("sim.cycles", "count"),
    ("sim.msgs", "count"),
    ("sim.dropped", "count"),
    ("sim.saturated", "count"),
    ("sim.deadlocked", "count"),
    ("sim.model_err_max", "ratio"),
    ("ncube.sat_probes", "count"),
    ("ncube.iterations_mean", "count"),
    ("json.bytes_in", "bytes"),
    ("json.bytes_out", "bytes"),
    ("queries.ok", "count"),
    ("queries.typed_err", "count"),
    ("queries.batch_p50_ms", "ms"),
    ("queries.batch_p95_ms", "ms"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.faulty_misses", "count"),
    ("router.certified", "count"),
    ("faulty.solve_calls", "count"),
    ("faulty.sat_probes", "count"),
];

/// Self time per layer: span-name prefix → metric.  `op` spans are the
/// benchmark's own code around each request.
const SELF_METRICS: [(&str, &str); 9] = [
    ("sim", "self.sim_s"),
    ("ncube", "self.ncube_s"),
    ("faulty", "self.faulty_s"),
    ("cache", "self.cache_s"),
    ("router", "self.router_s"),
    ("traffic", "self.traffic_s"),
    ("json", "self.json_s"),
    ("queries", "self.queries_s"),
    ("op", "self.bench_s"),
];

/// Per-layer metrics derived from the others, plus the tracing overhead.
const DERIVED_METRICS: [(&str, &str); 8] = [
    ("sim.ns_per_msg", "ns"),
    ("sim.ns_per_cycle", "ns"),
    ("faulty.rate_walk_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead", "ratio"),
    ("host.threads", "count"),
    ("host.ref_ms", "ms"),
];

/// Every per-layer metric with its unit.
fn per_layer_units() -> Vec<(&'static str, &'static str)> {
    SPAN_METRICS
        .iter()
        .map(|&(name, _)| (name, "s"))
        .chain(COUNT_METRICS)
        .chain(SELF_METRICS.iter().map(|&(_, name)| (name, "s")))
        .chain(DERIVED_METRICS)
        .collect()
}

enum Workload {
    SimValidate(sim_validate::SimValidate),
    QueryMix(query_mix::QueryMix),
    FaultyScale(faulty_scale::FaultyScale),
}

impl Workload {
    fn new(name: &str, seed: u64) -> Option<Self> {
        Some(match name {
            "sim_validate" => Workload::SimValidate(sim_validate::SimValidate::new(seed)),
            "query_mix" => Workload::QueryMix(query_mix::QueryMix::new(seed)),
            "faulty_scale" => Workload::FaultyScale(faulty_scale::FaultyScale::new(seed)),
            _ => return None,
        })
    }

    fn round(&mut self, tr: &mut Tracer) -> Round {
        match self {
            Workload::SimValidate(w) => w.round(tr),
            Workload::QueryMix(w) => w.round(tr),
            Workload::FaultyScale(w) => w.round(tr),
        }
    }

    /// Threads the workload keeps busy: `run_batch` fans out on one
    /// worker per available core, the other two run on the main thread.
    fn threads(&self) -> usize {
        match self {
            Workload::QueryMix(_) => std::thread::available_parallelism().map_or(1, |n| n.get()),
            _ => 1,
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <sim_validate|query_mix|faulty_scale> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Median over rounds of a per-round value.
fn median_of(rounds: &[&Round], f: impl Fn(&Round) -> f64) -> f64 {
    stats::median(&rounds.iter().map(|r| f(r)).collect::<Vec<_>>())
}

/// The per-layer values of one traced round.
fn layer_values(round: &Round, spans: &[trace::Span]) -> BTreeMap<&'static str, f64> {
    let totals = trace::total_seconds(spans);
    let own = trace::self_seconds(spans);
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (metric, span) in SPAN_METRICS {
        v.insert(metric, totals.get(span).copied().unwrap_or(0.0));
    }
    for (metric, _) in COUNT_METRICS {
        v.insert(metric, round.get(metric));
    }
    for (layer, metric) in SELF_METRICS {
        v.insert(metric, own.get(layer).copied().unwrap_or(0.0));
    }
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    v.insert("sim.ns_per_msg", per(v["sim.run_s"] * 1e9, v["sim.msgs"]));
    v.insert(
        "sim.ns_per_cycle",
        per(v["sim.run_s"] * 1e9, v["sim.cycles"]),
    );
    v.insert(
        "faulty.rate_walk_s",
        (v["faulty.new_s"] - v["router.bfs_s"]).max(0.0),
    );
    v
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}

/// Where the span dump goes: the build directory, inside the checkout.
fn trace_path(args: &Args) -> std::path::PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "perfbench/target".into());
    std::path::Path::new(&dir).join(format!("trace-{}-{}.json", args.workload, args.seed))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(mut workload) = Workload::new(&args.workload, args.seed) else {
        eprintln!("perfbench: unknown workload {}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };

    let mut tr = Tracer::new(false);
    let mut reference = host::Reference::new(workload.threads());

    // Rounds until the time is up; a traced run alternates traced and
    // untraced rounds so both see the same conditions.
    let min_rounds = if args.trace { 2 } else { 1 };
    let deadline = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut rounds: Vec<(Round, Option<std::ops::Range<usize>>)> = Vec::new();
    while rounds.len() < min_rounds || start.elapsed() < deadline {
        let traced = args.trace && rounds.len().is_multiple_of(2);
        tr.set_enabled(traced);
        let from = tr.len();
        let before = reference.seconds();
        let mut round = workload.round(&mut tr);
        round.ref_s = 0.5 * (before + reference.seconds());
        rounds.push((round, traced.then(|| from..tr.len())));
    }
    tr.set_enabled(false);

    let first = &rounds[0].0;
    let mut violations = first.violations.clone();
    let (mut attempted, mut failed) = (0, 0);
    for (i, (round, _)) in rounds.iter().enumerate() {
        attempted += round.attempted;
        failed += round.failed;
        if i > 0 {
            violations.extend(round.violations.iter().cloned());
            if round.digest != first.digest {
                violations.push(format!("round {i}: outputs differ from round 0"));
            }
        }
    }
    violations.dedup();
    for v in violations.iter().take(20) {
        eprintln!("perfbench: check failed: {v}");
    }
    let Some(rss) = host::peak_rss_mb() else {
        eprintln!("perfbench: cannot read VmHWM from /proc/self/status");
        return ExitCode::from(1);
    };

    let traced: Vec<&Round> = rounds
        .iter()
        .filter(|r| r.1.is_some())
        .map(|r| &r.0)
        .collect();
    let untraced: Vec<&Round> = rounds
        .iter()
        .filter(|r| r.1.is_none())
        .map(|r| &r.0)
        .collect();
    // End-to-end timings at the reference host speed (see host.rs).
    let scale = |r: &Round| host::REFERENCE_S / r.ref_s;
    let requests: Vec<(usize, f64)> = rounds
        .iter()
        .flat_map(|(r, _)| r.requests.iter().map(|&(kind, ms)| (kind, ms * scale(r))))
        .collect();
    let all: Vec<&Round> = rounds.iter().map(|r| &r.0).collect();
    println!(
        "workload {} seed {} rounds {} (traced {}) requests {} digest {:016x} failed {}/{} ({}) \
         raw wall_s {:.4} host speed {:.3}",
        args.workload,
        args.seed,
        rounds.len(),
        traced.len(),
        requests.len(),
        first.digest.value(),
        failed,
        attempted,
        stats::failed_frac(failed, attempted),
        median_of(&all, |r| r.wall_s),
        median_of(&all, scale)
    );

    let mut metrics: Vec<(&str, &str, f64)> = Vec::new();
    if args.trace {
        let per_round: Vec<BTreeMap<&str, f64>> = rounds
            .iter()
            .filter_map(|(round, spans)| {
                spans
                    .clone()
                    .map(|s| layer_values(round, tr.spans().get(s).unwrap_or(&[])))
            })
            .collect();
        let traced_wall = median_of(&traced, |r| r.wall_s);
        let untraced_wall = median_of(&untraced, |r| r.wall_s);
        for (name, unit) in per_layer_units() {
            let value = match name {
                "trace.wall_s" => traced_wall,
                "trace.untraced_wall_s" => untraced_wall,
                "trace.overhead" => traced_wall / untraced_wall - 1.0,
                "host.threads" => {
                    std::thread::available_parallelism().map_or(1, |n| n.get()) as f64
                }
                "host.ref_ms" => median_of(&all, |r| r.ref_s * 1e3),
                _ => stats::median(&per_round.iter().map(|v| v[name]).collect::<Vec<_>>()),
            };
            metrics.push((name, unit, value));
        }
        let path = trace_path(&args);
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, tr.to_json()));
        match written {
            Ok(()) => println!("spans: {} written to {}", tr.len(), path.display()),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    } else {
        for (name, unit) in END_TO_END {
            let value = match name {
                "wall_s" => median_of(&all, |r| r.wall_s * scale(r)),
                "setup_s" => median_of(&all, |r| r.setup_s * scale(r)),
                "items_per_s" => median_of(&all, |r| r.items / (r.item_s * scale(r))),
                "request_p50_ms" => stats::kind_median(&requests),
                "peak_rss_mb" => rss,
                _ => unreachable!("every end-to-end metric is computed"),
            };
            metrics.push((name, unit, value));
        }
    }
    if let Some(&(name, _, value)) = metrics.iter().find(|m| !m.2.is_finite()) {
        eprintln!("perfbench: metric {name} is not finite ({value})");
        return ExitCode::from(1);
    }
    println!(
        "{}",
        json_line(violations.is_empty(), attempted, failed, &metrics)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use kncube_bench::json::{self, Json};

    fn names(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("BENCHMARK.json lists the metrics")
            .iter()
            .map(|m| {
                let field = |f| m.get(f).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let own = |list: &[(&str, &str)]| {
            list.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect::<Vec<_>>()
        };
        assert_eq!(names(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(names(&doc, "per_layer"), own(&per_layer_units()));
    }

    #[test]
    fn args_are_strict() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let ok = parse("--workload query_mix --seed 3 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (ok.workload.as_str(), ok.seed, ok.seconds, ok.trace),
            ("query_mix", 3, 10, true)
        );
        assert!(parse("--workload query_mix --seed 3 --seconds 10").is_err());
        assert!(parse("--workload query_mix --seed 3 --seconds 10 --trace 2").is_err());
        assert!(parse("--workload query_mix --seed x --seconds 10 --trace 0").is_err());
        assert!(parse("--workload query_mix --seed 3 --seconds 10 --trace 0 --quick 1").is_err());
    }

    #[test]
    fn output_line_has_the_contract_keys() {
        let line = json_line(
            true,
            4,
            1,
            &[("wall_s", "s", 1.25), ("peak_rss_mb", "MB", 9.5)],
        );
        let doc = json::parse(&line).unwrap();
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("attempted").and_then(Json::as_f64), Some(4.0));
        assert_eq!(doc.get("failed").and_then(Json::as_f64), Some(1.0));
        let wall = doc.get("metrics").and_then(|m| m.get("wall_s")).unwrap();
        assert_eq!(wall.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(wall.get("unit").and_then(Json::as_str), Some("s"));
        assert!(!line.contains('\n'));
    }
}
