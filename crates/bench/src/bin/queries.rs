//! Batched model-query binary: JSON batches in, JSON answers out, plus
//! the CI-gated query-throughput benchmark.
//!
//! Two modes:
//!
//! * **Batch** (default): read a `{"queries": [...]}` document from
//!   `--in FILE` (or stdin), answer it with the warm-start engine
//!   ([`kncube_bench::queries::run_batch`]), and write the results to
//!   `--out FILE` (or stdout).  `--check-cold` re-solves every latency
//!   query cold and exits 3 if any engine answer drifts past `1e-9`
//!   relative — the CI smoke gate.
//! * **Benchmark** (`--bench`): run the near-saturation λ-grid sweep and
//!   emit `BENCH_model_queries.json` (`--quick` shrinks the grids; with
//!   `--baseline` compare throughput, warning below 0.8×), all
//!   through [`kncube_bench::benchfile`].
//!
//! A flag of the other mode (`--in` or `--check-cold` with `--bench`;
//! `--quick` or `--baseline` without it) is a usage error (exit 2).
//!
//! Exit codes: 0 ok (including throughput warnings), 1 bad input or
//! baseline schema drift, 2 bad flag or measurement/solver failure,
//! 3 cold-check mismatch.

use kncube_bench::benchfile::{self, MODEL_QUERIES};
use kncube_bench::json::parse;
use kncube_bench::queries::{check_cold, run_batch, run_query_bench};
use std::io::Read as _;

const USAGE: &str = "usage: queries [--in FILE] [--out FILE] [--check-cold]\n\
\x20      queries --bench [--quick] [--out FILE] [--baseline FILE]\n\
\n\
Batch mode answers a {\"queries\": [...]} JSON document (from --in or\n\
stdin) with the warm-start engine; --check-cold re-solves every\n\
latency query cold and fails (exit 3) on drift beyond 1e-9 relative.\n\
Bench mode sweeps near-saturation λ grids and emits the\n\
BENCH_model_queries.json document; with --baseline, throughput ratios\n\
below 0.8 warn, schema drift is an error (exit 1).";

fn main() {
    let (mut input, mut check, mut bench) = (None, false, false);
    let opts = benchfile::parse_args(USAGE, |flag, args| {
        match flag {
            "--in" => input = Some(args.value()),
            "--check-cold" => check = true,
            "--bench" => bench = true,
            _ => return false,
        }
        true
    });

    let batch_flags = input.is_some() || check;
    let bench_flags = opts.quick || opts.baseline.is_some();
    if (bench && batch_flags) || (!bench && bench_flags) {
        benchfile::usage_error(USAGE);
    }
    if bench {
        benchfile::finish(&run_query_bench(opts.quick), &MODEL_QUERIES, &opts);
        return;
    }

    let raw = match &input {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(raw) => raw,
            Err(e) => {
                eprintln!("error: cannot read {path}: {e}");
                std::process::exit(1);
            }
        },
        None => {
            let mut buf = String::new();
            if let Err(e) = std::io::stdin().read_to_string(&mut buf) {
                eprintln!("error: cannot read stdin: {e}");
                std::process::exit(1);
            }
            buf
        }
    };
    let input = match parse(&raw) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("error: input is not valid JSON: {e}");
            std::process::exit(1);
        }
    };
    let output = match run_batch(&input) {
        Ok(output) => output,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    benchfile::write_output(opts.out.as_deref(), &output.pretty());

    if check {
        match check_cold(&input, &output) {
            Ok(violations) if violations.is_empty() => {
                eprintln!("cold check: all latency answers agree within 1e-9");
            }
            Ok(violations) => {
                eprintln!("error: engine answers drifted from cold solves:");
                for v in &violations {
                    eprintln!("  - {v}");
                }
                std::process::exit(3);
            }
            Err(e) => {
                eprintln!("error: cold check failed: {e}");
                std::process::exit(1);
            }
        }
    }
}
