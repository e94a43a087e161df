//! End-to-end golden output of the `queries` binary: three batches
//! answered byte for byte as recorded, cache footer included, on the
//! default pool and on one thread (`RAYON_NUM_THREADS=1`).
//!
//! * `queries_smoke.json`: CI's smoke batch (4096-node latency queries
//!   under both service models, saturation and Pareto queries);
//! * `queries_chain.json`: a Pareto candidate that shares its key with a
//!   latency query under the iterative service model;
//! * `queries_mixed.json`: exact duplicates, two `λ` inside one lattice
//!   cell, repeated past-`λ*` links, repeated bad configs, Pareto
//!   candidates that share keys with latency queries and with each other,
//!   and `λ` at `0`, `-0` and `±5e-324`.
//!
//! If an intentional behaviour change lands, re-record the `_out.json`
//! files in the same change and say so in the commit.

use std::process::Command;

fn assert_batch_output(name: &str, expected: &str) {
    let input = format!("{}/tests/golden/{name}.json", env!("CARGO_MANIFEST_DIR"));
    for threads in [None, Some("1")] {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_queries"));
        cmd.args(["--in", &input]);
        if let Some(threads) = threads {
            cmd.env("RAYON_NUM_THREADS", threads);
        }
        let out = cmd.output().expect("the queries binary starts");
        assert!(
            out.status.success(),
            "{name} (RAYON_NUM_THREADS={threads:?}): stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            expected,
            "{name} (RAYON_NUM_THREADS={threads:?})"
        );
    }
}

#[test]
fn smoke_batch_matches_the_recorded_output() {
    assert_batch_output(
        "queries_smoke",
        include_str!("golden/queries_smoke_out.json"),
    );
}

#[test]
fn chain_batch_matches_the_recorded_output() {
    assert_batch_output(
        "queries_chain",
        include_str!("golden/queries_chain_out.json"),
    );
}

#[test]
fn mixed_batch_matches_the_recorded_output() {
    assert_batch_output(
        "queries_mixed",
        include_str!("golden/queries_mixed_out.json"),
    );
}
