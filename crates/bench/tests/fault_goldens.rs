//! End-to-end golden output of the fault experiments: `faults --quick`
//! and `faulty_model --quick` print the same tables, byte for byte, as
//! the router and model they were recorded from (`golden/faults_quick.txt`,
//! `golden/faulty_model_quick.txt`).  Reachable fractions, mean detours,
//! certificate shares, λ*, model latencies and simulated latencies all
//! read the fault router's tables, so these pin its routes through whole
//! experiment binaries.
//!
//! If an intentional behaviour change lands, re-record the files in the
//! same change and say so in the commit.

use std::process::Command;

fn assert_quick_stdout(binary: &str, expected: &str) {
    let out = Command::new(binary)
        .arg("--quick")
        .output()
        .expect("the binary starts");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(String::from_utf8_lossy(&out.stdout), expected);
}

#[test]
fn faults_quick_matches_the_recorded_output() {
    assert_quick_stdout(
        env!("CARGO_BIN_EXE_faults"),
        include_str!("golden/faults_quick.txt"),
    );
}

#[test]
fn faulty_model_quick_matches_the_recorded_output() {
    assert_quick_stdout(
        env!("CARGO_BIN_EXE_faulty_model"),
        include_str!("golden/faulty_model_quick.txt"),
    );
}
