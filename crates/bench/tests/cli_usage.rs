//! Command-line mistakes exit 2 with a usage line before any work starts.

use std::process::{Command, Output};
use std::time::{Duration, Instant};

/// Run `bin` with `args`; it must fail fast (a grid or benchmark run
/// would take far longer than the bound).
fn run(bin: &str, args: &[&str]) -> Output {
    let start = Instant::now();
    let out = Command::new(bin)
        .args(args)
        .output()
        .expect("the binary starts");
    assert!(
        start.elapsed() < Duration::from_secs(20),
        "{bin} {args:?} did work instead of rejecting its arguments"
    );
    out
}

fn assert_usage_error(out: &Output) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("usage:"), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "no grid output expected");
}

#[test]
fn a_mistyped_experiment_flag_is_a_usage_error() {
    let out = run(env!("CARGO_BIN_EXE_figure1"), &["--quik"]);
    assert_usage_error(&out);
    assert!(String::from_utf8_lossy(&out.stderr).contains("'--quik'"));
}

/// The harnesses take `--quick`, `--out` and `--baseline` (plus
/// `queries`' own batch flags); anything else, such as the retired
/// `--min-ratio`, is a usage error.
#[test]
fn an_unknown_flag_is_a_usage_error_in_both_harnesses() {
    assert_usage_error(&run(
        env!("CARGO_BIN_EXE_perf"),
        &["--quick", "--min-ratio", "abc"],
    ));
    assert_usage_error(&run(
        env!("CARGO_BIN_EXE_queries"),
        &["--bench", "--quick", "--min-ratio", "abc"],
    ));
    assert_usage_error(&run(env!("CARGO_BIN_EXE_queries"), &["--in"]));
}
