//! The `queries` binary's exit codes on hostile input.

use std::io::Write as _;
use std::process::{Command, Output, Stdio};

/// Run `queries` in batch mode with `input` on stdin.
fn run_queries(input: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_queries"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the queries binary starts");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(input.as_bytes())
        .expect("write the batch");
    child.wait_with_output().expect("the queries binary exits")
}

#[test]
fn deeply_nested_input_is_an_input_error_not_a_stack_overflow() {
    let out = run_queries(&"[".repeat(200_000));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("nesting depth 129"), "stderr: {stderr}");
    assert!(out.stdout.is_empty());
}
