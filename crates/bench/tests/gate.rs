//! The shared gate's text, pinned through a gated experiment binary.

use std::process::Command;

#[test]
fn faults_quick_passes_its_envelope_gate() {
    let out = Command::new(env!("CARGO_BIN_EXE_faults"))
        .arg("--quick")
        .output()
        .expect("the binary starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stdout: {stdout}");
    assert!(
        stdout.ends_with(
            "\nenvelope check: OK (reachability inside the closed-form failure envelopes)\n"
        ),
        "stdout: {stdout}"
    );
}
