//! End-to-end golden output: `validation --quick` prints the same table,
//! byte for byte, as the engine it was recorded from
//! (`golden/validation_quick.txt`).  Its Lm = 16 and 32 worms at 0.4·λ*
//! share ports often and finish draining alone, so this pins the
//! simulator's long-worm paths through a whole experiment binary.
//!
//! If an intentional behaviour change lands, re-record the file in the
//! same change and say so in the commit.

use std::process::Command;

#[test]
fn validation_quick_matches_the_recorded_output() {
    let out = Command::new(env!("CARGO_BIN_EXE_validation"))
        .arg("--quick")
        .output()
        .expect("the binary starts");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let expected = include_str!("golden/validation_quick.txt");
    assert_eq!(String::from_utf8_lossy(&out.stdout), expected);
}
