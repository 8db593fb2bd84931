//! The binary must survive a reader that closes its end of the pipe
//! (`octocache build … | head -1`): no panic message, no exit code 101.

use std::process::{Command, Stdio};

#[test]
fn closed_stdout_is_not_a_panic() {
    // A pipe whose read end is already gone: the child's first write to
    // stdout fails with EPIPE, deterministically.
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_octocache"))
        .arg("help")
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_ne!(out.status.code(), Some(101), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
