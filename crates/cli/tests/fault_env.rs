//! `OCTO_FAULT` reaches `build` through the process environment, so it is
//! tested on the real binary: an in-process test that set the variable
//! would inject its fault into every other test building a map.

#![cfg(feature = "fault-injection")]

use std::process::Command;

fn octocache(args: &[&str], fault: Option<&str>) -> (Option<i32>, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_octocache"));
    cmd.args(args).env_remove("OCTO_FAULT_SEED");
    match fault {
        Some(spec) => cmd.env("OCTO_FAULT", spec),
        None => cmd.env_remove("OCTO_FAULT"),
    };
    let out = cmd.output().unwrap();
    let text = String::from_utf8_lossy(&out.stdout) + String::from_utf8_lossy(&out.stderr);
    (out.status.code(), text.into_owned())
}

#[test]
fn octo_fault_is_parsed_like_the_flag() {
    let dir = std::env::temp_dir().join(format!("octocache-fault-env-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join("a.scanlog").to_string_lossy().into_owned();
    let map = dir.join("a.map").to_string_lossy().into_owned();
    let (code, out) = octocache(
        &["generate", "fr079-corridor", &log, "--scale", "0.05"],
        None,
    );
    assert_eq!(code, Some(0), "{out}");
    let build = ["build", &log, &map, "--backend", "parallel"];

    // A well-formed spec injects its fault.
    let (code, out) = octocache(&build, Some("kill:0@1"));
    assert_eq!(code, Some(0), "{out}");
    assert!(out.contains("integrity: degraded"), "{out}");

    // The retired ring-fill spec, like any malformed one, is refused
    // rather than run clean.
    for spec in ["fill:0", "explode:9"] {
        let (code, out) = octocache(&build, Some(spec));
        assert_eq!(code, Some(2), "{spec}: {out}");
        assert!(out.contains("malformed OCTO_FAULT spec"), "{spec}: {out}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
