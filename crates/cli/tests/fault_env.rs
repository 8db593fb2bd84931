//! The I/O fault variables (`OCTO_IO_FAULT`, `OCTO_IO_FAULT_SEED`) reach
//! `build` through the process environment, so they are tested on the real
//! binary: an in-process test that set one would inject its fault into
//! every other test building a journaled map.

use std::process::Command;

const FAULT_VARS: [&str; 2] = ["OCTO_IO_FAULT", "OCTO_IO_FAULT_SEED"];

/// Runs the binary with exactly `env` set among the fault variables.
fn octocache(args: &[&str], env: &[(&str, &str)]) -> (Option<i32>, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_octocache"));
    cmd.args(args);
    for var in FAULT_VARS {
        cmd.env_remove(var);
    }
    cmd.envs(env.iter().copied());
    let out = cmd.output().unwrap();
    let text = String::from_utf8_lossy(&out.stdout) + String::from_utf8_lossy(&out.stderr);
    (out.status.code(), text.into_owned())
}

#[test]
fn io_fault_variables_are_parsed_and_refused_when_unusable() {
    let dir = std::env::temp_dir().join(format!("octocache-fault-env-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join("a.scanlog").to_string_lossy().into_owned();
    let map = dir.join("a.map").to_string_lossy().into_owned();
    let journal = dir.join("journal").to_string_lossy().into_owned();
    let (code, out) = octocache(
        &["generate", "fr079-corridor", &log, "--scale", "0.05"],
        &[],
    );
    assert_eq!(code, Some(0), "{out}");
    let build = ["build", &log, &map, "--backend", "parallel"];

    // A malformed value of either variable is refused rather than run
    // clean.
    for (var, value, message) in [
        ("OCTO_IO_FAULT", "bogus", "malformed OCTO_IO_FAULT spec"),
        ("OCTO_IO_FAULT_SEED", "-1", "malformed OCTO_IO_FAULT_SEED"),
    ] {
        let mut args = build.to_vec();
        args.extend(["--journal", &journal]);
        let (code, out) = octocache(&args, &[(var, value)]);
        assert_eq!(code, Some(2), "{var}={value}: {out}");
        assert!(out.contains(message), "{var}={value}: {out}");
    }

    // An I/O plan without a journal to write would inject nothing.
    let (code, out) = octocache(&build, &[("OCTO_IO_FAULT", "kill:mid@2")]);
    assert_eq!(code, Some(2), "{out}");
    assert!(out.contains("requires --journal"), "{out}");

    // With one, the injected kill tears the second append: the durability
    // error exits 8.
    let mut args = build.to_vec();
    args.extend(["--journal", &journal]);
    let (code, out) = octocache(&args, &[("OCTO_IO_FAULT", "kill:mid@2")]);
    assert_eq!(code, Some(8), "{out}");
    let _ = std::fs::remove_dir_all(&dir);
}
