//! The `loadgen` binary answers bad arguments with usage and an exit
//! code, never a panic.

use std::process::Command;

fn loadgen(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_loadgen"))
        .args(args)
        .output()
        .expect("spawn loadgen")
}

#[test]
fn help_prints_usage_and_exits_zero() {
    let out = loadgen(&["-h"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("usage: loadgen"));
}

#[test]
fn bad_arguments_exit_two_with_usage() {
    for args in [
        &["--bogus"][..],
        &["--addr"],
        &["--addr", "127.0.0.1:1", "--requests", "lots"],
        &[],
        &["--addr", "127.0.0.1:1", "--refresh"],
    ] {
        let out = loadgen(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: loadgen"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
