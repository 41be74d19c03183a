//! The `serve` binary answers bad arguments with usage and an exit code,
//! never a panic.

use std::process::Command;

fn serve(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(args)
        .output()
        .expect("spawn serve")
}

#[test]
fn help_prints_usage_and_exits_zero() {
    let out = serve(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("usage: serve"));
}

#[test]
fn bad_arguments_exit_two_with_usage() {
    for args in [
        &["--bogus"][..],
        &["--port"],
        &["--port", "many"],
        &["--quick", "--pipelines"],
    ] {
        let out = serve(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: serve"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
