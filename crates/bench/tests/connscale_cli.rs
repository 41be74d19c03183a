//! The `connscale` binary answers bad arguments with usage and an exit
//! code, never a panic.

use std::process::Command;

fn connscale(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_connscale"))
        .args(args)
        .output()
        .expect("spawn connscale")
}

#[test]
fn help_prints_usage_and_exits_zero() {
    let out = connscale(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("usage: connscale"));
}

#[test]
fn bad_arguments_exit_two_with_usage() {
    for args in [
        &["--bogus"][..],
        &["--conns"],
        &["--conns", "1000,many"],
        &["--conns", "0"],
        &["--requests", "lots"],
        &["--requests", "0"],
    ] {
        let out = connscale(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: connscale"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
