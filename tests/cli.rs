//! The `medvid` binary's argument handling.

use std::process::Command;

#[test]
fn help_prints_usage_and_succeeds() {
    for arg in ["help", "--help", "-h"] {
        let out = Command::new(env!("CARGO_BIN_EXE_medvid"))
            .arg(arg)
            .output()
            .expect("spawn medvid");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "medvid {arg} failed: {out:?}");
        assert!(
            stdout.starts_with("usage: medvid"),
            "medvid {arg} printed {stdout:?}"
        );
    }
}

#[test]
fn unknown_command_still_fails() {
    let out = Command::new(env!("CARGO_BIN_EXE_medvid"))
        .arg("frobnicate")
        .output()
        .expect("spawn medvid");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command 'frobnicate'"));
}
