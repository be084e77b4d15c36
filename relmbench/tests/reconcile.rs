//! The benchmark's self-test: the reconcile-only mode must pass. It runs
//! every workload at a tiny size, untraced and traced, and checks digests
//! and both reconciliation rules; it times nothing.

use std::process::Command;

#[test]
fn reconcile_only_mode_passes() {
    let out = Command::new(env!("CARGO_BIN_EXE_relmbench"))
        .arg("--reconcile-only")
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "reconcile-only failed:\n{stdout}");
    for workload in ["serve_step", "serve_resident", "tune_converge"] {
        assert!(
            stdout.contains(&format!("{workload}: ")),
            "{workload} missing:\n{stdout}"
        );
    }
}

#[test]
fn bad_arguments_exit_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_relmbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
