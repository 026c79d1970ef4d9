//! End-to-end tests of the `borg-exp` binary at smoke scale: every
//! subcommand must run, exit 0, and leave its CSV artifacts behind.

#![allow(clippy::expect_used)]

use std::path::{Path, PathBuf};
use std::process::Command;

fn run(args: &[&str], out: &Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_borg-exp"))
        .args(args)
        .arg("--out")
        .arg(out)
        .output()
        .expect("spawn borg-exp")
}

fn temp_out(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("borg-exp-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn bounds_subcommand_writes_csv() {
    let out = temp_out("bounds");
    let result = run(&["bounds"], &out);
    assert!(
        result.status.success(),
        "{}",
        String::from_utf8_lossy(&result.stderr)
    );
    let csv = std::fs::read_to_string(out.join("bounds.csv")).unwrap();
    assert!(csv.lines().count() == 7); // header + 6 scenarios
    assert!(csv.contains("DTLZ2 T_F=10ms"));
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn timeline_subcommands_write_artifacts() {
    let out = temp_out("timeline");
    for cmd in ["fig1", "fig2"] {
        let result = run(&[cmd], &out);
        assert!(result.status.success());
        assert!(out.join(format!("{cmd}_timeline.csv")).exists());
        assert!(out.join(format!("{cmd}_timeline.txt")).exists());
        let stdout = String::from_utf8_lossy(&result.stdout);
        assert!(stdout.contains("master"), "missing Gantt output for {cmd}");
    }
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn table2_smoke_writes_csv_with_all_cells() {
    let out = temp_out("table2");
    let result = run(&["table2", "--smoke"], &out);
    assert!(
        result.status.success(),
        "{}",
        String::from_utf8_lossy(&result.stderr)
    );
    let csv = std::fs::read_to_string(out.join("table2.csv")).unwrap();
    // Smoke config: 2 problems × 2 T_F × 2 P + header.
    assert_eq!(csv.lines().count(), 9);
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn faults_smoke_writes_csv_and_completes_every_cell() {
    let out = temp_out("faults");
    let result = run(&["faults", "--smoke"], &out);
    assert!(
        result.status.success(),
        "{}",
        String::from_utf8_lossy(&result.stderr)
    );
    let csv = std::fs::read_to_string(out.join("faults.csv")).unwrap();
    // Smoke config: 2 failure rates × 2 P + header.
    assert_eq!(csv.lines().count(), 5);
    // Every cell must report the full smoke budget (2000 NFE) completed.
    for line in csv.lines().skip(1) {
        assert!(line.contains(",2000,"), "cell did not complete: {line}");
    }
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn hv_speedup_smoke_writes_panels() {
    let out = temp_out("fig3");
    let result = run(&["fig3", "--smoke"], &out);
    assert!(
        result.status.success(),
        "{}",
        String::from_utf8_lossy(&result.stderr)
    );
    assert!(out.join("fig3_dtlz2_tf0.01.csv").exists());
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn fig5_smoke_writes_both_surfaces() {
    let out = temp_out("fig5");
    let result = run(&["fig5", "--smoke"], &out);
    assert!(result.status.success());
    for name in [
        "fig5_sync.csv",
        "fig5_async.csv",
        "fig5_sync_table2params.csv",
        "fig5_async_table2params.csv",
        "fig5.txt",
    ] {
        assert!(out.join(name).exists(), "missing {name}");
    }
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn islands_and_dynamics_smoke() {
    let out = temp_out("ext");
    assert!(run(&["islands", "--smoke"], &out).status.success());
    assert!(out.join("islands.csv").exists());
    assert!(run(&["dynamics", "--smoke"], &out).status.success());
    assert!(out.join("dynamics_summary.csv").exists());
    assert!(out.join("dynamics_p8.csv").exists());
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn unknown_subcommand_fails_with_usage() {
    let out = temp_out("bad");
    let result = run(&["frobnicate"], &out);
    assert!(!result.status.success());
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn flag_parsing_rejects_bad_values() {
    let result = Command::new(env!("CARGO_BIN_EXE_borg-exp"))
        .args(["table2", "--nfe", "not-a-number"])
        .output()
        .unwrap();
    assert!(!result.status.success());
    assert!(String::from_utf8_lossy(&result.stderr).contains("--nfe"));
}
