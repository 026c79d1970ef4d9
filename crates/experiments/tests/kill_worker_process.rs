//! Process-level fault tolerance: SIGKILL a real worker process mid-run
//! and assert the networked master detects the death (connection EOF),
//! reissues the lost evaluation, and still completes the full budget on
//! the surviving worker.

#![cfg(unix)]
#![allow(clippy::expect_used)]

use std::io::Read;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const NFE: u64 = 600;
/// Per-evaluation delay (µs) announced to workers: slows the run to
/// ~1.5 s so the kill reliably lands mid-flight.
const EVAL_DELAY_US: u64 = 5_000;

fn exe() -> &'static str {
    env!("CARGO_BIN_EXE_borg-exp")
}

fn spawn_worker(sock: &str) -> Child {
    Command::new(exe())
        .args(["worker", "--connect", sock])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn worker process")
}

/// Extracts `key=value` from the serve summary line.
fn field(summary: &str, key: &str) -> u64 {
    summary
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix(&format!("{key}=")))
        .unwrap_or_else(|| panic!("no {key}= in summary: {summary}"))
        .parse()
        .unwrap_or_else(|e| panic!("bad {key} in summary ({e}): {summary}"))
}

#[test]
fn sigkilled_worker_is_detected_and_its_work_reissued() {
    let dir = std::env::temp_dir();
    let sock_path = dir.join(format!("borg-kill-test-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock_path);
    let sock = format!("unix:{}", sock_path.display());

    let flight_path = dir.join(format!(
        "borg-kill-test-{}.flight.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&flight_path);
    let mut serve = Command::new(exe())
        .args([
            "serve",
            "--listen",
            &sock,
            "--workers",
            "2",
            "--nfe",
            &NFE.to_string(),
            "--seed",
            "99",
            "--eval-delay-us",
            &EVAL_DELAY_US.to_string(),
            "--flight-out",
            &flight_path.display().to_string(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve process");

    let mut victim = spawn_worker(&sock);
    let mut survivor = spawn_worker(&sock);

    // Let registration finish and the run get going, then SIGKILL one
    // worker mid-evaluation. At ~5 ms per evaluation the run lasts well
    // past this point, so the victim is holding an in-flight work item
    // with overwhelming probability.
    std::thread::sleep(Duration::from_millis(600));
    victim.kill().expect("SIGKILL the victim worker");
    victim.wait().expect("reap the victim");

    // The master must still finish the full budget on the survivor.
    let deadline = Instant::now() + Duration::from_secs(60);
    let status = loop {
        match serve.try_wait().expect("poll serve") {
            Some(status) => break status,
            None if Instant::now() > deadline => {
                let _ = serve.kill();
                let _ = survivor.kill();
                panic!("serve did not finish within 60s after the kill");
            }
            None => std::thread::sleep(Duration::from_millis(50)),
        }
    };

    let mut stdout = String::new();
    serve
        .stdout
        .take()
        .expect("serve stdout piped")
        .read_to_string(&mut stdout)
        .expect("read serve stdout");
    let mut stderr = String::new();
    serve
        .stderr
        .take()
        .expect("serve stderr piped")
        .read_to_string(&mut stderr)
        .expect("read serve stderr");
    assert!(
        status.success(),
        "serve exited with {status}\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );

    let summary = stdout
        .lines()
        .find(|l| l.starts_with("serve summary:"))
        .unwrap_or_else(|| panic!("no serve summary in stdout:\n{stdout}"));

    assert_eq!(
        field(summary, "nfe"),
        NFE,
        "budget not completed: {summary}"
    );
    assert!(
        field(summary, "deaths_detected") >= 1,
        "the SIGKILLed worker was never detected: {summary}"
    );
    assert!(
        field(summary, "reissues") >= 1,
        "the lost in-flight evaluation was never reissued: {summary}"
    );
    assert!(field(summary, "archive") > 0, "empty archive: {summary}");

    let survivor_status = survivor.wait().expect("reap the survivor");
    assert!(
        survivor_status.success(),
        "surviving worker exited abnormally"
    );

    // The master's black-box flight recorder must have been dumped with
    // the worker-death trigger and contain the death event itself.
    let flight = std::fs::read_to_string(&flight_path)
        .unwrap_or_else(|e| panic!("flight dump {} missing: {e}", flight_path.display()));
    let header = flight.lines().next().expect("flight dump empty");
    assert!(
        header.contains("\"trigger\":\"worker_death\""),
        "flight dump not triggered by the death: {header}"
    );
    assert!(
        flight.contains("\"code\":\"net.worker_death\""),
        "flight dump is missing the net.worker_death event"
    );

    let _ = std::fs::remove_file(&sock_path);
    let _ = std::fs::remove_file(&flight_path);
}
