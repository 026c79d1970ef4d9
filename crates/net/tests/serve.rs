//! The networked master end to end, in process: real `serve` over Unix
//! sockets against real workers and raw clients that misbehave on
//! purpose (drop their socket mid-evaluation, go silent, all vanish).

#![allow(clippy::expect_used)]

use borg_core::algorithm::{BorgConfig, BorgEngine};
use borg_core::problem::Problem;
use borg_core::rng::SplitMix64;
use borg_desim::fault::FaultKind;
use borg_net::codec::{Msg, UNASSIGNED};
use borg_net::serve::{serve, ServeConfig, ServeReport};
use borg_net::transport::{connect_with_backoff, Backoff, Conn, NetAddr, NetError};
use borg_net::worker::{run_worker, WorkerOptions};
use borg_obs::NoopRecorder;
use borg_problems::dtlz::Dtlz;
use std::time::{Duration, Instant};

fn resolve(name: &str) -> Option<Box<dyn Problem>> {
    (name == "dtlz2-5").then(|| Box::new(Dtlz::dtlz2_5()) as Box<dyn Problem>)
}

fn borg() -> BorgConfig {
    BorgConfig::new(5, 0.06)
}

/// A fresh socket path per test, so tests can run in parallel.
fn sock(tag: &str) -> NetAddr {
    let path = std::env::temp_dir().join(format!("borg-serve-{tag}-{}.sock", std::process::id()));
    NetAddr::Unix(path)
}

fn worker_opts(addr: &NetAddr) -> WorkerOptions {
    WorkerOptions {
        connect: addr.clone(),
        read_timeout: Duration::from_millis(25),
        heartbeat_every: Duration::from_millis(20),
        // Workers start alongside the master; retry fast until it binds.
        backoff: Backoff::new(Duration::from_micros(50), Duration::from_millis(20), 400),
    }
}

/// Registers a raw client and returns its connection once it holds one
/// `Work` frame.
fn raw_client_holding_work(addr: &NetAddr) -> Conn {
    let mut backoff = Backoff::new(Duration::from_micros(50), Duration::from_millis(20), 400);
    let stream =
        connect_with_backoff(addr, &mut backoff, Duration::from_millis(25)).expect("connect");
    let mut conn = Conn::new(stream);
    conn.send(&Msg::Hello { worker: UNASSIGNED })
        .expect("send Hello");
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        if let Some(Msg::Work { .. }) = conn.recv().expect("recv before Work") {
            return conn;
        }
        assert!(Instant::now() < deadline, "raw client never got Work");
    }
}

/// Runs `serve` with `real` real workers and `clients` extra raw-client
/// threads (each gets the socket address). The run gets a thread of its
/// own, so one that never returns fails the test instead of hanging it.
fn run<C>(cfg: &ServeConfig, real: usize, clients: &[C]) -> Result<ServeReport, NetError>
where
    C: Fn(&NetAddr) + Clone + Send + Sync + 'static,
{
    let (cfg, clients) = (cfg.clone(), clients.to_vec());
    let (tx, rx) = crossbeam::channel::bounded(1);
    std::thread::spawn(move || {
        let problem = Dtlz::dtlz2_5();
        let opts = worker_opts(&cfg.listen);
        let result = std::thread::scope(|s| {
            let master = s.spawn(|| serve(&problem, borg(), &cfg, &NoopRecorder));
            for _ in 0..real {
                s.spawn(|| run_worker(&opts, &resolve, &NoopRecorder).expect("worker failed"));
            }
            for client in &clients {
                s.spawn(|| client(&cfg.listen));
            }
            master.join().expect("serve panicked")
        });
        let _ = tx.send(result);
    });
    rx.recv_timeout(Duration::from_secs(60))
        .expect("serve did not return within 60 s")
}

fn no_clients() -> &'static [fn(&NetAddr)] {
    &[]
}

fn assert_budget_met(report: &ServeReport, budget: u64) {
    assert_eq!(report.engine.nfe(), budget);
    assert_eq!(report.wire_results, budget);
    report
        .engine
        .archive()
        .check_invariants()
        .expect("archive invariants");
}

#[test]
fn one_worker_archive_is_bit_identical_to_a_serial_loop() {
    let (seed, budget) = (11, 300);
    let cfg = ServeConfig::new(sock("serial"), 1, budget, seed);
    let report = run(&cfg, 1, no_clients()).expect("serve failed");
    assert_budget_met(&report, budget);

    let problem = Dtlz::dtlz2_5();
    let engine_seed = SplitMix64::new(seed).derive_seed("net-serve-engine");
    let mut engine = BorgEngine::new(&problem, borg(), engine_seed);
    let mut objs = vec![0.0; problem.num_objectives()];
    let mut cons = vec![0.0; problem.num_constraints()];
    while engine.nfe() < budget {
        let candidate = engine.produce();
        problem.evaluate(&candidate.variables, &mut objs, &mut cons);
        let solution = engine.make_solution(candidate, objs.clone(), cons.clone());
        engine.consume(solution);
    }

    let bits = |e: &BorgEngine| -> Vec<Vec<u64>> {
        e.archive()
            .solutions()
            .iter()
            .map(|s| {
                s.variables()
                    .iter()
                    .chain(s.objectives())
                    .map(|x| x.to_bits())
                    .collect()
            })
            .collect()
    };
    assert_eq!(bits(&report.engine), bits(&engine));
}

#[test]
fn three_workers_finish_the_budget_exactly_without_faults() {
    let budget = 600;
    let cfg = ServeConfig::new(sock("three"), 3, budget, 5);
    let report = run(&cfg, 3, no_clients()).expect("serve failed");
    assert_budget_met(&report, budget);
    assert_eq!(report.wire_duplicates, 0);
    assert_eq!(report.fault_log.injected(), 0);
    assert_eq!(report.fault_log.reissues, 0);
}

#[test]
fn a_dropped_connection_is_a_death_and_its_eval_is_reissued() {
    let budget = 200;
    let cfg = ServeConfig::new(sock("drop"), 2, budget, 7);
    let drop_after_work = |addr: &NetAddr| drop(raw_client_holding_work(addr));
    let report = run(&cfg, 1, &[drop_after_work]).expect("serve failed");
    assert_budget_met(&report, budget);
    assert_eq!(report.fault_log.injected_of(FaultKind::Crash), 1);
    assert_eq!(report.fault_log.injected(), 1);
    assert!(report.fault_log.reissues >= 1, "lost eval was not reissued");
}

#[test]
fn a_silent_client_is_declared_hung() {
    let budget = 200;
    let mut cfg = ServeConfig::new(sock("hang"), 2, budget, 9);
    cfg.heartbeat_timeout = 0.3;
    // Holds its work and its socket, sends nothing, until the master
    // closes the connection.
    let silent = |addr: &NetAddr| {
        let mut conn = raw_client_holding_work(addr);
        while !matches!(conn.recv(), Err(_) | Ok(Some(Msg::Shutdown))) {}
    };
    let report = run(&cfg, 1, &[silent]).expect("serve failed");
    assert_budget_met(&report, budget);
    assert_eq!(report.fault_log.injected_of(FaultKind::Hang), 1);
    assert_eq!(report.fault_log.injected(), 1);
    assert!(report.fault_log.reissues >= 1, "hung eval was not reissued");
}

#[test]
fn losing_every_worker_ends_the_run_promptly() {
    let budget = 200;
    let cfg = ServeConfig::new(sock("lost"), 2, budget, 13);
    let drop_after_work = |addr: &NetAddr| drop(raw_client_holding_work(addr));
    let started = Instant::now();
    let result = run(&cfg, 0, &[drop_after_work, drop_after_work]);
    assert!(
        matches!(
            result,
            Err(NetError::AllWorkersLost {
                completed: 0,
                target: 200
            })
        ),
        "expected AllWorkersLost, got {:?}",
        result.err()
    );
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "run took {:?} to give up",
        started.elapsed()
    );
}
