//! The four closed-loop workloads and one rep of each: the real Borg
//! master run to its budget, with the benchmark's [`Probe`] around the
//! problem and, for traced reps, `profile_ta` on and an in-memory
//! recorder attached.

use crate::probe::{Probe, Timed};
use crate::stats::mean;
use borg_core::algorithm::{BorgConfig, BorgEngine, TaProfile};
use borg_core::problem::Problem;
use borg_desim::fault::{FaultConfig, FaultLog};
use borg_metrics::hypervolume::hypervolume;
use borg_models::dist::Dist;
use borg_net::serve::{serve, ServeConfig};
use borg_net::worker::{run_worker, WorkerOptions};
use borg_net::{Backoff, NetAddr};
use borg_obs::{InMemoryRecorder, MetricsSnapshot, NoopRecorder, Recorder};
use borg_parallel::threads::{run_threaded, run_threaded_observed, ThreadedConfig};
use borg_parallel::virtual_exec::{
    run_virtual_async, run_virtual_async_faulty, TaMode, VirtualConfig, VirtualRunResult,
};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 4] = [
    "virtual_cell",
    "virtual_faults",
    "threads_saturate",
    "socket_saturate",
];

/// Which executor a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `run_virtual_async`: one Table II cell in virtual time.
    VirtualCell,
    /// `run_virtual_async_faulty` under the fault plan of [`faults`].
    VirtualFaults,
    /// `run_threaded`: crossbeam channels between real threads.
    Threads,
    /// `borg_net::serve` plus `run_worker` threads over a Unix socket.
    Socket,
}

/// A workload's fixed shape. The seed is the only input that varies.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    /// DTLZ2 objective count.
    pub objectives: usize,
    /// Workers `P − 1`.
    pub workers: usize,
    /// Evaluations per rep.
    pub budget: u64,
    /// Search trajectories a run's reps cycle through (see `main.rs`).
    pub trajectories: usize,
}

/// Problem name the socket master announces and the workers resolve.
const NET_PROBLEM: &str = "dtlz2-2";

impl Spec {
    /// The named workload at its full budget, or at the small budget the
    /// benchmark's own test uses.
    pub fn named(name: &str, tiny: bool) -> Option<Spec> {
        // The archive and population sizes `virtual_cell` reaches, and so its
        // speed, depend on the seed; three trajectories average that out.
        // The other workloads' working sets do not depend on it, and one
        // trajectory gives the window filter the most reps to pick from.
        let (name, kind, objectives, workers, full, small, trajectories) = match name {
            "virtual_cell" => ("virtual_cell", Kind::VirtualCell, 5, 1023, 50_000, 3_000, 6),
            "virtual_faults" => (
                "virtual_faults",
                Kind::VirtualFaults,
                2,
                63,
                200_000,
                5_000,
                1,
            ),
            "threads_saturate" => ("threads_saturate", Kind::Threads, 2, 1, 100_000, 2_000, 1),
            "socket_saturate" => ("socket_saturate", Kind::Socket, 2, 1, 100_000, 2_000, 1),
            _ => return None,
        };
        Some(Spec {
            name,
            kind,
            objectives,
            workers,
            budget: if tiny { small } else { full },
            trajectories,
        })
    }

    pub fn is_virtual(&self) -> bool {
        matches!(self.kind, Kind::VirtualCell | Kind::VirtualFaults)
    }

    fn borg(&self, profile_ta: bool) -> BorgConfig {
        let mut borg = BorgConfig::new(self.objectives, 0.06);
        borg.profile_ta = profile_ta;
        borg
    }

    /// The virtual workloads' timing: `T_F ~ N(10 ms, CV 0.1)`,
    /// `T_C = 6 µs`, `T_A` sampled at a constant 30 µs.
    pub fn virtual_config(&self, seed: u64, budget: u64) -> VirtualConfig {
        VirtualConfig {
            processors: self.workers as u32 + 1,
            max_nfe: budget,
            t_f: Dist::normal_cv(0.010, 0.1),
            t_c: Dist::Constant(6e-6),
            t_a: TaMode::Sampled(Dist::Constant(30e-6)),
            seed,
        }
    }
}

/// The `virtual_faults` plan: crash 0.25 (respawn after 0.5 s), straggler
/// 0.05, drop 0.02, duplicate 0.02.
pub fn faults() -> FaultConfig {
    FaultConfig {
        crash_rate: 0.25,
        respawn_after: Some(0.5),
        straggler_rate: 0.05,
        drop_rate: 0.02,
        duplicate_rate: 0.02,
        ..FaultConfig::default()
    }
}

/// What must repeat bit for bit when a virtual workload is re-run on the
/// same seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub virtual_elapsed_bits: u64,
    pub archive_digest: u64,
    pub archive_len: usize,
    pub injected: usize,
    pub reissues: u64,
    pub duplicates: u64,
    pub wasted_nfe: u64,
    pub respawns: u64,
    pub deaths: u64,
}

/// Engine state the `core` layer metrics read.
#[derive(Debug, Clone, Copy)]
pub struct CoreStats {
    pub nfe: u64,
    pub profile: TaProfile,
    pub archive_len: usize,
    pub population_len: usize,
    pub restarts: u64,
    pub box_probes: u64,
    pub accepts: u64,
    pub rejects: u64,
    pub arena_hits: u64,
    pub arena_misses: u64,
}

/// What a traced rep adds.
pub struct Trace {
    /// `Problem::evaluate` durations (ns).
    pub eval_ns: Vec<u32>,
    /// Seconds spent inside the benchmark's observer callback (virtual).
    pub observer_s: f64,
    /// The executor's own `T_A` samples (seconds; virtual and threads).
    pub ta_samples: Vec<f64>,
    /// Mean `T_F` sample (seconds; virtual only, else 0).
    pub tf_mean: f64,
    pub snapshot: MetricsSnapshot,
}

/// One rep: a whole run of the workload's budget.
pub struct Rep {
    /// The seed this rep ran with.
    pub seed: u64,
    /// From the call into the executor (problem construction included)
    /// to the end of set-up: the first evaluation (real time) or the first
    /// consumed result (virtual time).
    pub setup_s: f64,
    /// From the end of set-up to the executor's return.
    pub timed_s: f64,
    /// Evaluations the engine consumed.
    pub consumed: u64,
    /// Evaluations dispatched: fresh produces plus reissues.
    pub dispatched: u64,
    /// `Problem::evaluate` calls.
    pub evals: u64,
    /// The wall gap the master imposes on each evaluation, in order (ns):
    /// between observer callbacks (virtual) or between the end of one
    /// evaluation and the start of the next on the worker (real time).
    pub gaps_ns: Vec<u32>,
    /// Wall time between consecutive evaluations (ns): the same gaps
    /// (virtual), or between consecutive evaluation starts on any worker
    /// (real time). Consecutive cycles tile the timed phase; position `k`
    /// lines up with `gaps_ns[k]` to within the worker count.
    pub cycles_ns: Vec<u32>,
    pub fingerprint: Fingerprint,
    pub invariants: Result<(), String>,
    /// Final-archive hypervolume (two-objective workloads).
    pub hypervolume: Option<f64>,
    /// Duplicate result frames the socket master absorbed.
    pub wire_duplicates: u64,
    pub core: CoreStats,
    pub trace: Option<Trace>,
}

fn nanos(d: Duration) -> u32 {
    u32::try_from(d.as_nanos()).unwrap_or(u32::MAX)
}

/// FNV-1a over the archive's objective vectors, in archive order.
fn archive_digest(engine: &BorgEngine) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for s in engine.archive().solutions() {
        for &o in s.objectives() {
            fold(o.to_bits());
        }
    }
    h
}

/// What every executor hands back, before it is reduced to a [`Rep`].
struct RunOut {
    engine: BorgEngine,
    fault_log: FaultLog,
    virtual_elapsed: f64,
    ta_samples: Vec<f64>,
    tf_samples: Vec<f64>,
    wire_duplicates: u64,
}

impl From<VirtualRunResult> for RunOut {
    fn from(r: VirtualRunResult) -> Self {
        RunOut {
            engine: r.engine,
            fault_log: r.fault_log,
            virtual_elapsed: r.outcome.elapsed,
            ta_samples: r.ta_samples,
            tf_samples: r.tf_samples,
            wire_duplicates: 0,
        }
    }
}

/// Runs one rep of `spec` at `budget` evaluations. `sock` is the Unix
/// socket path the socket workload listens on.
pub fn run_rep(
    spec: &Spec,
    seed: u64,
    budget: u64,
    traced: bool,
    sock: &Path,
) -> Result<Rep, String> {
    let rec = InMemoryRecorder::metrics_only();
    let realtime = !spec.is_virtual();
    // Eager and in-flight dispatches run a few evaluations past the budget.
    let probe = Probe::new(realtime, traced, budget as usize + 2 * spec.workers);
    let mut observer_s = 0.0;
    let mut gaps: Vec<u32> = Vec::new();
    let mut first_consume: Option<Instant> = None;
    let call = Instant::now();
    let problem = Timed::dtlz2(spec.objectives, &probe);
    let borg = spec.borg(traced);
    let out = match spec.kind {
        Kind::VirtualCell | Kind::VirtualFaults => {
            gaps.reserve(budget as usize);
            let mut last: Option<Instant> = None;
            let observer = |_t: f64, _e: &BorgEngine| {
                let now = Instant::now();
                match last {
                    Some(l) => gaps.push(nanos(now.duration_since(l))),
                    None => first_consume = Some(now),
                }
                last = Some(now);
                if traced {
                    observer_s += now.elapsed().as_secs_f64();
                }
            };
            let config = spec.virtual_config(seed, budget);
            if traced {
                run_virtual(spec, &problem, borg, &config, &rec, observer)
            } else {
                run_virtual(spec, &problem, borg, &config, &NoopRecorder, observer)
            }
        }
        Kind::Threads => {
            let config = ThreadedConfig::new(spec.workers, budget, None, seed);
            let r = if traced {
                run_threaded_observed(&problem, borg, &config, &rec)
            } else {
                run_threaded(&problem, borg, &config)
            }
            .map_err(|e| format!("run_threaded: {e}"))?;
            RunOut {
                engine: r.engine,
                fault_log: r.fault_log,
                virtual_elapsed: 0.0,
                ta_samples: r.ta_samples,
                tf_samples: Vec::new(),
                wire_duplicates: 0,
            }
        }
        Kind::Socket => {
            if traced {
                run_socket(spec, seed, budget, borg, &problem, &probe, sock, &rec)?
            } else {
                run_socket(
                    spec,
                    seed,
                    budget,
                    borg,
                    &problem,
                    &probe,
                    sock,
                    &NoopRecorder,
                )?
            }
        }
    };
    let end = Instant::now();
    // Set-up ends where the steady state begins: at the first evaluation
    // in real time; at the first consumed result in virtual time, once the
    // master has seeded all P − 1 workers.
    let setup_end = if realtime {
        probe.first_start()
    } else {
        first_consume
    }
    .ok_or_else(|| format!("{}: no evaluation ran", spec.name))?;
    let cycles = if realtime {
        let records = probe.take_gaps();
        gaps = records
            .iter()
            .map(|r| r.0)
            .filter(|&g| g != u32::MAX)
            .collect();
        let mut starts: Vec<u64> = records.iter().map(|r| r.1).collect();
        starts.sort_unstable();
        starts
            .windows(2)
            .map(|w| u32::try_from(w[1] - w[0]).unwrap_or(u32::MAX))
            .collect()
    } else {
        gaps.clone()
    };
    let engine = &out.engine;
    let archive = engine.archive();
    let (arena_hits, arena_misses) = engine.arena_stats();
    let core = CoreStats {
        nfe: engine.nfe(),
        profile: *engine.ta_profile(),
        archive_len: archive.len(),
        population_len: engine.population().len(),
        restarts: engine.stats().restarts,
        box_probes: archive.box_probes(),
        accepts: archive.accepts(),
        rejects: archive.rejects(),
        arena_hits,
        arena_misses,
    };
    let log = &out.fault_log;
    let fingerprint = Fingerprint {
        virtual_elapsed_bits: out.virtual_elapsed.to_bits(),
        archive_digest: archive_digest(engine),
        archive_len: archive.len(),
        injected: log.injected(),
        reissues: log.reissues,
        duplicates: log.duplicates_suppressed,
        wasted_nfe: log.wasted_nfe,
        respawns: log.respawns,
        deaths: log.deaths_detected,
    };
    let hypervolume =
        (spec.objectives == 2).then(|| hypervolume(&archive.objective_vectors(), &[1.1, 1.1]));
    let trace = traced.then(|| Trace {
        eval_ns: probe.take_eval_ns(),
        observer_s,
        tf_mean: mean(&out.tf_samples),
        ta_samples: out.ta_samples,
        snapshot: rec.snapshot(),
    });
    Ok(Rep {
        seed,
        setup_s: setup_end.duration_since(call).as_secs_f64(),
        timed_s: end.duration_since(setup_end).as_secs_f64(),
        consumed: core.nfe,
        dispatched: engine.stats().produced + log.reissues,
        evals: probe.evals(),
        gaps_ns: gaps,
        cycles_ns: cycles,
        fingerprint,
        invariants: archive.check_invariants(),
        hypervolume,
        wire_duplicates: out.wire_duplicates,
        core,
        trace,
    })
}

fn run_virtual<R, F>(
    spec: &Spec,
    problem: &Timed,
    borg: BorgConfig,
    config: &VirtualConfig,
    rec: &R,
    observer: F,
) -> RunOut
where
    R: Recorder + ?Sized,
    F: FnMut(f64, &BorgEngine),
{
    if spec.kind == Kind::VirtualCell {
        run_virtual_async(problem, borg, config, rec, observer).into()
    } else {
        run_virtual_async_faulty(problem, borg, config, &faults(), rec, observer).into()
    }
}

/// The socket workload: `serve` on `sock` plus `spec.workers` in-process
/// `run_worker` threads resolving the same probed problem.
#[allow(clippy::too_many_arguments)]
fn run_socket<R: Recorder + Sync>(
    spec: &Spec,
    seed: u64,
    budget: u64,
    borg: BorgConfig,
    problem: &Timed,
    probe: &Arc<Probe>,
    sock: &Path,
    rec: &R,
) -> Result<RunOut, String> {
    let addr = NetAddr::Unix(sock.to_path_buf());
    let mut cfg = ServeConfig::new(addr.clone(), spec.workers, budget, seed);
    cfg.problem_name = NET_PROBLEM.to_string();
    let opts = WorkerOptions {
        connect: addr,
        // Workers start alongside the master; retry fast until it binds.
        backoff: Backoff::new(Duration::from_micros(50), Duration::from_millis(20), 400),
        ..WorkerOptions::default()
    };
    let objectives = spec.objectives;
    let resolve = |name: &str| -> Option<Box<dyn Problem>> {
        (name == NET_PROBLEM).then(|| Box::new(Timed::dtlz2(objectives, probe)) as Box<dyn Problem>)
    };
    std::thread::scope(|s| {
        let master = s.spawn(|| serve(problem, borg, &cfg, rec));
        let workers: Vec<_> = (0..spec.workers)
            .map(|_| s.spawn(|| run_worker(&opts, &resolve, rec)))
            .collect();
        let report = master
            .join()
            .map_err(|_| "serve panicked".to_string())?
            .map_err(|e| format!("serve: {e}"))?;
        for w in workers {
            w.join()
                .map_err(|_| "worker panicked".to_string())?
                .map_err(|e| format!("worker: {e}"))?;
        }
        Ok(RunOut {
            engine: report.engine,
            fault_log: report.fault_log,
            virtual_elapsed: 0.0,
            ta_samples: Vec::new(),
            tf_samples: Vec::new(),
            wire_duplicates: report.wire_duplicates,
        })
    })
}
