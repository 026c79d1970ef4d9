//! Virtual-time master-slave executors running the **real** Borg MOEA.
//!
//! These executors are the reproduction's "experimental arm" (see
//! DESIGN.md §2): the actual algorithm — population, ε-archive, operator
//! adaptation, restarts — runs inside a deterministic discrete-event
//! simulation of the master-slave topology. Evaluation delays `T_F`,
//! message times `T_C` and (optionally) algorithm times `T_A` are sampled
//! from the controlled distributions of the paper's experiment; `T_A` can
//! instead be *measured* from the real wall-clock cost of the engine's
//! produce/consume calls, which reproduces the paper's observation that
//! `T_A` grows with processor count and problem complexity.

use borg_core::algorithm::{BorgConfig, BorgEngine, Candidate};
use borg_core::problem::Problem;
use borg_core::rng::SplitMix64;
use borg_core::solution::Solution;
use borg_desim::fault::{FaultConfig, FaultLog, FaultPlan};
use borg_models::dist::Dist;
use borg_models::queueing::{
    run_async, run_async_faulty, run_async_faulty_traced, run_sync, MasterSlaveHooks,
    RecoveryPolicy, RunOutcome,
};
use borg_obs::Recorder;
use borg_protocol::Command;
use rand::rngs::StdRng;
use std::collections::BTreeMap;
use std::time::Instant;

/// How the executor charges master algorithm time `T_A`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TaMode {
    /// Sample from a distribution (like the performance model).
    Sampled(Dist),
    /// Measure the real wall-clock time of the engine's produce/consume
    /// calls and use it as simulated seconds (the "experimental" mode).
    Measured,
}

/// Configuration of a virtual-time parallel run.
#[derive(Debug, Clone)]
pub struct VirtualConfig {
    /// Total processors `P` (one master + `P − 1` workers).
    pub processors: u32,
    /// Function evaluations to perform.
    pub max_nfe: u64,
    /// Evaluation-delay distribution (the paper's controlled `T_F`).
    pub t_f: Dist,
    /// One-way message-time distribution.
    pub t_c: Dist,
    /// Master algorithm-time source.
    pub t_a: TaMode,
    /// Master seed (split into engine / delay streams).
    pub seed: u64,
}

impl VirtualConfig {
    /// The paper's experimental configuration: `T_F ~ Normal(t_f, 0.1 t_f)`,
    /// `T_C = 6 µs` constant, measured `T_A`.
    pub fn paper(processors: u32, max_nfe: u64, t_f_mean: f64, seed: u64) -> Self {
        Self {
            processors,
            max_nfe,
            t_f: Dist::normal_cv(t_f_mean, 0.1),
            t_c: Dist::Constant(0.000_006),
            t_a: TaMode::Measured,
            seed,
        }
    }
}

/// Result of a virtual-time parallel run.
#[derive(Debug)]
pub struct VirtualRunResult {
    /// Queueing outcome (elapsed virtual time, utilization, waits).
    pub outcome: RunOutcome,
    /// Final engine state (archive, statistics).
    pub engine: BorgEngine,
    /// Measured/sampled `T_A` values (seconds), one per master interaction.
    pub ta_samples: Vec<f64>,
    /// Sampled `T_F` values.
    pub tf_samples: Vec<f64>,
    /// Fault-injection/recovery ledger. Empty (default) for the
    /// fault-free executors.
    pub fault_log: FaultLog,
}

/// The virtual executors' timing draw rule, in one place so every host of
/// the Borg engine on a DES clock (the virtual executors here, the
/// networked chaos oracle in `borg-net`) consumes the same RNG stream
/// call for call.
///
/// * `config.seed` splits into the engine seed (`virtual-engine`) and the
///   delay stream (`virtual-delays`), in that order.
/// * Each [`evaluation_time`](Self::evaluation_time) draws one `T_F`, each
///   [`comm_time`](Self::comm_time) one `T_C`.
/// * Sampled `T_A` is per master *interaction* and charged on consume
///   (the paper's `hold(T_C + T_A + T_C)`); only the first `slots`
///   productions — the pipeline seeding — draw their own sample.
///   Reissues draw nothing.
/// * Measured `T_A` charges each call's real cost; a production that
///   directly follows a consume (same master hold) is merged into that
///   consume's sample, so `ta_samples` holds per-interaction sums — the
///   quantity the paper's models call `T_A`.
#[derive(Debug)]
pub struct VirtualDraws {
    t_f: Dist,
    t_c: Dist,
    t_a: TaMode,
    rng: StdRng,
    /// Productions left that charge their own sampled `T_A`.
    seeding: usize,
    merge_next_produce: bool,
    ta_samples: Vec<f64>,
    tf_samples: Vec<f64>,
}

impl VirtualDraws {
    /// Splits `config.seed` into the Borg engine and the delay draws.
    /// `slots` is the number of productions that seed the pipeline: the
    /// worker count for asynchronous runs, one more (the self-evaluating
    /// master) for generational ones, zero for the serial baseline.
    pub fn new<P: Problem + ?Sized>(
        problem: &P,
        borg: BorgConfig,
        config: &VirtualConfig,
        slots: usize,
    ) -> (BorgEngine, Self) {
        let mut split = SplitMix64::new(config.seed);
        let engine = BorgEngine::new(problem, borg, split.derive_seed("virtual-engine"));
        let draws = Self {
            t_f: config.t_f,
            t_c: config.t_c,
            t_a: config.t_a,
            rng: split.derive("virtual-delays"),
            seeding: slots,
            merge_next_produce: false,
            ta_samples: Vec::new(),
            tf_samples: Vec::new(),
        };
        (engine, draws)
    }

    /// `T_A` charged for a fresh production whose real cost was `real`
    /// seconds.
    pub fn produce(&mut self, real: f64) -> f64 {
        match self.t_a {
            TaMode::Measured => {
                if std::mem::take(&mut self.merge_next_produce) {
                    if let Some(last) = self.ta_samples.last_mut() {
                        *last += real;
                    }
                } else {
                    self.ta_samples.push(real);
                }
                real
            }
            TaMode::Sampled(_) if self.seeding > 0 => {
                // A seeding production is its own interaction.
                self.seeding -= 1;
                self.consume(real)
            }
            TaMode::Sampled(_) => 0.0,
        }
    }

    /// `T_A` charged for a consume whose real cost was `real` seconds.
    pub fn consume(&mut self, real: f64) -> f64 {
        let t = match self.t_a {
            TaMode::Measured => {
                self.merge_next_produce = true;
                real
            }
            TaMode::Sampled(d) => d.sample(&mut self.rng),
        };
        self.ta_samples.push(t);
        t
    }

    /// One `T_F` draw.
    pub fn evaluation_time(&mut self) -> f64 {
        let t = self.t_f.sample(&mut self.rng);
        self.tf_samples.push(t);
        t
    }

    /// One `T_C` draw.
    pub fn comm_time(&mut self) -> f64 {
        self.t_c.sample(&mut self.rng)
    }

    /// The charged `T_A` values (seconds; one per master interaction, plus
    /// one per seeding production in `Sampled` mode) and the `T_F` draws.
    pub fn into_samples(self) -> (Vec<f64>, Vec<f64>) {
        (self.ta_samples, self.tf_samples)
    }
}

/// The hooks wiring a [`BorgEngine`] + [`Problem`] into the queueing
/// engine, for every virtual run mode.
struct BorgHooks<'p, P: Problem + ?Sized, F> {
    engine: BorgEngine,
    problem: &'p P,
    /// Produced candidates with their eagerly computed objectives and
    /// constraints, keyed by evaluation id, awaiting their virtual
    /// evaluation delay. A reissue resends the same candidate; the first
    /// copy to arrive is consumed.
    pending: BTreeMap<u64, (Candidate, Vec<f64>, Vec<f64>)>,
    draws: VirtualDraws,
    objs_buf: Vec<f64>,
    cons_buf: Vec<f64>,
    observer: F,
}

impl<'p, P: Problem + ?Sized, F: FnMut(f64, &BorgEngine)> BorgHooks<'p, P, F> {
    fn new(
        problem: &'p P,
        config: &VirtualConfig,
        borg: BorgConfig,
        slots: usize,
        observer: F,
    ) -> Self {
        let (engine, draws) = VirtualDraws::new(problem, borg, config, slots);
        Self {
            engine,
            problem,
            pending: BTreeMap::new(),
            draws,
            objs_buf: vec![0.0; problem.num_objectives()],
            cons_buf: vec![0.0; problem.num_constraints()],
            observer,
        }
    }

    fn into_result(self, outcome: RunOutcome, fault_log: FaultLog) -> VirtualRunResult {
        let (ta_samples, tf_samples) = self.draws.into_samples();
        VirtualRunResult {
            outcome,
            engine: self.engine,
            ta_samples,
            tf_samples,
            fault_log,
        }
    }
}

impl<'p, P: Problem + ?Sized, F: FnMut(f64, &BorgEngine)> MasterSlaveHooks for BorgHooks<'p, P, F> {
    fn produce(&mut self, _worker: usize, eval_id: u64, _now: f64) -> f64 {
        let start = Instant::now();
        let candidate = self.engine.produce();
        let real = start.elapsed().as_secs_f64();
        // The evaluation itself runs eagerly (we are single-threaded); its
        // *virtual* duration is the sampled T_F charged in
        // `evaluation_time`, matching the paper's controlled delays.
        self.problem
            .evaluate(&candidate.variables, &mut self.objs_buf, &mut self.cons_buf);
        self.pending.insert(
            eval_id,
            (candidate, self.objs_buf.clone(), self.cons_buf.clone()),
        );
        self.draws.produce(real)
    }

    fn evaluation_time(&mut self, _worker: usize, _eval_id: u64) -> f64 {
        self.draws.evaluation_time()
    }

    fn consume(&mut self, _worker: usize, eval_id: u64, now: f64) -> f64 {
        // The queueing engine consumes each evaluation id exactly once,
        // after its produce (duplicates are suppressed upstream); a
        // missing entry means the simulation itself is corrupted.
        #[allow(clippy::expect_used)]
        let (candidate, objs, cons) = self
            .pending
            .remove(&eval_id)
            .expect("consume without a pending result");
        let start = Instant::now();
        let solution: Solution = self.engine.make_solution(candidate, objs, cons);
        self.engine.consume(solution);
        let real = start.elapsed().as_secs_f64();
        (self.observer)(now, &self.engine);
        self.draws.consume(real)
    }

    fn comm_time(&mut self) -> f64 {
        self.draws.comm_time()
    }
}

/// `P − 1`, the worker count of a master-slave configuration.
fn worker_count(config: &VirtualConfig) -> usize {
    assert!(
        config.processors >= 2,
        "need a master and at least one worker"
    );
    (config.processors - 1) as usize
}

/// Runs the asynchronous master-slave Borg MOEA in virtual time.
///
/// `observer` fires after every consumed evaluation with the current
/// virtual time and engine state (use it for hypervolume trajectories).
pub fn run_virtual_async<P, F, R>(
    problem: &P,
    borg: BorgConfig,
    config: &VirtualConfig,
    rec: &R,
    observer: F,
) -> VirtualRunResult
where
    P: Problem + ?Sized,
    F: FnMut(f64, &BorgEngine),
    R: Recorder + ?Sized,
{
    let workers = worker_count(config);
    let mut hooks = BorgHooks::new(problem, config, borg, workers, observer);
    let outcome = run_async(&mut hooks, workers, config.max_nfe, rec);
    hooks.into_result(outcome, FaultLog::default())
}

/// Runs a *generational synchronous* master-slave Borg MOEA in virtual
/// time (the Cantú-Paz topology used for comparison in §VI-B).
pub fn run_virtual_sync<P, F, R>(
    problem: &P,
    borg: BorgConfig,
    config: &VirtualConfig,
    rec: &R,
    observer: F,
) -> VirtualRunResult
where
    P: Problem + ?Sized,
    F: FnMut(f64, &BorgEngine),
    R: Recorder + ?Sized,
{
    let workers = worker_count(config);
    // Generation width: the workers plus the self-evaluating master.
    let mut hooks = BorgHooks::new(problem, config, borg, workers + 1, observer);
    let outcome = run_sync(&mut hooks, workers, config.max_nfe, rec);
    hooks.into_result(outcome, FaultLog::default())
}

/// Runs the Borg MOEA *serially* while charging the same virtual clock
/// (`T_S = Σ (T_F + T_A)`), providing the baseline for hypervolume-based
/// speedup (`S_P^h`, §VI-A).
pub fn run_virtual_serial<P, F>(
    problem: &P,
    borg: BorgConfig,
    config: &VirtualConfig,
    mut observer: F,
) -> VirtualRunResult
where
    P: Problem + ?Sized,
    F: FnMut(f64, &BorgEngine),
{
    let (mut engine, mut draws) = VirtualDraws::new(problem, borg, config, 0);
    let mut clock = 0.0f64;
    let mut objs = vec![0.0; problem.num_objectives()];
    let mut cons = vec![0.0; problem.num_constraints()];

    while engine.nfe() < config.max_nfe {
        let t0 = Instant::now();
        let cand = engine.produce();
        let produce_real = t0.elapsed().as_secs_f64();
        problem.evaluate(&cand.variables, &mut objs, &mut cons);
        let sol = engine.make_solution(cand, objs.clone(), cons.clone());
        clock += draws.evaluation_time();
        let t1 = Instant::now();
        engine.consume(sol);
        let consume_real = t1.elapsed().as_secs_f64();
        // One serial step is one interaction: produce and consume.
        clock += draws.consume(produce_real + consume_real);
        observer(clock, &engine);
    }

    let completed = engine.nfe();
    let (ta_samples, tf_samples) = draws.into_samples();
    VirtualRunResult {
        outcome: RunOutcome {
            elapsed: clock,
            completed,
            master_busy: clock,
            master_utilization: 1.0,
            mean_wait: 0.0,
            max_wait: 0.0,
            max_queue: 0,
            wasted_nfe: 0,
        },
        engine,
        ta_samples,
        tf_samples,
        fault_log: FaultLog::default(),
    }
}

/// Derives the [`FaultPlan`] a faulty virtual run with this configuration
/// will use (exposed so replay checks can inspect the plan).
pub fn fault_plan_for(config: &VirtualConfig, faults: &FaultConfig) -> FaultPlan {
    let plan_seed = SplitMix64::new(config.seed).derive_seed("fault-plan");
    FaultPlan::new(
        faults.clone(),
        (config.processors - 1) as usize,
        config.max_nfe,
        plan_seed,
    )
}

/// The default recovery policy for a virtual configuration: timeout
/// `k · E[T_F]` with `k = 4` (comfortably above the `straggler_factor`
/// would require a larger `k`; callers needing that pass their own
/// [`RecoveryPolicy`] to [`run_virtual_async_faulty_traced`]).
pub fn default_recovery_policy(config: &VirtualConfig) -> RecoveryPolicy {
    RecoveryPolicy::from_expected_eval_time(config.t_f.mean(), 4.0)
}

/// Runs the asynchronous master-slave Borg MOEA in virtual time under
/// fault injection, with the default recovery policy.
///
/// The master survives worker crashes, hangs, stragglers and message
/// drop/duplication per `faults`: timed-out evaluations are reissued to
/// live workers, dead workers are quarantined (and optionally respawned),
/// duplicate results are suppressed by evaluation id. The full ledger is
/// returned in [`VirtualRunResult::fault_log`].
pub fn run_virtual_async_faulty<P, F, R>(
    problem: &P,
    borg: BorgConfig,
    config: &VirtualConfig,
    faults: &FaultConfig,
    rec: &R,
    observer: F,
) -> VirtualRunResult
where
    P: Problem + ?Sized,
    F: FnMut(f64, &BorgEngine),
    R: Recorder + ?Sized,
{
    let workers = worker_count(config);
    let plan = fault_plan_for(config, faults);
    let policy = default_recovery_policy(config);
    let mut hooks = BorgHooks::new(problem, config, borg, workers, observer);
    let faulty = run_async_faulty(&mut hooks, workers, config.max_nfe, &plan, policy, rec);
    hooks.into_result(faulty.outcome, faulty.fault_log)
}

/// [`run_virtual_async_faulty`] with an explicit [`RecoveryPolicy`] and
/// the protocol engine's command trace enabled: also returns every [`Command`] the shared
/// [`MasterEngine`](borg_protocol::MasterEngine) issued, in decision
/// order. The differential equivalence tests compare this transcript
/// against the performance-model adapter's under identical timing to
/// prove both executors run the same protocol.
pub fn run_virtual_async_faulty_traced<P, F, R>(
    problem: &P,
    borg: BorgConfig,
    config: &VirtualConfig,
    faults: &FaultConfig,
    policy: RecoveryPolicy,
    rec: &R,
    observer: F,
) -> (VirtualRunResult, Vec<Command>)
where
    P: Problem + ?Sized,
    F: FnMut(f64, &BorgEngine),
    R: Recorder + ?Sized,
{
    let workers = worker_count(config);
    let plan = fault_plan_for(config, faults);
    let mut hooks = BorgHooks::new(problem, config, borg, workers, observer);
    let (faulty, commands) =
        run_async_faulty_traced(&mut hooks, workers, config.max_nfe, &plan, policy, rec);
    (
        hooks.into_result(faulty.outcome, faulty.fault_log),
        commands,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use borg_models::analytical::{async_parallel_time, relative_error, TimingParams};
    use borg_obs::NoopRecorder;
    use borg_problems::dtlz::Dtlz;

    fn borg_cfg() -> BorgConfig {
        BorgConfig::new(5, 0.06)
    }

    fn sampled_config(p: u32, nfe: u64, tf: f64, ta: f64) -> VirtualConfig {
        VirtualConfig {
            processors: p,
            max_nfe: nfe,
            t_f: Dist::Constant(tf),
            t_c: Dist::Constant(0.000_006),
            t_a: TaMode::Sampled(Dist::Constant(ta)),
            seed: 99,
        }
    }

    #[test]
    fn async_run_completes_and_converges() {
        let problem = Dtlz::dtlz2_5();
        let cfg = sampled_config(16, 5_000, 0.01, 0.000_03);
        let mut count = 0u64;
        let result = run_virtual_async(&problem, borg_cfg(), &cfg, &NoopRecorder, |_, _| {
            count += 1;
        });
        assert_eq!(result.outcome.completed, 5_000);
        assert_eq!(count, 5_000);
        assert_eq!(result.engine.nfe(), 5_000);
        assert!(result.engine.archive().len() > 10);
        result.engine.archive().check_invariants().unwrap();
        // ta: one per interaction + seeding; tf: one per dispatched work.
        assert!(result.ta_samples.len() as u64 >= 5_000);
    }

    #[test]
    fn sampled_times_match_analytical_model_below_saturation() {
        let problem = Dtlz::dtlz2_5();
        let cfg = sampled_config(16, 5_000, 0.01, 0.000_03);
        let result = run_virtual_async(&problem, borg_cfg(), &cfg, &NoopRecorder, |_, _| {});
        let t = TimingParams::new(0.01, 0.000_006, 0.000_03);
        let eq2 = async_parallel_time(5_000, 16, t);
        assert!(
            relative_error(result.outcome.elapsed, eq2) < 0.01,
            "virtual {} vs Eq.2 {}",
            result.outcome.elapsed,
            eq2
        );
    }

    #[test]
    fn virtual_async_is_deterministic_with_sampled_ta() {
        let problem = Dtlz::dtlz2_5();
        let cfg = sampled_config(8, 2_000, 0.001, 0.000_03);
        let a = run_virtual_async(&problem, borg_cfg(), &cfg, &NoopRecorder, |_, _| {});
        let b = run_virtual_async(&problem, borg_cfg(), &cfg, &NoopRecorder, |_, _| {});
        assert_eq!(a.outcome.elapsed, b.outcome.elapsed);
        assert_eq!(
            a.engine.archive().objective_vectors(),
            b.engine.archive().objective_vectors()
        );
    }

    #[test]
    fn measured_ta_grows_with_archive_activity() {
        // With TaMode::Measured the early interactions (tiny archive) must
        // be cheaper on average than late ones (big archive + adaptation).
        let problem = Dtlz::dtlz2_5();
        let cfg = VirtualConfig {
            processors: 8,
            max_nfe: 6_000,
            t_f: Dist::Constant(0.001),
            t_c: Dist::Constant(0.000_006),
            t_a: TaMode::Measured,
            seed: 5,
        };
        let result = run_virtual_async(&problem, borg_cfg(), &cfg, &NoopRecorder, |_, _| {});
        let n = result.ta_samples.len();
        let early: f64 = result.ta_samples[..n / 4].iter().sum::<f64>() / (n / 4) as f64;
        let late: f64 = result.ta_samples[3 * n / 4..].iter().sum::<f64>() / (n - 3 * n / 4) as f64;
        assert!(early > 0.0 && late > 0.0);
        // Not asserting a strict ordering (wall clock is noisy) but the
        // samples must be in a sane microsecond-ish range.
        assert!(result.ta_samples.iter().all(|&t| t < 0.1));
    }

    #[test]
    fn serial_baseline_charges_tf_plus_ta() {
        let problem = Dtlz::dtlz2_5();
        let cfg = sampled_config(2, 3_000, 0.01, 0.000_05);
        let result = run_virtual_serial(&problem, borg_cfg(), &cfg, |_, _| {});
        let expect = 3_000.0 * (0.01 + 0.000_05);
        assert!(relative_error(result.outcome.elapsed, expect) < 1e-9);
        assert_eq!(result.engine.nfe(), 3_000);
    }

    #[test]
    fn parallel_beats_serial_on_virtual_clock() {
        let problem = Dtlz::dtlz2_5();
        let cfg = sampled_config(16, 4_000, 0.01, 0.000_03);
        let par = run_virtual_async(&problem, borg_cfg(), &cfg, &NoopRecorder, |_, _| {});
        let ser = run_virtual_serial(&problem, borg_cfg(), &cfg, |_, _| {});
        let speedup = ser.outcome.elapsed / par.outcome.elapsed;
        assert!(speedup > 10.0, "speedup = {speedup}");
    }

    #[test]
    fn sync_executor_runs_generationally() {
        let problem = Dtlz::dtlz2_5();
        let cfg = sampled_config(8, 2_000, 0.01, 0.000_03);
        let result = run_virtual_sync(&problem, borg_cfg(), &cfg, &NoopRecorder, |_, _| {});
        assert!(result.outcome.completed >= 2_000);
        assert!(result.engine.archive().len() > 5);
    }

    #[test]
    fn faulty_run_with_crashes_and_loss_completes_max_nfe() {
        // The acceptance scenario: crash rate 0.1, message loss 0.01,
        // fixed seed — the run must still complete its full budget.
        let problem = Dtlz::dtlz2_5();
        let cfg = sampled_config(16, 3_000, 0.01, 0.000_03);
        let faults = FaultConfig::degraded(0.1);
        let result = run_virtual_async_faulty(
            &problem,
            borg_cfg(),
            &cfg,
            &faults,
            &NoopRecorder,
            |_, _| {},
        );
        assert_eq!(result.outcome.completed, 3_000);
        assert_eq!(result.engine.nfe(), 3_000);
        assert!(result.fault_log.all_recovered());
        assert_eq!(result.outcome.wasted_nfe, result.fault_log.wasted_nfe);
        result.engine.archive().check_invariants().unwrap();
    }

    #[test]
    fn fault_plan_replay_is_bit_identical() {
        // Same seed ⇒ identical FaultLog and final archive, bit for bit.
        let problem = Dtlz::dtlz2_5();
        let cfg = sampled_config(12, 2_000, 0.008, 0.000_03);
        let faults = FaultConfig {
            crash_rate: 0.25,
            straggler_rate: 0.02,
            drop_rate: 0.02,
            duplicate_rate: 0.02,
            respawn_after: Some(0.5),
            ..FaultConfig::default()
        };
        let run = || {
            run_virtual_async_faulty(
                &problem,
                borg_cfg(),
                &cfg,
                &faults,
                &NoopRecorder,
                |_, _| {},
            )
        };
        let a = run();
        let b = run();
        assert!(a.fault_log.injected() > 0, "scenario should inject faults");
        assert_eq!(a.fault_log, b.fault_log);
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(
            a.engine.archive().objective_vectors(),
            b.engine.archive().objective_vectors()
        );
    }

    #[test]
    fn kill_half_the_workers_mid_run_still_completes() {
        // Forced crashes on half the pool, early in the run, no respawn:
        // the surviving workers absorb the reissues and finish the budget.
        let problem = Dtlz::dtlz2_5();
        let cfg = sampled_config(9, 2_000, 0.01, 0.000_03);
        let faults = FaultConfig {
            forced_crashes: (0..4)
                .map(|w| borg_desim::fault::ForcedCrash {
                    worker: w,
                    after_dispatches: 10 + w as u64,
                })
                .collect(),
            ..FaultConfig::default()
        };
        let result = run_virtual_async_faulty(
            &problem,
            borg_cfg(),
            &cfg,
            &faults,
            &NoopRecorder,
            |_, _| {},
        );
        assert_eq!(result.outcome.completed, 2_000);
        assert_eq!(result.engine.nfe(), 2_000);
        assert_eq!(
            result
                .fault_log
                .injected_of(borg_desim::fault::FaultKind::Crash),
            4
        );
        assert!(result.fault_log.all_recovered());
        assert!(result.fault_log.deaths_detected >= 4);
    }

    #[test]
    fn quiet_faulty_run_matches_fault_free_elapsed_closely() {
        let problem = Dtlz::dtlz2_5();
        let cfg = sampled_config(8, 2_000, 0.01, 0.000_03);
        let base = run_virtual_async(&problem, borg_cfg(), &cfg, &NoopRecorder, |_, _| {});
        let quiet = run_virtual_async_faulty(
            &problem,
            borg_cfg(),
            &cfg,
            &FaultConfig::default(),
            &NoopRecorder,
            |_, _| {},
        );
        assert_eq!(quiet.fault_log.injected(), 0);
        assert_eq!(quiet.outcome.wasted_nfe, 0);
        assert!(
            relative_error(quiet.outcome.elapsed, base.outcome.elapsed) < 0.01,
            "quiet {} vs base {}",
            quiet.outcome.elapsed,
            base.outcome.elapsed
        );
    }

    #[test]
    fn observer_sees_monotone_time_and_nfe() {
        let problem = Dtlz::dtlz2_5();
        let cfg = sampled_config(4, 1_000, 0.005, 0.000_02);
        let mut last_t = -1.0;
        let mut last_nfe = 0;
        run_virtual_async(&problem, borg_cfg(), &cfg, &NoopRecorder, |t, e| {
            assert!(t >= last_t, "time went backwards");
            assert!(e.nfe() > last_nfe || last_nfe == 0);
            last_t = t;
            last_nfe = e.nfe();
        });
        assert_eq!(last_nfe, 1_000);
    }
}
