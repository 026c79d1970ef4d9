//! The island-model (multi-master) topology — the paper's named future
//! work (§VII): *"To increase efficiency … on larger-scale parallel
//! systems (> 16,000 processors), it will be necessary to transition to a
//! more adaptive, island-based topology."*
//!
//! Each island is an independent asynchronous master-slave Borg instance
//! with its own master and worker pool; every `migration_interval`
//! island-local evaluations the island broadcasts `migration_size` random
//! archive members to every other island, which injects them into its
//! population and archive. The whole system runs in one deterministic
//! virtual-time discrete-event simulation, so K-island topologies with
//! thousands of total processors can be studied on a single machine.
//!
//! The scalability argument (§VI): one master saturates at
//! `P_UB = T_F / (2 T_C + T_A)`; K masters multiply the aggregate
//! bookkeeping throughput by K, pushing the saturation wall out by a
//! factor of K at the cost of partitioning the population.

use borg_core::algorithm::{BorgConfig, BorgEngine, Candidate};
use borg_core::problem::Problem;
use borg_core::rng::SplitMix64;
use borg_desim::queue::EventQueue;
use borg_models::dist::Dist;
use rand::rngs::StdRng;
use rand::Rng;
use std::time::Instant;

use crate::virtual_exec::TaMode;

/// Configuration of an island-model run.
#[derive(Debug, Clone)]
pub struct IslandConfig {
    /// Number of islands (each gets one master).
    pub islands: usize,
    /// Workers per island.
    pub workers_per_island: usize,
    /// Total evaluations across all islands.
    pub max_nfe: u64,
    /// Evaluation-delay distribution.
    pub t_f: Dist,
    /// One-way message-time distribution.
    pub t_c: Dist,
    /// Master algorithm-time source.
    pub t_a: TaMode,
    /// Island-local evaluations between migration broadcasts
    /// (0 disables migration).
    pub migration_interval: u64,
    /// Archive members broadcast per migration event.
    pub migration_size: usize,
    /// Root seed.
    pub seed: u64,
}

impl IslandConfig {
    /// Splits a total processor budget `p` into `islands` equal instances
    /// (each island gets `p/islands − 1` workers).
    pub fn split_processors(p: u32, islands: usize, max_nfe: u64, t_f: Dist) -> Self {
        assert!(islands >= 1);
        let per_island = (p as usize) / islands;
        assert!(per_island >= 2, "each island needs a master and a worker");
        Self {
            islands,
            workers_per_island: per_island - 1,
            max_nfe,
            t_f,
            t_c: Dist::Constant(0.000_006),
            t_a: TaMode::Measured,
            migration_interval: 1_000,
            migration_size: 4,
            seed: 0xA11A,
        }
    }
}

/// Result of an island-model run.
#[derive(Debug)]
pub struct IslandRunResult {
    /// Virtual elapsed time until the last consumed evaluation.
    pub elapsed: f64,
    /// Final per-island engines.
    pub engines: Vec<BorgEngine>,
    /// Total evaluations consumed.
    pub total_nfe: u64,
    /// Migration broadcasts performed.
    pub migrations: u64,
    /// Mean master utilization across islands.
    pub mean_master_utilization: f64,
}

impl IslandRunResult {
    /// Union of all island archives (objective vectors), non-dominated
    /// filtering left to the caller's metric.
    pub fn merged_archive(&self) -> Vec<Vec<f64>> {
        self.engines
            .iter()
            .flat_map(|e| e.archive().objective_rows().iter_rows())
            .map(|row| row.to_vec())
            .collect()
    }
}

#[derive(Debug, Clone, Copy)]
struct ResultReady {
    island: usize,
    worker: usize,
}

/// A produced candidate with its eagerly computed objectives/constraints,
/// awaiting its virtual evaluation delay.
type PendingResult = Option<(Candidate, Vec<f64>, Vec<f64>)>;

struct Island {
    engine: BorgEngine,
    pending: Vec<PendingResult>,
    master_free_at: f64,
    busy: f64,
    consumed: u64,
    since_migration: u64,
}

/// Runs the island-model Borg MOEA in virtual time.
pub fn run_islands<P: Problem + ?Sized>(
    problem: &P,
    borg: BorgConfig,
    config: &IslandConfig,
) -> IslandRunResult {
    assert!(config.islands >= 1);
    assert!(config.workers_per_island >= 1);
    assert!(config.max_nfe >= 1);

    let mut split = SplitMix64::new(config.seed);
    let mut rng: StdRng = split.derive("islands-delays");
    let mut islands: Vec<Island> = (0..config.islands)
        .map(|_| Island {
            engine: BorgEngine::new(problem, borg.clone(), split.derive_seed("island-engine")),
            pending: (0..config.workers_per_island).map(|_| None).collect(),
            master_free_at: 0.0,
            busy: 0.0,
            consumed: 0,
            since_migration: 0,
        })
        .collect();

    let mut objs = vec![0.0; problem.num_objectives()];
    let mut cons = vec![0.0; problem.num_constraints()];
    let mut queue: EventQueue<ResultReady> = EventQueue::new();
    let sample_ta = |rng: &mut StdRng, mode: &TaMode, real: f64| match mode {
        TaMode::Measured => real,
        TaMode::Sampled(d) => d.sample(rng),
    };

    // Seed every island's workers.
    for (i, island) in islands.iter_mut().enumerate() {
        for w in 0..config.workers_per_island {
            let t0 = Instant::now();
            let cand = island.engine.produce();
            let real = t0.elapsed().as_secs_f64();
            problem.evaluate(&cand.variables, &mut objs, &mut cons);
            island.pending[w] = Some((cand, objs.clone(), cons.clone()));
            let ta = sample_ta(&mut rng, &config.t_a, real);
            let tc = config.t_c.sample(&mut rng);
            let start_eval = island.master_free_at + ta + tc;
            island.busy += ta + tc;
            island.master_free_at = start_eval;
            let tf = config.t_f.sample(&mut rng);
            queue.schedule_at(
                start_eval + tf,
                ResultReady {
                    island: i,
                    worker: w,
                },
            );
        }
    }

    let mut total_consumed = 0u64;
    let mut migrations = 0u64;
    let mut elapsed = 0.0f64;

    while let Some((ready_at, ev)) = queue.pop() {
        let i = ev.island;
        let w = ev.worker;
        let grant = islands[i].master_free_at.max(ready_at);
        let tc_in = config.t_c.sample(&mut rng);

        // Consume.
        // A completion event for an empty slot can only mean a scheduling
        // bug in this event loop itself; panicking immediately (rather than
        // propagating) is the correct response to a corrupted simulation.
        #[allow(clippy::expect_used)]
        let (cand, o, c) = islands[i].pending[w].take().expect("missing result");
        let t0 = Instant::now();
        let sol = islands[i].engine.make_solution(cand, o, c);
        islands[i].engine.consume(sol);
        let consume_real = t0.elapsed().as_secs_f64();
        let ta_c = sample_ta(&mut rng, &config.t_a, consume_real);
        islands[i].consumed += 1;
        islands[i].since_migration += 1;
        total_consumed += 1;

        if total_consumed >= config.max_nfe {
            let end = grant + tc_in + ta_c;
            islands[i].busy += tc_in + ta_c;
            elapsed = end;
            break;
        }

        // Migration broadcast: the sending master pays one T_C per
        // outgoing message inside its current hold; receivers absorb the
        // migrants instantly (their master-side injection cost is folded
        // into their next measured T_A).
        let mut migration_cost = 0.0;
        if config.migration_interval > 0
            && config.islands > 1
            && islands[i].since_migration >= config.migration_interval
        {
            islands[i].since_migration = 0;
            migrations += 1;
            let migrants: Vec<_> = {
                let archive = islands[i].engine.archive().solutions();
                (0..config.migration_size.min(archive.len()))
                    .map(|_| archive[rng.gen_range(0..archive.len())].clone())
                    .collect()
            };
            for j in 0..config.islands {
                if j == i {
                    continue;
                }
                migration_cost += config.t_c.sample(&mut rng);
                for m in &migrants {
                    islands[j].engine.inject(m.clone());
                }
            }
        }

        // Produce the worker's next candidate.
        let t1 = Instant::now();
        let cand = islands[i].engine.produce();
        let produce_real = t1.elapsed().as_secs_f64();
        problem.evaluate(&cand.variables, &mut objs, &mut cons);
        islands[i].pending[w] = Some((cand, objs.clone(), cons.clone()));
        let ta_p = match config.t_a {
            TaMode::Measured => produce_real,
            // Sampled T_A covers the whole interaction (charged at consume).
            TaMode::Sampled(_) => 0.0,
        };
        let tc_out = config.t_c.sample(&mut rng);
        let hold_end = grant + tc_in + ta_c + ta_p + migration_cost + tc_out;
        islands[i].busy += tc_in + ta_c + ta_p + migration_cost + tc_out;
        islands[i].master_free_at = hold_end;
        let tf = config.t_f.sample(&mut rng);
        queue.schedule_at(
            hold_end + tf,
            ResultReady {
                island: i,
                worker: w,
            },
        );
        elapsed = hold_end;
    }

    let mean_util = islands
        .iter()
        .map(|is| is.busy / elapsed.max(1e-300))
        .sum::<f64>()
        / islands.len() as f64;
    IslandRunResult {
        elapsed,
        total_nfe: total_consumed,
        migrations,
        mean_master_utilization: mean_util.min(1.0),
        engines: islands.into_iter().map(|is| is.engine).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use borg_problems::dtlz::Dtlz;

    fn base_config(islands: usize, workers: usize, nfe: u64) -> IslandConfig {
        IslandConfig {
            islands,
            workers_per_island: workers,
            max_nfe: nfe,
            t_f: Dist::Constant(0.001),
            t_c: Dist::Constant(0.000_006),
            t_a: TaMode::Sampled(Dist::Constant(0.000_03)),
            migration_interval: 500,
            migration_size: 4,
            seed: 3,
        }
    }

    #[test]
    fn islands_complete_the_budget() {
        let problem = Dtlz::dtlz2_5();
        let result = run_islands(&problem, BorgConfig::new(5, 0.1), &base_config(4, 8, 4_000));
        assert_eq!(result.total_nfe, 4_000);
        assert_eq!(result.engines.len(), 4);
        assert!(result.migrations > 0);
        for e in &result.engines {
            assert!(e.nfe() > 0);
            e.archive().check_invariants().unwrap();
        }
        assert!(!result.merged_archive().is_empty());
    }

    #[test]
    fn single_island_matches_master_slave_throughput() {
        // One island degenerates to the plain asynchronous master-slave
        // topology; elapsed must match the queueing analysis.
        let problem = Dtlz::dtlz2_5();
        let mut cfg = base_config(1, 16, 5_000);
        cfg.t_f = Dist::Constant(0.01);
        cfg.migration_interval = 0;
        let result = run_islands(&problem, BorgConfig::new(5, 0.1), &cfg);
        let eq2 = borg_models::analytical::async_parallel_time(
            5_000,
            17,
            borg_models::analytical::TimingParams::new(0.01, 0.000_006, 0.000_03),
        );
        let err = (result.elapsed - eq2).abs() / eq2;
        assert!(err < 0.02, "island(1) {} vs Eq.2 {}", result.elapsed, eq2);
    }

    #[test]
    fn islands_beat_single_master_past_saturation() {
        // The §VII claim: with T_F small enough to saturate one master,
        // splitting the same processor budget into islands multiplies the
        // aggregate master throughput.
        let problem = Dtlz::dtlz2_5();
        let nfe = 10_000;
        let total_workers = 256;
        let mut single = base_config(1, total_workers, nfe);
        single.t_f = Dist::Constant(0.0005);
        let mut quad = base_config(8, total_workers / 8, nfe);
        quad.t_f = Dist::Constant(0.0005);
        let t_single = run_islands(&problem, BorgConfig::new(5, 0.1), &single).elapsed;
        let t_quad = run_islands(&problem, BorgConfig::new(5, 0.1), &quad).elapsed;
        assert!(
            t_quad < t_single * 0.5,
            "8 islands ({t_quad}) should be >2x faster than one saturated master ({t_single})"
        );
    }

    #[test]
    fn migration_spreads_good_solutions() {
        // With migration, island archives overlap; without, they drift
        // apart. Check migration produces a merged archive whose
        // non-dominated filter is not much larger than a single island's
        // (i.e. islands agree).
        let problem = Dtlz::dtlz2_5();
        let mut with = base_config(4, 4, 8_000);
        with.migration_interval = 250;
        let mut without = with.clone();
        without.migration_interval = 0;
        let a = run_islands(&problem, BorgConfig::new(5, 0.1), &with);
        let b = run_islands(&problem, BorgConfig::new(5, 0.1), &without);
        assert!(a.migrations > 0);
        assert_eq!(b.migrations, 0);
        // Both still complete and hold invariants.
        assert_eq!(a.total_nfe, 8_000);
        assert_eq!(b.total_nfe, 8_000);
    }

    #[test]
    fn deterministic_with_sampled_ta() {
        let problem = Dtlz::dtlz2_5();
        let cfg = base_config(3, 5, 3_000);
        let a = run_islands(&problem, BorgConfig::new(5, 0.1), &cfg);
        let b = run_islands(&problem, BorgConfig::new(5, 0.1), &cfg);
        assert_eq!(a.elapsed, b.elapsed);
        assert_eq!(a.merged_archive(), b.merged_archive());
    }

    #[test]
    #[should_panic(expected = "each island needs a master and a worker")]
    fn split_requires_two_processors_per_island() {
        IslandConfig::split_processors(8, 8, 100, Dist::Constant(0.001));
    }
}
