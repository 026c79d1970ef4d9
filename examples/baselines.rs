//! Borg vs the classic baselines (NSGA-II, MOEA/D) at 2 and 5 objectives —
//! the algorithm-level comparison behind the paper's §II claims.
//!
//! ```sh
//! cargo run --release --example baselines
//! ```

#![allow(clippy::print_stdout)]

use borg_repro::core::moead::{run_moead_serial, MoeadConfig};
use borg_repro::core::nsga2::{run_nsga2_serial, Nsga2Config};
use borg_repro::prelude::*;

fn main() {
    let nfe = 15_000;
    println!("hypervolume ratio after {nfe} evaluations (1.0 = true front)\n");
    println!(
        "{:<22} {:>4}  {:>6}  {:>8}  {:>7}",
        "problem", "M", "Borg", "NSGA-II", "MOEA/D"
    );

    // Bi-objective: everything works.
    {
        let problem = Zdt::with_variables(ZdtVariant::Zdt1, 15);
        let metric = RelativeHypervolume::exact(&zdt_front(&problem, 500));
        let borg = run_serial(&problem, BorgConfig::new(2, 0.01), 1, nfe, |_| {});
        let nsga = run_nsga2_serial(&problem, Nsga2Config::default(), 1, nfe, |_| {});
        let moead = run_moead_serial(
            &problem,
            MoeadConfig {
                divisions: 99,
                ..MoeadConfig::default()
            },
            1,
            nfe,
        );
        let nsga_front: Vec<Vec<f64>> = nsga
            .front()
            .iter()
            .map(|s| s.objectives().to_vec())
            .collect();
        println!(
            "{:<22} {:>4}  {:>6.3}  {:>8.3}  {:>7.3}",
            "ZDT1",
            2,
            metric.ratio(&borg.archive().objective_vectors()),
            metric.ratio(&nsga_front),
            metric.ratio(&moead.front()),
        );
    }

    // 5 objectives: NSGA-II's Pareto-rank selection degenerates.
    for (name, problem, borg_cfg) in [
        (
            "DTLZ2 (separable)",
            Box::new(Dtlz::dtlz2_5()) as Box<dyn Problem>,
            BorgConfig::new(5, 0.1),
        ),
        (
            "UF11 (rotated DTLZ2)",
            Box::new(uf11()) as Box<dyn Problem>,
            BorgConfig::new(5, 0.1),
        ),
    ] {
        let reference = if name.starts_with("DTLZ2") {
            dtlz2_front(5, 6)
        } else {
            uf11_front(6)
        };
        let metric = RelativeHypervolume::monte_carlo(&reference, 20_000, 7);
        let borg = run_serial(problem.as_ref(), borg_cfg, 1, nfe, |_| {});
        let nsga = run_nsga2_serial(problem.as_ref(), Nsga2Config::default(), 1, nfe, |_| {});
        let moead = run_moead_serial(
            problem.as_ref(),
            MoeadConfig {
                divisions: 6, // C(10, 4) = 210 subproblems
                ..MoeadConfig::default()
            },
            1,
            nfe,
        );
        let nsga_front: Vec<Vec<f64>> = nsga
            .front()
            .iter()
            .map(|s| s.objectives().to_vec())
            .collect();
        println!(
            "{:<22} {:>4}  {:>6.3}  {:>8.3}  {:>7.3}",
            name,
            5,
            metric.ratio(&borg.archive().objective_vectors()),
            metric.ratio(&nsga_front),
            metric.ratio(&moead.front()),
        );
    }

    println!(
        "\nWith two objectives every algorithm solves the problem. With five,\n\
         NSGA-II's rank-based selection collapses (nearly all solutions are\n\
         mutually nondominated), decomposition (MOEA/D) survives, and Borg's\n\
         ε-archive + adaptive operator ensemble wins — most clearly on the\n\
         rotated, non-separable UF11."
    );
}
