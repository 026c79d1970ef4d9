//! The paper's SimPy snippet (§IV-B), transliterated onto `borg-desim`.
//!
//! The paper models a worker's interaction with the master as:
//!
//! ```text
//! yield request, self, master
//! yield hold, self, sampleTc() + sampleTa() + sampleTc()
//! yield release, self, master
//! activate(worker, worker.evaluate())
//! ```
//!
//! This example reproduces that structure literally with
//! [`borg_desim::CallbackSim`] and [`borg_desim::Resource`], then prints a
//! timeline — the smallest possible version of the paper's simulation
//! model.
//!
//! ```sh
//! cargo run --release --example simpy_snippet
//! ```

#![allow(clippy::print_stdout)]

use borg_repro::desim::{CallbackSim, Resource};

const WORKERS: usize = 3;
const T_C: f64 = 0.5;
const T_A: f64 = 1.0;
const T_F: f64 = 6.0;
const TARGET: u64 = 12;

struct State {
    master: Resource<usize>,
    completed: u64,
    log: Vec<String>,
}

fn evaluate(worker: usize) -> impl FnOnce(&mut CallbackSim<State>) + 'static {
    move |sim| {
        let t = sim.now();
        sim.state
            .log
            .push(format!("t={t:>5.1}  worker{worker} finished evaluating"));
        // `yield request, self, master`
        if let Some(w) = sim.state.master.request(worker) {
            hold(w)(sim);
        } // else: queued; a future release re-activates us.
    }
}

fn hold(worker: usize) -> impl FnOnce(&mut CallbackSim<State>) + 'static {
    move |sim| {
        let t = sim.now();
        sim.state
            .log
            .push(format!("t={t:>5.1}  master serving worker{worker}"));
        // `yield hold, self, sampleTc() + sampleTa() + sampleTc()`
        sim.schedule(T_C + T_A + T_C, move |sim| {
            sim.state.completed += 1;
            // `yield release, self, master`
            if let Some(next) = sim.state.master.release() {
                hold(next)(sim);
            }
            // `activate(worker, worker.evaluate())`
            if sim.state.completed + (WORKERS as u64) <= TARGET {
                sim.schedule(T_F, evaluate(worker));
            }
        });
    }
}

fn main() {
    let mut sim = CallbackSim::new(State {
        master: Resource::new(),
        completed: 0,
        log: Vec::new(),
    });

    // Seed: all workers start evaluating at t = 0 (the paper's diagram
    // staggers them by the initial sends; the steady state is identical).
    for w in 0..WORKERS {
        sim.schedule(T_F, evaluate(w));
    }
    let end = sim.run();

    for line in &sim.state.log {
        println!("{line}");
    }
    println!(
        "\n{} evaluations processed in {end:.1} time units",
        sim.state.completed
    );
    println!(
        "analytical Eq. 2 for comparison: N/(P-1) (T_F + 2 T_C + T_A) = {:.1}",
        TARGET as f64 / WORKERS as f64 * (T_F + 2.0 * T_C + T_A)
    );
    println!(
        "master max queue observed: {} (contention appears when T_F shrinks)",
        sim.state.master.max_queue_len()
    );
}
