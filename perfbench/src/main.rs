//! End-to-end benchmark of the master-slave Borg MOEA.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name|all> --seed <n> --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of untraced reps; `--trace 1`
//! alternates untraced and traced reps and prints the per-layer ledger
//! with its layer-sum line. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. A failed
//! correctness check exits 1; bad arguments exit 2. See README.md.

mod catalogue;
mod check;
mod layers;
mod pin;
mod probe;
mod stats;
mod workloads;

use borg_models::analytical::{
    async_parallel_time, processor_upper_bound, relative_error, TimingParams,
};
use borg_models::dist::Dist;
use borg_models::perfsim::{simulate_async, PerfSimConfig, TimingModel};
use stats::{mean, median, quantile_sorted, BestWindows, WINDOW};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{run_rep, Kind, Rep, Spec, NAMES};

const USAGE: &str = "usage: perfbench --workload <virtual_cell|virtual_faults|threads_saturate|\
socket_saturate|all> --seed <n> --seconds <s> --trace <0|1> [--tiny]";

/// Set-up probes before each untraced rep; `setup_s` is the fastest.
const SETUP_PROBES: usize = 3;

/// The seed of trajectory `k` of `seed` (trajectory 0 is `seed` itself).
/// A run's reps cycle through `Spec::trajectories` of them.
fn trajectory_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_add((k as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            args.tiny = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !NAMES.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".to_string());
    }
    Ok(args)
}

/// One workload's printed result.
#[derive(Default)]
struct Outcome {
    metrics: Vec<(&'static str, f64)>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

/// Runs reps until `seconds` have passed (at least one); rep `i` is
/// traced and seeded as `plan(i)` says, and handed to `fold` as it ends.
/// With `setups`, [`SETUP_PROBES`] set-up probes (the workload with a
/// budget of two evaluations per worker) precede each rep, so the probes
/// sample the whole run. Errored reps count their whole budget as failed.
fn timed_reps(
    spec: &Spec,
    args: &Args,
    sock: &Path,
    out: &mut Outcome,
    plan: impl Fn(usize) -> (bool, u64),
    mut fold: impl FnMut(&mut Rep),
    mut setups: Option<&mut Vec<f64>>,
) -> Vec<(bool, Rep)> {
    let start = Instant::now();
    let limit = Duration::from_secs_f64(args.seconds);
    let mut reps = Vec::new();
    let mut i = 0;
    while i == 0 || start.elapsed() < limit {
        let (traced, seed) = plan(i);
        i += 1;
        if let Some(setups) = setups.as_deref_mut() {
            for _ in 0..SETUP_PROBES {
                match run_rep(spec, seed, 2 * spec.workers as u64, false, sock) {
                    Ok(rep) => setups.push(rep.setup_s),
                    Err(e) => out
                        .failures
                        .push(format!("{}: set-up probe: {e}", spec.name)),
                }
            }
        }
        out.attempted += spec.budget;
        match run_rep(spec, seed, spec.budget, traced, sock) {
            Ok(mut rep) => {
                fold(&mut rep);
                reps.push((traced, rep));
            }
            Err(e) => {
                out.failed += spec.budget;
                out.failures.push(format!("{}: rep {i}: {e}", spec.name));
                break;
            }
        }
    }
    reps
}

/// Four decimals, or four significant digits for small magnitudes.
fn fmt(v: f64) -> String {
    if v != 0.0 && v.abs() < 0.01 {
        format!("{v:.3e}")
    } else {
        format!("{v:.4}")
    }
}

fn rate(rep: &Rep) -> f64 {
    rep.consumed as f64 / rep.timed_s
}

fn describe(spec: &Spec) -> String {
    let exec = match spec.kind {
        Kind::VirtualCell => "run_virtual_async",
        Kind::VirtualFaults => "run_virtual_async_faulty",
        Kind::Threads => "run_threaded",
        Kind::Socket => "serve + run_worker over UDS",
    };
    format!(
        "{exec}, DTLZ2-{}, P={}, N={}",
        spec.objectives,
        spec.workers + 1,
        spec.budget
    )
}

fn run_end_to_end(spec: &Spec, args: &Args, sock: &Path) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let started = Instant::now();
    let plan = |i| (false, trajectory_seed(args.seed, i % spec.trajectories));
    let mut best: Vec<(u64, BestWindows)> = Vec::new();
    let fold = |rep: &mut Rep| {
        let (cycles, gaps) = (
            std::mem::take(&mut rep.cycles_ns),
            std::mem::take(&mut rep.gaps_ns),
        );
        let at = match best.iter().position(|(s, _)| *s == rep.seed) {
            Some(at) => at,
            None => {
                best.push((rep.seed, BestWindows::default()));
                best.len() - 1
            }
        };
        best[at].1.add(&cycles, &gaps);
    };
    let reps: Vec<Rep> = timed_reps(spec, args, sock, &mut out, plan, fold, Some(&mut setups))
        .into_iter()
        .map(|(_, r)| r)
        .collect();
    println!(
        "== {} ({}), seed {}: {} reps in {:.1} s",
        spec.name,
        describe(spec),
        args.seed,
        reps.len(),
        started.elapsed().as_secs_f64()
    );
    let rate_list: Vec<String> = reps.iter().map(|r| format!("{:.0}", rate(r))).collect();
    println!("   evals_per_s by rep: {}", rate_list.join(" "));
    let evals: usize = best.iter().map(|(_, b)| b.evals()).sum();
    let seconds: f64 = best.iter().map(|(_, b)| b.seconds()).sum();
    let mut gaps: Vec<u32> = best
        .iter()
        .flat_map(|(_, b)| b.gaps_ns().iter().copied())
        .collect();
    gaps.sort_unstable();
    let consumed: u64 = reps.iter().map(|r| r.consumed).sum();
    let failed_budget = out.failed;
    let dispatched: u64 = reps.iter().map(|r| r.dispatched).sum::<u64>() + failed_budget;
    let rss = stats::peak_rss_mib().unwrap_or_else(|e| {
        out.failures.push(e);
        0.0
    });
    out.metrics = vec![
        ("evals_per_s", evals as f64 / seconds),
        ("turnaround_p50_us", quantile_sorted(&gaps, 0.50) / 1e3),
        ("turnaround_p99_us", quantile_sorted(&gaps, 0.99) / 1e3),
        ("turnaround_samples", gaps.len() as f64),
        (
            "setup_s",
            setups.iter().copied().fold(f64::INFINITY, f64::min),
        ),
        ("peak_rss_mib", rss),
        (
            "delivered_share",
            consumed as f64 / dispatched.max(1) as f64,
        ),
    ];
    for (name, value) in &out.metrics {
        let m = catalogue::find(name).expect("catalogued metric");
        println!(
            "   {name:<22} = {:>14} {:<6} {}",
            fmt(*value),
            m.unit,
            m.note
        );
    }
    println!(
        "   ({} trajectories; per window of {WINDOW} evaluations the fastest of their {} reps; \
         the fastest of {} set-up probes, median {})",
        best.len(),
        reps.len(),
        setups.len(),
        fmt(median(&mut setups))
    );
    out.failures.extend(check::check(spec, &reps));
    report_checks(spec, &reps, &out.failures);
    out
}

fn report_checks(spec: &Spec, reps: &[Rep], failures: &[String]) {
    if spec.is_virtual() {
        let mut seen = Vec::new();
        for rep in reps {
            if seen.contains(&rep.seed) {
                continue;
            }
            seen.push(rep.seed);
            let recorded = if check::has_golden(spec, rep.seed) {
                "recorded in golden.txt"
            } else {
                "not in golden.txt"
            };
            println!("   fingerprint ({recorded}):");
            println!(
                "     {}",
                check::golden_line(spec, rep.seed, &rep.fingerprint)
            );
        }
    } else {
        let hv = reps
            .iter()
            .filter_map(|r| r.hypervolume)
            .fold(f64::INFINITY, f64::min);
        println!("   final hypervolume (min over reps) = {hv:.6}");
    }
    if failures.is_empty() {
        println!("   checks: OK");
    } else {
        for f in failures {
            println!("   CHECK FAILED: {f}");
        }
    }
}

/// Per-layer values of one traced rep (`_`-prefixed keys are model
/// inputs that are not printed).
fn rep_layers(spec: &Spec, rep: &Rep, micro: &layers::Micro) -> BTreeMap<&'static str, f64> {
    let trace = rep.trace.as_ref().expect("traced rep");
    let n = rep.consumed as f64;
    let core = &rep.core;
    let p = core.profile;
    let snap = &trace.snapshot;
    let counters = |prefix: &str| -> f64 {
        snap.counters
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .fold(0.0, |acc, (_, v)| acc + *v as f64)
    };
    let hist_us = |name: &str, q: f64| {
        snap.histograms
            .get(name)
            .map_or(0.0, |h| h.quantile(q) * 1e6)
    };
    let mut eval_ns = trace.eval_ns.clone();
    eval_ns.sort_unstable();
    let eval_sum_us: f64 = eval_ns.iter().map(|&x| f64::from(x)).sum::<f64>() / 1e3;
    let core_us = p.total() / n * 1e6;
    let problems_us = eval_sum_us / n;
    let observer_us = trace.observer_s / n * 1e6;
    let master_us = rep.timed_s / n * 1e6;
    let events_per_eval = counters("engine.events.") / n;
    let mut ta = trace.ta_samples.clone();
    ta.sort_by(f64::total_cmp);
    let ta_mean_us = mean(&ta) * 1e6;
    let per = |x: u64| x as f64 / n;
    let mut l = BTreeMap::new();
    for (name, secs) in [
        ("core.ta.selection_us", p.selection),
        ("core.ta.variation_us", p.variation),
        ("core.ta.archive_us", p.archive),
        ("core.ta.population_us", p.population),
        ("core.ta.adaptation_us", p.adaptation),
        ("core.ta.restarts_us", p.restarts),
    ] {
        l.insert(name, secs / n * 1e6);
    }
    l.insert("core.archive_len", core.archive_len as f64);
    l.insert("core.population_len", core.population_len as f64);
    l.insert("core.restarts", core.restarts as f64);
    l.insert("core.archive.box_probes_per_eval", per(core.box_probes));
    l.insert(
        "core.archive.accept_ratio",
        core.accepts as f64 / (core.accepts + core.rejects).max(1) as f64,
    );
    l.insert(
        "core.arena_hit_ratio",
        core.arena_hits as f64 / (core.arena_hits + core.arena_misses).max(1) as f64,
    );
    l.insert("problems.eval_us_p50", quantile_sorted(&eval_ns, 0.5) / 1e3);
    l.insert("problems.evals", rep.evals as f64);
    l.insert("protocol.events_per_eval", events_per_eval);
    l.insert(
        "protocol.commands_per_eval",
        counters("engine.commands.") / n,
    );
    l.insert(
        "protocol.reissues_per_eval",
        counters("engine.reissues") / n,
    );
    l.insert(
        "protocol.duplicates_per_eval",
        counters("engine.commands.suppress_duplicate") / n,
    );
    l.insert("protocol.handle_ns", micro.handle_ns);
    // Layers a workload's path does not include read 0.
    let desim_self = if spec.is_virtual() {
        master_us - core_us - problems_us - observer_us
    } else {
        0.0
    };
    l.insert("desim.self_us_per_eval", desim_self);
    let threads = spec.kind == Kind::Threads;
    let socket = spec.kind == Kind::Socket;
    let only = |on: bool, v: f64| if on { v } else { 0.0 };
    l.insert(
        "threads.ta_us_p50",
        only(threads, quantile_sorted(&ta, 0.5) * 1e6),
    );
    l.insert(
        "threads.ta_us_p99",
        only(threads, quantile_sorted(&ta, 0.99) * 1e6),
    );
    l.insert("threads.t_c_us", micro.comm_time_us);
    // With one worker an evaluation's round trip is serial: T_F + 2 T_C + T_A.
    let threads_explained = problems_us + ta_mean_us + 2.0 * micro.comm_time_us;
    let socket_explained = problems_us + core_us + micro.uds_echo_us;
    l.insert(
        "threads.unaccounted_us",
        only(threads, master_us - threads_explained),
    );
    l.insert("net.codec.encode_work_ns", micro.encode_work_ns);
    l.insert("net.codec.encode_outcome_ns", micro.encode_outcome_ns);
    l.insert("net.codec.decode_work_ns", micro.decode_work_ns);
    l.insert("net.codec.decode_outcome_ns", micro.decode_outcome_ns);
    l.insert("net.uds_echo_us", micro.uds_echo_us);
    l.insert(
        "net.bytes_per_eval",
        only(socket, counters("net.bytes_sent") / n),
    );
    l.insert(
        "net.frames_per_eval",
        only(socket, counters("net.frames_sent") / n),
    );
    l.insert(
        "net.rtt_us_p50",
        only(socket, hist_us("net.rtt_seconds", 0.5)),
    );
    l.insert(
        "net.rtt_us_p99",
        only(socket, hist_us("net.rtt_seconds", 0.99)),
    );
    l.insert(
        "net.master_consume_us_p50",
        only(socket, hist_us("engine.consume_seconds", 0.5)),
    );
    l.insert(
        "net.unaccounted_us",
        only(socket, master_us - socket_explained),
    );
    let explained = match spec.kind {
        Kind::VirtualCell | Kind::VirtualFaults => {
            core_us + problems_us + observer_us + micro.handle_ns * events_per_eval / 1e3
        }
        Kind::Threads => threads_explained,
        Kind::Socket => socket_explained,
    };
    l.insert("layers.master_us_per_eval", master_us);
    l.insert("layers.explained_share", explained / master_us);
    l.insert("layers.unaccounted_share", 1.0 - explained / master_us);
    // Model inputs: T_F, T_C, T_A (seconds) and the elapsed time to predict.
    let (t_f, t_c, t_a, elapsed) = match spec.kind {
        Kind::VirtualCell | Kind::VirtualFaults => (
            trace.tf_mean,
            6e-6,
            mean(&ta),
            f64::from_bits(rep.fingerprint.virtual_elapsed_bits),
        ),
        Kind::Threads => (
            eval_sum_us / eval_ns.len().max(1) as f64 * 1e-6,
            micro.comm_time_us * 1e-6,
            ta_mean_us * 1e-6,
            rep.timed_s,
        ),
        Kind::Socket => (
            eval_sum_us / eval_ns.len().max(1) as f64 * 1e-6,
            micro.uds_echo_us * 0.5e-6,
            core_us * 1e-6,
            rep.timed_s,
        ),
    };
    l.insert("_t_f", t_f);
    l.insert("_t_c", t_c);
    l.insert("_t_a", t_a);
    l.insert("_elapsed", elapsed);
    l.insert("_rate", rate(rep));
    l
}

fn run_traced(spec: &Spec, args: &Args, sock: &Path) -> Outcome {
    let mut out = Outcome::default();
    let started = Instant::now();
    // Alternate untraced and traced reps of the same trajectory so both
    // see the same machine and the same work.
    let plan = |i: usize| {
        (
            i % 2 == 1,
            trajectory_seed(args.seed, (i / 2) % spec.trajectories),
        )
    };
    // The traced ledger does not use the per-evaluation series.
    let drop_series = |rep: &mut Rep| {
        rep.gaps_ns = Vec::new();
        rep.cycles_ns = Vec::new();
    };
    let mut reps = timed_reps(spec, args, sock, &mut out, plan, drop_series, None);
    if !reps.iter().any(|(t, _)| *t) && out.failures.is_empty() {
        out.attempted += spec.budget;
        match run_rep(spec, plan(1).1, spec.budget, true, sock) {
            Ok(rep) => reps.push((true, rep)),
            Err(e) => {
                out.failed += spec.budget;
                out.failures.push(format!("{}: traced rep: {e}", spec.name));
            }
        }
    }
    let micro = match layers::measure(spec) {
        Ok(m) => m,
        Err(e) => {
            out.failures
                .push(format!("{}: layer probe: {e}", spec.name));
            return out;
        }
    };
    println!(
        "== {} ({}), seed {}, traced: {} reps ({} traced) in {:.1} s",
        spec.name,
        describe(spec),
        args.seed,
        reps.len(),
        reps.iter().filter(|(t, _)| *t).count(),
        started.elapsed().as_secs_f64()
    );
    let mut untraced_rates: Vec<f64> = reps
        .iter()
        .filter(|(t, _)| !*t)
        .map(|(_, r)| rate(r))
        .collect();
    let ledgers: Vec<BTreeMap<&str, f64>> = reps
        .iter()
        .filter(|(t, _)| *t)
        .map(|(_, r)| rep_layers(spec, r, &micro))
        .collect();
    let Some(first) = ledgers.first() else {
        return out;
    };
    let med: BTreeMap<&str, f64> = first
        .keys()
        .map(|&k| {
            let mut xs: Vec<f64> = ledgers.iter().map(|l| l[k]).collect();
            (k, median(&mut xs))
        })
        .collect();
    let mut values = med.clone();
    let untraced = median(&mut untraced_rates);
    values.insert(
        "obs.trace_overhead_share",
        if untraced > 0.0 {
            1.0 - med["_rate"] / untraced
        } else {
            0.0
        },
    );
    // Paper-model cross-check (Eq. 2/3 and the simulation model) fed with
    // the traced T_F/T_C/T_A.
    let params = TimingParams::new(med["_t_f"], med["_t_c"], med["_t_a"]);
    let processors = spec.workers as u32 + 1;
    let timing = if spec.is_virtual() {
        TimingModel {
            t_f: Dist::normal_cv(0.010, 0.1),
            t_c: Dist::Constant(params.t_c),
            t_a: Dist::Constant(params.t_a),
        }
    } else {
        TimingModel::constant(params)
    };
    let predicted = simulate_async(&PerfSimConfig {
        processors,
        evaluations: spec.budget,
        timing,
        seed: args.seed,
    })
    .parallel_time;
    let eq2 = async_parallel_time(spec.budget, processors, params);
    let measured = med["_elapsed"];
    values.insert("models.p_ub", processor_upper_bound(params));
    values.insert(
        "models.pred_error_share",
        relative_error(measured, predicted),
    );
    values.insert("models.eq2_error_share", relative_error(measured, eq2));

    for m in catalogue::PER_LAYER {
        let v = values[m.name];
        println!(
            "   {:<34} = {:>14} {:<10} moves: {}",
            m.name,
            fmt(v),
            m.unit,
            m.note
        );
        out.metrics.push((m.name, v));
    }
    println!(
        "   model: T_F {:.3} us, T_C {:.3} us, T_A {:.3} us; measured elapsed {measured:.4} s, \
         Eq. 2 predicts {eq2:.4} s, perfsim predicts {predicted:.4} s, P_UB {:.1}",
        params.t_f * 1e6,
        params.t_c * 1e6,
        params.t_a * 1e6,
        processor_upper_bound(params)
    );
    println!(
        "   layer sum: {:.3} us/eval of master time; explained {:.1}%, unaccounted {:.1}%; \
         tracing overhead {:.1}% of evals_per_s",
        values["layers.master_us_per_eval"],
        100.0 * values["layers.explained_share"],
        100.0 * values["layers.unaccounted_share"],
        100.0 * values["obs.trace_overhead_share"]
    );
    let all: Vec<Rep> = reps.into_iter().map(|(_, r)| r).collect();
    out.failures.extend(check::check(spec, &all));
    report_checks(spec, &all, &out.failures);
    out
}

fn json_line(out: &Outcome, prefix: bool, names: &[(&str, &Outcome)]) -> String {
    let mut metrics = Vec::new();
    for (workload, o) in names {
        for (name, value) in &o.metrics {
            let unit = catalogue::find(name).expect("catalogued metric").unit;
            let key = if prefix {
                format!("{workload}.{name}")
            } else {
                (*name).to_string()
            };
            metrics.push(format!(
                "\"{key}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failures.is_empty(),
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cpu = match pin::pin_to_first_allowed_cpu() {
        Ok(cpu) => cpu,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("perfbench: pinned to CPU {cpu}");
    let names: Vec<&str> = if args.workload == "all" {
        NAMES.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    // The socket workload listens on a relative path: Unix socket paths
    // are length-limited, and the benchmark writes only below its cwd.
    let run_dir = PathBuf::from(".bench_run");
    let sock = run_dir.join(format!("perfbench-{}.sock", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("perfbench: create {}: {e}", run_dir.display());
        return ExitCode::from(2);
    }
    let mut results = Vec::new();
    for name in &names {
        let spec = Spec::named(name, args.tiny).expect("validated workload name");
        let outcome = if args.trace {
            run_traced(&spec, &args, &sock)
        } else {
            run_end_to_end(&spec, &args, &sock)
        };
        results.push((*name, outcome));
    }
    let _ = std::fs::remove_file(&sock);
    let _ = std::fs::remove_dir(&run_dir);

    let mut total = Outcome::default();
    for (_, o) in &results {
        total.attempted += o.attempted;
        total.failed += o.failed;
        total.failures.extend(o.failures.iter().cloned());
    }
    let non_finite = results
        .iter()
        .flat_map(|(_, o)| &o.metrics)
        .any(|(_, v)| !v.is_finite());
    if non_finite {
        total
            .failures
            .push("a metric is not a finite number".to_string());
    }
    let named: Vec<(&str, &Outcome)> = results.iter().map(|(n, o)| (*n, o)).collect();
    let correct = total.failures.is_empty();
    if !correct {
        eprintln!("perfbench: {} check(s) failed", total.failures.len());
    }
    if non_finite {
        // Not valid JSON numbers: report the failure without metrics.
        println!("{}", json_line(&total, false, &[]));
    } else {
        println!("{}", json_line(&total, names.len() > 1, &named));
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
