//! Bit-exact pins for the simulation paths no tracked golden covers.
//!
//! `crates/xtask/golden/protocol_cells.csv` covers `run_virtual_async` and
//! the fault-injected runs; `trace_golden` uses constant timing, so it
//! cannot see a change in the order of RNG draws. This table pins the
//! synchronous virtual executor, the serial virtual baseline and both
//! performance-model paths under non-constant `T_F`/`T_C`/`T_A`, so any
//! reordering of draws, seeding charges or pending-result bookkeeping
//! changes at least one value.

use borg_core::algorithm::BorgConfig;
use borg_models::dist::Dist;
use borg_models::perfsim::{
    simulate_async, simulate_sync, PerfPrediction, PerfSimConfig, TimingModel,
};
use borg_obs::NoopRecorder;
use borg_parallel::prelude::*;
use borg_problems::dtlz::Dtlz;

/// FNV-1a over a stream of 64-bit words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        w.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    })
}

fn bits(xs: &[f64]) -> u64 {
    fnv(xs.iter().map(|x| x.to_bits()))
}

fn virtual_config() -> VirtualConfig {
    VirtualConfig {
        processors: 8,
        max_nfe: 2_000,
        t_f: Dist::normal_cv(0.001, 0.3),
        t_c: Dist::Exponential {
            rate: 1.0 / 0.000_006,
        },
        t_a: TaMode::Sampled(Dist::Uniform {
            lo: 0.000_01,
            hi: 0.000_05,
        }),
        seed: 2024,
    }
}

/// Elapsed bits, NFE, archive length, archive objective bits, and the
/// `T_A`/`T_F` draw streams of a virtual run.
fn virtual_run(run: &VirtualRunResult) -> Vec<u64> {
    let archive = run.engine.archive().objective_vectors();
    vec![
        run.outcome.elapsed.to_bits(),
        run.engine.nfe(),
        archive.len() as u64,
        fnv(archive.iter().flatten().map(|x| x.to_bits())),
        run.ta_samples.len() as u64,
        bits(&run.ta_samples),
        run.tf_samples.len() as u64,
        bits(&run.tf_samples),
    ]
}

/// Sampled `T_A`, P = 8, 2k NFE through the generational executor.
fn virtual_sync() -> Vec<u64> {
    virtual_run(&run_virtual_sync(
        &Dtlz::dtlz2_5(),
        BorgConfig::new(5, 0.06),
        &virtual_config(),
        &NoopRecorder,
        |_, _| {},
    ))
}

/// The serial baseline on the same virtual clock and draw stream.
fn virtual_serial() -> Vec<u64> {
    virtual_run(&run_virtual_serial(
        &Dtlz::dtlz2_5(),
        BorgConfig::new(5, 0.06),
        &virtual_config(),
        |_, _| {},
    ))
}

fn perfsim_config(processors: u32) -> PerfSimConfig {
    PerfSimConfig {
        processors,
        evaluations: 3_000,
        timing: TimingModel {
            t_f: Dist::normal_cv(0.000_5, 0.4),
            t_c: Dist::Exponential {
                rate: 1.0 / 0.000_008,
            },
            t_a: Dist::LogNormal {
                mu: (0.000_03f64).ln(),
                sigma: 0.5,
            },
        },
        seed: 77,
    }
}

fn prediction(p: &PerfPrediction) -> Vec<u64> {
    let o = &p.outcome;
    vec![
        o.elapsed.to_bits(),
        o.completed,
        o.master_busy.to_bits(),
        o.mean_wait.to_bits(),
        o.max_wait.to_bits(),
        o.max_queue as u64,
    ]
}

fn perfsim_sync() -> Vec<u64> {
    prediction(&simulate_sync(&perfsim_config(12)))
}

fn perfsim_async() -> Vec<u64> {
    prediction(&simulate_async(&perfsim_config(24)))
}

type Case = (&'static str, fn() -> Vec<u64>, &'static [u64]);

const CASES: &[Case] = &[
    (
        "run_virtual_sync",
        virtual_sync,
        &[
            4601290218848253729,
            2000,
            234,
            371023532138854953,
            2008,
            5309247749804797956,
            2000,
            4128202074556041049,
        ],
    ),
    (
        "run_virtual_serial",
        virtual_serial,
        &[
            4611806571064181739,
            2000,
            235,
            1736797217974170004,
            2000,
            5057406743196300078,
            2000,
            16032985546290093999,
        ],
    ),
    (
        "simulate_sync",
        perfsim_sync,
        &[4599562980641795853, 3000, 4598535520596406223, 0, 0, 0],
    ),
    (
        "simulate_async",
        perfsim_async,
        &[
            4594651245430837585,
            3000,
            4594651245430837568,
            4558694597091549552,
            4562497946238851136,
            17,
        ],
    ),
];

#[test]
fn uncovered_paths_are_bit_identical_to_their_pins() {
    for (name, run, expected) in CASES {
        let got = run();
        assert_eq!(
            got.as_slice(),
            *expected,
            "{name} drifted from its pin: got {got:?}"
        );
    }
}
