//! Correctness checks on a workload's reps, against the recorded values
//! in `golden.txt`.

use crate::workloads::{Fingerprint, Kind, Rep, Spec};

const GOLDEN: &str = include_str!("../golden.txt");

/// The recorded fingerprint of a virtual workload's `(seed, budget)`.
fn golden_run(workload: &str, seed: u64, budget: u64) -> Option<Fingerprint> {
    GOLDEN.lines().find_map(|line| {
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() != 13 || f[0] != "run" || f[1] != workload {
            return None;
        }
        if f[2].parse() != Ok(seed) || f[3].parse() != Ok(budget) {
            return None;
        }
        let hex = |s: &str| u64::from_str_radix(s.trim_start_matches("0x"), 16).ok();
        Some(Fingerprint {
            virtual_elapsed_bits: hex(f[4])?,
            archive_digest: hex(f[5])?,
            archive_len: f[6].parse().ok()?,
            injected: f[7].parse().ok()?,
            reissues: f[8].parse().ok()?,
            duplicates: f[9].parse().ok()?,
            wasted_nfe: f[10].parse().ok()?,
            respawns: f[11].parse().ok()?,
            deaths: f[12].parse().ok()?,
        })
    })
}

/// The recorded final-archive hypervolume floor of a workload's budget.
fn hypervolume_floor(workload: &str, budget: u64) -> Option<f64> {
    GOLDEN.lines().find_map(|line| {
        let f: Vec<&str> = line.split_whitespace().collect();
        (f.len() == 4 && f[0] == "floor" && f[1] == workload && f[2].parse() == Ok(budget))
            .then(|| f[3].parse().ok())
            .flatten()
    })
}

/// The `golden.txt` line recording `fp`.
pub fn golden_line(spec: &Spec, seed: u64, fp: &Fingerprint) -> String {
    format!(
        "run {} {seed} {} {:#018x} {:#018x} {} {} {} {} {} {} {}",
        spec.name,
        spec.budget,
        fp.virtual_elapsed_bits,
        fp.archive_digest,
        fp.archive_len,
        fp.injected,
        fp.reissues,
        fp.duplicates,
        fp.wasted_nfe,
        fp.respawns,
        fp.deaths
    )
}

/// Whether `golden.txt` records this virtual run.
pub fn has_golden(spec: &Spec, seed: u64) -> bool {
    golden_run(spec.name, seed, spec.budget).is_some()
}

/// Every failed check over `reps`, as readable messages.
pub fn check(spec: &Spec, reps: &[Rep]) -> Vec<String> {
    let mut failures = Vec::new();
    let mut fail = |msg: String| failures.push(format!("{}: {msg}", spec.name));
    for (i, rep) in reps.iter().enumerate() {
        if rep.consumed != spec.budget {
            fail(format!(
                "rep {i}: nfe {} != budget {}",
                rep.consumed, spec.budget
            ));
        }
        if let Err(e) = &rep.invariants {
            fail(format!("rep {i}: archive invariant broken: {e}"));
        }
        let fp = &rep.fingerprint;
        if spec.kind != Kind::VirtualFaults {
            let faults = fp.injected as u64 + fp.reissues + fp.duplicates + fp.deaths;
            if faults + fp.respawns + rep.wire_duplicates > 0 {
                fail(format!("rep {i}: unexpected faults or recovery: {fp:?}"));
            }
        }
        if !spec.is_virtual() {
            match (rep.hypervolume, hypervolume_floor(spec.name, spec.budget)) {
                (Some(hv), Some(floor)) if hv >= floor => {}
                (hv, floor) => fail(format!(
                    "rep {i}: final hypervolume {hv:?} below recorded floor {floor:?}"
                )),
            }
        }
    }
    if spec.is_virtual() {
        for (i, rep) in reps.iter().enumerate() {
            let fp = rep.fingerprint;
            let first = reps
                .iter()
                .find(|r| r.seed == rep.seed)
                .map(|r| r.fingerprint);
            if first != Some(fp) {
                fail(format!(
                    "rep {i}: diverged from an earlier rep of seed {}",
                    rep.seed
                ));
            }
            if let Some(golden) = golden_run(spec.name, rep.seed, spec.budget) {
                if golden != fp {
                    fail(format!(
                        "rep {i}: fingerprint {fp:?} != recorded {golden:?}"
                    ));
                }
            }
        }
    }
    failures
}
