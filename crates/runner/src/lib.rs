//! # borg-runner
//!
//! A deterministic work-stealing job pool for the experiment drivers.
//!
//! The paper's replicate sweeps (Table II is 2 problems × 3 `T_F` × 7
//! processor counts × 50 replicates) are embarrassingly parallel: every
//! replicate carries its own pre-derived seed and touches no shared state.
//! [`map_jobs`] fans such jobs out over a pool of scoped threads while
//! keeping the workspace's reproducibility contract:
//!
//! **The output of `map_jobs(workers, items, job)` is bit-identical for
//! every worker count**, including `workers = 1`. Three rules make that
//! hold, and every caller must respect them:
//!
//! 1. *Inputs are pre-derived.* Jobs receive their seeds and parameters up
//!    front; nothing is drawn from a shared RNG stream at execution time,
//!    so scheduling order cannot perturb seed derivation.
//! 2. *Results are index-ordered.* Workers finish in nondeterministic
//!    order; results are slotted into an index-addressed buffer and
//!    returned in submission order, so downstream float accumulation
//!    (means, histogram merges) folds in the same order every run.
//! 3. *Jobs are pure up to their return value.* A job must not mutate
//!    state shared with other jobs; per-job telemetry goes into a per-job
//!    `InMemoryRecorder` whose snapshot is returned and merged in index
//!    order by the caller (see `borg_obs::MetricsSnapshot::merge`).
//!
//! Scheduling is chunked work-stealing: the items are split into one
//! contiguous chunk per worker (good locality, zero coordination while a
//! worker drains its own chunk) and an idle worker steals from the *tail*
//! of another worker's deque (minimal contention with the owner popping
//! the head). Stealing only changes *who* runs a job and *when* — never
//! what the job computes or where its result lands.
//!
//! A panicking job does not poison the pool: the panic is caught at the
//! job boundary, surfaced as [`JobPanicked`] (lowest job index wins, so
//! the error itself is deterministic), and the remaining jobs keep
//! running; subsequent `map_jobs` calls are unaffected because the pool
//! is scoped per call and owns no long-lived state.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use crossbeam::channel;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A job panicked; the pool survived and every other job still ran.
///
/// `index` is the smallest job index that panicked (deterministic even
/// when several jobs fail in racing worker threads).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPanicked {
    /// Index of the panicking job in the submitted item order.
    pub index: usize,
    /// The panic payload, when it was a string; a placeholder otherwise.
    pub message: String,
}

impl std::fmt::Display for JobPanicked {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for JobPanicked {}

/// Worker threads this machine can usefully run (`available_parallelism`,
/// falling back to 1 when the OS refuses to say).
pub fn available_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Resolves a `--jobs`-style knob: `0` means "auto" ([`available_jobs`]),
/// anything else is taken literally.
pub fn resolve_jobs(jobs: usize) -> usize {
    if jobs == 0 {
        available_jobs()
    } else {
        jobs
    }
}

/// Runs `job` over every item on `workers` threads and returns the
/// results **in item order** — bit-identical for every worker count.
///
/// `workers = 0` means auto ([`available_jobs`]); `workers = 1` runs the
/// jobs serially on the calling thread (today's nested-loop behaviour).
/// The pool never outlives the call (scoped threads), so a panicking job
/// cannot poison later calls; the first panic by *job index* is returned
/// as [`JobPanicked`] after every surviving job has finished.
pub fn map_jobs<T, R, F>(workers: usize, items: Vec<T>, job: F) -> Result<Vec<R>, JobPanicked>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Ok(Vec::new());
    }
    let workers = resolve_jobs(workers).min(n);
    if workers <= 1 {
        let mut slots = Vec::with_capacity(n);
        for (index, item) in items.into_iter().enumerate() {
            slots.push(run_job(&job, index, item));
        }
        return collect(slots.into_iter().map(Some).collect());
    }

    // One contiguous chunk of (index, item) jobs per worker deque.
    let chunk = n.div_ceil(workers);
    let mut queues: Vec<Mutex<VecDeque<(usize, T)>>> = Vec::with_capacity(workers);
    let mut pending: VecDeque<(usize, T)> = items.into_iter().enumerate().collect();
    for _ in 0..workers {
        let take = chunk.min(pending.len());
        queues.push(Mutex::new(pending.drain(..take).collect()));
    }
    debug_assert!(pending.is_empty());

    let mut slots: Vec<Option<Result<R, String>>> = (0..n).map(|_| None).collect();
    let (tx, rx) = channel::unbounded::<(usize, Result<R, String>)>();
    std::thread::scope(|scope| {
        let queues = &queues;
        let job = &job;
        for me in 0..workers {
            let tx = tx.clone();
            scope.spawn(move || {
                while let Some((index, item)) = take_job(me, queues) {
                    // A send can only fail if the collector hung up, and
                    // it drains exactly `n` messages; nothing to salvage.
                    if tx.send((index, run_job(job, index, item))).is_err() {
                        return;
                    }
                }
            });
        }
        drop(tx);
        // Collect into the index-ordered buffer; arrival order is
        // irrelevant from here on.
        while let Ok((index, outcome)) = rx.recv() {
            slots[index] = Some(outcome);
        }
    });
    collect(slots)
}

/// Pops the next job: own chunk head first, then steal another deque's
/// tail. `None` only once every deque is empty — jobs never spawn jobs,
/// so queues strictly drain and the emptiness check cannot race new work.
fn take_job<T>(me: usize, queues: &[Mutex<VecDeque<(usize, T)>>]) -> Option<(usize, T)> {
    if let Some(job) = queues[me].lock().pop_front() {
        return Some(job);
    }
    let n = queues.len();
    for step in 1..n {
        if let Some(job) = queues[(me + step) % n].lock().pop_back() {
            return Some(job);
        }
    }
    None
}

/// Runs one job behind a panic boundary.
///
/// `AssertUnwindSafe` is sound here: on panic the job's entire state
/// (item, partial result) is dropped and the failure is surfaced as an
/// error; callers only share immutable references with jobs (rule 3 of
/// the module contract), so no cross-job state can be left torn.
fn run_job<T, R, F>(job: &F, index: usize, item: T) -> Result<R, String>
where
    F: Fn(usize, T) -> R + Sync,
{
    catch_unwind(AssertUnwindSafe(|| job(index, item))).map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        }
    })
}

/// Folds the index-ordered slot buffer into the final result, surfacing
/// the lowest-index panic if any job failed.
fn collect<R>(slots: Vec<Option<Result<R, String>>>) -> Result<Vec<R>, JobPanicked> {
    let mut results = Vec::with_capacity(slots.len());
    for (index, slot) in slots.into_iter().enumerate() {
        match slot {
            Some(Ok(r)) => results.push(r),
            Some(Err(message)) => return Err(JobPanicked { index, message }),
            // Unreachable with caught panics, but a lost worker must be
            // an error, not a silently truncated result vector.
            None => {
                return Err(JobPanicked {
                    index,
                    message: "job result missing (worker terminated unexpectedly)".to_string(),
                })
            }
        }
    }
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_item_order_for_every_worker_count() {
        let items: Vec<u64> = (0..37).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
        for workers in [0usize, 1, 2, 3, 4, 8, 64] {
            let got = map_jobs(workers, items.clone(), |_, x| x * x).expect("no panics");
            assert_eq!(got, expected, "workers = {workers}");
        }
    }

    #[test]
    fn job_index_matches_item_position() {
        let items: Vec<char> = "abcdef".chars().collect();
        let got = map_jobs(3, items, |i, c| (i, c)).expect("no panics");
        assert_eq!(
            got,
            [(0, 'a'), (1, 'b'), (2, 'c'), (3, 'd'), (4, 'e'), (5, 'f')]
        );
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let got: Vec<u32> = map_jobs(4, Vec::<u32>::new(), |_, x| x).expect("no panics");
        assert!(got.is_empty());
    }

    #[test]
    fn more_workers_than_items_is_fine() {
        let got = map_jobs(16, vec![1u32, 2], |_, x| x + 1).expect("no panics");
        assert_eq!(got, [2, 3]);
    }

    #[test]
    fn zero_workers_means_auto() {
        assert!(available_jobs() >= 1);
        assert_eq!(resolve_jobs(0), available_jobs());
        assert_eq!(resolve_jobs(3), 3);
        let got = map_jobs(0, vec![5u32], |_, x| x).expect("no panics");
        assert_eq!(got, [5]);
    }

    #[test]
    fn panicking_job_surfaces_as_error_and_pool_stays_usable() {
        for workers in [1usize, 4] {
            let err = map_jobs(workers, (0..10u32).collect(), |_, x| {
                if x == 3 || x == 7 {
                    panic!("boom at {x}");
                }
                x
            })
            .expect_err("must surface the panic");
            // Lowest panicking index wins, deterministically.
            assert_eq!(err.index, 3, "workers = {workers}");
            assert!(err.message.contains("boom at 3"), "{}", err.message);
            // The pool is per-call; the next call is unaffected.
            let ok = map_jobs(workers, vec![1u32, 2, 3], |_, x| x * 10).expect("healthy again");
            assert_eq!(ok, [10, 20, 30]);
        }
    }

    #[test]
    fn non_string_panic_payload_is_reported() {
        let err = map_jobs(2, vec![0u32, 1], |_, x| {
            if x == 1 {
                std::panic::panic_any(42u64);
            }
            x
        })
        .expect_err("must surface the panic");
        assert_eq!(err.index, 1);
        assert_eq!(err.message, "non-string panic payload");
    }

    #[test]
    fn stealing_actually_spreads_work() {
        // Deliberately skewed job costs leave worker 0's chunk still busy
        // long after the other chunks drain, exercising the steal path;
        // the assertion is only that the contract holds — order
        // preserved, every job run exactly once.
        let items: Vec<u64> = (0..101).collect();
        let got = map_jobs(4, items.clone(), |_, x| {
            // Uneven job cost: early indices are much slower.
            let spin = if x < 8 { 20_000 } else { 10 };
            let mut acc = x;
            for i in 0..spin {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            std::hint::black_box(acc);
            x
        })
        .expect("no panics");
        assert_eq!(got, items);
    }
}
