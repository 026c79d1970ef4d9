//! Bridge between the experiment drivers and [`borg_runner::map_jobs`].
//!
//! Every replicate sweep in this crate fans out through [`run_jobs`], which
//! keeps the workspace's determinism contract (index-ordered results,
//! pre-derived seeds — see the `borg-runner` crate docs) and re-raises a
//! job panic on the calling thread, matching what the old serial nested
//! loops did when a replicate panicked.
//!
//! Direct `std::thread::spawn` is forbidden in this crate (BORG-L009, a
//! clippy `disallowed-methods` entry in the crate's `clippy.toml`):
//! ad-hoc threads have no index-ordered collection story, so results would
//! depend on scheduling. All parallelism goes through here.

/// Runs `job` over `items` on `workers` threads (`0` = auto, `1` = serial)
/// and returns the results in item order.
///
/// # Panics
/// If a job panics: the pool finishes the surviving jobs, then the panic of
/// the lowest-indexed failing job is re-raised here — the same observable
/// behaviour as the serial loops these sweeps replaced.
pub(crate) fn run_jobs<T, R, F>(workers: usize, items: Vec<T>, job: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    match borg_runner::map_jobs(workers, items, job) {
        Ok(results) => results,
        Err(err) => panic!("{err}"),
    }
}
