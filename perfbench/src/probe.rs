//! The benchmark's timing wrapper around [`Problem`]: counts evaluations,
//! stamps the first one (the end of set-up), and optionally records the
//! per-worker gap between consecutive evaluations (the master turnaround
//! a worker sees) and each evaluation's own duration.

use borg_core::problem::{Bounds, Problem};
use borg_problems::dtlz::{Dtlz, DtlzVariant};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

static NEXT_PROBE_ID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// `(probe id, end of this thread's last evaluation)`: the start of
    /// the gap the next evaluation on this thread closes.
    static LAST_END: Cell<Option<(u64, Instant)>> = const { Cell::new(None) };
}

/// What one rep's wrapper observed.
pub struct Probe {
    id: u64,
    /// Record every evaluation's start and the gap before it on its thread.
    gaps: bool,
    /// Record every evaluation's duration.
    durations: bool,
    epoch: Instant,
    first_start: OnceLock<Instant>,
    evals: AtomicU64,
    /// `(gap, start)` per evaluation (ns): end of the previous evaluation
    /// on the same thread to the start of this one (`u32::MAX` for a
    /// thread's first), and the start since the probe's epoch.
    gaps_ns: Mutex<Vec<(u32, u64)>>,
    eval_ns: Mutex<Vec<u32>>,
}

impl Probe {
    /// A probe for a run of about `evals` evaluations (buffers are sized
    /// up front so worker threads never grow them).
    pub fn new(gaps: bool, durations: bool, evals: usize) -> Arc<Self> {
        let reserve = |on: bool| if on { evals } else { 0 };
        Arc::new(Probe {
            id: NEXT_PROBE_ID.fetch_add(1, Ordering::Relaxed),
            gaps,
            durations,
            epoch: Instant::now(),
            first_start: OnceLock::new(),
            evals: AtomicU64::new(0),
            gaps_ns: Mutex::new(Vec::with_capacity(reserve(gaps))),
            eval_ns: Mutex::new(Vec::with_capacity(reserve(durations))),
        })
    }

    /// When the first evaluation started, if any did.
    pub fn first_start(&self) -> Option<Instant> {
        self.first_start.get().copied()
    }

    /// `Problem::evaluate` calls so far.
    pub fn evals(&self) -> u64 {
        self.evals.load(Ordering::Relaxed)
    }

    /// `(gap, start)` of every evaluation (ns), in recording order; see
    /// the field. Empty unless recording gaps.
    pub fn take_gaps(&self) -> Vec<(u32, u64)> {
        std::mem::take(&mut *self.gaps_ns.lock().expect("gap buffer poisoned"))
    }

    /// Evaluation durations (nanoseconds); empty unless recording durations.
    pub fn take_eval_ns(&self) -> Vec<u32> {
        std::mem::take(&mut *self.eval_ns.lock().expect("eval buffer poisoned"))
    }
}

fn nanos(d: std::time::Duration) -> u32 {
    u32::try_from(d.as_nanos()).unwrap_or(u32::MAX)
}

/// DTLZ2 with `m` objectives behind a [`Probe`].
pub struct Timed {
    inner: Dtlz,
    probe: Arc<Probe>,
}

impl Timed {
    pub fn dtlz2(m: usize, probe: &Arc<Probe>) -> Self {
        Timed {
            inner: Dtlz::new(DtlzVariant::Dtlz2, m),
            probe: Arc::clone(probe),
        }
    }
}

impl Problem for Timed {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn num_variables(&self) -> usize {
        self.inner.num_variables()
    }

    fn num_objectives(&self) -> usize {
        self.inner.num_objectives()
    }

    fn num_constraints(&self) -> usize {
        self.inner.num_constraints()
    }

    fn bounds(&self, i: usize) -> Bounds {
        self.inner.bounds(i)
    }

    fn evaluate(&self, vars: &[f64], objs: &mut [f64], cons: &mut [f64]) {
        let p = &*self.probe;
        p.evals.fetch_add(1, Ordering::Relaxed);
        if !(p.gaps || p.durations) {
            p.first_start.get_or_init(Instant::now);
            self.inner.evaluate(vars, objs, cons);
            return;
        }
        let start = Instant::now();
        p.first_start.get_or_init(|| start);
        if p.gaps {
            let gap = match LAST_END.get() {
                Some((id, last_end)) if id == p.id => nanos(start.duration_since(last_end)),
                _ => u32::MAX,
            };
            let at = start.duration_since(p.epoch).as_nanos() as u64;
            p.gaps_ns
                .lock()
                .expect("gap buffer poisoned")
                .push((gap, at));
        }
        self.inner.evaluate(vars, objs, cons);
        let end = Instant::now();
        LAST_END.set(Some((p.id, end)));
        if p.durations {
            let took = nanos(end.duration_since(start));
            p.eval_ns.lock().expect("eval buffer poisoned").push(took);
        }
    }
}
