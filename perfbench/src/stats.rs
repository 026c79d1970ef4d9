//! Small statistics helpers.

/// Mean of `xs`; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Median of `xs` (sorted in place); 0 for an empty slice.
pub fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        0.5 * (xs[n / 2 - 1] + xs[n / 2])
    }
}

/// The `q` quantile (nearest rank) of `xs`, which must be sorted.
pub fn quantile_sorted<T: Copy + Into<f64>>(xs: &[T], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let rank = (q * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1].into()
}

/// Peak resident set size of this process (MiB), from `VmHWM`.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Consumed evaluations per window of [`BestWindows`].
pub const WINDOW: usize = 500;

/// The fastest run of each window of [`WINDOW`] consecutive evaluations
/// across repeated reps of one trajectory. Reps of one trajectory do the
/// same work in the same order, so per window the fastest rep is the one
/// the host disturbed least; keeping its time and its turnaround gaps
/// filters the host's slow phases out of the estimate.
#[derive(Default)]
pub struct BestWindows {
    /// Duration of each window's fastest rep (s).
    best_s: Vec<f64>,
    /// That rep's gaps inside the window, window after window (ns).
    gaps_ns: Vec<u32>,
}

impl BestWindows {
    /// Folds in one rep's aligned cycle and gap series (ns).
    pub fn add(&mut self, cycles_ns: &[u32], gaps_ns: &[u32]) {
        let mut windows = cycles_ns.len().min(gaps_ns.len()) / WINDOW;
        if !self.best_s.is_empty() {
            windows = windows.min(self.best_s.len());
        }
        self.best_s.resize(windows, f64::INFINITY);
        self.gaps_ns.resize(windows * WINDOW, 0);
        for (j, best) in self.best_s.iter_mut().enumerate() {
            let span = j * WINDOW..(j + 1) * WINDOW;
            let took = cycles_ns[span.clone()]
                .iter()
                .map(|&c| f64::from(c))
                .sum::<f64>()
                / 1e9;
            if took < *best {
                *best = took;
                self.gaps_ns[span.clone()].copy_from_slice(&gaps_ns[span]);
            }
        }
    }

    /// Evaluations covered by whole windows.
    pub fn evals(&self) -> usize {
        self.best_s.len() * WINDOW
    }

    /// Sum of the windows' best durations (s).
    pub fn seconds(&self) -> f64 {
        self.best_s.iter().sum()
    }

    pub fn gaps_ns(&self) -> &[u32] {
        &self.gaps_ns
    }
}
