//! Every metric the benchmark prints: name, unit and, for per-layer
//! metrics, which end-to-end metric it should
//! move on which workload. `BENCHMARK.json` declares the same names; the
//! benchmark's test keeps the two in step.

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// What the metric should move (per-layer) or what it is (end-to-end).
    pub note: &'static str,
}

const fn m(name: &'static str, unit: &'static str, note: &'static str) -> Metric {
    Metric { name, unit, note }
}

pub const END_TO_END: &[Metric] = &[
    m(
        "evals_per_s",
        "1/s",
        "consumed evaluations per wall second of the timed reps",
    ),
    m(
        "turnaround_p50_us",
        "us",
        "master wall time per evaluation seen from outside",
    ),
    m("turnaround_p99_us", "us", "p99 of the same samples"),
    m(
        "turnaround_samples",
        "count",
        "samples behind the two turnaround quantiles",
    ),
    m(
        "setup_s",
        "s",
        "call to the end of set-up, fastest set-up probe of the run",
    ),
    m(
        "peak_rss_mib",
        "MiB",
        "peak resident memory of the benchmark process",
    ),
    m(
        "delivered_share",
        "share",
        "consumed / dispatched evaluations (1 - failed share)",
    ),
];

const CORE: &str = "evals_per_s, turnaround_p99_us on virtual_cell; no change on threads/socket";
const PROTOCOL: &str = "evals_per_s on virtual_faults";
const THREADS: &str = "evals_per_s, turnaround_* on threads_saturate";
const NET: &str = "evals_per_s, turnaround_* on socket_saturate; no change on virtual";

pub const PER_LAYER: &[Metric] = &[
    m("core.ta.selection_us", "us", CORE),
    m("core.ta.variation_us", "us", CORE),
    m("core.ta.archive_us", "us", CORE),
    m("core.ta.population_us", "us", CORE),
    m("core.ta.adaptation_us", "us", CORE),
    m("core.ta.restarts_us", "us", CORE),
    m(
        "core.archive_len",
        "count",
        "working set behind core.ta.archive_us",
    ),
    m(
        "core.population_len",
        "count",
        "working set behind core.ta.population_us",
    ),
    m(
        "core.restarts",
        "count",
        "working set behind core.ta.restarts_us",
    ),
    m("core.archive.box_probes_per_eval", "count", CORE),
    m(
        "core.archive.accept_ratio",
        "share",
        "useful archive offers / offers",
    ),
    m("core.arena_hit_ratio", "share", CORE),
    m(
        "problems.eval_us_p50",
        "us",
        "T_F; turnaround on threads/socket",
    ),
    m(
        "problems.evals",
        "count",
        "evaluations run; above N is wasted work (virtual_faults)",
    ),
    m("protocol.events_per_eval", "count", PROTOCOL),
    m("protocol.commands_per_eval", "count", PROTOCOL),
    m("protocol.reissues_per_eval", "count", PROTOCOL),
    m("protocol.duplicates_per_eval", "count", PROTOCOL),
    m("protocol.handle_ns", "ns", PROTOCOL),
    m(
        "desim.self_us_per_eval",
        "us",
        "evals_per_s on virtual_faults; barely virtual_cell",
    ),
    m("threads.ta_us_p50", "us", THREADS),
    m("threads.ta_us_p99", "us", THREADS),
    m("threads.t_c_us", "us", THREADS),
    m("threads.unaccounted_us", "us", THREADS),
    m("net.codec.encode_work_ns", "ns", NET),
    m("net.codec.encode_outcome_ns", "ns", NET),
    m("net.codec.decode_work_ns", "ns", NET),
    m("net.codec.decode_outcome_ns", "ns", NET),
    m("net.uds_echo_us", "us", NET),
    m("net.bytes_per_eval", "B", NET),
    m("net.frames_per_eval", "count", NET),
    m("net.rtt_us_p50", "us", NET),
    m("net.rtt_us_p99", "us", NET),
    m("net.master_consume_us_p50", "us", NET),
    m("net.unaccounted_us", "us", NET),
    m(
        "obs.trace_overhead_share",
        "share",
        "gap between traced and untraced evals_per_s",
    ),
    m(
        "models.p_ub",
        "processors",
        "Eq. 3 from the traced T_F, T_C, T_A",
    ),
    m(
        "models.pred_error_share",
        "share",
        "perfsim prediction vs measured elapsed",
    ),
    m(
        "models.eq2_error_share",
        "share",
        "Eq. 2 prediction vs measured elapsed",
    ),
    m(
        "layers.master_us_per_eval",
        "us",
        "traced wall per consumed evaluation",
    ),
    m(
        "layers.explained_share",
        "share",
        "layer sum / layers.master_us_per_eval",
    ),
    m(
        "layers.unaccounted_share",
        "share",
        "1 - layers.explained_share",
    ),
];

pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}
