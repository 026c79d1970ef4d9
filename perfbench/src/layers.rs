//! Layer costs timed from outside the program, on the workload's own
//! shapes: the codec on its `Work`/`Outcome` frames, a framed Unix-socket
//! echo, `MasterEngine::handle` through a null transport at its worker
//! count and protocol configuration, and the crossbeam one-way hop.

use crate::workloads::{Kind, Spec};
use borg_desim::fault::FaultLog;
use borg_net::codec::{decode_complete, encode, Msg, TraceCtx};
use borg_net::{Conn, NetStream};
use borg_parallel::threads::estimate_comm_time;
use borg_protocol::{Clock, EngineConfig, Event, MasterEngine, RecoveryPolicy, Transport};
use std::hint::black_box;
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

/// Batches per measurement; the median batch is reported.
const BATCHES: usize = 5;

/// Layer costs that do not depend on a run.
#[derive(Debug, Clone, Copy)]
pub struct Micro {
    pub encode_work_ns: f64,
    pub encode_outcome_ns: f64,
    pub decode_work_ns: f64,
    pub decode_outcome_ns: f64,
    /// `Work` out and `Outcome` back over a framed socket pair (µs).
    pub uds_echo_us: f64,
    /// One `MasterEngine::handle(ResultArrived)` (ns).
    pub handle_ns: f64,
    /// One-way crossbeam hop, `estimate_comm_time` (µs).
    pub comm_time_us: f64,
}

/// Median over [`BATCHES`] batches of `iters` calls, in ns per call.
fn ns_per_call(iters: u32, mut f: impl FnMut() -> Result<(), String>) -> Result<f64, String> {
    let mut batches = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let start = Instant::now();
        for _ in 0..iters {
            f()?;
        }
        batches.push(start.elapsed().as_nanos() as f64 / f64::from(iters));
    }
    Ok(crate::stats::median(&mut batches))
}

fn frames(spec: &Spec) -> (Msg, Msg) {
    // The deployment stamps a trace context on every hot-path frame.
    let ctx = Some(TraceCtx {
        trace_id: 123_456,
        parent_span: 7,
        sent_at: 0.061_803,
    });
    // DTLZ2 with the standard k = 10 has M + 9 variables.
    let vars = spec.objectives + 9;
    let work = Msg::Work {
        eval_id: 123_456,
        attempt: 0,
        seq: 42,
        variables: (0..vars).map(|i| i as f64 * 0.061_803).collect(),
        ctx,
    };
    let outcome = Msg::Outcome {
        worker: 1,
        eval_id: 123_456,
        attempt: 0,
        objectives: (0..spec.objectives)
            .map(|i| 0.125 * (i + 1) as f64)
            .collect(),
        constraints: Vec::new(),
        ctx,
    };
    (work, outcome)
}

/// A transport that does nothing, so timing `handle` isolates the engine.
struct NullTransport {
    now: f64,
}

impl Clock for NullTransport {
    fn now(&self) -> f64 {
        self.now
    }
}

impl Transport for NullTransport {
    fn dispatch(&mut self, _w: usize, _id: u64, _a: u32, _s: u64, _log: &mut FaultLog) -> f64 {
        f64::INFINITY
    }
    fn consume(&mut self, _w: usize, _id: u64, ready_at: f64) -> f64 {
        ready_at
    }
    fn absorb_duplicate(&mut self, _w: usize, _id: u64, ready_at: f64) -> f64 {
        ready_at
    }
    fn ping(&mut self, _w: usize) -> (f64, f64) {
        (self.now, self.now)
    }
    fn rearm_heartbeat(&mut self, _at: f64) {}
    fn abandon(&mut self, _id: u64) {}
}

/// The protocol configuration the workload's executor runs.
fn engine_config(spec: &Spec) -> EngineConfig {
    let unbounded = u64::MAX / 2;
    match spec.kind {
        Kind::VirtualCell => EngineConfig::fault_free_async(spec.workers, unbounded),
        Kind::VirtualFaults => EngineConfig::fault_tolerant_async(
            spec.workers,
            unbounded,
            RecoveryPolicy::from_expected_eval_time(0.010, 4.0),
        ),
        Kind::Threads | Kind::Socket => {
            EngineConfig::shared_pool_async(spec.workers, unbounded, RecoveryPolicy::disabled())
        }
    }
}

/// ns per `handle(ResultArrived)`: results return round-robin, so eval
/// `i` always comes back from worker `i mod workers`, where it was sent.
fn handle_ns(spec: &Spec) -> Result<f64, String> {
    const EVENTS: u64 = 100_000;
    let mut batches = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let mut t = NullTransport { now: 0.0 };
        let mut engine = MasterEngine::new(engine_config(spec));
        engine.seed(&mut t, &borg_obs::NoopRecorder);
        let start = Instant::now();
        for i in 0..EVENTS {
            t.now += 1e-6;
            let event = Event::ResultArrived {
                worker: (i % spec.workers as u64) as usize,
                eval_id: i,
                at: t.now,
            };
            engine.handle(black_box(event), &mut t, &borg_obs::NoopRecorder);
        }
        batches.push(start.elapsed().as_nanos() as f64 / EVENTS as f64);
        if engine.completed() != EVENTS {
            return Err(format!(
                "null-transport engine completed {} of {EVENTS} events",
                engine.completed()
            ));
        }
    }
    Ok(crate::stats::median(&mut batches))
}

fn uds_echo_us(work: &Msg, outcome: &Msg) -> Result<f64, String> {
    let (m, w) = UnixStream::pair().map_err(|e| format!("socketpair: {e}"))?;
    for s in [&m, &w] {
        s.set_read_timeout(Some(Duration::from_secs(5)))
            .map_err(|e| format!("socket timeout: {e}"))?;
    }
    let mut master = Conn::new(NetStream::Unix(m));
    let mut worker = Conn::new(NetStream::Unix(w));
    let net = |e: borg_net::NetError| e.to_string();
    let ns = ns_per_call(20_000, || {
        master.send(work).map_err(net)?;
        let got = worker.recv().map_err(net)?.ok_or("no work frame")?;
        worker.send(outcome).map_err(net)?;
        let back = master.recv().map_err(net)?.ok_or("no outcome frame")?;
        black_box((got, back));
        Ok(())
    })?;
    Ok(ns / 1e3)
}

pub fn measure(spec: &Spec) -> Result<Micro, String> {
    let (work, outcome) = frames(spec);
    let work_frame = encode(&work);
    let outcome_frame = encode(&outcome);
    let codec = |e: borg_net::DecodeError| format!("decode: {e:?}");
    const CODEC_ITERS: u32 = 100_000;
    Ok(Micro {
        encode_work_ns: ns_per_call(CODEC_ITERS, || {
            black_box(encode(black_box(&work)));
            Ok(())
        })?,
        encode_outcome_ns: ns_per_call(CODEC_ITERS, || {
            black_box(encode(black_box(&outcome)));
            Ok(())
        })?,
        decode_work_ns: ns_per_call(CODEC_ITERS, || {
            black_box(decode_complete(black_box(&work_frame)).map_err(codec)?);
            Ok(())
        })?,
        decode_outcome_ns: ns_per_call(CODEC_ITERS, || {
            black_box(decode_complete(black_box(&outcome_frame)).map_err(codec)?);
            Ok(())
        })?,
        uds_echo_us: uds_echo_us(&work, &outcome)?,
        handle_ns: handle_ns(spec)?,
        comm_time_us: estimate_comm_time(20_000).map_err(|e| format!("comm probe: {e}"))? * 1e6,
    })
}
