//! The real-clock networked master: drives the shared
//! `borg_protocol::MasterEngine` over live sockets.
//!
//! One thread per worker connection reads frames with no lock held, then
//! takes the `Master` lock and handles the frame itself: a result is
//! consumed by the engine and the next `Work` frame is written before the
//! lock is released. An evaluation therefore costs the same two thread
//! wake-ups as in the real-thread executor (`borg_parallel::threads`), and
//! since every socket write happens under the lock, frames never
//! interleave. The serving thread only seeds the pool, sweeps expired
//! deadlines and heartbeat staleness on a tick, and tears down. The engine
//! decides everything else (deadline reissue, duplicate suppression by
//! eval id, worker retirement). Worker death is detected two ways —
//! connection EOF (a `SIGKILL`ed process closes its socket) and
//! wire-heartbeat staleness (a hung-but-connected peer) — and both feed
//! the engine's existing recovery machinery via [`Event::WorkerDied`].

use crate::codec::{self, Msg, TraceCtx};
use crate::metrics;
use crate::transport::{Backoff, Conn, NetAddr, NetError, NetListener, NetStream};
use borg_core::algorithm::{BorgConfig, BorgEngine, Candidate};
use borg_core::problem::Problem;
use borg_core::rng::SplitMix64;
use borg_desim::fault::{FaultKind, FaultLog};
use borg_obs::{Recorder, TraceEdge, TraceEdgeKind};
use borg_protocol::{Clock, Event, MasterEngine, RecoveryPolicy, Transport};
use crossbeam::channel;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::{Duration, Instant};

/// Reissue cap before an evaluation is abandoned (matches the
/// real-thread executor).
const MAX_REISSUES: u32 = 32;

/// How the networked master runs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Endpoint to listen on (`tcp:HOST:PORT` / `unix:PATH`).
    pub listen: NetAddr,
    /// Worker registrations to wait for before starting.
    pub workers: usize,
    /// Evaluation budget.
    pub max_nfe: u64,
    /// Engine seed (derived deterministically).
    pub seed: u64,
    /// Problem name announced to workers in `Welcome`.
    pub problem_name: String,
    /// Artificial per-evaluation delay announced to workers (keeps test
    /// runs killable mid-flight). Zero for real runs.
    pub eval_delay: Duration,
    /// Reissue deadline in wall-clock seconds (`None` = never).
    pub reissue_timeout: Option<f64>,
    /// Declare a worker dead after this much wire silence, in seconds
    /// (`INFINITY` = EOF detection only). Must exceed the worst
    /// evaluation time: workers only heartbeat while idle.
    pub heartbeat_timeout: f64,
    /// How long to wait for the pool to register.
    pub register_timeout: Duration,
    /// Per-connection read timeout: how often an idle connection thread
    /// checks whether the run is over.
    pub read_timeout: Duration,
}

impl ServeConfig {
    pub fn new(listen: NetAddr, workers: usize, max_nfe: u64, seed: u64) -> Self {
        ServeConfig {
            listen,
            workers,
            max_nfe,
            seed,
            problem_name: "dtlz2-5".to_string(),
            eval_delay: Duration::ZERO,
            reissue_timeout: None,
            heartbeat_timeout: f64::INFINITY,
            register_timeout: Duration::from_secs(20),
            read_timeout: Duration::from_millis(50),
        }
    }
}

/// What a networked run produced.
pub struct ServeReport {
    /// Final engine state (archive, NFE).
    pub engine: BorgEngine,
    /// Wall-clock seconds from pool-ready to budget completion.
    pub elapsed: f64,
    /// Recovery ledger (real deaths are injected as `Crash` records).
    pub fault_log: FaultLog,
    /// Result frames consumed.
    pub wire_results: u64,
    /// Duplicate result frames absorbed.
    pub wire_duplicates: u64,
    /// Heartbeat frames received.
    pub wire_heartbeats: u64,
}

/// A decoded result waiting for the engine to consume it.
struct WireResult {
    worker: usize,
    eval_id: u64,
    attempt: u32,
    objectives: Vec<f64>,
    constraints: Vec<f64>,
    ctx: Option<TraceCtx>,
}

/// The engine's executor half over live sockets.
struct NetTransport<'a, R: Recorder + ?Sized> {
    start: Instant,
    engine: BorgEngine,
    writers: Vec<Option<NetStream>>,
    candidates: BTreeMap<u64, Candidate>,
    dispatched_at: BTreeMap<u64, f64>,
    /// The evaluation each worker currently holds (shared-pool mode
    /// dispatches one at a time), for fast `lost_eval` reporting on EOF.
    current_eval: Vec<Option<u64>>,
    /// Per-worker dispatch counters, carried in `Work.seq`.
    dispatch_seq: Vec<u64>,
    pending: Option<WireResult>,
    timeout: Option<f64>,
    latched: Option<NetError>,
    wire_results: u64,
    wire_duplicates: u64,
    rec: &'a R,
}

impl<R: Recorder + ?Sized> NetTransport<'_, R> {
    /// Sends a work item toward `worker`'s socket — or any live socket
    /// if that one is gone. The engine's shared-pool discipline treats
    /// dispatch indices as notional (it reissues a dead worker's lost
    /// eval under the dead worker's own index, the way the thread
    /// executor's shared queue lets any survivor pick it up), so the
    /// physical route is ours to choose. Returns the socket actually
    /// written, `None` if nothing could be sent (EOF detection and the
    /// deadline machinery cover the loss).
    fn send_work(
        &mut self,
        worker: usize,
        eval_id: u64,
        attempt: u32,
        variables: Vec<f64>,
    ) -> Option<usize> {
        let target = if self.writers[worker].is_some() {
            worker
        } else {
            self.writers.iter().position(Option::is_some)?
        };
        let seq = self.dispatch_seq[target];
        self.dispatch_seq[target] += 1;
        let now = self.start.elapsed().as_secs_f64();
        let frame = codec::encode(&Msg::Work {
            eval_id,
            attempt,
            seq,
            variables,
            ctx: Some(TraceCtx {
                trace_id: eval_id,
                parent_span: codec::span_id(eval_id, attempt, 0),
                sent_at: now,
            }),
        });
        let stream = self.writers[target].as_mut()?;
        if stream.write_all(&frame).is_ok() {
            self.rec.counter(metrics::DISPATCHES, 1);
            self.rec.counter(metrics::FRAMES_SENT, 1);
            self.rec.counter(metrics::BYTES_SENT, frame.len() as u64);
            self.rec.counter(metrics::TRACE_CTX_SENT, 1);
            self.rec.trace_edge(TraceEdge {
                kind: TraceEdgeKind::DispatchSent,
                trace_id: eval_id,
                eval_id,
                attempt,
                worker: target as u64,
                local_t: now,
                remote_t: 0.0,
            });
            self.rec
                .flight("net.work_sent", now, eval_id, target as u64, attempt.into());
            Some(target)
        } else {
            // The thread reading this connection will surface the
            // death; until then the deadline machinery covers us.
            self.writers[target] = None;
            None
        }
    }
}

impl<R: Recorder + ?Sized> Clock for NetTransport<'_, R> {
    fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

impl<R: Recorder + ?Sized> Transport for NetTransport<'_, R> {
    fn dispatch(
        &mut self,
        worker: usize,
        eval_id: u64,
        attempt: u32,
        _seq: u64,
        _log: &mut FaultLog,
    ) -> f64 {
        let variables = if attempt == 0 {
            let cand = self.engine.produce();
            let vars = cand.variables.clone();
            self.candidates.insert(eval_id, cand);
            vars
        } else {
            match self.candidates.get(&eval_id) {
                Some(cand) => cand.variables.clone(),
                // Abandoned and re-dispatched? Should not happen; fail
                // open with no deadline rather than panic.
                None => return f64::INFINITY,
            }
        };
        if let Some(target) = self.send_work(worker, eval_id, attempt, variables) {
            // Track the eval on the socket that physically carries it
            // (may differ from the notional index after a death), so a
            // later EOF on that connection reports the right lost eval.
            self.current_eval[target] = Some(eval_id);
        }
        let now = self.now();
        self.dispatched_at.insert(eval_id, now);
        self.timeout.map_or(f64::INFINITY, |t| now + t)
    }

    fn consume(&mut self, worker: usize, eval_id: u64, _ready_at: f64) -> f64 {
        let Some(result) = self.pending.take() else {
            self.latched = Some(NetError::Protocol(format!(
                "engine consumed eval {eval_id} with no wire result staged"
            )));
            return self.now();
        };
        let Some(candidate) = self.candidates.remove(&eval_id) else {
            self.latched = Some(NetError::Protocol(format!(
                "wire result for eval {eval_id} has no produced candidate"
            )));
            return self.now();
        };
        let (attempt, ctx) = (result.attempt, result.ctx);
        let solution = self
            .engine
            .make_solution(candidate, result.objectives, result.constraints);
        self.engine.consume(solution);
        self.current_eval[worker] = None;
        self.wire_results += 1;
        self.rec.counter(metrics::RESULTS, 1);
        let now = self.now();
        if let Some(at) = self.dispatched_at.remove(&eval_id) {
            self.rec.observe(metrics::RTT_SECONDS, now - at);
        }
        // Only *consumed* results close a trace chain: duplicates and
        // late frames never reach here, so the merged trace has exactly
        // one master-consume leg per completed evaluation.
        self.rec.trace_edge(TraceEdge {
            kind: TraceEdgeKind::ResultReceived,
            trace_id: eval_id,
            eval_id,
            attempt,
            worker: worker as u64,
            local_t: now,
            remote_t: ctx.map_or(0.0, |c| c.sent_at),
        });
        self.rec
            .flight("net.result_received", now, eval_id, worker as u64, 0.0);
        now
    }

    fn absorb_duplicate(&mut self, _worker: usize, _eval_id: u64, _ready_at: f64) -> f64 {
        self.pending = None;
        self.wire_duplicates += 1;
        self.rec.counter(metrics::DUPLICATES, 1);
        self.now()
    }

    fn ping(&mut self, _worker: usize) -> (f64, f64) {
        let now = self.now();
        (now, now)
    }

    fn rearm_heartbeat(&mut self, _at: f64) {}

    fn abandon(&mut self, eval_id: u64) {
        self.candidates.remove(&eval_id);
        self.latched = Some(NetError::Protocol(format!(
            "eval {eval_id} exhausted its {MAX_REISSUES} reissues"
        )));
    }

    fn unknown_result(&mut self, _worker: usize, _eval_id: u64) {
        // A result for an id the engine no longer tracks (late duplicate
        // after abandonment): absorb and count, don't fail the run.
        self.pending = None;
        self.wire_duplicates += 1;
        self.rec.counter(metrics::DUPLICATES, 1);
    }
}

/// The master's whole mutable state, shared by the connection threads
/// and the serving thread behind one lock. Every socket write happens
/// while it is held (the single-writer rule).
struct Master<'a, R: Recorder + ?Sized> {
    proto: MasterEngine,
    transport: NetTransport<'a, R>,
    alive: Vec<bool>,
    last_seen: Vec<f64>,
    heartbeats: u64,
    /// The evaluation budget.
    target: u64,
    /// Set once the run has an outcome; no thread handles frames after.
    over: bool,
}

impl<R: Recorder + ?Sized> Master<'_, R> {
    fn handle(&mut self, event: Event) {
        let rec = self.transport.rec;
        self.proto.handle(event, &mut self.transport, rec);
    }

    fn on_result(&mut self, result: WireResult) {
        let (worker, eval_id) = (result.worker, result.eval_id);
        if !self.alive[worker] {
            // A result from a worker already declared dead: stale by
            // definition (its eval was reissued).
            return;
        }
        let at = self.transport.now();
        self.last_seen[worker] = at;
        self.transport.pending = Some(result);
        self.handle(Event::ResultArrived {
            worker,
            eval_id,
            at,
        });
        self.transport.pending = None;
    }

    fn on_beat(&mut self, worker: usize, ctx: Option<TraceCtx>) {
        self.heartbeats += 1;
        self.last_seen[worker] = self.transport.now();
        // A heartbeat carrying a context is a clock probe: echo it back
        // with the probe's send time preserved in `parent_span` (bit
        // pattern) plus our own clock, so the worker can compute RTT and
        // clock offset.
        let Some(probe) = ctx else { return };
        let echo = codec::encode(&Msg::Heartbeat {
            worker: worker as u64,
            ctx: Some(TraceCtx {
                trace_id: probe.trace_id,
                parent_span: probe.sent_at.to_bits(),
                sent_at: self.transport.now(),
            }),
        });
        let rec = self.transport.rec;
        if let Some(stream) = self.transport.writers[worker].as_mut() {
            if stream.write_all(&echo).is_ok() {
                rec.counter(metrics::TRACE_PROBE_ECHOES, 1);
                rec.counter(metrics::FRAMES_SENT, 1);
                rec.counter(metrics::BYTES_SENT, echo.len() as u64);
            } else {
                self.transport.writers[worker] = None;
            }
        }
    }

    /// Fires expired reissue deadlines and declares heartbeat-stale
    /// workers hung (`heartbeat_timeout` = `INFINITY` never fires).
    fn sweep(&mut self, heartbeat_timeout: f64) {
        let now = self.transport.now();
        for (eval_id, worker, deadline_bits) in self.proto.expired_deadlines(now) {
            self.handle(Event::DeadlineFired {
                eval_id,
                worker,
                deadline_bits,
                at: now,
            });
            if self.transport.latched.is_some() {
                return;
            }
        }
        for worker in 0..self.alive.len() {
            if self.alive[worker] && now - self.last_seen[worker] > heartbeat_timeout {
                self.declare_dead(worker, FaultKind::Hang);
                if self.transport.latched.is_some() {
                    return;
                }
            }
        }
    }

    /// Records a physically observed death in the ledger and lets the
    /// engine's recovery machinery (retire + immediate reissue of the
    /// lost evaluation) act on it. A worker dies at most once.
    fn declare_dead(&mut self, worker: usize, kind: FaultKind) {
        if !self.alive[worker] {
            return;
        }
        self.alive[worker] = false;
        let at = self.transport.now();
        let lost_eval = self.transport.current_eval[worker];
        self.proto
            .log_mut()
            .inject(kind, worker, lost_eval.unwrap_or(0), at);
        self.transport.writers[worker] = None;
        let rec = self.transport.rec;
        rec.counter(metrics::WORKER_DEATHS, 1);
        rec.flight(
            "net.worker_death",
            at,
            worker as u64,
            lost_eval.unwrap_or(u64::MAX),
            match kind {
                FaultKind::Hang => 1.0,
                _ => 0.0,
            },
        );
        self.handle(Event::WorkerDied {
            worker,
            at,
            will_respawn: false,
            lost_eval,
        });
    }

    fn all_lost(&self) -> NetError {
        NetError::AllWorkersLost {
            completed: self.transport.engine.nfe(),
            target: self.target,
        }
    }

    /// The run's outcome once it has one — the first latched transport
    /// error, the budget done (elapsed seconds), or every worker lost —
    /// reported exactly once.
    fn verdict(&mut self) -> Option<Result<f64, NetError>> {
        if self.over {
            return None;
        }
        let verdict = if let Some(err) = self.transport.latched.take() {
            Err(err)
        } else if self.proto.finished() {
            Ok(self.transport.now())
        } else if !self.alive.contains(&true) {
            Err(self.all_lost())
        } else {
            return None;
        };
        self.over = true;
        Some(verdict)
    }

    /// Tells live workers the run is over, then severs their connections
    /// so blocked connection threads return at once and the scope join
    /// cannot hang.
    fn teardown(&mut self) {
        self.over = true;
        let frame = codec::encode(&Msg::Shutdown);
        for writer in self.transport.writers.iter_mut().flatten() {
            let _ = writer.write_all(&frame);
            writer.shutdown();
        }
    }
}

/// Waits for `Hello` on a fresh connection (bounded by read timeouts).
fn await_hello(conn: &mut Conn, deadline: Instant) -> Result<u64, NetError> {
    loop {
        match conn.recv()? {
            Some(Msg::Hello { worker }) => return Ok(worker),
            Some(other) => {
                return Err(NetError::Protocol(format!(
                    "expected Hello during registration, got {other:?}"
                )))
            }
            None => {
                if Instant::now() > deadline {
                    return Err(NetError::Protocol(
                        "connection never sent Hello".to_string(),
                    ));
                }
            }
        }
    }
}

/// Accepts and registers the full worker pool. An empty accept queue is
/// polled again after a backoff that starts at 20 µs and doubles up to
/// 2 ms. `pub(crate)` so the chaos harness can register proxy-splice
/// connections itself.
pub(crate) fn register_pool(
    listener: &NetListener,
    cfg: &ServeConfig,
) -> Result<Vec<Conn>, NetError> {
    listener.set_nonblocking(true)?;
    let deadline = Instant::now() + cfg.register_timeout;
    let mut idle = Backoff::new(
        Duration::from_micros(20),
        Duration::from_millis(2),
        u32::MAX,
    );
    let mut conns: Vec<Conn> = Vec::with_capacity(cfg.workers);
    while conns.len() < cfg.workers {
        if Instant::now() > deadline {
            return Err(NetError::Protocol(format!(
                "only {}/{} workers registered within {:?}",
                conns.len(),
                cfg.workers,
                cfg.register_timeout
            )));
        }
        let Some(stream) = listener.accept(cfg.read_timeout)? else {
            std::thread::sleep(idle.next_delay().unwrap_or(idle.cap));
            continue;
        };
        idle.reset();
        let mut conn = Conn::new(stream);
        await_hello(&mut conn, deadline)?;
        let worker = conns.len() as u64;
        conn.send(&Msg::Welcome {
            worker,
            problem: cfg.problem_name.clone(),
            eval_delay_us: cfg.eval_delay.as_micros() as u64,
        })?;
        conns.push(conn);
    }
    Ok(conns)
}

/// One connection's thread: reads a frame with no lock held, then handles
/// it under the master lock and reports the run's outcome if the frame
/// settled it. Exits on EOF, a decode error, or once the run is over.
fn connection_loop<R: Recorder + ?Sized>(
    mut conn: Conn,
    worker: usize,
    master: &Mutex<Master<'_, R>>,
    done: &channel::Sender<Result<f64, NetError>>,
    rec: &R,
) {
    loop {
        let msg = conn.recv();
        match &msg {
            Ok(Some(Msg::Outcome { ctx, .. })) => {
                rec.counter(metrics::FRAMES_RECEIVED, 1);
                if ctx.is_some() {
                    rec.counter(metrics::TRACE_CTX_RECEIVED, 1);
                }
            }
            Ok(Some(Msg::Heartbeat { ctx, .. })) => {
                rec.counter(metrics::HEARTBEATS, 1);
                if ctx.is_some() {
                    rec.counter(metrics::TRACE_CTX_RECEIVED, 1);
                }
            }
            Ok(Some(_)) => rec.counter(metrics::FRAMES_RECEIVED, 1),
            Err(NetError::Decode(_)) => rec.counter(metrics::DECODE_ERRORS, 1),
            Ok(None) | Err(_) => {}
        }
        let mut m = master.lock();
        if m.over {
            return;
        }
        let closed = msg.is_err();
        match msg {
            Ok(Some(Msg::Outcome {
                eval_id,
                attempt,
                objectives,
                constraints,
                ctx,
                ..
            })) => m.on_result(WireResult {
                // Trust the connection index, not the frame's claim.
                worker,
                eval_id,
                attempt,
                objectives,
                constraints,
                ctx,
            }),
            Ok(Some(Msg::Heartbeat { ctx, .. })) => m.on_beat(worker, ctx),
            Ok(_) => {}
            Err(_) => m.declare_dead(worker, FaultKind::Crash),
        }
        if let Some(verdict) = m.verdict() {
            let _ = done.send(verdict);
            return;
        }
        if closed {
            return;
        }
    }
}

/// Binds, registers the pool, runs the budget, returns the report.
pub fn serve<P, R>(
    problem: &P,
    borg: BorgConfig,
    cfg: &ServeConfig,
    rec: &R,
) -> Result<ServeReport, NetError>
where
    P: Problem + ?Sized,
    R: Recorder + Sync + ?Sized,
{
    assert!(cfg.workers >= 1, "need at least one worker");
    assert!(cfg.max_nfe >= 1, "need at least one evaluation");
    let listener = NetListener::bind(&cfg.listen)?;
    let conns = register_pool(&listener, cfg)?;
    let workers = conns.len();
    let engine_seed = SplitMix64::new(cfg.seed).derive_seed("net-serve-engine");
    let mut writers = Vec::with_capacity(workers);
    for conn in &conns {
        writers.push(Some(conn.stream().try_clone()?));
    }
    let mut master = Master {
        proto: MasterEngine::new(borg_protocol::EngineConfig::shared_pool_async(
            workers,
            cfg.max_nfe,
            RecoveryPolicy {
                timeout: cfg.reissue_timeout.unwrap_or(f64::INFINITY),
                heartbeat_interval: f64::INFINITY,
                max_reissues: MAX_REISSUES,
            },
        )),
        transport: NetTransport {
            start: Instant::now(),
            engine: BorgEngine::new(problem, borg, engine_seed),
            writers,
            candidates: BTreeMap::new(),
            dispatched_at: BTreeMap::new(),
            current_eval: vec![None; workers],
            dispatch_seq: vec![0; workers],
            pending: None,
            timeout: cfg.reissue_timeout,
            latched: None,
            wire_results: 0,
            wire_duplicates: 0,
            rec,
        },
        alive: vec![true; workers],
        last_seen: vec![0.0; workers],
        heartbeats: 0,
        target: cfg.max_nfe,
        over: false,
    };
    master.proto.seed(&mut master.transport, rec);
    let seeded = master.verdict();
    let master = Mutex::new(master);
    let tick = cfg.reissue_timeout.map_or(Duration::from_millis(50), |t| {
        Duration::from_secs_f64((t / 4.0).clamp(0.001, 0.1))
    });
    let (done_tx, done_rx) = channel::unbounded();

    let outcome = std::thread::scope(|scope| {
        let outcome = seeded.unwrap_or_else(|| {
            for (worker, conn) in conns.into_iter().enumerate() {
                let (master, done) = (&master, done_tx.clone());
                scope.spawn(move || connection_loop(conn, worker, master, &done, rec));
            }
            drop(done_tx);
            loop {
                match done_rx.recv_timeout(tick) {
                    Ok(verdict) => break verdict,
                    Err(channel::RecvTimeoutError::Timeout) => {
                        let mut m = master.lock();
                        m.sweep(cfg.heartbeat_timeout);
                        if let Some(verdict) = m.verdict() {
                            break verdict;
                        }
                    }
                    // Every connection thread has exited.
                    Err(channel::RecvTimeoutError::Disconnected) => {
                        break Err(master.lock().all_lost())
                    }
                }
            }
        });
        master.lock().teardown();
        outcome
    });
    let Master {
        proto,
        transport,
        heartbeats,
        ..
    } = master.into_inner();
    let elapsed = outcome?;

    let mut fault_log = proto.into_log();
    fault_log.finalize(elapsed);
    rec.gauge("master.busy_seconds", elapsed);
    rec.gauge("master.utilization", 1.0);
    rec.counter(
        "archive.box_probes",
        transport.engine.archive().box_probes(),
    );
    Ok(ServeReport {
        engine: transport.engine,
        elapsed,
        fault_log,
        wire_results: transport.wire_results,
        wire_duplicates: transport.wire_duplicates,
        wire_heartbeats: heartbeats,
    })
}
