//! # borg-desim
//!
//! A small deterministic discrete-event simulation engine, standing in for
//! the SimPy 2.3 library the paper used for its simulation model:
//!
//! * [`queue::EventQueue`] — min-heap event queue with FIFO tie-breaking
//!   and a simulation clock;
//! * [`resource::Resource`] — an exclusive FIFO resource mirroring SimPy's
//!   request/hold/release pattern (the master node);
//! * [`callback::CallbackSim`] — SimPy-flavoured chained-callback
//!   processes;
//! * [`trace::SpanTrace`] — activity-span vocabulary for the paper's
//!   timeline figures (re-exported from `borg-obs`, the workspace's
//!   observability layer);
//! * [`fault::FaultPlan`] / [`fault::FaultLog`] — deterministic fault
//!   injection (worker crashes, hangs, stragglers, message loss and
//!   duplication) and the recovery ledger shared by both executors.
//!
//! ```
//! use borg_desim::{EventQueue, Resource};
//!
//! // Two workers returning results compete for one master.
//! let mut queue = EventQueue::new();
//! queue.schedule_at(1.0, "worker0");
//! queue.schedule_at(1.5, "worker1");
//! let mut master: Resource<&str> = Resource::new();
//!
//! let (t0, w0) = queue.pop().unwrap();
//! assert_eq!((t0, w0), (1.0, "worker0"));
//! assert!(master.request(w0).is_some()); // idle master: granted
//! let (_, w1) = queue.pop().unwrap();
//! assert!(master.request(w1).is_none()); // busy: worker1 queues
//! assert_eq!(master.release(), Some("worker1")); // FIFO handoff
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod callback;
pub mod fault;
pub mod queue;
pub mod resource;
pub mod trace;

pub use callback::CallbackSim;
pub use fault::{FaultConfig, FaultLog, FaultPlan};
pub use queue::{EventQueue, Time};
pub use resource::Resource;
pub use trace::{Activity, Actor, Span, SpanTrace};

/// Compile-time proof that clippy enforces the BORG-L rules configured for
/// this crate (see the "Correctness & static analysis" section of README).
/// Each function seeds one violation under `#[expect]`: if its lint stops
/// firing (a misspelt `clippy.toml` path is silently ignored), the
/// `-D warnings` clippy gate fails on the unfulfilled expectation.
/// `cfg(clippy)` keeps this module out of every build but clippy's.
#[cfg(clippy)]
#[allow(dead_code)]
mod lint_canary {
    // BORG-L004: `disallowed-types` in clippy.toml.
    #[expect(clippy::disallowed_types)]
    fn std_mutex(_: &std::sync::Mutex<u8>) {}

    // BORG-L003: virtual time never reads the wall clock.
    #[expect(clippy::disallowed_types)]
    fn instant(_: std::time::Instant) {}

    #[expect(clippy::disallowed_types)]
    fn system_time(_: std::time::SystemTime) {}
}
