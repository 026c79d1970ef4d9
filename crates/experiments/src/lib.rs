//! # borg-experiments
//!
//! The experiment harness regenerating every table and figure of the
//! paper (see DESIGN.md §4 for the full index):
//!
//! | Artifact | Module | CLI subcommand |
//! |---|---|---|
//! | Table II | [`table2`] | `borg-exp table2` |
//! | Figure 1 | [`timeline`] | `borg-exp fig1` |
//! | Figure 2 | [`timeline`] | `borg-exp fig2` |
//! | Figure 3 | [`hvspeedup`] | `borg-exp fig3` |
//! | Figure 4 | [`hvspeedup`] | `borg-exp fig4` |
//! | Figure 5 | [`heatmap`] | `borg-exp fig5` |
//! | Eqs. 3–4 | [`bounds`] | `borg-exp bounds` |
//! | §IV-B fitting | [`fitdemo`] | `borg-exp fit` |
//! | Fault-tolerance sweep (extension) | [`faults`] | `borg-exp faults` |
//! | DESIGN.md §5 ablations | [`ablation`] | `borg-exp ablations` |
//! | §VII island topology (extension) | [`islands_exp`] | `borg-exp islands` |
//! | §VI/VII algorithm dynamics | [`dynamics`] | `borg-exp dynamics` |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablation;
pub mod bounds;
pub mod dynamics;
pub mod faults;
pub mod fitdemo;
pub mod heatmap;
pub mod hvcache;
pub mod hvspeedup;
pub mod islands_exp;
pub(crate) mod par;
pub mod report;
pub mod suite;
pub mod table2;
pub mod timeline;
pub mod tracebundle;

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

    // BORG-L009: `disallowed-methods`; sweeps fan out through borg-runner.
    #[expect(clippy::disallowed_methods)]
    fn raw_spawn() {
        drop(std::thread::spawn(|| ()));
    }
}
