//! Pins the benchmark process to one CPU.
//!
//! The real-time workloads hand every evaluation between threads. On a
//! small virtual machine a hand-off between two vCPUs costs a
//! cross-CPU wake-up whose latency depends on the host, so the same run
//! measured anywhere between 59k and 174k evaluations/s. On one CPU every
//! hand-off is a same-CPU context switch and the figures repeat. The
//! virtual workloads are single-threaded and unaffected.

use std::os::raw::c_int;

/// `cpu_set_t`: a bit mask of 1024 CPUs.
#[repr(C)]
struct CpuSet {
    bits: [u64; 16],
}

extern "C" {
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut CpuSet) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const CpuSet) -> c_int;
}

/// Restricts the calling thread, and every thread it spawns afterwards,
/// to the lowest-numbered CPU it may run on. Returns that CPU.
pub fn pin_to_first_allowed_cpu() -> Result<usize, String> {
    let mut mask = CpuSet { bits: [0; 16] };
    let size = std::mem::size_of::<CpuSet>();
    // SAFETY: `mask` is a live, writable `cpu_set_t`-sized buffer and
    // `size` is its exact size; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, &mut mask) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..1024)
        .find(|&c| mask.bits[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("no CPU in the affinity mask")?;
    let mut one = CpuSet { bits: [0; 16] };
    one.bits[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a valid `cpu_set_t`-sized mask naming one allowed
    // CPU and `size` is its exact size; pid 0 names the calling thread.
    if unsafe { sched_setaffinity(0, size, &one) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}
