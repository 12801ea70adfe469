//! Process resource usage: CPU time and peak resident set, from
//! `getrusage(2)`. Linux x86-64/aarch64 layout, like the epoll reactor
//! the benchmark drives.

use std::os::raw::{c_int, c_long};

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

/// `struct rusage`: two `timeval`s, then fourteen `long`s of which
/// `ru_maxrss` (kilobytes) is the first.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

const RUSAGE_SELF: c_int = 0;

/// A reading of this process's accumulated resource usage.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// User + system CPU time of every thread, in microseconds.
    pub cpu_us: u64,
    /// Peak resident set size in megabytes (`VmHWM`).
    pub peak_rss_mb: f64,
}

pub fn usage() -> Usage {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a live, writable `struct rusage` of the layout the
    // kernel fills for RUSAGE_SELF; the call writes nothing else.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    let us = |t: &Timeval| t.sec as u64 * 1_000_000 + t.usec as u64;
    Usage {
        cpu_us: us(&ru.utime) + us(&ru.stime),
        peak_rss_mb: ru.maxrss as f64 / 1024.0,
    }
}

/// Cores the scheduler gives this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_advances_with_work() {
        let before = usage();
        let mut x = 0u64;
        while usage().cpu_us < before.cpu_us + 2_000 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(usage().peak_rss_mb > 1.0);
    }
}
