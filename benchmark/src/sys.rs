//! Process CPU time through `clock_gettime(2)` and peak memory through
//! `getrusage(2)` (Linux, 64-bit).

use std::os::raw::{c_int, c_long};

#[repr(C)]
#[derive(Default)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: c_long,
}

#[repr(C)]
#[derive(Default)]
struct Rusage {
    /// `ru_utime` and `ru_stime`, two `struct timeval`s, unused here.
    _times: [c_long; 4],
    ru_maxrss: c_long,
    /// The remaining thirteen `long` fields, unused here.
    _rest: [c_long; 13],
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

const RUSAGE_SELF: c_int = 0;
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

fn rusage_self() -> Rusage {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a valid, writable `struct rusage` (two
    // `timeval`s then fourteen `long`s, the Linux layout) that outlives
    // the call; RUSAGE_SELF is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with valid arguments"
    );
    usage
}

/// CPU seconds this process has run, user and system, all threads
/// (ended ones too), to the nanosecond. A paravirtualised guest kernel
/// leaves out the time the host gave the CPU to someone else.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec::default();
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call, and
    // CLOCK_PROCESS_CPUTIME_ID is a clock every Linux kernel has.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    // ru_maxrss is in kilobytes on Linux.
    rusage_self().ru_maxrss as f64 / 1024.0
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_is_sane() {
        let before = cpu_seconds();
        let mut x = 0u64;
        for i in 0..3_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() >= before);
        assert!(peak_rss_mb() > 1.0);
        assert!(nproc() >= 1);
    }
}
