//! Process CPU time: the clock every gated timing is read from.
//!
//! On a shared virtual host the hypervisor takes the benchmark's cores away for
//! stretches of seconds (steal time). Wall-clock latency then moves with the
//! neighbours' load, while the CPU time a task is charged excludes the stolen
//! time. The daemon runs in this process, so the process clock covers client and
//! daemon alike.
//!
//! The process also runs on one core ([`pin_to_one_cpu`]): the two cores of a
//! shared host run at different speeds from one moment to the next, and the
//! host-speed reference (`host.rs`) can only speak for the core it ran on.

use std::time::Duration;

/// How long to sleep before reading the clock at the end of a measured window.
/// The kernel brings another running thread's CPU time up to date only when
/// that thread blocks; the daemon worker that sent the last reply blocks on its
/// next read within microseconds, and this pause lets it.
const SETTLE: Duration = Duration::from_millis(1);

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, now: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
}

/// Bytes of a glibc `cpu_set_t` (1024 CPUs).
const CPU_SET_BYTES: usize = 128;

/// Restricts the calling thread, and every thread it starts afterwards, to the
/// lowest-numbered CPU it may run on, and returns that CPU. Call it before any
/// other thread starts.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut mask = [0u8; CPU_SET_BYTES];
    // SAFETY: `mask` is a writable buffer of the `cpu_set_t` size passed in.
    if unsafe { sched_getaffinity(0, CPU_SET_BYTES, mask.as_mut_ptr()) } != 0 {
        return Err(format!("sched_getaffinity: {}", std::io::Error::last_os_error()));
    }
    let cpu = (0..CPU_SET_BYTES * 8)
        .find(|&cpu| mask[cpu / 8] & (1 << (cpu % 8)) != 0)
        .ok_or("the affinity mask allows no CPU")?;
    let mut one = [0u8; CPU_SET_BYTES];
    one[cpu / 8] = 1 << (cpu % 8);
    // SAFETY: `one` is a readable buffer of the `cpu_set_t` size passed in.
    if unsafe { sched_setaffinity(0, CPU_SET_BYTES, one.as_ptr()) } != 0 {
        return Err(format!("sched_setaffinity: {}", std::io::Error::last_os_error()));
    }
    Ok(cpu)
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds charged to this process so far, all threads included.
pub fn process_s() -> f64 {
    let mut now = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `now` is a valid, writable `struct timespec` (two 64-bit fields on
    // the 64-bit Linux targets the benchmark runs on).
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut now) };
    assert_eq!(status, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    now.tv_sec as f64 + now.tv_nsec as f64 * 1e-9
}

/// CPU seconds charged since `start` (a [`process_s`] reading), read once the
/// daemon has settled.
pub fn settled_since(start: f64) -> f64 {
    std::thread::sleep(SETTLE);
    process_s() - start
}

#[cfg(test)]
mod tests {
    use super::*;

    // Other tests run on threads of this process, so only a lower bound holds.
    #[test]
    fn the_clock_counts_work() {
        let start = process_s();
        let mut x = 0u64;
        while process_s() - start < 0.03 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(settled_since(start) >= 0.03);
    }
}
