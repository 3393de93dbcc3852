//! Host-side measurements taken from outside the program: process CPU
//! time, peak resident set, the machine's steal time and core count.

use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds (user plus system, every thread, live or exited) this
/// process has used so far.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, which `main` asserts) and the clock id is a
    // constant the kernel always supports, so the call only writes `ts`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// Steal seconds summed over every CPU of the machine since boot, from
/// the aggregate `cpu` line of `/proc/stat` (8th value, in USER_HZ
/// ticks of 1/100 s). `None` where the file is unreadable.
pub fn steal_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: f64 = line.split_whitespace().nth(8)?.parse().ok()?;
    Some(ticks / 100.0)
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Wall and CPU clocks read together at the start of an interval.
#[derive(Clone, Copy)]
pub struct Stamp {
    wall: Instant,
    cpu: f64,
}

impl Stamp {
    pub fn now() -> Stamp {
        Stamp {
            wall: Instant::now(),
            cpu: process_cpu_s(),
        }
    }

    /// Wall seconds since the stamp.
    pub fn wall_s(&self) -> f64 {
        self.wall.elapsed().as_secs_f64()
    }

    /// Process CPU seconds since the stamp.
    pub fn cpu_s(&self) -> f64 {
        process_cpu_s() - self.cpu
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let t = Stamp::now();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        std::hint::black_box(x);
        assert!(t.cpu_s() > 0.0);
    }

    #[test]
    fn host_files_parse() {
        assert!(peak_rss_mib() > 0.0);
        assert!(steal_s().is_some());
        assert!(nproc() >= 1);
    }
}
