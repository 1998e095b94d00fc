//! What the operating system knows about this process: CPU clocks,
//! per-thread CPU from `/proc/self/task/*/schedstat`, and peak RSS;
//! and the CPU affinity the set-ups run under.

use std::fs;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call, and both clock ids
    // are defined by POSIX for the calling process and thread.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time used by every thread of the process so far, including
/// threads that have already exited.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time used by the calling thread so far.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// A CPU affinity mask (the first 1024 CPUs).
pub struct CpuMask([u64; 16]);

/// Sets the affinity of thread `tid` (0: the calling thread).
fn set_affinity(tid: i32, mask: &CpuMask) -> std::io::Result<()> {
    // SAFETY: `mask` is a readable buffer of exactly the size passed.
    let rc = unsafe { sched_setaffinity(tid, std::mem::size_of::<CpuMask>(), mask.0.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

/// Confines the calling thread, and the threads it starts from now on,
/// to the lowest CPU it may run on. Returns the mask it had, or `None`
/// when the mask cannot be read or set.
pub fn pin_to_one_cpu() -> Option<CpuMask> {
    let mut old = CpuMask([0; 16]);
    // SAFETY: `old` is a writable buffer of exactly the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), old.0.as_mut_ptr()) };
    if rc != 0 {
        return None;
    }
    let (word, bits) = old.0.iter().enumerate().find(|(_, &w)| w != 0)?;
    let mut one = CpuMask([0; 16]);
    one.0[word] = 1 << bits.trailing_zeros();
    set_affinity(0, &one).ok()?;
    Some(old)
}

/// Gives every live thread of the process the affinity `mask`.
pub fn set_affinity_all(mask: &CpuMask) -> Result<(), String> {
    for t in threads() {
        match set_affinity(t.tid as i32, mask) {
            Ok(()) => {}
            // The thread exited between listing and setting.
            Err(e) if e.raw_os_error() == Some(3) => {}
            Err(e) => return Err(format!("sched_setaffinity({}): {e}", t.tid)),
        }
    }
    Ok(())
}

/// One live thread: id, name and nanoseconds on CPU so far.
pub struct ThreadCpu {
    pub tid: u64,
    pub name: String,
    pub ns: u64,
}

/// Every live thread of the process.
pub fn threads() -> Vec<ThreadCpu> {
    let mut out = Vec::new();
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|t| t.parse().ok()) else {
            continue;
        };
        let path = entry.path();
        let (Ok(comm), Ok(stat)) = (
            fs::read_to_string(path.join("comm")),
            fs::read_to_string(path.join("schedstat")),
        ) else {
            continue; // the thread exited between listing and reading
        };
        let ns = stat
            .split_whitespace()
            .next()
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0);
        out.push(ThreadCpu {
            tid,
            name: comm.trim().to_owned(),
            ns,
        });
    }
    out
}

/// Sum of CPU ns of the threads whose name starts with `prefix`.
pub fn threads_cpu_ns(threads: &[ThreadCpu], prefix: &str) -> u64 {
    threads
        .iter()
        .filter(|t| t.name.starts_with(prefix))
        .map(|t| t.ns)
        .sum()
}

/// Host CPU ticks `(steal, all)` from `/proc/stat`: time the
/// hypervisor ran something else while this machine's CPUs wanted to run.
pub fn steal_ticks() -> (u64, u64) {
    let stat = first_line("/proc/stat");
    let ticks: Vec<u64> = stat
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// First line of a file, trimmed; empty when unreadable.
pub fn first_line(path: &str) -> String {
    fs::read_to_string(path)
        .unwrap_or_default()
        .lines()
        .next()
        .unwrap_or("")
        .trim()
        .to_owned()
}

/// The CPU model from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_owned())
        .unwrap_or_default()
}
