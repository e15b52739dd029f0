//! What the record says about where it was measured, and the process
//! counters (`VmHWM`, CPU time) the end-to-end metrics read.

use crate::json::Json;
use std::process::Command;

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`,
/// fixed at 100 by the Linux userspace ABI).
const USER_HZ: f64 = 100.0;

/// Cores this process may use, for the record's provenance.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Words of the kernel's 1024-bit `cpu_set_t`.
const CPU_SET_WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread, and every thread it starts afterwards,
/// to the highest-numbered CPU it may use; returns that CPU. The serve
/// workloads run this way: a wake-up that crosses virtual CPUs costs
/// several times the program's whole request path on the benchmark
/// host and drifts by 10 % for minutes at a time, so only same-core
/// runs measure the program rather than the hypervisor.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; CPU_SET_WORDS];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of exactly `bytes`
    // bytes, which is what the call is told; pid 0 is the caller.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..CPU_SET_WORDS * 64)
        .rev()
        .find(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)?;
    let mut one = [0u64; CPU_SET_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of `bytes` bytes, only read.
    (unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } == 0).then_some(cpu)
}

/// Without the Linux affinity calls the workloads run unpinned.
#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// `model name` of the first CPU in `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|v| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Widest vector unit detected at run time, in bits.
pub fn vector_bits() -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return 512;
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return 256;
        }
        128
    }
    #[cfg(target_arch = "aarch64")]
    {
        128
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        0
    }
}

/// First line of a command's output, or `"unknown"`.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Host, toolchain and commit, for a record's `provenance` block.
pub fn provenance() -> Json {
    Json::obj([
        (
            "host",
            Json::obj([
                ("nproc", Json::Int(nproc() as u64)),
                ("cpu_model", Json::str(cpu_model())),
                ("vector_bits", Json::Int(vector_bits())),
            ]),
        ),
        (
            "git_rev",
            Json::str(first_line("git", &["rev-parse", "HEAD"])),
        ),
        // Uncommitted changes: the numbers are then not `git_rev`'s alone.
        ("git_dirty", Json::Bool(git_dirty())),
        ("rustc", Json::str(first_line("rustc", &["--version"]))),
    ])
}

/// `true` when git reports uncommitted changes; `false` without git.
fn git_dirty() -> bool {
    Command::new("git")
        .args(["status", "--porcelain"])
        .output()
        .is_ok_and(|o| o.status.success() && !o.stdout.is_empty())
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU seconds this process (all threads) has used.
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|text| {
            // Fields after the parenthesised command name, which may
            // itself contain spaces: utime and stime are the 12th and
            // 13th from there.
            let rest = text.rsplit_once(')')?.1;
            let mut fields = rest.split_whitespace().skip(11);
            let utime: f64 = fields.next()?.parse().ok()?;
            let stime: f64 = fields.next()?.parse().ok()?;
            Some((utime + stime) / USER_HZ)
        })
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_counters_read_and_grow() {
        assert!(nproc() >= 1);
        assert!(peak_rss_mb() > 0.0);
        let before = cpu_seconds();
        let mut x = 0u64;
        let t0 = std::time::Instant::now();
        while t0.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_seconds() > before, "60 ms of spinning is 6 ticks");
    }

    #[test]
    fn pinning_leaves_one_cpu_and_is_inherited() {
        // On its own thread: affinity is per thread and inherited.
        std::thread::spawn(|| {
            if let Some(cpu) = pin_to_one_cpu() {
                assert_eq!(nproc(), 1, "pinned to cpu {cpu}");
                assert_eq!(std::thread::spawn(nproc).join().unwrap(), 1);
            }
        })
        .join()
        .unwrap();
    }

    #[test]
    fn provenance_names_the_host() {
        let p = provenance();
        assert!(
            p.get("host")
                .unwrap()
                .get("nproc")
                .unwrap()
                .as_u64()
                .unwrap()
                >= 1
        );
        assert!(p.get("rustc").unwrap().as_str().is_some());
    }
}
