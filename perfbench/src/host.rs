//! What the host says about this process and checkout: CPU time, peak
//! memory, worker count and the commit being measured.

use std::fs;
use std::path::Path;

#[repr(C)]
#[derive(Default)]
struct TimeVal {
    sec: i64,
    usec: i64,
}

/// `struct rusage` as 64-bit Linux lays it out: two `timeval`s, then 14
/// `long`s that are not read here. (`ru_maxrss` is not used for peak
/// memory: it keeps the high-water mark of the process image before
/// `exec`, so it reads whatever launched the benchmark.)
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: TimeVal,
    stime: TimeVal,
    rest: [i64; 14],
}

const _: () = assert!(std::mem::size_of::<RUsage>() == 144);

const RUSAGE_SELF: i32 = 0;

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// User + system CPU seconds this process has used so far, over all its
/// threads (microsecond resolution); 0 if the call fails.
pub fn cpu_seconds() -> f64 {
    let mut u = RUsage::default();
    // SAFETY: `u` is a live, writable `struct rusage` with the C layout
    // (size checked above), and `getrusage` writes only into it.
    if unsafe { getrusage(RUSAGE_SELF, &mut u) } != 0 {
        return 0.0;
    }
    let secs = |t: &TimeVal| t.sec as f64 + t.usec as f64 / 1e6;
    secs(&u.utime) + secs(&u.stime)
}

/// This process's peak resident set (`VmHWM`) in MB; 0 where `/proc` is
/// unavailable.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit checked out at `root`, read from `.git` directly (no `git`
/// process, nothing outside the checkout); `None` outside a repository.
pub fn git_sha(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(sha) = fs::read_to_string(git.join(name)) {
        return Some(sha.trim().to_string());
    }
    fs::read_to_string(git.join("packed-refs"))
        .ok()?
        .lines()
        .find_map(|l| l.strip_suffix(name).map(|sha| sha.trim().to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_fine_grained_and_positive() {
        // Spinning must show up as CPU time, well below a 10 ms tick.
        let (t, c0) = (std::time::Instant::now(), cpu_seconds());
        while cpu_seconds() - c0 < 0.002 && t.elapsed().as_secs() < 5 {
            std::hint::black_box(t.elapsed());
        }
        let used = cpu_seconds() - c0;
        assert!((0.002..0.01).contains(&used), "{used}");
        assert!(peak_rss_mb() > 0.0);
        assert!(nproc() >= 1);
    }
}
