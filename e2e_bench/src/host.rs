//! Host-side process figures from `/proc` (Linux only; zero elsewhere).

use std::fs;

fn status_field(path: &str, key: &str) -> Option<u64> {
    let text = fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_field("/proc/self/status", "VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// User + system CPU seconds of this process, all threads, including pool
/// workers that have already exited. `/proc` reports clock ticks; Linux
/// fixes `USER_HZ` at 100.
pub fn cpu_s() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th of the whole line, i.e. the 12th and 13th after it.
    let Some(tail) = stat.rsplit(')').next() else {
        return 0.0;
    };
    let f: Vec<&str> = tail.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|s| s.parse::<u64>().ok()).unwrap_or(0);
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// Context switches (voluntary + involuntary) of the calling thread — the
/// thread that runs the simulation kernel loop and blocks on the pool.
pub fn ctx_switches() -> u64 {
    let p = "/proc/thread-self/status";
    status_field(p, "voluntary_ctxt_switches:").unwrap_or(0)
        + status_field(p, "nonvoluntary_ctxt_switches:").unwrap_or(0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
