//! Process facts read from `/proc`: per-thread CPU time, split into the
//! daemon's threads (`tred-*`) and everything else (the load generator),
//! and the resident-set high-water mark.

use std::collections::BTreeMap;
use std::fs;

extern "C" {
    fn sysconf(name: i32) -> i64;
}

/// `_SC_CLK_TCK` on Linux.
const SC_CLK_TCK: i32 = 2;

fn clock_ticks_per_s() -> f64 {
    // SAFETY: sysconf only reads a configuration value; any name is
    // accepted and an unknown one returns -1.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    if ticks > 0 {
        ticks as f64
    } else {
        100.0
    }
}

/// `(name, utime + stime ticks)` from one `stat` file.
fn parse_stat(text: &str) -> Option<(String, u64)> {
    let open = text.find('(')?;
    let close = text.rfind(')')?;
    let name = text[open + 1..close].to_string();
    let fields: Vec<&str> = text[close + 2..].split_whitespace().collect();
    // After the name: state is field 3; utime and stime are 14 and 15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((name, utime + stime))
}

/// Whether a thread belongs to the daemon under test.
pub fn is_daemon_thread(name: &str) -> bool {
    name.starts_with("tred-")
}

/// Whether a daemon thread serves sockets (shards and accept), as
/// opposed to the epoch ticker.
pub fn is_serve_thread(name: &str) -> bool {
    name.starts_with("tred-shard-") || name == "tred-accept"
}

/// Live threads of this process: tid → (name, CPU ticks).
pub fn threads() -> BTreeMap<u64, (String, u64)> {
    let mut out = BTreeMap::new();
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Ok(tid) = entry.file_name().to_string_lossy().parse::<u64>() else {
            continue;
        };
        if let Some(stat) = fs::read_to_string(entry.path().join("stat"))
            .ok()
            .and_then(|t| parse_stat(&t))
        {
            out.insert(tid, stat);
        }
    }
    out
}

/// Threads alive now that are not the daemon's.
pub fn loadgen_thread_count() -> usize {
    threads()
        .values()
        .filter(|(name, _)| !is_daemon_thread(name))
        .count()
}

/// A CPU-time snapshot: the whole process (exited threads included)
/// and each live thread.
#[derive(Debug, Clone)]
pub struct CpuMark {
    process: u64,
    threads: BTreeMap<u64, (String, u64)>,
}

impl CpuMark {
    pub fn now() -> Self {
        let process = fs::read_to_string("/proc/self/stat")
            .ok()
            .and_then(|t| parse_stat(&t))
            .map_or(0, |(_, ticks)| ticks);
        Self {
            process,
            threads: threads(),
        }
    }

    /// CPU spent between `self` and `later`, split by thread role.
    pub fn until(&self, later: &CpuMark) -> CpuSplit {
        let tick = clock_ticks_per_s();
        let mut daemon = 0u64;
        let mut serve = 0u64;
        for (tid, (name, ticks)) in &later.threads {
            if !is_daemon_thread(name) {
                continue;
            }
            let before = self.threads.get(tid).map_or(0, |(_, t)| *t);
            let delta = ticks.saturating_sub(before);
            daemon += delta;
            if is_serve_thread(name) {
                serve += delta;
            }
        }
        let process = later.process.saturating_sub(self.process);
        CpuSplit {
            process_s: process as f64 / tick,
            daemon_s: daemon as f64 / tick,
            serve_s: serve as f64 / tick,
            loadgen_s: process.saturating_sub(daemon) as f64 / tick,
        }
    }
}

/// CPU seconds over one phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuSplit {
    /// Every thread of the process.
    pub process_s: f64,
    /// `tred-*` threads.
    pub daemon_s: f64,
    /// `tred-shard-*` and `tred-accept` threads.
    pub serve_s: f64,
    /// Everything that is not the daemon: the load generator.
    pub loadgen_s: f64,
}

/// `VmHWM` in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parse_handles_spaces_and_parens_in_names() {
        let line = "42 (tred-shard-0) S 1 2 3 4 5 6 7 8 9 10 250 17 0 0 20 0 1";
        assert_eq!(parse_stat(line), Some(("tred-shard-0".into(), 267)));
        let odd = "7 (a (b) c) R 1 2 3 4 5 6 7 8 9 10 3 4 0";
        assert_eq!(parse_stat(odd), Some(("a (b) c".into(), 7)));
    }

    #[test]
    fn thread_roles() {
        assert!(is_daemon_thread("tred-ticker"));
        assert!(!is_serve_thread("tred-ticker"));
        assert!(is_serve_thread("tred-accept"));
        assert!(is_serve_thread("tred-shard-3"));
        assert!(!is_daemon_thread("loadgen-1"));
        assert!(!CpuMark::now().threads.is_empty());
    }
}
