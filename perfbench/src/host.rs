//! What the benchmark reads about its own process and host from `/proc`.

use std::fs;

/// Clock ticks per second of the `utime`/`stime` fields in
/// `/proc/<pid>/stat`: the kernel's `USER_HZ`, fixed at 100 in the Linux
/// user-space ABI.
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds this process has used so far, across all
/// of its threads.
pub fn process_cpu_s() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; the fields after its
    // closing parenthesis start at field 3 (`state`).
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |field: usize| -> f64 {
        fields
            .get(field - 3)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(14) + ticks(15)) / USER_HZ
}

/// `(steal, total)` CPU ticks of the whole host since boot, from the
/// `cpu` line of `/proc/stat`.
pub fn steal_ticks() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .map(|rest| {
            rest.split_whitespace()
                .filter_map(|v| v.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    // user nice system idle iowait irq softirq steal [guest guest_nice],
    // where guest time is already counted in user.
    let total = fields.iter().take(8).sum();
    (fields.get(7).copied().unwrap_or(0), total)
}

/// A `kB` field of `/proc/self/status`, in kibibytes.
fn status_kb(field: &str) -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
}

/// The process's peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").unwrap_or(0.0) / 1024.0
}

/// The 1-minute load average.
pub fn loadavg_1m() -> f64 {
    fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0.0)
}

/// CPUs this process may run on (what `nproc` prints), from the
/// `Cpus_allowed_list` ranges in `/proc/self/status`.
pub fn nproc() -> usize {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    let list = status
        .lines()
        .find_map(|line| line.strip_prefix("Cpus_allowed_list:"))
        .unwrap_or("")
        .trim();
    let count: usize = list
        .split(',')
        .filter(|r| !r.is_empty())
        .map(|range| match range.split_once('-') {
            Some((lo, hi)) => {
                let lo: usize = lo.trim().parse().unwrap_or(0);
                let hi: usize = hi.trim().parse().unwrap_or(lo);
                hi.saturating_sub(lo) + 1
            }
            None => 1,
        })
        .sum();
    count.max(1)
}

/// The first `model name` in `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The host facts recorded with every result.
#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    pub available_parallelism: usize,
    pub cpu_model: String,
    pub loadavg_start: f64,
    pub loadavg_end: f64,
}

impl Host {
    /// Reads everything but the end-of-run load average.
    pub fn at_start() -> Host {
        Host {
            nproc: nproc(),
            available_parallelism: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            cpu_model: cpu_model(),
            loadavg_start: loadavg_1m(),
            loadavg_end: 0.0,
        }
    }

    /// Whether the host was already saturated when the run started: such
    /// runs are flagged, not failed, since their numbers prove nothing
    /// about the program.
    pub fn oversubscribed(&self) -> bool {
        self.loadavg_start >= self.nproc as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        let spin: u64 = (0..2_000_000u64).fold(0, |a, b| a.wrapping_add(b * b));
        std::hint::black_box(spin);
        assert!(process_cpu_s() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
        assert!(nproc() >= 1);
        assert!(!cpu_model().is_empty());
    }
}
