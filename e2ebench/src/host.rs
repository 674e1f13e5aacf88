//! Process and host accounting read from `/proc`.

use std::fs;

/// Clock ticks per second of `/proc` CPU times (Linux `USER_HZ`).
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU time of process `pid` (`"self"` for this one), in ms.
pub fn cpu_ms(pid: &str) -> Option<f64> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name (which may hold spaces):
    // state is field 3, utime field 14, stime field 15.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) * 1000.0 / TICKS_PER_S)
}

/// Peak resident set size (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Aggregate CPU jiffies from `/proc/stat`: `(steal, total)`.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let vals: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user, so it is left out of the total.
    let total = vals.iter().take(8).sum();
    Some((vals.get(7).copied().unwrap_or(0), total))
}

/// Share of host CPU time stolen by the hypervisor between two
/// [`cpu_jiffies`] readings.
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            s1.saturating_sub(s0) as f64 / (t1 - t0) as f64
        }
        _ => 0.0,
    }
}

/// Hardware threads of the host (`/proc/cpuinfo`), whatever CPUs this
/// process is pinned to.
pub fn hardware_threads() -> usize {
    fs::read_to_string("/proc/cpuinfo")
        .map(|c| c.lines().filter(|l| l.starts_with("processor")).count())
        .ok()
        .filter(|&n| n > 0)
        .unwrap_or_else(pinned_cpus)
}

/// CPUs this process may run on.
pub fn pinned_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn this_process_is_visible() {
        assert!(cpu_ms("self").is_some_and(|ms| ms >= 0.0));
        assert!(peak_rss_mb("self").is_some_and(|mb| mb > 0.0));
        let (steal, total) = cpu_jiffies().expect("/proc/stat readable");
        assert!(steal <= total);
        assert!(hardware_threads() >= pinned_cpus());
        assert_eq!(steal_share(Some((1, 10)), Some((3, 30))), 0.1);
        assert_eq!(steal_share(None, Some((3, 30))), 0.0);
    }
}
