//! What the benchmark reads about its own process and its host: CPU time,
//! resident set, CPU steal, and the facts recorded with every run so a slow
//! run can be traced to the host rather than the code.

use std::path::Path;
use std::time::Instant;

/// Clock ticks per second of `/proc` CPU times on Linux.
const CLK_TCK: f64 = 100.0;

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// User plus system CPU seconds of this process, every thread included.
pub fn process_cpu_s() -> f64 {
    let stat = read("/proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the line, the 12th and 13th after it.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<f64> = after
        .split_whitespace()
        .map(|f| f.parse().unwrap_or(0.0))
        .collect();
    (fields.get(11).unwrap_or(&0.0) + fields.get(12).unwrap_or(&0.0)) / CLK_TCK
}

/// Host-wide `(steal, busy)` CPU ticks from `/proc/stat`, where busy is
/// user + nice + system + irq + softirq + steal. Idle and iowait are left
/// out: steal only builds up while a vCPU has work to run, so its share of
/// all time would grow with how busy the program keeps the CPUs.
fn host_ticks() -> (f64, f64) {
    let stat = read("/proc/stat");
    let ticks: Vec<f64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().unwrap_or(0.0))
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already counted in user.
    let tick = |i: usize| ticks.get(i).copied().unwrap_or(0.0);
    let busy: f64 = [0, 1, 2, 5, 6, 7].into_iter().map(tick).sum();
    (tick(7), busy)
}

/// Peak resident set of this process, in MB of 10^6 bytes (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    read("/proc/self/status")
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}

/// Resets the peak resident set to the current one, so the peak read at the
/// end covers the timed region only.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// CPU usage over a stretch of the run: process CPU, wall time and host
/// steal between [`CpuWindow::start`] and [`CpuWindow::finish`].
#[derive(Debug, Clone, Copy)]
pub struct CpuWindow {
    wall: Instant,
    cpu_s: f64,
    ticks: (f64, f64),
}

/// The readings of a finished [`CpuWindow`].
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuUse {
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Share of the host's busy CPU time stolen by the hypervisor, in
    /// percent: how much longer than its CPU time a running thread took.
    pub steal_pct: f64,
}

impl CpuUse {
    /// Process CPU over wall time times cores: how busy the shim's threads
    /// kept the machine.
    pub fn cpu_util(&self) -> f64 {
        self.cpu_s / (self.wall_s * cores() as f64).max(1e-9)
    }
}

impl CpuWindow {
    pub fn start() -> Self {
        Self {
            wall: Instant::now(),
            cpu_s: process_cpu_s(),
            ticks: host_ticks(),
        }
    }

    pub fn finish(&self) -> CpuUse {
        let (steal, busy) = host_ticks();
        let steal_pct = 100.0 * (steal - self.ticks.0) / (busy - self.ticks.1).max(1.0);
        CpuUse {
            wall_s: self.wall.elapsed().as_secs_f64(),
            cpu_s: process_cpu_s() - self.cpu_s,
            steal_pct,
        }
    }
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn cpu_model() -> String {
    read("/proc/cpuinfo")
        .lines()
        .find_map(|line| line.strip_prefix("model name"))
        .and_then(|rest| rest.split_once(':'))
        .map_or_else(
            || "unknown".to_string(),
            |(_, name)| name.trim().to_string(),
        )
}

/// The commit of the checkout, read from `.git` when the checkout is a git
/// repository; `unknown` otherwise.
pub fn commit() -> String {
    let git = Path::new(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".to_string()
        } else {
            head.to_string()
        };
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .unwrap_or_default()
        .lines()
        .find_map(|line| {
            line.strip_suffix(reference)?
                .split_whitespace()
                .next()
                .map(String::from)
        })
        .unwrap_or_else(|| "unknown".to_string())
}
