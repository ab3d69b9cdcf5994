//! The host descriptor stamped into every result, and the environment
//! pinning that keeps the program's own knobs out of the measurement.

use crate::report::json_string;

/// Environment variables the program reads that would change what a run
/// measures: tracing, the simulation watchdog, the sweep pool size and
/// retries, fault injection and the bench scale profile.
const PROGRAM_KNOBS: [&str; 6] = [
    "ULMT_TRACE",
    "ULMT_CYCLE_BUDGET",
    "ULMT_WORKERS",
    "ULMT_RETRIES",
    "ULMT_FAULT_SEED",
    "ULMT_SCALE",
];

/// Clears every program knob and returns the ones that were set. Must
/// run before the benchmark starts any thread.
pub fn pin_environment() -> Vec<String> {
    let mut cleared = Vec::new();
    for var in PROGRAM_KNOBS {
        if let Some(v) = std::env::var_os(var) {
            cleared.push(format!("{var}={}", v.to_string_lossy()));
            std::env::remove_var(var);
        }
    }
    cleared
}

/// Where and how a result was produced.
#[derive(Debug)]
pub struct Host {
    cores: usize,
    cpu_model: String,
    git_rev: String,
    cleared_env: Vec<String>,
}

impl Host {
    pub fn detect(cleared_env: Vec<String>) -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Host {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            git_rev: git_rev().unwrap_or_else(|| "unknown".to_string()),
            cleared_env,
        }
    }

    pub fn json(&self) -> String {
        format!(
            "{{\"cores\": {}, \"cpu_model\": {}, \"profile\": \"mid\", \"build\": {}, \"git_rev\": {}, \"cleared_env\": [{}]}}",
            self.cores,
            json_string(&self.cpu_model),
            json_string(if cfg!(debug_assertions) { "debug" } else { "release" }),
            json_string(&self.git_rev),
            self.cleared_env
                .iter()
                .map(|s| json_string(s))
                .collect::<Vec<_>>()
                .join(", ")
        )
    }
}

/// The commit checked out in the working directory, read from `.git`
/// there (never from a parent directory). `None` outside a git checkout.
fn git_rev() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(rev.trim().to_string());
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()?
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
}

/// A reading of the guest's CPU-time counters (`/proc/stat`, all CPUs).
#[derive(Debug, Clone, Copy)]
pub struct CpuTicks {
    steal: u64,
    total: u64,
}

impl CpuTicks {
    /// Reads the counters; `None` where `/proc/stat` is unavailable.
    pub fn now() -> Option<CpuTicks> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        let fields: Vec<u64> = stat
            .lines()
            .next()?
            .strip_prefix("cpu ")?
            .split_whitespace()
            .map(|f| f.parse().ok())
            .collect::<Option<_>>()?;
        // user nice system idle iowait irq softirq steal [guest guest_nice],
        // where guest time is already counted in user time.
        Some(CpuTicks {
            steal: *fields.get(7)?,
            total: fields.iter().take(8).sum(),
        })
    }

    /// Share of all vCPU time since `self` that was stolen (0 when the
    /// counters are unavailable or did not advance).
    pub fn steal_share_since(self) -> f64 {
        match CpuTicks::now() {
            Some(now) if now.total > self.total => {
                (now.steal - self.steal) as f64 / (now.total - self.total) as f64
            }
            _ => 0.0,
        }
    }
}

/// Splits timed rounds into the untraced rounds end-to-end numbers come
/// from and the traced rounds the tracing overhead is measured on.
pub fn split<T>(rounds: &[T], traced: impl Fn(&T) -> bool) -> (Vec<&T>, Vec<&T>) {
    rounds.iter().partition(|r| !traced(r))
}

/// Per-layer metrics of host interference: the median share of vCPU time
/// the hypervisor stole during the timed rounds, and how many rounds were
/// timed.
pub fn report_steal(report: &mut crate::report::Report, steal: &[f64]) {
    report.layer("host.steal_frac", crate::stats::median(steal), "frac");
    report.count("rounds.timed", steal.len() as u64);
}

/// Reports `peak_rss_mb`, to be called once set-up and the warm-up round
/// are done: by then the workload's whole footprint exists.
pub fn report_peak_rss(report: &mut crate::report::Report) {
    report.e2e("peak_rss_mb", peak_rss_mb(), "MB");
}

/// Timed rounds, after the first, over which `rss.growth_mb` is measured.
const RSS_GROWTH_ROUNDS: usize = 3;
/// Fewest timed rounds a run needs to report `rss.growth_mb`.
pub const RSS_MIN_ROUNDS: usize = 1 + RSS_GROWTH_ROUNDS;

/// Follows peak RSS across the timed rounds and reports `rss.growth_mb`:
/// how far it rose over [`RSS_GROWTH_ROUNDS`] rounds after the first. The
/// first is left out because it is the first to repeat set-up next to
/// the inputs in use. Every later round repeats the same work, so memory
/// kept per round (a leaked table, thread or journal buffer) shows here;
/// allocator noise and a traced run's own span buffers stay within a few
/// MB.
#[derive(Debug, Default)]
pub struct RssGrowth {
    base: f64,
}

impl RssGrowth {
    /// To be called after every timed round; `done` counts the timed
    /// rounds so far.
    pub fn after_round(&mut self, report: &mut crate::report::Report, done: usize) {
        if done == 1 {
            self.base = peak_rss_mb();
        } else if done == RSS_MIN_ROUNDS {
            report.layer("rss.growth_mb", peak_rss_mb() - self.base, "MB");
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_separates_untraced_from_traced_rounds() {
        let rounds = [(1, false), (2, true), (3, false), (4, true)];
        let (untraced, traced) = split(&rounds, |r| r.1);
        assert_eq!(untraced, vec![&(1, false), &(3, false)]);
        assert_eq!(traced, vec![&(2, true), &(4, true)]);
    }

    #[test]
    fn cpu_ticks_read_and_share_is_a_fraction() {
        if let Some(t) = CpuTicks::now() {
            let share = t.steal_share_since();
            assert!((0.0..=1.0).contains(&share));
        }
    }
}
