//! CPU accounting.
//!
//! The paper measures per-node CPU utilization with `top` (each ROS node is
//! a Linux process). Our components are threads of one process, so we
//! attribute CPU by *thread name*: every thread working for node `X` is
//! named with a `X`-bearing prefix (`dr-X` driver, `sr-X` subscriber reader,
//! `pr-X` ack reader, `pa-X` accept loop, `lg-X` logging thread), and
//! [`ThreadCpuProbe`] sums `utime+stime` from `/proc/self/task/*/stat` over
//! matching threads. Process-wide utilization (Table II) comes from
//! `/proc/self/stat`.

use std::fs;
use std::time::Instant;

/// Clock ticks per second (`sysconf(_SC_CLK_TCK)` is 100 on stock Linux).
const CLK_TCK: f64 = 100.0;

/// Reads `utime + stime` (in clock ticks) from a `stat`-format line.
/// Returns `None` on parse failure.
fn ticks_from_stat(content: &str) -> Option<u64> {
    // Fields after the comm field, which is parenthesized and may contain
    // spaces: split at the last ')'.
    let rest = &content[content.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // Field 14 (utime) and 15 (stime) are index 11 and 12 after the comm.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// CPU seconds consumed so far by this whole process.
pub fn process_cpu_seconds() -> f64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| ticks_from_stat(&s))
        .map_or(0.0, |t| t as f64 / CLK_TCK)
}

/// CPU seconds consumed so far by threads whose name starts with any of the
/// given prefixes. Thread names come from `/proc/self/task/<tid>/comm`
/// (truncated to 15 characters by the kernel — prefixes are truncated to
/// match).
pub fn thread_cpu_seconds(prefixes: &[String]) -> f64 {
    let mut total_ticks = 0u64;
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    for task in tasks.flatten() {
        let path = task.path();
        let Ok(comm) = fs::read_to_string(path.join("comm")) else {
            continue;
        };
        let comm = comm.trim_end();
        let matched = prefixes.iter().any(|p| {
            let p15 = &p[..p.len().min(15)];
            comm.starts_with(p15)
        });
        if !matched {
            continue;
        }
        if let Ok(stat) = fs::read_to_string(path.join("stat")) {
            if let Some(t) = ticks_from_stat(&stat) {
                total_ticks += t;
            }
        }
    }
    total_ticks as f64 / CLK_TCK
}

/// Number of logical CPUs.
pub fn cpu_count() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Measures process-wide CPU utilization over a window (Table II's
/// quantity: percent of one core; divide by [`cpu_count`] for
/// percent-of-machine).
#[derive(Debug)]
pub struct CpuProbe {
    start_cpu: f64,
    start_wall: Instant,
}

impl Default for CpuProbe {
    fn default() -> Self {
        Self::start()
    }
}

impl CpuProbe {
    /// Begins a measurement window.
    #[allow(
        clippy::disallowed_methods,
        reason = "a CPU-utilization probe measures physical time; it feeds reports, never \
                  protocol decisions"
    )]
    pub fn start() -> Self {
        CpuProbe {
            start_cpu: process_cpu_seconds(),
            start_wall: Instant::now(),
        }
    }

    /// CPU utilization since start, in percent of one core (can exceed 100
    /// on multicore).
    pub fn utilization_percent(&self) -> f64 {
        let wall = self.start_wall.elapsed().as_secs_f64();
        if wall <= 0.0 {
            return 0.0;
        }
        (process_cpu_seconds() - self.start_cpu) / wall * 100.0
    }

    /// Utilization as percent of the whole machine (all cores = 100%).
    pub fn utilization_percent_of_machine(&self) -> f64 {
        self.utilization_percent() / cpu_count() as f64
    }
}

/// Measures CPU attributed to one node's threads over a window.
#[derive(Debug)]
pub struct ThreadCpuProbe {
    prefixes: Vec<String>,
    start_cpu: f64,
    start_wall: Instant,
}

impl ThreadCpuProbe {
    /// Begins a window over threads named with any of the standard
    /// per-node prefixes for `node_id`.
    pub fn for_node(node_id: &str) -> Self {
        let prefixes = ["dr-", "sr-", "pr-", "pa-", "lg-"]
            .iter()
            .map(|p| format!("{p}{node_id}"))
            .collect();
        Self::with_prefixes(prefixes)
    }

    /// Begins a window over threads with explicit name prefixes.
    #[allow(
        clippy::disallowed_methods,
        reason = "a CPU-utilization probe measures physical time; it feeds reports, never \
                  protocol decisions"
    )]
    pub fn with_prefixes(prefixes: Vec<String>) -> Self {
        let start_cpu = thread_cpu_seconds(&prefixes);
        ThreadCpuProbe {
            prefixes,
            start_cpu,
            start_wall: Instant::now(),
        }
    }

    /// CPU utilization of the matched threads, percent of one core.
    ///
    /// Note: threads that exited during the window stop contributing (their
    /// accumulated time vanishes from `/proc`); keep nodes alive across the
    /// measurement window.
    pub fn utilization_percent(&self) -> f64 {
        let wall = self.start_wall.elapsed().as_secs_f64();
        if wall <= 0.0 {
            return 0.0;
        }
        let now = thread_cpu_seconds(&self.prefixes);
        ((now - self.start_cpu).max(0.0)) / wall * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[allow(
        clippy::disallowed_methods,
        reason = "the probe under test measures physical time, so the load it reads must burn \
                  a wall-clock span"
    )]
    fn burn(ms: u64) {
        let end = Instant::now() + Duration::from_millis(ms);
        let mut x = 0u64;
        while Instant::now() < end {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        }
        std::hint::black_box(x);
    }

    #[test]
    fn stat_parsing_handles_spaces_in_comm() {
        let line = "1234 (weird name) R 1 1 1 0 -1 4194560 1 0 0 0 250 50 0 0 20 0 1 0 100 0 0";
        assert_eq!(ticks_from_stat(line), Some(300));
        assert_eq!(ticks_from_stat("garbage"), None);
    }

    #[test]
    fn process_probe_sees_cpu_burn() {
        let probe = CpuProbe::start();
        burn(300);
        let pct = probe.utilization_percent();
        assert!(pct > 20.0, "expected busy process, got {pct}%");
    }

    #[test]
    fn thread_probe_attributes_by_name() {
        let probe = ThreadCpuProbe::with_prefixes(vec!["dr-testnode".into()]);
        let busy = std::thread::Builder::new()
            .name("dr-testnode".into())
            .spawn(|| burn(400))
            .unwrap();
        // An unrelated thread that must NOT be attributed.
        let other = std::thread::Builder::new()
            .name("dr-othernode".into())
            .spawn(|| burn(400))
            .unwrap();
        std::thread::sleep(Duration::from_millis(350));
        let pct = probe.utilization_percent();
        busy.join().unwrap();
        other.join().unwrap();
        assert!(pct > 20.0, "attributed thread busy, got {pct}%");
        assert!(
            pct < 190.0,
            "only one thread should be attributed, got {pct}%"
        );
    }

    #[test]
    fn cpu_count_positive() {
        assert!(cpu_count() >= 1);
    }
}
