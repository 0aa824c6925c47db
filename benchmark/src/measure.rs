//! What one timed round yields, and how rounds become reported metrics.
//!
//! A run repeats fixed-size rounds on a fresh system until `--seconds` of
//! timed window have accumulated. Rates and costs are reported as the median
//! over rounds; latency percentiles pool every timed op of the run, except
//! the blocked 99th percentile of the workloads whose pooled tail is the
//! host's ([`BLOCKED_P99`]); peak RSS is the first round's, in the still-fresh
//! process.

use std::time::Instant;

/// Kernel clock ticks per second for `/proc/*/stat` (`USER_HZ`, 100 on
/// every Linux ABI; not queryable without libc).
const CLK_TCK: f64 = 100.0;

/// Process CPU time (user + system, all threads, dead ones included).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the line, i.e. the 12th and 13th after it.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after.split_whitespace().skip(11);
    let utime: f64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0.0);
    let stime: f64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0.0);
    (utime + stime) / CLK_TCK
}

/// Peak resident set size of this process so far, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Nearest-rank quantile of an unsorted sample (`q` in 0..=1).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Times `f` once, in microseconds.
pub fn time_us<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e6)
}

/// Median time of `iters` calls of `f`, in microseconds.
pub fn median_us<T>(iters: usize, mut f: impl FnMut(usize) -> T) -> f64 {
    let samples: Vec<f64> = (0..iters.max(1))
        .map(|i| {
            let (out, us) = time_us(|| f(i));
            std::hint::black_box(out);
            us
        })
        .collect();
    median(&samples)
}

/// One timed round of a workload: a fixed op count on a fresh system.
#[derive(Debug, Default, Clone)]
pub struct Round {
    /// Timed window, seconds (first op to the end of the final flush/drain).
    pub window_s: f64,
    /// Log entries that reached the workload's terminal stage in the window.
    pub entries: u64,
    /// Ops attempted and ops failed, refused, shed or lost.
    pub attempted: u64,
    pub failed: u64,
    /// Per-op latency samples, microseconds.
    pub lat_us: Vec<f64>,
    /// Process CPU consumed inside the window, seconds.
    pub cpu_s: f64,
    /// Bytes stored at the target for `entries` (store + disk where present).
    pub log_bytes: u64,
    /// Wall time driver threads spent busy-waiting, seconds.
    pub spin_s: f64,
    /// Peak RSS of the process from its start to the window's close, MB.
    pub peak_rss_mb: f64,
}

/// Brackets a round's timed window: wall clock, process CPU, peak RSS.
pub struct Window {
    started: Instant,
    cpu0: f64,
}

impl Window {
    pub fn open() -> Self {
        Window {
            cpu0: process_cpu_s(),
            started: Instant::now(),
        }
    }

    /// Closes the window into `round`.
    pub fn close(self, round: &mut Round) {
        round.window_s = self.started.elapsed().as_secs_f64();
        round.cpu_s = process_cpu_s() - self.cpu0;
        round.peak_rss_mb = peak_rss_mb();
    }
}

/// The end-to-end metrics of one run, from its rounds.
pub struct EndToEnd {
    pub setup_s: f64,
    pub entries_per_s: f64,
    pub op_p50_us: f64,
    pub op_p99_us: f64,
    pub cpu_ms_per_entry: f64,
    pub log_bytes_per_entry: f64,
    pub peak_rss_mb: f64,
    pub samples: usize,
}

impl EndToEnd {
    /// The metric `name` of `spec::END_TO_END`.
    pub fn value(&self, name: &str) -> f64 {
        match name {
            "setup_s" => self.setup_s,
            "entries_per_s" => self.entries_per_s,
            "op_p50_us" => self.op_p50_us,
            "op_p99_us" => self.op_p99_us,
            "cpu_ms_per_entry" => self.cpu_ms_per_entry,
            "log_bytes_per_entry" => self.log_bytes_per_entry,
            "peak_rss_mb" => self.peak_rss_mb,
            other => unreachable!("{other} is not an end-to-end metric"),
        }
    }
}

/// Workloads with no periodic stall of their own (no seal, no consistency
/// proof). The slowest 1 % of their ops over a whole run are the host's:
/// stretches of 10–60 ms in which it took one of the two cores and every
/// `cluster_bft` op read double, a halted core woken late under a
/// `proto_small` hand-off; 0.5–4.5 % of ops from run to run, so a pooled 99th
/// percentile stands on that cliff and reads its foot or its top (README,
/// "The blocked 99th percentile"). Theirs is taken block by block instead.
pub const BLOCKED_P99: [&str; 2] = ["proto_small", "cluster_bft"];

/// Timed ops per block: the 99th percentile of 100 is the second slowest.
const P99_BLOCK: usize = 100;

/// The lower quartile, over blocks of [`P99_BLOCK`] consecutive samples of a
/// round, of each block's 99th percentile: the tail of the quarter of the
/// run the host disturbed least. A stall on every 50th op or oftener is
/// twice in every block and moves it; bursts that hit under three blocks in
/// four do not. `None` when no round holds a full block.
fn blocked_p99(rounds: &[Round]) -> Option<f64> {
    let blocks: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.lat_us.chunks_exact(P99_BLOCK))
        .map(|block| quantile(block, 0.99))
        .collect();
    (!blocks.is_empty()).then(|| quantile(&blocks, 0.25))
}

/// `blocked`: `op_p99_us` is the [`blocked_p99`] where there is one.
pub fn end_to_end(setups_s: &[f64], rounds: &[Round], blocked: bool) -> EndToEnd {
    let per_round =
        |f: &dyn Fn(&Round) -> f64| -> f64 { median(&rounds.iter().map(f).collect::<Vec<_>>()) };
    let pooled: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.lat_us.iter().copied())
        .collect();
    EndToEnd {
        setup_s: median(setups_s),
        entries_per_s: per_round(&|r| r.entries as f64 / r.window_s),
        op_p50_us: quantile(&pooled, 0.50),
        op_p99_us: blocked
            .then(|| blocked_p99(rounds))
            .flatten()
            .unwrap_or_else(|| quantile(&pooled, 0.99)),
        cpu_ms_per_entry: per_round(&|r| r.cpu_s * 1e3 / r.entries.max(1) as f64),
        log_bytes_per_entry: per_round(&|r| r.log_bytes as f64 / r.entries.max(1) as f64),
        // The first round alone: later rounds run in a process that still
        // holds what earlier rounds and their gates allocated, so their peaks
        // measure the allocator's retention, not the workload.
        peak_rss_mb: rounds.first().map_or(0.0, |r| r.peak_rss_mb),
        samples: pooled.len(),
    }
}
