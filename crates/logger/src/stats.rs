//! Log-volume accounting.
//!
//! Reproduces the measurements behind the paper's Figure 15 (per-topic log
//! generation rates) and Table IV (system-wide rate): every accepted entry
//! adds its encoded size to global, per-topic, and per-component counters,
//! and rates are derived over an observation window.

use adlp_pubsub::{NodeId, Topic};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Delivery and outage counters for one [`crate::RemoteLogClient`].
///
/// The invariant the fault-injection tests lean on: every submitted entry
/// ends up either `delivered` (written to the server socket), still
/// `buffered`, or `spilled` — nothing vanishes unaccounted during an
/// outage.
#[derive(Debug, Default)]
pub struct ClientStats {
    submitted: AtomicU64,
    delivered: AtomicU64,
    buffered: AtomicU64,
    spilled: AtomicU64,
    reconnects: AtomicU64,
    connected: AtomicBool,
    breaker_trips: AtomicU64,
    breaker_closes: AtomicU64,
}

/// A point-in-time copy of [`ClientStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClientStatsSnapshot {
    /// Entries handed to the client.
    pub submitted: u64,
    /// Entries fully written to the server socket.
    pub delivered: u64,
    /// Entries currently held in the outage buffer.
    pub buffered: u64,
    /// Entries dropped because the outage buffer was full.
    pub spilled: u64,
    /// Successful re-establishments after an outage.
    pub reconnects: u64,
    /// Whether the socket is currently believed up.
    pub connected: bool,
    /// Circuit-breaker trips (Closed→Open and HalfOpen→Open) recorded
    /// against this client by whoever wraps it in a breaker.
    pub breaker_trips: u64,
    /// Circuit-breaker closes (HalfOpen→Closed) recorded against this
    /// client.
    pub breaker_closes: u64,
}

impl ClientStats {
    pub(crate) fn note_submitted(&self) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_delivered(&self) {
        self.delivered.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn set_buffered(&self, n: u64) {
        self.buffered.store(n, Ordering::Relaxed);
    }

    pub(crate) fn note_spilled(&self) {
        self.spilled.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_reconnected(&self) {
        self.reconnects.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn set_connected(&self, up: bool) {
        self.connected.store(up, Ordering::SeqCst);
    }

    /// Counts a circuit-breaker trip (Closed→Open or HalfOpen→Open)
    /// observed against this client. Public: the breaker wrapping a remote
    /// replica lives in the caller (e.g. `adlp-cluster`), not here.
    pub fn note_breaker_trip(&self) {
        self.breaker_trips.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a circuit-breaker close (HalfOpen→Closed) observed against
    /// this client.
    pub fn note_breaker_close(&self) {
        self.breaker_closes.fetch_add(1, Ordering::Relaxed);
    }

    /// Copies the current counter values.
    pub fn snapshot(&self) -> ClientStatsSnapshot {
        ClientStatsSnapshot {
            submitted: self.submitted.load(Ordering::Relaxed),
            delivered: self.delivered.load(Ordering::Relaxed),
            buffered: self.buffered.load(Ordering::Relaxed),
            spilled: self.spilled.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
            connected: self.connected.load(Ordering::SeqCst),
            breaker_trips: self.breaker_trips.load(Ordering::Relaxed),
            breaker_closes: self.breaker_closes.load(Ordering::Relaxed),
        }
    }
}

/// Shared durability counters: storage-layer failures are *counted*, never
/// silently discarded. Cloning shares the underlying atomics, so the same
/// counters can live inside a [`LogStats`], a `DurabilityConfig`, and a
/// cluster's aggregate view simultaneously.
#[derive(Debug, Clone, Default)]
pub struct DurabilityStats {
    fsync_failures: Arc<AtomicU64>,
    wal_append_failures: Arc<AtomicU64>,
    records_truncated: Arc<AtomicU64>,
}

impl DurabilityStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts a sync (or snapshot-replace) the device refused.
    pub fn note_fsync_failure(&self) {
        self.fsync_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a WAL append that failed outright (e.g. a torn write).
    pub fn note_wal_append_failure(&self) {
        self.wal_append_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts records lost to torn/corrupt tails during recovery.
    pub fn note_records_truncated(&self, n: u64) {
        self.records_truncated.fetch_add(n, Ordering::Relaxed);
    }

    /// Syncs/snapshot replaces the device refused so far.
    pub fn fsync_failures(&self) -> u64 {
        self.fsync_failures.load(Ordering::Relaxed)
    }

    /// WAL appends that failed outright so far.
    pub fn wal_append_failures(&self) -> u64 {
        self.wal_append_failures.load(Ordering::Relaxed)
    }

    /// Records lost to torn/corrupt tails across all recoveries so far.
    pub fn records_truncated(&self) -> u64 {
        self.records_truncated.load(Ordering::Relaxed)
    }
}

/// Thread-safe byte/entry counters.
#[derive(Debug, Clone)]
pub struct LogStats {
    inner: Arc<Mutex<StatsInner>>,
    durability: DurabilityStats,
}

#[derive(Debug, Default)]
struct StatsInner {
    total_entries: u64,
    total_bytes: u64,
    lost: u64,
    shed: u64,
    queue_high_water: u64,
    by_topic: HashMap<Topic, (u64, u64)>,
    by_component: HashMap<NodeId, (u64, u64)>,
}

/// A point-in-time view of accumulated volume.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VolumeSnapshot {
    /// Entries accepted.
    pub entries: u64,
    /// Encoded bytes accepted.
    pub bytes: u64,
    /// Entries submitted after the server died — dropped by design ("any
    /// failure at the log server does not interrupt a normal operation of
    /// the ROS nodes", §V-B) but counted so the loss is observable.
    pub lost: u64,
    /// Entries refused by the server's bounded deposit queue (admission
    /// control under overload) — counted, never silent.
    pub shed: u64,
    /// Deepest the server's deposit backlog ever got (queued fire-and-forget
    /// appends); stays at or below the configured queue bound.
    pub queue_high_water: u64,
    /// WAL syncs / snapshot replaces the storage device refused.
    pub fsync_failures: u64,
    /// WAL appends that failed outright (e.g. torn writes).
    pub wal_append_failures: u64,
    /// Records lost to torn/corrupt tails during recovery.
    pub records_truncated: u64,
    /// Per-topic `(entries, bytes)`.
    pub by_topic: Vec<(Topic, u64, u64)>,
    /// Per-component `(entries, bytes)`.
    pub by_component: Vec<(NodeId, u64, u64)>,
}

impl VolumeSnapshot {
    /// Bytes for one topic.
    pub fn topic_bytes(&self, topic: &Topic) -> u64 {
        self.by_topic
            .iter()
            .find(|(t, _, _)| t == topic)
            .map_or(0, |&(_, _, b)| b)
    }

    /// Megabits per second over `elapsed` (the paper reports Mb/s).
    pub fn rate_mbps(&self, elapsed: std::time::Duration) -> f64 {
        if elapsed.is_zero() {
            return 0.0;
        }
        (self.bytes as f64 * 8.0) / 1_000_000.0 / elapsed.as_secs_f64()
    }
}

impl Default for LogStats {
    fn default() -> Self {
        Self::with_durability(DurabilityStats::default())
    }
}

impl LogStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates counters whose durability side is shared with `durability`
    /// (a durable server shares one set with its `DurabilityConfig`).
    pub fn with_durability(durability: DurabilityStats) -> Self {
        Self {
            // `Arc::new`, not `Arc::default()`, so this lock's debug-build
            // class is this line rather than a line inside std.
            inner: Arc::new(Mutex::default()),
            durability,
        }
    }

    /// The shared durability counters.
    pub fn durability(&self) -> &DurabilityStats {
        &self.durability
    }

    /// Records an accepted entry of `bytes` encoded bytes.
    pub fn record(&self, component: &NodeId, topic: &Topic, bytes: usize) {
        let mut s = self.inner.lock();
        s.total_entries += 1;
        s.total_bytes += bytes as u64;
        let t = s.by_topic.entry(topic.clone()).or_default();
        t.0 += 1;
        t.1 += bytes as u64;
        let c = s.by_component.entry(component.clone()).or_default();
        c.0 += 1;
        c.1 += bytes as u64;
    }

    /// Counts an entry that could not reach the (dead) server.
    pub(crate) fn note_lost(&self) {
        self.inner.lock().lost += 1;
    }

    /// Counts an entry refused by the server's bounded deposit queue.
    pub(crate) fn note_shed(&self) {
        self.inner.lock().shed += 1;
    }

    /// Tracks the deepest observed deposit backlog.
    pub(crate) fn note_queue_depth(&self, depth: u64) {
        let mut s = self.inner.lock();
        if depth > s.queue_high_water {
            s.queue_high_water = depth;
        }
    }

    /// Copies the counters (sorted for determinism).
    pub fn snapshot(&self) -> VolumeSnapshot {
        let s = self.inner.lock();
        let mut by_topic: Vec<_> = s
            .by_topic
            .iter()
            .map(|(t, &(n, b))| (t.clone(), n, b))
            .collect();
        by_topic.sort_by(|a, b| a.0.cmp(&b.0));
        let mut by_component: Vec<_> = s
            .by_component
            .iter()
            .map(|(c, &(n, b))| (c.clone(), n, b))
            .collect();
        by_component.sort_by(|a, b| a.0.cmp(&b.0));
        VolumeSnapshot {
            entries: s.total_entries,
            bytes: s.total_bytes,
            lost: s.lost,
            shed: s.shed,
            queue_high_water: s.queue_high_water,
            fsync_failures: self.durability.fsync_failures(),
            wal_append_failures: self.durability.wal_append_failures(),
            records_truncated: self.durability.records_truncated(),
            by_topic,
            by_component,
        }
    }

    /// Resets all counters (used between experiment phases).
    pub fn reset(&self) {
        *self.inner.lock() = StatsInner::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn accumulates_by_topic_and_component() {
        let stats = LogStats::new();
        stats.record(&NodeId::new("cam"), &Topic::new("image"), 1000);
        stats.record(&NodeId::new("det"), &Topic::new("image"), 350);
        stats.record(&NodeId::new("cam"), &Topic::new("image"), 1000);
        let snap = stats.snapshot();
        assert_eq!(snap.entries, 3);
        assert_eq!(snap.bytes, 2350);
        assert_eq!(snap.topic_bytes(&Topic::new("image")), 2350);
        assert_eq!(snap.topic_bytes(&Topic::new("scan")), 0);
        assert_eq!(snap.by_component.len(), 2);
    }

    #[test]
    fn rate_computation() {
        let stats = LogStats::new();
        // 1,000,000 bytes over 2 s = 4 Mb/s.
        stats.record(&NodeId::new("n"), &Topic::new("t"), 1_000_000);
        let snap = stats.snapshot();
        let rate = snap.rate_mbps(Duration::from_secs(2));
        assert!((rate - 4.0).abs() < 1e-9, "{rate}");
        assert_eq!(snap.rate_mbps(Duration::ZERO), 0.0);
    }

    #[test]
    fn reset_zeroes() {
        let stats = LogStats::new();
        stats.record(&NodeId::new("n"), &Topic::new("t"), 5);
        stats.reset();
        assert_eq!(stats.snapshot(), VolumeSnapshot::default());
    }
}
