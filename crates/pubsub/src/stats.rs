//! Per-node traffic counters, used by the evaluation harnesses (message
//! counts for Figure 13/14, byte counts feeding the log-rate experiments).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Thread-safe counters shared by all connections of a node.
#[derive(Debug, Default, Clone)]
pub struct NodeStats {
    inner: Arc<Counters>,
}

#[derive(Debug, Default)]
struct Counters {
    published: AtomicU64,
    sent: AtomicU64,
    send_skipped: AtomicU64,
    send_dropped: AtomicU64,
    bytes_sent: AtomicU64,
    received: AtomicU64,
    recv_dropped: AtomicU64,
    bytes_received: AtomicU64,
    replies_sent: AtomicU64,
    returns_received: AtomicU64,
}

/// A point-in-time copy of the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Publications initiated by the application.
    pub published: u64,
    /// Per-connection message transmissions.
    pub sent: u64,
    /// Transmissions suppressed by `may_send` gating.
    pub send_skipped: u64,
    /// Transmissions dropped by a full bounded queue (`queue_size` QoS).
    pub send_dropped: u64,
    /// Body bytes sent (after interception, before framing).
    pub bytes_sent: u64,
    /// Messages delivered to application callbacks.
    pub received: u64,
    /// Messages dropped by the interceptor.
    pub recv_dropped: u64,
    /// Body bytes received (before interception).
    pub bytes_received: u64,
    /// Reverse-channel frames sent (ADLP acknowledgements).
    pub replies_sent: u64,
    /// Reverse-channel frames received.
    pub returns_received: u64,
}

/// Per-connection counters for one publisher→subscriber link, so QoS
/// drops and retries are attributable to a specific slow or faulty peer
/// (the node-wide [`NodeStats`] only aggregates).
#[derive(Debug, Default)]
pub struct LinkStats {
    sent: AtomicU64,
    send_dropped: AtomicU64,
    retries: AtomicU64,
}

/// A point-in-time copy of one link's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkStatsSnapshot {
    /// Frames sent on this link.
    pub sent: u64,
    /// Frames dropped on this link by the bounded-queue QoS policy.
    pub send_dropped: u64,
    /// Frames retransmitted after an ack deadline expired.
    pub retries: u64,
}

impl LinkStats {
    /// Creates fresh counters.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn record_send(&self) {
        self.sent.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_send_dropped(&self) {
        self.send_dropped.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Copies the current counter values.
    pub fn snapshot(&self) -> LinkStatsSnapshot {
        LinkStatsSnapshot {
            sent: self.sent.load(Ordering::Relaxed),
            send_dropped: self.send_dropped.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
        }
    }
}

impl NodeStats {
    /// Creates fresh counters.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn record_publish(&self) {
        self.inner.published.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_send(&self, bytes: usize) {
        self.inner.sent.fetch_add(1, Ordering::Relaxed);
        self.inner
            .bytes_sent
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_send_skipped(&self) {
        self.inner.send_skipped.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_send_dropped(&self) {
        self.inner.send_dropped.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_receive(&self, bytes: usize) {
        self.inner.received.fetch_add(1, Ordering::Relaxed);
        self.inner
            .bytes_received
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_recv_dropped(&self) {
        self.inner.recv_dropped.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_reply(&self) {
        self.inner.replies_sent.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_return(&self) {
        self.inner.returns_received.fetch_add(1, Ordering::Relaxed);
    }

    /// Copies the current counter values.
    pub fn snapshot(&self) -> StatsSnapshot {
        let c = &*self.inner;
        StatsSnapshot {
            published: c.published.load(Ordering::Relaxed),
            sent: c.sent.load(Ordering::Relaxed),
            send_skipped: c.send_skipped.load(Ordering::Relaxed),
            send_dropped: c.send_dropped.load(Ordering::Relaxed),
            bytes_sent: c.bytes_sent.load(Ordering::Relaxed),
            received: c.received.load(Ordering::Relaxed),
            recv_dropped: c.recv_dropped.load(Ordering::Relaxed),
            bytes_received: c.bytes_received.load(Ordering::Relaxed),
            replies_sent: c.replies_sent.load(Ordering::Relaxed),
            returns_received: c.returns_received.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = NodeStats::new();
        s.record_publish();
        s.record_send(100);
        s.record_send(50);
        s.record_send_skipped();
        s.record_receive(10);
        s.record_recv_dropped();
        s.record_reply();
        s.record_return();
        let snap = s.snapshot();
        assert_eq!(snap.published, 1);
        assert_eq!(snap.sent, 2);
        assert_eq!(snap.bytes_sent, 150);
        assert_eq!(snap.send_skipped, 1);
        assert_eq!(snap.received, 1);
        assert_eq!(snap.bytes_received, 10);
        assert_eq!(snap.recv_dropped, 1);
        assert_eq!(snap.replies_sent, 1);
        assert_eq!(snap.returns_received, 1);
    }

    #[test]
    fn clones_share_state() {
        let s = NodeStats::new();
        let t = s.clone();
        s.record_publish();
        assert_eq!(t.snapshot().published, 1);
    }
}
