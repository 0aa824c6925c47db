//! Overload policy for the deposit pipeline.
//!
//! The paper's pipeline assumes the trusted logger keeps up; under
//! sustained overload an unbounded deposit queue trades memory for an
//! unbounded accountability *lag*. This module bounds the queue and makes
//! the overflow explicit: a [`ShedPolicy`] picks which entries to drop, a
//! circuit breaker (optional) fast-fails a persistently refusing logger,
//! and every consequence is surfaced through a shared [`QueuePressure`]
//! handle — depth, watermark level, shed counts, gap-receipt counts,
//! breaker transitions. Publishers watch the pressure level and slow their
//! ack-gated send loops instead of letting the backlog grow.

use crate::target::Deposited;
use adlp_pubsub::{BreakerConfig, Transition};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Which entries to sacrifice when the bounded deposit queue overflows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShedPolicy {
    /// Drop the oldest queued entry to make room for the arrival: the
    /// deadline-aware choice when fresh activity matters more than stale
    /// backlog (the queued entry has already waited longest and is the
    /// most likely to be useless by the time it lands).
    #[default]
    OldestFirst,
    /// Refuse the arriving entry and keep the queue intact: preserves an
    /// unbroken prefix of the sequence space, at the cost of losing the
    /// most recent activity.
    NewestFirst,
}

/// Tunables for one logging pipeline's overload handling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OverloadConfig {
    /// Hard bound on queued-but-undeposited entries (clamped to ≥ 1).
    pub queue_capacity: usize,
    /// Depth at or above which [`QueuePressure::level`] turns
    /// [`PressureLevel::High`].
    pub high_watermark: usize,
    /// Depth at or below which the level falls back to
    /// [`PressureLevel::Normal`] (hysteresis: must be < `high_watermark`).
    pub low_watermark: usize,
    /// What to shed on overflow.
    pub policy: ShedPolicy,
    /// When set, deposits flow through a circuit breaker: repeated deposit
    /// failures (and queue-full sheds, which are overload failures too)
    /// trip it, and while it is open the worker stops hammering the logger
    /// until a half-open probe succeeds.
    pub breaker: Option<BreakerConfig>,
    /// Longest contiguous range a single gap receipt may cover; longer
    /// shed runs are split into multiple receipts so no single receipt
    /// admission grows unbounded.
    pub receipt_max_span: u64,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig::with_capacity(4096)
    }
}

impl OverloadConfig {
    /// A config with `capacity` queue slots and watermarks at 3/4 (high)
    /// and 1/4 (low) of it.
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        OverloadConfig {
            queue_capacity: capacity,
            high_watermark: (capacity * 3 / 4).max(1),
            low_watermark: capacity / 4,
            policy: ShedPolicy::default(),
            breaker: None,
            receipt_max_span: 256,
        }
    }

    /// Sets explicit watermarks (low clamped below high, high clamped to
    /// the capacity).
    pub fn with_watermarks(mut self, low: usize, high: usize) -> Self {
        self.high_watermark = high.clamp(1, self.queue_capacity);
        self.low_watermark = low.min(self.high_watermark.saturating_sub(1));
        self
    }

    /// Sets the shed policy.
    pub fn with_policy(mut self, policy: ShedPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Enables the deposit circuit breaker.
    pub fn with_breaker(mut self, breaker: BreakerConfig) -> Self {
        self.breaker = Some(breaker);
        self
    }

    /// Sets the per-receipt range cap (clamped to ≥ 1).
    pub fn with_receipt_span(mut self, span: u64) -> Self {
        self.receipt_max_span = span.max(1);
        self
    }
}

/// The pressure level publishers react to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PressureLevel {
    /// Depth is below the high watermark (or fell back under the low one).
    Normal,
    /// The queue crossed its high watermark: slow down.
    High,
}

#[derive(Debug, Default)]
struct PressureInner {
    high: AtomicBool,
    depth: AtomicU64,
    high_water: AtomicU64,
    deposited: AtomicU64,
    shed: AtomicU64,
    receipts_issued: AtomicU64,
    receipts_undeliverable: AtomicU64,
    breaker_trips: AtomicU64,
    breaker_reopens: AtomicU64,
    breaker_closes: AtomicU64,
}

/// Shared, read-anywhere view of one logging pipeline's overload state.
///
/// The worker writes; the owning node, its publishers, and the sim/bench
/// harnesses read. Cloning shares the underlying counters.
#[derive(Debug, Clone, Default)]
pub struct QueuePressure {
    inner: Arc<PressureInner>,
}

impl QueuePressure {
    /// Fresh zeroed state at [`PressureLevel::Normal`].
    pub fn new() -> Self {
        Self::default()
    }

    /// The current watermark level.
    pub fn level(&self) -> PressureLevel {
        if self.inner.high.load(Ordering::Relaxed) {
            PressureLevel::High
        } else {
            PressureLevel::Normal
        }
    }

    /// Whether publishers should currently slow down.
    pub fn is_high(&self) -> bool {
        matches!(self.level(), PressureLevel::High)
    }

    /// Entries currently queued for deposit.
    pub fn depth(&self) -> u64 {
        self.inner.depth.load(Ordering::Relaxed)
    }

    /// Deepest the queue ever got (stays ≤ the configured capacity).
    pub fn high_water(&self) -> u64 {
        self.inner.high_water.load(Ordering::Relaxed)
    }

    /// Entries handed to the deposit target so far.
    pub fn deposited(&self) -> u64 {
        self.inner.deposited.load(Ordering::Relaxed)
    }

    /// Entries shed by admission control — counted, never silent.
    pub fn entries_shed(&self) -> u64 {
        self.inner.shed.load(Ordering::Relaxed)
    }

    /// Gap receipts deposited (or queued for deposit) covering shed ranges.
    pub fn receipts_issued(&self) -> u64 {
        self.inner.receipts_issued.load(Ordering::Relaxed)
    }

    /// Gap receipts that could not be delivered before the pipeline ended
    /// (the logger stayed dead) — the one loss receipts cannot cover,
    /// still counted.
    pub fn receipts_undeliverable(&self) -> u64 {
        self.inner.receipts_undeliverable.load(Ordering::Relaxed)
    }

    /// Deposit-breaker trips (Closed→Open) so far.
    pub fn breaker_trips(&self) -> u64 {
        self.inner.breaker_trips.load(Ordering::Relaxed)
    }

    /// Failed half-open probes (HalfOpen→Open) so far.
    pub fn breaker_reopens(&self) -> u64 {
        self.inner.breaker_reopens.load(Ordering::Relaxed)
    }

    /// Breaker closes (HalfOpen→Closed) so far — recovery events.
    pub fn breaker_closes(&self) -> u64 {
        self.inner.breaker_closes.load(Ordering::Relaxed)
    }

    /// Updates depth, the high-water mark, and the hysteresis level.
    pub(crate) fn set_depth(&self, depth: usize, low_watermark: usize, high_watermark: usize) {
        let d = depth as u64;
        self.inner.depth.store(d, Ordering::Relaxed);
        self.inner.high_water.fetch_max(d, Ordering::Relaxed);
        if depth >= high_watermark {
            self.inner.high.store(true, Ordering::Relaxed);
        } else if depth <= low_watermark {
            self.inner.high.store(false, Ordering::Relaxed);
        }
    }

    pub(crate) fn note_deposited(&self, _receipt: Deposited) {
        self.inner.deposited.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_shed(&self) {
        self.inner.shed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_receipt_issued(&self) {
        self.inner.receipts_issued.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_receipts_undeliverable(&self, n: u64) {
        self.inner
            .receipts_undeliverable
            .fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn note_transition(&self, transition: Transition) {
        let counter = match transition {
            Transition::Tripped => &self.inner.breaker_trips,
            Transition::Reopened => &self.inner.breaker_reopens,
            Transition::Closed => &self.inner.breaker_closes,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_watermarks_bracket_capacity() {
        let c = OverloadConfig::default();
        assert_eq!(c.queue_capacity, 4096);
        assert_eq!(c.high_watermark, 3072);
        assert_eq!(c.low_watermark, 1024);
        assert!(c.low_watermark < c.high_watermark);
        assert!(c.high_watermark <= c.queue_capacity);
    }

    #[test]
    fn watermark_hysteresis() {
        let p = QueuePressure::new();
        assert_eq!(p.level(), PressureLevel::Normal);
        p.set_depth(8, 2, 8);
        assert_eq!(p.level(), PressureLevel::High);
        // Between the watermarks the level sticks (hysteresis).
        p.set_depth(5, 2, 8);
        assert_eq!(p.level(), PressureLevel::High);
        p.set_depth(2, 2, 8);
        assert_eq!(p.level(), PressureLevel::Normal);
        p.set_depth(5, 2, 8);
        assert_eq!(p.level(), PressureLevel::Normal);
        assert_eq!(p.high_water(), 8);
    }

    #[test]
    fn builders_clamp() {
        let c = OverloadConfig::with_capacity(0);
        assert_eq!(c.queue_capacity, 1);
        let c = OverloadConfig::with_capacity(100).with_watermarks(90, 50);
        assert_eq!(c.high_watermark, 50);
        assert_eq!(c.low_watermark, 49);
        assert_eq!(
            OverloadConfig::default()
                .with_receipt_span(0)
                .receipt_max_span,
            1
        );
    }
}
