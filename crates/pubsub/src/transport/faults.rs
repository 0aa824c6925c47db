//! Deterministic fault injection for [`FrameDuplex`] connections.
//!
//! [`FaultyTransport::wrap`] interposes an injector thread on the forward
//! (data) direction of any duplex, applying drop / delay / duplicate /
//! reorder / disconnect faults rolled from a seeded [`rand::rngs::StdRng`].
//! The same seed and frame sequence produce the same fault decisions, so
//! failing runs replay exactly — the property the fault-injection tests and
//! sim scenarios rely on.
//!
//! The reverse (acknowledgement) direction is passed through untouched:
//! publisher-side retry logic then exercises *message* loss, while lost
//! links (disconnect faults) exercise teardown and evidence flushing.
//! Injected faults are counted in [`FaultStats`] so tests can assert the
//! harness actually did something.

// Seeded replay: fault decisions come from the seed alone; clippy.toml
// lists the ambient time and randomness sources this module must not use.
#![deny(clippy::disallowed_methods)]

use crate::transport::FrameDuplex;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Probabilities and limits for injected faults. All-zero (the default) is
/// fully transparent.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Seed for the per-connection fault RNG (combined with a per-link
    /// salt so links fault independently but reproducibly).
    pub seed: u64,
    /// Probability a forward frame is silently dropped.
    pub drop_rate: f64,
    /// Probability a forward frame is delivered twice.
    pub duplicate_rate: f64,
    /// Probability a forward frame is held back and delivered after its
    /// successor (adjacent reorder).
    pub reorder_rate: f64,
    /// Probability a forward frame is delayed by up to [`Self::max_delay`].
    pub delay_rate: f64,
    /// Upper bound for injected delays.
    pub max_delay: Duration,
    /// Sever the connection after this many forwarded frames.
    pub disconnect_after: Option<u64>,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0,
            drop_rate: 0.0,
            duplicate_rate: 0.0,
            reorder_rate: 0.0,
            delay_rate: 0.0,
            max_delay: Duration::from_millis(20),
            disconnect_after: None,
        }
    }
}

impl FaultConfig {
    /// A transparent config with the given RNG seed.
    pub fn seeded(seed: u64) -> Self {
        FaultConfig {
            seed,
            ..Self::default()
        }
    }

    /// Sets the drop probability.
    pub fn with_drop_rate(mut self, p: f64) -> Self {
        self.drop_rate = p;
        self
    }

    /// Sets the duplicate probability.
    pub fn with_duplicate_rate(mut self, p: f64) -> Self {
        self.duplicate_rate = p;
        self
    }

    /// Sets the adjacent-reorder probability.
    pub fn with_reorder_rate(mut self, p: f64) -> Self {
        self.reorder_rate = p;
        self
    }

    /// Sets the delay probability and bound.
    pub fn with_delay(mut self, p: f64, max: Duration) -> Self {
        self.delay_rate = p;
        self.max_delay = max;
        self
    }

    /// Severs the link after `frames` forwarded frames.
    pub fn with_disconnect_after(mut self, frames: u64) -> Self {
        self.disconnect_after = Some(frames);
        self
    }

    /// Whether this config injects nothing.
    pub fn is_transparent(&self) -> bool {
        self.drop_rate == 0.0
            && self.duplicate_rate == 0.0
            && self.reorder_rate == 0.0
            && self.delay_rate == 0.0
            && self.disconnect_after.is_none()
    }
}

/// Counters for injected faults, shared across a node's connections.
#[derive(Debug, Default)]
pub struct FaultStats {
    /// Frames forwarded to the peer (including duplicates).
    pub forwarded: AtomicU64,
    /// Frames silently dropped by injection.
    pub dropped: AtomicU64,
    /// Frames delivered twice.
    pub duplicated: AtomicU64,
    /// Frames held back past their successor.
    pub reordered: AtomicU64,
    /// Frames delayed.
    pub delayed: AtomicU64,
    /// Connections severed by a disconnect fault.
    pub disconnects: AtomicU64,
}

impl FaultStats {
    /// Total frames affected by any fault.
    pub fn total_faults(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
            + self.duplicated.load(Ordering::Relaxed)
            + self.reordered.load(Ordering::Relaxed)
            + self.delayed.load(Ordering::Relaxed)
            + self.disconnects.load(Ordering::Relaxed)
    }
}

/// Wraps duplex endpoints with fault injection. See the module docs.
pub struct FaultyTransport;

impl FaultyTransport {
    /// Interposes fault injection on `inner`'s forward direction.
    ///
    /// `salt` differentiates links sharing one config (hash of the peer
    /// id); `on_qos_drop` runs when a frame is dropped because the inner
    /// bounded queue was full (the `queue_size` QoS policy — distinct from
    /// injected drops), so the owning node can keep its drop accounting
    /// exact.
    #[allow(
        clippy::expect_used,
        reason = "test-harness link setup before any traffic; the injector owns the only copy of \
                  the duplex, so there is no caller to hand an error to"
    )]
    pub fn wrap(
        inner: FrameDuplex,
        config: FaultConfig,
        salt: u64,
        stats: Arc<FaultStats>,
        on_qos_drop: impl Fn() + Send + 'static,
    ) -> FrameDuplex {
        let (outer_tx, outer_rx) = crossbeam::channel::unbounded::<Vec<u8>>();
        let outer = FrameDuplex {
            tx: outer_tx,
            rx: inner.rx.clone(),
            drop_on_full: inner.drop_on_full,
        };
        let mut injector = Injector {
            rng: StdRng::seed_from_u64(config.seed ^ salt),
            config,
            inner_tx: inner,
            stats,
            on_qos_drop: Box::new(on_qos_drop),
            forwarded: 0,
            severed: false,
        };
        thread::Builder::new()
            .name("fault-injector".into())
            .spawn(move || injector.run(outer_rx))
            .expect("spawn fault injector");
        outer
    }
}

struct Injector {
    config: FaultConfig,
    rng: StdRng,
    inner_tx: FrameDuplex,
    stats: Arc<FaultStats>,
    on_qos_drop: Box<dyn Fn() + Send>,
    forwarded: u64,
    severed: bool,
}

impl Injector {
    fn roll(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        let unit = (self.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        unit < p
    }

    fn run(&mut self, outer_rx: crossbeam::channel::Receiver<Vec<u8>>) {
        let mut delayed: Vec<(Instant, Vec<u8>)> = Vec::new();
        let mut held: Option<Vec<u8>> = None;
        loop {
            #[allow(
                clippy::disallowed_methods,
                reason = "which frames get delayed (and by how much) is decided by the seeded RNG \
                          above; Instant only paces their physical delivery"
            )]
            let now = Instant::now();
            let (ready, still): (Vec<_>, Vec<_>) = std::mem::take(&mut delayed)
                .into_iter()
                .partition(|(due, _)| *due <= now);
            delayed = still;
            for (_, frame) in ready {
                if !self.emit(frame) {
                    return;
                }
            }
            if self.severed {
                return;
            }
            let tick = delayed
                .iter()
                .map(|(due, _)| due.saturating_duration_since(now))
                .min()
                .unwrap_or(Duration::from_millis(20))
                .min(Duration::from_millis(20));
            let frame = match outer_rx.recv_timeout(tick.max(Duration::from_millis(1))) {
                Ok(f) => f,
                Err(crossbeam::channel::RecvTimeoutError::Timeout) => continue,
                Err(crossbeam::channel::RecvTimeoutError::Disconnected) => {
                    // Publisher gone: flush whatever is still in flight.
                    if let Some(f) = held.take() {
                        if !self.emit(f) {
                            return;
                        }
                    }
                    for (_, f) in std::mem::take(&mut delayed) {
                        if !self.emit(f) {
                            return;
                        }
                    }
                    return;
                }
            };

            if self.roll(self.config.drop_rate) {
                self.stats.dropped.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            if self.roll(self.config.delay_rate) {
                let span = self.config.max_delay.as_millis().max(1) as u64;
                let wait = Duration::from_millis(self.rng.next_u64() % span);
                self.stats.delayed.fetch_add(1, Ordering::Relaxed);
                #[allow(
                    clippy::disallowed_methods,
                    reason = "the delay amount is seeded; Instant only anchors the wall-clock due time"
                )]
                let due = Instant::now() + wait;
                delayed.push((due, frame));
                continue;
            }
            if self.roll(self.config.reorder_rate) && held.is_none() {
                self.stats.reordered.fetch_add(1, Ordering::Relaxed);
                held = Some(frame);
                continue;
            }
            let duplicate = self.roll(self.config.duplicate_rate);
            if !self.emit(frame.clone()) {
                return;
            }
            if duplicate {
                self.stats.duplicated.fetch_add(1, Ordering::Relaxed);
                if !self.emit(frame) {
                    return;
                }
            }
            // A held (reordered) frame follows its successor.
            if let Some(f) = held.take() {
                if !self.emit(f) {
                    return;
                }
            }
        }
    }

    /// Forwards one frame to the inner duplex; `false` ends the injector.
    fn emit(&mut self, frame: Vec<u8>) -> bool {
        if let Some(limit) = self.config.disconnect_after {
            if self.forwarded >= limit {
                // Sever: drop this and everything after; closing our end of
                // the inner channel disconnects the peer.
                if !self.severed {
                    self.severed = true;
                    self.stats.disconnects.fetch_add(1, Ordering::Relaxed);
                }
                return false;
            }
        }
        match self.inner_tx.try_send(frame) {
            crate::transport::SendOutcome::Sent => {
                self.forwarded += 1;
                self.stats.forwarded.fetch_add(1, Ordering::Relaxed);
                true
            }
            crate::transport::SendOutcome::Dropped => {
                // Bounded-queue QoS drop, not an injected fault.
                (self.on_qos_drop)();
                true
            }
            crate::transport::SendOutcome::Disconnected => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::duplex_pair_with;

    fn wrap_pair(config: FaultConfig) -> (FrameDuplex, FrameDuplex, Arc<FaultStats>) {
        let (a, b) = duplex_pair_with(None);
        let stats = Arc::new(FaultStats::default());
        let wrapped = FaultyTransport::wrap(a, config, 1, Arc::clone(&stats), || {});
        (wrapped, b, stats)
    }

    fn drain(rx: &crossbeam::channel::Receiver<Vec<u8>>) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        while let Ok(f) = rx.recv_timeout(Duration::from_millis(300)) {
            out.push(f);
        }
        out
    }

    #[test]
    fn transparent_config_passes_everything_in_order() {
        let (a, b, stats) = wrap_pair(FaultConfig::seeded(7));
        for i in 0..50u8 {
            assert!(a.send(vec![i]));
        }
        let got = drain(&b.rx);
        assert_eq!(got.len(), 50);
        assert!(got.iter().enumerate().all(|(i, f)| f == &vec![i as u8]));
        assert_eq!(stats.total_faults(), 0);
    }

    #[test]
    fn drop_faults_lose_frames_deterministically() {
        let run = || {
            let (a, b, stats) = wrap_pair(FaultConfig::seeded(99).with_drop_rate(0.3));
            for i in 0..100u8 {
                assert!(a.send(vec![i]));
            }
            let got = drain(&b.rx);
            (got, stats.dropped.load(Ordering::Relaxed))
        };
        let (got1, dropped1) = run();
        let (got2, dropped2) = run();
        assert!(dropped1 > 0, "0.3 drop rate over 100 frames must drop some");
        assert_eq!(got1.len() as u64 + dropped1, 100);
        // Same seed → same decisions.
        assert_eq!(got1, got2);
        assert_eq!(dropped1, dropped2);
    }

    #[test]
    fn duplicates_add_frames() {
        let (a, b, stats) = wrap_pair(FaultConfig::seeded(5).with_duplicate_rate(0.5));
        for i in 0..40u8 {
            assert!(a.send(vec![i]));
        }
        let got = drain(&b.rx);
        let dups = stats.duplicated.load(Ordering::Relaxed);
        assert!(dups > 0);
        assert_eq!(got.len() as u64, 40 + dups);
    }

    #[test]
    fn disconnect_after_severs_link() {
        let (a, b, stats) = wrap_pair(FaultConfig::seeded(3).with_disconnect_after(5));
        for i in 0..20u8 {
            a.send(vec![i]);
        }
        let got = drain(&b.rx);
        assert_eq!(got.len(), 5);
        assert_eq!(stats.disconnects.load(Ordering::Relaxed), 1);
        // The peer eventually observes the disconnect.
        assert!(matches!(
            b.rx.recv_timeout(Duration::from_millis(200)),
            Err(crossbeam::channel::RecvTimeoutError::Disconnected)
        ));
    }

    #[test]
    fn reverse_direction_is_untouched() {
        let (a, b, _stats) = wrap_pair(FaultConfig::seeded(1).with_drop_rate(1.0));
        for i in 0..10u8 {
            assert!(b.send(vec![i]));
        }
        for i in 0..10u8 {
            assert_eq!(
                a.rx.recv_timeout(Duration::from_millis(200)).unwrap(),
                vec![i]
            );
        }
    }

    #[test]
    fn delayed_frames_eventually_arrive() {
        let (a, b, stats) =
            wrap_pair(FaultConfig::seeded(8).with_delay(1.0, Duration::from_millis(30)));
        for i in 0..10u8 {
            assert!(a.send(vec![i]));
        }
        let got = drain(&b.rx);
        assert_eq!(got.len(), 10);
        assert_eq!(stats.delayed.load(Ordering::Relaxed), 10);
    }
}
