//! Cluster-level accounting.
//!
//! The cluster inherits the substrate's prime directive: degradation is
//! *counted*, never silent. Every deposit ends up in exactly one of
//! `acked` (reached its write quorum) or `entries_lost` (did not), so
//! `submitted == acked + entries_lost` holds at any quiescent point.

use crate::attestation::Observation;
use adlp_logger::DurabilityStats;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Cap on retained per-deposit latency samples (for percentiles); beyond
/// it, new samples overwrite a deterministic rotating slot so long runs
/// stay bounded while the distribution keeps refreshing.
const LATENCY_SAMPLE_CAP: usize = 100_000;

#[derive(Debug, Default)]
struct Inner {
    submitted: AtomicU64,
    acked: AtomicU64,
    entries_lost: AtomicU64,
    failovers: AtomicU64,
    quorum_latency_ns: AtomicU64,
    quorum_samples: AtomicU64,
    breaker_trips: AtomicU64,
    breaker_reopens: AtomicU64,
    breaker_closes: AtomicU64,
    breaker_rejections: AtomicU64,
    attestations_verified: AtomicU64,
    attestations_rejected: AtomicU64,
    equivocations_detected: AtomicU64,
    shard_depth: Vec<AtomicU64>,
    latency_samples: Mutex<Vec<u64>>,
}

/// Shared, thread-safe cluster counters (cheap to clone).
#[derive(Debug, Clone, Default)]
pub struct ClusterStats {
    inner: Arc<Inner>,
    durability: DurabilityStats,
}

/// A point-in-time copy of [`ClusterStats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterStatsSnapshot {
    /// Entries handed to the cluster client.
    pub submitted: u64,
    /// Entries accepted by at least W live replicas of their shard.
    pub acked: u64,
    /// Entries that failed their write quorum — counted, never silent.
    /// (A sub-quorum entry may still sit on some replicas, but the cluster
    /// refuses to call it durable.)
    pub entries_lost: u64,
    /// Deposits where at least one replica refused but the quorum was
    /// still met by the survivors.
    pub failovers: u64,
    /// Mean wall-clock time to reach the write quorum, in nanoseconds.
    pub mean_quorum_latency_ns: u64,
    /// 99th-percentile quorum latency (ns) over the retained sample window.
    pub p99_quorum_latency_ns: u64,
    /// BFT mode: signed head attestations whose signature verified.
    pub attestations_verified: u64,
    /// BFT mode: attestations discarded for a bad signature (they prove
    /// nothing about the replica whose identity they claim).
    pub attestations_rejected: u64,
    /// BFT mode: equivocation proofs minted — one replica, two validly
    /// signed conflicting heads at the same scope.
    pub equivocations_detected: u64,
    /// Replica-lane circuit breakers tripped (Closed→Open).
    pub breaker_trips: u64,
    /// Half-open probes that failed and re-opened a replica's breaker.
    pub breaker_reopens: u64,
    /// Replica-lane breakers closed again after successful probes
    /// (HalfOpen→Closed) — the recovery signal.
    pub breaker_closes: u64,
    /// Per-replica deposit attempts refused up front because the lane's
    /// breaker was open (the fan-out routed around that replica).
    pub breaker_rejections: u64,
    /// WAL syncs / snapshot replaces refused by replica storage devices —
    /// storage errors are counted, never discarded.
    pub fsync_failures: u64,
    /// Replica WAL appends that failed outright (e.g. torn writes).
    pub wal_append_failures: u64,
    /// Records lost to torn/corrupt tails across replica recoveries.
    pub records_truncated: u64,
    /// Entries routed to each shard (quorum-acked only).
    pub shard_depth: Vec<u64>,
}

impl ClusterStats {
    /// Creates zeroed counters for `shards` shards.
    pub fn new(shards: usize) -> Self {
        Self::with_durability(shards, DurabilityStats::default())
    }

    /// Creates counters whose durability side is shared with `durability` —
    /// a durable cluster hands the same counters to every replica's
    /// `DurabilityConfig`, so replica-level storage failures surface here
    /// live.
    pub fn with_durability(shards: usize, durability: DurabilityStats) -> Self {
        let shard_depth = (0..shards).map(|_| AtomicU64::new(0)).collect();
        ClusterStats {
            inner: Arc::new(Inner {
                shard_depth,
                ..Inner::default()
            }),
            durability,
        }
    }

    /// The shared durability counters.
    pub fn durability(&self) -> &DurabilityStats {
        &self.durability
    }

    /// Records the outcome of one deposit fan-out.
    pub fn note_deposit(
        &self,
        shard: usize,
        accepted: usize,
        refused: usize,
        write_quorum: usize,
        latency: Duration,
    ) {
        let i = &self.inner;
        i.submitted.fetch_add(1, Ordering::Relaxed);
        if accepted >= write_quorum {
            i.acked.fetch_add(1, Ordering::Relaxed);
            if let Some(depth) = i.shard_depth.get(shard) {
                depth.fetch_add(1, Ordering::Relaxed);
            }
            if refused > 0 {
                i.failovers.fetch_add(1, Ordering::Relaxed);
            }
            let ns = latency.as_nanos() as u64;
            i.quorum_latency_ns.fetch_add(ns, Ordering::Relaxed);
            let nth = i.quorum_samples.fetch_add(1, Ordering::Relaxed);
            let mut samples = i.latency_samples.lock();
            if samples.len() < LATENCY_SAMPLE_CAP {
                samples.push(ns);
            } else if let Some(slot) = samples.get_mut(nth as usize % LATENCY_SAMPLE_CAP) {
                *slot = ns;
            }
        } else {
            i.entries_lost.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records what the attestation ledger concluded about one observed
    /// attestation (BFT mode).
    pub fn note_observation(&self, observation: &Observation) {
        let i = &self.inner;
        match observation {
            Observation::Consistent | Observation::Duplicate => {
                i.attestations_verified.fetch_add(1, Ordering::Relaxed);
            }
            Observation::BadSignature | Observation::BadIncarnation => {
                i.attestations_rejected.fetch_add(1, Ordering::Relaxed);
            }
            Observation::Equivocation(_) => {
                // The equivocating signature *did* verify — that is what
                // makes it a conviction.
                i.attestations_verified.fetch_add(1, Ordering::Relaxed);
                i.equivocations_detected.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Entries that failed their write quorum so far.
    pub fn entries_lost(&self) -> u64 {
        self.inner.entries_lost.load(Ordering::Relaxed)
    }

    /// Records a replica-lane breaker state transition.
    pub fn note_breaker_transition(&self, transition: adlp_pubsub::Transition) {
        use adlp_pubsub::Transition;
        let counter = match transition {
            Transition::Tripped => &self.inner.breaker_trips,
            Transition::Reopened => &self.inner.breaker_reopens,
            Transition::Closed => &self.inner.breaker_closes,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one per-replica deposit refused because the lane's breaker
    /// was open.
    pub fn note_breaker_rejection(&self) {
        self.inner.breaker_rejections.fetch_add(1, Ordering::Relaxed);
    }

    /// Takes a consistent-enough copy of all counters.
    pub fn snapshot(&self) -> ClusterStatsSnapshot {
        let i = &self.inner;
        let samples = i.quorum_samples.load(Ordering::Relaxed);
        let mean = i
            .quorum_latency_ns
            .load(Ordering::Relaxed)
            .checked_div(samples)
            .unwrap_or(0);
        let p99 = {
            let mut sorted = i.latency_samples.lock().clone();
            sorted.sort_unstable();
            percentile(&sorted, 99.0)
        };
        ClusterStatsSnapshot {
            submitted: i.submitted.load(Ordering::Relaxed),
            acked: i.acked.load(Ordering::Relaxed),
            entries_lost: i.entries_lost.load(Ordering::Relaxed),
            failovers: i.failovers.load(Ordering::Relaxed),
            mean_quorum_latency_ns: mean,
            p99_quorum_latency_ns: p99,
            attestations_verified: i.attestations_verified.load(Ordering::Relaxed),
            attestations_rejected: i.attestations_rejected.load(Ordering::Relaxed),
            equivocations_detected: i.equivocations_detected.load(Ordering::Relaxed),
            breaker_trips: i.breaker_trips.load(Ordering::Relaxed),
            breaker_reopens: i.breaker_reopens.load(Ordering::Relaxed),
            breaker_closes: i.breaker_closes.load(Ordering::Relaxed),
            breaker_rejections: i.breaker_rejections.load(Ordering::Relaxed),
            fsync_failures: self.durability.fsync_failures(),
            wal_append_failures: self.durability.wal_append_failures(),
            records_truncated: self.durability.records_truncated(),
            shard_depth: i
                .shard_depth
                .iter()
                .map(|d| d.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

impl ClusterStatsSnapshot {
    /// The never-silent-loss invariant: every submission is accounted for.
    pub fn balanced(&self) -> bool {
        self.submitted == self.acked + self.entries_lost
    }
}

/// Nearest-rank percentile over an already-sorted sample set (0 when
/// empty).
fn percentile(sorted: &[u64], pct: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    let index = rank.max(1).min(sorted.len()) - 1;
    sorted.get(index).copied().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deposit_accounting_balances() {
        let stats = ClusterStats::new(3);
        stats.note_deposit(0, 3, 0, 2, Duration::from_micros(5));
        stats.note_deposit(1, 2, 1, 2, Duration::from_micros(7));
        stats.note_deposit(2, 1, 2, 2, Duration::from_micros(9));
        let s = stats.snapshot();
        assert_eq!(s.submitted, 3);
        assert_eq!(s.acked, 2);
        assert_eq!(s.entries_lost, 1);
        assert_eq!(s.failovers, 1);
        assert_eq!(s.shard_depth, vec![1, 1, 0]);
        assert!(s.balanced());
        assert!(s.mean_quorum_latency_ns > 0);
        assert_eq!(s.p99_quorum_latency_ns, 7_000, "only acked deposits sample");
    }

    #[test]
    fn percentiles_track_the_tail() {
        let stats = ClusterStats::new(1);
        // 999 fast deposits and one slow outlier.
        for _ in 0..999 {
            stats.note_deposit(0, 1, 0, 1, Duration::from_micros(10));
        }
        stats.note_deposit(0, 1, 0, 1, Duration::from_millis(5));
        let s = stats.snapshot();
        assert_eq!(s.p99_quorum_latency_ns, 10_000, "p99 sits in the bulk");
        assert!(s.mean_quorum_latency_ns > 10_000, "mean is dragged by the tail");
    }

    #[test]
    fn percentile_nearest_rank_edges() {
        assert_eq!(percentile(&[], 99.0), 0);
        assert_eq!(percentile(&[7], 99.9), 7);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 99.9), 100);
    }

    #[test]
    fn observation_accounting() {
        use crate::attestation::{AttestationLog, AttestationScope, ReplicaAttestor};
        use adlp_logger::Keyring;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let kp = adlp_crypto::RsaKeyPair::generate(512, &mut rng);
        let keyring = Keyring::new().with((0, 0), kp.public_key().clone());
        let ledger = AttestationLog::new(keyring, 16, 1);
        let attestor = ReplicaAttestor::new(0, 0, kp.into_private_key());
        let stats = ClusterStats::new(1);

        let a = attestor
            .attest(AttestationScope::Head { length: 1 }, adlp_crypto::sha256(b"a"))
            .unwrap();
        let b = attestor
            .attest(AttestationScope::Head { length: 1 }, adlp_crypto::sha256(b"b"))
            .unwrap();
        stats.note_observation(&ledger.observe(a));
        stats.note_observation(&ledger.observe(b));
        let s = stats.snapshot();
        assert_eq!(s.attestations_verified, 2, "both signatures verified");
        assert_eq!(s.equivocations_detected, 1);
        assert_eq!(s.attestations_rejected, 0);
    }
}
