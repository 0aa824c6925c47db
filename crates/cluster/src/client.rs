//! The deposit router: shards, fans out, and counts quorums.

use crate::attestation::{AttestationLog, HeadAttestation, Observation};
use crate::cluster::{LoggerCluster, ReplicaSlot};
use crate::config::ClusterConfig;
use crate::ring::HashRing;
use crate::stats::ClusterStats;
use adlp_crypto::RsaPublicKey;
use adlp_logger::stats::LogStats;
use adlp_logger::{
    KeyRegistry, LogEntry, LogError, ReconnectConfig, RemoteLogClient, SubmitOutcome,
};
use adlp_pubsub::{Admission, CircuitBreaker, Clock, NodeId, SystemClock, Topic, Transition};
use parking_lot::Mutex;
use std::fmt;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One replica's deposit lane. Implementations report whether a *live*
/// replica accepted the entry — the quorum signal.
pub trait ReplicaSink: Send + Sync + fmt::Debug {
    /// Attempts to deliver `entry`; returns whether a live replica took it.
    fn deposit(&self, entry: &LogEntry) -> bool;
    /// Like [`ReplicaSink::deposit`], but only returns `true` once the
    /// replica reports the entry *durable* (in its synced WAL). Sinks
    /// without a durability notion fall back to plain acceptance.
    fn deposit_durable(&self, entry: &LogEntry) -> bool {
        self.deposit(entry)
    }
    /// Blocks until previously accepted entries are stored (best effort);
    /// returns whether the replica confirmed.
    fn flush_replica(&self) -> bool;
    /// Called when the circuit breaker wrapping this lane changes state,
    /// so sinks with their own per-client accounting (the remote TCP sink)
    /// can mirror the transition. Default: no accounting of its own.
    fn note_breaker(&self, _transition: Transition) {}
    /// BFT mode: delivers `entry` and returns the replica's *signed head
    /// attestation* — its sworn statement of its log's head (length and
    /// Merkle root) after the append. `None` means the replica stayed silent (dead, or Byzantine
    /// and withholding); a silent replica simply does not count toward the
    /// `2f+1` attest quorum. The default (sinks without an attestation
    /// identity) deposits and stays silent, so plugging a crash-only sink
    /// into a BFT client fails acks loudly rather than faking signatures.
    fn deposit_attested(&self, entry: &LogEntry, durable: bool) -> Option<HeadAttestation> {
        if durable {
            self.deposit_durable(entry);
        } else {
            self.deposit(entry);
        }
        None
    }
}

/// In-process sink over a [`ReplicaSlot`] (the sim/bench path).
#[derive(Debug)]
struct SlotSink {
    slot: Arc<ReplicaSlot>,
}

impl ReplicaSink for SlotSink {
    fn deposit(&self, entry: &LogEntry) -> bool {
        self.slot.handle().try_submit(entry.clone()).is_ok()
    }

    fn deposit_durable(&self, entry: &LogEntry) -> bool {
        self.slot.handle().submit_durable(entry.clone()).is_ok()
    }

    fn flush_replica(&self) -> bool {
        self.slot.handle().flush().is_ok()
    }

    fn deposit_attested(&self, entry: &LogEntry, durable: bool) -> Option<HeadAttestation> {
        let took = if durable {
            self.deposit_durable(entry)
        } else {
            self.deposit(entry)
        };
        if !took {
            return None;
        }
        // The append is processed on the replica's server thread; flush
        // before reading the head so the attestation covers this entry.
        // That per-entry round-trip is the honest cost of a signed ack.
        if !self.flush_replica() {
            return None;
        }
        self.slot.attest_head().ok().flatten()
    }
}

/// An in-process sink over one [`ReplicaSlot`] — the honest deposit lane.
/// Public so fault harnesses can wrap honest lanes next to misbehaving
/// ones when assembling a [`ClusterLogClient::from_sinks`] client.
pub fn slot_sink(slot: Arc<ReplicaSlot>) -> Box<dyn ReplicaSink> {
    Box::new(SlotSink { slot })
}

/// TCP sink layered on the reconnecting [`RemoteLogClient`] (PR 1): while
/// a replica is unreachable the client buffers the outage locally
/// (per-replica, hence per-shard buffering) and replays on reconnect, but
/// a buffered entry does **not** count toward the write quorum — only a
/// connected replica does.
pub struct RemoteReplicaSink {
    client: Mutex<RemoteLogClient>,
    flush_timeout: Duration,
}

impl fmt::Debug for RemoteReplicaSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RemoteReplicaSink").finish_non_exhaustive()
    }
}

impl RemoteReplicaSink {
    /// Connects to one replica endpoint.
    ///
    /// # Errors
    ///
    /// Propagates connection errors from [`RemoteLogClient::connect_with`].
    pub fn connect(addr: SocketAddr, config: ReconnectConfig) -> Result<Self, LogError> {
        Ok(RemoteReplicaSink {
            client: Mutex::new(RemoteLogClient::connect_with(addr, config)?),
            flush_timeout: Duration::from_millis(500),
        })
    }
}

impl ReplicaSink for RemoteReplicaSink {
    fn deposit(&self, entry: &LogEntry) -> bool {
        let mut client = self.client.lock();
        let pushed = client.submit(entry).is_accepted();
        pushed && client.stats().snapshot().connected
    }

    fn flush_replica(&self) -> bool {
        self.client.lock().flush(self.flush_timeout)
    }

    fn note_breaker(&self, transition: Transition) {
        let client = self.client.lock();
        match transition {
            Transition::Tripped | Transition::Reopened => client.stats().note_breaker_trip(),
            Transition::Closed => client.stats().note_breaker_close(),
        }
    }
}

/// What one deposit fan-out produced.
struct FanOutOutcome {
    shard: usize,
    accepted: usize,
    quorate: bool,
}

/// A shard's replica lanes plus the per-shard ordering lock.
struct ShardLanes {
    /// Serializes fan-outs so all replicas see entries in one order —
    /// the property that makes cross-replica divergence detection sharp.
    order: Mutex<()>,
    replicas: Vec<Box<dyn ReplicaSink>>,
    /// One circuit breaker per replica lane (empty when breakers are not
    /// configured). Guarded separately, but only ever touched under the
    /// `order` lock, so breaker trajectories are as serialized as the
    /// fan-outs they observe.
    breakers: Mutex<Vec<CircuitBreaker>>,
}

impl fmt::Debug for ShardLanes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardLanes")
            .field("replicas", &self.replicas.len())
            .finish()
    }
}

/// The cluster deposit client: routes each entry to its shard via the
/// consistent-hash ring, fans it out to all R replicas, and accounts the
/// W-of-R quorum outcome. Shaped like [`adlp_logger::LoggerHandle`] so the
/// core logging pipeline can target either interchangeably.
#[derive(Debug)]
pub struct ClusterLogClient {
    ring: HashRing,
    config: ClusterConfig,
    keys: KeyRegistry,
    shards: Vec<ShardLanes>,
    stats: ClusterStats,
    volume: LogStats,
    /// BFT mode: the shared attestation ledger every signed ack flows
    /// through (split-view detection at deposit time). `None` on a
    /// crash-quorum client.
    attestations: Option<AttestationLog>,
}

impl ClusterLogClient {
    /// An in-process client over a [`LoggerCluster`]'s replica slots. The
    /// client shares the cluster's [`ClusterStats`], so deposit accounting
    /// and replica durability counters read from one place.
    pub fn in_proc(cluster: &LoggerCluster) -> Self {
        let sinks = (0..cluster.shard_count())
            .map(|shard| {
                cluster
                    .shard_replicas(shard)
                    .iter()
                    .map(|slot| {
                        Box::new(SlotSink {
                            slot: Arc::clone(slot),
                        }) as Box<dyn ReplicaSink>
                    })
                    .collect()
            })
            .collect();
        let client = Self::from_sinks_with_stats(
            cluster.config().clone(),
            cluster.keys().clone(),
            sinks,
            cluster.stats().clone(),
        );
        match cluster.attestations() {
            Some(ledger) => client.with_attestations(ledger.clone()),
            None => client,
        }
    }

    /// Wires the BFT attestation ledger (split-view detector) into this
    /// client, enabling signed-quorum acks when the configuration carries
    /// a [`crate::attestation::BftConfig`]. [`ClusterLogClient::in_proc`]
    /// does this automatically; `from_sinks` assemblies (fault harnesses,
    /// remote clients) wire it explicitly so client and auditor share one
    /// ledger. A client whose configuration is BFT but that never received
    /// a ledger refuses every deposit (counted as lost) rather than
    /// silently downgrading to unsigned crash-quorum counting.
    pub fn with_attestations(mut self, ledger: AttestationLog) -> Self {
        self.attestations = Some(ledger);
        self
    }

    /// A client over arbitrary sinks (one inner `Vec` per shard). Used by
    /// [`ClusterLogClient::remote`] and by tests that fake replicas.
    pub fn from_sinks(
        config: ClusterConfig,
        keys: KeyRegistry,
        sinks: Vec<Vec<Box<dyn ReplicaSink>>>,
    ) -> Self {
        let stats = ClusterStats::new(config.shards);
        Self::from_sinks_with_stats(config, keys, sinks, stats)
    }

    /// Like [`ClusterLogClient::from_sinks`], but accounting into
    /// externally owned counters (e.g. a [`LoggerCluster`]'s own stats).
    pub fn from_sinks_with_stats(
        config: ClusterConfig,
        keys: KeyRegistry,
        sinks: Vec<Vec<Box<dyn ReplicaSink>>>,
        stats: ClusterStats,
    ) -> Self {
        let ring = HashRing::new(config.shards, crate::config::VNODES);
        let shards = sinks
            .into_iter()
            .map(|replicas| ShardLanes {
                order: Mutex::new(()),
                replicas,
                breakers: Mutex::new(Vec::new()),
            })
            .collect();
        let client = ClusterLogClient {
            ring,
            config,
            keys,
            shards,
            stats,
            volume: LogStats::new(),
            attestations: None,
        };
        if let Some(breaker_cfg) = client.config.breaker.clone() {
            client.install_breakers(&breaker_cfg, Arc::new(SystemClock));
        }
        client
    }

    /// (Re)wraps every replica lane in a circuit breaker driven by `clock`
    /// — tests inject a [`adlp_pubsub::ManualClock`] to walk cooldowns
    /// deterministically. Each lane's breaker is seeded from `cfg.seed`
    /// mixed with its shard and replica indices so jitter trajectories are
    /// reproducible but decorrelated across lanes.
    pub fn install_breakers(&self, cfg: &adlp_pubsub::BreakerConfig, clock: Arc<dyn Clock>) {
        for (shard, lane) in self.shards.iter().enumerate() {
            let breakers = lane
                .replicas
                .iter()
                .enumerate()
                .map(|(replica, _)| {
                    let seed = cfg
                        .seed
                        .wrapping_add((shard as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                        .wrapping_add((replica as u64).wrapping_mul(0xD1B5_4A32_D192_ED03));
                    CircuitBreaker::new(cfg.clone().with_seed(seed), Arc::clone(&clock))
                })
                .collect();
            *lane.breakers.lock() = breakers;
        }
    }

    /// A TCP client: one reconnecting connection per replica endpoint
    /// (`addrs` holds one inner `Vec` per shard, in ring order).
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Malformed`] when `addrs` disagrees with the
    /// configuration, or connection errors.
    pub fn remote(
        config: ClusterConfig,
        keys: KeyRegistry,
        addrs: &[Vec<SocketAddr>],
        reconnect: ReconnectConfig,
    ) -> Result<Self, LogError> {
        config.validate()?;
        if addrs.len() != config.shards || addrs.iter().any(|a| a.len() != config.replicas) {
            return Err(LogError::Malformed("cluster endpoints (shape)"));
        }
        let mut sinks: Vec<Vec<Box<dyn ReplicaSink>>> = Vec::with_capacity(addrs.len());
        for shard in addrs {
            let mut lanes: Vec<Box<dyn ReplicaSink>> = Vec::with_capacity(shard.len());
            for addr in shard {
                lanes.push(Box::new(RemoteReplicaSink::connect(
                    *addr,
                    reconnect.clone(),
                )?));
            }
            sinks.push(lanes);
        }
        Ok(Self::from_sinks(config, keys, sinks))
    }

    /// The shard the ring assigns to a (publisher, topic) link.
    pub fn shard_for(&self, publisher: &NodeId, topic: &Topic) -> usize {
        self.ring.shard_for(publisher, topic)
    }

    /// Deposits an entry: routes it to its shard, fans it out to every
    /// replica in one serialized order, and accounts the quorum outcome.
    /// Never blocks on a dead replica and never errors — like
    /// [`adlp_logger::LoggerHandle::submit`], all degradation is counted
    /// ([`ClusterStats`]) *and* surfaced as a [`SubmitOutcome`], never
    /// silent. `Lost` means the write quorum was missed.
    pub fn submit(&self, entry: LogEntry) -> SubmitOutcome {
        if self.fan_out(&entry, false).quorate {
            SubmitOutcome::Accepted
        } else {
            SubmitOutcome::Lost
        }
    }

    /// Deposits an entry and only reports success once a write quorum of
    /// replicas reports it *durable* (synced into their WALs) — the
    /// ack-after-durable path. Accounting is identical to
    /// [`ClusterLogClient::submit`]; a sub-quorum outcome is both counted
    /// and returned as an error so the caller can refuse its own ack.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Io`] when fewer than W replicas made the entry
    /// durable.
    pub fn submit_durable(&self, entry: LogEntry) -> Result<(), LogError> {
        let outcome = self.fan_out(&entry, true);
        if outcome.quorate {
            Ok(())
        } else {
            Err(LogError::Io(format!(
                "durable write quorum not reached on shard {} ({} acks < W={})",
                outcome.shard, outcome.accepted, self.config.write_quorum
            )))
        }
    }

    /// One routed, serialized fan-out; returns the quorum outcome. All
    /// accounting (stats + quorum-acked volume) happens here.
    ///
    /// Crash-quorum mode counts *acceptances* (a live replica took the
    /// entry). BFT mode counts *matching signed head attestations*: every
    /// returned attestation is verified and fed through the shared
    /// attestation ledger (so an equivocating signature convicts its
    /// signer right here at deposit time), and the entry is acknowledged
    /// only once `2f+1` attestations agree on one (length, root). A replica
    /// that stays silent, fails verification, claims an ungranted
    /// incarnation, or signs a head nobody else signed simply does not
    /// count — it can withhold liveness, never forge agreement. A BFT
    /// configuration with no attestation ledger wired refuses outright:
    /// signed-quorum trust is never silently downgraded.
    fn fan_out(&self, entry: &LogEntry, durable: bool) -> FanOutOutcome {
        let shard_idx = self.ring.shard_for(&entry.component, &entry.topic);
        let bft = match (&self.config.bft, &self.attestations) {
            (Some(cfg), Some(ledger)) => Some((cfg.attest_quorum(), ledger)),
            (Some(cfg), None) => {
                // A BFT configuration without an attestation ledger cannot
                // verify a single signature. Refuse the deposit — counted
                // as lost, surfaced as a failed ack — instead of silently
                // downgrading a "BFT" client to unsigned crash-quorum
                // trust. `in_proc` wires the ledger automatically;
                // `from_sinks` assemblies must call `with_attestations`.
                self.stats.note_deposit(
                    shard_idx,
                    0,
                    self.config.replicas,
                    cfg.attest_quorum(),
                    Duration::ZERO,
                );
                return FanOutOutcome {
                    shard: shard_idx,
                    accepted: 0,
                    quorate: false,
                };
            }
            (None, _) => None,
        };
        let quorum = bft.as_ref().map_or(self.config.write_quorum, |(q, _)| *q);
        let Some(lane) = self.shards.get(shard_idx) else {
            // Unreachable by construction (the ring only emits known
            // shards), but if it ever happens the loss is still counted.
            self.stats
                .note_deposit(shard_idx, 0, 0, quorum, Duration::ZERO);
            return FanOutOutcome {
                shard: shard_idx,
                accepted: 0,
                quorate: false,
            };
        };
        let encoded_len = entry.encoded_len();
        let started = Instant::now();
        let guard = lane.order.lock();
        let mut breakers = lane.breakers.lock();
        let mut accepted = 0usize;
        let mut attestations: Vec<HeadAttestation> = Vec::new();
        for (i, sink) in lane.replicas.iter().enumerate() {
            // An open breaker routes around the replica: the lane counts as
            // refused for this entry (same as a dead replica), without
            // paying for the doomed call. Half-open admissions probe it.
            if let Some(breaker) = breakers.get_mut(i) {
                match breaker.admit() {
                    Admission::Rejected => {
                        self.stats.note_breaker_rejection();
                        continue;
                    }
                    Admission::Allowed | Admission::Probe => {}
                }
            }
            let took = match &bft {
                None => {
                    if durable {
                        sink.deposit_durable(entry)
                    } else {
                        sink.deposit(entry)
                    }
                }
                Some((_, ledger)) => match sink.deposit_attested(entry, durable) {
                    None => false,
                    Some(att) => {
                        // Whatever identity the attestation claims, it is
                        // evidence — run it through the split-view
                        // detector (a stolen genuine signature lands on
                        // its true signer's record; a forged one is
                        // rejected there).
                        let speaks_as_self = att.shard == shard_idx && att.replica == i;
                        let observation = ledger.observe(att.clone());
                        self.stats.note_observation(&observation);
                        let valid = !matches!(
                            observation,
                            Observation::BadSignature | Observation::BadIncarnation
                        );
                        // Only a replica speaking verifiably as *itself*
                        // joins the quorum count — a lane replaying some
                        // other replica's voice cannot double a vote.
                        if valid && speaks_as_self {
                            attestations.push(att);
                            true
                        } else {
                            false
                        }
                    }
                },
            };
            if let Some(breaker) = breakers.get_mut(i) {
                let transition = if took {
                    breaker.on_success()
                } else {
                    breaker.on_failure()
                };
                if let Some(t) = transition {
                    self.stats.note_breaker_transition(t);
                    sink.note_breaker(t);
                }
            }
            if took {
                accepted += 1;
            }
        }
        drop(breakers);
        drop(guard);
        // BFT: agreement means 2f+1 signatures over the SAME (length, root)
        // — a valid signature over a root nobody else signed supports
        // nothing.
        let supporting = match &bft {
            None => accepted,
            Some(_) => attestations
                .iter()
                .map(|a| {
                    attestations
                        .iter()
                        .filter(|b| a.length == b.length && a.root == b.root)
                        .count()
                })
                .max()
                .unwrap_or(0),
        };
        let refused = lane.replicas.len().saturating_sub(supporting);
        self.stats
            .note_deposit(shard_idx, supporting, refused, quorum, started.elapsed());
        let quorate = supporting >= quorum;
        if quorate {
            self.volume
                .record(&entry.component, &entry.topic, encoded_len);
        }
        FanOutOutcome {
            shard: shard_idx,
            accepted: supporting,
            quorate,
        }
    }

    /// Registers a component key cluster-wide (the registry is shared by
    /// every replica of every shard, including ones restarted later).
    ///
    /// # Errors
    ///
    /// Returns [`LogError::KeyConflict`] for a conflicting registration.
    pub fn register_key(&self, component: &NodeId, key: RsaPublicKey) -> Result<(), LogError> {
        self.keys.register(component, key)
    }

    /// Flushes every shard.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::ServerClosed`] when some shard could not confirm
    /// a write-quorum of flushes (its durable state is in doubt).
    pub fn flush(&self) -> Result<(), LogError> {
        let mut all_quorate = true;
        for lane in &self.shards {
            let confirmed = lane
                .replicas
                .iter()
                .filter(|sink| sink.flush_replica())
                .count();
            all_quorate &= confirmed >= self.config.write_quorum;
        }
        if all_quorate {
            Ok(())
        } else {
            Err(LogError::ServerClosed)
        }
    }

    /// The cluster-wide key registry.
    pub fn keys(&self) -> &KeyRegistry {
        &self.keys
    }

    /// Quorum/failover accounting.
    pub fn stats(&self) -> &ClusterStats {
        &self.stats
    }

    /// Volume accounting over quorum-acknowledged deposits (mirrors the
    /// single logger's [`LogStats`], so reports read one source either way).
    pub fn volume(&self) -> &LogStats {
        &self.volume
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adlp_logger::Direction;
    use adlp_pubsub::{BreakerConfig, ManualClock};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    fn entry(publisher: &str, topic: &str, seq: u64) -> LogEntry {
        LogEntry::naive(
            NodeId::new(publisher),
            Topic::new(topic),
            Direction::Out,
            seq,
            seq,
            vec![3u8; 24],
        )
    }

    #[test]
    fn quorum_met_with_one_replica_down() {
        let cluster = LoggerCluster::spawn(ClusterConfig::replicated(2)).unwrap();
        let client = ClusterLogClient::in_proc(&cluster);
        cluster.kill_replica(0, 0);
        cluster.kill_replica(1, 2);
        for seq in 0..20 {
            assert!(client.submit(entry("cam", "image", seq)).is_accepted());
            assert!(client.submit(entry("lidar", "scan", seq)).is_accepted());
        }
        client.flush().unwrap();
        let s = client.stats().snapshot();
        assert_eq!(s.submitted, 40);
        assert_eq!(s.entries_lost, 0, "2 of 3 replicas ≥ W=2: no loss");
        assert!(s.failovers > 0, "dead replicas must show as failovers");
        assert!(s.balanced());
        assert_eq!(client.volume().snapshot().entries, 40);
    }

    #[test]
    fn quorum_failure_is_counted_never_silent() {
        let cluster = LoggerCluster::spawn(ClusterConfig::replicated(1)).unwrap();
        let client = ClusterLogClient::in_proc(&cluster);
        cluster.kill_replica(0, 0);
        cluster.kill_replica(0, 1);
        for seq in 0..10 {
            assert_eq!(
                client.submit(entry("cam", "image", seq)),
                SubmitOutcome::Lost
            );
        }
        let s = client.stats().snapshot();
        assert_eq!(s.submitted, 10);
        assert_eq!(s.entries_lost, 10, "1 of 3 replicas < W=2: all lost");
        assert_eq!(s.acked, 0);
        assert!(s.balanced());
        assert!(
            client.flush().is_err(),
            "sub-quorum flush must not claim durability"
        );
    }

    /// A replica lane whose health the test controls, counting every
    /// deposit call it actually receives.
    #[derive(Debug, Default)]
    struct ScriptedSink {
        up: AtomicBool,
        calls: AtomicU64,
    }

    impl ReplicaSink for Arc<ScriptedSink> {
        fn deposit(&self, _entry: &LogEntry) -> bool {
            self.calls.fetch_add(1, Ordering::SeqCst);
            self.up.load(Ordering::SeqCst)
        }

        fn flush_replica(&self) -> bool {
            self.up.load(Ordering::SeqCst)
        }
    }

    #[test]
    fn breaker_routes_around_dead_replica_and_recloses() {
        let sick = Arc::new(ScriptedSink::default());
        let healthy = Arc::new(ScriptedSink::default());
        healthy.up.store(true, Ordering::SeqCst);
        let config = ClusterConfig::new(1)
            .with_replicas(2)
            .with_write_quorum(1)
            .with_breaker(BreakerConfig::default().with_trip(4, 4));
        let sinks: Vec<Vec<Box<dyn ReplicaSink>>> = vec![vec![
            Box::new(Arc::clone(&sick)),
            Box::new(Arc::clone(&healthy)),
        ]];
        let client = ClusterLogClient::from_sinks(config, KeyRegistry::new(), sinks);
        let clock = Arc::new(ManualClock::new(1));
        client.install_breakers(&BreakerConfig::default().with_trip(4, 4), clock.clone());

        // Four failures saturate the sick lane's window and trip it.
        for seq in 0..4 {
            assert!(client.submit(entry("cam", "image", seq)).is_accepted());
        }
        let s = client.stats().snapshot();
        assert_eq!(s.breaker_trips, 1, "sick lane must trip: {s:?}");
        assert!(s.failovers >= 4, "quorum met by the healthy survivor");

        // While open, the sick sink is not even called.
        let calls_when_tripped = sick.calls.load(Ordering::SeqCst);
        for seq in 4..8 {
            assert!(client.submit(entry("cam", "image", seq)).is_accepted());
        }
        assert_eq!(sick.calls.load(Ordering::SeqCst), calls_when_tripped);
        assert!(client.stats().snapshot().breaker_rejections >= 4);

        // The replica heals; past the cooldown, half-open probes re-admit
        // it and the breaker closes after enough successes.
        sick.up.store(true, Ordering::SeqCst);
        clock.advance_ns(2_000_000_000);
        for seq in 8..12 {
            assert!(client.submit(entry("cam", "image", seq)).is_accepted());
        }
        let s = client.stats().snapshot();
        assert_eq!(s.breaker_closes, 1, "healed lane must re-close: {s:?}");
        assert!(sick.calls.load(Ordering::SeqCst) > calls_when_tripped);
        assert!(s.balanced());
    }

    #[test]
    fn bft_client_without_ledger_refuses_instead_of_downgrading() {
        use crate::cluster::LoggerCluster;
        // A BFT cluster, but the client is assembled via from_sinks and
        // never wired to the attestation ledger: it must not quietly fall
        // back to counting unsigned acceptances against the 2f+1 quorum.
        let cluster = LoggerCluster::spawn(ClusterConfig::byzantine(1, 1)).unwrap();
        let sinks: Vec<Vec<Box<dyn ReplicaSink>>> = vec![cluster
            .shard_replicas(0)
            .iter()
            .map(|slot| crate::client::slot_sink(Arc::clone(slot)))
            .collect()];
        let client =
            ClusterLogClient::from_sinks(cluster.config().clone(), cluster.keys().clone(), sinks);

        for seq in 0..3 {
            assert_eq!(
                client.submit(entry("cam", "image", seq)),
                SubmitOutcome::Lost,
                "misassembled BFT client must refuse, not downgrade"
            );
        }
        let s = client.stats().snapshot();
        assert_eq!(s.entries_lost, 3);
        assert_eq!(s.acked, 0);
        assert!(s.balanced());
        // No replica even saw the entries: the refusal is at the trust
        // boundary, before any fan-out.
        for slot in cluster.shard_replicas(0) {
            assert_eq!(slot.handle().store().len(), 0);
        }

        // The same assembly with the ledger wired works.
        let sinks: Vec<Vec<Box<dyn ReplicaSink>>> = vec![cluster
            .shard_replicas(0)
            .iter()
            .map(|slot| crate::client::slot_sink(Arc::clone(slot)))
            .collect()];
        let wired =
            ClusterLogClient::from_sinks(cluster.config().clone(), cluster.keys().clone(), sinks)
                .with_attestations(cluster.attestations().unwrap().clone());
        assert!(wired.submit(entry("cam", "image", 9)).is_accepted());
    }

    #[test]
    fn shard_depths_track_routing() {
        let cluster = LoggerCluster::spawn(ClusterConfig::new(3)).unwrap();
        let client = ClusterLogClient::in_proc(&cluster);
        for i in 0..30 {
            assert!(client
                .submit(entry(&format!("node{i}"), "t", 1))
                .is_accepted());
        }
        client.flush().unwrap();
        let s = client.stats().snapshot();
        assert_eq!(s.shard_depth.iter().sum::<u64>(), 30);
        assert!(
            s.shard_depth.iter().filter(|&&d| d > 0).count() > 1,
            "30 publishers must spread over shards: {:?}",
            s.shard_depth
        );
        // Replica stores agree with the routing counts.
        for (shard, &depth) in s.shard_depth.iter().enumerate() {
            for slot in cluster.shard_replicas(shard) {
                assert_eq!(slot.handle().store().len() as u64, depth);
            }
        }
    }
}
