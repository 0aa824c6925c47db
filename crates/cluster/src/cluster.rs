//! The replica fleet: N shards × R replica [`LogServer`] backends.

use crate::attestation::{AttestationLog, ReplicaAttestor};
use crate::config::ClusterConfig;
use crate::epoch::{empty_shard_root, EpochSeal};
use crate::stats::ClusterStats;
use crate::view::{self, ClusterView};
use adlp_crypto::rsa::RsaPrivateKey;
use adlp_crypto::RsaKeyPair;
use adlp_logger::{
    DurabilityConfig, DurabilityStats, KeyRegistry, Keyring, LogEntry, LogError, LogServer,
    LoggerHandle, MemStorage, Recorder, RecordingWindow, Recovery, Storage, SyncPolicy,
};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// One replica backend of one shard. The inner [`LogServer`] can be killed
/// (simulated crash) and later replaced by a fresh server — the fail-stop
/// lifecycle the trust model allows replicas. A *durable* slot keeps its
/// [`DurabilityConfig`], so a restart reopens the same storage device and
/// recovers the acked prefix instead of starting empty.
#[derive(Debug)]
pub struct ReplicaSlot {
    shard: usize,
    index: usize,
    server: Mutex<LogServer>,
    /// Cleared by [`ReplicaSlot::kill`], set again by a successful restart.
    alive: AtomicBool,
    durability: Option<DurabilityConfig>,
    /// BFT mode only: this replica's attestation identity. The keypair
    /// survives kill/restart — a replica keeps its identity (and its
    /// accountability) across its fail-stop lifecycle.
    attestor: Option<Arc<ReplicaAttestor>>,
}

impl ReplicaSlot {
    /// A handle to the replica's current server incarnation.
    pub fn handle(&self) -> LoggerHandle {
        self.server.lock().handle()
    }

    /// Shard this replica belongs to.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Replica index within the shard.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Simulates a crash of this replica (fail-stop: the store freezes,
    /// new submissions are refused).
    pub fn kill(&self) {
        self.server.lock().kill();
        self.alive.store(false, Ordering::SeqCst);
    }

    /// Whether the replica's server is running. A dead replica's store
    /// stays readable, but it signs nothing: no view, a seal's included,
    /// interrogates it for a head attestation.
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::SeqCst)
    }

    /// Replaces a (killed) replica with a fresh server sharing the cluster
    /// key registry — a rolling-restart step. A durable slot reopens its
    /// storage and recovers the acked prefix (returning what recovery
    /// found); a volatile slot comes back *empty*. Either way the restarted
    /// replica re-enters as a lagging follower; it never masquerades as
    /// having history it does not hold.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Io`] when the OS refuses to create the thread or
    /// the storage device refuses recovery outright.
    pub fn restart(&self, keys: KeyRegistry) -> Result<Option<Recovery>, LogError> {
        let recovery = match &self.durability {
            Some(config) => {
                let spawned = LogServer::try_spawn_durable(keys, config)?;
                *self.server.lock() = spawned.server;
                Some(spawned.recovery)
            }
            None => {
                *self.server.lock() = LogServer::try_spawn_with_keys(keys)?;
                None
            }
        };
        self.alive.store(true, Ordering::SeqCst);
        Ok(recovery)
    }

    /// BFT mode only: this replica's attestation signer. `None` on a
    /// crash-quorum cluster.
    pub fn attestor(&self) -> Option<&Arc<ReplicaAttestor>> {
        self.attestor.as_ref()
    }

    /// Signs this replica's *current true* log head — its length and the
    /// Merkle root over exactly that many records, read at one instant —
    /// the honest deposit/view-time attestation. An empty log attests to
    /// [`crate::empty_shard_root`]. `None` when the cluster is not in BFT
    /// mode.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Malformed`] when signing fails.
    pub fn attest_head(&self) -> Result<Option<crate::attestation::HeadAttestation>, LogError> {
        let Some(attestor) = &self.attestor else {
            return Ok(None);
        };
        let (length, root) = self.handle().store().tree_head();
        let root = root.unwrap_or_else(empty_shard_root);
        attestor.attest(length as u64, root).map(Some)
    }
}

/// A sharded, replicated trusted-logger cluster.
///
/// All replicas share one [`KeyRegistry`], so a key registered once is
/// honored cluster-wide (including by replicas restarted later).
#[derive(Debug)]
pub struct LoggerCluster {
    config: ClusterConfig,
    keys: KeyRegistry,
    shards: Vec<Vec<Arc<ReplicaSlot>>>,
    epoch: AtomicU64,
    stats: ClusterStats,
    /// BFT mode only: the shared split-view detector every attestation in
    /// the cluster flows through (deposit acks, view gathering, epoch
    /// seals).
    attestations: Option<AttestationLog>,
    /// Per-shard forensic recorders (None until
    /// [`LoggerCluster::attach_shard_recorders`]); each is shared by every
    /// replica of its shard, so the shard's deposit stream survives
    /// individual replica crashes. Replay dedups the byte-identical frames
    /// the fan-out produces.
    recorders: Mutex<Vec<Option<Arc<Recorder>>>>,
}

/// File name the attestor's restart-critical state persists under on a
/// replica's storage device (alongside the WAL and snapshot files, never
/// clashing with them).
const ATTESTOR_STATE_FILE: &str = "attestor";

/// Per-replica attestation identities for a BFT cluster, generated
/// deterministically from the configured seed (deployments would load real
/// keys; determinism keeps chaos drills replayable).
struct BftIdentities {
    attestors: Vec<Vec<Arc<ReplicaAttestor>>>,
    ledger: AttestationLog,
}

fn bft_identities(config: &ClusterConfig) -> Option<BftIdentities> {
    let bft = config.bft.as_ref()?;
    let mut attestors = Vec::with_capacity(config.shards);
    let mut public = Keyring::new();
    for shard in 0..config.shards {
        let mut row = Vec::with_capacity(config.replicas);
        for replica in 0..config.replicas {
            let seed = bft
                .seed
                .wrapping_add((shard as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .wrapping_add((replica as u64).wrapping_mul(0xD1B5_4A32_D192_ED03));
            let mut rng = StdRng::seed_from_u64(seed);
            let kp = RsaKeyPair::generate(bft.key_bits, &mut rng);
            public.insert((shard, replica), kp.public_key().clone());
            row.push(Arc::new(ReplicaAttestor::new(
                shard,
                replica,
                kp.into_private_key(),
            )));
        }
        attestors.push(row);
    }
    let ledger = AttestationLog::new(public, bft.window, bft.attest_quorum());
    Some(BftIdentities { attestors, ledger })
}

impl LoggerCluster {
    /// Spawns `shards × replicas` volatile backends.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Malformed`] for an invalid configuration and
    /// [`LogError::Io`] when a backend thread cannot be created.
    pub fn spawn(config: ClusterConfig) -> Result<Self, LogError> {
        config.validate()?;
        let keys = KeyRegistry::new();
        let stats = ClusterStats::new(config.shards);
        let identities = bft_identities(&config);
        let mut shards = Vec::with_capacity(config.shards);
        for shard in 0..config.shards {
            let mut replicas = Vec::with_capacity(config.replicas);
            for index in 0..config.replicas {
                let server = LogServer::try_spawn_with_keys(keys.clone())?;
                let attestor = identities
                    .as_ref()
                    .and_then(|ids| ids.attestors.get(shard))
                    .and_then(|row| row.get(index))
                    .cloned();
                if let Some(att) = &attestor {
                    // Even with a volatile log, the attestation identity
                    // gets a small durable device of its own (think TPM /
                    // NVRAM): the incarnation and last-signed head survive
                    // the replica's fail-stop lifecycle.
                    att.bind_storage(Arc::new(MemStorage::new()), ATTESTOR_STATE_FILE)?;
                }
                replicas.push(Arc::new(ReplicaSlot {
                    shard,
                    index,
                    server: Mutex::new(server),
                    alive: AtomicBool::new(true),
                    durability: None,
                    attestor,
                }));
            }
            shards.push(replicas);
        }
        let shard_count = config.shards;
        Ok(LoggerCluster {
            config,
            keys,
            shards,
            epoch: AtomicU64::new(0),
            stats,
            attestations: identities.map(|ids| ids.ledger),
            recorders: Mutex::new(vec![None; shard_count]),
        })
    }

    /// Spawns `shards × replicas` *durable* backends, one storage device per
    /// replica (`storages` holds one inner `Vec` per shard). Every replica
    /// recovers whatever its device already holds, and all replicas share
    /// one [`DurabilityStats`] — also wired into this cluster's
    /// [`ClusterStats`], so fsync failures and truncated records anywhere in
    /// the fleet surface in cluster snapshots live.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Malformed`] for an invalid configuration or a
    /// `storages` shape that disagrees with it, and [`LogError::Io`] when a
    /// backend thread cannot be created or a device refuses recovery.
    pub fn spawn_durable(
        config: ClusterConfig,
        storages: Vec<Vec<Arc<dyn Storage>>>,
        fsync: SyncPolicy,
        rotate_every: usize,
    ) -> Result<Self, LogError> {
        config.validate()?;
        if storages.len() != config.shards || storages.iter().any(|s| s.len() != config.replicas) {
            return Err(LogError::Malformed("cluster storages (shape)"));
        }
        let keys = KeyRegistry::new();
        let durability = DurabilityStats::default();
        let stats = ClusterStats::with_durability(config.shards, durability.clone());
        let identities = bft_identities(&config);
        let mut shards = Vec::with_capacity(config.shards);
        for (shard, shard_storages) in storages.into_iter().enumerate() {
            let mut replicas = Vec::with_capacity(config.replicas);
            for (index, storage) in shard_storages.into_iter().enumerate() {
                let slot_config = DurabilityConfig::new(Arc::clone(&storage))
                    .fsync(fsync)
                    .rotate_every(rotate_every)
                    .counters(durability.clone());
                let spawned = LogServer::try_spawn_durable(keys.clone(), &slot_config)?;
                let attestor = identities
                    .as_ref()
                    .and_then(|ids| ids.attestors.get(shard))
                    .and_then(|row| row.get(index))
                    .cloned();
                if let Some(att) = &attestor {
                    // The attestation state shares the replica's storage
                    // device, under its own file — same write-replace
                    // durability as snapshots, resumed on re-open.
                    att.bind_storage(Arc::clone(&storage), ATTESTOR_STATE_FILE)?;
                }
                replicas.push(Arc::new(ReplicaSlot {
                    shard,
                    index,
                    server: Mutex::new(spawned.server),
                    alive: AtomicBool::new(true),
                    durability: Some(slot_config),
                    attestor,
                }));
            }
            shards.push(replicas);
        }
        let shard_count = config.shards;
        Ok(LoggerCluster {
            config,
            keys,
            shards,
            epoch: AtomicU64::new(0),
            stats,
            attestations: identities.map(|ids| ids.ledger),
            recorders: Mutex::new(vec![None; shard_count]),
        })
    }

    /// Cluster-level accounting (shared with clients built over this
    /// cluster; for a durable cluster, also fed by every replica's storage
    /// counters).
    pub fn stats(&self) -> &ClusterStats {
        &self.stats
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The cluster-wide key registry (shared by every replica).
    pub fn keys(&self) -> &KeyRegistry {
        &self.keys
    }

    /// BFT mode only: the shared attestation ledger (split-view detector).
    /// `None` on a crash-quorum cluster.
    pub fn attestations(&self) -> Option<&AttestationLog> {
        self.attestations.as_ref()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The replica slots of one shard.
    pub fn shard_replicas(&self, shard: usize) -> &[Arc<ReplicaSlot>] {
        self.shards.get(shard).map_or(&[], Vec::as_slice)
    }

    /// One replica slot, if it exists.
    pub fn replica(&self, shard: usize, replica: usize) -> Option<&Arc<ReplicaSlot>> {
        self.shards.get(shard).and_then(|s| s.get(replica))
    }

    /// Kills one replica (fail-stop crash). Returns whether the slot exists.
    pub fn kill_replica(&self, shard: usize, replica: usize) -> bool {
        match self.replica(shard, replica) {
            Some(slot) => {
                slot.kill();
                true
            }
            None => false,
        }
    }

    /// Restarts one replica. A durable slot reopens its storage device and
    /// recovers the acked prefix (`Some(recovery)` reports what it found);
    /// a volatile slot comes back empty (`None`). Either way it rejoins as
    /// a lagging follower — use [`LoggerCluster::catch_up_replica`] to bring
    /// it back to the quorum log.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::NoSuchEntry`] for an unknown slot and
    /// [`LogError::Io`] when the replacement thread cannot be created or
    /// the storage device refuses recovery.
    pub fn restart_replica(
        &self,
        shard: usize,
        replica: usize,
    ) -> Result<Option<Recovery>, LogError> {
        let slot = self
            .replica(shard, replica)
            .ok_or(LogError::NoSuchEntry(replica))?;
        let recovery = slot.restart(self.keys.clone())?;
        self.reconcile_restarted_attestor(slot)?;
        // The fresh server starts with no recording tap; rejoin it to the
        // shard's recorder so the forensic stream keeps flowing.
        if let Some(rec) = self.shard_recorder(shard) {
            slot.handle().attach_recorder(rec);
        }
        Ok(recovery)
    }

    /// Attaches one forensic [`Recorder`] per shard (one storage device
    /// each, files named `recording-shard<N>`): from now on every entry
    /// deposited to, or adopted by, *any replica* of a shard is also framed
    /// into that shard's recording under the epoch currently in force. The
    /// per-replica fan-out writes byte-identical frames; replay-side
    /// deduplication (see `adlp-dispute`) collapses them, which is what
    /// keeps the recording complete across individual replica crashes.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Malformed`] when `storages` does not hold
    /// exactly one device per shard.
    pub fn attach_shard_recorders(&self, storages: Vec<Arc<dyn Storage>>) -> Result<(), LogError> {
        if storages.len() != self.shards.len() {
            return Err(LogError::Malformed("shard recorders (shape)"));
        }
        let epoch = self.epoch.load(Ordering::SeqCst);
        let mut recorders = self.recorders.lock();
        for (shard, ((storage, replicas), rec_slot)) in storages
            .into_iter()
            .zip(self.shards.iter())
            .zip(recorders.iter_mut())
            .enumerate()
        {
            let rec = Arc::new(Recorder::new(storage, format!("recording-shard{shard}")));
            rec.set_epoch(epoch);
            for slot in replicas {
                slot.handle().attach_recorder(Arc::clone(&rec));
            }
            *rec_slot = Some(rec);
        }
        Ok(())
    }

    /// One shard's recorder, if recording is attached.
    pub fn shard_recorder(&self, shard: usize) -> Option<Arc<Recorder>> {
        self.recorders.lock().get(shard).cloned().flatten()
    }

    /// Extracts the transferable `[epoch_from, epoch_to]` recording window
    /// for one shard — the byte blob a dispute party posts as evidence.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Malformed`] when no recorder is attached to the
    /// shard or the range is inverted, and [`LogError::Io`] on device
    /// failure.
    pub fn extract_recording(
        &self,
        shard: usize,
        epoch_from: u64,
        epoch_to: u64,
    ) -> Result<RecordingWindow, LogError> {
        let rec = self
            .shard_recorder(shard)
            .ok_or(LogError::Malformed("shard recording (not attached)"))?;
        rec.extract_window(epoch_from, epoch_to)
    }

    /// BFT mode only: if a restarted replica's recovered log is shorter
    /// than the highest head its attestor ever signed (a volatile log, or a
    /// recovery that truncated unsynced records), the replica has lost
    /// attested history. Re-signing those small lengths in the old
    /// incarnation would convict it of equivocation against its own past —
    /// so the cluster sanctions the loss exactly like a catch-up rollback:
    /// a fresh incarnation, granted by the ledger and persisted by the
    /// attestor. The durable signed-length record is what makes this
    /// detectable at all; without it a restarted replica could not know it
    /// ever spoke.
    fn reconcile_restarted_attestor(&self, slot: &Arc<ReplicaSlot>) -> Result<(), LogError> {
        let (Some(ledger), Some(attestor)) = (&self.attestations, slot.attestor()) else {
            return Ok(());
        };
        let recovered = slot.handle().store().len() as u64;
        if recovered < attestor.state().signed_len {
            let incarnation = ledger.note_rollback(slot.shard(), slot.index());
            attestor.set_incarnation(incarnation)?;
        }
        Ok(())
    }

    /// Brings a lagging replica back to its shard's quorum log by adopting
    /// the records it is missing. The replica's current log must be a
    /// *prefix* of the quorum log — anything else (diverged content, a
    /// replica ahead of the quorum, or a mid-stream window with a hole at
    /// the head) is refused rather than papered over: catch-up repairs
    /// availability, it must never manufacture agreement.
    ///
    /// Returns the number of records the replica gained.
    ///
    /// Catch-up is safe against a concurrent deposit: after adopting the
    /// missing suffix it re-reads the quorum log, and if the adopted log is
    /// no longer a prefix of (or equal to) it — a deposit interleaved with
    /// the adoption and landed at a different position on this replica than
    /// on its peers — the adoption is rolled back to the pre-catch-up state
    /// and retried against the fresh quorum (a bounded number of times, so
    /// a single race self-heals without caller involvement). Both quorum
    /// reads are *quiet* — no BFT attestation interrogation — so the
    /// replica never swears to a transient mid-repair state, and each
    /// rollback advances the replica's attestation incarnation (see
    /// [`crate::attestation`]): an honest post-rollback re-signature at a
    /// reused length is a fresh statement, never a self-conviction.
    ///
    /// Rollbacks run on the replica's server thread and are durable on a
    /// durable slot (fresh snapshot, WAL reset), so neither a retry's WAL
    /// replay nor a crash recovery can resurrect the rolled-back suffix.
    /// A rollback also discards any deposit that landed mid-adoption on
    /// this replica; until the retry (which re-adopts it from the quorum
    /// log) or — if every attempt is raced — a later catch-up succeeds,
    /// such an entry sits one replica below its acked quorum count. That
    /// window is visible: the replica shows as lagging in every view.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::NoSuchEntry`] for an unknown slot,
    /// [`LogError::Malformed`] when the replica's log is not a prefix of
    /// the quorum log or when deposits raced every adoption attempt (the
    /// replica is left at its pre-catch-up state; retry once the shard is
    /// quieter), and submission errors from the adoption path.
    pub fn catch_up_replica(&self, shard: usize, replica: usize) -> Result<usize, LogError> {
        self.catch_up_replica_inner(shard, replica, &mut |_| {})
    }

    /// Test hook: like [`LoggerCluster::catch_up_replica`], but invoking
    /// `mid_adoption` after each adopted record (with the cumulative number
    /// adopted across all attempts, rolled-back adoptions included) — lets
    /// a test deterministically race a deposit against the adoption loop.
    #[doc(hidden)]
    pub fn catch_up_replica_with_hook(
        &self,
        shard: usize,
        replica: usize,
        mid_adoption: &mut dyn FnMut(usize),
    ) -> Result<usize, LogError> {
        self.catch_up_replica_inner(shard, replica, mid_adoption)
    }

    /// Adoption attempts before catch-up reports the shard too busy.
    const CATCH_UP_ATTEMPTS: usize = 3;

    fn catch_up_replica_inner(
        &self,
        shard: usize,
        replica: usize,
        mid_adoption: &mut dyn FnMut(usize),
    ) -> Result<usize, LogError> {
        let slot = self
            .replica(shard, replica)
            .ok_or(LogError::NoSuchEntry(replica))?;
        let handle = slot.handle();
        let store = handle.store();
        let baseline = store.len();
        let mut adopted_total = 0usize;
        for _ in 0..Self::CATCH_UP_ATTEMPTS {
            // Quiet quorum read: catch-up must not interrogate attestations
            // over a state it may roll back.
            let quorum = view::quorum_records(self, shard).ok_or(LogError::NoSuchEntry(shard))?;
            let have = store.encoded_records();
            if have.len() > quorum.len() {
                return Err(LogError::Malformed("catch-up (replica ahead of quorum)"));
            }
            if have.iter().zip(quorum.iter()).any(|(a, b)| a != b) {
                return Err(LogError::Malformed(
                    "catch-up (replica not a quorum prefix)",
                ));
            }
            let missing = quorum.get(have.len()..).unwrap_or(&[]);
            for record in missing {
                let (entry, encoded) = LogEntry::decode_record(record.clone())?;
                handle.adopt_encoded(entry, encoded)?;
                adopted_total += 1;
                mid_adoption(adopted_total);
            }
            handle.flush()?;
            // Re-read the quorum (again quietly): if it advanced and our
            // adopted log is no longer a prefix of it, a deposit
            // interleaved with the adoption — back the adoption out and
            // try again against the fresh quorum rather than leave a
            // silent reorder on this replica.
            let quorum_now =
                view::quorum_records(self, shard).ok_or(LogError::NoSuchEntry(shard))?;
            let ours = store.encoded_records();
            let still_prefix = ours.len() <= quorum_now.len()
                && ours.iter().zip(quorum_now.iter()).all(|(a, b)| a == b);
            if still_prefix {
                return Ok(ours.len() - baseline);
            }
            self.rollback_replica(slot, baseline)?;
        }
        Err(LogError::Malformed(
            "catch-up (quorum advanced mid-catch-up)",
        ))
    }

    /// Rolls a replica's log back to `len` (durably, on the server thread)
    /// and, in BFT mode, advances its attestation incarnation so heads
    /// signed before and after the rollback stop being comparable. Order
    /// matters: the log is truncated back to the quorum-agreed prefix
    /// *before* the bump, so any attestation signed in between covers
    /// unchanged content (a duplicate at worst, never a conflict).
    fn rollback_replica(&self, slot: &Arc<ReplicaSlot>, len: usize) -> Result<(), LogError> {
        slot.handle().rollback_to(len)?;
        if let (Some(ledger), Some(attestor)) = (&self.attestations, slot.attestor()) {
            let incarnation = ledger.note_rollback(slot.shard(), slot.index());
            attestor.set_incarnation(incarnation)?;
        }
        Ok(())
    }

    /// Gathers every replica's store and cross-checks them (see
    /// [`crate::view`]).
    pub fn view(&self) -> ClusterView {
        view::gather(self, false)
    }

    /// Seals the next epoch: collects per-shard quorum Merkle roots and
    /// anchors them under one signed cross-shard super-root. Epoch numbers
    /// increase monotonically per cluster.
    ///
    /// In BFT mode the head every live replica signs during the seal's own
    /// view is its countersignature of the sealed root: the ledger never
    /// prunes it, so a replica that shows another root at that length,
    /// however late, convicts itself.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Malformed`] when signing fails (e.g. an
    /// undersized sealing key).
    pub fn seal_epoch(&self, sealing_key: &RsaPrivateKey) -> Result<EpochSeal, LogError> {
        let epoch = self.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        // Entries recorded from here on belong to the new epoch. The
        // recorder bump is best-effort with respect to concurrent
        // deposits: replica server threads keep depositing while we walk
        // the recorders, so an entry landing in that window may still be
        // tagged with the old epoch even though it follows the seal
        // logically. A dispute window `[e, e]` therefore covers the
        // traffic between seal `e-1` and seal `e` up to that seal-edge
        // skew; quiesce deposits around the seal when an exact epoch
        // boundary matters forensically.
        for rec in self.recorders.lock().iter().flatten() {
            rec.set_epoch(epoch);
        }
        let view = view::gather(self, true);
        EpochSeal::build(epoch, view.shard_roots(), sealing_key)
            .map_err(|_| LogError::Malformed("epoch seal (signing)"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adlp_crypto::Statement;
    use adlp_logger::{Direction, LogEntry};
    use adlp_pubsub::{NodeId, Topic};

    fn entry(seq: u64) -> LogEntry {
        LogEntry::naive(
            NodeId::new("cam"),
            Topic::new("image"),
            Direction::Out,
            seq,
            seq,
            vec![0u8; 16],
        )
    }

    #[test]
    fn spawn_kill_restart_lifecycle() {
        let cluster = LoggerCluster::spawn(ClusterConfig::replicated(2)).unwrap();
        assert_eq!(cluster.shard_count(), 2);
        let slot = cluster.replica(0, 1).unwrap().clone();
        slot.handle().try_submit(entry(1)).unwrap();
        slot.handle().flush().unwrap();
        assert_eq!(slot.handle().store().len(), 1);

        cluster.kill_replica(0, 1);
        assert!(slot.handle().try_submit(entry(2)).is_err());

        cluster.restart_replica(0, 1).unwrap();
        slot.handle().try_submit(entry(3)).unwrap();
        slot.handle().flush().unwrap();
        assert_eq!(slot.handle().store().len(), 1, "restart is empty (lagging)");
    }

    #[test]
    fn shard_recorders_capture_deposits_and_follow_epochs() {
        let cluster = LoggerCluster::spawn(ClusterConfig::replicated(2)).unwrap();
        let devices: Vec<Arc<dyn Storage>> = (0..cluster.shard_count())
            .map(|_| Arc::new(MemStorage::new()) as Arc<dyn Storage>)
            .collect();
        cluster.attach_shard_recorders(devices).unwrap();

        let slot = cluster.replica(0, 0).unwrap().clone();
        slot.handle().try_submit(entry(1)).unwrap();
        slot.handle().flush().unwrap();

        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let sealing = RsaKeyPair::generate(512, &mut rng);
        cluster.seal_epoch(sealing.private_key()).unwrap();

        slot.handle().try_submit(entry(2)).unwrap();
        slot.handle().flush().unwrap();

        let rec = cluster.shard_recorder(0).unwrap();
        let replay = rec.replay().unwrap();
        assert_eq!(replay.frames.len(), 2);
        assert_eq!(replay.frames[0].0, 0);
        assert_eq!(replay.frames[1].0, 1);

        // Window extraction returns only the second epoch's frame, as a
        // verifiable recording of its own.
        let window = cluster.extract_recording(0, 1, 1).unwrap();
        assert!(window.verify());
        assert_eq!(window.replay().unwrap().frames.len(), 1);

        // A restarted replica rejoins the shard recorder.
        cluster.kill_replica(0, 0);
        cluster.restart_replica(0, 0).unwrap();
        let slot = cluster.replica(0, 0).unwrap().clone();
        slot.handle().try_submit(entry(3)).unwrap();
        slot.handle().flush().unwrap();
        assert_eq!(rec.replay().unwrap().frames.len(), 3);
    }

    #[test]
    fn extract_recording_without_recorder_is_refused() {
        let cluster = LoggerCluster::spawn(ClusterConfig::replicated(1)).unwrap();
        assert!(matches!(
            cluster.extract_recording(0, 0, 0),
            Err(LogError::Malformed(_))
        ));
        assert!(cluster.attach_shard_recorders(vec![]).is_err());
    }

    #[test]
    fn replicas_share_one_key_registry() {
        let cluster = LoggerCluster::spawn(ClusterConfig::replicated(2)).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        use rand::SeedableRng;
        let kp = adlp_crypto::RsaKeyPair::generate(128, &mut rng);
        cluster
            .keys()
            .register(&NodeId::new("cam"), kp.public_key().clone())
            .unwrap();
        for shard in 0..cluster.shard_count() {
            for slot in cluster.shard_replicas(shard) {
                assert!(slot.handle().keys().get(&NodeId::new("cam")).is_some());
            }
        }
        // A restarted replica also sees the registration.
        cluster.restart_replica(1, 0).unwrap();
        let slot = cluster.replica(1, 0).unwrap();
        assert!(slot.handle().keys().get(&NodeId::new("cam")).is_some());
    }

    #[test]
    fn invalid_config_refused() {
        let mut config = ClusterConfig::new(2);
        config.write_quorum = 3;
        assert!(LoggerCluster::spawn(config).is_err());
    }

    #[test]
    fn durable_replica_restart_recovers_and_catches_up() {
        use crate::client::ClusterLogClient;
        use adlp_logger::MemStorage;

        let config = ClusterConfig::replicated(1);
        let devices: Vec<Vec<Arc<MemStorage>>> = (0..config.shards)
            .map(|_| {
                (0..config.replicas)
                    .map(|_| Arc::new(MemStorage::new()))
                    .collect()
            })
            .collect();
        let storages: Vec<Vec<Arc<dyn Storage>>> = devices
            .iter()
            .map(|shard| {
                shard
                    .iter()
                    .map(|d| Arc::clone(d) as Arc<dyn Storage>)
                    .collect()
            })
            .collect();
        let cluster =
            LoggerCluster::spawn_durable(config, storages, SyncPolicy::EveryAppend, 1024).unwrap();
        let client = ClusterLogClient::in_proc(&cluster);
        for seq in 0..5 {
            client.submit_durable(entry(seq)).unwrap();
        }
        client.flush().unwrap();

        // Crash one replica: fail-stop plus a power cut on its device.
        cluster.kill_replica(0, 2);
        devices[0][2].crash();
        for seq in 5..8 {
            client.submit_durable(entry(seq)).unwrap();
        }
        client.flush().unwrap();

        // The restarted replica recovers its acked prefix — not empty.
        let recovery = cluster
            .restart_replica(0, 2)
            .unwrap()
            .expect("durable slot must report recovery");
        assert_eq!(recovery.records_truncated, 0, "every append was synced");
        let slot = cluster.replica(0, 2).unwrap();
        assert_eq!(slot.handle().store().len(), 5, "acked prefix recovered");

        // It rejoins lagging (never diverged), then catches up to quorum.
        let view = cluster.view();
        assert!(view.divergences().is_empty());
        assert_eq!(view.lagging(), vec![(0, 2, 3)]);
        assert_eq!(cluster.catch_up_replica(0, 2).unwrap(), 3);
        let view = cluster.view();
        assert!(view.divergences().is_empty());
        assert!(view.lagging().is_empty());

        let s = cluster.stats().snapshot();
        assert!(s.balanced());
        assert_eq!(s.acked, 8);
    }

    #[test]
    fn bft_cluster_acks_with_signed_quorum_and_audits_clean() {
        use crate::client::ClusterLogClient;
        let cluster = LoggerCluster::spawn(ClusterConfig::byzantine(1, 1)).unwrap();
        assert_eq!(cluster.config().replicas, 4);
        assert_eq!(cluster.config().write_quorum, 3);
        let client = ClusterLogClient::in_proc(&cluster);
        for seq in 0..5 {
            assert!(client.submit(entry(seq)).is_accepted());
        }
        let s = cluster.stats().snapshot();
        assert_eq!(s.acked, 5);
        assert_eq!(s.entries_lost, 0);
        // Every deposit drew a verified attestation from all four replicas.
        assert_eq!(s.attestations_verified, 20);
        assert_eq!(s.attestations_rejected, 0);
        assert_eq!(s.equivocations_detected, 0);

        let view = cluster.view();
        assert!(view.convictions.is_empty());
        assert!(view.equivocated().is_empty());
        assert!(view.shards.iter().all(|sh| sh
            .statuses
            .iter()
            .all(|st| *st == crate::view::ReplicaStatus::Consistent)));

        // The seal's own view has every replica sign its head once more —
        // its countersignature — and honest heads mint no convictions.
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let sealer = adlp_crypto::RsaKeyPair::generate(512, &mut rng);
        let seal = cluster.seal_epoch(sealer.private_key()).unwrap();
        assert!(seal.verify(sealer.public_key()));
        let s = cluster.stats().snapshot();
        assert_eq!(s.equivocations_detected, 0);
        assert_eq!(s.attestations_verified, 20 + 4 + 4, "one head per view");
    }

    #[test]
    fn a_second_root_at_a_sealed_length_convicts_after_the_window_passes_it() {
        use crate::attestation::{BftConfig, Observation};
        use crate::client::ClusterLogClient;
        let bft = BftConfig {
            window: 2,
            ..BftConfig::new(1)
        };
        let cluster = LoggerCluster::spawn(ClusterConfig::new(1).with_bft(bft)).unwrap();
        let client = ClusterLogClient::in_proc(&cluster);
        for seq in 0..2 {
            assert!(client.submit(entry(seq)).is_accepted());
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let sealer = RsaKeyPair::generate(512, &mut rng);
        cluster.seal_epoch(sealer.private_key()).unwrap();
        // The quorum-corroborated horizon moves to 8 - 2, past length 2.
        for seq in 2..8 {
            assert!(client.submit(entry(seq)).is_accepted());
        }
        let ledger = cluster.attestations().unwrap();
        let traitor = cluster.replica(0, 2).unwrap().attestor().unwrap();
        let split_brain = |length| {
            traitor
                .attest(length, adlp_crypto::sha256(b"split"))
                .unwrap()
        };
        // The unsealed head at 1 was pruned; the head sealed at 2 was not.
        assert_eq!(ledger.observe(split_brain(1)), Observation::Consistent);
        assert!(matches!(
            ledger.observe(split_brain(2)),
            Observation::Equivocation(_)
        ));
    }

    #[test]
    fn bft_cluster_survives_one_silent_replica() {
        use crate::client::ClusterLogClient;
        let cluster = LoggerCluster::spawn(ClusterConfig::byzantine(1, 1)).unwrap();
        let client = ClusterLogClient::in_proc(&cluster);
        cluster.kill_replica(0, 3);
        for seq in 0..5 {
            assert!(
                client.submit(entry(seq)).is_accepted(),
                "3 of 4 matching signed heads meet the 2f+1 quorum"
            );
        }
        let s = cluster.stats().snapshot();
        assert_eq!(s.entries_lost, 0);
        assert!(
            s.failovers > 0,
            "the silent replica is counted, not ignored"
        );

        // Two silent replicas break the 2f+1 quorum: counted loss.
        cluster.kill_replica(0, 2);
        assert!(!client.submit(entry(9)).is_accepted());
        assert_eq!(cluster.stats().snapshot().entries_lost, 1);
    }

    #[test]
    fn bft_replica_restarted_mid_run_neither_self_convicts_nor_loses_incarnation() {
        use crate::client::ClusterLogClient;
        let cluster = LoggerCluster::spawn(ClusterConfig::byzantine(1, 1)).unwrap();
        let client = ClusterLogClient::in_proc(&cluster);
        for seq in 0..3 {
            assert!(client.submit(entry(seq)).is_accepted());
        }
        let slot = cluster.replica(0, 1).unwrap().clone();
        let attestor = slot.attestor().unwrap().clone();
        assert_eq!(attestor.state().signed_len, 3);
        assert_eq!(attestor.incarnation(), 0);

        // Crash and restart: the volatile log is gone, but the attestor's
        // durable state is not — the cluster sees recovered length 0 against
        // signed length 3 and sanctions the loss with a fresh incarnation.
        cluster.kill_replica(0, 1);
        cluster.restart_replica(0, 1).unwrap();
        assert_eq!(
            attestor.incarnation(),
            1,
            "restart granted a fresh incarnation"
        );
        assert_eq!(
            attestor.state().signed_len,
            3,
            "durable signed head survived"
        );

        // A deposit lands while the replica is still empty: it appends at
        // local length 1 and re-signs Head{1} with *different* content than
        // it signed at length 1 before the restart. In the old incarnation
        // that is an equivocation against its own past; in the granted one
        // it is a fresh statement. Nobody is convicted.
        assert!(client.submit(entry(9)).is_accepted());
        let view = cluster.view();
        assert!(
            view.convictions.is_empty(),
            "honest restart must not convict"
        );
        assert!(view.equivocated().is_empty());
        assert_eq!(cluster.stats().snapshot().equivocations_detected, 0);

        // A second restart clears the (unavoidably diverged) mid-run log;
        // the incarnation keeps ratcheting, never resets, and catch-up
        // brings the replica back to the quorum with a clean view.
        cluster.kill_replica(0, 1);
        cluster.restart_replica(0, 1).unwrap();
        assert_eq!(
            attestor.incarnation(),
            2,
            "incarnation ratchets, never resets"
        );
        assert!(cluster.catch_up_replica(0, 1).unwrap() >= 4);
        assert!(client.submit(entry(10)).is_accepted());
        let view = cluster.view();
        assert!(view.convictions.is_empty());
        assert!(view.equivocated().is_empty());
        assert!(view.divergences().is_empty());
        assert!(view.lagging().is_empty());
        assert_eq!(cluster.stats().snapshot().equivocations_detected, 0);
    }

    #[test]
    fn catch_up_racing_deposit_is_rolled_back_and_retried() {
        use crate::client::ClusterLogClient;
        use std::sync::Arc as StdArc;
        let cluster = StdArc::new(LoggerCluster::spawn(ClusterConfig::replicated(1)).unwrap());
        let client = ClusterLogClient::in_proc(&cluster);

        // Replicas 0 and 1 hold [e1, e2]; replica 2 is empty (restarted).
        for slot in cluster.shard_replicas(0).iter().take(2) {
            for seq in [1, 2] {
                slot.handle().try_submit(entry(seq)).unwrap();
            }
            slot.handle().flush().unwrap();
        }

        // Race: after the first adopted record, a deposit fans out to the
        // whole shard — landing *mid-adoption* on replica 2, at a different
        // position than on its peers. The racy adoption is rolled back and
        // the internal retry re-adopts everything (raced entry included)
        // from the fresh quorum log — one call, no silent reorder, and no
        // acked entry left below quorum.
        let client_ref = &client;
        let result = cluster.catch_up_replica_with_hook(0, 2, &mut |adopted| {
            if adopted == 1 {
                assert!(client_ref.submit(entry(3)).is_accepted());
                client_ref.flush().unwrap();
            }
        });
        assert_eq!(result.unwrap(), 3, "retry absorbs the raced deposit too");
        let slot = cluster.replica(0, 2).unwrap();
        assert_eq!(slot.handle().store().len(), 3);
        let view = cluster.view();
        assert!(view.divergences().is_empty());
        assert!(view.lagging().is_empty());
    }

    #[test]
    fn catch_up_gives_up_cleanly_when_every_attempt_is_raced() {
        use crate::client::ClusterLogClient;
        use std::sync::Arc as StdArc;
        let cluster = StdArc::new(LoggerCluster::spawn(ClusterConfig::replicated(1)).unwrap());
        let client = ClusterLogClient::in_proc(&cluster);
        for slot in cluster.shard_replicas(0).iter().take(2) {
            for seq in [1, 2] {
                slot.handle().try_submit(entry(seq)).unwrap();
            }
            slot.handle().flush().unwrap();
        }

        // A deposit races *every* adopted record: catch-up exhausts its
        // retries, leaves the replica at its pre-catch-up baseline (not
        // holding a reorder), and reports the shard too busy.
        let client_ref = &client;
        let mut next_seq = 10u64;
        let result = cluster.catch_up_replica_with_hook(0, 2, &mut |_| {
            assert!(client_ref.submit(entry(next_seq)).is_accepted());
            client_ref.flush().unwrap();
            next_seq += 1;
        });
        assert!(
            matches!(
                result,
                Err(LogError::Malformed(
                    "catch-up (quorum advanced mid-catch-up)"
                ))
            ),
            "persistent racing must surface, got {result:?}"
        );
        let slot = cluster.replica(0, 2).unwrap();
        assert_eq!(slot.handle().store().len(), 0, "rolled back to baseline");
        let view = cluster.view();
        assert!(view.divergences().is_empty(), "no lasting divergence");

        // Once the shard is quiet, a fresh call adopts everything.
        assert!(cluster.catch_up_replica(0, 2).unwrap() >= 2);
        assert!(cluster.view().lagging().is_empty());
    }

    #[test]
    fn bft_catch_up_rollback_never_convicts_an_honest_replica() {
        use crate::client::ClusterLogClient;
        let cluster = LoggerCluster::spawn(ClusterConfig::byzantine(1, 1)).unwrap();
        let client = ClusterLogClient::in_proc(&cluster);

        // Replicas 0, 1, 3 hold [e1, e2]; replica 2 is empty (restarted).
        for (i, slot) in cluster.shard_replicas(0).iter().enumerate() {
            if i == 2 {
                continue;
            }
            for seq in [1, 2] {
                slot.handle().try_submit(entry(seq)).unwrap();
            }
            slot.handle().flush().unwrap();
        }

        // A signed-quorum deposit races the adoption: the racy state is
        // rolled back and re-adopted. The replica's log passes through two
        // *different* contents at the same length — which must never read
        // as an equivocation, because catch-up reads the quorum quietly
        // and the rollback advanced the attestation incarnation.
        let client_ref = &client;
        let result = cluster.catch_up_replica_with_hook(0, 2, &mut |adopted| {
            if adopted == 1 {
                assert!(client_ref.submit(entry(3)).is_accepted());
                client_ref.flush().unwrap();
            }
        });
        assert_eq!(result.unwrap(), 3);

        // Views (interrogations) before and after more signed deposits:
        // nobody is convicted, nothing equivocated.
        let view = cluster.view();
        assert!(
            view.convictions.is_empty(),
            "honest repair must not convict"
        );
        assert!(view.equivocated().is_empty());
        assert!(client.submit(entry(4)).is_accepted());
        let view = cluster.view();
        assert!(view.convictions.is_empty());
        assert!(view.equivocated().is_empty());
        assert!(view.divergences().is_empty());
        assert_eq!(cluster.stats().snapshot().equivocations_detected, 0);
    }

    #[test]
    fn durable_catch_up_rollback_survives_crash_recovery() {
        use adlp_logger::MemStorage;

        let config = ClusterConfig::replicated(1);
        let devices: Vec<Vec<Arc<MemStorage>>> = (0..config.shards)
            .map(|_| {
                (0..config.replicas)
                    .map(|_| Arc::new(MemStorage::new()))
                    .collect()
            })
            .collect();
        let storages: Vec<Vec<Arc<dyn Storage>>> = devices
            .iter()
            .map(|shard| {
                shard
                    .iter()
                    .map(|d| Arc::clone(d) as Arc<dyn Storage>)
                    .collect()
            })
            .collect();
        let cluster =
            LoggerCluster::spawn_durable(config, storages, SyncPolicy::EveryAppend, 1024).unwrap();

        // The replica durably appends three records, then catch-up-style
        // rollback truncates it to one — snapshot rewritten, WAL reset.
        let slot = cluster.replica(0, 2).unwrap();
        for seq in [1, 2, 3] {
            slot.handle().submit_durable(entry(seq)).unwrap();
        }
        slot.handle().rollback_to(1).unwrap();
        assert_eq!(slot.handle().store().len(), 1);

        // Post-rollback appends land at the truncated indices; a crash and
        // recovery must replay exactly [e1, e9] — never resurrect the
        // rolled-back [e2, e3] under or over the retry's records.
        slot.handle().submit_durable(entry(9)).unwrap();
        cluster.kill_replica(0, 2);
        devices[0][2].crash();
        cluster.restart_replica(0, 2).unwrap();
        let store = cluster.replica(0, 2).unwrap().handle().store().clone();
        assert_eq!(store.len(), 2, "rollback is durable: {:?}", store.len());
        assert_eq!(store.entry(0).unwrap().seq, 1);
        assert_eq!(store.entry(1).unwrap().seq, 9);
        assert!(store.verify_chain().is_ok());
    }

    #[test]
    fn catch_up_refuses_diverged_replica() {
        let cluster = LoggerCluster::spawn(ClusterConfig::replicated(1)).unwrap();
        for slot in cluster.shard_replicas(0) {
            slot.handle().try_submit(entry(1)).unwrap();
            slot.handle().flush().unwrap();
        }
        let victim = cluster.replica(0, 2).unwrap();
        victim
            .handle()
            .store()
            .tamper_with_record(0, entry(9).encode())
            .unwrap();
        assert!(matches!(
            cluster.catch_up_replica(0, 2),
            Err(LogError::Malformed(
                "catch-up (replica not a quorum prefix)"
            ))
        ));
    }
}
