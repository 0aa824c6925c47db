//! Crash-safe durability: snapshot + WAL rotation and startup recovery.
//!
//! The invariant this module carries for the whole protocol: **an entry the
//! logger acknowledged as durable is present after any crash**. Mechanism:
//!
//! * every deposit is appended to the WAL ([`crate::wal`], a framed append
//!   log — [`crate::frame`]) *before* the acknowledgement, synced per
//!   [`SyncPolicy`];
//! * periodically the whole store is rewritten as an atomic snapshot
//!   (write-temp / sync / rename via [`Storage::write_replace`]) and the
//!   WAL is reset — the rotation is crash-safe at every interleaving,
//!   because WAL records carry their store index and replay skips records
//!   the snapshot already covers (a crash *between* the snapshot rename and
//!   the WAL truncate merely replays no-ops);
//! * on startup, [`DurableLog::open`] loads the snapshot, replays the WAL
//!   (a torn tail is counted, never fatal, and truncated away before the
//!   next append), reconciles the recovered store against the snapshot's
//!   embedded Merkle root, and compacts.
//!
//! ## Snapshot format
//!
//! ```text
//! file := magic "ADLPSNP1" ‖ u64 LE record count ‖ 32-byte Merkle root
//!         ‖ (u32 LE length ‖ encoded entry)*
//! ```
//!
//! The Merkle root commits to the snapshotted records
//! ([`crate::LogStore::tree_head`]),
//! so recovery can tell a clean snapshot from one truncated or doctored on
//! disk — the paper's tamper-evidence carried across restarts.

use crate::stats::DurabilityStats;
use crate::storage::Storage;
use crate::store::LogStore;
use crate::frame::FrameLog;
use crate::LogError;
use adlp_crypto::sha256::Digest;
use std::sync::Arc;

/// Identifies a snapshot file on any [`Storage`] backend.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"ADLPSNP1";

/// Default WAL file name inside a logger's storage.
pub const WAL_FILE: &str = "log.wal";

/// Default snapshot file name inside a logger's storage.
pub const SNAPSHOT_FILE: &str = "log.snapshot";

/// Where a snapshot that failed root verification is preserved before
/// compaction overwrites it, so an auditor can examine the tampered bytes.
pub const QUARANTINE_SNAPSHOT_FILE: &str = "log.snapshot.quarantine";

/// Where the WAL accompanying a quarantined snapshot is preserved.
pub const QUARANTINE_WAL_FILE: &str = "log.wal.quarantine";

/// When appended WAL records become durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Never sync explicitly; a crash loses whatever the OS had not flushed.
    /// Acknowledgements then mean "in the WAL", not "on the platter".
    Never,
    /// Sync after every append, so an acknowledgement implies the entry
    /// survives a power failure.
    EveryAppend,
}

/// Configuration for a durable logger backend.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// The storage device (real, in-memory, or fault-injecting).
    pub storage: Arc<dyn Storage>,
    /// When WAL appends are synced.
    pub fsync: SyncPolicy,
    /// Rotate (snapshot + WAL reset) after this many WAL appends;
    /// `0` disables rotation.
    pub rotate_every: usize,
    /// Durability counters, shared so an external owner (e.g. a cluster)
    /// observes fsync failures and truncations live.
    pub counters: DurabilityStats,
}

impl DurabilityConfig {
    /// A config with the default policy: sync every append, rotate every
    /// 4096 records.
    pub fn new(storage: Arc<dyn Storage>) -> Self {
        Self {
            storage,
            fsync: SyncPolicy::EveryAppend,
            rotate_every: 4096,
            counters: DurabilityStats::default(),
        }
    }

    /// Overrides the sync policy.
    #[must_use]
    pub fn fsync(mut self, policy: SyncPolicy) -> Self {
        self.fsync = policy;
        self
    }

    /// Overrides the rotation threshold (`0` disables rotation).
    #[must_use]
    pub fn rotate_every(mut self, n: usize) -> Self {
        self.rotate_every = n;
        self
    }

    /// Shares externally owned durability counters.
    #[must_use]
    pub fn counters(mut self, counters: DurabilityStats) -> Self {
        self.counters = counters;
        self
    }
}

/// What [`DurableLog::append`] achieved for one record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Appended {
    /// In the WAL and synced — survives a power failure.
    Durable,
    /// In the WAL; the policy is [`SyncPolicy::Never`], so no sync was
    /// attempted. As durable as the operator asked for.
    SyncSkipped,
    /// In the WAL, but the sync the policy required failed (counted in
    /// [`DurabilityStats`]). The record may or may not survive a crash;
    /// callers must not report it as durably acknowledged.
    SyncFailed,
}

/// Account of one startup recovery.
#[derive(Debug, Clone, Default)]
pub struct Recovery {
    /// Records restored from the snapshot.
    pub snapshot_records: usize,
    /// WAL records applied on top of the snapshot.
    pub wal_replayed: usize,
    /// WAL records skipped because the snapshot already covered their index
    /// (the signature of a crash between snapshot rename and WAL reset).
    pub wal_skipped: usize,
    /// Records lost to torn/corrupt tails (snapshot and WAL combined).
    pub records_truncated: u64,
    /// Bytes discarded from torn tails.
    pub bytes_truncated: u64,
    /// Whether the snapshot's embedded Merkle root matched the recovered
    /// snapshot prefix. `true` for a missing snapshot (nothing to verify).
    pub root_verified: bool,
    /// Whether post-recovery compaction (fresh snapshot + WAL reset)
    /// succeeded. When `false` the log still operates; the old snapshot and
    /// repaired WAL remain authoritative.
    pub compacted: bool,
    /// Whether the on-disk snapshot and WAL were copied aside (to
    /// [`QUARANTINE_SNAPSHOT_FILE`] / [`QUARANTINE_WAL_FILE`]) because root
    /// verification failed — compaction must never destroy the only
    /// physical evidence of tampering. Always `false` when
    /// [`Recovery::root_verified`].
    pub quarantined: bool,
}

/// Copies the (suspect) snapshot and WAL aside under quarantine names so
/// compaction cannot destroy the physical evidence of tampering.
fn quarantine_evidence(storage: &Arc<dyn Storage>) -> Result<(), LogError> {
    for (from, to) in [
        (SNAPSHOT_FILE, QUARANTINE_SNAPSHOT_FILE),
        (WAL_FILE, QUARANTINE_WAL_FILE),
    ] {
        if let Some(bytes) = storage.read(from)? {
            storage.write_replace(to, &bytes)?;
        }
    }
    Ok(())
}

/// What a snapshot of no records carries in its root field.
const EMPTY_SNAPSHOT_ROOT: Digest = Digest([0u8; 32]);

/// Encodes a snapshot of `records` under their Merkle commitment `root`.
fn encode_snapshot(records: &[Vec<u8>], root: Option<Digest>) -> Vec<u8> {
    let root = root.unwrap_or(EMPTY_SNAPSHOT_ROOT);
    let mut out = Vec::new();
    out.extend_from_slice(SNAPSHOT_MAGIC);
    out.extend_from_slice(&(records.len() as u64).to_le_bytes());
    out.extend_from_slice(root.as_bytes());
    for r in records {
        out.extend_from_slice(&(r.len() as u32).to_le_bytes());
        out.extend_from_slice(r);
    }
    out
}

struct SnapshotLoad {
    records: Vec<Vec<u8>>,
    declared_count: u64,
    root: Digest,
    records_truncated: u64,
    bytes_truncated: u64,
    present: bool,
}

/// Parses a snapshot tolerantly: a torn tail yields the valid prefix plus
/// truncation counts; only a wrong magic is fatal.
fn load_snapshot(storage: &Arc<dyn Storage>, name: &str) -> Result<SnapshotLoad, LogError> {
    let mut load = SnapshotLoad {
        records: Vec::new(),
        declared_count: 0,
        root: EMPTY_SNAPSHOT_ROOT,
        records_truncated: 0,
        bytes_truncated: 0,
        present: false,
    };
    let Some(bytes) = storage.read(name)? else {
        return Ok(load);
    };
    load.present = true;
    let Some((magic, rest)) = bytes.split_at_checked(8) else {
        // Shorter than the magic: unidentifiable debris, not a snapshot.
        load.records_truncated = u64::from(!bytes.is_empty());
        load.bytes_truncated = bytes.len() as u64;
        load.present = false;
        return Ok(load);
    };
    if magic != SNAPSHOT_MAGIC {
        return Err(LogError::Malformed("snapshot file (magic)"));
    }
    let Some((header, mut body)) = rest.split_at_checked(40) else {
        load.records_truncated = 1;
        load.bytes_truncated = rest.len() as u64;
        return Ok(load);
    };
    let (count_bytes, root_bytes) = header.split_at_checked(8).unwrap_or((&[], &[]));
    load.declared_count = count_bytes
        .try_into()
        .map(u64::from_le_bytes)
        .unwrap_or_default();
    load.root = Digest::from_slice(root_bytes).unwrap_or(EMPTY_SNAPSHOT_ROOT);
    while !body.is_empty() && (load.records.len() as u64) < load.declared_count {
        let parsed = body.split_at_checked(4).and_then(|(len_bytes, after)| {
            let len = u32::from_le_bytes(len_bytes.try_into().ok()?) as usize;
            if len > crate::frame::MAX_PAYLOAD_LEN {
                return None;
            }
            let record = after.get(..len)?;
            // A record the encoder cannot decode is corruption from here on.
            crate::entry::LogEntry::decode(record).ok()?;
            Some((record.to_vec(), 4 + len))
        });
        match parsed {
            Some((record, consumed)) => {
                load.records.push(record);
                body = body.get(consumed..).unwrap_or(&[]);
            }
            None => {
                load.bytes_truncated = body.len() as u64;
                break;
            }
        }
    }
    load.records_truncated += load.declared_count.saturating_sub(load.records.len() as u64);
    Ok(load)
}

/// The durable backing of one logger: a snapshot plus a WAL, rotated
/// together.
#[derive(Debug)]
pub struct DurableLog {
    storage: Arc<dyn Storage>,
    wal: FrameLog,
    fsync: SyncPolicy,
    rotate_every: usize,
    counters: DurabilityStats,
    appended_since_rotate: usize,
    /// Set when a rollback could not be made durable; all further appends
    /// are refused (as they are when the WAL itself reports an
    /// unrepairable torn tail).
    broken: bool,
}

impl DurableLog {
    /// Opens (or creates) the durable log and runs recovery: load snapshot,
    /// replay WAL on top, truncate torn tails, verify the snapshot's Merkle
    /// root, compact. Corruption is *reported* in [`Recovery`] and in the
    /// configured [`DurabilityStats`] — it never panics and, except for a
    /// foreign file (wrong magic), never refuses to start.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Malformed`] when the snapshot or WAL carries a
    /// wrong magic (the file is not ours), or [`LogError::Io`] when the
    /// device fails outright during reads.
    pub fn open(config: &DurabilityConfig) -> Result<(Self, LogStore, Recovery), LogError> {
        let storage = config.storage.clone();
        let wal = crate::wal::open(storage.clone(), WAL_FILE);
        let mut recovery = Recovery::default();

        let snapshot = load_snapshot(&storage, SNAPSHOT_FILE)?;
        recovery.snapshot_records = snapshot.records.len();
        recovery.records_truncated += snapshot.records_truncated;
        recovery.bytes_truncated += snapshot.bytes_truncated;

        let store = LogStore::new();
        for record in snapshot.records {
            store.append_encoded(record);
        }
        let (count, root) = store.tree_head();
        recovery.root_verified = !snapshot.present
            || (count as u64 == snapshot.declared_count
                && root.unwrap_or(EMPTY_SNAPSHOT_ROOT) == snapshot.root);

        let replay = wal.replay()?;
        recovery.records_truncated += replay.frames_truncated;
        recovery.bytes_truncated += replay.bytes_truncated;
        let mut gap = false;
        for (index, entry) in replay.frames {
            if gap {
                recovery.records_truncated += 1;
                continue;
            }
            let at = store.len() as u64;
            if index < at {
                recovery.wal_skipped += 1;
            } else if index == at && crate::entry::LogEntry::decode(&entry).is_ok() {
                store.append_encoded(entry);
                recovery.wal_replayed += 1;
            } else {
                // An index gap (or undecodable record behind a valid
                // checksum) means the records between are unrecoverable;
                // everything from here is a lost tail.
                gap = true;
                recovery.records_truncated += 1;
            }
        }

        let log = Self {
            storage,
            wal,
            fsync: config.fsync,
            rotate_every: config.rotate_every,
            counters: config.counters.clone(),
            appended_since_rotate: 0,
            broken: false,
        };

        // A snapshot that failed root verification is tamper evidence:
        // copy it (and the WAL) aside before compaction overwrites them,
        // or a single restart would leave nothing for an auditor to
        // examine. If even the copy fails, keep the originals in place
        // instead of compacting over them.
        let evidence_safe = if recovery.root_verified {
            true
        } else {
            recovery.quarantined = quarantine_evidence(&log.storage).is_ok();
            recovery.quarantined
        };

        // Compact: persist the recovered state as a fresh snapshot, then
        // reset the WAL. Snapshot MUST land before the reset, or the
        // replayed records would lose their only durable copy. When either
        // step fails (or compaction is skipped) the old WAL records stay,
        // index-covered by the snapshot, and the WAL's first append
        // truncates a torn tail away so it lands on a record boundary.
        recovery.compacted = evidence_safe
            && match log.write_snapshot(&store) {
                Ok(()) => log.wal.reset().is_ok(),
                Err(_) => {
                    log.counters.note_fsync_failure();
                    false
                }
            };

        if recovery.records_truncated > 0 {
            log.counters.note_records_truncated(recovery.records_truncated);
        }
        Ok((log, store, recovery))
    }

    /// Appends one record to the WAL ahead of the in-memory store append,
    /// syncing per policy. A torn write is repaired (truncated back) so the
    /// next append lands on a record boundary.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Io`] when the record could not be written at all
    /// — the entry is *not* in the WAL and must not be acknowledged as
    /// durable.
    pub fn append(&mut self, index: u64, entry: &[u8]) -> Result<Appended, LogError> {
        if self.is_broken() {
            return Err(LogError::Io(
                "durable log disabled: unrepairable wal tail".into(),
            ));
        }
        if let Err(e) = self.wal.append(index, entry) {
            self.counters.note_wal_append_failure();
            return Err(e);
        }
        self.appended_since_rotate += 1;
        match self.fsync {
            SyncPolicy::Never => Ok(Appended::SyncSkipped),
            SyncPolicy::EveryAppend => match self.wal.sync() {
                Ok(()) => Ok(Appended::Durable),
                Err(_) => {
                    self.counters.note_fsync_failure();
                    Ok(Appended::SyncFailed)
                }
            },
        }
    }

    /// Rotates when the WAL has grown past the configured threshold.
    /// Rotation failures are counted, not fatal — the WAL simply keeps
    /// growing until a later rotation succeeds.
    pub fn maybe_rotate(&mut self, store: &LogStore) {
        if self.rotate_every == 0 || self.appended_since_rotate < self.rotate_every {
            return;
        }
        if self.rotate(store).is_err() {
            self.counters.note_fsync_failure();
        }
    }

    /// Writes a fresh snapshot of `store` and resets the WAL. Crash-safe at
    /// every step: the snapshot replace is atomic, and until the WAL reset
    /// lands its records are merely redundant (replay skips them by index).
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Io`] when the snapshot could not be replaced;
    /// the previous snapshot and the WAL remain authoritative.
    pub fn rotate(&mut self, store: &LogStore) -> Result<(), LogError> {
        self.write_snapshot(store)?;
        self.appended_since_rotate = 0;
        // The snapshot covers everything; a failed reset only costs disk
        // space and replay time.
        self.wal.reset().or(Ok(()))
    }

    /// Makes a store *rollback* durable: persists the truncated store as a
    /// fresh snapshot, then resets the WAL so the rolled-back suffix cannot
    /// be replayed over the truncation on recovery.
    ///
    /// Unlike [`DurableLog::rotate`], failure here is **not** benign. After
    /// a rotation a stale WAL is merely redundant (replay skips its records
    /// by index); after a rollback it still holds the discarded suffix at
    /// indices the truncated store will reuse, so replaying it would
    /// resurrect exactly the records the rollback removed — and bury the
    /// records appended after it. Any failure therefore marks the log
    /// broken (further appends refused) rather than leaving a device whose
    /// recovery would silently contradict the in-memory log.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Io`] when the snapshot could not be replaced or
    /// the WAL could not be reset; the log is broken either way.
    pub fn rollback(&mut self, store: &LogStore) -> Result<(), LogError> {
        if let Err(e) = self.write_snapshot(store) {
            self.broken = true;
            self.counters.note_fsync_failure();
            return Err(e);
        }
        self.appended_since_rotate = 0;
        self.wal.reset().inspect_err(|_| {
            self.broken = true;
            self.counters.note_fsync_failure();
        })
    }

    fn write_snapshot(&self, store: &LogStore) -> Result<(), LogError> {
        let (records, root) = store.encoded_records_and_root();
        self.storage
            .write_replace(SNAPSHOT_FILE, &encode_snapshot(&records, root))
    }

    /// Whether the log refuses further appends: after an unrepairable WAL
    /// tear, or a rollback that could not be made durable.
    pub fn is_broken(&self) -> bool {
        self.broken || self.wal.is_broken()
    }

    /// The shared durability counters.
    pub fn counters(&self) -> &DurabilityStats {
        &self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::{Direction, LogEntry};
    use crate::storage::MemStorage;
    use adlp_pubsub::{NodeId, Topic};

    fn entry(seq: u64) -> Vec<u8> {
        LogEntry::naive(
            NodeId::new("cam"),
            Topic::new("image"),
            Direction::Out,
            seq,
            seq * 3,
            vec![seq as u8; 12],
        )
        .encode()
    }

    fn open_mem(mem: &Arc<MemStorage>) -> (DurableLog, LogStore, Recovery) {
        let config = DurabilityConfig::new(mem.clone() as Arc<dyn Storage>);
        DurableLog::open(&config).unwrap()
    }

    #[test]
    fn fresh_open_is_empty_and_verified() {
        let mem = Arc::new(MemStorage::new());
        let (_log, store, recovery) = open_mem(&mem);
        assert_eq!(store.len(), 0);
        assert!(recovery.root_verified);
        assert!(recovery.compacted);
        assert_eq!(recovery.records_truncated, 0);
    }

    #[test]
    fn synced_appends_survive_a_power_crash() {
        let mem = Arc::new(MemStorage::new());
        let (mut log, store, _) = open_mem(&mem);
        for i in 0..7u64 {
            let e = entry(i);
            assert_eq!(log.append(i, &e).unwrap(), Appended::Durable);
            store.append_encoded(e);
        }
        mem.crash();
        let (_log2, store2, recovery) = open_mem(&mem);
        assert_eq!(store2.len(), 7);
        assert_eq!(recovery.wal_replayed, 7);
        assert!(recovery.root_verified);
        assert_eq!(store2.tree_head(), store.tree_head());
    }

    #[test]
    fn unsynced_appends_are_lost_without_panic() {
        let mem = Arc::new(MemStorage::new());
        let config = DurabilityConfig::new(mem.clone() as Arc<dyn Storage>)
            .fsync(SyncPolicy::Never);
        let (mut log, store, _) = DurableLog::open(&config).unwrap();
        for i in 0..5u64 {
            let e = entry(i);
            assert_eq!(log.append(i, &e).unwrap(), Appended::SyncSkipped);
            store.append_encoded(e);
        }
        mem.crash(); // drops everything unsynced
        let (_log2, store2, recovery) = open_mem(&mem);
        assert!(store2.len() < 5);
        assert!(recovery.root_verified);
    }

    #[test]
    fn rotation_compacts_and_recovery_still_sees_everything() {
        let mem = Arc::new(MemStorage::new());
        let config = DurabilityConfig::new(mem.clone() as Arc<dyn Storage>).rotate_every(3);
        let (mut log, store, _) = DurableLog::open(&config).unwrap();
        for i in 0..10u64 {
            let e = entry(i);
            log.append(i, &e).unwrap();
            store.append_encoded(e);
            log.maybe_rotate(&store);
        }
        // WAL holds at most rotate_every records after the last rotation.
        let wal_len = mem.read(WAL_FILE).unwrap().unwrap().len();
        assert!(wal_len < 10 * 40, "wal should have been rotated: {wal_len}");
        mem.crash();
        let (_log2, store2, recovery) = open_mem(&mem);
        assert_eq!(store2.len(), 10);
        assert_eq!(store2.tree_head(), store.tree_head());
        assert!(recovery.root_verified);
    }

    #[test]
    fn crash_between_snapshot_rename_and_wal_reset_replays_no_duplicates() {
        let mem = Arc::new(MemStorage::new());
        let (mut log, store, _) = open_mem(&mem);
        for i in 0..6u64 {
            let e = entry(i);
            log.append(i, &e).unwrap();
            store.append_encoded(e);
        }
        // Snapshot lands (rename done) but the WAL reset never runs: this
        // is exactly the state after a crash between the two steps.
        log.write_snapshot(&store).unwrap();
        let (_log2, store2, recovery) = open_mem(&mem);
        assert_eq!(store2.len(), 6, "skipped records must not duplicate");
        assert_eq!(recovery.snapshot_records, 6);
        assert_eq!(recovery.wal_skipped, 6);
        assert_eq!(recovery.wal_replayed, 0);
        assert_eq!(store2.tree_head(), store.tree_head());
    }

    #[test]
    fn doctored_snapshot_fails_root_verification() {
        let mem = Arc::new(MemStorage::new());
        let (mut log, store, _) = open_mem(&mem);
        for i in 0..5u64 {
            let e = entry(i);
            log.append(i, &e).unwrap();
            store.append_encoded(e);
        }
        log.rotate(&store).unwrap();
        // Flip a byte inside a snapshotted record body (past the header).
        let snap = mem.read(SNAPSHOT_FILE).unwrap().unwrap();
        assert!(mem.corrupt_byte(SNAPSHOT_FILE, snap.len() - 2, 0x01));
        let (_log2, _store2, recovery) = open_mem(&mem);
        assert!(!recovery.root_verified, "tampered snapshot must not verify");
    }

    #[test]
    fn truncated_snapshot_recovers_prefix_and_reports() {
        let mem = Arc::new(MemStorage::new());
        let (mut log, store, _) = open_mem(&mem);
        for i in 0..5u64 {
            let e = entry(i);
            log.append(i, &e).unwrap();
            store.append_encoded(e);
        }
        log.rotate(&store).unwrap();
        let snap = mem.read(SNAPSHOT_FILE).unwrap().unwrap();
        mem.write_replace(SNAPSHOT_FILE, &snap[..snap.len() - 10]).unwrap();
        let (_log2, store2, recovery) = open_mem(&mem);
        assert_eq!(store2.len(), 4);
        assert_eq!(recovery.records_truncated, 1);
        assert!(!recovery.root_verified);
    }

    #[test]
    fn doctored_snapshot_is_quarantined_before_compaction() {
        let mem = Arc::new(MemStorage::new());
        let (mut log, store, _) = open_mem(&mem);
        for i in 0..5u64 {
            let e = entry(i);
            log.append(i, &e).unwrap();
            store.append_encoded(e);
        }
        log.rotate(&store).unwrap();
        let snap = mem.read(SNAPSHOT_FILE).unwrap().unwrap();
        assert!(mem.corrupt_byte(SNAPSHOT_FILE, snap.len() - 2, 0x01));
        let tampered = mem.read(SNAPSHOT_FILE).unwrap().unwrap();
        let (_log2, _store2, recovery) = open_mem(&mem);
        assert!(!recovery.root_verified);
        assert!(recovery.quarantined, "tampered snapshot must be preserved");
        assert!(recovery.compacted, "compaction proceeds once evidence is safe");
        // The quarantined copy is the tampered artifact byte-for-byte, even
        // though compaction replaced the live snapshot with a clean one.
        assert_eq!(
            mem.read(QUARANTINE_SNAPSHOT_FILE).unwrap().unwrap(),
            tampered
        );
        assert_ne!(mem.read(SNAPSHOT_FILE).unwrap().unwrap(), tampered);
        // A second restart is clean but the evidence is still on disk.
        let (_log3, _store3, recovery2) = open_mem(&mem);
        assert!(recovery2.root_verified);
        assert!(!recovery2.quarantined);
        assert_eq!(
            mem.read(QUARANTINE_SNAPSHOT_FILE).unwrap().unwrap(),
            tampered
        );
    }

    #[test]
    fn failed_tail_probe_breaks_the_log_instead_of_appending_blind() {
        use crate::storage::{FaultyStorage, StorageFaultConfig};
        // The device survives recovery (two reads, snapshot, WAL reset) and
        // one synced append, then dies: the next append fails and the
        // repair cannot even learn where the tail is — the log must refuse
        // further appends rather than risk landing one behind a tear.
        let mut plan = StorageFaultConfig::none(1);
        plan.die_after_ops = Some(6);
        let mem = Arc::new(MemStorage::new());
        let device = Arc::new(FaultyStorage::new(mem.clone(), plan));
        let config = DurabilityConfig::new(device.clone() as Arc<dyn Storage>);
        let (mut log, _store, _) = DurableLog::open(&config).unwrap();
        log.append(0, &entry(0)).unwrap();
        assert!(!log.is_broken());
        assert!(log.append(1, &entry(1)).is_err());
        assert!(log.is_broken());
        // Even once the device heals, the log stays refused and the WAL is
        // left exactly as it was.
        device.heal();
        let wal = mem.read(WAL_FILE).unwrap();
        assert!(log.append(1, &entry(1)).is_err());
        assert_eq!(mem.read(WAL_FILE).unwrap(), wal);
    }

    #[test]
    fn counters_accumulate_truncations() {
        let mem = Arc::new(MemStorage::new());
        let counters = DurabilityStats::default();
        let config = DurabilityConfig::new(mem.clone() as Arc<dyn Storage>)
            .counters(counters.clone());
        let (mut log, _store, _) = DurableLog::open(&config).unwrap();
        log.append(0, &entry(0)).unwrap();
        let wal_bytes = mem.read(WAL_FILE).unwrap().unwrap();
        mem.write_replace(WAL_FILE, &wal_bytes[..wal_bytes.len() - 3]).unwrap();
        let (_log2, _store2, _rec) = DurableLog::open(&config).unwrap();
        assert_eq!(counters.records_truncated(), 1);
    }
}
