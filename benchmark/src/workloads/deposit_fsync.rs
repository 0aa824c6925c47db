//! `deposit_fsync`: `DepositTarget::submit_durable` of pre-built ~600 B
//! entries into one durable logger — `FsStorage` in a fresh directory,
//! fsync on every append, default rotation, forensic recorder attached, an
//! STH epoch sealed every 128 appends. Two depositors with distinct
//! (component, topic) links share the one server thread and the one disk.
//!
//! No protocol RSA runs here: the cost is WAL, fsync, store/Merkle,
//! recording and sealing — where group commit or one frame per batch must
//! show, and where an RSA optimisation must show nothing.

use super::{ensure, Ctx, Layers, Workload};
use crate::inputs::{self, InputDigest, TempRoot};
use crate::measure::{median_us, time_us, Round, Window};
use crate::trace::{self, SpanStats, StorageCounts, TimedStorage};
use adlp_core::{ComponentIdentity, DepositTarget};
use adlp_crypto::sha256::binding_digest;
use adlp_crypto::{sha256, RsaKeyPair};
use adlp_dispute::{replay_window, ReplayContext};
use adlp_logger::merkle::MerkleTree;
use adlp_logger::sth::{SthPublisher, TreeHeadSigner};
use adlp_logger::{
    Direction, DurabilityConfig, DurableLog, FsStorage, KeyRegistry, LogEntry, LogServer, LogStore,
    PayloadRecord, Recorder, Storage,
};
use adlp_pubsub::{NodeId, Topic};
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

pub const DEPOSITORS: usize = 2;
/// Genuinely signed exchanges per depositor; entry `i` reuses exchange
/// `i % POOL` under its own sequence number. The logger does not verify
/// signatures at deposit, so set-up need not sign every entry.
const POOL: usize = 64;
/// An epoch is sealed every 128 appends. A seal re-hashes the store and
/// stalls both depositors, so 2 in 128 ops (1.6 %) carry it: `op_p99_us`
/// then sits inside the sealing ops and follows `logger.sth_sign_us`. At
/// 256 the share is 0.8 % and the 99th percentile flips between the fsync
/// tail and the seals from run to run.
const SEAL_EVERY: u64 = 128;
const RECORDING: &str = "recording";

/// `count` ADLP publisher entries for the link `component → peer` on
/// `topic`: 256 B body, own and counterpart signature, acknowledged hash.
pub fn prebuilt_entries(
    ctx: Ctx,
    lane: u64,
    (component, topic): (&str, &str),
    count: usize,
    keys: &KeyRegistry,
    digest: &mut InputDigest,
) -> Result<Vec<LogEntry>, String> {
    let (seed, key_bits) = (ctx.seed, ctx.key_bits());
    let mut rng = inputs::key_rng(16 + lane);
    let me = ComponentIdentity::generate(component, key_bits, &mut rng);
    let peer = ComponentIdentity::generate(format!("{component}-peer"), key_bits, &mut rng);
    for id in [&me, &peer] {
        keys.register(id.id(), id.public_key().clone())
            .map_err(|e| e.to_string())?;
    }
    let bodies = inputs::payloads(seed ^ lane, POOL, 256);
    let mut pool = Vec::with_capacity(POOL);
    for (i, body) in bodies.into_iter().enumerate() {
        let hash = sha256(&body);
        let binding = binding_digest(topic, i as u64 + 1, &hash);
        let own = me.sign_digest(&binding).map_err(|e| e.to_string())?;
        let theirs = peer.sign_digest(&binding).map_err(|e| e.to_string())?;
        pool.push((body, hash, own, theirs));
    }
    Ok((0..count)
        .map(|i| {
            let (body, hash, own, theirs) = &pool[i % POOL];
            let entry = LogEntry {
                component: NodeId::new(component),
                topic: Topic::new(topic),
                direction: Direction::Out,
                seq: i as u64 + 1,
                timestamp_ns: 1_000_000 * (i as u64 + 1),
                payload: PayloadRecord::Data(body.clone()),
                own_sig: Some(own.clone()),
                peer_sig: Some(theirs.clone()),
                peer_hash: Some(*hash),
                peer: Some(peer.id().clone()),
                acks: Vec::new(),
            };
            digest.feed(&entry.encode());
            entry
        })
        .collect())
}

/// The system's file-backed storage rooted at `dir`.
pub fn fs_storage(dir: &Path) -> Result<Arc<dyn Storage>, String> {
    Ok(Arc::new(FsStorage::open(dir).map_err(|e| e.to_string())?))
}

/// Median times (µs) to build an inclusion proof over `store`'s Merkle tree
/// and to verify one.
pub fn merkle_us(store: &LogStore, iters: usize) -> Result<(f64, f64), String> {
    let hashes = store.record_hashes();
    let tree = MerkleTree::build(&hashes);
    let root = tree.root().ok_or("empty store")?;
    let at = |i: usize| (i * 7919) % hashes.len();
    let proof = tree.prove(at(1)).ok_or("no inclusion proof")?;
    let prove_us = median_us(iters, |i| tree.prove(at(i)));
    let verify_us = median_us(iters, |_| {
        MerkleTree::verify(&root, hashes.len(), &hashes[at(1)], &proof)
    });
    Ok((prove_us, verify_us))
}

/// Drives one depositor per lane through `submit`, closed loop, and folds
/// the lanes' samples into `round`.
pub fn drive_depositors(
    lanes: &[Vec<LogEntry>],
    round: &mut Round,
    submit: &(dyn Fn(LogEntry) -> Result<(), String> + Sync),
) -> Result<(), String> {
    let results: Vec<(Vec<f64>, u64, Option<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .iter()
            .enumerate()
            .map(|(lane, entries)| {
                scope.spawn(move || {
                    let mut lat = Vec::with_capacity(entries.len());
                    for (i, entry) in entries.iter().enumerate() {
                        trace::set_op(Some((i * lanes.len() + lane) as u64));
                        let t = Instant::now();
                        if let Err(why) = trace::span("driver.op", || submit(entry.clone())) {
                            return (lat, 1, Some(why));
                        }
                        lat.push(t.elapsed().as_secs_f64() * 1e6);
                    }
                    (lat, 0, None)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| (Vec::new(), 1, Some("depositor panicked".into())))
            })
            .collect()
    });
    let mut first_error = None;
    for (lat, failed, why) in results {
        round.attempted += lat.len() as u64 + failed;
        round.failed += failed;
        round.lat_us.extend(lat);
        first_error = first_error.or(why);
    }
    first_error.map_or(Ok(()), Err)
}

pub struct DepositFsync {
    ctx: Ctx,
    root: TempRoot,
    config: DurabilityConfig,
    counts: Arc<StorageCounts>,
    server: LogServer,
    recorder: Arc<Recorder>,
    keys: KeyRegistry,
    lanes: Vec<Vec<LogEntry>>,
    digest: f64,
}

impl DepositFsync {
    pub fn setup(ctx: Ctx, ops: usize) -> Result<Self, String> {
        let root = TempRoot::new("deposit_fsync").map_err(|e| e.to_string())?;
        let counts = Arc::new(StorageCounts::default());
        let mut storage = fs_storage(root.path())?;
        if ctx.trace {
            storage = TimedStorage::wrap(storage, Arc::clone(&counts));
        }
        let keys = KeyRegistry::new();
        let config = DurabilityConfig::new(Arc::clone(&storage));
        let server = LogServer::try_spawn_durable(keys.clone(), &config)
            .map_err(|e| e.to_string())?
            .server;
        let handle = server.handle();
        let recorder = Arc::new(Recorder::new(Arc::clone(&storage), RECORDING));
        handle.attach_recorder(Arc::clone(&recorder));
        let log_key = RsaKeyPair::generate(ctx.key_bits(), &mut inputs::key_rng(3));
        let signer = TreeHeadSigner::new(NodeId::new("log"), log_key.into_private_key());
        let publisher = SthPublisher::new(signer, handle.store().clone()).paced();
        handle.attach_sth(Arc::new(publisher), SEAL_EVERY);

        let mut digest = InputDigest::default();
        let lanes = (0..DEPOSITORS)
            .map(|lane| {
                let link = (format!("dep{lane}"), format!("topic{lane}"));
                prebuilt_entries(
                    ctx,
                    lane as u64,
                    (&link.0, &link.1),
                    ops / DEPOSITORS,
                    &keys,
                    &mut digest,
                )
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(DepositFsync {
            ctx,
            root,
            config,
            counts,
            server,
            recorder,
            keys,
            lanes,
            digest: digest.finish(),
        })
    }

    fn expected(&self) -> usize {
        self.lanes.iter().map(Vec::len).sum()
    }
}

impl Workload for DepositFsync {
    fn round(&mut self) -> Result<Round, String> {
        let handle = self.server.handle();
        let target = DepositTarget::Single(handle.clone());
        let mut round = Round::default();
        let window = Window::open();
        drive_depositors(&self.lanes, &mut round, &|entry| {
            target.submit_durable(entry).map_err(|e| e.to_string())
        })?;
        handle.flush().map_err(|e| e.to_string())?;
        window.close(&mut round);
        round.entries = handle.store().len() as u64;
        round.log_bytes = handle.store().total_bytes() + self.root.disk_bytes();
        Ok(round)
    }

    fn layers(
        &mut self,
        round: &Round,
        spans: &SpanStats,
        layers: &mut Layers,
    ) -> Result<(), String> {
        let iters = self.ctx.iters();
        let entries = round.entries.max(1) as f64;
        let span_us = |name: &str| trace::span_us(spans, name);
        let syncs = self.counts.syncs.load(Ordering::Relaxed) as f64;
        let appends = self.counts.appends.load(Ordering::Relaxed) as f64;

        // One deposit's life, stage by stage, on the caller's thread.
        let sample = &self.lanes[0][0];
        let encoded = sample.encode();
        let encode_us = median_us(iters, |_| sample.encode());
        let scratch = LogStore::new();
        let append_us = median_us(iters, |_| scratch.append_encoded(encoded.clone()));
        let rec_root = TempRoot::new("record").map_err(|e| e.to_string())?;
        let tap = Recorder::new(fs_storage(rec_root.path())?, RECORDING);
        let record_us = median_us(iters * 4, |_| tap.record(&encoded));
        // A volatile server: the pure hand-off to the server thread and back.
        let volatile = LogServer::try_spawn().map_err(|e| e.to_string())?;
        let volatile_handle = volatile.handle();
        let rtt_us = median_us(iters * 4, |_| {
            volatile_handle.submit_durable(sample.clone())
        });

        layers.stage("logger.submit_rtt_us", rtt_us, 1.0);
        layers.stage("logger.encode_us", encode_us, 1.0);
        layers.stage(
            "logger.storage_append_us",
            span_us("logger.storage_append"),
            appends / entries,
        );
        layers.stage(
            "logger.storage_sync_us",
            span_us("logger.storage_sync"),
            syncs / entries,
        );
        layers.stage("logger.store_append_us", append_us, 1.0);
        layers.stage("logger.record_us", record_us, 1.0);

        let handle = self.server.handle();
        // A seal re-hashes the store, so its cost grows with the round: the
        // seal timed here, over the full store, is twice the round's mean.
        let (_, seal_us) = time_us(|| handle.seal_epoch());
        layers.periodic("logger.sth_sign_us", seal_us, 0.5 / SEAL_EVERY as f64);

        layers.set(
            "logger.decode_us",
            median_us(iters, |_| LogEntry::decode(&encoded)),
        );
        layers.set("logger.storage_syncs_per_entry", syncs / entries);
        layers.set(
            "logger.storage_bytes_per_entry",
            self.counts.bytes.load(Ordering::Relaxed) as f64 / entries,
        );
        layers.set(
            "logger.snapshot_rewrites",
            self.counts.snapshots.load(Ordering::Relaxed) as f64,
        );
        let recording_bytes = self
            .config
            .storage
            .size_of(RECORDING)
            .ok()
            .flatten()
            .unwrap_or(0);
        layers.set(
            "logger.recording_bytes_per_entry",
            recording_bytes as f64 / entries,
        );

        let (prove_us, verify_us) = merkle_us(handle.store(), iters)?;
        layers.set("logger.merkle_prove_us", prove_us);
        layers.set("logger.merkle_verify_us", verify_us);

        // Forensics over the run's own recording.
        self.recorder.sync().map_err(|e| e.to_string())?;
        let (window, extract_us) = time_us(|| self.recorder.extract_window(0, u64::MAX));
        let window = window.map_err(|e| e.to_string())?;
        let ctx = ReplayContext::new(self.keys.clone());
        let (first, replay_us) = time_us(|| replay_window(&window, &ctx));
        let first = first.map_err(|e| e.to_string())?;
        let second = replay_window(&window, &ctx).map_err(|e| e.to_string())?;
        layers.set("dispute.extract_window_ms", extract_us / 1e3);
        layers.set("dispute.replay_window_ms", replay_us / 1e3);
        layers.set(
            "dispute.replay_deterministic",
            f64::from(first.canonical_bytes() == second.canonical_bytes()),
        );
        Ok(())
    }

    fn gate(self: Box<Self>, layers: &mut Layers) -> Result<(), String> {
        let expected = self.expected();
        let handle = self.server.handle();
        let store = handle.store().clone();
        ensure(store.len() >= expected, || {
            format!("{} entries stored, {expected} acked", store.len())
        })?;
        store
            .verify_chain()
            .map_err(|e| format!("hash chain: {e}"))?;
        let volume = handle.stats().snapshot();
        ensure(volume.lost == 0 && volume.shed == 0, || {
            "logger lost or shed entries".to_owned()
        })?;
        ensure(handle.stats().durability().fsync_failures() == 0, || {
            "fsync failed".to_owned()
        })?;
        ensure(self.recorder.failures() == 0, || {
            "recording tap failed".to_owned()
        })?;
        ensure(self.recorder.frames_recorded() >= expected as u64, || {
            "recording is missing frames".to_owned()
        })?;
        self.recorder.sync().map_err(|e| e.to_string())?;
        let window = self
            .recorder
            .extract_window(0, u64::MAX)
            .map_err(|e| e.to_string())?;
        let replay = replay_window(&window, &ReplayContext::new(self.keys.clone()))
            .map_err(|e| e.to_string())?;
        ensure(replay.sound() && replay.entries >= expected, || {
            "recording replay unsound".to_owned()
        })?;

        // Restart: everything acknowledged must come back from the disk.
        let acked = store.len();
        self.server.kill();
        let t = Instant::now();
        let (_log, recovered, recovery) =
            DurableLog::open(&self.config).map_err(|e| e.to_string())?;
        layers.set("logger.recover_ms", t.elapsed().as_secs_f64() * 1e3);
        ensure(recovered.len() >= acked, || {
            format!("recovered {} of {acked} acked", recovered.len())
        })?;
        ensure(recovery.records_truncated == 0, || {
            "recovery truncated records".to_owned()
        })?;
        recovered
            .verify_chain()
            .map_err(|e| format!("recovered chain: {e}"))
    }

    fn input_digest(&self) -> f64 {
        self.digest
    }
}
