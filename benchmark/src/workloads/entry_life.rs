//! `entry_life`: one 256 B publication through its whole life, unpipelined —
//! publish → signed acknowledgement → both nodes deposit with
//! `ack_after_durable` and flush into a 2-shard durable BFT cluster
//! (`FsStorage`, fsync on every append, shard recorders attached) → every 64
//! ops the cluster seals an epoch, each shard signs a tree head, and a
//! driver-side `LightClient` audits every entry deposited since the last
//! seal.
//!
//! Everything is on: this is the roadmap's definition of end to end, and
//! its `op_p50_us` is the number the per-layer stage times must add up to.

use super::cluster_bft::{bft_config, client_for, gate_cluster, replica_bytes, SHARDS};
use super::deposit_fsync::fs_storage;
use super::proto::{staged_exchange, Fanout, SMALL_BODY, WARMUP};
use super::{ensure, Ctx, Layers, Workload};
use crate::inputs::{self, InputDigest, TempRoot};
use crate::measure::{median, median_us, time_us, Round, Window};
use crate::trace::{self, SpanStats, StorageCounts, TimedHeads, TimedStorage};
use adlp_audit::ClusterAuditor;
use adlp_cluster::{ClusterLogClient, LoggerCluster};
use adlp_core::{DepositTarget, Scheme};
use adlp_crypto::{RsaKeyPair, RsaPrivateKey};
use adlp_dispute::{replay_window, ReplayContext};
use adlp_logger::sth::{SthPublisher, TreeHeadSigner};
use adlp_logger::{DurabilityConfig, DurableLog, LogEntry, Storage, SyncPolicy};
use adlp_pubsub::{Master, NodeId};
use adlp_witness::{LightClient, SthKeyring, TreeHeadSource};
use std::sync::atomic::Ordering;
use std::sync::Arc;

const REPLICAS: usize = 4;
const SEAL_EVERY: usize = 64;
const ROTATE_EVERY: usize = 4096;

pub struct EntryLife {
    ctx: Ctx,
    ops: usize,
    payloads: Vec<Vec<u8>>,
    root: TempRoot,
    storages: Vec<Vec<Arc<dyn Storage>>>,
    counts: Arc<StorageCounts>,
    master: Master,
    cluster: LoggerCluster,
    client: Arc<ClusterLogClient>,
    link: Fanout,
    sealing_key: RsaPrivateKey,
    /// Per shard: the tree-head publisher over replica 0's store, and how
    /// many of its records the light client has audited.
    heads: Vec<(Arc<SthPublisher>, u64)>,
    light: LightClient,
    digest: f64,
}

impl EntryLife {
    pub fn setup(ctx: Ctx, ops: usize) -> Result<Self, String> {
        let root = TempRoot::new("entry_life").map_err(|e| e.to_string())?;
        let counts = Arc::new(StorageCounts::default());
        let mut storages = Vec::with_capacity(SHARDS);
        for shard in 0..SHARDS {
            let mut row = Vec::with_capacity(REPLICAS);
            for replica in 0..REPLICAS {
                let storage = fs_storage(&root.path().join(format!("s{shard}r{replica}")))?;
                row.push(if ctx.trace {
                    TimedStorage::wrap(storage, Arc::clone(&counts))
                } else {
                    storage
                });
            }
            storages.push(row);
        }
        let cluster = LoggerCluster::spawn_durable(
            bft_config(ctx),
            storages.clone(),
            SyncPolicy::EveryAppend,
            ROTATE_EVERY,
        )
        .map_err(|e| e.to_string())?;
        let recordings = (0..SHARDS)
            .map(|shard| fs_storage(&root.path().join(format!("rec{shard}"))))
            .collect::<Result<Vec<_>, _>>()?;
        cluster
            .attach_shard_recorders(recordings)
            .map_err(|e| e.to_string())?;

        let mut rng = inputs::key_rng(3);
        let sealing_key = RsaKeyPair::generate(ctx.key_bits(), &mut rng).into_private_key();
        let mut keyring = SthKeyring::new();
        let mut heads = Vec::with_capacity(SHARDS);
        for shard in 0..SHARDS {
            let key = RsaKeyPair::generate(ctx.key_bits(), &mut rng);
            let log = NodeId::new(format!("shard{shard}"));
            keyring.insert(log.clone(), key.public_key().clone());
            let handle = cluster.replica(shard, 0).ok_or("no replica 0")?.handle();
            let signer = TreeHeadSigner::new(log, key.into_private_key());
            let publisher = Arc::new(SthPublisher::new(signer, handle.store().clone()).paced());
            handle.attach_sth(Arc::clone(&publisher), 0);
            heads.push((publisher, 0));
        }

        let client = Arc::new(client_for(&cluster, ctx.trace));
        let master = Master::new();
        let target = DepositTarget::Cluster(Arc::clone(&client));
        let link = Fanout::pair(ctx, &master, Scheme::adlp(), target, true)?;
        let payloads = inputs::payloads(ctx.seed, 64, SMALL_BODY);
        let mut digest = InputDigest::default();
        payloads.iter().for_each(|p| digest.feed(p));
        for payload in payloads.iter().take(WARMUP) {
            link.exchange(payload)?;
        }
        link.flush()?;
        Ok(EntryLife {
            ctx,
            ops,
            payloads,
            root,
            storages,
            counts,
            master,
            cluster,
            client,
            link,
            sealing_key,
            heads,
            light: LightClient::new(keyring),
            digest: digest.finish(),
        })
    }
}

/// Seals the cluster epoch and a tree head per shard, then light-audits
/// every record the shard's head newly covers.
fn seal_and_audit(
    cluster: &LoggerCluster,
    sealing_key: &RsaPrivateKey,
    heads: &mut [(Arc<SthPublisher>, u64)],
    light: &LightClient,
    traced: bool,
) -> Result<(), String> {
    trace::span("cluster.seal_epoch", || cluster.seal_epoch(sealing_key))
        .map_err(|e| e.to_string())?;
    for (shard, (publisher, audited)) in heads.iter_mut().enumerate() {
        let handle = cluster.replica(shard, 0).ok_or("no replica 0")?.handle();
        let head =
            trace::span("logger.sth_seal", || handle.seal_epoch()).map_err(|e| e.to_string())?;
        let timed = TimedHeads(Arc::clone(publisher));
        let source: &dyn TreeHeadSource = if traced { &timed } else { publisher.as_ref() };
        for index in *audited..head.size {
            trace::span("witness.light_audit", || light.audit_ack(source, index))
                .map_err(|e| format!("shard {shard} record {index}: {e}"))?;
        }
        *audited = head.size;
    }
    Ok(())
}

impl Workload for EntryLife {
    fn round(&mut self) -> Result<Round, String> {
        let acked0 = self.cluster.stats().snapshot().acked;
        let bytes0 = replica_bytes(&self.cluster);
        let mut round = Round::default();
        let window = Window::open();
        let (link, cluster, key, light, traced) = (
            &self.link,
            &self.cluster,
            &self.sealing_key,
            &self.light,
            self.ctx.trace,
        );
        let heads = &mut self.heads;
        link.drive(self.ops, &self.payloads, &mut round, |i| {
            link.flush()?;
            if (i + 1) % SEAL_EVERY == 0 {
                seal_and_audit(cluster, key, heads, light, traced)?;
            }
            Ok(())
        })?;
        seal_and_audit(cluster, key, heads, light, traced)?;
        self.client.flush().map_err(|e| e.to_string())?;
        window.close(&mut round);
        round.entries = self.cluster.stats().snapshot().acked - acked0;
        round.log_bytes = replica_bytes(&self.cluster) - bytes0 + self.root.disk_bytes();
        Ok(round)
    }

    fn layers(
        &mut self,
        round: &Round,
        spans: &SpanStats,
        layers: &mut Layers,
    ) -> Result<(), String> {
        let iters = self.ctx.iters();
        let span_us = |name: &str| trace::span_us(spans, name);
        let entries = round.entries.max(1) as f64;
        let per_op = entries / self.ops as f64;

        let store = self
            .cluster
            .replica(0, 0)
            .ok_or("no replica 0")?
            .handle()
            .store()
            .clone();
        let replayed: Vec<LogEntry> = (0..store.len())
            .rev()
            .take(2)
            .filter_map(|i| store.entry(i).ok())
            .collect();
        staged_exchange(&self.link, &self.payloads[0], &replayed, iters, layers)?;
        self.link.core_counters(layers);

        // The deposit, seal and audit legs of the life, from the seams. The
        // two nodes' logging threads deposit their entries at the same time,
        // so an op blocks on one fan-out over the replicas, not on both.
        layers.stage(
            "cluster.replica_deposit_us",
            span_us("cluster.replica_deposit"),
            REPLICAS as f64,
        );
        layers.periodic(
            "witness.light_audit_us",
            span_us("witness.light_audit"),
            per_op,
        );
        let seal_ms = span_us("cluster.seal_epoch") / 1e3;
        layers.periodic("cluster.seal_epoch_ms", seal_ms, 1e3 / SEAL_EVERY as f64);
        layers.periodic(
            "logger.sth_sign_us",
            span_us("logger.sth_seal"),
            SHARDS as f64 / SEAL_EVERY as f64,
        );
        layers.set(
            "witness.inclusion_proof_us",
            span_us("witness.inclusion_proof"),
        );
        layers.set(
            "witness.consistency_proof_us",
            span_us("witness.consistency_proof"),
        );
        layers.set(
            "witness.sth_verify_failures",
            self.light.sth_verify_failures() as f64,
        );
        layers.set("logger.storage_append_us", span_us("logger.storage_append"));
        layers.set("logger.storage_sync_us", span_us("logger.storage_sync"));
        let counts = &self.counts;
        layers.set(
            "logger.storage_syncs_per_entry",
            counts.syncs.load(Ordering::Relaxed) as f64 / entries,
        );
        layers.set(
            "logger.storage_bytes_per_entry",
            counts.bytes.load(Ordering::Relaxed) as f64 / entries,
        );
        layers.set(
            "logger.snapshot_rewrites",
            counts.snapshots.load(Ordering::Relaxed) as f64,
        );

        let stats = self.cluster.stats().snapshot();
        let acked = stats.acked.max(1) as f64;
        layers.set(
            "cluster.quorum_p50_us",
            span_us("cluster.replica_deposit") * REPLICAS as f64,
        );
        layers.set(
            "cluster.quorum_p99_us",
            stats.p99_quorum_latency_ns as f64 / 1e3,
        );
        layers.set(
            "cluster.attest_verifies_per_entry",
            stats.attestations_verified as f64 / acked,
        );
        layers.set("cluster.failovers", stats.failovers as f64);
        layers.set("cluster.entries_lost", stats.entries_lost as f64);
        let slot = self.cluster.replica(0, 0).ok_or("no replica 0")?;
        layers.set(
            "cluster.attest_us",
            median_us(iters, |_| slot.attest_head()),
        );
        Ok(())
    }

    fn gate(self: Box<Self>, layers: &mut Layers) -> Result<(), String> {
        let expected = 2 * (WARMUP + self.ops) as u64;
        self.link.gate_clean()?;
        gate_cluster(&self.cluster, expected)?;
        ensure(self.light.sth_verify_failures() == 0, || {
            "light client verification failed".to_owned()
        })?;
        ensure(self.light.verified_acks() >= expected, || {
            format!(
                "{} entries light-audited, expected {expected}",
                self.light.verified_acks()
            )
        })?;
        let view = self.cluster.view();
        let ledger = self.cluster.attestations().ok_or("no attestation ledger")?;
        let report = ClusterAuditor::new(self.cluster.keys().clone())
            .with_topology(self.master.topology())
            .with_attestation_keys(ledger.keyring().clone())
            .audit_view(&view);
        ensure(report.all_clear(), || {
            "honest run did not audit all-clear".to_owned()
        })?;
        let ctx =
            ReplayContext::new(self.cluster.keys().clone()).with_topology(self.master.topology());
        for shard in 0..SHARDS {
            let window = self
                .cluster
                .extract_recording(shard, 0, u64::MAX)
                .map_err(|e| e.to_string())?;
            let replay = replay_window(&window, &ctx).map_err(|e| e.to_string())?;
            ensure(replay.sound(), || {
                format!("shard {shard} recording replay unsound")
            })?;
        }

        // Power off every replica; each disk must give back what it acked.
        let mut recover_ms = Vec::new();
        for (shard, row) in self.storages.iter().enumerate() {
            for (replica, storage) in row.iter().enumerate() {
                let slot = self
                    .cluster
                    .replica(shard, replica)
                    .ok_or("replica vanished")?;
                let acked = slot.handle().store().len();
                slot.kill();
                let config = DurabilityConfig::new(Arc::clone(storage))
                    .fsync(SyncPolicy::EveryAppend)
                    .rotate_every(ROTATE_EVERY);
                let (opened, ms) = time_us(|| DurableLog::open(&config));
                let (_log, recovered, _) = opened.map_err(|e| e.to_string())?;
                recover_ms.push(ms / 1e3);
                ensure(recovered.len() >= acked, || {
                    format!(
                        "shard {shard} replica {replica}: recovered {} of {acked}",
                        recovered.len()
                    )
                })?;
                recovered
                    .verify_chain()
                    .map_err(|e| format!("recovered chain: {e}"))?;
            }
        }
        layers.set("logger.recover_ms", median(&recover_ms));
        Ok(())
    }

    fn input_digest(&self) -> f64 {
        self.digest
    }
}
