//! `cluster_bft`: `ClusterLogClient::submit_durable` into a 2-shard
//! `BftConfig::new(1)` cluster — 4 volatile replicas per shard, every
//! acknowledgement 2f+1 matching signed head attestations. Two depositors
//! whose links land on different shards.
//!
//! No protocol exchange and no disk: the cost is fan-out, per-replica
//! attestation signing, ledger verification — where per-epoch heads in
//! place of per-ack attestations must show.

use super::deposit_fsync::{drive_depositors, prebuilt_entries, DEPOSITORS};
use super::{ensure, Ctx, Layers, Workload};
use crate::inputs::{self, InputDigest};
use crate::measure::{median, median_us, Round, Window};
use crate::trace::{span_us, SpanStats, TimedSink};
use adlp_audit::ClusterAuditor;
use adlp_cluster::{
    slot_sink, BftConfig, ClusterConfig, ClusterLogClient, LoggerCluster, ReplicaSink,
};
use adlp_logger::{KeyRegistry, LogEntry};
use adlp_pubsub::{NodeId, Topic};
use std::sync::Arc;

pub const SHARDS: usize = 2;

/// The BFT cluster configuration every cluster workload uses.
pub fn bft_config(ctx: Ctx) -> ClusterConfig {
    ClusterConfig::new(SHARDS).with_bft(
        BftConfig::new(1)
            .with_key_bits(ctx.key_bits())
            .with_seed(inputs::KEY_SEED),
    )
}

/// A client over `cluster`'s replica lanes; traced runs time every lane.
pub fn client_for(cluster: &LoggerCluster, trace: bool) -> ClusterLogClient {
    if !trace {
        return ClusterLogClient::in_proc(cluster);
    }
    let sinks = (0..cluster.shard_count())
        .map(|shard| {
            cluster
                .shard_replicas(shard)
                .iter()
                .map(|slot| {
                    Box::new(TimedSink(slot_sink(Arc::clone(slot)))) as Box<dyn ReplicaSink>
                })
                .collect()
        })
        .collect();
    let client = ClusterLogClient::from_sinks_with_stats(
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

/// One (component, topic) link per shard, so the depositors never share a
/// shard's order lock.
pub fn links_per_shard(client: &ClusterLogClient) -> Result<Vec<(String, String)>, String> {
    let mut links: Vec<Option<(String, String)>> = vec![None; SHARDS];
    for k in 0..1024 {
        let (component, topic) = (format!("dep{k}"), format!("topic{k}"));
        let shard = client.shard_for(
            &NodeId::new(component.as_str()),
            &Topic::new(topic.as_str()),
        );
        if let Some(slot) = links.get_mut(shard).filter(|s| s.is_none()) {
            *slot = Some((component, topic));
        }
        if links.iter().all(Option::is_some) {
            return Ok(links.into_iter().flatten().collect());
        }
    }
    Err("no link found for every shard".to_owned())
}

/// Pre-built deposit lanes, one per shard of `client`.
pub fn lanes_for(
    ctx: Ctx,
    client: &ClusterLogClient,
    keys: &KeyRegistry,
    ops: usize,
    digest: &mut InputDigest,
) -> Result<Vec<Vec<LogEntry>>, String> {
    links_per_shard(client)?
        .iter()
        .enumerate()
        .map(|(lane, (component, topic))| {
            let link = (component.as_str(), topic.as_str());
            prebuilt_entries(ctx, lane as u64, link, ops / DEPOSITORS, keys, digest)
        })
        .collect()
}

/// Bytes held by every replica of `cluster`.
pub fn replica_bytes(cluster: &LoggerCluster) -> u64 {
    (0..cluster.shard_count())
        .flat_map(|s| cluster.shard_replicas(s).iter())
        .map(|slot| slot.handle().store().total_bytes())
        .sum()
}

/// Gates every cluster workload shares: nothing lost, every replica of a
/// shard holding the same verified chain, no equivocation evidence.
pub fn gate_cluster(cluster: &LoggerCluster, expected: u64) -> Result<(), String> {
    let stats = cluster.stats().snapshot();
    ensure(stats.entries_lost == 0, || {
        format!("{} entries lost", stats.entries_lost)
    })?;
    ensure(stats.acked >= expected, || {
        format!("{} acked, expected {expected}", stats.acked)
    })?;
    ensure(
        stats.attestations_rejected == 0 && stats.equivocations_detected == 0,
        || "attestations rejected or equivocation detected".to_owned(),
    )?;
    for shard in 0..cluster.shard_count() {
        for slot in cluster.shard_replicas(shard) {
            let handle = slot.handle();
            handle
                .store()
                .verify_chain()
                .map_err(|e| format!("shard {shard}: {e}"))?;
        }
    }
    let view = cluster.view();
    ensure(view.total_records() as u64 >= expected, || {
        "quorum logs are short".to_owned()
    })?;
    let mut auditor = ClusterAuditor::new(cluster.keys().clone());
    if let Some(ledger) = cluster.attestations() {
        auditor = auditor.with_attestation_keys(ledger.keyring().clone());
    }
    let report = auditor.audit_view(&view);
    ensure(
        report.divergences.is_empty()
            && report.lagging.is_empty()
            && report.convictions.is_empty()
            && report.invalid_convictions == 0
            && report.undecodable == 0,
        || "cluster audit found divergence, lag or convictions".to_owned(),
    )
}

pub struct ClusterBft {
    ctx: Ctx,
    cluster: LoggerCluster,
    client: ClusterLogClient,
    lanes: Vec<Vec<LogEntry>>,
    digest: f64,
}

impl ClusterBft {
    pub fn setup(ctx: Ctx, ops: usize) -> Result<Self, String> {
        let cluster = LoggerCluster::spawn(bft_config(ctx)).map_err(|e| e.to_string())?;
        let client = client_for(&cluster, ctx.trace);
        let mut digest = InputDigest::default();
        let lanes = lanes_for(ctx, &client, cluster.keys(), ops, &mut digest)?;
        Ok(ClusterBft {
            ctx,
            cluster,
            client,
            lanes,
            digest: digest.finish(),
        })
    }
}

impl Workload for ClusterBft {
    fn round(&mut self) -> Result<Round, String> {
        let mut round = Round::default();
        let window = Window::open();
        let client = &self.client;
        drive_depositors(&self.lanes, &mut round, &|entry| {
            client.submit_durable(entry).map_err(|e| e.to_string())
        })?;
        client.flush().map_err(|e| e.to_string())?;
        window.close(&mut round);
        round.entries = self.cluster.stats().snapshot().acked;
        round.log_bytes = replica_bytes(&self.cluster);
        Ok(round)
    }

    fn layers(
        &mut self,
        round: &Round,
        spans: &SpanStats,
        layers: &mut Layers,
    ) -> Result<(), String> {
        let iters = self.ctx.iters();
        let stats = self.cluster.stats().snapshot();
        let acked = stats.acked.max(1) as f64;
        let replicas = self.cluster.config().replicas as f64;
        let deposit_us = span_us(spans, "cluster.replica_deposit");

        let slot = self.cluster.replica(0, 0).ok_or("no replica (0, 0)")?;
        let attest_us = median_us(iters, |_| slot.attest_head());
        let att = slot
            .attest_head()
            .map_err(|e| e.to_string())?
            .ok_or("replica does not attest")?;
        let keyring = self
            .cluster
            .attestations()
            .ok_or("no attestation ledger")?
            .keyring()
            .clone();
        let verify_us = median_us(iters, |_| keyring.verify(&att));

        // One deposit's life: every lane in turn, then the ledger's checks.
        layers.stage("cluster.replica_deposit_us", deposit_us, replicas);
        layers.stage(
            "crypto.rsa_verify_us",
            verify_us,
            stats.attestations_verified as f64 / acked,
        );
        layers.set("cluster.attest_us", attest_us);
        layers.set("crypto.rsa_sign_us", attest_us);
        layers.set("cluster.quorum_p50_us", median(&round.lat_us));
        layers.set(
            "cluster.quorum_p99_us",
            stats.p99_quorum_latency_ns as f64 / 1e3,
        );
        layers.set(
            "cluster.attest_verifies_per_entry",
            stats.attestations_verified as f64 / acked,
        );
        let depths: Vec<f64> = stats.shard_depth.iter().map(|&d| d as f64).collect();
        let mean_depth = depths.iter().sum::<f64>() / depths.len().max(1) as f64;
        layers.set(
            "cluster.shard_skew",
            depths.iter().copied().fold(0.0, f64::max) / mean_depth.max(1.0),
        );
        layers.set("cluster.failovers", stats.failovers as f64);
        layers.set("cluster.entries_lost", stats.entries_lost as f64);

        // The same driver against a crash-quorum cluster of the same shape:
        // the reference for "BFT within 2× of crash quorum".
        let crash = LoggerCluster::spawn(
            ClusterConfig::new(SHARDS)
                .with_replicas(4)
                .with_write_quorum(3),
        )
        .map_err(|e| e.to_string())?;
        let crash_client = ClusterLogClient::in_proc(&crash);
        let lanes: Vec<Vec<LogEntry>> = self
            .lanes
            .iter()
            .map(|lane| lane.iter().take((lane.len() / 4).max(1)).cloned().collect())
            .collect();
        let mut reference = Round::default();
        drive_depositors(&lanes, &mut reference, &|entry| {
            crash_client
                .submit_durable(entry)
                .map_err(|e| e.to_string())
        })?;
        ensure(crash.stats().snapshot().entries_lost == 0, || {
            "crash-quorum run lost entries".to_owned()
        })?;
        layers.set("cluster.crash_quorum_p50_us", median(&reference.lat_us));
        Ok(())
    }

    fn gate(self: Box<Self>, _layers: &mut Layers) -> Result<(), String> {
        let expected: usize = self.lanes.iter().map(Vec::len).sum();
        gate_cluster(&self.cluster, expected as u64)
    }

    fn input_digest(&self) -> f64 {
        self.digest
    }
}
