//! `adlp-cluster`: a sharded, quorum-replicated trusted-logger cluster.
//!
//! The paper's trusted logger is a single deposit point (§II-A); this crate
//! scales it out without weakening its audit guarantees:
//!
//! * [`ring`] — a deterministic consistent-hash ring keyed on
//!   (publisher identity, topic) that assigns every log entry to a shard;
//! * [`cluster`] — [`cluster::LoggerCluster`]: N shards × R replica
//!   [`adlp_logger::LogServer`] backends sharing one key registry, with
//!   kill/restart hooks for fault drills;
//! * [`client`] — [`client::ClusterLogClient`]: the deposit router that fans
//!   each entry out to a shard's replicas and counts W-of-R quorum
//!   acknowledgement; degradation is always counted
//!   ([`stats::ClusterStats`]), never silent;
//! * [`epoch`] — epoch sealing: per-shard Merkle roots anchored under one
//!   signed cross-shard super-root, so no shard can be rolled back
//!   independently;
//! * [`view`] — cross-replica comparison: a gathered [`view::ClusterView`]
//!   classifies every replica as consistent, lagging (fail-stop; a strict
//!   prefix of the quorum log), or *diverged* (conflicting content — tamper
//!   evidence naming the shard and replica);
//! * [`attestation`] — Byzantine mode: per-replica signed head
//!   attestations, `2f+1`-of-`3f+1` signed-quorum acks, and transferable
//!   [`attestation::EquivocationProof`]s minted by a shared split-view
//!   ledger; a convicted replica surfaces as
//!   [`view::ReplicaStatus::Equivocated`] — the first *provably malicious*
//!   verdict in the lattice.
//!
//! # Trust model
//!
//! Replicas are **fail-stop for availability, untrusted for integrity**: a
//! crashed or lagging replica only costs redundancy, while any replica that
//! *rewrites* history is exposed by cross-replica divergence and by the
//! signed epoch super-root. The cluster therefore never trusts a single
//! backend's story; auditors read all replicas of all shards. In BFT mode
//! the assumption weakens further — up to `f` of `3f+1` replicas per shard
//! may be *actively malicious* (equivocate, replay, withhold), and every
//! such behavior ends in either continued liveness or a self-incriminating,
//! transferable proof, never silent acceptance.

pub mod attestation;
pub mod client;
pub mod cluster;
pub mod config;
pub mod epoch;
pub mod ring;
pub mod stats;
pub mod view;

pub use attestation::{
    AttestationLog, AttestationScope, BftConfig, EquivocationProof, HeadAttestation, Observation,
    ReplicaAttestor,
};
pub use client::{slot_sink, ClusterLogClient, ReplicaSink};
pub use cluster::LoggerCluster;
pub use config::ClusterConfig;
pub use epoch::{empty_shard_root, EpochSeal, ShardRoot};
pub use ring::HashRing;
pub use stats::{ClusterStats, ClusterStatsSnapshot};
pub use view::{ClusterView, ReplicaDivergence, ReplicaStatus, ShardView};
