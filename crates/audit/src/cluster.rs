//! Auditing a sharded, replicated logger cluster.
//!
//! Cluster audit runs in two layers. First the **replica layer**: every
//! replica's log is compared against its shard's quorum log
//! ([`ClusterView`]); a replica holding *conflicting* content is tamper
//! evidence in itself — the cluster's replicas are untrusted for integrity
//! — and is flagged before any per-entry classification runs. When an
//! [`EpochSeal`] is supplied, each shard's live root is also checked
//! against the signed cross-shard super-root, catching whole-shard
//! rollback. Then the **entry layer**: the quorum logs of all shards are
//! merged and handed to the ordinary [`Auditor`], so every per-component
//! lemma of the paper applies unchanged to the clustered deployment.

use crate::auditor::{AuditReport, Auditor};
use adlp_cluster::{empty_shard_root, ClusterView, EpochSeal, HeadAttestation, ReplicaDivergence};
use adlp_crypto::sha256::Digest;
use adlp_crypto::{RsaPublicKey, Statement};
use adlp_logger::{
    ConflictProof, FirstSeen, Head, KeyRegistry, Keyring, LogEntry, LogStore, SignedTreeHead,
};
use adlp_pubsub::{NodeId, Topic};

/// The root `records` commit to, by the store's own rule: a seal is checked
/// against what the audit reads, not against a root the view hands over.
fn root_of(records: &[Vec<u8>]) -> Digest {
    let store = LogStore::new();
    for record in records {
        store.append_encoded(record.clone());
    }
    store.tree_head().1.unwrap_or_else(empty_shard_root)
}

/// Whether/how an epoch seal was checked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SealCheck {
    /// No seal was supplied; only replica cross-checking ran.
    NotChecked,
    /// The seal's signature and super-root verified, and every shard's
    /// live root matched its anchored root.
    Verified,
    /// The seal's own signature or super-root derivation failed.
    BadSeal,
    /// The seal verified but these shards' live state contradicted it
    /// (rollback or rewrite after sealing).
    ShardMismatch(Vec<usize>),
}

/// The cluster-level audit outcome.
#[derive(Debug, Clone)]
pub struct ClusterAuditReport {
    /// Replicas whose content conflicts with their shard's quorum log —
    /// tamper evidence naming shard and replica.
    pub divergences: Vec<ReplicaDivergence>,
    /// (shard, replica, records behind) for fail-stop laggards. Forensic
    /// context, not evidence of wrongdoing.
    pub lagging: Vec<(usize, usize, usize)>,
    /// Epoch-seal verification outcome.
    pub seal: SealCheck,
    /// Quorum-log records that failed to decode as entries.
    pub undecodable: usize,
    /// BFT mode: equivocation proofs the auditor *independently
    /// re-verified* against the replica attestation keyring — each is a
    /// self-contained conviction of (shard, replica): two valid signatures
    /// by one replica over conflicting heads at one length. The first
    /// provably-malicious verdict in the audit, distinct from mere
    /// divergence (which is majority comparison, not proof).
    pub convictions: Vec<ConflictProof<HeadAttestation>>,
    /// Claimed equivocation proofs that did NOT verify — a forged or
    /// mangled proof, or one the auditor holds no attestation keys for.
    /// Convicts nobody, but spoils a clear report: evidence that fails
    /// verification is itself an anomaly.
    pub invalid_convictions: usize,
    /// Witness-subsystem evidence the auditor *independently re-verified*
    /// against the logger STH keyring: two valid signatures by one log over
    /// conflicting tree heads at one size — the log showed different
    /// histories to different observers (DESIGN.md §3.12). Like
    /// [`ClusterAuditReport::convictions`], each is a self-contained
    /// conviction naming the log.
    pub split_views: Vec<ConflictProof<SignedTreeHead>>,
    /// Claimed split-view proofs that did NOT verify — forged, mangled, or
    /// lacking STH keys. Convicts no log, but spoils a clear report.
    pub invalid_split_views: usize,
    /// The ordinary per-component audit over the merged quorum logs.
    pub report: AuditReport,
}

impl ClusterAuditReport {
    /// Whether the cluster is clean: no diverged replica, no verified or
    /// dubious equivocation conviction, no seal trouble, every record
    /// decodable, and the entry-level audit all clear. Lagging replicas do
    /// not spoil a clear report (fail-stop is within the trust model).
    pub fn all_clear(&self) -> bool {
        self.divergences.is_empty()
            && self.convictions.is_empty()
            && self.invalid_convictions == 0
            && self.split_views.is_empty()
            && self.invalid_split_views == 0
            && matches!(self.seal, SealCheck::NotChecked | SealCheck::Verified)
            && self.undecodable == 0
            && self.report.all_clear()
    }

    /// (shard, replica) of every replica named by a verified conviction,
    /// deduplicated in first-seen order.
    pub fn convicted_replicas(&self) -> Vec<(usize, usize)> {
        signers(&self.convictions)
    }

    /// Identity of every log named by a verified split-view proof,
    /// deduplicated in first-seen order.
    pub fn convicted_logs(&self) -> Vec<NodeId> {
        signers(&self.split_views)
    }
}

/// Every signer `proofs` convict, once each, in first-seen order.
fn signers<H: Head>(proofs: &[ConflictProof<H>]) -> Vec<H::Signer> {
    let mut out = Vec::new();
    for signer in proofs.iter().map(ConflictProof::signer) {
        if !out.contains(&signer) {
            out.push(signer);
        }
    }
    out
}

/// The proofs that verify under `keyring`, one per slot, and how many did
/// not: every one of them when there is no keyring.
fn verified<H: Head>(
    proofs: &[ConflictProof<H>],
    keyring: Option<&Keyring<H::Signer>>,
) -> (Vec<ConflictProof<H>>, usize) {
    let mut kept = FirstSeen::default();
    let mut invalid = 0;
    for proof in proofs {
        if keyring.is_some_and(|keyring| proof.verify(keyring)) {
            kept.admit(proof.clone());
        } else {
            invalid += 1;
        }
    }
    (kept.proofs().to_vec(), invalid)
}

/// An [`Auditor`] extended with cluster-level evidence gathering.
#[derive(Debug, Clone)]
pub struct ClusterAuditor {
    inner: Auditor,
    attestation_keys: Option<Keyring<(usize, usize)>>,
    sth_keys: Option<Keyring<NodeId>>,
}

impl ClusterAuditor {
    /// Creates a cluster auditor over the given key registry.
    pub fn new(keys: KeyRegistry) -> Self {
        ClusterAuditor {
            inner: Auditor::new(keys),
            attestation_keys: None,
            sth_keys: None,
        }
    }

    /// Declares the topic → publisher topology (required for hidden-entry
    /// recovery, as for the plain [`Auditor`]).
    #[must_use]
    pub fn with_topology(mut self, topology: impl IntoIterator<Item = (Topic, NodeId)>) -> Self {
        self.inner = self.inner.with_topology(topology);
        self
    }

    /// Supplies the per-replica attestation public keys (BFT mode). With
    /// these, every equivocation proof riding on a gathered view is
    /// *independently re-verified* — the auditor never takes the cluster's
    /// word that a replica equivocated, it checks both signatures itself.
    /// Without them, any claimed proof counts as unverifiable and spoils a
    /// clear report.
    #[must_use]
    pub fn with_attestation_keys(mut self, keyring: Keyring<(usize, usize)>) -> Self {
        self.attestation_keys = Some(keyring);
        self
    }

    /// Supplies the per-log STH public keys (witness mode). With these,
    /// every split-view proof handed in as evidence is *independently
    /// re-verified* — both signatures checked, conflict condition
    /// re-derived — before it convicts a log. Without them, any claimed
    /// proof counts as unverifiable and spoils a clear report.
    #[must_use]
    pub fn with_sth_keys(mut self, keyring: Keyring<NodeId>) -> Self {
        self.sth_keys = Some(keyring);
        self
    }

    /// Audits a gathered cluster view without an epoch seal.
    pub fn audit_view(&self, view: &ClusterView) -> ClusterAuditReport {
        self.run(view, SealCheck::NotChecked, &[])
    }

    /// Audits a gathered cluster view, folding in split-view evidence
    /// collected by the witness set or by light clients. Each proof is
    /// re-verified against the STH keyring supplied via
    /// [`ClusterAuditor::with_sth_keys`]; the auditor never takes a
    /// witness's word for a conviction.
    pub fn audit_view_with_evidence(
        &self,
        view: &ClusterView,
        evidence: &[ConflictProof<SignedTreeHead>],
    ) -> ClusterAuditReport {
        self.run(view, SealCheck::NotChecked, evidence)
    }

    /// Audits a gathered cluster view against a sealed epoch: the seal
    /// must verify under `sealing_key` and the root of every shard's live
    /// records must match its anchored root.
    pub fn audit_sealed_view(
        &self,
        view: &ClusterView,
        seal: &EpochSeal,
        sealing_key: &RsaPublicKey,
    ) -> ClusterAuditReport {
        let check = if !seal.verify(sealing_key) {
            SealCheck::BadSeal
        } else {
            let mismatched: Vec<usize> = view
                .shards
                .iter()
                .filter(|s| !seal.verify_shard(s.shard, &root_of(&s.records), s.records.len()))
                .map(|s| s.shard)
                .collect();
            if mismatched.is_empty() {
                SealCheck::Verified
            } else {
                SealCheck::ShardMismatch(mismatched)
            }
        };
        self.run(view, check, &[])
    }

    fn run(
        &self,
        view: &ClusterView,
        seal: SealCheck,
        evidence: &[ConflictProof<SignedTreeHead>],
    ) -> ClusterAuditReport {
        let mut entries: Vec<LogEntry> = Vec::with_capacity(view.total_records());
        let mut undecodable = 0usize;
        for decoded in view.entries() {
            match decoded {
                Ok(e) => entries.push(e),
                Err(_) => undecodable += 1,
            }
        }
        let (convictions, invalid_convictions) =
            verified(&view.convictions, self.attestation_keys.as_ref());
        let (split_views, invalid_split_views) = verified(evidence, self.sth_keys.as_ref());
        ClusterAuditReport {
            divergences: view.divergences(),
            lagging: view.lagging(),
            seal,
            undecodable,
            convictions,
            invalid_convictions,
            split_views,
            invalid_split_views,
            report: self.inner.audit(&entries),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adlp_cluster::{ClusterConfig, LoggerCluster};
    use adlp_crypto::RsaKeyPair;
    use adlp_logger::{Direction, LogEntry};
    use rand::SeedableRng;

    fn entry(seq: u64, body: Vec<u8>) -> LogEntry {
        LogEntry::naive(
            NodeId::new("cam"),
            Topic::new("image"),
            Direction::Out,
            seq,
            seq,
            body,
        )
    }

    fn fill(cluster: &LoggerCluster) {
        for shard in 0..cluster.shard_count() {
            for slot in cluster.shard_replicas(shard) {
                for seq in 0..4 {
                    slot.handle().try_submit(entry(seq, vec![5u8; 16])).unwrap();
                }
                slot.handle().flush().unwrap();
            }
        }
    }

    #[test]
    fn clean_cluster_audits_clear_with_verified_seal() {
        let cluster = LoggerCluster::spawn(ClusterConfig::replicated(2)).unwrap();
        fill(&cluster);
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let kp = RsaKeyPair::generate(512, &mut rng);
        let seal = cluster.seal_epoch(kp.private_key()).unwrap();
        let view = cluster.view();
        let auditor = ClusterAuditor::new(cluster.keys().clone())
            .with_topology([(Topic::new("image"), NodeId::new("cam"))]);
        let report = auditor.audit_sealed_view(&view, &seal, kp.public_key());
        assert_eq!(report.seal, SealCheck::Verified);
        assert!(report.divergences.is_empty());
        assert!(report.all_clear(), "clean cluster must audit clear");
    }

    #[test]
    fn diverged_replica_is_flagged_with_identity() {
        let cluster = LoggerCluster::spawn(ClusterConfig::replicated(1)).unwrap();
        fill(&cluster);
        cluster
            .replica(0, 1)
            .unwrap()
            .handle()
            .store()
            .tamper_with_record(2, entry(2, vec![9u8; 16]).encode())
            .unwrap();
        let auditor = ClusterAuditor::new(cluster.keys().clone())
            .with_topology([(Topic::new("image"), NodeId::new("cam"))]);
        let report = auditor.audit_view(&cluster.view());
        assert!(!report.all_clear());
        assert_eq!(
            report.divergences,
            vec![ReplicaDivergence {
                shard: 0,
                replica: 1,
                first_divergent_index: 2
            }]
        );
    }

    #[test]
    fn shard_rollback_or_rewrite_after_sealing_is_caught() {
        let cluster = LoggerCluster::spawn(ClusterConfig::new(2)).unwrap();
        fill(&cluster);
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let kp = RsaKeyPair::generate(512, &mut rng);
        let seal = cluster.seal_epoch(kp.private_key()).unwrap();

        // All replicas of shard 1 keep writing after the seal: the live
        // root no longer matches the anchored one.
        for slot in cluster.shard_replicas(1) {
            slot.handle().try_submit(entry(99, vec![1u8; 8])).unwrap();
            slot.handle().flush().unwrap();
        }
        let auditor = ClusterAuditor::new(cluster.keys().clone());
        let report = auditor.audit_sealed_view(&cluster.view(), &seal, kp.public_key());
        assert_eq!(report.seal, SealCheck::ShardMismatch(vec![1]));
        assert!(!report.all_clear());

        // Shard 0's bytes rewritten in storage, its commitment untouched.
        for slot in cluster.shard_replicas(0) {
            let forged = entry(0, vec![9u8; 16]).encode();
            slot.handle().store().tamper_with_record(0, forged).unwrap();
        }
        let report = auditor.audit_sealed_view(&cluster.view(), &seal, kp.public_key());
        assert_eq!(report.seal, SealCheck::ShardMismatch(vec![0, 1]));
    }

    #[test]
    fn equivocating_replica_is_convicted_with_verified_proof() {
        let cluster = LoggerCluster::spawn(ClusterConfig::byzantine(1, 1)).unwrap();
        fill(&cluster);
        let ledger = cluster.attestations().unwrap();

        // Replica (0, 2) signs two conflicting heads at the same length —
        // the equivocation the BFT deposit path would catch live; here the
        // ledger observes both statements directly.
        let attestor = cluster.replica(0, 2).unwrap().attestor().unwrap().clone();
        let honest = cluster
            .replica(0, 2)
            .unwrap()
            .attest_head()
            .unwrap()
            .unwrap();
        let lie = attestor
            .attest(honest.length, adlp_crypto::sha256(b"forged history"))
            .unwrap();
        ledger.observe(honest);
        assert!(matches!(
            ledger.observe(lie),
            adlp_cluster::Observation::Equivocation(_)
        ));

        let view = cluster.view();
        assert_eq!(view.equivocated(), vec![(0, 2)]);

        // The auditor re-verifies the proof itself and names the replica.
        let auditor = ClusterAuditor::new(cluster.keys().clone())
            .with_topology([(Topic::new("image"), NodeId::new("cam"))])
            .with_attestation_keys(ledger.keyring().clone());
        let report = auditor.audit_view(&view);
        assert!(!report.all_clear());
        assert_eq!(report.convicted_replicas(), vec![(0, 2)]);
        assert_eq!(report.invalid_convictions, 0);
        assert_eq!(report.convictions.len(), 1);
        assert_eq!(report.convictions[0].first.length, 4);
        // The equivocating replica's *store* still matches its peers, so
        // comparison-based divergence is silent — only the signed proof
        // catches the lie. That is the point.
        assert!(report.divergences.is_empty());

        // Without attestation keys the claimed proof is unverifiable, and
        // unverifiable evidence spoils a clear report rather than passing.
        let blind = ClusterAuditor::new(cluster.keys().clone())
            .with_topology([(Topic::new("image"), NodeId::new("cam"))]);
        let blind_report = blind.audit_view(&view);
        assert!(blind_report.convictions.is_empty());
        assert_eq!(blind_report.invalid_convictions, 1);
        assert!(!blind_report.all_clear());
    }

    #[test]
    fn forged_conviction_convicts_nobody_but_spoils_clear() {
        let cluster = LoggerCluster::spawn(ClusterConfig::byzantine(1, 1)).unwrap();
        fill(&cluster);
        let ledger = cluster.attestations().unwrap();

        // A "proof" pairing two *different* replicas' genuine attestations
        // is not an equivocation by anyone.
        let a = cluster
            .replica(0, 0)
            .unwrap()
            .attest_head()
            .unwrap()
            .unwrap();
        let b = cluster
            .replica(0, 1)
            .unwrap()
            .attest_head()
            .unwrap()
            .unwrap();
        let mut view = cluster.view();
        view.convictions.push(ConflictProof {
            first: a,
            second: b,
        });

        let auditor = ClusterAuditor::new(cluster.keys().clone())
            .with_topology([(Topic::new("image"), NodeId::new("cam"))])
            .with_attestation_keys(ledger.keyring().clone());
        let report = auditor.audit_view(&view);
        assert!(report.convictions.is_empty(), "forgery convicts nobody");
        assert_eq!(report.invalid_convictions, 1);
        assert!(!report.all_clear(), "but forged evidence is an anomaly");
    }

    #[test]
    fn witness_split_view_evidence_convicts_the_log() {
        use adlp_logger::sth::TreeHeadSigner;

        let cluster = LoggerCluster::spawn(ClusterConfig::replicated(1)).unwrap();
        fill(&cluster);
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let kp = RsaKeyPair::generate(512, &mut rng);
        let sth_keys = Keyring::new().with_log(NodeId::new("logger"), kp.public_key().clone());

        // The logger's own key signed two conflicting heads at one size —
        // the evidence a witness or light client hands the auditor.
        let signer = TreeHeadSigner::new(
            NodeId::new("logger"),
            adlp_crypto::rsa::RsaPrivateKey::from_bytes(&kp.private_key().to_bytes()).unwrap(),
        );
        let proof = ConflictProof {
            first: signer.sign(1, 4, adlp_crypto::sha256(b"honest")).unwrap(),
            second: signer.sign(2, 4, adlp_crypto::sha256(b"forked")).unwrap(),
        };

        let auditor = ClusterAuditor::new(cluster.keys().clone())
            .with_topology([(Topic::new("image"), NodeId::new("cam"))])
            .with_sth_keys(sth_keys);
        // Duplicate evidence for one (log, size) is folded into one
        // conviction.
        let report =
            auditor.audit_view_with_evidence(&cluster.view(), &[proof.clone(), proof.clone()]);
        assert!(!report.all_clear());
        assert_eq!(report.split_views.len(), 1);
        assert_eq!(report.invalid_split_views, 0);
        assert_eq!(report.convicted_logs(), vec![NodeId::new("logger")]);

        // A forged proof (one half re-signed by a different key) convicts
        // nobody but spoils a clear report.
        let imposter = RsaKeyPair::generate(512, &mut rng);
        let forger = TreeHeadSigner::new(
            NodeId::new("logger"),
            adlp_crypto::rsa::RsaPrivateKey::from_bytes(&imposter.private_key().to_bytes())
                .unwrap(),
        );
        let forged = ConflictProof {
            first: proof.first.clone(),
            second: forger.sign(2, 4, adlp_crypto::sha256(b"forked")).unwrap(),
        };
        let report =
            auditor.audit_view_with_evidence(&cluster.view(), std::slice::from_ref(&forged));
        assert!(report.split_views.is_empty(), "forgery convicts no log");
        assert_eq!(report.invalid_split_views, 1);
        assert!(!report.all_clear(), "but forged evidence is an anomaly");

        // Without STH keys even genuine evidence is unverifiable.
        let blind = ClusterAuditor::new(cluster.keys().clone())
            .with_topology([(Topic::new("image"), NodeId::new("cam"))]);
        let blind_report = blind.audit_view_with_evidence(&cluster.view(), &[proof]);
        assert!(blind_report.split_views.is_empty());
        assert_eq!(blind_report.invalid_split_views, 1);
        assert!(!blind_report.all_clear());

        // No evidence: the clean cluster still audits clear.
        assert!(auditor.audit_view(&cluster.view()).all_clear());
    }

    #[test]
    fn lagging_replica_does_not_spoil_clear() {
        let cluster = LoggerCluster::spawn(ClusterConfig::replicated(1)).unwrap();
        fill(&cluster);
        // One replica restarts empty: lagging, not diverged.
        cluster.kill_replica(0, 2);
        cluster.restart_replica(0, 2).unwrap();
        let auditor = ClusterAuditor::new(cluster.keys().clone())
            .with_topology([(Topic::new("image"), NodeId::new("cam"))]);
        let report = auditor.audit_view(&cluster.view());
        assert!(report.divergences.is_empty());
        assert_eq!(report.lagging, vec![(0, 2, 4)]);
        assert!(
            report.all_clear(),
            "fail-stop lag is within the trust model"
        );
    }
}
