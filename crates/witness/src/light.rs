//! Light clients: publishers and subscribers auditing on the ack path.
//!
//! A light client never replays the log; it holds one verified head per
//! log and, on every acknowledgement, (1) pulls the logger's latest head,
//! (2) verifies its signature and RFC 6962 consistency from the head it
//! already trusts, and (3) demands an inclusion proof for the freshly
//! acked record against that head. Every failure is counted — the
//! interceptor surfaces the count as `sth_verify_failures` — and a pair of
//! validly-signed conflicting heads becomes the same transferable
//! [`ConflictProof`] evidence the witness set assembles.

use crate::proof::CosignedHead;
use crate::witness::TreeHeadSource;
use adlp_logger::merkle::{ConsistencyProof, MerkleTree};
use adlp_logger::sth::SignedTreeHead;
use adlp_logger::{ConflictProof, FirstSeen, Keyring};
use adlp_pubsub::NodeId;
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Where a light client asks for the current quorum-cosigned head of a
/// log — a witness federation, typically. `None` when fewer than the
/// cosign quorum of witnesses currently agree (partition, restarts), which
/// the client treats as *counted degradation*, never as silent trust.
pub trait WitnessedHeadSource: Send + Sync {
    /// The highest head of `log` currently backed by a cosign quorum.
    fn witnessed(&self, log: &NodeId) -> Option<CosignedHead>;
}

/// Why a light client refused a head or an ack audit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LightClientError {
    /// The source offered no head.
    NoHead,
    /// The head's signature does not verify under the log's key.
    BadSignature,
    /// The head conflicts with the trusted head at the same size — the
    /// conviction is retained as evidence.
    SplitView,
    /// The head advances the log but no valid consistency proof was
    /// available.
    InconsistentHistory,
    /// The acked record's inclusion proof was missing or failed.
    BadInclusion,
}

impl std::fmt::Display for LightClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let what = match self {
            LightClientError::NoHead => "source offered no signed tree head",
            LightClientError::BadSignature => "tree-head signature does not verify",
            LightClientError::SplitView => "split view detected; conviction retained",
            LightClientError::InconsistentHistory => "no valid consistency proof for advance",
            LightClientError::BadInclusion => "ack inclusion proof missing or invalid",
        };
        f.write_str(what)
    }
}

impl std::error::Error for LightClientError {}

#[derive(Debug, Default)]
struct LightInner {
    latest: BTreeMap<NodeId, SignedTreeHead>,
    /// Split-view convictions, one per (log, size). Only the detector's
    /// proofs are used: `latest` is what the client remembers of heads.
    evidence: FirstSeen<SignedTreeHead>,
    /// Logs currently audited without witness quorum backing.
    degraded: BTreeSet<NodeId>,
}

/// Client-side STH verification state. Cheap to share behind an [`Arc`];
/// one instance serves every connection of a node.
#[derive(Debug)]
pub struct LightClient {
    loggers: Keyring<NodeId>,
    inner: Mutex<LightInner>,
    verify_failures: AtomicU64,
    verified_acks: AtomicU64,
    quorum_unavailable: AtomicU64,
    quorum_recoveries: AtomicU64,
}

impl LightClient {
    /// Creates a light client trusting the logger keys in `loggers`.
    pub fn new(loggers: Keyring<NodeId>) -> Self {
        LightClient {
            loggers,
            inner: Mutex::new(LightInner::default()),
            verify_failures: AtomicU64::new(0),
            verified_acks: AtomicU64::new(0),
            quorum_unavailable: AtomicU64::new(0),
            quorum_recoveries: AtomicU64::new(0),
        }
    }

    fn fail(&self, err: LightClientError) -> LightClientError {
        self.verify_failures.fetch_add(1, Ordering::Relaxed);
        err
    }

    /// Verifies one head — signature, split-view check against the trusted
    /// head, and consistency when it advances the log — and adopts it on
    /// success. Failures are counted.
    ///
    /// A head equal, signature included, to the one held for its log is
    /// accepted without RSA: the held head was verified under the same
    /// fixed keyring when it was adopted.
    ///
    /// # Errors
    ///
    /// Returns the reason the head was refused; on
    /// [`LightClientError::SplitView`] the transferable conviction is
    /// retained (see [`LightClient::evidence`]).
    pub fn observe_head(
        &self,
        sth: SignedTreeHead,
        consistency: Option<&ConsistencyProof>,
    ) -> Result<(), LightClientError> {
        if self.inner.lock().latest.get(&sth.log) == Some(&sth) {
            return Ok(());
        }
        if !self.loggers.verify(&sth) {
            return Err(self.fail(LightClientError::BadSignature));
        }
        let mut inner = self.inner.lock();
        match inner.latest.get(&sth.log) {
            None => {
                inner.latest.insert(sth.log.clone(), sth);
                Ok(())
            }
            Some(cur) if sth.size == cur.size => {
                if sth.root == cur.root {
                    Ok(())
                } else {
                    let proof = ConflictProof {
                        first: cur.clone(),
                        second: sth,
                    };
                    inner.evidence.admit(proof);
                    drop(inner);
                    Err(self.fail(LightClientError::SplitView))
                }
            }
            Some(cur) if sth.size < cur.size => {
                // An older head is fine only if the *trusted* head extends
                // it; without a proof the client simply keeps what it has.
                Ok(())
            }
            Some(cur) => match consistency {
                Some(proof) if MerkleTree::verify_consistency(&cur.root, &sth.root, proof) => {
                    inner.latest.insert(sth.log.clone(), sth);
                    Ok(())
                }
                _ => {
                    drop(inner);
                    Err(self.fail(LightClientError::InconsistentHistory))
                }
            },
        }
    }

    /// The full ack-path audit: pull the source's latest head, verify and
    /// adopt it, then verify the inclusion of record `index` (the freshly
    /// acked one) under it.
    ///
    /// # Errors
    ///
    /// Returns the first check that failed; every failure is counted.
    pub fn audit_ack(
        &self,
        source: &dyn TreeHeadSource,
        index: u64,
    ) -> Result<(), LightClientError> {
        let Some(sth) = source.latest() else {
            return Err(self.fail(LightClientError::NoHead));
        };
        let consistency = {
            let inner = self.inner.lock();
            match inner.latest.get(&sth.log) {
                Some(cur) if sth.size > cur.size => source.consistency(cur.size, sth.size),
                _ => None,
            }
        };
        self.observe_head(sth.clone(), consistency.as_ref())?;
        if index >= sth.size {
            return Err(self.fail(LightClientError::BadInclusion));
        }
        let Some((leaf, proof)) = source.inclusion(index, sth.size) else {
            return Err(self.fail(LightClientError::BadInclusion));
        };
        if !MerkleTree::verify(&sth.root, sth.size as usize, &leaf, &proof) {
            return Err(self.fail(LightClientError::BadInclusion));
        }
        self.verified_acks.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// The ack-path audit with witness backing: prefer the federation's
    /// quorum-cosigned head, degrade gracefully when the quorum is gone.
    ///
    /// When `witnessed` carries a head for this log backed by at least
    /// `quorum` distinct, validly-signed witnesses, the client adopts it
    /// (through the usual signature / split-view / consistency gauntlet)
    /// and the log leaves degraded mode — a transition counted in
    /// [`LightClient::quorum_recoveries`]. When it does not — partition,
    /// restarting witnesses, fewer than `f + 1` cosigners reachable — the
    /// client does **not** silently trust the bare logger head: it counts
    /// the round in [`LightClient::cosign_quorum_unavailable`], marks the
    /// log degraded, and continues in evidence-retention mode.
    ///
    /// In *both* cases the direct [`LightClient::audit_ack`] still runs:
    /// degraded mode changes what the client can vouch for (no quorum
    /// backing), never what evidence it collects. A split-view logger is
    /// convicted by the direct path even while the federation is dark.
    ///
    /// # Errors
    ///
    /// Returns the first direct-audit check that failed; every failure is
    /// counted.
    pub fn audit_ack_witnessed(
        &self,
        source: &dyn TreeHeadSource,
        index: u64,
        witnessed: Option<&CosignedHead>,
        witnesses: &Keyring<usize>,
        quorum: usize,
    ) -> Result<(), LightClientError> {
        let log = source.log_id();
        let quorate = witnessed
            .filter(|head| head.sth.log == log)
            .filter(|head| head.witnessed_by(&self.loggers, witnesses, quorum));
        match quorate {
            Some(head) => {
                let consistency = {
                    let inner = self.inner.lock();
                    match inner.latest.get(&head.sth.log) {
                        Some(cur) if head.sth.size > cur.size => {
                            source.consistency(cur.size, head.sth.size)
                        }
                        _ => None,
                    }
                };
                // adlp-lint: allow(discarded-fallible) — a refused witnessed head (split view, unproven advance) is already counted and its conviction retained inside observe_head; the direct audit below still decides the call's verdict
                let _ = self.observe_head(head.sth.clone(), consistency.as_ref());
                let mut inner = self.inner.lock();
                if inner.degraded.remove(&log) {
                    self.quorum_recoveries.fetch_add(1, Ordering::Relaxed);
                }
            }
            None => {
                self.quorum_unavailable.fetch_add(1, Ordering::Relaxed);
                self.inner.lock().degraded.insert(log.clone());
            }
        }
        self.audit_ack(source, index)
    }

    /// Whether `log` is currently audited without witness quorum backing.
    pub fn is_degraded(&self, log: &NodeId) -> bool {
        self.inner.lock().degraded.contains(log)
    }

    /// Witnessed audits that found fewer than the cosign quorum backing
    /// the head — rounds spent in evidence-retention mode.
    pub fn cosign_quorum_unavailable(&self) -> u64 {
        self.quorum_unavailable.load(Ordering::Relaxed)
    }

    /// Degraded→quorate transitions: the federation healed and the client
    /// resumed quorum-backed auditing.
    pub fn quorum_recoveries(&self) -> u64 {
        self.quorum_recoveries.load(Ordering::Relaxed)
    }

    /// The trusted head for `log`, if any.
    pub fn latest_head(&self, log: &NodeId) -> Option<SignedTreeHead> {
        self.inner.lock().latest.get(log).cloned()
    }

    /// Failed verifications (signature, consistency, split view,
    /// inclusion) so far.
    pub fn sth_verify_failures(&self) -> u64 {
        self.verify_failures.load(Ordering::Relaxed)
    }

    /// Acks that passed the full audit.
    pub fn verified_acks(&self) -> u64 {
        self.verified_acks.load(Ordering::Relaxed)
    }

    /// Split-view convictions this client assembled.
    pub fn evidence(&self) -> Vec<ConflictProof<SignedTreeHead>> {
        self.inner.lock().evidence.proofs().to_vec()
    }

    /// Ingests a transferable conviction gossiped by the witness layer —
    /// how a client that never saw the fork itself learns a log it uses is
    /// convicted. The proof is re-verified under the client's own logger
    /// keyring; a proof that does not verify is counted as a signature
    /// failure and discarded. Returns whether the conviction was new.
    ///
    /// # Errors
    ///
    /// Returns [`LightClientError::BadSignature`] when the proof does not
    /// verify under this client's keyring.
    pub fn observe_conviction(
        &self,
        proof: ConflictProof<SignedTreeHead>,
    ) -> Result<bool, LightClientError> {
        if !proof.verify(&self.loggers) {
            return Err(self.fail(LightClientError::BadSignature));
        }
        Ok(self.inner.lock().evidence.admit(proof))
    }
}

/// A [`LightClient`] bound to the source it audits against — the hook the
/// `adlp-core` interceptor invokes on every acknowledged send.
pub struct AckProbe {
    client: Arc<LightClient>,
    source: Arc<dyn TreeHeadSource>,
    federation: Option<(Arc<dyn WitnessedHeadSource>, Keyring<usize>, usize)>,
    acked: AtomicU64,
}

impl AckProbe {
    /// Binds `client` to `source`.
    pub fn new(client: Arc<LightClient>, source: Arc<dyn TreeHeadSource>) -> Self {
        AckProbe {
            client,
            source,
            federation: None,
            acked: AtomicU64::new(0),
        }
    }

    /// Additionally consults `federation` for a quorum-cosigned head on
    /// every audit: the probe runs [`LightClient::audit_ack_witnessed`]
    /// instead of the bare direct audit, degrading (counted) whenever the
    /// federation cannot produce `quorum` cosigners.
    pub fn with_federation(
        mut self,
        federation: Arc<dyn WitnessedHeadSource>,
        witnesses: Keyring<usize>,
        quorum: usize,
    ) -> Self {
        self.federation = Some((federation, witnesses, quorum));
        self
    }

    /// The bound light client (counters and evidence live there).
    pub fn client(&self) -> &Arc<LightClient> {
        &self.client
    }

    /// Audits the latest acknowledged record: the probe tracks how many
    /// acks it has seen and demands inclusion of the newest record the
    /// head covers. Returns whether the audit passed.
    pub fn audit_ack(&self) -> bool {
        self.acked.fetch_add(1, Ordering::Relaxed);
        let Some(sth) = self.source.latest() else {
            // Count through the client so the interceptor's counter moves.
            return self.client.audit_ack(&NoSource, 0).is_ok();
        };
        let index = sth.size.saturating_sub(1);
        match &self.federation {
            Some((fed, witnesses, quorum)) => {
                let witnessed = fed.witnessed(&self.source.log_id());
                self.client
                    .audit_ack_witnessed(
                        &*self.source,
                        index,
                        witnessed.as_ref(),
                        witnesses,
                        *quorum,
                    )
                    .is_ok()
            }
            None => self.client.audit_ack(&*self.source, index).is_ok(),
        }
    }
}

/// A source with nothing to offer — used to route "no head" through the
/// counted failure path.
struct NoSource;

impl TreeHeadSource for NoSource {
    fn log_id(&self) -> NodeId {
        NodeId::new("")
    }
    fn latest(&self) -> Option<SignedTreeHead> {
        None
    }
    fn consistency(&self, _old: u64, _new: u64) -> Option<ConsistencyProof> {
        None
    }
    fn inclusion(
        &self,
        _index: u64,
        _size: u64,
    ) -> Option<(
        adlp_crypto::sha256::Digest,
        adlp_logger::merkle::InclusionProof,
    )> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adlp_crypto::rsa::RsaPrivateKey;
    use adlp_crypto::RsaKeyPair;
    use adlp_logger::sth::{SthPublisher, TreeHeadSigner};
    use adlp_logger::LogStore;
    use rand::SeedableRng;

    fn keypair(seed: u64) -> RsaKeyPair {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        RsaKeyPair::generate(512, &mut rng)
    }

    fn private(kp: &RsaKeyPair) -> RsaPrivateKey {
        RsaPrivateKey::from_bytes(&kp.private_key().to_bytes()).unwrap()
    }

    fn setup(seed: u64, entries: usize) -> (RsaKeyPair, Keyring<NodeId>, LogStore, SthPublisher) {
        let kp = keypair(seed);
        let keyring = Keyring::new().with(NodeId::new("logger"), kp.public_key().clone());
        let store = LogStore::new();
        for i in 0..entries {
            store.append_encoded(vec![i as u8; 16]);
        }
        let publisher = SthPublisher::new(
            TreeHeadSigner::new(NodeId::new("logger"), private(&kp)),
            store.clone(),
        );
        (kp, keyring, store, publisher)
    }

    #[test]
    fn honest_ack_path_verifies_cleanly() {
        let (_kp, keyring, store, publisher) = setup(1, 3);
        let client = LightClient::new(keyring);

        assert_eq!(client.audit_ack(&publisher, 2), Ok(()));
        store.append_encoded(vec![7; 16]);
        assert_eq!(client.audit_ack(&publisher, 3), Ok(()));
        assert_eq!(client.verified_acks(), 2);
        assert_eq!(client.sth_verify_failures(), 0);
        assert!(client.evidence().is_empty());
        assert_eq!(client.latest_head(&NodeId::new("logger")).unwrap().size, 4);
    }

    #[test]
    fn split_view_against_the_trusted_head_is_counted_and_retained() {
        let (kp, keyring, _store, publisher) = setup(2, 4);
        let client = LightClient::new(keyring.clone());
        assert_eq!(client.audit_ack(&publisher, 3), Ok(()));

        // The logger now shows this client a forked head at the same size.
        let liar = TreeHeadSigner::new(NodeId::new("logger"), private(&kp));
        let forked = liar.sign(9, 4, adlp_crypto::sha256(b"fork")).unwrap();
        assert_eq!(
            client.observe_head(forked, None),
            Err(LightClientError::SplitView)
        );
        assert_eq!(client.sth_verify_failures(), 1);
        let evidence = client.evidence();
        assert_eq!(evidence.len(), 1);
        assert!(evidence[0].verify(&keyring), "evidence is transferable");
    }

    #[test]
    fn unproven_advance_and_forgeries_are_refused() {
        let (kp, keyring, _store, publisher) = setup(3, 3);
        let client = LightClient::new(keyring);
        assert_eq!(client.audit_ack(&publisher, 2), Ok(()));

        let signer = TreeHeadSigner::new(NodeId::new("logger"), private(&kp));
        let advance = signer.sign(9, 6, adlp_crypto::sha256(b"ahead")).unwrap();
        assert_eq!(
            client.observe_head(advance, None),
            Err(LightClientError::InconsistentHistory)
        );

        let imposter = TreeHeadSigner::new(NodeId::new("logger"), private(&keypair(4)));
        let forged = imposter.sign(0, 9, adlp_crypto::sha256(b"x")).unwrap();
        assert_eq!(
            client.observe_head(forged, None),
            Err(LightClientError::BadSignature)
        );
        assert_eq!(client.sth_verify_failures(), 2);

        // Re-seeing the held head passes and moves no counter.
        let held = client.latest_head(&NodeId::new("logger")).unwrap();
        assert_eq!(client.observe_head(held.clone(), None), Ok(()));
        assert_eq!(client.sth_verify_failures(), 2);
        assert_eq!(client.verified_acks(), 1);

        // The held head's fields under another key's signature are not the
        // held head: refused and counted.
        let resigned = imposter.sign(held.epoch, held.size, held.root).unwrap();
        assert_ne!(resigned, held);
        assert_eq!(
            client.observe_head(resigned, None),
            Err(LightClientError::BadSignature)
        );
        assert_eq!(client.sth_verify_failures(), 3);
        // The trusted head never moved.
        assert_eq!(client.latest_head(&NodeId::new("logger")), Some(held));
    }

    /// Three witness keypairs plus a keyring over them, and a closure
    /// minting a quorum-cosigned head for the publisher's current tree.
    fn witness_set(seed: u64) -> (Vec<RsaKeyPair>, Keyring<usize>) {
        let keypairs: Vec<RsaKeyPair> = (0..3).map(|i| keypair(seed + 100 + i)).collect();
        let keyring = keypairs
            .iter()
            .map(|kp| kp.public_key().clone())
            .enumerate()
            .collect();
        (keypairs, keyring)
    }

    fn cosigned(
        head: &SignedTreeHead,
        keypairs: &[RsaKeyPair],
        endorsers: &[usize],
    ) -> CosignedHead {
        let cosignatures = endorsers
            .iter()
            .map(|&w| {
                crate::proof::Cosignature::sign(
                    w,
                    &private(&keypairs[w]),
                    head.log.clone(),
                    head.size,
                    head.root,
                )
                .unwrap()
            })
            .collect();
        CosignedHead {
            sth: head.clone(),
            cosignatures,
        }
    }

    #[test]
    fn missing_quorum_degrades_and_heal_recovers() {
        let (_kp, keyring, store, publisher) = setup(6, 3);
        let (wkeys, witnesses) = witness_set(6);
        let client = LightClient::new(keyring);
        let log = NodeId::new("logger");

        // Federation dark: no cosigned head at all. The direct audit still
        // verifies the ack (evidence retention), but the round is counted
        // as degraded — never silent trust.
        assert_eq!(
            client.audit_ack_witnessed(&publisher, 2, None, &witnesses, 2),
            Ok(())
        );
        assert!(client.is_degraded(&log));
        assert_eq!(client.cosign_quorum_unavailable(), 1);
        assert_eq!(client.quorum_recoveries(), 0);
        assert_eq!(client.verified_acks(), 1);

        // One cosigner is short of the f+1 = 2 quorum: still degraded.
        let head = publisher.emit().unwrap();
        assert_eq!(
            client.audit_ack_witnessed(
                &publisher,
                2,
                Some(&cosigned(&head, &wkeys, &[0])),
                &witnesses,
                2
            ),
            Ok(())
        );
        assert_eq!(client.cosign_quorum_unavailable(), 2);
        assert!(client.is_degraded(&log));

        // The federation heals: a 2-of-3 cosigned head clears degraded
        // mode and the transition is counted exactly once.
        store.append_encoded(vec![9; 16]);
        let head = publisher.emit().unwrap();
        assert_eq!(
            client.audit_ack_witnessed(
                &publisher,
                3,
                Some(&cosigned(&head, &wkeys, &[0, 2])),
                &witnesses,
                2
            ),
            Ok(())
        );
        assert!(!client.is_degraded(&log));
        assert_eq!(client.quorum_recoveries(), 1);
        assert_eq!(client.cosign_quorum_unavailable(), 2);
        assert_eq!(client.latest_head(&log).unwrap().size, 4);

        // Staying quorate does not mint more recoveries.
        assert_eq!(
            client.audit_ack_witnessed(
                &publisher,
                3,
                Some(&cosigned(&head, &wkeys, &[1, 2])),
                &witnesses,
                2
            ),
            Ok(())
        );
        assert_eq!(client.quorum_recoveries(), 1);
    }

    #[test]
    fn forged_cosignatures_do_not_count_toward_quorum() {
        let (_kp, keyring, _store, publisher) = setup(7, 3);
        let (wkeys, witnesses) = witness_set(7);
        let client = LightClient::new(keyring);
        let head = publisher.emit().unwrap();

        // Witness 1's endorsement is signed with witness 0's key: only one
        // *valid* distinct endorsement remains, below the quorum of two.
        let mut fake = cosigned(&head, &wkeys, &[0, 0]);
        fake.cosignatures[1].witness = 1;
        assert_eq!(
            client.audit_ack_witnessed(&publisher, 2, Some(&fake), &witnesses, 2),
            Ok(())
        );
        assert!(client.is_degraded(&NodeId::new("logger")));
        assert_eq!(client.cosign_quorum_unavailable(), 1);
    }

    #[test]
    fn probe_with_federation_reports_degradation_through_the_client() {
        let (_kp, keyring, _store, publisher) = setup(8, 2);
        let (_wkeys, witnesses) = witness_set(8);
        let client = Arc::new(LightClient::new(keyring));

        /// A federation that never produces a quorum.
        struct Dark;
        impl WitnessedHeadSource for Dark {
            fn witnessed(&self, _log: &NodeId) -> Option<CosignedHead> {
                None
            }
        }

        let probe = AckProbe::new(Arc::clone(&client), Arc::new(publisher)).with_federation(
            Arc::new(Dark),
            witnesses,
            2,
        );
        assert!(probe.audit_ack(), "direct audit still verifies the ack");
        assert_eq!(client.cosign_quorum_unavailable(), 1);
        assert!(client.is_degraded(&NodeId::new("logger")));
    }

    #[test]
    fn ack_probe_drives_the_client_through_the_source() {
        let (_kp, keyring, store, publisher) = setup(5, 2);
        let client = Arc::new(LightClient::new(keyring));
        let probe = AckProbe::new(Arc::clone(&client), Arc::new(publisher));

        assert!(probe.audit_ack());
        store.append_encoded(vec![3; 16]);
        assert!(probe.audit_ack());
        assert_eq!(client.verified_acks(), 2);
        assert_eq!(client.sth_verify_failures(), 0);
    }
}
