//! One witness: verify, remember, cosign, convict.

use crate::proof::Cosignature;
use crate::state::{LogWitnessRecord, WitnessState};
use adlp_crypto::rsa::RsaPrivateKey;
use adlp_crypto::sha256::Digest;
use adlp_logger::frame::DurableCell;
use adlp_logger::merkle::{ConsistencyProof, InclusionProof, MerkleTree};
use adlp_logger::sth::{SignedTreeHead, SthPublisher};
use adlp_logger::storage::Storage;
use adlp_logger::{ConflictProof, FirstSeen, Keyring, LogError, Sighting};
use adlp_pubsub::NodeId;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Where a witness or light client fetches heads and proofs from — the
/// logger's proof-serving endpoint, abstracted so the split-view sim can
/// serve *different* sources to different observers.
pub trait TreeHeadSource: Send + Sync {
    /// Identity of the log this source speaks for.
    fn log_id(&self) -> NodeId;

    /// The log's current signed head.
    fn latest(&self) -> Option<SignedTreeHead>;

    /// Proof that the tree at `new_size` extends the tree at `old_size`.
    fn consistency(&self, old_size: u64, new_size: u64) -> Option<ConsistencyProof>;

    /// Inclusion proof (and leaf hash) for record `index` in the tree at
    /// `size`.
    fn inclusion(&self, index: u64, size: u64) -> Option<(Digest, InclusionProof)>;
}

impl TreeHeadSource for SthPublisher {
    fn log_id(&self) -> NodeId {
        self.log().clone()
    }

    fn latest(&self) -> Option<SignedTreeHead> {
        // On-demand publishers sign fresh; epoch-paced ones serve the last
        // sealed head, so every observer sees the same head between seals.
        self.latest_head()
    }

    fn consistency(&self, old_size: u64, new_size: u64) -> Option<ConsistencyProof> {
        self.prove_consistency(old_size, new_size)
    }

    fn inclusion(&self, index: u64, size: u64) -> Option<(Digest, InclusionProof)> {
        self.prove_inclusion(index, size)
    }
}

/// What [`Witness::adopt_head`] concluded about one head.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SthObservation {
    /// Verified (signature + consistency) and adopted as the log's latest
    /// head; the witness cosigned it.
    Adopted,
    /// A validly-signed repeat of an already-recorded (log, size, root).
    Duplicate,
    /// Validly signed but older than the adopted head, and consistent with
    /// what was recorded at that size.
    Stale,
    /// The signature does not verify under the claimed log's key — the
    /// head is discarded (it proves nothing about the log, whose key never
    /// signed it).
    BadSignature,
    /// Validly signed and ahead of the adopted head, but no valid
    /// consistency proof was supplied: recorded for split-view detection,
    /// *not* adopted and *not* cosigned.
    Unproven,
    /// The source had no head to offer.
    NoHead,
    /// The head verified and would have been adopted, but the durable
    /// state device refused the record-first write: the witness fails
    /// closed — no adoption, no cosignature — rather than endorse a head
    /// a restart would forget.
    StateUnavailable,
    /// Valid signature conflicting with a previously recorded head at the
    /// same size: the log equivocated, and here is the conviction.
    SplitView(Box<ConflictProof<SignedTreeHead>>),
}

#[derive(Debug, Default)]
struct WitnessInner {
    /// The split-view detector: the first validly-signed head per (log,
    /// size), and the convictions (one per log + size, in detection
    /// order).
    heads: FirstSeen<SignedTreeHead>,
    /// Highest consistency-verified head per log.
    latest: BTreeMap<NodeId, SignedTreeHead>,
    /// This witness's endorsement per adopted (log, size).
    cosigs: BTreeMap<(NodeId, u64), Cosignature>,
    /// The first head ever adopted per log — the durable TOFU anchor.
    anchors: BTreeMap<NodeId, SignedTreeHead>,
    /// Largest size ever cosigned per log (the durable high-water mark).
    cosign_high: BTreeMap<NodeId, u64>,
    /// Where restart-critical state persists; `None` runs volatile.
    cell: Option<DurableCell<WitnessState>>,
}

/// The restart-critical snapshot of the witness's current state (§3.13).
fn durable_snapshot(inner: &WitnessInner) -> WitnessState {
    let mut logs = BTreeMap::new();
    for (log, latest) in &inner.latest {
        let anchor = inner
            .anchors
            .get(log)
            .cloned()
            .unwrap_or_else(|| latest.clone());
        let high = inner
            .cosign_high
            .get(log)
            .copied()
            .unwrap_or(latest.size)
            .max(latest.size);
        logs.insert(
            log.clone(),
            LogWitnessRecord {
                anchor,
                latest: latest.clone(),
                cosign_high_water: high,
            },
        );
    }
    WitnessState {
        logs,
        proofs: inner.heads.proofs().to_vec(),
    }
}

/// One member of the witness set.
///
/// A witness never trusts a gossiped or polled head until the log's
/// signature verifies, and never *endorses* (cosigns) one until it has also
/// verified RFC 6962 consistency from the last head it endorsed — but it
/// remembers every *validly-signed* head it ever saw, because two of them
/// at the same size with different roots are a [`ConflictProof`] no matter
/// which one "wins" adoption.
#[derive(Debug)]
pub struct Witness {
    id: usize,
    key: RsaPrivateKey,
    loggers: Keyring<NodeId>,
    rejected: AtomicU64,
    unproven: AtomicU64,
    state_persist_failures: AtomicU64,
    inner: Mutex<WitnessInner>,
}

impl Witness {
    /// Creates witness `id` signing with `key` and trusting the logger
    /// keys in `loggers`.
    pub fn new(id: usize, key: RsaPrivateKey, loggers: Keyring<NodeId>) -> Self {
        Witness {
            id,
            key,
            loggers,
            rejected: AtomicU64::new(0),
            unproven: AtomicU64::new(0),
            state_persist_failures: AtomicU64::new(0),
            inner: Mutex::new(WitnessInner::default()),
        }
    }

    /// Binds the witness to a storage device (§3.13): any previously
    /// persisted state under `name` is resumed — TOFU anchors, latest
    /// consistency-verified heads, cosign high-water marks, and
    /// convictions all come back, the restored tips are re-endorsed
    /// (PKCS#1 v1.5 signing is deterministic, so the re-minted
    /// cosignature is byte-identical to the pre-crash one), and the
    /// split-view detector is re-armed with the restored heads — and
    /// every future adoption persists *before* the cosignature becomes
    /// visible (record first, speak second).
    ///
    /// A restarted witness bound to its old state therefore never
    /// re-anchors: the restored `latest` keeps the trust-on-first-use
    /// branch from ever firing again for a known log.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Io`] when the device refuses the read or the
    /// initial persist, and [`LogError::Malformed`] when the state file is
    /// corrupt, its heads fail signature verification under the trusted
    /// keyring, or a restored conviction does not verify — the witness
    /// fails closed rather than resume from garbage.
    pub fn bind_storage(
        &self,
        storage: Arc<dyn Storage>,
        name: impl Into<String>,
    ) -> Result<WitnessState, LogError> {
        let cell = DurableCell::<WitnessState>::new(storage, name);
        let resumed = cell.load()?;
        let mut inner = self.inner.lock();
        if let Some(state) = resumed {
            for (log, record) in &state.logs {
                // The state device is not a signature authority: restored
                // heads must still verify under the trusted keyring.
                if !self.loggers.verify(&record.anchor) || !self.loggers.verify(&record.latest) {
                    return Err(LogError::Malformed("witness state (head signature)"));
                }
                let keep =
                    |cur: Option<&SignedTreeHead>| cur.is_none_or(|c| record.latest.size > c.size);
                inner
                    .anchors
                    .entry(log.clone())
                    .or_insert_with(|| record.anchor.clone());
                if keep(inner.latest.get(log)) {
                    inner.latest.insert(log.clone(), record.latest.clone());
                }
                let high = inner.cosign_high.entry(log.clone()).or_insert(0);
                *high = (*high)
                    .max(record.cosign_high_water)
                    .max(record.latest.size);
                inner.heads.observe(record.anchor.clone());
                inner.heads.observe(record.latest.clone());
                if let Ok(cosig) = Cosignature::sign(
                    self.id,
                    &self.key,
                    log.clone(),
                    record.latest.size,
                    record.latest.root,
                ) {
                    inner
                        .cosigs
                        .insert((log.clone(), record.latest.size), cosig);
                }
            }
            for proof in state.proofs {
                if !proof.verify(&self.loggers) {
                    return Err(LogError::Malformed("witness state (conviction)"));
                }
                let first = proof.first.clone();
                if inner.heads.admit(proof) {
                    inner.heads.observe(first);
                }
            }
        }
        let snapshot = durable_snapshot(&inner);
        cell.store(&snapshot)?;
        inner.cell = Some(cell);
        Ok(snapshot)
    }

    /// The restart-critical state currently in force.
    pub fn state(&self) -> WitnessState {
        durable_snapshot(&self.inner.lock())
    }

    /// The durable TOFU anchor for `log`, if one was ever adopted.
    pub fn anchor(&self, log: &NodeId) -> Option<SignedTreeHead> {
        self.inner.lock().anchors.get(log).cloned()
    }

    /// The largest tree size this witness ever cosigned for `log`.
    pub fn cosign_high_water(&self, log: &NodeId) -> u64 {
        self.inner.lock().cosign_high.get(log).copied().unwrap_or(0)
    }

    /// Adoptions refused because the state device would not record them.
    pub fn state_persist_failures(&self) -> u64 {
        self.state_persist_failures.load(Ordering::Relaxed)
    }

    /// This witness's index in the set.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Records one head: verifies its signature, checks it against every
    /// prior validly-signed head at the same (log, size), verifies the
    /// consistency proof when the head advances the log, and cosigns on
    /// adoption. This is the *only* way a head enters a witness's state —
    /// gossip frames and poll results both funnel through it after
    /// decoding.
    pub fn adopt_head(
        &self,
        sth: SignedTreeHead,
        consistency: Option<&ConsistencyProof>,
    ) -> SthObservation {
        if !self.loggers.verify(&sth) {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return SthObservation::BadSignature;
        }
        let mut inner = self.inner.lock();
        match inner.heads.observe(sth.clone()) {
            Sighting::New => {}
            Sighting::Duplicate => return SthObservation::Duplicate,
            Sighting::Conflict(proof) => {
                if inner.heads.admit(proof.clone()) {
                    self.persist_conviction(&inner);
                }
                return SthObservation::SplitView(Box::new(proof));
            }
        }
        let verdict = match inner.latest.get(&sth.log) {
            // Trust-on-first-use: the first verified head anchors the
            // consistency chain (there is no history to check it against).
            None => SthObservation::Adopted,
            Some(cur) if sth.size < cur.size => SthObservation::Stale,
            // Equal size with an unseen root was handled above as a split
            // view; equal size can only reach here as a fresh duplicate.
            Some(cur) if sth.size == cur.size => SthObservation::Duplicate,
            Some(cur) => match consistency {
                Some(proof) if MerkleTree::verify_consistency(&cur.root, &sth.root, proof) => {
                    SthObservation::Adopted
                }
                _ => SthObservation::Unproven,
            },
        };
        match verdict {
            SthObservation::Adopted => {
                // Belt-and-suspenders alongside the restored `latest`: the
                // durable high-water mark is a floor no endorsement may
                // dip under, even if the maps ever disagree.
                let high = inner.cosign_high.get(&sth.log).copied().unwrap_or(0);
                if sth.size < high {
                    self.unproven.fetch_add(1, Ordering::Relaxed);
                    return SthObservation::Stale;
                }
                match Cosignature::sign(self.id, &self.key, sth.log.clone(), sth.size, sth.root) {
                    Ok(cosig) => {
                        // Record first, speak second: the adoption (new
                        // latest, anchor, high-water mark) must be durable
                        // before the cosignature becomes visible. A device
                        // refusal fails closed — no adoption, no
                        // endorsement — though the head stays in the
                        // detector, where remembering more only arms it.
                        if let Some(cell) = &inner.cell {
                            let mut state = durable_snapshot(&inner);
                            let anchor = inner
                                .anchors
                                .get(&sth.log)
                                .cloned()
                                .unwrap_or_else(|| sth.clone());
                            state.logs.insert(
                                sth.log.clone(),
                                LogWitnessRecord {
                                    anchor,
                                    latest: sth.clone(),
                                    cosign_high_water: high.max(sth.size),
                                },
                            );
                            if cell.store(&state).is_err() {
                                self.state_persist_failures.fetch_add(1, Ordering::Relaxed);
                                return SthObservation::StateUnavailable;
                            }
                        }
                        inner
                            .anchors
                            .entry(sth.log.clone())
                            .or_insert_with(|| sth.clone());
                        inner
                            .cosign_high
                            .insert(sth.log.clone(), high.max(sth.size));
                        inner.cosigs.insert((sth.log.clone(), sth.size), cosig);
                        inner.latest.insert(sth.log.clone(), sth);
                        SthObservation::Adopted
                    }
                    Err(_) => {
                        // A witness that cannot endorse does not adopt: its
                        // "latest" is always a head it actually vouched for.
                        self.unproven.fetch_add(1, Ordering::Relaxed);
                        SthObservation::Unproven
                    }
                }
            }
            SthObservation::Unproven => {
                self.unproven.fetch_add(1, Ordering::Relaxed);
                SthObservation::Unproven
            }
            other => other,
        }
    }

    /// Polls a source for its latest head, fetching the consistency proof
    /// this witness needs to advance, and adopts the result.
    pub fn poll(&self, source: &dyn TreeHeadSource) -> SthObservation {
        let Some(sth) = source.latest() else {
            return SthObservation::NoHead;
        };
        let consistency = {
            let inner = self.inner.lock();
            match inner.latest.get(&sth.log) {
                Some(cur) if sth.size > cur.size => source.consistency(cur.size, sth.size),
                _ => None,
            }
        };
        self.adopt_head(sth, consistency.as_ref())
    }

    /// The latest consistency-verified head this witness holds for `log`.
    pub fn latest_head(&self, log: &NodeId) -> Option<SignedTreeHead> {
        self.inner.lock().latest.get(log).cloned()
    }

    /// Every log this witness currently tracks, with its adopted head.
    pub fn latest_heads(&self) -> Vec<SignedTreeHead> {
        self.inner.lock().latest.values().cloned().collect()
    }

    /// This witness's endorsement of (log, size), if it adopted that head.
    pub fn cosignature(&self, log: &NodeId, size: u64) -> Option<Cosignature> {
        self.inner.lock().cosigs.get(&(log.clone(), size)).cloned()
    }

    /// Every conviction this witness assembled (at most one per log+size).
    pub fn proofs(&self) -> Vec<ConflictProof<SignedTreeHead>> {
        self.inner.lock().heads.proofs().to_vec()
    }

    /// Adopts a transferable conviction assembled elsewhere — the gossip
    /// ingest for re-broadcast split-view proofs. The proof is re-verified
    /// under this witness's logger keyring before anything is stored:
    /// `None` means rejected (counted), `Some(false)` a duplicate, and
    /// `Some(true)` a newly-learned conviction (persisted best-effort,
    /// like the locally-assembled kind).
    pub fn adopt_proof(&self, proof: ConflictProof<SignedTreeHead>) -> Option<bool> {
        if !proof.verify(&self.loggers) {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let mut inner = self.inner.lock();
        let new = inner.heads.admit(proof);
        if new {
            self.persist_conviction(&inner);
        }
        Some(new)
    }

    /// Persists a newly-recorded conviction best-effort: the proof still
    /// reaches the caller and the gossip layer when the device refuses
    /// (counted, never fatal) — unlike a cosignature, a conviction is the
    /// *log's* own signatures, not a statement this witness could later
    /// contradict.
    fn persist_conviction(&self, inner: &WitnessInner) {
        if let Some(cell) = &inner.cell {
            if cell.store(&durable_snapshot(inner)).is_err() {
                self.state_persist_failures.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Heads discarded for a bad signature.
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Validly-signed heads refused adoption for lack of a consistency
    /// proof.
    pub fn unproven(&self) -> u64 {
        self.unproven.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adlp_crypto::RsaKeyPair;
    use adlp_logger::sth::TreeHeadSigner;
    use adlp_logger::LogStore;
    use rand::SeedableRng;

    fn keypair(seed: u64) -> RsaKeyPair {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        RsaKeyPair::generate(512, &mut rng)
    }

    fn private(kp: &RsaKeyPair) -> RsaPrivateKey {
        RsaPrivateKey::from_bytes(&kp.private_key().to_bytes()).unwrap()
    }

    fn publisher(kp: &RsaKeyPair, entries: usize) -> (SthPublisher, LogStore) {
        let store = LogStore::new();
        for i in 0..entries {
            store.append_encoded(vec![i as u8; 16]);
        }
        let publisher = SthPublisher::new(
            TreeHeadSigner::new(NodeId::new("logger"), private(kp)),
            store.clone(),
        );
        (publisher, store)
    }

    fn witness_for(kp: &RsaKeyPair) -> Witness {
        let loggers = Keyring::new().with(NodeId::new("logger"), kp.public_key().clone());
        Witness::new(0, private(&keypair(99)), loggers)
    }

    #[test]
    fn witness_adopts_consistent_growth_and_cosigns() {
        let kp = keypair(1);
        let (publisher, store) = publisher(&kp, 3);
        let w = witness_for(&kp);

        assert_eq!(w.poll(&publisher), SthObservation::Adopted);
        let first = w.latest_head(&NodeId::new("logger")).unwrap();
        assert_eq!(first.size, 3);
        assert!(w.cosignature(&NodeId::new("logger"), 3).is_some());

        // Re-polling an unchanged log re-signs the same (size, root) under
        // a fresh epoch: a duplicate, not a conflict.
        assert_eq!(w.poll(&publisher), SthObservation::Duplicate);

        // Growth: the consistency proof is fetched from the source and
        // verified before adoption.
        for i in 0..2u8 {
            store.append_encoded(vec![0xA0 + i; 16]);
        }
        assert_eq!(w.poll(&publisher), SthObservation::Adopted);
        assert_eq!(w.latest_head(&NodeId::new("logger")).unwrap().size, 5);
        assert!(w.proofs().is_empty());
        assert_eq!(w.rejected(), 0);
    }

    #[test]
    fn witness_refuses_unproven_advance_but_remembers_it() {
        let kp = keypair(2);
        let signer = TreeHeadSigner::new(NodeId::new("logger"), private(&kp));
        let w = witness_for(&kp);

        let first = signer.sign(0, 3, adlp_crypto::sha256(b"a")).unwrap();
        assert_eq!(w.adopt_head(first, None), SthObservation::Adopted);

        // An advance with no consistency proof is recorded, not adopted.
        let advance = signer.sign(1, 5, adlp_crypto::sha256(b"b")).unwrap();
        assert_eq!(
            w.adopt_head(advance.clone(), None),
            SthObservation::Unproven
        );
        assert_eq!(w.latest_head(&NodeId::new("logger")).unwrap().size, 3);
        assert!(w.cosignature(&NodeId::new("logger"), 5).is_none());
        assert_eq!(w.unproven(), 1);

        // …but it still arms the split-view detector at that size.
        let conflicting = signer.sign(2, 5, adlp_crypto::sha256(b"c")).unwrap();
        let obs = w.adopt_head(conflicting, None);
        assert!(matches!(obs, SthObservation::SplitView(_)));
        assert_eq!(w.proofs().len(), 1);
    }

    #[test]
    fn witness_convicts_split_view_and_discards_forgeries() {
        let kp = keypair(3);
        let signer = TreeHeadSigner::new(NodeId::new("logger"), private(&kp));
        let loggers = Keyring::new().with(NodeId::new("logger"), kp.public_key().clone());
        let w = Witness::new(1, private(&keypair(98)), loggers.clone());

        let a = signer.sign(0, 4, adlp_crypto::sha256(b"a")).unwrap();
        let b = signer.sign(1, 4, adlp_crypto::sha256(b"b")).unwrap();
        assert_eq!(w.adopt_head(a.clone(), None), SthObservation::Adopted);
        let obs = w.adopt_head(b, None);
        let SthObservation::SplitView(proof) = obs else {
            panic!("expected a split-view conviction, got {obs:?}");
        };
        assert!(proof.verify(&loggers), "the conviction is transferable");
        assert_eq!(proof.signer(), NodeId::new("logger"));
        assert_eq!(w.proofs(), [*proof]);

        // A forged head (imposter key) is discarded, never recorded.
        let imposter = TreeHeadSigner::new(NodeId::new("logger"), private(&keypair(4)));
        let forged = imposter.sign(9, 6, adlp_crypto::sha256(b"x")).unwrap();
        assert_eq!(w.adopt_head(forged, None), SthObservation::BadSignature);
        assert_eq!(w.rejected(), 1);
        assert_eq!(w.proofs().len(), 1, "forgery must not add convictions");

        // Stale heads are tolerated when consistent with what was seen.
        let old = signer.sign(5, 4, adlp_crypto::sha256(b"a")).unwrap();
        assert_eq!(w.adopt_head(old, None), SthObservation::Duplicate);
    }

    #[test]
    fn bound_witness_fails_closed_when_the_device_refuses() {
        use adlp_logger::storage::{FaultyStorage, MemStorage, Storage, StorageFaultConfig};

        let kp = keypair(5);
        let signer = TreeHeadSigner::new(NodeId::new("logger"), private(&kp));
        let w = witness_for(&kp);
        let storage = Arc::new(MemStorage::new());
        w.bind_storage(storage.clone(), "witness-state").unwrap();

        let first = signer.sign(0, 3, adlp_crypto::sha256(b"a")).unwrap();
        assert_eq!(w.adopt_head(first, None), SthObservation::Adopted);
        assert!(w.cosignature(&NodeId::new("logger"), 3).is_some());

        // Rebind through a device that dies immediately: the next adoption
        // must fail closed — no new latest, no cosignature at the new size.
        let dying = Arc::new(FaultyStorage::new(
            storage.clone(),
            StorageFaultConfig {
                die_after_ops: Some(0),
                ..StorageFaultConfig::none(1)
            },
        ));
        let w2 = witness_for(&kp);
        assert!(
            w2.bind_storage(dying.clone() as Arc<dyn Storage>, "w2")
                .is_err(),
            "a dead device must refuse the bind itself"
        );

        // A witness bound to a device that dies *after* the bind refuses
        // later adoptions with StateUnavailable.
        let dying_later = Arc::new(FaultyStorage::new(
            Arc::new(MemStorage::new()),
            StorageFaultConfig {
                die_after_ops: Some(2),
                ..StorageFaultConfig::none(2)
            },
        ));
        let w3 = witness_for(&kp);
        w3.bind_storage(dying_later as Arc<dyn Storage>, "w3")
            .unwrap();
        let head = signer.sign(0, 3, adlp_crypto::sha256(b"a")).unwrap();
        assert_eq!(w3.adopt_head(head, None), SthObservation::StateUnavailable);
        assert_eq!(w3.state_persist_failures(), 1);
        assert!(
            w3.latest_head(&NodeId::new("logger")).is_none(),
            "no adoption without a durable record"
        );
        assert!(w3.cosignature(&NodeId::new("logger"), 3).is_none());
    }

    #[test]
    fn restarted_witness_keeps_anchor_and_high_water() {
        use adlp_logger::storage::MemStorage;

        let kp = keypair(6);
        let signer = TreeHeadSigner::new(NodeId::new("logger"), private(&kp));
        let log = NodeId::new("logger");
        let storage = Arc::new(MemStorage::new());

        let w = witness_for(&kp);
        w.bind_storage(storage.clone(), "witness-state").unwrap();
        let anchor = signer.sign(0, 3, adlp_crypto::sha256(b"a")).unwrap();
        assert_eq!(w.adopt_head(anchor.clone(), None), SthObservation::Adopted);
        let cosig_before = w.cosignature(&log, 3).unwrap();

        // Power cut: only synced state survives; write_replace synced it.
        storage.crash();

        let w2 = witness_for(&kp);
        let resumed = w2.bind_storage(storage, "witness-state").unwrap();
        assert_eq!(resumed.logs.get(&log).unwrap().anchor, anchor);
        assert_eq!(w2.anchor(&log).unwrap(), anchor);
        assert_eq!(w2.cosign_high_water(&log), 3);
        // Deterministic signing: the re-minted endorsement is the same
        // statement as the pre-crash one.
        assert_eq!(w2.cosignature(&log, 3).unwrap(), cosig_before);

        // The TOFU branch must never fire again: a *different* root at a
        // larger size without consistency is refused, and a conflicting
        // head at the anchored size is a conviction, not a new anchor.
        let unproven = signer.sign(1, 5, adlp_crypto::sha256(b"b")).unwrap();
        assert_eq!(w2.adopt_head(unproven, None), SthObservation::Unproven);
        assert_eq!(w2.latest_head(&log).unwrap().size, 3);
        let conflicting = signer.sign(2, 3, adlp_crypto::sha256(b"x")).unwrap();
        assert!(matches!(
            w2.adopt_head(conflicting, None),
            SthObservation::SplitView(_)
        ));
    }
}
