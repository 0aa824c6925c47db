//! Byzantine-fault-tolerant head attestation.
//!
//! The crash-quorum cluster (§3.8) counts an entry acknowledged once W
//! replicas *accepted* it — a replica's word is trusted. A malicious
//! replica can therefore equivocate inside its shard: ack one log toward
//! the quorum while showing another to clients, and nothing catches it
//! until an offline audit compares stores. BFT mode removes that trust:
//! every acknowledgement is a **signed head attestation** — the replica
//! signs the head of its log, `(length, Merkle root)` read from
//! [`adlp_logger::LogStore::tree_head`] at one instant — and an entry is
//! acked only once `2f+1` of `3f+1` replicas produced *matching* signed
//! heads (Wanner et al., "A Formally Verified Protocol for Log Replication
//! with Byzantine Fault Tolerance"; split-view detection after Meiklejohn
//! et al., "Think Global, Act Local").
//!
//! The payoff is that misbehavior becomes *self-incriminating*: two valid
//! signatures by one replica over conflicting heads at the same scope form
//! an [`EquivocationProof`] — a self-contained, transferable object anyone
//! holding the replica's public key can verify. No honest majority, no
//! trusted observer, no cluster state is needed to check it; the replica's
//! own key convicts it.
//!
//! An attestation is therefore a replica-signed tree head with a scope: its
//! root is the same RFC 6962 root signed tree heads, inclusion proofs and
//! light clients use, so an honest attestation at `Head { length }` equals
//! the replica's `root_at(length)`, and an empty log attests to
//! [`crate::empty_shard_root`].
//!
//! Scopes cover the two places a replica speaks about its history: per
//! deposit ([`AttestationScope::Head`], the root at a length) and per
//! epoch seal ([`AttestationScope::Epoch`], the root it countersigned into
//! an epoch). The [`AttestationLog`] is the split-view detector: it
//! remembers the first validly-signed head seen per (replica, scope) and
//! turns any later conflicting signature into a proof.
//!
//! Two refinements keep the detector *sound* (it convicts only liars):
//!
//! * every attestation carries a signed **incarnation** counter, bumped by
//!   the cluster when it rolls a replica's log back (catch-up backing out a
//!   racy adoption). Heads signed across a sanctioned rollback live in
//!   different incarnations and never conflict — an honest replica that
//!   re-reaches the same length with different (correct) content after a
//!   rollback is not an equivocator. The ledger is the incarnation
//!   authority: a replica claiming an incarnation the cluster never granted
//!   it is rejected ([`Observation::BadIncarnation`]), so a Byzantine
//!   replica cannot dodge conviction by bumping its own counter;
//! * window pruning advances only on **quorum-corroborated** progress: the
//!   horizon derives from the highest head length at least `attest_quorum`
//!   replicas of the shard have validly signed, never from the length a
//!   single attestation claims — one replica inflating its self-reported
//!   length cannot flush its own prior statements out of the detector.

use adlp_crypto::pkcs1;
use adlp_crypto::rsa::RsaPrivateKey;
use adlp_crypto::sha256::{Digest, Sha256};
use adlp_crypto::{Signature, Statement};
use adlp_logger::encoding::Wire;
use adlp_logger::frame::DurableCell;
use adlp_logger::{Keyring, LogError, Storage};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Byzantine fault budget of a shard.
///
/// With `f` tolerated Byzantine replicas a shard needs `3f + 1` replicas,
/// and an acknowledgement needs `2f + 1` matching signed heads — the
/// classic BFT quorum arithmetic: any two ack quorums intersect in at
/// least `f + 1` replicas, at least one of which is honest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BftConfig {
    /// Byzantine replicas tolerated per shard.
    pub f: usize,
    /// RSA modulus width of the per-replica attestation keys (512 is
    /// test/bench grade; deployments use ≥1024 like the component keys).
    pub key_bits: usize,
    /// Seed for deterministic attestation-key generation (keeps chaos
    /// runs replayable; a deployment would load real keys instead).
    pub seed: u64,
    /// How many recent head scopes the split-view detector retains per
    /// replica (older ones are pruned; equivocation about pruned history
    /// is still caught by the epoch scope and the store comparison).
    pub window: usize,
}

impl BftConfig {
    /// A budget of `f` Byzantine replicas per shard (`f ≥ 1`).
    pub fn new(f: usize) -> Self {
        BftConfig {
            f: f.max(1),
            key_bits: 512,
            seed: 0x0b_f7,
            window: 1024,
        }
    }

    /// Sets the attestation key width.
    pub fn with_key_bits(mut self, bits: usize) -> Self {
        self.key_bits = bits;
        self
    }

    /// Sets the attestation-key generation seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replicas a shard must have: `3f + 1`.
    pub fn replicas_required(&self) -> usize {
        3 * self.f + 1
    }

    /// Matching signed heads an acknowledgement needs: `2f + 1`.
    pub fn attest_quorum(&self) -> usize {
        2 * self.f + 1
    }
}

/// What a replica is speaking about when it signs a head.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AttestationScope {
    /// The log's Merkle root over its first `length` records — one per
    /// acknowledged deposit.
    Head {
        /// Number of records the attested head commits to.
        length: u64,
    },
    /// The root the replica countersigned into epoch `epoch`'s seal.
    Epoch {
        /// Epoch number of the seal being countersigned.
        epoch: u64,
    },
}

impl AttestationScope {
    fn tag(&self) -> u8 {
        match self {
            AttestationScope::Head { .. } => 1,
            AttestationScope::Epoch { .. } => 2,
        }
    }

    fn value(&self) -> u64 {
        match self {
            AttestationScope::Head { length } => *length,
            AttestationScope::Epoch { epoch } => *epoch,
        }
    }
}

/// The tag byte (1 = head, 2 = epoch) and the varint it qualifies.
impl Wire for AttestationScope {
    const INLINE: bool = true;

    fn put(&self, out: &mut Vec<u8>) {
        self.tag().put(out);
        self.value().put(out);
    }

    fn decode_from(src: &mut &[u8]) -> Result<Self, LogError> {
        match (u8::decode_from(src)?, u64::decode_from(src)?) {
            (1, length) => Ok(AttestationScope::Head { length }),
            (2, epoch) => Ok(AttestationScope::Epoch { epoch }),
            _ => Err(LogError::Malformed("attestation (scope)")),
        }
    }
}

impl std::fmt::Display for AttestationScope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttestationScope::Head { length } => write!(f, "head@{length}"),
            AttestationScope::Epoch { epoch } => write!(f, "epoch#{epoch}"),
        }
    }
}

/// A replica's signed statement: "my log at `scope` has Merkle root
/// `root`".
///
/// The signature is PKCS#1 v1.5 over
/// `h("adlp-cluster/attested-root" ‖ shard ‖ replica ‖ incarnation ‖ scope
/// ‖ root)`, so an attestation binds the speaking replica's identity, its
/// rollback incarnation, what it speaks about, and the commitment — nothing
/// can be transplanted between replicas, incarnations, or scopes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeadAttestation {
    /// Shard of the attesting replica.
    pub shard: usize,
    /// Replica index within the shard.
    pub replica: usize,
    /// The replica's rollback incarnation when it signed (see the module
    /// docs): statements from different incarnations never conflict, and a
    /// claimed incarnation the cluster never granted is rejected.
    pub incarnation: u64,
    /// What the root covers.
    pub scope: AttestationScope,
    /// The attested Merkle root.
    pub root: Digest,
    /// The replica's signature over the attestation digest.
    pub signature: Signature,
}

fn attestation_digest(
    shard: usize,
    replica: usize,
    incarnation: u64,
    scope: &AttestationScope,
    root: &Digest,
) -> Digest {
    let mut h = Sha256::new();
    // Not the old hash-chain tag: a chain-head statement never verifies here.
    h.update(b"adlp-cluster/attested-root");
    h.update(&(shard as u64).to_le_bytes());
    h.update(&(replica as u64).to_le_bytes());
    h.update(&incarnation.to_le_bytes());
    h.update(&[scope.tag()]);
    h.update(&scope.value().to_le_bytes());
    h.update(root.as_bytes());
    h.finalize()
}

impl HeadAttestation {
    /// Whether two attestations by the same replica, in the same
    /// incarnation, over the same scope commit to different roots — the
    /// equivocation condition. Statements separated by a sanctioned
    /// rollback (different incarnations) never conflict.
    pub fn conflicts_with(&self, other: &HeadAttestation) -> bool {
        self.shard == other.shard
            && self.replica == other.replica
            && self.incarnation == other.incarnation
            && self.scope == other.scope
            && self.root != other.root
    }
}

/// Signed by the attesting replica, under its `(shard, replica)` key.
impl Statement for HeadAttestation {
    type Signer = (usize, usize);

    fn signer(&self) -> (usize, usize) {
        (self.shard, self.replica)
    }

    fn signature(&self) -> &Signature {
        &self.signature
    }

    fn signed_digest(&self) -> Option<Digest> {
        Some(attestation_digest(
            self.shard,
            self.replica,
            self.incarnation,
            &self.scope,
            &self.root,
        ))
    }
}

/// Transferable evidence.
impl Wire for HeadAttestation {
    fn put(&self, out: &mut Vec<u8>) {
        self.shard.put_field(out);
        self.replica.put_field(out);
        self.incarnation.put_field(out);
        self.scope.put_field(out);
        self.root.put_field(out);
        self.signature.put_field(out);
    }

    fn decode_from(src: &mut &[u8]) -> Result<Self, LogError> {
        Ok(HeadAttestation {
            shard: Wire::decode_field(src)?,
            replica: Wire::decode_field(src)?,
            incarnation: Wire::decode_field(src)?,
            scope: Wire::decode_field(src)?,
            root: Wire::decode_field(src)?,
            signature: Wire::decode_field(src)?,
        })
    }
}

/// Magic of a persisted [`AttestorState`] file (a sealed blob,
/// `adlp_logger::frame`). Version 2: the signed value is a Merkle root;
/// a version-1 cell (a hash-chain head) fails closed.
pub const ATTESTOR_STATE_MAGIC: &[u8; 8] = b"ADLPATT2";

/// The slice of an attestor's state that must survive a restart for the
/// replica to keep speaking safely (§3.11): its signing incarnation and the
/// highest head it ever signed. A replica that loses this and comes back at
/// incarnation 0 with an empty log would re-sign small lengths against its
/// own durable past and convict itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttestorState {
    /// The rollback incarnation stamped into signatures.
    pub incarnation: u64,
    /// The highest [`AttestationScope::Head`] length ever signed.
    pub signed_len: u64,
    /// The root signed at `signed_len` (`None` before the first signature).
    pub signed_root: Option<Digest>,
}

/// What [`ReplicaAttestor`] keeps in its durable cell.
impl Wire for AttestorState {
    const MAGIC: Option<&'static [u8; 8]> = Some(ATTESTOR_STATE_MAGIC);

    fn put(&self, out: &mut Vec<u8>) {
        self.incarnation.put_field(out);
        self.signed_len.put_field(out);
        self.signed_root.put_field(out);
    }

    fn decode_from(src: &mut &[u8]) -> Result<Self, LogError> {
        Ok(AttestorState {
            incarnation: Wire::decode_field(src)?,
            signed_len: Wire::decode_field(src)?,
            signed_root: Wire::decode_field(src)?,
        })
    }
}

/// The mutable, restart-critical half of an attestor, kept under one lock
/// so every persisted snapshot is internally consistent.
#[derive(Debug)]
struct AttestorDurable {
    signed_len: u64,
    signed_root: Option<Digest>,
    /// Where the state persists; `None` runs volatile.
    cell: Option<DurableCell<AttestorState>>,
}

/// The signing half of one replica's attestation identity. Survives
/// restarts (a replica keeps its identity across its fail-stop lifecycle),
/// and — once bound to a storage device via
/// [`ReplicaAttestor::bind_storage`] — persists its incarnation and
/// last-signed root through the same write-replace discipline as snapshots
/// (§3.9), so even a replica whose *log* is volatile resumes from its
/// durable attestation state instead of re-signing history it no longer
/// holds.
#[derive(Debug)]
pub struct ReplicaAttestor {
    shard: usize,
    replica: usize,
    key: RsaPrivateKey,
    /// Current rollback incarnation, stamped into every signature. The
    /// cluster advances it (via [`ReplicaAttestor::set_incarnation`]) when
    /// it rolls this replica's log back; the attestor itself never bumps it.
    incarnation: AtomicU64,
    durable: Mutex<AttestorDurable>,
}

impl ReplicaAttestor {
    /// Creates an attestor for (shard, replica) holding `key`, starting at
    /// incarnation 0 with no storage binding.
    pub fn new(shard: usize, replica: usize, key: RsaPrivateKey) -> Self {
        ReplicaAttestor {
            shard,
            replica,
            key,
            incarnation: AtomicU64::new(0),
            durable: Mutex::new(AttestorDurable {
                signed_len: 0,
                signed_root: None,
                cell: None,
            }),
        }
    }

    /// Binds the attestor to a storage device: any previously persisted
    /// state under `name` is resumed (the persisted incarnation and signed
    /// length are adopted if ahead of the in-memory ones), and every future
    /// head signature or incarnation grant is persisted before it takes
    /// effect. Returns the state in force after the merge.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Io`] when the device refuses the read or the
    /// initial persist, and [`LogError::Malformed`] for a state file that
    /// is present but does not unseal and decode exactly (fail closed: a
    /// flipped bit must not resume the replica at another incarnation).
    pub fn bind_storage(
        &self,
        storage: Arc<dyn Storage>,
        name: impl Into<String>,
    ) -> Result<AttestorState, LogError> {
        let cell = DurableCell::<AttestorState>::new(storage, name);
        let resumed = cell.load()?;
        let merged = {
            let mut durable = self.durable.lock();
            if let Some(state) = resumed {
                if state.incarnation > self.incarnation.load(Ordering::SeqCst) {
                    self.incarnation.store(state.incarnation, Ordering::SeqCst);
                }
                if state.signed_len > durable.signed_len
                    || (durable.signed_root.is_none() && state.signed_root.is_some())
                {
                    durable.signed_len = durable.signed_len.max(state.signed_len);
                    durable.signed_root = state.signed_root;
                }
            }
            durable.cell = Some(cell);
            self.state_under(&durable)
        };
        self.persist()?;
        Ok(merged)
    }

    /// The restart-critical state currently in force.
    pub fn state(&self) -> AttestorState {
        self.state_under(&self.durable.lock())
    }

    fn state_under(&self, durable: &AttestorDurable) -> AttestorState {
        AttestorState {
            incarnation: self.incarnation.load(Ordering::SeqCst),
            signed_len: durable.signed_len,
            signed_root: durable.signed_root,
        }
    }

    /// Writes the current state through the cell, if any. Called with no
    /// locks held; snapshots the state and cell under the lock, then
    /// performs the device write outside it.
    fn persist(&self) -> Result<(), LogError> {
        let (cell, state) = {
            let durable = self.durable.lock();
            (durable.cell.clone(), self.state_under(&durable))
        };
        match cell {
            None => Ok(()),
            Some(cell) => cell.store(&state),
        }
    }

    /// Signs a root at a scope.
    ///
    /// This is deliberately *mechanism, not policy*: an honest replica only
    /// ever calls it with its true store root, while the Byzantine sim
    /// driver calls it with whatever lie it wants to tell — the protocol's
    /// claim is that the lie becomes a transferable conviction, not that
    /// lying is impossible.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Malformed`] when signing fails (e.g. an
    /// undersized key) and [`LogError::Io`] when the attestor is bound to a
    /// storage device that refuses to record the statement — record first,
    /// speak second: a head signature is only released once the durable
    /// state covering it is on the device, so no restart can leave the
    /// replica ignorant of what it already swore to.
    pub fn attest(&self, scope: AttestationScope, root: Digest) -> Result<HeadAttestation, LogError> {
        let incarnation = self.incarnation.load(Ordering::SeqCst);
        let digest = attestation_digest(self.shard, self.replica, incarnation, &scope, &root);
        let signature = pkcs1::sign_digest(&self.key, &digest)
            .map_err(|_| LogError::Malformed("attestation (signing)"))?;
        if let AttestationScope::Head { length } = scope {
            let advanced = {
                let mut durable = self.durable.lock();
                if length >= durable.signed_len {
                    durable.signed_len = length;
                    durable.signed_root = Some(root);
                    true
                } else {
                    false
                }
            };
            if advanced {
                self.persist()?;
            }
        }
        Ok(HeadAttestation {
            shard: self.shard,
            replica: self.replica,
            incarnation,
            scope,
            root,
            signature,
        })
    }

    /// Shard this attestor speaks for.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Replica index this attestor speaks for.
    pub fn replica(&self) -> usize {
        self.replica
    }

    /// The incarnation currently stamped into signatures.
    pub fn incarnation(&self) -> u64 {
        self.incarnation.load(Ordering::SeqCst)
    }

    /// Advances the signing incarnation. Called by the cluster after it
    /// rolls this replica's log back (paired with
    /// [`AttestationLog::note_rollback`], which grants the new number) —
    /// never by the replica on its own initiative.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Io`] when a bound storage device refuses to
    /// persist the grant; the in-memory incarnation still advances (the
    /// grant is the ledger's, losing it merely costs a re-grant on the
    /// next restart).
    pub fn set_incarnation(&self, incarnation: u64) -> Result<(), LogError> {
        self.incarnation.store(incarnation, Ordering::SeqCst);
        self.persist()
    }
}

/// Two valid signatures, one replica, one scope, two roots: a
/// self-contained, transferable conviction.
///
/// A proof carries everything needed to verify it except the replica's
/// public key; [`EquivocationProof::verify`] rejects pairs that do not
/// actually conflict, carry mismatched identities, or fail either
/// signature — a forged "proof" convicts nobody.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EquivocationProof {
    /// The first-seen attestation.
    pub first: HeadAttestation,
    /// The conflicting attestation.
    pub second: HeadAttestation,
}

impl EquivocationProof {
    /// Shard of the convicted replica.
    pub fn shard(&self) -> usize {
        self.first.shard
    }

    /// Replica index of the convicted replica.
    pub fn replica(&self) -> usize {
        self.first.replica
    }

    /// The scope both attestations speak about.
    pub fn scope(&self) -> AttestationScope {
        self.first.scope
    }

    /// Verifies the proof: both attestations must conflict (same replica,
    /// same scope, different roots) and both signatures must verify under
    /// the replica's key in `keyring`.
    pub fn verify(&self, keyring: &Keyring<(usize, usize)>) -> bool {
        self.first.conflicts_with(&self.second)
            && keyring.verify(&self.first)
            && keyring.verify(&self.second)
    }
}

/// Transferable evidence: both attestations, each in its slot.
impl Wire for EquivocationProof {
    fn put(&self, out: &mut Vec<u8>) {
        self.first.put_field(out);
        self.second.put_field(out);
    }

    fn decode_from(src: &mut &[u8]) -> Result<Self, LogError> {
        Ok(EquivocationProof {
            first: Wire::decode_field(src)?,
            second: Wire::decode_field(src)?,
        })
    }
}

/// What [`AttestationLog::observe`] concluded about one attestation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Observation {
    /// Valid signature, consistent with everything seen so far.
    Consistent,
    /// Valid signature repeating an already-recorded statement.
    Duplicate,
    /// The signature does not verify under the claimed identity's key —
    /// the attestation is discarded (it proves nothing about the replica,
    /// whose key never signed it).
    BadSignature,
    /// Valid signature claiming an incarnation the cluster never granted
    /// the replica — discarded like a bad signature. Only the cluster
    /// advances incarnations (on sanctioned rollbacks), so a replica
    /// cannot launder a contradiction by bumping its own counter.
    BadIncarnation,
    /// Valid signature conflicting with a previously recorded one: the
    /// replica equivocated, and here is the conviction.
    Equivocation(Box<EquivocationProof>),
}

#[derive(Debug, Default)]
struct LedgerInner {
    /// First validly-signed head seen per (shard, replica, incarnation,
    /// scope).
    seen: BTreeMap<(usize, usize, u64, AttestationScope), HeadAttestation>,
    /// Convictions, in detection order (deduplicated per replica+scope).
    proofs: Vec<EquivocationProof>,
    /// Highest incarnation granted per (shard, replica); absent means 0.
    incarnations: BTreeMap<(usize, usize), u64>,
    /// Highest validly-signed head length per (shard, replica) — the input
    /// to the quorum-corroborated pruning horizon.
    max_head: BTreeMap<(usize, usize), u64>,
}

/// The split-view detector: a shared ledger of every validly-signed head
/// each replica has shown *anyone* — the deposit path, the view gatherer,
/// the epoch sealer, or a client presenting gossip. The first conflicting
/// signature becomes an [`EquivocationProof`].
///
/// Cheap to clone (shared state); bounded per replica by the BFT window
/// (old head scopes are pruned as *quorum-corroborated* progress passes
/// them — pruned history is still covered by epoch scopes and by store
/// comparison).
#[derive(Debug, Clone)]
pub struct AttestationLog {
    keyring: Keyring<(usize, usize)>,
    window: usize,
    /// How many replicas of a shard must have signed a length before the
    /// pruning horizon may advance past it (the BFT attest quorum). A
    /// single replica's self-reported length never moves the horizon.
    attest_quorum: usize,
    inner: Arc<Mutex<LedgerInner>>,
}

impl AttestationLog {
    /// Creates an empty ledger verifying against `keyring`, retaining
    /// `window` head scopes per replica behind the highest length that
    /// `attest_quorum` replicas of the shard have validly signed.
    pub fn new(keyring: Keyring<(usize, usize)>, window: usize, attest_quorum: usize) -> Self {
        AttestationLog {
            keyring,
            window: window.max(1),
            attest_quorum: attest_quorum.max(1),
            inner: Arc::new(Mutex::new(LedgerInner::default())),
        }
    }

    /// The keyring attestations are verified against.
    pub fn keyring(&self) -> &Keyring<(usize, usize)> {
        &self.keyring
    }

    /// Records one attestation: verifies its signature, checks its claimed
    /// incarnation was actually granted, checks it against every prior
    /// statement by the same replica in the same incarnation at the same
    /// scope, and returns what was learned. Equivocations are retained
    /// (see [`AttestationLog::proofs`]).
    pub fn observe(&self, att: HeadAttestation) -> Observation {
        if !self.keyring.verify(&att) {
            return Observation::BadSignature;
        }
        let identity = (att.shard, att.replica);
        let mut inner = self.inner.lock();
        let granted = inner.incarnations.get(&identity).copied().unwrap_or(0);
        if att.incarnation > granted {
            return Observation::BadIncarnation;
        }
        let key = (att.shard, att.replica, att.incarnation, att.scope);
        if let Some(prior) = inner.seen.get(&key) {
            if prior.root == att.root {
                return Observation::Duplicate;
            }
            let proof = EquivocationProof {
                first: prior.clone(),
                second: att,
            };
            let already = inner.proofs.iter().any(|p| {
                p.replica() == proof.replica()
                    && p.shard() == proof.shard()
                    && p.scope() == proof.scope()
            });
            if !already {
                inner.proofs.push(proof.clone());
            }
            return Observation::Equivocation(Box::new(proof));
        }
        inner.seen.insert(key, att.clone());
        // Prune old head scopes for this replica, keeping the window — but
        // advance the horizon only on *quorum-corroborated* length: the
        // attest_quorum-th largest validly-signed length across the shard's
        // replicas. One replica signing an inflated Head{huge} cannot flush
        // its own earlier statements out of the detector.
        if let AttestationScope::Head { length } = att.scope {
            let max = inner.max_head.entry(identity).or_insert(0);
            *max = (*max).max(length);
            let mut lengths: Vec<u64> = inner
                .max_head
                .iter()
                .filter(|((s, _), _)| *s == att.shard)
                .map(|(_, l)| *l)
                .collect();
            lengths.sort_unstable_by(|a, b| b.cmp(a));
            let corroborated = lengths
                .get(self.attest_quorum.saturating_sub(1))
                .copied()
                .unwrap_or(0);
            let horizon = corroborated.saturating_sub(self.window as u64);
            inner.seen.retain(|(s, r, _, scope), _| {
                !(*s == att.shard
                    && *r == att.replica
                    && matches!(scope, AttestationScope::Head { length: l } if *l < horizon))
            });
        }
        Observation::Consistent
    }

    /// Grants (shard, replica) its next rollback incarnation and returns
    /// it. The cluster calls this when it sanctions a rollback of the
    /// replica's log (catch-up backing out a racy adoption), then advances
    /// the replica's [`ReplicaAttestor`] to the returned number — heads
    /// signed before and after the rollback stop being comparable, so the
    /// honest post-rollback re-signature at a reused length is not an
    /// equivocation.
    pub fn note_rollback(&self, shard: usize, replica: usize) -> u64 {
        let mut inner = self.inner.lock();
        let granted = inner.incarnations.entry((shard, replica)).or_insert(0);
        *granted += 1;
        *granted
    }

    /// Every conviction recorded so far (at most one per replica+scope).
    pub fn proofs(&self) -> Vec<EquivocationProof> {
        self.inner.lock().proofs.clone()
    }

    /// Whether any conviction names (shard, replica).
    pub fn convicts(&self, shard: usize, replica: usize) -> bool {
        self.inner
            .lock()
            .proofs
            .iter()
            .any(|p| p.shard() == shard && p.replica() == replica)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adlp_crypto::RsaKeyPair;
    use rand::SeedableRng;

    fn keypair(seed: u64) -> RsaKeyPair {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        RsaKeyPair::generate(512, &mut rng)
    }

    /// `RsaPrivateKey` is deliberately not `Clone`; tests that need both
    /// halves round-trip the private key through its encoding.
    fn keypair_private(kp: &RsaKeyPair) -> RsaPrivateKey {
        RsaPrivateKey::from_bytes(&kp.private_key().to_bytes()).unwrap()
    }

    fn head(tag: u8) -> Digest {
        adlp_crypto::sha256(&[tag; 4])
    }

    #[test]
    fn bft_quorum_arithmetic() {
        let b = BftConfig::new(1);
        assert_eq!(b.replicas_required(), 4);
        assert_eq!(b.attest_quorum(), 3);
        let b2 = BftConfig::new(2);
        assert_eq!(b2.replicas_required(), 7);
        assert_eq!(b2.attest_quorum(), 5);
        assert_eq!(BftConfig::new(0).f, 1, "f clamps to ≥1");
    }

    #[test]
    fn attestation_binds_identity_and_scope() {
        let kp = keypair(3);
        let attestor = ReplicaAttestor::new(0, 1, keypair_private(&kp));
        let att = attestor
            .attest(AttestationScope::Head { length: 5 }, head(1))
            .unwrap();
        // Transplanting the signature onto another identity or scope fails.
        let mut moved = att.clone();
        moved.replica = 2;
        assert!(!moved.verify(kp.public_key()));
        let mut rescoped = att.clone();
        rescoped.scope = AttestationScope::Head { length: 6 };
        assert!(!rescoped.verify(kp.public_key()));
        let mut epoch = att.clone();
        epoch.scope = AttestationScope::Epoch { epoch: 5 };
        assert!(
            !epoch.verify(kp.public_key()),
            "head@5 must not replay as epoch#5 (scope tag is signed)"
        );
    }

    fn ring_of(kps: &[(usize, usize, &RsaKeyPair)]) -> Keyring<(usize, usize)> {
        kps.iter()
            .map(|(s, r, kp)| ((*s, *r), kp.public_key().clone()))
            .collect()
    }

    #[test]
    fn equivocation_proof_convicts_and_forgeries_do_not() {
        let kp = keypair(4);
        let other = keypair(5);
        let keyring = ring_of(&[(0, 0, &kp), (0, 1, &other)]);
        let attestor = ReplicaAttestor::new(0, 0, keypair_private(&kp));
        let a = attestor
            .attest(AttestationScope::Head { length: 9 }, head(1))
            .unwrap();
        let b = attestor
            .attest(AttestationScope::Head { length: 9 }, head(2))
            .unwrap();
        let proof = EquivocationProof {
            first: a.clone(),
            second: b.clone(),
        };
        assert!(proof.verify(&keyring));
        let decoded = EquivocationProof::decode(&proof.encode()).unwrap();
        assert!(decoded.verify(&keyring));

        // Same head twice is not a conflict.
        let same = EquivocationProof {
            first: a.clone(),
            second: a.clone(),
        };
        assert!(!same.verify(&keyring));

        // Different scopes do not conflict.
        let c = attestor
            .attest(AttestationScope::Head { length: 10 }, head(2))
            .unwrap();
        assert!(!EquivocationProof { first: a.clone(), second: c }.verify(&keyring));

        // A proof pairing two *different* replicas convicts nobody.
        let other_att = ReplicaAttestor::new(0, 1, keypair_private(&other))
            .attest(AttestationScope::Head { length: 9 }, head(2))
            .unwrap();
        assert!(!EquivocationProof { first: a.clone(), second: other_att }.verify(&keyring));

        // A tampered attestation breaks its signature and the proof.
        let mut forged = b.clone();
        forged.root = head(3);
        assert!(!EquivocationProof { first: a, second: forged }.verify(&keyring));
    }

    #[test]
    fn ledger_detects_split_view_and_rejects_bad_signatures() {
        let kp = keypair(6);
        let keyring = ring_of(&[(0, 0, &kp)]);
        let ledger = AttestationLog::new(keyring, 64, 1);
        let attestor = ReplicaAttestor::new(0, 0, keypair_private(&kp));

        let honest = attestor
            .attest(AttestationScope::Head { length: 3 }, head(1))
            .unwrap();
        assert_eq!(ledger.observe(honest.clone()), Observation::Consistent);
        assert_eq!(ledger.observe(honest.clone()), Observation::Duplicate);
        assert!(ledger.proofs().is_empty());

        // A second, conflicting signature at the same scope convicts.
        let lie = attestor
            .attest(AttestationScope::Head { length: 3 }, head(2))
            .unwrap();
        let obs = ledger.observe(lie);
        assert!(matches!(obs, Observation::Equivocation(_)));
        assert_eq!(ledger.proofs().len(), 1);
        assert!(ledger.convicts(0, 0));
        assert!(ledger.proofs()[0].verify(ledger.keyring()));

        // A forged attestation (wrong key) is discarded, not recorded.
        let imposter = ReplicaAttestor::new(0, 0, keypair(7).into_private_key());
        let forged = imposter
            .attest(AttestationScope::Head { length: 4 }, head(9))
            .unwrap();
        assert_eq!(ledger.observe(forged), Observation::BadSignature);
        assert_eq!(ledger.proofs().len(), 1, "forgery must not add convictions");
    }

    #[test]
    fn ledger_prunes_old_head_scopes_but_keeps_epochs() {
        let kp = keypair(8);
        let keyring = ring_of(&[(0, 0, &kp)]);
        let ledger = AttestationLog::new(keyring, 4, 1);
        let attestor = ReplicaAttestor::new(0, 0, keypair_private(&kp));
        let epoch = attestor
            .attest(AttestationScope::Epoch { epoch: 1 }, head(1))
            .unwrap();
        assert_eq!(ledger.observe(epoch), Observation::Consistent);
        for length in 1..=20u64 {
            let att = attestor
                .attest(AttestationScope::Head { length }, head(length as u8))
                .unwrap();
            assert_eq!(ledger.observe(att), Observation::Consistent);
        }
        // Head@1 fell out of the window: re-attesting it differently is no
        // longer caught here (store comparison still covers it) …
        let stale_lie = attestor
            .attest(AttestationScope::Head { length: 1 }, head(99))
            .unwrap();
        assert_eq!(ledger.observe(stale_lie), Observation::Consistent);
        // … but the epoch scope is never pruned.
        let epoch_lie = attestor
            .attest(AttestationScope::Epoch { epoch: 1 }, head(98))
            .unwrap();
        assert!(matches!(ledger.observe(epoch_lie), Observation::Equivocation(_)));
    }

    #[test]
    fn inflated_self_reported_length_cannot_flush_prior_statements() {
        // Two replicas, attest quorum 2: the pruning horizon only advances
        // on lengths both have signed. Replica 0 signs Head{3}, then an
        // inflated Head{1_000_000} — under the old claimed-length horizon
        // that single statement would have flushed Head{3} from the seen
        // map, letting it re-sign a conflicting head at 3 undetected.
        let kp = keypair(10);
        let peer = keypair(11);
        let keyring = ring_of(&[(0, 0, &kp), (0, 1, &peer)]);
        let ledger = AttestationLog::new(keyring, 4, 2);
        let attestor = ReplicaAttestor::new(0, 0, keypair_private(&kp));
        let honest_peer = ReplicaAttestor::new(0, 1, keypair_private(&peer));

        let first = attestor
            .attest(AttestationScope::Head { length: 3 }, head(1))
            .unwrap();
        assert_eq!(ledger.observe(first), Observation::Consistent);
        let peer_att = honest_peer
            .attest(AttestationScope::Head { length: 3 }, head(1))
            .unwrap();
        assert_eq!(ledger.observe(peer_att), Observation::Consistent);

        // The inflated claim verifies (it is the replica's own signature)
        // but corroborates nothing: the quorum-corroborated length stays 3.
        let inflated = attestor
            .attest(AttestationScope::Head { length: 1_000_000 }, head(50))
            .unwrap();
        assert_eq!(ledger.observe(inflated), Observation::Consistent);

        // Head{3} is still on record: the conflicting re-signature convicts.
        let lie = attestor
            .attest(AttestationScope::Head { length: 3 }, head(2))
            .unwrap();
        assert!(matches!(ledger.observe(lie), Observation::Equivocation(_)));
        assert!(ledger.convicts(0, 0));
    }

    #[test]
    fn attestor_state_roundtrips_and_resumes_across_process_loss() {
        use adlp_logger::MemStorage;

        let device: Arc<dyn Storage> = Arc::new(MemStorage::new());
        let kp = keypair(20);

        // First life: bind, sign heads, receive an incarnation grant.
        let attestor = ReplicaAttestor::new(0, 1, keypair_private(&kp));
        assert_eq!(
            attestor.bind_storage(Arc::clone(&device), "attestor").unwrap(),
            AttestorState { incarnation: 0, signed_len: 0, signed_root: None }
        );
        attestor
            .attest(AttestationScope::Head { length: 7 }, head(7))
            .unwrap();
        // A smaller length never regresses the durable high-water mark.
        attestor
            .attest(AttestationScope::Head { length: 3 }, head(3))
            .unwrap();
        attestor.set_incarnation(2).unwrap();
        drop(attestor);

        // Second life (fresh process): the same device resumes the state —
        // the incarnation and last-signed head survived.
        let reborn = ReplicaAttestor::new(0, 1, keypair_private(&kp));
        let resumed = reborn.bind_storage(Arc::clone(&device), "attestor").unwrap();
        assert_eq!(
            resumed,
            AttestorState { incarnation: 2, signed_len: 7, signed_root: Some(head(7)) }
        );
        assert_eq!(reborn.incarnation(), 2);
        assert_eq!(reborn.state(), resumed);

        // Epoch scopes are not head progress: they must not disturb it.
        reborn
            .attest(AttestationScope::Epoch { epoch: 9 }, head(9))
            .unwrap();
        assert_eq!(reborn.state().signed_len, 7);

        // The cell's bytes also round-trip standalone, and truncations are
        // refused rather than resumed from.
        let encoded = reborn.state().encode();
        assert_eq!(AttestorState::decode(&encoded).unwrap(), reborn.state());
        for cut in 0..encoded.len() {
            assert!(
                AttestorState::decode(&encoded[..cut]).is_err(),
                "truncation at {cut} must fail closed"
            );
        }
    }

    #[test]
    fn attest_fails_closed_when_the_state_device_refuses() {
        use adlp_logger::{FaultyStorage, MemStorage, StorageFaultConfig};

        let mut cfg = StorageFaultConfig::none(5);
        cfg.die_after_ops = Some(2); // survives bind (read + persist), then dies
        let device: Arc<dyn Storage> =
            Arc::new(FaultyStorage::new(Arc::new(MemStorage::new()), cfg));
        let kp = keypair(21);
        let attestor = ReplicaAttestor::new(0, 0, keypair_private(&kp));
        attestor.bind_storage(device, "attestor").unwrap();

        // Record first, speak second: if the device cannot record the
        // statement, the signature is withheld.
        assert!(attestor
            .attest(AttestationScope::Head { length: 1 }, head(1))
            .is_err());
    }

    #[test]
    fn rollback_incarnations_separate_statements_and_self_bumps_are_refused() {
        let kp = keypair(12);
        let keyring = ring_of(&[(0, 0, &kp)]);
        let ledger = AttestationLog::new(keyring, 64, 1);
        let attestor = ReplicaAttestor::new(0, 0, keypair_private(&kp));

        // A replica bumping its own incarnation (no sanctioned rollback) is
        // refused: the statement is discarded, recorded nowhere.
        attestor.set_incarnation(1).unwrap();
        let premature = attestor
            .attest(AttestationScope::Head { length: 2 }, head(1))
            .unwrap();
        assert_eq!(ledger.observe(premature), Observation::BadIncarnation);
        attestor.set_incarnation(0).unwrap();

        let before = attestor
            .attest(AttestationScope::Head { length: 2 }, head(1))
            .unwrap();
        assert_eq!(ledger.observe(before.clone()), Observation::Consistent);

        // Sanctioned rollback: the cluster grants incarnation 1, and the
        // honest re-signature at the same length with different content is
        // a fresh statement, not an equivocation.
        let granted = ledger.note_rollback(0, 0);
        assert_eq!(granted, 1);
        attestor.set_incarnation(granted).unwrap();
        let after = attestor
            .attest(AttestationScope::Head { length: 2 }, head(2))
            .unwrap();
        assert_eq!(ledger.observe(after.clone()), Observation::Consistent);
        assert!(ledger.proofs().is_empty(), "cross-incarnation heads never conflict");

        // Within the new incarnation the detector is as sharp as ever.
        let lie = attestor
            .attest(AttestationScope::Head { length: 2 }, head(3))
            .unwrap();
        assert!(matches!(ledger.observe(lie), Observation::Equivocation(_)));

        // And a proof straddling incarnations does not verify as one.
        let proof = EquivocationProof { first: before, second: after };
        assert!(!proof.verify(ledger.keyring()));
    }

    /// Golden bytes (DESIGN §3.9, format rule) under the Merkle-root
    /// signing domain.
    mod golden {
        use super::*;
        use adlp_crypto::hex;
        use adlp_logger::MemStorage;

        const ATTESTATION: &str = "0102000105991f7ac5a7e4709df20a321945fef78d373892b60df01ee5af31933f4d202a1e403fd4c09f3e1812d1cb78ecf2ce5adfabc69a0a2c0711f7dec5b15db931eade4d3a263010c902a475e30aa23b86b409d27b3275df309b18404e9cf1b3bfc99514";
        const EQUIVOCATION: &str = "660102000105991f7ac5a7e4709df20a321945fef78d373892b60df01ee5af31933f4d202a1e403fd4c09f3e1812d1cb78ecf2ce5adfabc69a0a2c0711f7dec5b15db931eade4d3a263010c902a475e30aa23b86b409d27b3275df309b18404e9cf1b3bfc995146601020001052e178c26c645d154d6106f6b6d54c19874ce231e322006502f265a49c2fbbb6a40a5217a41c5a0090c58f3d9141738a88733084f017c78f4d386674b923b8612e12acf2588f761fdfaa781df5ad0053c2a46031b4a811ff550d8240ec334546676";
        const CELL: &str = "41444c50415454321700af75030501991f7ac5a7e4709df20a321945fef78d373892b60df01ee5af31933f4d202a1e";

        fn attestor() -> ReplicaAttestor {
            ReplicaAttestor::new(1, 2, keypair_private(&keypair(30)))
        }

        #[test]
        fn head_attestation_and_equivocation_proof_bytes() {
            let (kp, scope) = (keypair(30), AttestationScope::Head { length: 5 });
            let first = attestor().attest(scope, head(5)).unwrap();
            let second = attestor().attest(scope, head(6)).unwrap();
            assert_eq!(hex::encode(&first.encode()), ATTESTATION);
            // The wrong key never verifies.
            assert!(first.verify(kp.public_key()) && !first.verify(keypair(2).public_key()));
            let proof = EquivocationProof { first, second };
            assert_eq!(hex::encode(&proof.encode()), EQUIVOCATION);
            let decoded = EquivocationProof::decode(&hex::decode(EQUIVOCATION).unwrap()).unwrap();
            assert_eq!(decoded, proof);
            assert!(decoded.verify(&ring_of(&[(1, 0, &kp), (1, 1, &kp), (1, 2, &kp)])));
        }

        #[test]
        fn attestor_state_cell_bytes() {
            let device = Arc::new(MemStorage::new());
            let speaker = attestor();
            speaker.bind_storage(device.clone(), "attestor").unwrap();
            speaker.attest(AttestationScope::Head { length: 5 }, head(5)).unwrap();
            speaker.set_incarnation(3).unwrap();
            assert_eq!(hex::encode(&device.read("attestor").unwrap().unwrap()), CELL);
            let golden = Arc::new(MemStorage::new());
            golden.write_replace("attestor", &hex::decode(CELL).unwrap()).unwrap();
            assert_eq!(attestor().bind_storage(golden, "attestor").unwrap(), speaker.state());
        }

        #[test]
        fn a_version_1_cell_fails_closed() {
            // It recorded a hash-chain head: never resume a replica from it.
            let device = Arc::new(MemStorage::new());
            let old = AttestorState { incarnation: 3, signed_len: 5, signed_root: Some(head(5)) };
            let mut cell = old.encode();
            cell[..8].copy_from_slice(b"ADLPATT1");
            device.write_replace("attestor", &cell).unwrap();
            let resumed = attestor().bind_storage(device, "attestor");
            assert!(matches!(resumed, Err(LogError::Malformed(_))));
        }
    }
}
