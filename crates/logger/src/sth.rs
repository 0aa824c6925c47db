//! Signed tree heads: the logger's periodic public commitment.
//!
//! A trusted auditor can compare stores after the fact; a *witnessed* log
//! removes the trust. The logger periodically signs a **tree head** — the
//! RFC 6962-style Merkle root over its records at an exact size — and
//! publishes it. Anyone holding the logger's public key can then demand an
//! inclusion proof ("my entry is under that root") and a consistency proof
//! ("that root is an append-only extension of the last root I saw"), so a
//! logger that shows different histories to different observers must sign
//! two conflicting heads at the same size — a self-incriminating pair, by
//! the same discipline as `adlp-cluster`'s head attestations.
//!
//! This module is the logger half of the witness subsystem (DESIGN.md
//! §3.12): the [`SignedTreeHead`] statement itself, the [`TreeHeadSigner`]
//! (mechanism, not policy — the split-view sim driver signs lies with it),
//! and the [`SthPublisher`] serving proofs straight off a [`LogStore`]. The
//! gossip, cosigning, and light-client verification halves live in
//! `adlp-witness`, which consumes these types.

use crate::encoding::Wire;
use crate::merkle::{ConsistencyProof, InclusionProof};
use crate::store::LogStore;
use crate::LogError;
use adlp_crypto::pkcs1;
use adlp_crypto::rsa::RsaPrivateKey;
use adlp_crypto::sha256::{Digest, Sha256};
use adlp_crypto::{Signature, Statement};
use adlp_pubsub::NodeId;
use std::sync::atomic::{AtomicU64, Ordering};

/// Magic of an encoded signed tree head, a sealed blob (wire framing
/// version 1).
pub const STH_MAGIC: &[u8; 8] = b"ADLPSTH1";

/// Root of the empty tree (RFC 6962: the hash of the empty string), used
/// for a size-0 head so "I have logged nothing yet" is still a signed,
/// conflict-checkable statement.
pub fn empty_tree_root() -> Digest {
    Sha256::new().finalize()
}

fn sth_digest(log: &NodeId, epoch: u64, size: u64, root: &Digest) -> Digest {
    let mut h = Sha256::new();
    h.update(b"adlp-witness/sth");
    h.update(&(log.as_str().len() as u64).to_le_bytes());
    h.update(log.as_str().as_bytes());
    h.update(&epoch.to_le_bytes());
    h.update(&size.to_le_bytes());
    h.update(root.as_bytes());
    h.finalize()
}

/// The logger's signed statement: "my log named `log`, at epoch `epoch`,
/// has exactly `size` records under Merkle root `root`".
///
/// The signature is PKCS#1 v1.5 over
/// `h("adlp-witness/sth" ‖ log ‖ epoch ‖ size ‖ root)`, binding the
/// speaking log's identity to the commitment — a head cannot be
/// transplanted between logs, epochs, or sizes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignedTreeHead {
    /// Identity of the log this head commits (a single logger, or one
    /// shard of a cluster).
    pub log: NodeId,
    /// Emission epoch (monotone per log; informational — conflicts are
    /// judged by `size`, the quantity proofs are anchored to).
    pub epoch: u64,
    /// Number of records the head commits to.
    pub size: u64,
    /// Merkle root over the first `size` record hashes.
    pub root: Digest,
    /// The log's signature over the head digest.
    pub signature: Signature,
}

impl SignedTreeHead {
    /// Whether two heads by the same log at the same size commit to
    /// different roots — the split-view condition. An append-only log can
    /// only ever have one root per size, so two validly-signed conflicting
    /// heads convict the log no matter which epochs they claim.
    pub fn conflicts_with(&self, other: &SignedTreeHead) -> bool {
        self.log == other.log && self.size == other.size && self.root != other.root
    }
}

/// Signed by the log it names, under its STH key.
impl Statement for SignedTreeHead {
    type Signer = NodeId;

    fn signer(&self) -> NodeId {
        self.log.clone()
    }

    fn signature(&self) -> &Signature {
        &self.signature
    }

    fn signed_digest(&self) -> Option<Digest> {
        Some(sth_digest(&self.log, self.epoch, self.size, &self.root))
    }
}

/// Gossiped as a sealed blob under [`STH_MAGIC`]. A head that decodes is
/// still *untrusted* until [`Statement::verify`] passes under the log's
/// key.
impl Wire for SignedTreeHead {
    const MAGIC: Option<&'static [u8; 8]> = Some(STH_MAGIC);

    fn put(&self, out: &mut Vec<u8>) {
        self.log.put_field(out);
        self.epoch.put_field(out);
        self.size.put_field(out);
        self.root.put_field(out);
        self.signature.put_field(out);
    }

    fn decode_from(src: &mut &[u8]) -> Result<Self, LogError> {
        Ok(SignedTreeHead {
            log: Wire::decode_field(src)?,
            epoch: Wire::decode_field(src)?,
            size: Wire::decode_field(src)?,
            root: Wire::decode_field(src)?,
            signature: Wire::decode_field(src)?,
        })
    }
}

/// The signing half of a log's STH identity.
///
/// Like `ReplicaAttestor::attest`, [`TreeHeadSigner::sign`] is deliberately
/// *mechanism, not policy*: an honest logger only signs its true store
/// root, while the split-view sim driver signs whatever forked root it
/// wants to show — the protocol's claim is that the fork becomes a
/// transferable conviction, not that forking is impossible.
#[derive(Debug)]
pub struct TreeHeadSigner {
    log: NodeId,
    key: RsaPrivateKey,
}

impl TreeHeadSigner {
    /// Creates a signer speaking for `log`.
    pub fn new(log: NodeId, key: RsaPrivateKey) -> Self {
        TreeHeadSigner { log, key }
    }

    /// The log identity this signer speaks for.
    pub fn log(&self) -> &NodeId {
        &self.log
    }

    /// Signs a head at (epoch, size, root).
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Malformed`] when signing fails (e.g. an
    /// undersized key).
    pub fn sign(&self, epoch: u64, size: u64, root: Digest) -> Result<SignedTreeHead, LogError> {
        let digest = sth_digest(&self.log, epoch, size, &root);
        let signature =
            pkcs1::sign_digest(&self.key, &digest).map_err(|_| LogError::Malformed("sth (signing)"))?;
        Ok(SignedTreeHead {
            log: self.log.clone(),
            epoch,
            size,
            root,
            signature,
        })
    }
}

/// The logger-side publication service: emits signed heads over a
/// [`LogStore`] and serves the inclusion/consistency proofs light clients
/// and witnesses demand against them.
///
/// Proofs are always computed against an explicit *size* (a prefix of the
/// store), never "whatever the store holds right now" — a proof must match
/// the head it was requested for even if the store has grown since.
///
/// A publisher runs in one of two pacing modes:
///
/// * **on-demand** (the default): [`SthPublisher::latest_head`] signs the
///   store's current head fresh on every call — every probe costs an RSA
///   signature, and two probes a microsecond apart can observe different
///   sizes;
/// * **epoch-paced** ([`SthPublisher::paced`]): heads are only minted by
///   [`SthPublisher::seal_epoch`] — typically driven by the log server's
///   append counter — and `latest_head` serves the last sealed head.
///   Witnesses and light clients then all see the *same* head between
///   seals, which is what lets a federation converge instead of chasing a
///   moving target, and bounds signing cost to one signature per epoch no
///   matter how many observers poll.
#[derive(Debug)]
pub struct SthPublisher {
    signer: TreeHeadSigner,
    store: LogStore,
    epoch: AtomicU64,
    /// `Some` = epoch-paced: the last sealed head (None until the first
    /// seal). `None` = on-demand emission.
    sealed: Option<parking_lot::Mutex<Option<SignedTreeHead>>>,
}

impl SthPublisher {
    /// Creates a publisher emitting heads for `store` under `signer`'s
    /// identity, starting at epoch 0, in on-demand mode.
    pub fn new(signer: TreeHeadSigner, store: LogStore) -> Self {
        SthPublisher {
            signer,
            store,
            epoch: AtomicU64::new(0),
            sealed: None,
        }
    }

    /// Switches the publisher to epoch-paced mode: heads are only minted
    /// by [`SthPublisher::seal_epoch`], and [`SthPublisher::latest_head`]
    /// serves the last sealed head (or nothing before the first seal).
    pub fn paced(mut self) -> Self {
        self.sealed = Some(parking_lot::Mutex::new(None));
        self
    }

    /// Whether this publisher is epoch-paced.
    pub fn is_paced(&self) -> bool {
        self.sealed.is_some()
    }

    /// The log identity heads are emitted under.
    pub fn log(&self) -> &NodeId {
        self.signer.log()
    }

    /// Signs the store's head as it stands and — in paced mode — installs
    /// it as the head [`SthPublisher::latest_head`] serves until the next
    /// seal. In on-demand mode this is equivalent to [`SthPublisher::emit`].
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Malformed`] when signing fails.
    pub fn seal_epoch(&self) -> Result<SignedTreeHead, LogError> {
        let sth = self.emit()?;
        if let Some(sealed) = &self.sealed {
            *sealed.lock() = Some(sth.clone());
        }
        Ok(sth)
    }

    /// The head observers should verify against right now: the last sealed
    /// head in paced mode (`None` before the first seal), or a
    /// freshly-signed head of the current store in on-demand mode.
    pub fn latest_head(&self) -> Option<SignedTreeHead> {
        match &self.sealed {
            Some(sealed) => sealed.lock().clone(),
            None => self.emit().ok(),
        }
    }

    /// Signs and returns the head of the store as it stands, advancing the
    /// epoch counter.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Malformed`] when signing fails.
    pub fn emit(&self) -> Result<SignedTreeHead, LogError> {
        let (size, root) = self.store.tree_head();
        let epoch = self.epoch.fetch_add(1, Ordering::SeqCst);
        self.signer
            .sign(epoch, size as u64, root.unwrap_or_else(empty_tree_root))
    }

    /// Inclusion proof for record `index` against the tree at `size`
    /// records, together with the leaf hash it proves. `None` when the
    /// store has not reached `size` or the index is out of range.
    pub fn prove_inclusion(&self, index: u64, size: u64) -> Option<(Digest, InclusionProof)> {
        self.store
            .prove_at(usize::try_from(index).ok()?, usize::try_from(size).ok()?)
    }

    /// Consistency proof that the tree at `new_size` extends the tree at
    /// `old_size`. `None` when the store has not reached `new_size` or the
    /// range is degenerate.
    pub fn prove_consistency(&self, old_size: u64, new_size: u64) -> Option<ConsistencyProof> {
        self.store.prove_consistency_at(
            usize::try_from(old_size).ok()?,
            usize::try_from(new_size).ok()?,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merkle::MerkleTree;
    use adlp_crypto::RsaKeyPair;
    use rand::SeedableRng;

    fn keypair(seed: u64) -> RsaKeyPair {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        RsaKeyPair::generate(512, &mut rng)
    }

    fn signer(log: &str, kp: &RsaKeyPair) -> TreeHeadSigner {
        TreeHeadSigner::new(
            NodeId::new(log),
            RsaPrivateKey::from_bytes(&kp.private_key().to_bytes()).unwrap(),
        )
    }

    fn filled_store(n: usize) -> LogStore {
        let store = LogStore::new();
        for i in 0..n {
            store.append_encoded(vec![i as u8; 16]);
        }
        store
    }

    #[test]
    fn sth_roundtrip_and_verification() {
        let kp = keypair(1);
        let sth = signer("logger", &kp).sign(3, 7, adlp_crypto::sha256(b"root")).unwrap();
        assert!(sth.verify(kp.public_key()));
        assert!(!sth.verify(keypair(2).public_key()));
        let decoded = SignedTreeHead::decode(&sth.encode()).unwrap();
        assert_eq!(decoded, sth);
        assert!(decoded.verify(kp.public_key()));
    }

    #[test]
    fn sth_binds_log_epoch_size_and_root() {
        let kp = keypair(3);
        let sth = signer("logger", &kp).sign(1, 5, adlp_crypto::sha256(b"r")).unwrap();
        let mut renamed = sth.clone();
        renamed.log = NodeId::new("imposter");
        assert!(!renamed.verify(kp.public_key()));
        let mut resized = sth.clone();
        resized.size = 6;
        assert!(!resized.verify(kp.public_key()));
        let mut reepoched = sth.clone();
        reepoched.epoch = 2;
        assert!(!reepoched.verify(kp.public_key()));
        let mut rerooted = sth.clone();
        rerooted.root = adlp_crypto::sha256(b"other");
        assert!(!rerooted.verify(kp.public_key()));
    }

    #[test]
    fn conflict_is_same_log_same_size_different_root() {
        let kp = keypair(4);
        let s = signer("logger", &kp);
        let a = s.sign(1, 5, adlp_crypto::sha256(b"a")).unwrap();
        let b = s.sign(2, 5, adlp_crypto::sha256(b"b")).unwrap();
        assert!(a.conflicts_with(&b), "same size, different roots conflict across epochs");
        let same = s.sign(3, 5, adlp_crypto::sha256(b"a")).unwrap();
        assert!(!a.conflicts_with(&same));
        let grown = s.sign(4, 6, adlp_crypto::sha256(b"b")).unwrap();
        assert!(!a.conflicts_with(&grown), "different sizes never conflict");
        let other = signer("other", &kp).sign(1, 5, adlp_crypto::sha256(b"b")).unwrap();
        assert!(!a.conflicts_with(&other), "different logs never conflict");
    }

    #[test]
    fn publisher_emits_heads_proofs_verify_against_them() {
        let kp = keypair(5);
        let store = filled_store(5);
        let publisher = SthPublisher::new(signer("logger", &kp), store.clone());

        let first = publisher.emit().unwrap();
        assert_eq!((first.epoch, first.size), (0, 5));
        assert!(first.verify(kp.public_key()));

        // Every record proves into the head it was committed under.
        for index in 0..5 {
            let (leaf, proof) = publisher.prove_inclusion(index, first.size).unwrap();
            assert!(MerkleTree::verify(&first.root, first.size as usize, &leaf, &proof));
        }

        // Growth: the new head is provably consistent with the old one.
        store.append_encoded(vec![9; 16]);
        store.append_encoded(vec![10; 16]);
        let second = publisher.emit().unwrap();
        assert_eq!((second.epoch, second.size), (1, 7));
        let consistency = publisher.prove_consistency(first.size, second.size).unwrap();
        assert!(MerkleTree::verify_consistency(&first.root, &second.root, &consistency));
        // Old inclusion proofs still serve against the old size.
        let (leaf, proof) = publisher.prove_inclusion(2, first.size).unwrap();
        assert!(MerkleTree::verify(&first.root, first.size as usize, &leaf, &proof));
    }

    #[test]
    fn publisher_refuses_out_of_range_proof_requests() {
        let kp = keypair(6);
        let publisher = SthPublisher::new(signer("logger", &kp), filled_store(4));
        assert!(publisher.prove_inclusion(0, 5).is_none(), "size beyond the store");
        assert!(publisher.prove_inclusion(4, 4).is_none(), "index beyond the size");
        assert!(publisher.prove_consistency(0, 4).is_none(), "degenerate old size");
        assert!(publisher.prove_consistency(3, 5).is_none(), "new size beyond the store");
        assert!(publisher.prove_consistency(4, 3).is_none(), "shrinking range");
    }

    #[test]
    fn paced_publisher_serves_only_sealed_heads() {
        let kp = keypair(8);
        let store = filled_store(3);
        let publisher = SthPublisher::new(signer("logger", &kp), store.clone()).paced();
        assert!(publisher.is_paced());
        assert!(publisher.latest_head().is_none(), "nothing sealed yet");

        let first = publisher.seal_epoch().unwrap();
        assert_eq!((first.epoch, first.size), (0, 3));
        assert_eq!(publisher.latest_head().unwrap(), first);

        // Growth is invisible to observers until the next seal.
        store.append_encoded(vec![9; 16]);
        assert_eq!(publisher.latest_head().unwrap(), first);

        let second = publisher.seal_epoch().unwrap();
        assert_eq!((second.epoch, second.size), (1, 4));
        assert_eq!(publisher.latest_head().unwrap(), second);

        // Proofs still serve against sealed sizes.
        let consistency = publisher.prove_consistency(first.size, second.size).unwrap();
        assert!(MerkleTree::verify_consistency(&first.root, &second.root, &consistency));
    }

    #[test]
    fn on_demand_publisher_signs_fresh_heads() {
        let kp = keypair(9);
        let store = filled_store(2);
        let publisher = SthPublisher::new(signer("logger", &kp), store.clone());
        assert!(!publisher.is_paced());
        assert_eq!(publisher.latest_head().unwrap().size, 2);
        store.append_encoded(vec![7; 16]);
        // No seal needed: the next probe sees the growth immediately.
        assert_eq!(publisher.latest_head().unwrap().size, 3);
    }

    #[test]
    fn empty_store_signs_the_empty_tree_root() {
        let kp = keypair(7);
        let publisher = SthPublisher::new(signer("logger", &kp), LogStore::new());
        let sth = publisher.emit().unwrap();
        assert_eq!(sth.size, 0);
        assert_eq!(sth.root, empty_tree_root());
        assert!(sth.verify(kp.public_key()));
    }
}
