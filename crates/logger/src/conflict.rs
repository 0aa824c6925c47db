//! Conflict proofs: one signer, one slot, two roots.
//!
//! An append-only log has one Merkle root per size, so two valid
//! signatures by one signer over different roots at one position — a
//! logger's tree head at a size, a replica's head at a length — are a
//! self-contained, transferable conviction. [`Head`] names that slot,
//! [`ConflictProof`] is the pair, and [`FirstSeen`] is the one detector
//! that remembers the first head per slot.

use crate::encoding::Wire;
use crate::keyreg::Keyring;
use crate::LogError;
use adlp_crypto::sha256::Digest;
use adlp_crypto::Statement;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// A signed statement that commits its signer to one root at one slot.
pub trait Head: Statement + Clone {
    /// What two heads must share to conflict: the signer and the position
    /// in its log that the root commits to.
    type Slot: Ord + Clone;

    /// The slot this head speaks about.
    fn slot(&self) -> Self::Slot;

    /// The root it commits to at that slot.
    fn root(&self) -> &Digest;

    /// Whether both heads speak about one slot with different roots: the
    /// equivocation condition.
    fn conflicts_with(&self, other: &Self) -> bool {
        self.slot() == other.slot() && self.root() != other.root()
    }
}

/// Two heads at one slot with different roots: a conviction of their
/// signer that needs nothing but the signer's public key to verify.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConflictProof<H> {
    /// The first-seen head.
    pub first: H,
    /// The conflicting head.
    pub second: H,
}

impl<H: Head> ConflictProof<H> {
    /// The convicted signer.
    pub fn signer(&self) -> H::Signer {
        self.first.signer()
    }

    /// The slot both heads claim.
    pub fn slot(&self) -> H::Slot {
        self.first.slot()
    }

    /// Whether the heads conflict and both verify under `keyring`, so a
    /// forged "proof" convicts nobody.
    pub fn verify(&self, keyring: &Keyring<H::Signer>) -> bool {
        self.first.conflicts_with(&self.second)
            && keyring.verify(&self.first)
            && keyring.verify(&self.second)
    }
}

/// Transferable evidence: both heads, each in its slot.
impl<H: Wire> Wire for ConflictProof<H> {
    fn put(&self, out: &mut Vec<u8>) {
        self.first.put_field(out);
        self.second.put_field(out);
    }

    fn decode_from(src: &mut &[u8]) -> Result<Self, LogError> {
        Ok(ConflictProof {
            first: Wire::decode_field(src)?,
            second: Wire::decode_field(src)?,
        })
    }
}

/// What [`FirstSeen::observe`] concluded about one head.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Sighting<H> {
    /// The first head at its slot; now remembered.
    New,
    /// The root already remembered at its slot.
    Duplicate,
    /// A different root at a remembered slot.
    Conflict(ConflictProof<H>),
}

/// The first head per slot, plus at most one conviction per slot in
/// recording order. It checks no signature: callers verify before
/// [`FirstSeen::observe`] and [`FirstSeen::admit`], and keep their own
/// policy about what a conflict means.
#[derive(Debug, Clone)]
pub struct FirstSeen<H: Head> {
    seen: BTreeMap<H::Slot, H>,
    proofs: Vec<ConflictProof<H>>,
}

impl<H: Head> Default for FirstSeen<H> {
    fn default() -> Self {
        FirstSeen {
            seen: BTreeMap::new(),
            proofs: Vec::new(),
        }
    }
}

impl<H: Head> FirstSeen<H> {
    /// Compares a head with the first one at its slot, remembering it if
    /// it is the first. A conflict is returned, not recorded.
    pub fn observe(&mut self, head: H) -> Sighting<H> {
        match self.seen.entry(head.slot()) {
            Entry::Vacant(slot) => {
                slot.insert(head);
                Sighting::New
            }
            Entry::Occupied(prior) if prior.get().root() == head.root() => Sighting::Duplicate,
            Entry::Occupied(prior) => Sighting::Conflict(ConflictProof {
                first: prior.get().clone(),
                second: head,
            }),
        }
    }

    /// Records a verified conviction; `false` when its slot already has
    /// one.
    pub fn admit(&mut self, proof: ConflictProof<H>) -> bool {
        let slot = proof.slot();
        if self.proofs.iter().any(|p| p.slot() == slot) {
            return false;
        }
        self.proofs.push(proof);
        true
    }

    /// Forgets the first head of every slot `keep` refuses.
    pub fn retain(&mut self, mut keep: impl FnMut(&H::Slot) -> bool) {
        self.seen.retain(|slot, _| keep(slot));
    }

    /// The convictions recorded so far.
    pub fn proofs(&self) -> &[ConflictProof<H>] {
        &self.proofs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sth::{SignedTreeHead, TreeHeadSigner};
    use adlp_crypto::rsa::RsaPrivateKey;
    use adlp_crypto::RsaKeyPair;
    use adlp_pubsub::NodeId;
    use rand::SeedableRng;

    fn keypair(seed: u64) -> RsaKeyPair {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        RsaKeyPair::generate(512, &mut rng)
    }

    fn signer(log: &str, kp: &RsaKeyPair) -> TreeHeadSigner {
        let key = RsaPrivateKey::from_bytes(&kp.private_key().to_bytes()).unwrap();
        TreeHeadSigner::new(NodeId::new(log), key)
    }

    fn root(tag: u8) -> Digest {
        adlp_crypto::sha256(&[tag; 8])
    }

    fn proof(first: &SignedTreeHead, second: &SignedTreeHead) -> ConflictProof<SignedTreeHead> {
        ConflictProof {
            first: first.clone(),
            second: second.clone(),
        }
    }

    #[test]
    fn conflict_proof_convicts_and_forgeries_do_not() {
        let kp = keypair(1);
        let keyring = Keyring::new().with(NodeId::new("logger"), kp.public_key().clone());
        let logger = signer("logger", &kp);
        let a = logger.sign(0, 9, root(1)).unwrap();
        let b = logger.sign(1, 9, root(2)).unwrap();

        let convicting = proof(&a, &b);
        assert!(convicting.verify(&keyring));
        assert_eq!(convicting.signer(), NodeId::new("logger"));
        let decoded = ConflictProof::<SignedTreeHead>::decode(&convicting.encode()).unwrap();
        assert_eq!(decoded, convicting);
        assert!(decoded.verify(&keyring));

        // The same head twice is not a conflict; nor are two sizes.
        assert!(!proof(&a, &a).verify(&keyring));
        let grown = logger.sign(2, 10, root(2)).unwrap();
        assert!(!proof(&a, &grown).verify(&keyring));

        // A tampered head breaks its signature and the proof.
        let mut forged = b.clone();
        forged.root = root(3);
        assert!(!proof(&a, &forged).verify(&keyring));

        // A proof about a log the keyring does not know convicts nobody.
        let stranger = signer("stranger", &keypair(2));
        let x = stranger.sign(0, 9, root(1)).unwrap();
        let y = stranger.sign(1, 9, root(2)).unwrap();
        assert!(!proof(&x, &y).verify(&keyring));
    }

    #[test]
    fn first_seen_remembers_the_first_head_and_admits_one_proof_per_slot() {
        let logger = signer("logger", &keypair(3));
        let a = logger.sign(0, 4, root(1)).unwrap();
        let b = logger.sign(1, 4, root(2)).unwrap();
        let c = logger.sign(2, 4, root(3)).unwrap();
        let mut detector = FirstSeen::default();

        assert_eq!(detector.observe(a.clone()), Sighting::New);
        assert_eq!(detector.observe(a.clone()), Sighting::Duplicate);
        // A conflict is reported against the first head, not recorded.
        assert_eq!(
            detector.observe(b.clone()),
            Sighting::Conflict(proof(&a, &b))
        );
        assert!(detector.proofs().is_empty());
        assert!(detector.admit(proof(&a, &b)));
        // The slot is proven: a second pair there is a duplicate.
        assert!(!detector.admit(proof(&a, &c)));
        assert_eq!(detector.proofs(), [proof(&a, &b)]);

        // A forgotten slot takes the next head as its first.
        detector.retain(|(_, size)| *size != 4);
        assert_eq!(detector.observe(c), Sighting::New);
        assert_eq!(detector.proofs(), [proof(&a, &b)]);
    }
}
