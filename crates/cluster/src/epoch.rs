//! Epoch sealing: cross-shard Merkle anchoring.
//!
//! Per-shard Merkle roots alone let each shard be rolled back
//! independently — an attacker controlling one shard's replicas could
//! present an older, shorter log. Sealing an epoch collects every shard's
//! (root, length) into one Merkle tree whose root — the **super-root** —
//! is signed by the cluster's sealing key. An auditor then verifies each
//! shard's live root against the sealed one: any shard presenting a
//! different root (or a shorter log) contradicts a signed commitment.

use adlp_crypto::rsa::RsaPrivateKey;
use adlp_crypto::sha256::{Digest, Sha256};
use adlp_crypto::{pkcs1, CryptoError, Signature, Statement};
use adlp_logger::merkle::MerkleTree;
use adlp_pubsub::NodeId;

/// The log identity a shard's tree head is published under — the name
/// witnesses and light clients track per shard.
pub fn shard_log_id(shard: usize) -> NodeId {
    NodeId::new(format!("adlp-shard-{shard}"))
}

/// The sentinel root an empty shard contributes, so every shard always
/// occupies its leaf position in the super-root.
pub fn empty_shard_root() -> Digest {
    adlp_crypto::sha256(b"adlp-cluster/empty-shard")
}

/// One shard's anchoring input: its quorum-log Merkle root and length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRoot {
    /// Shard index.
    pub shard: usize,
    /// Number of records committed under `root`.
    pub leaf_count: usize,
    /// Merkle root over the shard's quorum log.
    pub root: Digest,
}

impl ShardRoot {
    /// The super-root leaf digest binding shard index, length, and root.
    pub fn leaf_digest(&self) -> Digest {
        let mut h = Sha256::new();
        h.update(b"adlp-cluster/shard-root");
        h.update(&(self.shard as u64).to_le_bytes());
        h.update(&(self.leaf_count as u64).to_le_bytes());
        h.update(self.root.as_bytes());
        h.finalize()
    }
}

/// A sealed epoch: every shard's root anchored under one signed
/// cross-shard super-root.
#[derive(Debug, Clone)]
pub struct EpochSeal {
    /// Monotonically increasing epoch number.
    pub epoch: u64,
    /// Per-shard roots, in shard order.
    pub shard_roots: Vec<ShardRoot>,
    /// Merkle root over the shard-root leaf digests.
    pub super_root: Digest,
    /// PKCS#1 v1.5 signature by the cluster sealing key over
    /// `h("adlp-cluster/epoch-seal" ‖ epoch ‖ super_root)`.
    pub signature: Signature,
}

fn super_root_of(shard_roots: &[ShardRoot]) -> Digest {
    let leaves: Vec<Digest> = shard_roots.iter().map(ShardRoot::leaf_digest).collect();
    MerkleTree::build(&leaves)
        .root()
        .unwrap_or_else(empty_shard_root)
}

fn seal_digest(epoch: u64, super_root: &Digest) -> Digest {
    let mut h = Sha256::new();
    h.update(b"adlp-cluster/epoch-seal");
    h.update(&epoch.to_le_bytes());
    h.update(super_root.as_bytes());
    h.finalize()
}

/// Signed by the cluster's one sealing key. A seal whose claimed
/// super-root does not re-derive from its claimed shard roots contradicts
/// itself and verifies under no key.
impl Statement for EpochSeal {
    type Signer = ();

    fn signer(&self) {}

    fn signature(&self) -> &Signature {
        &self.signature
    }

    fn signed_digest(&self) -> Option<Digest> {
        (super_root_of(&self.shard_roots) == self.super_root)
            .then(|| seal_digest(self.epoch, &self.super_root))
    }
}

impl EpochSeal {
    /// Builds and signs a seal over `shard_roots`.
    ///
    /// # Errors
    ///
    /// Propagates signing failures (e.g. an undersized sealing key).
    pub fn build(
        epoch: u64,
        shard_roots: Vec<ShardRoot>,
        sealing_key: &RsaPrivateKey,
    ) -> Result<EpochSeal, CryptoError> {
        let super_root = super_root_of(&shard_roots);
        let signature = pkcs1::sign_digest(sealing_key, &seal_digest(epoch, &super_root))?;
        Ok(EpochSeal {
            epoch,
            shard_roots,
            super_root,
            signature,
        })
    }

    /// Verifies one shard's *live* state against the seal: the shard's
    /// gathered quorum root and length must match what was anchored. A
    /// mismatch means the shard's history changed after sealing (rollback
    /// or rewrite).
    pub fn verify_shard(&self, shard: usize, live_root: &Digest, live_leaf_count: usize) -> bool {
        let Some(sealed) = self.shard_roots.iter().find(|r| r.shard == shard) else {
            return false;
        };
        // An inclusion proof ties the sealed leaf to the super-root, so a
        // verifier holding only (seal, one shard) needs no other shards.
        let leaves: Vec<Digest> = self
            .shard_roots
            .iter()
            .map(ShardRoot::leaf_digest)
            .collect();
        let tree = MerkleTree::build(&leaves);
        let position = self.shard_roots.iter().position(|r| r.shard == shard);
        let proven = position.and_then(|i| tree.prove(i)).is_some_and(|proof| {
            MerkleTree::verify(
                &self.super_root,
                self.shard_roots.len(),
                &sealed.leaf_digest(),
                &proof,
            )
        });
        proven && sealed.root == *live_root && sealed.leaf_count == live_leaf_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adlp_crypto::RsaKeyPair;
    use rand::SeedableRng;

    fn roots() -> Vec<ShardRoot> {
        (0..3)
            .map(|shard| ShardRoot {
                shard,
                leaf_count: shard * 2,
                root: adlp_crypto::sha256(&[shard as u8; 4]),
            })
            .collect()
    }

    fn keypair() -> RsaKeyPair {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        RsaKeyPair::generate(512, &mut rng)
    }

    #[test]
    fn seal_roundtrip_verifies() {
        let kp = keypair();
        let seal = EpochSeal::build(1, roots(), kp.private_key()).unwrap();
        assert!(seal.verify(kp.public_key()));
        for r in roots() {
            assert!(seal.verify_shard(r.shard, &r.root, r.leaf_count));
        }
    }

    #[test]
    fn tampered_shard_root_fails_verification() {
        let kp = keypair();
        let seal = EpochSeal::build(1, roots(), kp.private_key()).unwrap();
        let rollback = adlp_crypto::sha256(b"older history");
        assert!(!seal.verify_shard(1, &rollback, 2));
        assert!(!seal.verify_shard(1, &adlp_crypto::sha256(&[1u8; 4]), 99));
        assert!(!seal.verify_shard(9, &rollback, 0));
    }

    #[test]
    fn doctored_seal_fails_signature_or_consistency() {
        let kp = keypair();
        let mut seal = EpochSeal::build(2, roots(), kp.private_key()).unwrap();
        // Claiming different shard roots breaks super-root re-derivation.
        if let Some(first) = seal.shard_roots.first_mut() {
            first.leaf_count += 1;
        }
        assert!(!seal.verify(kp.public_key()));

        // A re-derived-but-unsigned super-root breaks the signature.
        let mut seal2 = EpochSeal::build(2, roots(), kp.private_key()).unwrap();
        if let Some(first) = seal2.shard_roots.first_mut() {
            first.leaf_count += 1;
        }
        seal2.super_root = super_root_of(&seal2.shard_roots);
        assert!(!seal2.verify(kp.public_key()));

        // The wrong public key never verifies.
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let other = RsaKeyPair::generate(512, &mut rng);
        let good = EpochSeal::build(2, roots(), kp.private_key()).unwrap();
        assert!(!good.verify(other.public_key()));
    }
}
