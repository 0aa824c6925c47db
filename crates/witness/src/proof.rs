//! Cosignatures, witnessed heads, and the gossip frame of a split-view
//! conviction (a [`ConflictProof`] over two signed tree heads).

use adlp_crypto::pkcs1;
use adlp_crypto::rsa::RsaPrivateKey;
use adlp_crypto::sha256::{Digest, Sha256};
use adlp_crypto::{Signature, Statement};
use adlp_logger::encoding::Wire;
use adlp_logger::sth::SignedTreeHead;
use adlp_logger::{ConflictProof, Keyring, LogError};
use adlp_pubsub::NodeId;

/// A keyring of log STH keys by log identity. Product code names
/// [`Keyring<NodeId>`] directly; the alias stays because the standalone
/// `benchmark/` package builds its light clients from one by this name.
pub type SthKeyring = Keyring<NodeId>;

/// Magic prefix distinguishing a gossiped split-view conviction frame from
/// a signed-tree-head frame on the witness gossip wire.
pub const SPLIT_VIEW_FRAME_MAGIC: &[u8; 8] = b"ADLPSVP1";

/// Encodes a conviction for gossip: the magic prefix, then the proof's
/// fields. Peers that never saw the fork re-verify before adopting.
pub fn encode_conviction_frame(proof: &ConflictProof<SignedTreeHead>) -> Vec<u8> {
    let mut out = SPLIT_VIEW_FRAME_MAGIC.to_vec();
    proof.put(&mut out);
    out
}

/// Decodes a gossiped conviction frame.
///
/// Returns `None` when the bytes are not a conviction frame at all (no
/// magic — the caller should try other frame types), `Some(Err(_))` when
/// the magic matches but the proof body is malformed, and `Some(Ok(_))`
/// for a well-formed frame. Decoding does **not** verify the proof.
pub fn decode_conviction_frame(
    bytes: &[u8],
) -> Option<Result<ConflictProof<SignedTreeHead>, LogError>> {
    let body = bytes.strip_prefix(SPLIT_VIEW_FRAME_MAGIC.as_slice())?;
    Some(ConflictProof::decode(body))
}

fn cosign_digest(witness: usize, log: &NodeId, size: u64, root: &Digest) -> Digest {
    let mut h = Sha256::new();
    h.update(b"adlp-witness/cosign");
    h.update(&(witness as u64).to_le_bytes());
    h.update(&(log.as_str().len() as u64).to_le_bytes());
    h.update(log.as_str().as_bytes());
    h.update(&size.to_le_bytes());
    h.update(root.as_bytes());
    h.finalize()
}

/// A witness's signed endorsement: "I verified that `log`'s head at `size`
/// is `root`, and that it consistently extends the last head I endorsed".
///
/// Epochs are deliberately excluded from the digest: what a witness
/// vouches for is the (size, root) commitment, so re-emissions of the same
/// tree state under new epochs do not need re-witnessing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cosignature {
    /// Index of the endorsing witness.
    pub witness: usize,
    /// Log the endorsement covers.
    pub log: NodeId,
    /// Endorsed tree size.
    pub size: u64,
    /// Endorsed root.
    pub root: Digest,
    /// The witness's signature over the cosign digest.
    pub signature: Signature,
}

impl Cosignature {
    /// Signs an endorsement of `(log, size, root)` as witness `witness`.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Malformed`] when signing fails.
    pub fn sign(
        witness: usize,
        key: &RsaPrivateKey,
        log: NodeId,
        size: u64,
        root: Digest,
    ) -> Result<Self, LogError> {
        let digest = cosign_digest(witness, &log, size, &root);
        let signature = pkcs1::sign_digest(key, &digest)
            .map_err(|_| LogError::Malformed("cosignature (signing)"))?;
        Ok(Cosignature {
            witness,
            log,
            size,
            root,
            signature,
        })
    }
}

/// Signed by the endorsing witness, under its witness index.
impl Statement for Cosignature {
    type Signer = usize;

    fn signer(&self) -> usize {
        self.witness
    }

    fn signature(&self) -> &Signature {
        &self.signature
    }

    fn signed_digest(&self) -> Option<Digest> {
        Some(cosign_digest(
            self.witness,
            &self.log,
            self.size,
            &self.root,
        ))
    }
}

impl Wire for Cosignature {
    fn put(&self, out: &mut Vec<u8>) {
        self.witness.put_field(out);
        self.log.put_field(out);
        self.size.put_field(out);
        self.root.put_field(out);
        self.signature.put_field(out);
    }

    fn decode_from(src: &mut &[u8]) -> Result<Self, LogError> {
        Ok(Cosignature {
            witness: Wire::decode_field(src)?,
            log: Wire::decode_field(src)?,
            size: Wire::decode_field(src)?,
            root: Wire::decode_field(src)?,
            signature: Wire::decode_field(src)?,
        })
    }
}

/// A head together with the witness endorsements backing it — what a light
/// client treats as "the witnessed view of the log".
#[derive(Debug, Clone)]
pub struct CosignedHead {
    /// The logger-signed head.
    pub sth: SignedTreeHead,
    /// Endorsements gathered from the witness set.
    pub cosignatures: Vec<Cosignature>,
}

impl CosignedHead {
    /// Verifies the head and counts the *distinct*, validly-signed
    /// endorsements that actually cover it; `true` when at least `quorum`
    /// of them do. With `quorum = f + 1`, at least one endorsement is from
    /// an honest witness.
    pub fn witnessed_by(
        &self,
        loggers: &Keyring<NodeId>,
        witnesses: &Keyring<usize>,
        quorum: usize,
    ) -> bool {
        if !loggers.verify(&self.sth) {
            return false;
        }
        let mut endorsers: Vec<usize> = self
            .cosignatures
            .iter()
            .filter(|c| {
                c.log == self.sth.log
                    && c.size == self.sth.size
                    && c.root == self.sth.root
                    && witnesses.verify(*c)
            })
            .map(|c| c.witness)
            .collect();
        endorsers.sort_unstable();
        endorsers.dedup();
        endorsers.len() >= quorum.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adlp_crypto::RsaKeyPair;
    use adlp_logger::sth::TreeHeadSigner;
    use rand::SeedableRng;

    fn keypair(seed: u64) -> RsaKeyPair {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        RsaKeyPair::generate(512, &mut rng)
    }

    fn private(kp: &RsaKeyPair) -> RsaPrivateKey {
        RsaPrivateKey::from_bytes(&kp.private_key().to_bytes()).unwrap()
    }

    fn root(tag: u8) -> Digest {
        adlp_crypto::sha256(&[tag; 8])
    }

    #[test]
    fn cosignature_roundtrips_and_binds_witness_and_head() {
        let kp = keypair(3);
        let witnesses = Keyring::from_iter([
            (0, keypair(9).public_key().clone()),
            (1, kp.public_key().clone()),
        ]);
        let cosig = Cosignature::sign(1, &private(&kp), NodeId::new("logger"), 7, root(1)).unwrap();
        assert!(witnesses.verify(&cosig));
        let decoded = Cosignature::decode(&cosig.encode()).unwrap();
        assert_eq!(decoded, cosig);

        // A transplanted witness index fails its signature.
        let mut moved = cosig.clone();
        moved.witness = 0;
        assert!(!witnesses.verify(&moved));
        // An unknown witness index never verifies.
        let mut unknown = cosig.clone();
        unknown.witness = 7;
        assert!(!witnesses.verify(&unknown));
        // A re-rooted endorsement fails.
        let mut rerooted = cosig.clone();
        rerooted.root = root(2);
        assert!(!witnesses.verify(&rerooted));
    }

    #[test]
    fn cosigned_head_needs_a_distinct_valid_quorum() {
        let log_kp = keypair(4);
        let loggers = Keyring::new().with(NodeId::new("logger"), log_kp.public_key().clone());
        let signer = TreeHeadSigner::new(NodeId::new("logger"), private(&log_kp));
        let sth = signer.sign(0, 5, root(1)).unwrap();

        let w: Vec<RsaKeyPair> = (0..3).map(|i| keypair(10 + i)).collect();
        let witnesses = w
            .iter()
            .map(|k| k.public_key().clone())
            .enumerate()
            .collect::<Keyring<usize>>();
        let cosig = |i: usize| {
            Cosignature::sign(i, &private(&w[i]), NodeId::new("logger"), 5, root(1)).unwrap()
        };

        let head = CosignedHead {
            sth: sth.clone(),
            cosignatures: vec![cosig(0), cosig(2)],
        };
        assert!(head.witnessed_by(&loggers, &witnesses, 2));
        assert!(!head.witnessed_by(&loggers, &witnesses, 3));

        // Duplicate endorsements by one witness count once.
        let duped = CosignedHead {
            sth: sth.clone(),
            cosignatures: vec![cosig(1), cosig(1)],
        };
        assert!(!duped.witnessed_by(&loggers, &witnesses, 2));

        // An endorsement of a different root does not cover this head.
        let other =
            Cosignature::sign(0, &private(&w[0]), NodeId::new("logger"), 5, root(2)).unwrap();
        let off = CosignedHead {
            sth,
            cosignatures: vec![other, cosig(1)],
        };
        assert!(!off.witnessed_by(&loggers, &witnesses, 2));
    }
}
