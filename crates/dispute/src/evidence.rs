//! Signed, transferable dispute evidence.
//!
//! A dispute is settled on evidence, never on testimony: every item a party
//! posts is either a self-certifying transferable [`ConflictProof`] (two
//! tree heads or two replica attestations) or a recorded traffic window
//! ([`RecordingWindow`]) that resolvers re-audit deterministically. Each
//! item arrives wrapped in a [`SignedEvidence`] envelope binding it to a
//! (dispute, round, party) triple under the party's registered key, so
//! evidence can be transferred, gossiped, and replayed without trusting
//! the channel it arrived on — and so a party cannot later disown what it
//! submitted.

use adlp_cluster::HeadAttestation;
use adlp_crypto::{pkcs1, Digest, RsaPrivateKey, Sha256, Signature, Statement};
use adlp_logger::encoding::{read_bytes, write_bytes, write_str, write_uvarint};
use adlp_logger::{ConflictProof, LogError, RecordingWindow, SignedTreeHead, Wire};
use adlp_pubsub::NodeId;

/// Domain separator for evidence signatures.
const EVIDENCE_DOMAIN: &[u8] = b"adlp-dispute/evidence";
/// Domain separator for the digest binding a vote to an evidence set.
const EVIDENCE_SET_DOMAIN: &[u8] = b"adlp-dispute/evidence-set";

/// One item of dispute evidence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Evidence {
    /// A split-view conviction proof: two signed tree heads, one log, one
    /// tree size, two roots. Self-certifying against the log's STH key.
    SplitView(ConflictProof<SignedTreeHead>),
    /// A replica-equivocation proof: two conflicting head attestations from
    /// one replica. Self-certifying against the replica keyring.
    Equivocation(ConflictProof<HeadAttestation>),
    /// A recorded traffic window, deterministically re-auditable. Not
    /// self-certifying — probative only if [`RecordingWindow::verify`]
    /// holds and the replay is sound.
    Recording(RecordingWindow),
}

/// A tag byte (1 split view, 2 equivocation, 3 recording), then the
/// variant: a proof in its slot, or a window's epochs and bytes.
impl Wire for Evidence {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            Evidence::SplitView(proof) => {
                out.push(1);
                proof.put_field(out);
            }
            Evidence::Equivocation(proof) => {
                out.push(2);
                proof.put_field(out);
            }
            Evidence::Recording(window) => {
                out.push(3);
                window.epoch_from.put_field(out);
                window.epoch_to.put_field(out);
                write_bytes(out, &window.bytes);
            }
        }
    }

    fn decode_from(src: &mut &[u8]) -> Result<Self, LogError> {
        match u8::decode_from(src)? {
            1 => Ok(Evidence::SplitView(Wire::decode_field(src)?)),
            2 => Ok(Evidence::Equivocation(Wire::decode_field(src)?)),
            3 => Ok(Evidence::Recording(RecordingWindow {
                epoch_from: Wire::decode_field(src)?,
                epoch_to: Wire::decode_field(src)?,
                bytes: read_bytes(src)?.to_vec(),
            })),
            _ => Err(LogError::Malformed("evidence (tag)")),
        }
    }
}

fn evidence_digest(party: &NodeId, dispute: u64, round: u32, body: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(EVIDENCE_DOMAIN);
    let mut buf = Vec::with_capacity(body.len() + 32);
    write_str(&mut buf, party.as_str());
    write_uvarint(&mut buf, dispute);
    write_uvarint(&mut buf, u64::from(round));
    write_bytes(&mut buf, body);
    h.update(&buf);
    h.finalize()
}

/// An evidence item bound to a (dispute, round, party) triple under the
/// party's signature — the only form the ledger accepts evidence in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignedEvidence {
    /// The submitting party.
    pub party: NodeId,
    /// The dispute the evidence speaks to.
    pub dispute: u64,
    /// The escalation round it was submitted in.
    pub round: u32,
    /// The evidence body.
    pub evidence: Evidence,
    /// The party's signature over the domain-separated digest of all of
    /// the above.
    pub signature: Signature,
}

impl SignedEvidence {
    /// Signs `evidence` for `dispute`/`round` as `party`.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Malformed`] if signing fails (key smaller than
    /// the digest encoding).
    pub fn sign(
        party: NodeId,
        dispute: u64,
        round: u32,
        evidence: Evidence,
        key: &RsaPrivateKey,
    ) -> Result<Self, LogError> {
        let digest = evidence_digest(&party, dispute, round, &evidence.encode());
        let signature = pkcs1::sign_digest(key, &digest)
            .map_err(|_| LogError::Malformed("signed evidence (signing)"))?;
        Ok(SignedEvidence {
            party,
            dispute,
            round,
            evidence,
            signature,
        })
    }
}

/// Signed by the submitting party. Verifying the envelope proves only who
/// said it; verifying the *body* (proof validity, window soundness) is
/// the resolvers' job.
impl Statement for SignedEvidence {
    type Signer = NodeId;

    fn signer(&self) -> NodeId {
        self.party.clone()
    }

    fn signature(&self) -> &Signature {
        &self.signature
    }

    fn signed_digest(&self) -> Option<Digest> {
        Some(evidence_digest(
            &self.party,
            self.dispute,
            self.round,
            &self.evidence.encode(),
        ))
    }
}

impl Wire for SignedEvidence {
    fn put(&self, out: &mut Vec<u8>) {
        self.party.put_field(out);
        self.dispute.put_field(out);
        self.round.put_field(out);
        self.evidence.put_field(out);
        self.signature.put_field(out);
    }

    fn decode_from(src: &mut &[u8]) -> Result<Self, LogError> {
        Ok(SignedEvidence {
            party: Wire::decode_field(src)?,
            dispute: Wire::decode_field(src)?,
            round: Wire::decode_field(src)?,
            evidence: Wire::decode_field(src)?,
            signature: Wire::decode_field(src)?,
        })
    }
}

/// Digest over a whole evidence set, independent of submission order.
/// Votes carry this digest so a vote is bound to exactly the evidence the
/// resolver judged — a vote cannot be replayed against a different set.
pub fn evidence_set_digest(evidence: &[SignedEvidence]) -> Digest {
    let mut encoded: Vec<Vec<u8>> = evidence.iter().map(Wire::encode).collect();
    encoded.sort();
    let mut h = Sha256::new();
    h.update(EVIDENCE_SET_DOMAIN);
    let mut buf = Vec::new();
    write_uvarint(&mut buf, encoded.len() as u64);
    for e in &encoded {
        write_bytes(&mut buf, e);
    }
    h.update(&buf);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use adlp_crypto::RsaKeyPair;
    use adlp_logger::recording::replay_bytes;
    use rand::{rngs::StdRng, SeedableRng};

    fn window() -> RecordingWindow {
        RecordingWindow::from_frames(3, 4, &[(3, b"entry-a".to_vec()), (4, b"entry-b".to_vec())])
    }

    #[test]
    fn signed_evidence_verifies_and_carries_a_replayable_window() {
        let mut rng = StdRng::seed_from_u64(11);
        let pair = RsaKeyPair::generate(512, &mut rng);
        let ev = SignedEvidence::sign(
            NodeId::new("camera"),
            7,
            1,
            Evidence::Recording(window()),
            pair.private_key(),
        )
        .unwrap();
        assert!(ev.verify(pair.public_key()));
        if let Evidence::Recording(w) = &ev.evidence {
            let replay = replay_bytes(&w.bytes).unwrap();
            assert_eq!(replay.frames.len(), 2);
        } else {
            panic!("wrong evidence variant");
        }
    }

    #[test]
    fn tampered_evidence_fails_verification() {
        let mut rng = StdRng::seed_from_u64(12);
        let pair = RsaKeyPair::generate(512, &mut rng);
        let other = RsaKeyPair::generate(512, &mut rng);
        let mut ev = SignedEvidence::sign(
            NodeId::new("camera"),
            7,
            0,
            Evidence::Recording(window()),
            pair.private_key(),
        )
        .unwrap();
        // Wrong key never verifies.
        assert!(!ev.verify(other.public_key()));
        // Rebinding to a different dispute breaks the signature.
        ev.dispute = 8;
        assert!(!ev.verify(pair.public_key()));
        ev.dispute = 7;
        ev.round = 2;
        assert!(!ev.verify(pair.public_key()));
    }

    #[test]
    fn evidence_set_digest_is_order_independent() {
        let mut rng = StdRng::seed_from_u64(14);
        let pair = RsaKeyPair::generate(512, &mut rng);
        let a = SignedEvidence::sign(
            NodeId::new("camera"),
            1,
            0,
            Evidence::Recording(window()),
            pair.private_key(),
        )
        .unwrap();
        let b = SignedEvidence::sign(
            NodeId::new("detector"),
            1,
            0,
            Evidence::Recording(window()),
            pair.private_key(),
        )
        .unwrap();
        assert_eq!(
            evidence_set_digest(&[a.clone(), b.clone()]),
            evidence_set_digest(&[b.clone(), a.clone()])
        );
        assert_ne!(
            evidence_set_digest(std::slice::from_ref(&a)),
            evidence_set_digest(&[a, b])
        );
    }
}
