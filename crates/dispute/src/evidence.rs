//! Signed, transferable dispute evidence.
//!
//! A dispute is settled on evidence, never on testimony: every item a party
//! posts is either a self-certifying transferable proof ([`SplitViewProof`],
//! [`EquivocationProof`]) or a recorded traffic window ([`RecordingWindow`])
//! that resolvers re-audit deterministically. Each item arrives wrapped in a
//! [`SignedEvidence`] envelope binding it to a (dispute, round, party)
//! triple under the party's registered key, so evidence can be transferred,
//! gossiped, and replayed without trusting the channel it arrived on —
//! and so a party cannot later disown what it submitted.

use adlp_cluster::EquivocationProof;
use adlp_crypto::{pkcs1, Digest, RsaPrivateKey, RsaPublicKey, Sha256, Signature};
use adlp_logger::encoding::{read_bytes, read_str, read_uvarint, write_bytes, write_str, write_uvarint};
use adlp_logger::{LogError, RecordingWindow};
use adlp_pubsub::NodeId;
use adlp_witness::SplitViewProof;

/// Domain separator for evidence signatures.
const EVIDENCE_DOMAIN: &[u8] = b"adlp-dispute/evidence";
/// Domain separator for the digest binding a vote to an evidence set.
const EVIDENCE_SET_DOMAIN: &[u8] = b"adlp-dispute/evidence-set";

/// One item of dispute evidence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Evidence {
    /// A split-view conviction proof: two signed tree heads, one log, one
    /// tree size, two roots. Self-certifying against the log's STH key.
    SplitView(SplitViewProof),
    /// A replica-equivocation proof: two conflicting head attestations from
    /// one replica. Self-certifying against the replica keyring.
    Equivocation(EquivocationProof),
    /// A recorded traffic window, deterministically re-auditable. Not
    /// self-certifying — probative only if [`RecordingWindow::verify`]
    /// holds and the replay is sound.
    Recording(RecordingWindow),
}

impl Evidence {
    /// Serializes the evidence body (tagged).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        match self {
            Evidence::SplitView(proof) => {
                out.push(1);
                write_bytes(&mut out, &proof.encode());
            }
            Evidence::Equivocation(proof) => {
                out.push(2);
                write_bytes(&mut out, &proof.encode());
            }
            Evidence::Recording(window) => {
                out.push(3);
                write_uvarint(&mut out, window.epoch_from);
                write_uvarint(&mut out, window.epoch_to);
                write_bytes(&mut out, &window.bytes);
            }
        }
        out
    }

    /// Deserializes an evidence body, consuming from `input`.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Malformed`] on truncated or unknown encodings.
    pub fn decode(input: &mut &[u8]) -> Result<Self, LogError> {
        let (&tag, rest) = input
            .split_first()
            .ok_or(LogError::Malformed("evidence (tag)"))?;
        *input = rest;
        match tag {
            1 => Ok(Evidence::SplitView(SplitViewProof::decode(read_bytes(
                input,
            )?)?)),
            2 => Ok(Evidence::Equivocation(EquivocationProof::decode(
                read_bytes(input)?,
            )?)),
            3 => {
                let epoch_from = read_uvarint(input)?;
                let epoch_to = read_uvarint(input)?;
                let bytes = read_bytes(input)?.to_vec();
                Ok(Evidence::Recording(RecordingWindow {
                    epoch_from,
                    epoch_to,
                    bytes,
                }))
            }
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

    /// Verifies the envelope signature against the party's public key.
    /// Verifying the *body* (proof validity, window soundness) is the
    /// resolvers' job; a valid envelope only proves who said it.
    pub fn verify(&self, key: &RsaPublicKey) -> bool {
        let digest = evidence_digest(&self.party, self.dispute, self.round, &self.evidence.encode());
        pkcs1::verify_digest(key, &digest, &self.signature)
    }

    /// Serializes the envelope.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(128);
        write_str(&mut out, self.party.as_str());
        write_uvarint(&mut out, self.dispute);
        write_uvarint(&mut out, u64::from(self.round));
        write_bytes(&mut out, &self.evidence.encode());
        write_bytes(&mut out, self.signature.as_bytes());
        out
    }

    /// Deserializes an envelope, consuming from `input`.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Malformed`] on truncated bytes.
    pub fn decode(input: &mut &[u8]) -> Result<Self, LogError> {
        let party = NodeId::new(read_str(input)?);
        let dispute = read_uvarint(input)?;
        let round = u32::try_from(read_uvarint(input)?)
            .map_err(|_| LogError::Malformed("signed evidence (round)"))?;
        let mut body = read_bytes(input)?;
        let evidence = Evidence::decode(&mut body)?;
        if !body.is_empty() {
            return Err(LogError::Malformed("signed evidence (trailing bytes)"));
        }
        let signature = Signature::from_bytes(read_bytes(input)?.to_vec());
        Ok(SignedEvidence {
            party,
            dispute,
            round,
            evidence,
            signature,
        })
    }
}

/// Digest over a whole evidence set, independent of submission order.
/// Votes carry this digest so a vote is bound to exactly the evidence the
/// resolver judged — a vote cannot be replayed against a different set.
pub fn evidence_set_digest(evidence: &[SignedEvidence]) -> Digest {
    let mut encoded: Vec<Vec<u8>> = evidence.iter().map(SignedEvidence::encode).collect();
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
    fn signed_evidence_roundtrips_and_verifies() {
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

        let bytes = ev.encode();
        let mut input = bytes.as_slice();
        let back = SignedEvidence::decode(&mut input).unwrap();
        assert!(input.is_empty());
        assert_eq!(back, ev);
        assert!(back.verify(pair.public_key()));
        if let Evidence::Recording(w) = &back.evidence {
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
    fn truncated_envelope_is_malformed() {
        let mut rng = StdRng::seed_from_u64(13);
        let pair = RsaKeyPair::generate(512, &mut rng);
        let bytes = SignedEvidence::sign(
            NodeId::new("camera"),
            1,
            0,
            Evidence::Recording(window()),
            pair.private_key(),
        )
        .unwrap()
        .encode();
        for cut in 0..bytes.len() {
            let mut input = &bytes[..cut];
            assert!(SignedEvidence::decode(&mut input).is_err());
        }
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
