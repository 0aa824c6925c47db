//! The restart-critical slice of a witness (§3.13): what must survive a
//! crash for the witness to keep its accountability promises.
//!
//! A witness that forgets is worse than a witness that dies. The whole
//! design leans on trust-on-first-use: the first verified head per log
//! anchors the consistency chain, and every later head must prove descent
//! from it. An *amnesiac* witness — killed and restarted with empty maps —
//! would happily re-TOFU whatever view a split-view logger feeds it first,
//! reopening exactly the window the witness set exists to close, and could
//! cosign a head conflicting with endorsements it no longer remembers
//! making. So three things persist per log, through the same §3.9
//! [`adlp_logger::storage::Storage`] write-replace discipline as snapshots and attestor state:
//!
//! 1. the **TOFU anchor** (the first head ever adopted),
//! 2. the **latest consistency-verified head** (the chain's current tip),
//! 3. the **cosignature high-water mark** (the largest size ever endorsed),
//!
//! plus every assembled [`SplitViewProof`] — convictions are transferable
//! evidence and must not evaporate with the process.
//!
//! The file is a sealed blob (`adlp_logger::frame`) under the magic
//! `ADLPWST1`; on top of the seal, decode rejects internal inconsistencies
//! (anchor and latest naming different logs) and trailing bytes. A corrupt
//! state file is a [`LogError::Malformed`] — the caller fails closed rather
//! than resuming from garbage.

use crate::proof::SplitViewProof;
use adlp_logger::encoding::{read_bytes, read_uvarint, write_bytes, write_uvarint};
use adlp_logger::frame;
use adlp_logger::sth::SignedTreeHead;
use adlp_logger::LogError;
use adlp_pubsub::NodeId;
use std::collections::BTreeMap;

/// Magic tag identifying a persisted witness state file.
pub const WITNESS_STATE_MAGIC: &[u8; 8] = b"ADLPWST1";

/// What a witness durably remembers about one log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogWitnessRecord {
    /// The first head ever adopted for this log — the TOFU anchor. A
    /// restarted witness must never anchor afresh while this exists.
    pub anchor: SignedTreeHead,
    /// The highest consistency-verified head (the chain tip the next
    /// consistency proof must extend).
    pub latest: SignedTreeHead,
    /// The largest tree size this witness ever cosigned for this log. No
    /// future cosignature may contradict a head at or below this mark.
    pub cosign_high_water: u64,
}

/// The complete restart-critical state of one witness.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WitnessState {
    /// Per-log durable records, keyed by log identity.
    pub logs: BTreeMap<NodeId, LogWitnessRecord>,
    /// Every split-view conviction assembled so far.
    pub proofs: Vec<SplitViewProof>,
}

impl WitnessState {
    /// Serializes the state as a sealed blob under
    /// [`WITNESS_STATE_MAGIC`] — byte-for-byte what a witness's durable
    /// cell holds.
    pub fn encode(&self) -> Vec<u8> {
        frame::seal(WITNESS_STATE_MAGIC, &self.encode_payload())
    }

    /// The payload a witness hands its durable cell (which seals it).
    pub(crate) fn encode_payload(&self) -> Vec<u8> {
        let mut payload = Vec::with_capacity(256);
        write_uvarint(&mut payload, self.logs.len() as u64);
        for record in self.logs.values() {
            write_bytes(&mut payload, &record.anchor.encode());
            write_bytes(&mut payload, &record.latest.encode());
            write_uvarint(&mut payload, record.cosign_high_water);
        }
        write_uvarint(&mut payload, self.proofs.len() as u64);
        for proof in &self.proofs {
            write_bytes(&mut payload, &proof.encode());
        }
        payload
    }

    /// Deserializes a persisted state, rejecting bad magic, checksum
    /// mismatches, anchors that name a different log than their latest,
    /// and trailing bytes.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Malformed`] on any of the above — callers must
    /// fail closed, not resume from a partial or tampered state.
    pub fn decode(bytes: &[u8]) -> Result<Self, LogError> {
        Self::decode_payload(frame::decode_sealed(
            WITNESS_STATE_MAGIC,
            bytes,
            "witness state (seal)",
        )?)
    }

    /// Decodes what [`WitnessState::encode_payload`] produced.
    pub(crate) fn decode_payload(payload: &[u8]) -> Result<Self, LogError> {
        let mut input = payload;
        let n_logs = read_uvarint(&mut input)?;
        let mut logs = BTreeMap::new();
        for _ in 0..n_logs {
            let anchor = SignedTreeHead::decode(read_bytes(&mut input)?)?;
            let latest = SignedTreeHead::decode(read_bytes(&mut input)?)?;
            let cosign_high_water = read_uvarint(&mut input)?;
            if anchor.log != latest.log {
                return Err(LogError::Malformed("witness state (log identity)"));
            }
            if anchor.size > latest.size {
                return Err(LogError::Malformed("witness state (anchor ahead of latest)"));
            }
            let log = latest.log.clone();
            if logs
                .insert(
                    log,
                    LogWitnessRecord {
                        anchor,
                        latest,
                        cosign_high_water,
                    },
                )
                .is_some()
            {
                return Err(LogError::Malformed("witness state (duplicate log)"));
            }
        }
        let n_proofs = read_uvarint(&mut input)?;
        let mut proofs = Vec::with_capacity(n_proofs.min(1024) as usize);
        for _ in 0..n_proofs {
            proofs.push(SplitViewProof::decode(read_bytes(&mut input)?)?);
        }
        if !input.is_empty() {
            return Err(LogError::Malformed("witness state (trailing bytes)"));
        }
        Ok(WitnessState { logs, proofs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adlp_crypto::rsa::RsaPrivateKey;
    use adlp_crypto::RsaKeyPair;
    use adlp_logger::sth::TreeHeadSigner;
    use rand::SeedableRng;

    fn signer(seed: u64) -> TreeHeadSigner {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let kp = RsaKeyPair::generate(512, &mut rng);
        TreeHeadSigner::new(
            NodeId::new("logger"),
            RsaPrivateKey::from_bytes(&kp.private_key().to_bytes()).unwrap(),
        )
    }

    fn sample_state() -> WitnessState {
        let s = signer(7);
        let anchor = s.sign(0, 3, adlp_crypto::sha256(b"a")).unwrap();
        let latest = s.sign(1, 8, adlp_crypto::sha256(b"b")).unwrap();
        let split_a = s.sign(2, 5, adlp_crypto::sha256(b"x")).unwrap();
        let split_b = s.sign(3, 5, adlp_crypto::sha256(b"y")).unwrap();
        let mut logs = BTreeMap::new();
        logs.insert(
            NodeId::new("logger"),
            LogWitnessRecord {
                anchor,
                latest,
                cosign_high_water: 8,
            },
        );
        WitnessState {
            logs,
            proofs: vec![SplitViewProof {
                first: split_a,
                second: split_b,
            }],
        }
    }

    #[test]
    fn state_round_trips_byte_exactly() {
        let state = sample_state();
        let bytes = state.encode();
        let decoded = WitnessState::decode(&bytes).unwrap();
        assert_eq!(decoded, state);
        assert_eq!(decoded.encode(), bytes);
    }

    #[test]
    fn empty_state_round_trips() {
        let state = WitnessState::default();
        assert_eq!(WitnessState::decode(&state.encode()).unwrap(), state);
    }

    #[test]
    fn mismatched_log_identity_is_rejected() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let kp = RsaKeyPair::generate(512, &mut rng);
        let key = || RsaPrivateKey::from_bytes(&kp.private_key().to_bytes()).unwrap();
        let s = TreeHeadSigner::new(NodeId::new("logger"), key());
        // Same key material, different log identity.
        let other = TreeHeadSigner::new(NodeId::new("other"), key());
        let anchor = s.sign(0, 2, adlp_crypto::sha256(b"a")).unwrap();
        let latest = other.sign(1, 4, adlp_crypto::sha256(b"b")).unwrap();
        let mut logs = BTreeMap::new();
        logs.insert(
            NodeId::new("logger"),
            LogWitnessRecord {
                anchor,
                latest,
                cosign_high_water: 4,
            },
        );
        let state = WitnessState {
            logs,
            proofs: Vec::new(),
        };
        assert!(WitnessState::decode(&state.encode()).is_err());
    }
}
