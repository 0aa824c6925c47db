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
//! plus every assembled split-view [`ConflictProof`] — convictions are
//! transferable evidence and must not evaporate with the process.
//!
//! The file is a sealed blob (`adlp_logger::frame`) under the magic
//! `ADLPWST1`; on top of the seal and the one `Wire` decode rule, decode
//! rejects internal inconsistencies (anchor and latest naming different
//! logs). A corrupt state file is a [`LogError::Malformed`] — the caller
//! fails closed rather than resuming from garbage.

use adlp_logger::encoding::{read_uvarint, write_uvarint, Wire};
use adlp_logger::sth::SignedTreeHead;
use adlp_logger::{ConflictProof, LogError};
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
    pub proofs: Vec<ConflictProof<SignedTreeHead>>,
}

/// Byte-for-byte what a witness's durable cell holds: a sealed blob under
/// [`WITNESS_STATE_MAGIC`]. Decoding also rejects anchors that name a
/// different log than their latest, an anchor ahead of its latest, and a
/// log recorded twice — callers must fail closed, not resume from a
/// partial or tampered state.
impl Wire for WitnessState {
    const MAGIC: Option<&'static [u8; 8]> = Some(WITNESS_STATE_MAGIC);

    fn put(&self, out: &mut Vec<u8>) {
        write_uvarint(out, self.logs.len() as u64);
        for record in self.logs.values() {
            record.anchor.put_field(out);
            record.latest.put_field(out);
            record.cosign_high_water.put_field(out);
        }
        self.proofs.put_field(out);
    }

    fn decode_from(src: &mut &[u8]) -> Result<Self, LogError> {
        let mut logs = BTreeMap::new();
        for _ in 0..read_uvarint(src)? {
            let anchor = SignedTreeHead::decode_field(src)?;
            let latest = SignedTreeHead::decode_field(src)?;
            let cosign_high_water = u64::decode_field(src)?;
            if anchor.log != latest.log {
                return Err(LogError::Malformed("witness state (log identity)"));
            }
            if anchor.size > latest.size {
                return Err(LogError::Malformed(
                    "witness state (anchor ahead of latest)",
                ));
            }
            let record = LogWitnessRecord {
                anchor,
                latest,
                cosign_high_water,
            };
            if logs.insert(record.latest.log.clone(), record).is_some() {
                return Err(LogError::Malformed("witness state (duplicate log)"));
            }
        }
        Ok(WitnessState {
            logs,
            proofs: Wire::decode_field(src)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adlp_crypto::rsa::RsaPrivateKey;
    use adlp_crypto::RsaKeyPair;
    use adlp_logger::sth::TreeHeadSigner;
    use rand::SeedableRng;

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
