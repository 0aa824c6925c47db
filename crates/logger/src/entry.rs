//! Log entries.
//!
//! Under the **naive scheme** (Definition 2) an entry is
//! `(id_i, type(D), direction, t_k, D)`. Under **ADLP** (Figure 9) the
//! publisher's entry additionally carries its own signature `s'_x`, the
//! subscriber's acknowledged hash `D'_y`, and the subscriber's signature
//! `s'_y`; the subscriber's entry carries the received data (or its hash,
//! §IV-A "`h(I_y)` vs `I_y`"), the publisher's signature `s''_x`, and its
//! own signature `s''_y`.

use crate::encoding::{
    read_bytes, read_str, read_uvarint, uvarint_len, write_bytes, write_str, write_uvarint, Wire,
};
use crate::LogError;
use adlp_crypto::sha256::{binding_digest, Digest, DIGEST_LEN};
use adlp_crypto::{Signature, Statement};
use adlp_pubsub::{NodeId, Topic};

/// Data flow direction of an entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Publication (`out`).
    Out,
    /// Subscription/receipt (`in`).
    In,
}

impl std::fmt::Display for Direction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Direction::Out => "out",
            Direction::In => "in",
        })
    }
}

/// The data record inside an entry: either the payload itself or its
/// SHA-256 hash (subscribers may store the hash to save space; the paper
/// reports a 350-byte ADLP subscriber entry for a ~900 KB image).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PayloadRecord {
    /// The serialized message body `D`.
    Data(Vec<u8>),
    /// `h(D)`.
    Hash(Digest),
}

impl PayloadRecord {
    /// The SHA-256 digest of the recorded data (hashing on demand when the
    /// data was stored verbatim).
    pub fn digest(&self) -> Digest {
        match self {
            PayloadRecord::Data(d) => adlp_crypto::sha256(d),
            PayloadRecord::Hash(h) => *h,
        }
    }

    /// Length in bytes of the stored record.
    pub fn stored_len(&self) -> usize {
        match self {
            PayloadRecord::Data(d) => d.len(),
            PayloadRecord::Hash(_) => DIGEST_LEN,
        }
    }
}

/// One log entry as submitted by a component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntry {
    /// The reporting component (`id_i`).
    pub component: NodeId,
    /// The data type (`type(D)`, a topic).
    pub topic: Topic,
    /// Publication or receipt.
    pub direction: Direction,
    /// Sequence number of the transmission.
    pub seq: u64,
    /// The component's claimed timestamp (nanoseconds).
    pub timestamp_ns: u64,
    /// The claimed data (or its hash).
    pub payload: PayloadRecord,
    /// The component's own signature over `h(seq ‖ D)` — `s'_x` in a
    /// publisher entry, `s''_y` in a subscriber entry. `None` under the
    /// naive scheme.
    pub own_sig: Option<Signature>,
    /// The counterpart's signature — the subscriber's `s'_y` in a publisher
    /// entry, the publisher's `s''_x` in a subscriber entry.
    pub peer_sig: Option<Signature>,
    /// Publisher entries only: the hash the subscriber acknowledged
    /// (`h(D_y)` from the return message `M_y`).
    pub peer_hash: Option<Digest>,
    /// The counterpart component: the acknowledging subscriber in a
    /// publisher entry (publishers write one entry per acknowledgement), or
    /// the claimed publisher in a subscriber entry.
    pub peer: Option<NodeId>,
    /// Aggregated-logging mode (paper §VI-E): one publisher entry per
    /// publication carrying *all* subscribers' acknowledgements.
    pub acks: Vec<AckRecord>,
}

/// One subscriber acknowledgement inside an aggregated publisher entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AckRecord {
    /// The acknowledging subscriber.
    pub subscriber: NodeId,
    /// The hash it acknowledged (`h(D_y)`).
    pub hash: Digest,
    /// Its signature `s_y`.
    pub sig: Signature,
}

/// The protocol's signed statement (§IV): `signer` vouches that the
/// payload with digest `payload_digest` was sequence number `seq` on
/// `topic`. Both sides sign it, `s_x` as the publisher and `s_y` as the
/// acknowledging subscriber, over
/// [`binding_digest`]`(topic, seq, payload_digest)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Binding {
    /// The component whose key must have signed.
    pub signer: NodeId,
    /// The data type (`type(D)`).
    pub topic: Topic,
    /// Sequence number of the transmission.
    pub seq: u64,
    /// `h(D)`.
    pub payload_digest: Digest,
    /// The signer's signature.
    pub signature: Signature,
}

impl Statement for Binding {
    type Signer = NodeId;

    fn signer(&self) -> NodeId {
        self.signer.clone()
    }

    fn signature(&self) -> &Signature {
        &self.signature
    }

    fn signed_digest(&self) -> Option<Digest> {
        Some(binding_digest(
            self.topic.as_str(),
            self.seq,
            &self.payload_digest,
        ))
    }
}

/// One record's bytes, known to be a well-formed [`LogEntry`] encoding.
///
/// Only `LogEntry::encoded` and the validating [`LogEntry::decode_record`]
/// make one, so the logger's append paths that take it (the server's
/// pipeline and [`crate::LoggerHandle::adopt_encoded`]) cannot commit
/// bytes nobody checked — the audit (paper §IV, Lemmas 1–2) attributes
/// whatever the chain holds to the parties it names.
#[derive(Debug)]
pub struct EncodedEntry(Vec<u8>);

impl EncodedEntry {
    /// The record's bytes.
    pub(crate) fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// The record's bytes, by value.
    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.0
    }
}

impl LogEntry {
    /// Builds a naive-scheme entry (Definition 2): no signatures.
    pub fn naive(
        component: NodeId,
        topic: Topic,
        direction: Direction,
        seq: u64,
        timestamp_ns: u64,
        data: Vec<u8>,
    ) -> Self {
        LogEntry {
            component,
            topic,
            direction,
            seq,
            timestamp_ns,
            payload: PayloadRecord::Data(data),
            own_sig: None,
            peer_sig: None,
            peer_hash: None,
            peer: None,
            acks: Vec::new(),
        }
    }

    /// Whether this entry carries the ADLP extension fields.
    pub fn is_adlp(&self) -> bool {
        self.own_sig.is_some()
    }

    /// Encodes to the compact binary form stored by the server.
    pub fn encode(&self) -> Vec<u8> {
        self.encoded().into_bytes()
    }

    /// [`Self::encode`], typed as a record the logger may append.
    pub(crate) fn encoded(&self) -> EncodedEntry {
        let mut flags = 0u8;
        if matches!(self.payload, PayloadRecord::Hash(_)) {
            flags |= 1;
        }
        if self.own_sig.is_some() {
            flags |= 1 << 1;
        }
        if self.peer_sig.is_some() {
            flags |= 1 << 2;
        }
        if self.peer_hash.is_some() {
            flags |= 1 << 3;
        }
        if self.direction == Direction::In {
            flags |= 1 << 4;
        }
        if self.peer.is_some() {
            flags |= 1 << 5;
        }
        if !self.acks.is_empty() {
            flags |= 1 << 6;
        }

        // Built at its final size: the logger keeps this buffer as the
        // stored record, so growth slack would stay allocated with it.
        let mut out = Vec::with_capacity(self.encoded_len());
        out.push(1); // version
        out.push(flags);
        write_str(&mut out, self.component.as_str());
        write_str(&mut out, self.topic.as_str());
        write_uvarint(&mut out, self.seq);
        write_uvarint(&mut out, self.timestamp_ns);
        match &self.payload {
            PayloadRecord::Data(d) => write_bytes(&mut out, d),
            PayloadRecord::Hash(h) => out.extend_from_slice(h.as_bytes()),
        }
        if let Some(sig) = &self.own_sig {
            write_bytes(&mut out, sig.as_bytes());
        }
        if let Some(sig) = &self.peer_sig {
            write_bytes(&mut out, sig.as_bytes());
        }
        if let Some(h) = &self.peer_hash {
            out.extend_from_slice(h.as_bytes());
        }
        if let Some(peer) = &self.peer {
            write_str(&mut out, peer.as_str());
        }
        if !self.acks.is_empty() {
            write_uvarint(&mut out, self.acks.len() as u64);
            for ack in &self.acks {
                write_str(&mut out, ack.subscriber.as_str());
                out.extend_from_slice(ack.hash.as_bytes());
                write_bytes(&mut out, ack.sig.as_bytes());
            }
        }
        EncodedEntry(out)
    }

    /// Decodes the [`Self::encode`] format.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Malformed`] on any structural violation.
    pub fn decode(bytes: &[u8]) -> Result<Self, LogError> {
        let mut s = bytes;
        let Some((&version, rest)) = s.split_first() else {
            return Err(LogError::Malformed("entry (empty)"));
        };
        if version != 1 {
            return Err(LogError::Malformed("entry (version)"));
        }
        s = rest;
        let Some((&flags, rest)) = s.split_first() else {
            return Err(LogError::Malformed("entry (missing flags)"));
        };
        s = rest;

        let component = NodeId::new(read_str(&mut s)?);
        let topic = Topic::new(read_str(&mut s)?);
        let seq = read_uvarint(&mut s)?;
        let timestamp_ns = read_uvarint(&mut s)?;
        let payload = if flags & 1 != 0 {
            PayloadRecord::Hash(Digest::decode_from(&mut s)?)
        } else {
            PayloadRecord::Data(read_bytes(&mut s)?.to_vec())
        };
        let own_sig = if flags & (1 << 1) != 0 {
            Some(Signature::from_bytes(read_bytes(&mut s)?.to_vec()))
        } else {
            None
        };
        let peer_sig = if flags & (1 << 2) != 0 {
            Some(Signature::from_bytes(read_bytes(&mut s)?.to_vec()))
        } else {
            None
        };
        let peer_hash = if flags & (1 << 3) != 0 {
            Some(Digest::decode_from(&mut s)?)
        } else {
            None
        };
        let peer = if flags & (1 << 5) != 0 {
            Some(NodeId::new(read_str(&mut s)?))
        } else {
            None
        };
        let mut acks = Vec::new();
        if flags & (1 << 6) != 0 {
            let count = read_uvarint(&mut s)?;
            if count > 4096 {
                return Err(LogError::Malformed("entry (too many acks)"));
            }
            for _ in 0..count {
                let subscriber = NodeId::new(read_str(&mut s)?);
                let hash = Digest::decode_from(&mut s)?;
                let sig = Signature::from_bytes(read_bytes(&mut s)?.to_vec());
                acks.push(AckRecord {
                    subscriber,
                    hash,
                    sig,
                });
            }
        }
        if !s.is_empty() {
            return Err(LogError::Malformed("entry (trailing bytes)"));
        }
        Ok(LogEntry {
            component,
            topic,
            direction: if flags & (1 << 4) != 0 {
                Direction::In
            } else {
                Direction::Out
            },
            seq,
            timestamp_ns,
            payload,
            own_sig,
            peer_sig,
            peer_hash,
            peer,
            acks,
        })
    }

    /// Decodes a record and keeps its bytes as the [`EncodedEntry`] the
    /// decode just validated — how bytes from storage or another replica
    /// become appendable.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Malformed`] on any structural violation.
    pub fn decode_record(bytes: Vec<u8>) -> Result<(Self, EncodedEntry), LogError> {
        let entry = Self::decode(&bytes)?;
        Ok((entry, EncodedEntry(bytes)))
    }

    /// Size of the encoded entry in bytes (what the storage experiments in
    /// Table III / Figure 15 measure), field by field as [`Self::encode`]
    /// writes them.
    pub fn encoded_len(&self) -> usize {
        let bytes = |b: &[u8]| uvarint_len(b.len() as u64) + b.len();
        let text = |t: &str| bytes(t.as_bytes());
        let acks = match self.acks.len() {
            0 => 0,
            n => {
                uvarint_len(n as u64)
                    + self
                        .acks
                        .iter()
                        .map(|a| text(a.subscriber.as_str()) + DIGEST_LEN + bytes(a.sig.as_bytes()))
                        .sum::<usize>()
            }
        };
        2 + text(self.component.as_str())
            + text(self.topic.as_str())
            + uvarint_len(self.seq)
            + uvarint_len(self.timestamp_ns)
            + match &self.payload {
                PayloadRecord::Data(d) => bytes(d),
                PayloadRecord::Hash(_) => DIGEST_LEN,
            }
            + self.own_sig.as_ref().map_or(0, |s| bytes(s.as_bytes()))
            + self.peer_sig.as_ref().map_or(0, |s| bytes(s.as_bytes()))
            + self.peer_hash.map_or(0, |_| DIGEST_LEN)
            + self.peer.as_ref().map_or(0, |p| text(p.as_str()))
            + acks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adlp_crypto::sha256;

    fn sample_adlp_entry() -> LogEntry {
        LogEntry {
            component: NodeId::new("controller"),
            topic: Topic::new("steering"),
            direction: Direction::Out,
            seq: 42,
            timestamp_ns: 1_700_000_000_000_000_000,
            payload: PayloadRecord::Data(vec![9u8; 20]),
            own_sig: Some(Signature::from_bytes(vec![1u8; 128])),
            peer_sig: Some(Signature::from_bytes(vec![2u8; 128])),
            peer_hash: Some(sha256(b"ack")),
            peer: Some(NodeId::new("actuator")),
            acks: Vec::new(),
        }
    }

    /// `e` decodes back from its encoding, which was built in one buffer
    /// of exactly `encoded_len` bytes.
    fn assert_roundtrips(e: &LogEntry) {
        let bytes = e.encode();
        assert_eq!(bytes.len(), e.encoded_len());
        assert_eq!(bytes.capacity(), bytes.len());
        assert_eq!(&LogEntry::decode(&bytes).unwrap(), e);
    }

    #[test]
    fn naive_entry_roundtrip() {
        let e = LogEntry::naive(
            NodeId::new("camera"),
            Topic::new("image"),
            Direction::Out,
            7,
            123_456,
            vec![1, 2, 3],
        );
        assert!(!e.is_adlp());
        assert_roundtrips(&e);
    }

    #[test]
    fn adlp_publisher_entry_roundtrip() {
        let e = sample_adlp_entry();
        assert!(e.is_adlp());
        assert_roundtrips(&e);
    }

    #[test]
    fn adlp_subscriber_hash_entry_roundtrip() {
        let e = LogEntry {
            component: NodeId::new("recognizer"),
            topic: Topic::new("image"),
            direction: Direction::In,
            seq: 3,
            timestamp_ns: 999,
            payload: PayloadRecord::Hash(sha256(b"huge image")),
            own_sig: Some(Signature::from_bytes(vec![3u8; 128])),
            peer_sig: Some(Signature::from_bytes(vec![4u8; 128])),
            peer_hash: None,
            peer: Some(NodeId::new("image_feeder")),
            acks: Vec::new(),
        };
        assert_roundtrips(&e);
        assert_eq!(e.payload.stored_len(), 32);
    }

    #[test]
    fn aggregated_entry_roundtrip() {
        let mut e = sample_adlp_entry();
        e.peer_sig = None;
        e.peer_hash = None;
        e.peer = None;
        e.acks = vec![
            AckRecord {
                subscriber: NodeId::new("lane_detector"),
                hash: sha256(b"a"),
                sig: Signature::from_bytes(vec![5u8; 128]),
            },
            AckRecord {
                subscriber: NodeId::new("sign_recognizer"),
                hash: sha256(b"b"),
                sig: Signature::from_bytes(vec![6u8; 128]),
            },
        ];
        assert_roundtrips(&e);
    }

    #[test]
    fn truncation_anywhere_is_rejected() {
        let bytes = sample_adlp_entry().encode();
        for cut in [0, 1, 2, 5, bytes.len() / 2, bytes.len() - 1] {
            assert!(LogEntry::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = sample_adlp_entry().encode();
        bytes.push(0);
        assert!(LogEntry::decode(&bytes).is_err());
    }

    #[test]
    fn wrong_version_rejected() {
        let mut bytes = sample_adlp_entry().encode();
        bytes[0] = 2;
        assert!(LogEntry::decode(&bytes).is_err());
    }

    #[test]
    fn payload_digest_consistency() {
        let data = b"some payload".to_vec();
        let as_data = PayloadRecord::Data(data.clone());
        let as_hash = PayloadRecord::Hash(sha256(&data));
        assert_eq!(as_data.digest(), as_hash.digest());
    }

    #[test]
    fn subscriber_hash_entry_is_small_for_huge_data() {
        // The headline storage result: a subscriber entry for ~900 KB image
        // data stays in the hundreds of bytes when storing h(D).
        let e = LogEntry {
            component: NodeId::new("lane_detector"),
            topic: Topic::new("image"),
            direction: Direction::In,
            seq: 1,
            timestamp_ns: u64::MAX / 2,
            payload: PayloadRecord::Hash(sha256(&vec![0u8; 921_641])),
            own_sig: Some(Signature::from_bytes(vec![0u8; 128])),
            peer_sig: Some(Signature::from_bytes(vec![0u8; 128])),
            peer_hash: None,
            peer: Some(NodeId::new("image_feeder")),
            acks: Vec::new(),
        };
        assert!(e.encoded_len() < 400, "got {}", e.encoded_len());
    }
}
