//! Message bodies: a fixed 16-byte header (sequence number + timestamp)
//! followed by the application payload.
//!
//! The paper's data sizes `|D|` (Table I/III: Steering 20 B, Scan 8 705 B,
//! Image 921 641 B) denote the serialized ROS message *including* its header;
//! here `|D| = HEADER_LEN + payload.len()`. ADLP signs the whole body, so the
//! sequence number is part of the signed digest ("the sequence number is a
//! part of the ROS message digest which is hashed and signed", §V-B).

use crate::clock::TimestampNs;
use crate::PubSubError;
use bytes::Bytes;

/// Encoded size of [`Header`]: 8-byte seq + 8-byte timestamp.
pub const HEADER_LEN: usize = 16;

/// Per-message header, analogous to ROS `std_msgs/Header`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Header {
    /// Monotonically increasing per-topic sequence number, starting at 1.
    pub seq: u64,
    /// Publication timestamp (nanoseconds since the Unix epoch).
    pub stamp_ns: TimestampNs,
}

/// A complete message body as delivered to subscribers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// The header the publisher stamped.
    pub header: Header,
    /// Application payload bytes.
    pub payload: Bytes,
}

impl Message {
    /// Builds a message.
    pub fn new(header: Header, payload: impl Into<Bytes>) -> Self {
        Message {
            header,
            payload: payload.into(),
        }
    }

    /// Serialized body length (`|D|` in the paper's notation).
    pub fn body_len(&self) -> usize {
        HEADER_LEN + self.payload.len()
    }

    /// Encodes to the wire body: `seq ‖ stamp ‖ payload` (little-endian).
    pub fn encode(&self) -> Vec<u8> {
        Self::encode_parts(self.header, &self.payload)
    }

    /// Encodes the wire body of `header` and `payload` without building a
    /// [`Message`]: one allocation, one copy of the payload. The encoder
    /// behind [`Message::encode`], and what a publisher calls on the
    /// application's borrowed bytes.
    pub(crate) fn encode_parts(header: Header, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.extend_from_slice(&header.seq.to_le_bytes());
        out.extend_from_slice(&header.stamp_ns.to_le_bytes());
        out.extend_from_slice(payload);
        out
    }

    /// Decodes a wire body.
    ///
    /// # Errors
    ///
    /// Returns [`PubSubError::Malformed`] if shorter than [`HEADER_LEN`].
    pub fn decode(body: &[u8]) -> Result<Self, PubSubError> {
        let too_short = || PubSubError::Malformed("message body (too short)");
        let (seq_bytes, rest) = body.split_at_checked(8).ok_or_else(too_short)?;
        let (stamp_bytes, payload) = rest.split_at_checked(8).ok_or_else(too_short)?;
        let seq = u64::from_le_bytes(seq_bytes.try_into().map_err(|_| too_short())?);
        let stamp_ns = u64::from_le_bytes(stamp_bytes.try_into().map_err(|_| too_short())?);
        Ok(Message {
            header: Header { seq, stamp_ns },
            payload: Bytes::copy_from_slice(payload),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let msg = Message::new(
            Header {
                seq: 42,
                stamp_ns: 123_456_789,
            },
            vec![1u8, 2, 3, 4],
        );
        let body = msg.encode();
        assert_eq!(body.len(), 20); // the paper's Steering |D|
        assert_eq!(Message::decode(&body).unwrap(), msg);
    }

    #[test]
    fn empty_payload_roundtrip() {
        let msg = Message::new(Header::default(), Vec::new());
        assert_eq!(msg.body_len(), HEADER_LEN);
        assert_eq!(Message::decode(&msg.encode()).unwrap(), msg);
    }

    #[test]
    fn short_body_rejected() {
        assert_eq!(
            Message::decode(&[0u8; 15]),
            Err(PubSubError::Malformed("message body (too short)"))
        );
    }

    #[test]
    fn paper_size_arithmetic() {
        // Steering 20 B, Scan 8705 B, Image 921641 B from Tables I/III.
        for total in [20usize, 8705, 921_641] {
            let msg = Message::new(Header::default(), vec![0u8; total - HEADER_LEN]);
            assert_eq!(msg.body_len(), total);
            assert_eq!(msg.encode().len(), total);
        }
    }
}
