//! Wire-level message composition for ADLP.
//!
//! * `M_x` (forward): the middleware body `D` (header ‖ payload) with the
//!   publisher's signature `s_x` appended. The signature length is announced
//!   in the connection handshake, so no extra framing bytes are needed and
//!   the message size is exactly `|D| + |s_x|` (+4 frame preamble) — the
//!   arithmetic of Table III.
//! * `M_y` (reverse): `h(I_y) ‖ s_y`, a fixed `32 + |s_y|` bytes (160 for
//!   RSA-1024, §V-B step 4).

use adlp_crypto::sha256::{Digest, DIGEST_LEN};
use adlp_crypto::Signature;
use adlp_pubsub::PubSubError;

/// Handshake key under which an ADLP publisher announces its signature
/// length.
pub const SIG_LEN_FIELD: &str = "adlp_sig_len";

/// Appends `s_x` to a body, forming the forward message `M_x`.
pub fn attach_signature(mut body: Vec<u8>, sig: &Signature) -> Vec<u8> {
    body.extend_from_slice(sig.as_bytes());
    body
}

/// Reads the middleware header's sequence number (the first 8 body bytes,
/// little-endian); `None` for bodies too short to carry a header. The
/// panic-free parse every interceptor hot path uses.
pub fn header_seq(body: &[u8]) -> Option<u64> {
    let head: [u8; 8] = body.get(..8)?.try_into().ok()?;
    Some(u64::from_le_bytes(head))
}

/// Splits a received `M_x` into `(D, s_x)` given the announced signature
/// length.
///
/// # Errors
///
/// Returns [`PubSubError::Malformed`] if the frame is shorter than the
/// signature.
pub fn split_signature(
    mut frame: Vec<u8>,
    sig_len: usize,
) -> Result<(Vec<u8>, Signature), PubSubError> {
    if frame.len() < sig_len {
        return Err(PubSubError::Malformed(
            "adlp message (shorter than signature)",
        ));
    }
    let sig_bytes = frame.split_off(frame.len() - sig_len);
    Ok((frame, Signature::from_bytes(sig_bytes)))
}

/// Encodes the acknowledgement `M_y = h(I_y) ‖ s_y`.
pub fn encode_ack(hash: &Digest, sig: &Signature) -> Vec<u8> {
    let mut out = Vec::with_capacity(DIGEST_LEN + sig.len());
    out.extend_from_slice(hash.as_bytes());
    out.extend_from_slice(sig.as_bytes());
    out
}

/// Decodes an acknowledgement into `(h(I_y), s_y)`.
///
/// # Errors
///
/// Returns [`PubSubError::Malformed`] when the frame is not exactly
/// `32 + sig_len` bytes.
pub fn decode_ack(frame: &[u8], sig_len: usize) -> Result<(Digest, Signature), PubSubError> {
    if frame.len() != DIGEST_LEN + sig_len {
        return Err(PubSubError::Malformed("adlp ack (wrong length)"));
    }
    let (head, sig) = frame
        .split_at_checked(DIGEST_LEN)
        .ok_or(PubSubError::Malformed("adlp ack (wrong length)"))?;
    let digest = Digest::from_slice(head).ok_or(PubSubError::Malformed("adlp ack (digest)"))?;
    Ok((digest, Signature::from_bytes(sig.to_vec())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use adlp_crypto::sha256;

    #[test]
    fn attach_split_roundtrip() {
        let body = vec![1u8, 2, 3, 4];
        let sig = Signature::from_bytes(vec![9u8; 128]);
        let m = attach_signature(body.clone(), &sig);
        assert_eq!(m.len(), 4 + 128);
        let (d, s) = split_signature(m, 128).unwrap();
        assert_eq!(d, body);
        assert_eq!(s, sig);
    }

    #[test]
    fn split_too_short_rejected() {
        assert!(split_signature(vec![0u8; 10], 128).is_err());
    }

    #[test]
    fn ack_roundtrip_and_fixed_size() {
        let h = sha256(b"image");
        let sig = Signature::from_bytes(vec![7u8; 128]);
        let ack = encode_ack(&h, &sig);
        // The paper's fixed 160-byte acknowledgement (32 + 128).
        assert_eq!(ack.len(), 160);
        let (h2, s2) = decode_ack(&ack, 128).unwrap();
        assert_eq!(h2, h);
        assert_eq!(s2, sig);
    }

    #[test]
    fn ack_wrong_length_rejected() {
        assert!(decode_ack(&[0u8; 159], 128).is_err());
        assert!(decode_ack(&[0u8; 161], 128).is_err());
        assert!(decode_ack(&[], 128).is_err());
    }

    #[test]
    fn empty_body_message_is_just_signature() {
        let sig = Signature::from_bytes(vec![1u8; 64]);
        let m = attach_signature(Vec::new(), &sig);
        let (d, s) = split_signature(m, 64).unwrap();
        assert!(d.is_empty());
        assert_eq!(s, sig);
    }
}
