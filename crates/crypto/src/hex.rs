//! Minimal hex encoding helpers used across the workspace.

use crate::CryptoError;

const ALPHABET: &[u8; 16] = b"0123456789abcdef";

/// Encodes bytes as lowercase hex.
///
/// ```
/// assert_eq!(adlp_crypto::hex::encode(&[0xde, 0xad]), "dead");
/// ```
pub fn encode(bytes: &[u8]) -> String {
    let digit =
        |nibble: u8| char::from(ALPHABET.get(nibble as usize & 0xf).copied().unwrap_or(b'0'));
    let mut s = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        s.push(digit(b >> 4));
        s.push(digit(b & 0xf));
    }
    s
}

/// Decodes a hex string (even length, case-insensitive).
///
/// # Errors
///
/// Returns [`CryptoError::Malformed`] for odd length or non-hex characters.
pub fn decode(s: &str) -> Result<Vec<u8>, CryptoError> {
    let s = s.as_bytes();
    if !s.len().is_multiple_of(2) {
        return Err(CryptoError::Malformed("hex string (odd length)"));
    }
    let mut out = Vec::with_capacity(s.len() / 2);
    for pair in s.chunks_exact(2) {
        if let [hi, lo] = *pair {
            out.push(val(hi)? << 4 | val(lo)?);
        }
    }
    Ok(out)
}

fn val(c: u8) -> Result<u8, CryptoError> {
    match c {
        b'0'..=b'9' => Ok(c - b'0'),
        b'a'..=b'f' => Ok(c - b'a' + 10),
        b'A'..=b'F' => Ok(c - b'A' + 10),
        _ => Err(CryptoError::Malformed("hex string")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let data: Vec<u8> = (0..=255).collect();
        assert_eq!(decode(&encode(&data)).unwrap(), data);
    }

    #[test]
    fn empty() {
        assert_eq!(encode(&[]), "");
        assert_eq!(decode("").unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn case_insensitive() {
        assert_eq!(decode("DEADbeef").unwrap(), vec![0xde, 0xad, 0xbe, 0xef]);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(decode("abc").is_err());
        assert!(decode("zz").is_err());
    }
}
