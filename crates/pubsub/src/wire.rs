//! Wire framing and connection handshakes.
//!
//! Every frame on a connection is a 4-byte little-endian length preamble
//! followed by that many body bytes — exactly the TCPROS convention the
//! paper's size accounting assumes (`message size = |D| + 4 + |signature|`,
//! §VI-C). Connection setup exchanges a key-value *handshake* (like TCPROS
//! connection headers): topic, publisher and subscriber ids, plus extension
//! fields (ADLP advertises its signature length there).

use crate::PubSubError;
use std::collections::BTreeMap;
use std::io::{Read, Write};

/// Bytes of framing overhead per message (the length preamble).
pub const FRAME_PREAMBLE_LEN: usize = 4;

/// Maximum accepted frame body, to bound allocation on malformed input.
pub const MAX_FRAME_LEN: usize = 64 * 1024 * 1024;

/// Encodes a frame: 4-byte LE length + body.
pub fn encode_frame(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_PREAMBLE_LEN + body.len());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(body);
    out
}

/// Writes one frame to a byte sink.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_frame<W: Write>(w: &mut W, body: &[u8]) -> Result<(), PubSubError> {
    w.write_all(&(body.len() as u32).to_le_bytes())?;
    w.write_all(body)?;
    Ok(())
}

/// Reads one frame from a byte source. Returns `None` on clean EOF at a
/// frame boundary.
///
/// # Errors
///
/// Returns [`PubSubError::Malformed`] for oversized frames and
/// [`PubSubError::Io`] for mid-frame EOF or I/O failures.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Vec<u8>>, PubSubError> {
    let mut len_buf = [0u8; FRAME_PREAMBLE_LEN];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e.into()),
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME_LEN {
        return Err(PubSubError::Malformed("frame (oversized)"));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok(Some(body))
}

/// A key-value connection handshake (ordered for deterministic encoding).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Handshake {
    fields: BTreeMap<String, String>,
}

impl Handshake {
    /// Creates an empty handshake.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets a field, returning `self` for chaining.
    pub fn with(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.fields.insert(key.into(), value.into());
        self
    }

    /// Looks up a field.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.fields.get(key).map(String::as_str)
    }

    /// Encodes as repeated `len:u16 ‖ "key=value"` records.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for (k, v) in &self.fields {
            let record = format!("{k}={v}");
            out.extend_from_slice(&(record.len() as u16).to_le_bytes());
            out.extend_from_slice(record.as_bytes());
        }
        out
    }

    /// Decodes the [`Self::encode`] format.
    ///
    /// # Errors
    ///
    /// Returns [`PubSubError::Malformed`] on truncated records, invalid
    /// UTF-8, or records without `=`.
    pub fn decode(mut bytes: &[u8]) -> Result<Self, PubSubError> {
        let mut fields = BTreeMap::new();
        while !bytes.is_empty() {
            let (len_bytes, rest) = bytes
                .split_at_checked(2)
                .ok_or(PubSubError::Malformed("handshake (truncated length)"))?;
            let len = u16::from_le_bytes(
                len_bytes
                    .try_into()
                    .map_err(|_| PubSubError::Malformed("handshake (truncated length)"))?,
            ) as usize;
            let (record_bytes, rest) = rest
                .split_at_checked(len)
                .ok_or(PubSubError::Malformed("handshake (truncated record)"))?;
            let record = std::str::from_utf8(record_bytes)
                .map_err(|_| PubSubError::Malformed("handshake (utf-8)"))?;
            bytes = rest;
            let (k, v) = record
                .split_once('=')
                .ok_or(PubSubError::Malformed("handshake (missing '=')"))?;
            fields.insert(k.to_owned(), v.to_owned());
        }
        Ok(Handshake { fields })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frame_roundtrip_via_io() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, &[7u8; 1000]).unwrap();
        let mut cur = Cursor::new(buf);
        assert_eq!(read_frame(&mut cur).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut cur).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut cur).unwrap().unwrap(), vec![7u8; 1000]);
        assert_eq!(read_frame(&mut cur).unwrap(), None);
    }

    #[test]
    fn frame_overhead_is_four_bytes() {
        assert_eq!(encode_frame(b"abc").len(), 3 + FRAME_PREAMBLE_LEN);
    }

    #[test]
    fn truncated_frame_is_io_error() {
        let mut full = Vec::new();
        write_frame(&mut full, b"hello").unwrap();
        let mut cur = Cursor::new(&full[..full.len() - 2]);
        assert!(matches!(read_frame(&mut cur), Err(PubSubError::Io(_))));
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut cur = Cursor::new(buf);
        assert_eq!(
            read_frame(&mut cur),
            Err(PubSubError::Malformed("frame (oversized)"))
        );
    }

    #[test]
    fn handshake_roundtrip() {
        let hs = Handshake::new()
            .with("topic", "image")
            .with("publisher", "camera")
            .with("subscriber", "detector")
            .with("adlp_sig_len", "128");
        let decoded = Handshake::decode(&hs.encode()).unwrap();
        assert_eq!(decoded, hs);
        assert_eq!(decoded.get("adlp_sig_len"), Some("128"));
        assert_eq!(decoded.get("missing"), None);
    }

    #[test]
    fn handshake_bad_inputs() {
        assert!(Handshake::decode(&[5]).is_err());
        assert!(Handshake::decode(&[5, 0, b'a', b'b']).is_err());
        let no_eq = {
            let mut v = vec![3, 0];
            v.extend_from_slice(b"abc");
            v
        };
        assert!(Handshake::decode(&no_eq).is_err());
    }

    #[test]
    fn handshake_value_may_contain_equals() {
        let hs = Handshake::new().with("k", "a=b=c");
        assert_eq!(
            Handshake::decode(&hs.encode()).unwrap().get("k"),
            Some("a=b=c")
        );
    }
}
