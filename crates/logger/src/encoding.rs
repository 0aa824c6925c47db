//! Varint-based binary encoding primitives and the one [`Wire`] codec built
//! on them (the role protocol buffers play in the paper's prototype, §V-B
//! step 5).
//!
//! Every evidence and state encoding above the pub/sub layer is a [`Wire`]
//! value, and one rule decodes them all (DESIGN.md §3.9): a whole buffer is
//! refused unless the value consumes it exactly; a record inside another
//! sits in a length-delimited slot holding its whole [`Wire::encode`],
//! which it must fill exactly; an unknown tag fails closed; and a type
//! stored or gossiped on its own as a sealed blob declares its magic once,
//! as [`Wire::MAGIC`].

use crate::entry::Direction;
use crate::{frame, LogError};
use adlp_crypto::sha256::{Digest, DIGEST_LEN};
use adlp_crypto::Signature;
use adlp_pubsub::{NodeId, Topic};

/// Appends an unsigned LEB128 varint.
pub fn write_uvarint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads an unsigned LEB128 varint, advancing the slice.
///
/// # Errors
///
/// Returns [`LogError::Malformed`] on truncation, overflow, or a
/// non-minimal encoding (a value has exactly one).
pub fn read_uvarint(input: &mut &[u8]) -> Result<u64, LogError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let Some((&byte, rest)) = input.split_first() else {
            return Err(LogError::Malformed("varint (truncated)"));
        };
        *input = rest;
        if shift == 63 && byte > 1 {
            return Err(LogError::Malformed("varint (overflow)"));
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            // A zero final group after the first byte only pads the value.
            if byte == 0 && shift > 0 {
                return Err(LogError::Malformed("varint (overlong)"));
            }
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(LogError::Malformed("varint (too long)"));
        }
    }
}

/// Appends a length-delimited byte string.
pub fn write_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    write_uvarint(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// Reads a length-delimited byte string, advancing the slice.
///
/// # Errors
///
/// Returns [`LogError::Malformed`] on truncation.
pub fn read_bytes<'a>(input: &mut &'a [u8]) -> Result<&'a [u8], LogError> {
    let len = read_uvarint(input)? as usize;
    if input.len() < len {
        return Err(LogError::Malformed("bytes (truncated)"));
    }
    let (head, rest) = input.split_at(len);
    *input = rest;
    Ok(head)
}

/// Appends a length-delimited UTF-8 string.
pub fn write_str(out: &mut Vec<u8>, s: &str) {
    write_bytes(out, s.as_bytes());
}

/// Reads a length-delimited UTF-8 string, advancing the slice.
///
/// # Errors
///
/// Returns [`LogError::Malformed`] on truncation or invalid UTF-8.
pub fn read_str<'a>(input: &mut &'a [u8]) -> Result<&'a str, LogError> {
    std::str::from_utf8(read_bytes(input)?).map_err(|_| LogError::Malformed("string (utf-8)"))
}

/// Encoded size of a varint.
pub fn uvarint_len(v: u64) -> usize {
    if v == 0 {
        1
    } else {
        (64 - v.leading_zeros() as usize).div_ceil(7)
    }
}

/// A value with one canonical byte encoding.
///
/// Implementors write their fields with [`Wire::put`] and read them back
/// with [`Wire::decode_from`], each field through [`Wire::put_field`] /
/// [`Wire::decode_field`]; everything else — the seal, the trailing-bytes
/// check, the length-delimited slot around a nested record — is provided
/// here, once.
pub trait Wire: Sized {
    /// The magic of the sealed blob ([`frame::seal`]) that is this type's
    /// whole-buffer form, for a type stored or gossiped on its own; `None`
    /// for a plain encoding.
    const MAGIC: Option<&'static [u8; 8]> = None;

    /// Whether a value of this type is written in place inside another (the
    /// fixed-layout field types: varints, digests, signatures, names,
    /// one-byte tags) rather than as a record in a length-delimited slot.
    const INLINE: bool = false;

    /// Appends the value's fields.
    fn put(&self, out: &mut Vec<u8>);

    /// Reads the fields [`Wire::put`] wrote, advancing `input`.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Malformed`] on truncation or an invalid field.
    fn decode_from(input: &mut &[u8]) -> Result<Self, LogError>;

    /// The whole-buffer encoding: the fields, sealed under [`Wire::MAGIC`]
    /// when the type has one.
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.put(&mut out);
        match Self::MAGIC {
            Some(magic) => frame::seal(magic, &out),
            None => out,
        }
    }

    /// Decodes a whole buffer, which the value must consume exactly.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Malformed`] for a broken seal, an invalid field,
    /// truncation, or trailing bytes.
    fn decode(bytes: &[u8]) -> Result<Self, LogError> {
        let mut input = match Self::MAGIC {
            Some(magic) => frame::decode_sealed(magic, bytes)?,
            None => bytes,
        };
        let value = Self::decode_from(&mut input)?;
        if !input.is_empty() {
            return Err(LogError::Malformed("trailing bytes"));
        }
        Ok(value)
    }

    /// Appends the value as a field of another: in place for an inline
    /// type, otherwise its whole [`Wire::encode`] in a length-delimited
    /// slot.
    fn put_field(&self, out: &mut Vec<u8>) {
        if Self::INLINE {
            self.put(out);
        } else {
            write_bytes(out, &self.encode());
        }
    }

    /// Reads what [`Wire::put_field`] wrote; a slotted record must fill its
    /// slot exactly.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::Malformed`] as [`Wire::decode_from`] and
    /// [`Wire::decode`] do.
    fn decode_field(input: &mut &[u8]) -> Result<Self, LogError> {
        if Self::INLINE {
            Self::decode_from(input)
        } else {
            Self::decode(read_bytes(input)?)
        }
    }
}

/// A varint.
impl Wire for u64 {
    const INLINE: bool = true;

    fn put(&self, out: &mut Vec<u8>) {
        write_uvarint(out, *self);
    }

    fn decode_from(src: &mut &[u8]) -> Result<Self, LogError> {
        read_uvarint(src)
    }
}

/// A varint that must fit 32 bits.
impl Wire for u32 {
    const INLINE: bool = true;

    fn put(&self, out: &mut Vec<u8>) {
        write_uvarint(out, u64::from(*self));
    }

    fn decode_from(src: &mut &[u8]) -> Result<Self, LogError> {
        u32::try_from(read_uvarint(src)?).map_err(|_| LogError::Malformed("varint (u32 range)"))
    }
}

/// A varint that must fit the platform's `usize`.
impl Wire for usize {
    const INLINE: bool = true;

    fn put(&self, out: &mut Vec<u8>) {
        write_uvarint(out, *self as u64);
    }

    fn decode_from(src: &mut &[u8]) -> Result<Self, LogError> {
        usize::try_from(read_uvarint(src)?).map_err(|_| LogError::Malformed("varint (usize range)"))
    }
}

/// One raw byte: the tag of an enum.
impl Wire for u8 {
    const INLINE: bool = true;

    fn put(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }

    fn decode_from(src: &mut &[u8]) -> Result<Self, LogError> {
        let (&byte, rest) = src
            .split_first()
            .ok_or(LogError::Malformed("tag (truncated)"))?;
        *src = rest;
        Ok(byte)
    }
}

/// The 32 raw bytes.
impl Wire for Digest {
    const INLINE: bool = true;

    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.as_bytes());
    }

    fn decode_from(src: &mut &[u8]) -> Result<Self, LogError> {
        let (head, rest) = src
            .split_at_checked(DIGEST_LEN)
            .ok_or(LogError::Malformed("digest (truncated)"))?;
        *src = rest;
        Digest::from_slice(head).ok_or(LogError::Malformed("digest (truncated)"))
    }
}

/// A length-delimited byte string.
impl Wire for Signature {
    const INLINE: bool = true;

    fn put(&self, out: &mut Vec<u8>) {
        write_bytes(out, self.as_bytes());
    }

    fn decode_from(src: &mut &[u8]) -> Result<Self, LogError> {
        Ok(Signature::from_bytes(read_bytes(src)?.to_vec()))
    }
}

/// A length-delimited UTF-8 string.
impl Wire for NodeId {
    const INLINE: bool = true;

    fn put(&self, out: &mut Vec<u8>) {
        write_str(out, self.as_str());
    }

    fn decode_from(src: &mut &[u8]) -> Result<Self, LogError> {
        Ok(NodeId::new(read_str(src)?))
    }
}

/// A length-delimited UTF-8 string.
impl Wire for Topic {
    const INLINE: bool = true;

    fn put(&self, out: &mut Vec<u8>) {
        write_str(out, self.as_str());
    }

    fn decode_from(src: &mut &[u8]) -> Result<Self, LogError> {
        Ok(Topic::new(read_str(src)?))
    }
}

/// One byte: 0 = out, 1 = in.
impl Wire for Direction {
    const INLINE: bool = true;

    fn put(&self, out: &mut Vec<u8>) {
        out.push(match self {
            Direction::Out => 0,
            Direction::In => 1,
        });
    }

    fn decode_from(src: &mut &[u8]) -> Result<Self, LogError> {
        match u8::decode_from(src)? {
            0 => Ok(Direction::Out),
            1 => Ok(Direction::In),
            _ => Err(LogError::Malformed("direction")),
        }
    }
}

/// A presence byte (0 = none, 1 = some) and then the value as a field.
impl<T: Wire> Wire for Option<T> {
    const INLINE: bool = true;

    fn put(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(value) => {
                out.push(1);
                value.put_field(out);
            }
        }
    }

    fn decode_from(src: &mut &[u8]) -> Result<Self, LogError> {
        match u8::decode_from(src)? {
            0 => Ok(None),
            1 => T::decode_field(src).map(Some),
            _ => Err(LogError::Malformed("option (presence byte)")),
        }
    }
}

/// A varint count and then each element as a field.
impl<T: Wire> Wire for Vec<T> {
    const INLINE: bool = true;

    fn put(&self, out: &mut Vec<u8>) {
        write_uvarint(out, self.len() as u64);
        for value in self {
            value.put_field(out);
        }
    }

    fn decode_from(src: &mut &[u8]) -> Result<Self, LogError> {
        let count = read_uvarint(src)?;
        // A corrupt count must not reserve memory the src cannot back.
        let mut values = Vec::with_capacity(count.min(1024) as usize);
        for _ in 0..count {
            values.push(T::decode_field(src)?);
        }
        Ok(values)
    }
}

/// Both fields, in order.
impl<A: Wire, B: Wire> Wire for (A, B) {
    const INLINE: bool = true;

    fn put(&self, out: &mut Vec<u8>) {
        self.0.put_field(out);
        self.1.put_field(out);
    }

    fn decode_from(src: &mut &[u8]) -> Result<Self, LogError> {
        Ok((A::decode_field(src)?, B::decode_field(src)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip_boundaries() {
        for v in [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            write_uvarint(&mut buf, v);
            assert_eq!(buf.len(), uvarint_len(v), "length of {v}");
            let mut s = buf.as_slice();
            assert_eq!(read_uvarint(&mut s).unwrap(), v);
            assert!(s.is_empty());
        }
    }

    #[test]
    fn varint_truncated() {
        let mut s: &[u8] = &[0x80];
        assert!(read_uvarint(&mut s).is_err());
        let mut empty: &[u8] = &[];
        assert!(read_uvarint(&mut empty).is_err());
    }

    #[test]
    fn varint_non_minimal_rejected() {
        for padded in [&[0x80, 0x00][..], &[0x85, 0x80, 0x00], &[0xff, 0x80, 0x00]] {
            let mut s = padded;
            assert!(read_uvarint(&mut s).is_err(), "{padded:02x?}");
        }
        // A zero first byte is the one encoding of 0.
        let mut s: &[u8] = &[0x00];
        assert_eq!(read_uvarint(&mut s).unwrap(), 0);
    }

    #[test]
    fn varint_overflow_rejected() {
        // 11 continuation bytes would exceed 64 bits.
        let mut s: &[u8] = &[0xff; 11];
        assert!(read_uvarint(&mut s).is_err());
    }

    #[test]
    fn bytes_and_str_roundtrip() {
        let mut buf = Vec::new();
        write_bytes(&mut buf, b"payload");
        write_str(&mut buf, "steering");
        let mut s = buf.as_slice();
        assert_eq!(read_bytes(&mut s).unwrap(), b"payload");
        assert_eq!(read_str(&mut s).unwrap(), "steering");
    }

    #[test]
    fn bad_utf8_rejected() {
        let mut buf = Vec::new();
        write_bytes(&mut buf, &[0xff, 0xfe]);
        let mut s = buf.as_slice();
        assert!(read_str(&mut s).is_err());
    }

    #[test]
    fn truncated_bytes_rejected() {
        let mut buf = Vec::new();
        write_bytes(&mut buf, &[1, 2, 3, 4]);
        buf.truncate(3);
        let mut s = buf.as_slice();
        assert!(read_bytes(&mut s).is_err());
    }
}
