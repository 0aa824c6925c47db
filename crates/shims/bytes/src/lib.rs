//! Offline stand-in for the `bytes` crate.
//!
//! Only the immutable [`Bytes`] container is provided — cheap clones of a
//! shared, reference-counted byte buffer. That is the entire surface this
//! workspace uses (message payloads are built once and then shared across
//! subscriber queues).

// Called from the protocol crates, so held to their panic lints (paper
// Lemma 2 — a panicking component is indistinguishable from a hiding one).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// A cheaply cloneable, immutable slice of bytes.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<[u8]>,
}

impl Bytes {
    /// Creates an empty `Bytes`.
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Copies `data` into a new shared buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes { data: data.into() }
    }

    /// Creates `Bytes` from a static slice.
    pub fn from_static(data: &'static [u8]) -> Self {
        Bytes { data: data.into() }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Copies the contents into a fresh `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.data.to_vec()
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        &self.data
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes { data: v.into() }
    }
}

impl From<&[u8]> for Bytes {
    fn from(s: &[u8]) -> Self {
        Bytes::copy_from_slice(s)
    }
}

impl From<&str> for Bytes {
    fn from(s: &str) -> Self {
        Bytes::copy_from_slice(s.as_bytes())
    }
}

impl From<Box<[u8]>> for Bytes {
    fn from(b: Box<[u8]>) -> Self {
        Bytes { data: b.into() }
    }
}

impl<const N: usize> From<[u8; N]> for Bytes {
    fn from(a: [u8; N]) -> Self {
        Bytes::copy_from_slice(&a)
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.data[..] == other.data[..]
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.data[..] == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.data[..] == other[..]
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.data.hash(state);
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.data.cmp(&other.data)
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.data.iter() {
            match b {
                b'"' => write!(f, "\\\"")?,
                b'\\' => write!(f, "\\\\")?,
                0x20..=0x7e => write!(f, "{}", b as char)?,
                _ => write!(f, "\\x{b:02x}")?,
            }
        }
        write!(f, "\"")
    }
}

impl IntoIterator for Bytes {
    type Item = u8;
    type IntoIter = std::vec::IntoIter<u8>;

    fn into_iter(self) -> Self::IntoIter {
        self.to_vec().into_iter()
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;

    fn into_iter(self) -> Self::IntoIter {
        self.data.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_equality() {
        let b = Bytes::from(vec![1u8, 2, 3]);
        assert_eq!(b.len(), 3);
        assert_eq!(b.to_vec(), vec![1, 2, 3]);
        assert_eq!(b, Bytes::copy_from_slice(&[1, 2, 3]));
        assert_eq!(b.as_ref(), &[1u8, 2, 3][..]);
    }

    #[test]
    fn clone_is_shallow() {
        let b = Bytes::from(vec![9u8; 1024]);
        let c = b.clone();
        assert!(std::ptr::eq(b.as_ref().as_ptr(), c.as_ref().as_ptr()));
    }

    #[test]
    fn empty_default() {
        let b = Bytes::new();
        assert!(b.is_empty());
        assert_eq!(b, Bytes::default());
    }
}
