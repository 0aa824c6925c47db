//! Cryptographic substrate for ADLP, implemented from scratch.
//!
//! The ADLP paper (ICDCS 2019) instantiates its protocol with SHA-256 hashing
//! and RSA-1024 signatures in PKCS#1 v1.5 mode (via PyCrypto). This crate
//! provides the same primitives, implemented from their specifications so that
//! the reproduction is fully self-contained:
//!
//! * [`sha256`](mod@sha256) — FIPS 180-4 SHA-256 with one-shot and incremental APIs.
//! * [`bignum`] — arbitrary-precision unsigned integers ([`BigUint`]) with
//!   schoolbook and Karatsuba multiplication, Knuth Algorithm D division and
//!   Montgomery modular exponentiation.
//! * [`prime`] — Miller-Rabin probabilistic primality testing and random
//!   prime generation.
//! * [`rsa`] — RSA key generation, raw RSA, and CRT-accelerated private-key
//!   operations.
//! * [`pkcs1`] — EMSA-PKCS1-v1_5 encoding (RFC 8017 §9.2) and the signature
//!   scheme built on it.
//! * [`statement`] — the [`Statement`] trait every signed ADLP statement
//!   implements, and its one signature check.
//!
//! # Example
//!
//! ```
//! use adlp_crypto::{rsa::RsaKeyPair, sha256::sha256, pkcs1};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), adlp_crypto::CryptoError> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let keys = RsaKeyPair::generate(512, &mut rng);
//! let digest = sha256(b"camera frame 42");
//! let sig = pkcs1::sign_digest(keys.private_key(), &digest)?;
//! assert!(pkcs1::verify_digest(keys.public_key(), &digest, &sig));
//! # Ok(())
//! # }
//! ```

pub mod bignum;
pub mod ct;
pub mod hex;
pub mod hmac;
pub mod pkcs1;
pub mod prime;
pub mod rsa;
pub mod sha256;
pub mod statement;

pub use bignum::BigUint;
pub use ct::constant_time_eq;
pub use pkcs1::Signature;
pub use rsa::{RsaKeyPair, RsaPrivateKey, RsaPublicKey};
pub use sha256::{sha256, Digest, Sha256};
pub use statement::Statement;

use std::error::Error;
use std::fmt;

/// Errors produced by the cryptographic substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CryptoError {
    /// The message representative is numerically too large for the modulus.
    MessageTooLarge,
    /// The key modulus is too small for the requested encoding.
    KeyTooSmall,
    /// A division by zero was attempted.
    DivisionByZero,
    /// No modular inverse exists (operands not coprime).
    NotInvertible,
    /// A byte string could not be parsed into the expected structure.
    Malformed(&'static str),
}

impl fmt::Display for CryptoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CryptoError::MessageTooLarge => write!(f, "message representative out of range"),
            CryptoError::KeyTooSmall => write!(f, "key modulus too small for encoding"),
            CryptoError::DivisionByZero => write!(f, "division by zero"),
            CryptoError::NotInvertible => write!(f, "no modular inverse exists"),
            CryptoError::Malformed(what) => write!(f, "malformed {what}"),
        }
    }
}

impl Error for CryptoError {}
