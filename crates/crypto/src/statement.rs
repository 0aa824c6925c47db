//! Signed statements: the one shape of everything ADLP verifies a
//! signature over.
//!
//! The protocol binding `h(len ‖ type ‖ seq ‖ h(D))` (§IV), a logger's
//! tree head, a witness cosignature, a replica attestation, an epoch seal,
//! a dispute evidence envelope and a resolver vote are each a statement:
//! fields, a signer claimed by those fields, and a PKCS#1 v1.5 signature
//! over a domain-separated digest of them. Each type keeps its own digest
//! layout; [`Statement::verify`] is the one signature check over all of
//! them.

use crate::pkcs1::{self, Signature};
use crate::rsa::RsaPublicKey;
use crate::sha256::Digest;

/// A statement some signer vouches for with a signature over a digest of
/// its fields.
pub trait Statement {
    /// Who the statement says signed it: the id its verifying key is
    /// filed under.
    type Signer: Ord;

    /// The signer the statement claims.
    fn signer(&self) -> Self::Signer;

    /// The signature over [`Statement::signed_digest`].
    fn signature(&self) -> &Signature;

    /// The digest the signature covers, or `None` when the statement
    /// contradicts itself and so verifies under no key.
    fn signed_digest(&self) -> Option<Digest>;

    /// Whether the signature verifies under `key`.
    fn verify(&self, key: &RsaPublicKey) -> bool {
        self.signed_digest()
            .is_some_and(|digest| pkcs1::verify_digest(key, &digest, self.signature()))
    }
}
