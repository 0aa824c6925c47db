//! Property test for the signed-tree-head encoding: it round-trips for
//! arbitrary field values. Every corruption, truncation and padding of a
//! head is refused by the seal it shares with the other whole-buffer
//! formats — see `frame_props.rs`.

use adlp_crypto::pkcs1::Signature;
use adlp_crypto::sha256::Digest;
use adlp_logger::sth::{SignedTreeHead, STH_MAGIC};
use adlp_logger::Wire;
use adlp_pubsub::NodeId;
use proptest::prelude::*;

/// Arbitrary head: log names of any UTF-8 shape, full-range varint
/// fields, arbitrary root bytes, and signature blobs spanning empty to
/// larger-than-RSA-2048.
fn arb_sth() -> impl Strategy<Value = SignedTreeHead> {
    (
        "[a-zA-Z0-9/_.-]{0,48}",
        any::<u64>(),
        any::<u64>(),
        any::<[u8; 32]>(),
        proptest::collection::vec(any::<u8>(), 0..320),
    )
        .prop_map(|(log, epoch, size, root, sig)| SignedTreeHead {
            log: NodeId::new(log),
            epoch,
            size,
            root: Digest::from(root),
            signature: Signature::from_bytes(sig),
        })
}

proptest! {
    #[test]
    fn framing_round_trips(sth in arb_sth()) {
        let frame = sth.encode();
        prop_assert_eq!(&frame[..STH_MAGIC.len()], &STH_MAGIC[..]);
        let decoded = SignedTreeHead::decode(&frame).expect("own framing decodes");
        prop_assert_eq!(decoded, sth);
    }
}
