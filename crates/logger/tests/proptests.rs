//! Property-based tests for log-entry encoding and the tamper-evident
//! store.

use adlp_crypto::sha256::{sha256, Digest};
use adlp_crypto::Signature;
use adlp_logger::{AckRecord, Direction, LogEntry, LogStore, PayloadRecord};
use adlp_pubsub::{NodeId, Topic};
use proptest::prelude::*;

fn arb_digest() -> impl Strategy<Value = Digest> {
    any::<[u8; 32]>().prop_map(Digest::from)
}

fn arb_sig() -> impl Strategy<Value = Signature> {
    proptest::collection::vec(any::<u8>(), 1..200).prop_map(Signature::from_bytes)
}

fn arb_payload() -> impl Strategy<Value = PayloadRecord> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..2048).prop_map(PayloadRecord::Data),
        arb_digest().prop_map(PayloadRecord::Hash),
    ]
}

fn arb_entry() -> impl Strategy<Value = LogEntry> {
    (
        "[a-z_]{1,16}",
        "[a-z_]{1,16}",
        any::<bool>(),
        any::<u64>(),
        any::<u64>(),
        arb_payload(),
        proptest::option::of(arb_sig()),
        proptest::option::of(arb_sig()),
        proptest::option::of(arb_digest()),
        proptest::option::of("[a-z_]{1,16}"),
        proptest::collection::vec(("[a-z_]{1,12}", arb_digest(), arb_sig()), 0..4),
    )
        .prop_map(
            |(comp, topic, dir, seq, ts, payload, own, peer_sig, peer_hash, peer, acks)| LogEntry {
                component: NodeId::new(comp),
                topic: Topic::new(topic),
                direction: if dir { Direction::In } else { Direction::Out },
                seq,
                timestamp_ns: ts,
                payload,
                own_sig: own,
                peer_sig,
                peer_hash,
                peer: peer.map(NodeId::new),
                acks: acks
                    .into_iter()
                    .map(|(s, hash, sig)| AckRecord {
                        subscriber: NodeId::new(s),
                        hash,
                        sig,
                    })
                    .collect(),
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn entry_roundtrip(entry in arb_entry()) {
        let encoded = entry.encode();
        prop_assert_eq!(entry.encoded_len(), encoded.len());
        let decoded = LogEntry::decode(&encoded).unwrap();
        prop_assert_eq!(decoded, entry);
    }

    #[test]
    fn entry_decode_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = LogEntry::decode(&bytes);
    }

    #[test]
    fn entry_truncation_always_errors(entry in arb_entry(), frac in 0.0f64..1.0) {
        let encoded = entry.encode();
        let cut = ((encoded.len() as f64) * frac) as usize;
        prop_assume!(cut < encoded.len());
        prop_assert!(LogEntry::decode(&encoded[..cut]).is_err());
    }

    #[test]
    fn store_chain_detects_any_single_bitflip(
        entries in proptest::collection::vec(arb_entry(), 1..12),
        victim_frac in 0.0f64..1.0,
        bit in 0usize..8,
    ) {
        let store = LogStore::new();
        for e in &entries {
            store.append(e);
        }
        prop_assert!(store.verify_chain().is_ok());
        let victim = ((entries.len() as f64) * victim_frac) as usize % entries.len();
        let mut bytes = entries[victim].encode();
        let pos = bytes.len() / 2;
        bytes[pos] ^= 1 << bit;
        store.tamper_with_record(victim, bytes).unwrap();
        let evidence = store.verify_chain().unwrap_err();
        prop_assert_eq!(evidence.first_bad_index, victim);
    }

    #[test]
    fn payload_digest_agrees_between_forms(data in proptest::collection::vec(any::<u8>(), 0..1024)) {
        let as_data = PayloadRecord::Data(data.clone());
        let as_hash = PayloadRecord::Hash(sha256(&data));
        prop_assert_eq!(as_data.digest(), as_hash.digest());
    }
}
