//! Golden signed digests. Every statement ADLP verifies a signature over
//! — the protocol's binding digest, a signed tree head, a witness
//! cosignature, a replica attestation in both scopes, an epoch seal, a
//! dispute evidence envelope and a resolver vote — is built on fixed
//! fields by its product signing path. For each, the test pins the hex of
//! the digest the signature covers (computed here from the documented
//! layout) and the hex of the signature a seeded 512-bit key makes over
//! it. PKCS#1 v1.5 is deterministic, so a refactor that moves one signed
//! byte fails here even when every round trip stays green. Each statement
//! must also verify under its signer's key and fail under another one.

use adlp_audit::ContestedVerdict;
use adlp_cluster::{AttestationScope, EpochSeal, ReplicaAttestor, ShardRoot};
use adlp_crypto::rsa::RsaPrivateKey;
use adlp_crypto::sha256::binding_digest;
use adlp_crypto::{hex, pkcs1, sha256, Digest, RsaKeyPair, Sha256, Statement};
use adlp_dispute::{Evidence, Resolver, SignedEvidence, Vote};
use adlp_logger::encoding::{write_bytes, write_str, write_uvarint};
use adlp_logger::sth::TreeHeadSigner;
use adlp_logger::{Binding, Keyring, RecordingWindow, Wire};
use adlp_pubsub::{NodeId, Topic};
use adlp_witness::Cosignature;
use rand::SeedableRng;

/// `(statement, hex of the signed digest, hex of the signer's signature)`.
const PINS: &[(&str, &str, &str)] = &[
    (
        "binding",
        "475bedb5fd4acc40d282e447ff35b6856e5e3ad7ef338c3af3396f2c85a1ec56",
        "80f1a6aa5fb9027da9a444a7ee16c92a7d324382fae57933066fff91b5ea14a9\
         36911917d621d8c1788dee019a60a4071512bdd54bf5445790c42c6926749677",
    ),
    (
        "sth",
        "5078e3c8467613592ea94f30912b7c6bf3b62910490ec0dd3c292800545647a4",
        "497a9d476231f924b54679928e618e11c15a15c0b2cdfcda7a76a028e6233eec\
         da5fccdd1727cd52fde9542e206f665054a43ad4df1750940918d275c8c209f5",
    ),
    (
        "cosignature",
        "db89011be454870d37914cbc3a03efa94976ef8ab653e8ea0d18bcd3fbdd1454",
        "3423d1843d44f35d8de08fd6ee0272b6c493e6309d41591a5892ceb06507024a\
         a336e070a5c76b3ff65a9dac7a11e64afdc9e80009d9f2d2067048b35967de0c",
    ),
    (
        "attestation_head",
        "6050548f31cb8ba477a2bb596f98d64c1e11bb985a64c64a21d1b224c12aa214",
        "4f4e154b741e2eb8700ce70eb67c7837a778779b73d74fcdb2c204390be7e690\
         e2a48bf911fd4f0f2e569d37212195f24b9ee66fedecc685ed98c48c968621b8",
    ),
    (
        "attestation_epoch",
        "10162f5d068b3f06d490b40d3c08f7aa809331a2ec46fa39f2d16f22eebcc0b3",
        "06e610b536845b547433424a8ff3389deb3bdf115a2ecd2173192b7b2c6de371\
         d26e02e39de22c5c07baeb5eab625b405d2483c25e8d2c336ecc92155f7c63e3",
    ),
    (
        "epoch_seal",
        "fa2d26ab70df06042159cf990a76d35d80e9ca3033387789c461540308560aee",
        "6637a3a0c8b9d49b5e677309034539ab37ea0bb56cded369303060a094d8967d\
         ad0578d2a3e4a28235208db7c0e222cfa2a9bbeedad0034933d9563d051b2df5",
    ),
    (
        "evidence",
        "461d7100edcc855fe32552953a80ccc3eaed1faa3d363c306cf9160fb02c6686",
        "b44864fa28ea203c3331f4474481f9bba218c774323b7838e8a6764945fcc8eb\
         67d0fd4c5918768ad7d7bf913873ab3f70408b917795b26bd7ae7cd5f6400b5a",
    ),
    (
        "vote",
        "cd57864f72aa5c5d8ab889884a4454c59bd8ead7850b27a1ad2acfbf7ea498fc",
        "6a54282a1ac0696aa52a7ba637ccdfe7f8b3888331e67e34587e58aca58783da\
         db49eb16bcd2b243a3f8aa584e0d6a68e2644b59aa2dccc95099c0d24131ae21",
    ),
];

struct Keys {
    signer: RsaKeyPair,
    other: RsaKeyPair,
}

impl Keys {
    fn new() -> Self {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3612);
        let signer = RsaKeyPair::generate(512, &mut rng);
        let other = RsaKeyPair::generate(512, &mut rng);
        Keys { signer, other }
    }

    fn private(&self) -> RsaPrivateKey {
        RsaPrivateKey::from_bytes(&self.signer.private_key().to_bytes()).unwrap()
    }
}

fn root(tag: u8) -> Digest {
    sha256(&[tag; 8])
}

fn log_id() -> NodeId {
    NodeId::new("shard-1")
}

/// Checks one statement against its pins: `digest`, computed from the
/// documented layout, must be what the statement signs and what the
/// signer's key signed, both hexes must match, and the statement must
/// verify when its signer's key is on file and fail when another key is
/// filed under that signer.
fn check<S: Statement>(keys: &Keys, name: &str, digest: Digest, statement: &S) {
    let (_, digest_pin, sig_pin) = PINS
        .iter()
        .find(|(n, _, _)| *n == name)
        .unwrap_or_else(|| panic!("no pin for {name}"));
    let digest_hex = hex::encode(digest.as_bytes());
    let sig_hex = hex::encode(statement.signature().as_bytes());
    assert_eq!(
        (digest_hex.as_str(), sig_hex.as_str()),
        (*digest_pin, *sig_pin),
        "{name}: signed digest or signature moved"
    );
    assert_eq!(
        statement.signed_digest(),
        Some(digest),
        "{name}: the statement signs another digest than its documented layout"
    );
    assert!(
        pkcs1::verify_digest(keys.signer.public_key(), &digest, statement.signature()),
        "{name}: the signature does not cover the documented digest"
    );
    let filed =
        |key: &RsaKeyPair| Keyring::new().with(statement.signer(), key.public_key().clone());
    assert!(
        filed(&keys.signer).verify(statement),
        "{name}: refused under its signer's key"
    );
    assert!(
        !filed(&keys.other).verify(statement),
        "{name}: accepted under another key"
    );
}

#[test]
fn every_signed_digest_and_signature_is_byte_identical() {
    let keys = Keys::new();

    // The protocol binding h(len ‖ type ‖ seq ‖ h(D)), big-endian (§IV).
    let payload_digest = sha256(b"steering 0.10");
    let digest = {
        let mut h = Sha256::new();
        h.update(&5u32.to_be_bytes());
        h.update(b"/ctrl");
        h.update(&42u64.to_be_bytes());
        h.update(payload_digest.as_bytes());
        h.finalize()
    };
    let binding = Binding {
        signer: NodeId::new("camera"),
        topic: Topic::new("/ctrl"),
        seq: 42,
        payload_digest,
        signature: pkcs1::sign_digest(
            keys.signer.private_key(),
            &binding_digest("/ctrl", 42, &payload_digest),
        )
        .unwrap(),
    };
    check(&keys, "binding", digest, &binding);

    // h("adlp-witness/sth" ‖ len(log) ‖ log ‖ epoch ‖ size ‖ root), little-endian.
    let sth = TreeHeadSigner::new(log_id(), keys.private())
        .sign(3, 9, root(1))
        .unwrap();
    let digest = {
        let mut h = Sha256::new();
        h.update(b"adlp-witness/sth");
        h.update(&7u64.to_le_bytes());
        h.update(b"shard-1");
        h.update(&3u64.to_le_bytes());
        h.update(&9u64.to_le_bytes());
        h.update(root(1).as_bytes());
        h.finalize()
    };
    check(&keys, "sth", digest, &sth);

    // h("adlp-witness/cosign" ‖ witness ‖ len(log) ‖ log ‖ size ‖ root).
    let cosig = Cosignature::sign(2, &keys.private(), log_id(), 9, root(1)).unwrap();
    let digest = {
        let mut h = Sha256::new();
        h.update(b"adlp-witness/cosign");
        h.update(&2u64.to_le_bytes());
        h.update(&7u64.to_le_bytes());
        h.update(b"shard-1");
        h.update(&9u64.to_le_bytes());
        h.update(root(1).as_bytes());
        h.finalize()
    };
    check(&keys, "cosignature", digest, &cosig);

    // h("adlp-cluster/attested-root" ‖ shard ‖ replica ‖ incarnation ‖
    //   scope tag ‖ scope value ‖ root).
    let attestor = ReplicaAttestor::new(1, 3, keys.private());
    attestor.set_incarnation(2).unwrap();
    for (name, scope, tag, value) in [
        (
            "attestation_head",
            AttestationScope::Head { length: 9 },
            1u8,
            9u64,
        ),
        (
            "attestation_epoch",
            AttestationScope::Epoch { epoch: 4 },
            2u8,
            4u64,
        ),
    ] {
        let att = attestor.attest(scope, root(2)).unwrap();
        let digest = {
            let mut h = Sha256::new();
            h.update(b"adlp-cluster/attested-root");
            h.update(&1u64.to_le_bytes());
            h.update(&3u64.to_le_bytes());
            h.update(&2u64.to_le_bytes());
            h.update(&[tag]);
            h.update(&value.to_le_bytes());
            h.update(root(2).as_bytes());
            h.finalize()
        };
        check(&keys, name, digest, &att);
    }

    // h("adlp-cluster/epoch-seal" ‖ epoch ‖ super_root).
    let shard_roots = vec![
        ShardRoot {
            shard: 0,
            leaf_count: 5,
            root: root(3),
        },
        ShardRoot {
            shard: 1,
            leaf_count: 9,
            root: root(4),
        },
    ];
    let seal = EpochSeal::build(4, shard_roots, keys.signer.private_key()).unwrap();
    let digest = {
        let mut h = Sha256::new();
        h.update(b"adlp-cluster/epoch-seal");
        h.update(&4u64.to_le_bytes());
        h.update(seal.super_root.as_bytes());
        h.finalize()
    };
    check(&keys, "epoch_seal", digest, &seal);

    // h("adlp-dispute/evidence" ‖ str(party) ‖ uvarint(dispute) ‖
    //   uvarint(round) ‖ bytes(evidence)).
    let window =
        RecordingWindow::from_frames(3, 4, &[(3, b"entry-a".to_vec()), (4, b"entry-b".to_vec())]);
    let evidence = SignedEvidence::sign(
        NodeId::new("camera"),
        7,
        1,
        Evidence::Recording(window),
        keys.signer.private_key(),
    )
    .unwrap();
    let digest = {
        let mut buf = Vec::new();
        write_str(&mut buf, "camera");
        write_uvarint(&mut buf, 7);
        write_uvarint(&mut buf, 1);
        write_bytes(&mut buf, &evidence.evidence.encode());
        let mut h = Sha256::new();
        h.update(b"adlp-dispute/evidence");
        h.update(&buf);
        h.finalize()
    };
    check(&keys, "evidence", digest, &evidence);

    // h("adlp-dispute/vote" ‖ uvarint(instance) ‖ str(resolver) ‖
    //   uvarint(dispute) ‖ uvarint(round) ‖ vote ‖ claim digest ‖
    //   evidence-set digest).
    let claim = ContestedVerdict::SplitView {
        log: log_id(),
        size: 9,
    };
    let vote = Resolver::new(NodeId::new("resolver-0"), keys.private())
        .cast(
            11,
            7,
            1,
            Vote::Overturn,
            &claim,
            std::slice::from_ref(&evidence),
        )
        .unwrap();
    let digest = {
        let mut buf = Vec::new();
        write_uvarint(&mut buf, 11);
        write_str(&mut buf, "resolver-0");
        write_uvarint(&mut buf, 7);
        write_uvarint(&mut buf, 1);
        buf.push(1);
        buf.extend_from_slice(vote.claim_digest.as_bytes());
        buf.extend_from_slice(vote.evidence_digest.as_bytes());
        let mut h = Sha256::new();
        h.update(b"adlp-dispute/vote");
        h.update(&buf);
        h.finalize()
    };
    check(&keys, "vote", digest, &vote);
}
