//! Golden bytes for the evidence and state encodings above the pub/sub
//! layer that `crates/logger/tests/golden_frames.rs` and the cluster's
//! attestation goldens do not already pin: the attestor's state cell, a
//! cosignature, a split-view proof and its gossip frame, all three evidence
//! variants, a signed evidence envelope, a signed vote, a dispute, a
//! resolution proof carrying a vote, the dispute ledger's file, all three
//! contested verdicts, and the refusal of an epoch-scope attestation and
//! of a proof over two of them.
//!
//! Signatures are fixed byte strings and no key is generated, so the file
//! runs in well under a second: none of these decoders verifies a
//! signature. The bytes still matter under signatures — a vote signs the
//! digest of its claim's encoding and of the evidence set's encodings — so
//! a moved byte here is a broken vote, not just a format change.

use adlp_audit::ContestedVerdict;
use adlp_cluster::attestation::AttestorState;
use adlp_cluster::{HeadAttestation, ReplicaAttestor};
use adlp_crypto::rsa::RsaPrivateKey;
use adlp_crypto::{hex, sha256, Signature};
use adlp_dispute::{
    claim_digest, evidence_set_digest, Dispute, DisputeConfig, DisputeLedger, Evidence, Outcome,
    Phase, ResolutionProof, SignedEvidence, SignedVote, Vote, DISPUTE_STATE_FILE,
};
use adlp_logger::encoding::*;
use adlp_logger::{
    ConflictProof, Direction, LogError, MemStorage, RecordingWindow, SignedTreeHead, Storage,
};
use adlp_pubsub::{NodeId, Topic};
use adlp_witness::{decode_conviction_frame, encode_conviction_frame, Cosignature};
use std::sync::Arc;

fn check(name: &str, actual: &[u8], golden: &str) {
    assert_eq!(hex::encode(actual), golden, "{name}: encoding moved");
}

fn unhex(golden: &str) -> Vec<u8> {
    hex::decode(golden).unwrap()
}

fn device_with(name: &str, golden: &str) -> Arc<MemStorage> {
    let device = Arc::new(MemStorage::new());
    device.write_replace(name, &unhex(golden)).unwrap();
    device
}

fn file(device: &MemStorage, name: &str) -> Vec<u8> {
    device.read(name).unwrap().unwrap()
}

fn sig(byte: u8) -> Signature {
    Signature::from_bytes(vec![byte; 8])
}

fn node(name: &str) -> NodeId {
    NodeId::new(name)
}

fn sth(epoch: u64, root: &[u8], signature: u8) -> SignedTreeHead {
    SignedTreeHead {
        log: node("logger"),
        epoch,
        size: 5,
        root: sha256(root),
        signature: sig(signature),
    }
}

fn split_view() -> ConflictProof<SignedTreeHead> {
    ConflictProof {
        first: sth(1, b"x", 0x11),
        second: sth(2, b"y", 0x12),
    }
}

fn attestation(root: &[u8], signature: u8) -> HeadAttestation {
    HeadAttestation {
        shard: 1,
        replica: 2,
        incarnation: 0,
        length: 5,
        root: sha256(root),
        signature: sig(signature),
    }
}

fn evidence() -> [Evidence; 3] {
    [
        Evidence::SplitView(split_view()),
        Evidence::Equivocation(ConflictProof {
            first: attestation(b"x", 0x21),
            second: attestation(b"y", 0x22),
        }),
        Evidence::Recording(RecordingWindow {
            epoch_from: 3,
            epoch_to: 4,
            bytes: b"ADLPREC1 window".to_vec(),
        }),
    ]
}

fn signed_evidence() -> Vec<SignedEvidence> {
    evidence()
        .into_iter()
        .zip(0x31..)
        .map(|(evidence, signature)| SignedEvidence {
            party: node("camera"),
            dispute: 0,
            round: 0,
            evidence,
            signature: sig(signature),
        })
        .collect()
}

fn claims() -> [ContestedVerdict; 3] {
    [
        ContestedVerdict::Hidden {
            component: node("camera"),
            direction: Direction::Out,
            topic: Topic::new("image"),
            seq: 42,
        },
        ContestedVerdict::SplitView {
            log: node("logger"),
            size: 5,
        },
        ContestedVerdict::Equivocation {
            shard: 1,
            replica: 2,
        },
    ]
}

fn vote(claim: &ContestedVerdict, evidence: &[SignedEvidence]) -> SignedVote {
    SignedVote {
        resolver: node("resolver-0"),
        instance: 0,
        dispute: 0,
        round: 0,
        vote: Vote::Uphold,
        claim_digest: claim_digest(claim),
        evidence_digest: evidence_set_digest(evidence),
        signature: sig(0x41),
    }
}

/// A settled dispute over a hidden-entry conviction, carrying one envelope
/// of every evidence variant and the one vote of a one-resolver panel.
fn dispute() -> Dispute {
    let [claim, _, _] = claims();
    let evidence = signed_evidence();
    Dispute {
        id: 0,
        votes: vec![vote(&claim, &evidence)],
        claim,
        claimant: node("camera"),
        phase: Phase::Finalized,
        round: 0,
        panel: vec![(0, node("resolver-0"))],
        evidence,
        stakes: vec![(node("camera"), 16)],
        outcome: Some(Outcome::Upheld),
    }
}

/// A toy RSA key (p = 61, q = 53, e = 17, d = 2753): the attestor below
/// only loads and stores its state cell, and never signs.
const TOY_KEY: &str = "0000000111000000020ac1000000013d0000000135";

fn attestor() -> ReplicaAttestor {
    ReplicaAttestor::new(1, 2, RsaPrivateKey::from_bytes(&unhex(TOY_KEY)).unwrap())
}

const FRESH_CELL: &str = "41444c5041545432709e80c8000000";
const CELL: &str = "\
41444c5041545432dad93aab03ac02019f2e6d33a3717ee826353a404ba4618d1aeeb6879ad7936bce8ed5f46814924d";

#[test]
fn attestor_state_cell() {
    let fresh = Arc::new(MemStorage::new());
    attestor().bind_storage(fresh.clone(), "att").unwrap();
    check("fresh attestor cell", &file(&fresh, "att"), FRESH_CELL);

    let device = device_with("att", CELL);
    let resumed = attestor().bind_storage(device.clone(), "att").unwrap();
    let expected = AttestorState {
        incarnation: 3,
        signed_len: 300,
        signed_root: Some(sha256(b"head")),
    };
    assert_eq!(resumed, expected);
    // Binding re-stores the resumed state: the same bytes come back.
    check("resumed attestor cell", &file(&device, "att"), CELL);
}

const COSIGNATURE: &str = "\
02066c6f67676572052d711642b726b04401627ca9fbac32f5c8530fb1903cc4db02258717921a488108010101010101\
0101";
const SPLIT_VIEW: &str = "\
3e41444c5053544831ab7b938b066c6f6767657201052d711642b726b04401627ca9fbac32f5c8530fb1903cc4db0225\
8717921a48810811111111111111113e41444c50535448310784f686066c6f676765720205a1fce4363854ff888cff4b\
8e7875d600c2682390412a8cf79b37d0b11148b0fa081212121212121212";
const CONVICTION_FRAME: &str = "\
41444c50535650313e41444c5053544831ab7b938b066c6f6767657201052d711642b726b04401627ca9fbac32f5c853\
0fb1903cc4db02258717921a48810811111111111111113e41444c50535448310784f686066c6f676765720205a1fce4\
363854ff888cff4b8e7875d600c2682390412a8cf79b37d0b11148b0fa081212121212121212";

#[test]
fn witness_evidence_bytes() {
    let cosignature = Cosignature {
        witness: 2,
        log: node("logger"),
        size: 5,
        root: sha256(b"x"),
        signature: sig(0x01),
    };
    check("cosignature", &cosignature.encode(), COSIGNATURE);
    assert_eq!(
        Cosignature::decode(&unhex(COSIGNATURE)).unwrap(),
        cosignature
    );

    let proof = split_view();
    check("split-view proof", &proof.encode(), SPLIT_VIEW);
    assert_eq!(ConflictProof::decode(&unhex(SPLIT_VIEW)).unwrap(), proof);
    // The proof is its two heads, each whole in a length-delimited slot.
    let mut slots = Vec::new();
    write_bytes(&mut slots, &proof.first.encode());
    write_bytes(&mut slots, &proof.second.encode());
    assert_eq!(slots, proof.encode());

    check(
        "conviction frame",
        &encode_conviction_frame(&proof),
        CONVICTION_FRAME,
    );
    let frame = unhex(CONVICTION_FRAME);
    assert_eq!(decode_conviction_frame(&frame), Some(Ok(proof)));
}

const EPOCH_ATTESTATION: &str = "\
01020002032d711642b726b04401627ca9fbac32f5c8530fb1903cc4db02258717921a4881082323232323232323";
const EPOCH_EQUIVOCATION: &str = "\
2e01020002032d711642b726b04401627ca9fbac32f5c8530fb1903cc4db02258717921a48810823232323232323232e\
0102000203a1fce4363854ff888cff4b8e7875d600c2682390412a8cf79b37d0b11148b0fa082424242424242424";

/// An attestation with scope tag 2 (the retired epoch countersignature),
/// and a proof over two of them, as they were encoded: both now fail to
/// decode rather than parse as something else.
#[test]
fn epoch_scope_attestation_bytes() {
    assert!(matches!(
        HeadAttestation::decode(&unhex(EPOCH_ATTESTATION)),
        Err(LogError::Malformed(_))
    ));
    assert!(matches!(
        ConflictProof::<HeadAttestation>::decode(&unhex(EPOCH_EQUIVOCATION)),
        Err(LogError::Malformed(_))
    ));
}

const EVIDENCE: [&str; 3] = [
    "\
017e3e41444c5053544831ab7b938b066c6f6767657201052d711642b726b04401627ca9fbac32f5c8530fb1903cc4db\
02258717921a48810811111111111111113e41444c50535448310784f686066c6f676765720205a1fce4363854ff888c\
ff4b8e7875d600c2682390412a8cf79b37d0b11148b0fa081212121212121212",
    "\
025e2e01020001052d711642b726b04401627ca9fbac32f5c8530fb1903cc4db02258717921a48810821212121212121\
212e0102000105a1fce4363854ff888cff4b8e7875d600c2682390412a8cf79b37d0b11148b0fa082222222222222222",
    "0303040f41444c50524543312077696e646f77",
];
const SIGNED_EVIDENCE: &str = "\
0663616d65726100008001017e3e41444c5053544831ab7b938b066c6f6767657201052d711642b726b04401627ca9fb\
ac32f5c8530fb1903cc4db02258717921a48810811111111111111113e41444c50535448310784f686066c6f67676572\
0205a1fce4363854ff888cff4b8e7875d600c2682390412a8cf79b37d0b11148b0fa0812121212121212120831313131\
31313131";
const VOTE: &str = "\
0a7265736f6c7665722d3000000000d30daf1144300f43f1a648e924d062e5b8bca85ae5e8e6e00d10e3e7ad92de4b9f\
71d3c5db3fc2b2b8e188e24ae22254f4ea762edd9f788eb965a45f439d95ec084141414141414141";
const VERDICTS: [&str; 3] = [
    "010663616d6572610005696d6167652a",
    "02066c6f6767657205",
    "030102",
];
const DISPUTE: &str = "\
0010010663616d6572610005696d6167652a0663616d657261040001000a7265736f6c7665722d300394010663616d65\
726100008001017e3e41444c5053544831ab7b938b066c6f6767657201052d711642b726b04401627ca9fbac32f5c853\
0fb1903cc4db02258717921a48810811111111111111113e41444c50535448310784f686066c6f676765720205a1fce4\
363854ff888cff4b8e7875d600c2682390412a8cf79b37d0b11148b0fa08121212121212121208313131313131313173\
0663616d657261000060025e2e01020001052d711642b726b04401627ca9fbac32f5c8530fb1903cc4db02258717921a\
48810821212121212121212e0102000105a1fce4363854ff888cff4b8e7875d600c2682390412a8cf79b37d0b11148b0\
fa082222222222222222083232323232323232260663616d6572610000130303040f41444c50524543312077696e646f\
7708333333333333333301580a7265736f6c7665722d3000000000d30daf1144300f43f1a648e924d062e5b8bca85ae5\
e8e6e00d10e3e7ad92de4b9f71d3c5db3fc2b2b8e188e24ae22254f4ea762edd9f788eb965a45f439d95ec0841414141\
41414141010663616d6572611001";

#[test]
fn dispute_evidence_bytes() {
    for (evidence, golden) in evidence().iter().zip(EVIDENCE) {
        check("evidence", &evidence.encode(), golden);
    }
    check(
        "signed evidence",
        &signed_evidence()[0].encode(),
        SIGNED_EVIDENCE,
    );
    for (claim, golden) in claims().iter().zip(VERDICTS) {
        check("contested verdict", &claim.encode(), golden);
    }
    let dispute = dispute();
    check("signed vote", &dispute.votes[0].encode(), VOTE);
    check("dispute", &dispute.encode(), DISPUTE);
}

const RESOLUTION: &str = "\
00000902066c6f6767657205010101580a7265736f6c7665722d30000000006b97a309399aa96b873c69c6c7cbbd8965\
98a8561cf9631e3cf727837a612a369f71d3c5db3fc2b2b8e188e24ae22254f4ea762edd9f788eb965a45f439d95ec08\
4141414141414141";

#[test]
fn resolution_proof_with_a_vote() {
    let [_, claim, _] = claims();
    let proof = ResolutionProof {
        instance: 0,
        dispute: 0,
        votes: vec![vote(&claim, &signed_evidence())],
        claim,
        outcome: Outcome::Upheld,
        rounds: 1,
    };
    check("resolution proof", &proof.encode(), RESOLUTION);
    assert_eq!(ResolutionProof::decode(&unhex(RESOLUTION)).unwrap(), proof);
}

const LEDGER: &str = "\
41444c5044535031602cff670101be030010010663616d6572610005696d6167652a0663616d657261040001000a7265\
736f6c7665722d300394010663616d65726100008001017e3e41444c5053544831ab7b938b066c6f6767657201052d71\
1642b726b04401627ca9fbac32f5c8530fb1903cc4db02258717921a48810811111111111111113e41444c5053544831\
0784f686066c6f676765720205a1fce4363854ff888cff4b8e7875d600c2682390412a8cf79b37d0b11148b0fa081212\
121212121212083131313131313131730663616d657261000060025e2e01020001052d711642b726b04401627ca9fbac\
32f5c8530fb1903cc4db02258717921a48810821212121212121212e0102000105a1fce4363854ff888cff4b8e7875d6\
00c2682390412a8cf79b37d0b11148b0fa082222222222222222083232323232323232260663616d6572610000130303\
040f41444c50524543312077696e646f7708333333333333333301580a7265736f6c7665722d3000000000d30daf1144\
300f43f1a648e924d062e5b8bca85ae5e8e6e00d10e3e7ad92de4b9f71d3c5db3fc2b2b8e188e24ae22254f4ea762edd\
9f788eb965a45f439d95ec084141414141414141010663616d6572611001";
const LEDGER_AFTER_OPEN: &str = "\
41444c5044535031c1efa1490202be030010010663616d6572610005696d6167652a0663616d657261040001000a7265\
736f6c7665722d300394010663616d65726100008001017e3e41444c5053544831ab7b938b066c6f6767657201052d71\
1642b726b04401627ca9fbac32f5c8530fb1903cc4db02258717921a48810811111111111111113e41444c5053544831\
0784f686066c6f676765720205a1fce4363854ff888cff4b8e7875d600c2682390412a8cf79b37d0b11148b0fa081212\
121212121212083131313131313131730663616d657261000060025e2e01020001052d711642b726b04401627ca9fbac\
32f5c8530fb1903cc4db02258717921a48810821212121212121212e0102000105a1fce4363854ff888cff4b8e7875d6\
00c2682390412a8cf79b37d0b11148b0fa082222222222222222083232323232323232260663616d6572610000130303\
040f41444c50524543312077696e646f7708333333333333333301580a7265736f6c7665722d3000000000d30daf1144\
300f43f1a648e924d062e5b8bca85ae5e8e6e00d10e3e7ad92de4b9f71d3c5db3fc2b2b8e188e24ae22254f4ea762edd\
9f788eb965a45f439d95ec084141414141414141010663616d65726110012d01030301020f7368617264312d7265706c\
696361320000000000010f7368617264312d7265706c696361321000";

#[test]
fn dispute_ledger_file() {
    let device = device_with(DISPUTE_STATE_FILE, LEDGER);
    let mut ledger = DisputeLedger::new(DisputeConfig::default());
    assert!(
        ledger.bind_storage(device.clone()).unwrap(),
        "a present file is resumed"
    );
    assert_eq!(ledger.dispute(0), Some(&dispute()));
    // Opening a second dispute re-stores the resumed one beside it.
    let [_, _, claim] = claims();
    assert_eq!(ledger.open(claim.convicted(), claim).unwrap(), 1);
    check(
        "ledger file after open",
        &file(&device, DISPUTE_STATE_FILE),
        LEDGER_AFTER_OPEN,
    );
}
