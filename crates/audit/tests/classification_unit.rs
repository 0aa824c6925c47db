//! Synthetic-entry tests for the classification engine: entries are built
//! by hand with real keys, bypassing the transport, so each branch of the
//! dispute logic can be targeted precisely.

use adlp_audit::{Anomaly, AuditSession, Auditor, EntryClass, InvalidReason};
use adlp_core::ComponentIdentity;
use adlp_crypto::sha256::{binding_digest, sha256};
use adlp_crypto::Signature;
use adlp_logger::{AckRecord, Direction, KeyRegistry, LogEntry, PayloadRecord};
use adlp_pubsub::{NodeId, Topic};
use rand::SeedableRng;

struct Pair {
    keys: KeyRegistry,
    publisher: ComponentIdentity,
    subscriber: ComponentIdentity,
}

fn pair() -> Pair {
    let mut rng = rand::rngs::StdRng::seed_from_u64(2718);
    let publisher = ComponentIdentity::generate("pubber", 512, &mut rng);
    let subscriber = ComponentIdentity::generate("subber", 512, &mut rng);
    let keys = KeyRegistry::new();
    keys.register(publisher.id(), publisher.public_key().clone())
        .unwrap();
    keys.register(subscriber.id(), subscriber.public_key().clone())
        .unwrap();
    Pair {
        keys,
        publisher,
        subscriber,
    }
}

fn auditor(p: &Pair) -> Auditor {
    Auditor::new(p.keys.clone()).with_topology([(Topic::new("t"), p.publisher.id().clone())])
}

/// Builds the faithful (publisher entry, subscriber entry) pair for `body`.
fn faithful_entries(p: &Pair, seq: u64, body: &[u8]) -> (LogEntry, LogEntry) {
    let digest = sha256(body);
    let bound = binding_digest("t", seq, &digest);
    let s_x = p.publisher.sign_digest(&bound).unwrap();
    let s_y = p.subscriber.sign_digest(&bound).unwrap();
    let pub_entry = LogEntry {
        component: p.publisher.id().clone(),
        topic: Topic::new("t"),
        direction: Direction::Out,
        seq,
        timestamp_ns: 100,
        payload: PayloadRecord::Data(body.to_vec()),
        own_sig: Some(s_x.clone()),
        peer_sig: Some(s_y.clone()),
        peer_hash: Some(digest),
        peer: Some(p.subscriber.id().clone()),
        acks: Vec::new(),
    };
    let sub_entry = LogEntry {
        component: p.subscriber.id().clone(),
        topic: Topic::new("t"),
        direction: Direction::In,
        seq,
        timestamp_ns: 110,
        payload: PayloadRecord::Hash(digest),
        own_sig: Some(s_y),
        peer_sig: Some(s_x),
        peer_hash: None,
        peer: Some(p.publisher.id().clone()),
        acks: Vec::new(),
    };
    (pub_entry, sub_entry)
}

#[test]
fn faithful_pair_is_valid() {
    let p = pair();
    let (pe, se) = faithful_entries(&p, 1, b"payload");
    let report = auditor(&p).audit(&[pe, se]);
    assert!(report.all_clear(), "{report:?}");
    assert_eq!(report.links.len(), 1);
    assert_eq!(report.links[0].publisher_entry, Some(EntryClass::Valid));
    assert_eq!(report.links[0].subscriber_entry, Some(EntryClass::Valid));
}

#[test]
fn unknown_component_rejected() {
    let p = pair();
    let (mut pe, se) = faithful_entries(&p, 1, b"payload");
    pe.component = NodeId::new("stranger");
    pe.topic = Topic::new("other"); // avoid WrongPublisher masking
    let report = auditor(&p).audit(&[pe, se]);
    assert!(report
        .rejected_entries
        .iter()
        .any(|(_, r)| *r == InvalidReason::UnknownComponent));
}

#[test]
fn wrong_publisher_rejected() {
    let p = pair();
    let (pe, se) = faithful_entries(&p, 1, b"payload");
    // The subscriber claims to have *published* topic t it doesn't own.
    let mut forged = se.clone();
    forged.direction = Direction::Out;
    let report = auditor(&p).audit(&[pe, se, forged]);
    assert!(report
        .rejected_entries
        .iter()
        .any(|(_, r)| *r == InvalidReason::WrongPublisher));
}

#[test]
fn duplicate_seq_replay_rejected() {
    let p = pair();
    let (pe, se) = faithful_entries(&p, 1, b"payload");
    let report = auditor(&p).audit(&[pe.clone(), se.clone(), se.clone()]);
    assert!(report
        .rejected_entries
        .iter()
        .any(|(_, r)| *r == InvalidReason::DuplicateSeq));
    let report = auditor(&p).audit(&[pe.clone(), pe, se]);
    assert!(report
        .rejected_entries
        .iter()
        .any(|(_, r)| *r == InvalidReason::DuplicateSeq));
}

#[test]
fn tampered_own_signature_is_authenticity_failure() {
    let p = pair();
    let (mut pe, se) = faithful_entries(&p, 1, b"payload");
    pe.payload = PayloadRecord::Data(b"different".to_vec()); // sig no longer matches
    let report = auditor(&p).audit(&[pe, se]);
    assert!(report
        .rejected_entries
        .iter()
        .any(|(_, r)| *r == InvalidReason::AuthenticityFailure));
    assert!(report
        .anomalies
        .iter()
        .any(|a| matches!(a, Anomaly::ImpersonationSuspected { .. })));
}

#[test]
fn dispute_resolved_against_publisher() {
    // Publisher logs D' while the subscriber holds s_x over D.
    let p = pair();
    let (_, se) = faithful_entries(&p, 1, b"real-data");
    let fake = b"fake-data".to_vec();
    let fake_digest = sha256(&fake);
    let pe = LogEntry {
        component: p.publisher.id().clone(),
        topic: Topic::new("t"),
        direction: Direction::Out,
        seq: 1,
        timestamp_ns: 100,
        payload: PayloadRecord::Data(fake),
        own_sig: Some(
            p.publisher
                .sign_digest(&binding_digest("t", 1, &fake_digest))
                .unwrap(),
        ),
        // It still holds the subscriber's genuine ack over the REAL data.
        peer_sig: se.own_sig.clone(),
        peer_hash: Some(sha256(b"real-data")),
        peer: Some(p.subscriber.id().clone()),
        acks: Vec::new(),
    };
    let report = auditor(&p).audit(&[pe, se]);
    assert_eq!(
        report.links[0].publisher_entry,
        Some(EntryClass::Invalid(InvalidReason::FalsifiedPayload))
    );
    assert_eq!(report.links[0].subscriber_entry, Some(EntryClass::Valid));
}

#[test]
fn dispute_resolved_against_subscriber() {
    // Subscriber logs D'' but acknowledged D; publisher's entry carries the
    // genuine ack over D.
    let p = pair();
    let (pe, _) = faithful_entries(&p, 1, b"real-data");
    let fake_digest = sha256(b"claimed-other-data");
    let se = LogEntry {
        component: p.subscriber.id().clone(),
        topic: Topic::new("t"),
        direction: Direction::In,
        seq: 1,
        timestamp_ns: 110,
        payload: PayloadRecord::Hash(fake_digest),
        own_sig: Some(
            p.subscriber
                .sign_digest(&binding_digest("t", 1, &fake_digest))
                .unwrap(),
        ),
        // It cannot forge s_x over its lie; it reuses the real s_x (which
        // verifies only against the real digest).
        peer_sig: pe.own_sig.clone(),
        peer_hash: None,
        peer: Some(p.publisher.id().clone()),
        acks: Vec::new(),
    };
    let report = auditor(&p).audit(&[pe, se]);
    assert_eq!(report.links[0].publisher_entry, Some(EntryClass::Valid));
    assert_eq!(
        report.links[0].subscriber_entry,
        Some(EntryClass::Invalid(InvalidReason::FalsifiedPayload))
    );
}

#[test]
fn figure8_invalid_pair_blamed_on_fabricator() {
    // The subscriber fabricates (I_y, s_r) with random s_r (Figure 8(b)):
    // under requirement (4) the transport would never deliver an invalid
    // pair, so the subscriber is the fabricator.
    let p = pair();
    let digest = sha256(b"whatever");
    let se = LogEntry {
        component: p.subscriber.id().clone(),
        topic: Topic::new("t"),
        direction: Direction::In,
        seq: 1,
        timestamp_ns: 110,
        payload: PayloadRecord::Hash(digest),
        own_sig: Some(
            p.subscriber
                .sign_digest(&binding_digest("t", 1, &digest))
                .unwrap(),
        ),
        peer_sig: Some(Signature::from_bytes(vec![0xab; 64])),
        peer_hash: None,
        peer: Some(p.publisher.id().clone()),
        acks: Vec::new(),
    };
    let report = auditor(&p).audit(&[se]);
    assert_eq!(
        report.links[0].subscriber_entry,
        Some(EntryClass::Invalid(InvalidReason::FabricatedPeerSignature))
    );
}

#[test]
fn aggregated_entry_audits_per_subscriber() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(31);
    let p = pair();
    let third = ComponentIdentity::generate("third", 512, &mut rng);
    p.keys
        .register(third.id(), third.public_key().clone())
        .unwrap();

    let body = b"fanout".to_vec();
    let digest = sha256(&body);
    let bound = binding_digest("t", 1, &digest);
    let s_x = p.publisher.sign_digest(&bound).unwrap();
    let pub_entry = LogEntry {
        component: p.publisher.id().clone(),
        topic: Topic::new("t"),
        direction: Direction::Out,
        seq: 1,
        timestamp_ns: 100,
        payload: PayloadRecord::Data(body.clone()),
        own_sig: Some(s_x.clone()),
        peer_sig: None,
        peer_hash: None,
        peer: None,
        acks: vec![
            AckRecord {
                subscriber: p.subscriber.id().clone(),
                hash: digest,
                sig: p.subscriber.sign_digest(&bound).unwrap(),
            },
            AckRecord {
                subscriber: third.id().clone(),
                hash: digest,
                sig: third.sign_digest(&bound).unwrap(),
            },
        ],
    };
    // Only the first subscriber logged its receipt; the third hid.
    let sub_entry = LogEntry {
        component: p.subscriber.id().clone(),
        topic: Topic::new("t"),
        direction: Direction::In,
        seq: 1,
        timestamp_ns: 110,
        payload: PayloadRecord::Hash(digest),
        own_sig: Some(p.subscriber.sign_digest(&bound).unwrap()),
        peer_sig: Some(s_x),
        peer_hash: None,
        peer: Some(p.publisher.id().clone()),
        acks: Vec::new(),
    };
    let report = auditor(&p).audit(&[pub_entry, sub_entry]);
    assert_eq!(report.links.len(), 2);
    assert!(report
        .hidden
        .iter()
        .any(|h| h.component == NodeId::new("third") && h.direction == Direction::In));
    assert!(report.verdicts[&NodeId::new("subber")].is_faithful());
}

#[test]
fn relabeled_seq_cannot_frame_the_publisher() {
    // Attack: the subscriber takes its genuine (valid) receipt entry for
    // seq 1 and re-enters it relabeled as seq 7 — attempting to "prove" a
    // publication the publisher never made (and thereby convict it of
    // hiding). Because signatures cover h(seq ‖ h(D)), the relabeled entry
    // fails authenticity outright.
    let p = pair();
    let (pe, se) = faithful_entries(&p, 1, b"payload");
    let mut relabeled = se.clone();
    relabeled.seq = 7;
    let report = auditor(&p).audit(&[pe, se, relabeled]);
    // The forged entry is rejected, not treated as evidence.
    assert!(report
        .rejected_entries
        .iter()
        .any(|(e, r)| e.seq == 7 && *r == InvalidReason::AuthenticityFailure));
    // The publisher is NOT convicted of hiding a phantom publication.
    assert!(report
        .verdicts
        .get(&p.publisher.id().clone())
        .is_none_or(|v| v.is_faithful()));
    assert!(report.hidden.iter().all(|h| h.seq != 7));
}

#[test]
fn single_field_mutations_never_convict_the_counterpart() {
    // Whatever single field one side tampers with in its own entry, the
    // other (faithful) side must never be convicted.
    let p = pair();
    let auditor = auditor(&p);
    let (pe, se) = faithful_entries(&p, 1, b"payload");

    // Subscriber-side mutations: publisher must stay clean.
    let sub_mutations: Vec<Box<dyn Fn(&mut LogEntry)>> = vec![
        Box::new(|e| e.seq = 9),
        Box::new(|e| e.timestamp_ns = 0),
        Box::new(|e| e.payload = PayloadRecord::Hash(sha256(b"lie"))),
        Box::new(|e| e.peer_sig = Some(Signature::from_bytes(vec![1u8; 64]))),
        Box::new(|e| e.peer_sig = None),
        Box::new(|e| e.own_sig = Some(Signature::from_bytes(vec![2u8; 64]))),
        Box::new(|e| e.peer = Some(NodeId::new("someone_else"))),
        Box::new(|e| e.topic = Topic::new("other_topic")),
    ];
    for (i, mutate) in sub_mutations.iter().enumerate() {
        let mut mutated = se.clone();
        mutate(&mut mutated);
        let report = auditor.audit(&[pe.clone(), mutated]);
        assert!(
            report
                .verdicts
                .get(&p.publisher.id().clone())
                .is_none_or(|v| v.is_faithful()),
            "sub mutation {i} convicted the faithful publisher: {report:?}"
        );
    }

    // Publisher-side mutations: subscriber must stay clean.
    let pub_mutations: Vec<Box<dyn Fn(&mut LogEntry)>> = vec![
        Box::new(|e| e.seq = 9),
        Box::new(|e| e.timestamp_ns = 0),
        Box::new(|e| e.payload = PayloadRecord::Data(b"lie".to_vec())),
        Box::new(|e| e.peer_sig = Some(Signature::from_bytes(vec![1u8; 64]))),
        Box::new(|e| e.peer_hash = Some(sha256(b"lie"))),
        Box::new(|e| e.own_sig = Some(Signature::from_bytes(vec![2u8; 64]))),
        Box::new(|e| {
            e.peer_sig = None;
            e.peer_hash = None;
        }),
    ];
    for (i, mutate) in pub_mutations.iter().enumerate() {
        let mut mutated = pe.clone();
        mutate(&mut mutated);
        let report = auditor.audit(&[mutated, se.clone()]);
        assert!(
            report
                .verdicts
                .get(&p.subscriber.id().clone())
                .is_none_or(|v| v.is_faithful()),
            "pub mutation {i} convicted the faithful subscriber: {report:?}"
        );
    }
}

#[test]
fn empty_log_audits_clean() {
    let p = pair();
    let report = auditor(&p).audit(&[]);
    assert!(report.all_clear());
    assert_eq!(report.link_count(), 0);
}

#[test]
fn sequence_gap_anomaly_reported() {
    let p = pair();
    let (pe1, se1) = faithful_entries(&p, 1, b"a");
    let (pe3, se3) = faithful_entries(&p, 3, b"c");
    let report = auditor(&p).audit(&[pe1, se1, pe3, se3]);
    assert!(report.anomalies.iter().any(|a| matches!(
        a,
        Anomaly::SequenceGap { missing, .. } if missing == &vec![2]
    )));
}

#[test]
fn late_evidence_upgrades_verdicts() {
    let p = pair();
    let (pe, se) = faithful_entries(&p, 1, b"payload");
    let mut session = AuditSession::new(auditor(&p));
    assert!(session.is_empty());

    // Publisher entry arrives first: complete with ack, so both sides are
    // provable and the subscriber is exposed as hiding.
    let r1 = session.ingest([&pe]);
    assert_eq!(r1.links.len(), 1);
    assert_eq!(r1.hidden.len(), 1);

    // The subscriber's entry arrives (it was merely slow, not hiding): the
    // hidden record disappears and both classify valid.
    let r2 = session.ingest([&se]);
    assert!(r2.hidden.is_empty());
    assert_eq!(r2.links[0].publisher_entry, Some(EntryClass::Valid));
    assert_eq!(r2.links[0].subscriber_entry, Some(EntryClass::Valid));
    assert_eq!(session.len(), 2);
    assert!(session.report().all_clear());
}

#[test]
fn empty_ingest_audits_clean() {
    let p = pair();
    let mut session = AuditSession::new(auditor(&p));
    assert!(session.ingest(std::iter::empty()).all_clear());
    assert!(session.is_empty());
}
