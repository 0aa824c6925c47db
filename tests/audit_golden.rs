//! Golden verdicts for the auditor. A deterministic corpus of hand-built
//! entries reaches every verdict branch of `Auditor::audit`, and each
//! case's report is pinned as the SHA-256 of its canonical bytes. Keys are
//! seeded 512-bit identities and timestamps are fixed, so every signature
//! and every pin is reproducible.
//!
//! The same corpus drives the session contract: fed to an `AuditSession`
//! in seeded chunks, the session's report after each ingest equals the
//! one-shot audit of that prefix, in canonical bytes and in its `Debug`
//! rendering. One more case registers a key between two ingests.

use adlp_audit::{canonical_report_bytes, AuditReport, AuditSession, Auditor};
use adlp_core::ComponentIdentity;
use adlp_crypto::sha256::{binding_digest, sha256, Digest};
use adlp_crypto::{hex, Signature};
use adlp_logger::{
    AckRecord, Direction, GapReceipt, KeyRegistry, LogEntry, PayloadRecord, ShedReason,
};
use adlp_pubsub::Topic;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// SHA-256 of `canonical_report_bytes(auditor.audit(case))`, per case.
const PINS: &[(&str, &str)] = &[
    (
        "faithful",
        "c89f9d24653d52ad6d58dbb96939deab90bd719d5821378e3a3045a65cce6356",
    ),
    (
        "hide_publication",
        "dfdbb2a3e8e693f1dc277bfe9ec8968c19bc2ade0b3bd8760d0c335a8bc7d0f1",
    ),
    (
        "hide_receipt",
        "848c7028bf713cb321e6bab580ba2d925d009d5032537919f29647fc9fec080d",
    ),
    (
        "falsify_publisher",
        "49901fec4133a04cb35bc256ea23ab191b3c0fb617a6cde0962a4b3feea2e903",
    ),
    (
        "falsify_subscriber",
        "8e1b814db1158b92209ad6e71db831d13b81942e87f13022394d0e7446e4ec03",
    ),
    (
        "fabricated_ack",
        "a5d4a5d8f8bbd047529bf79d3b56fb30a01d25e559464b48d1a9f2023feec3bb",
    ),
    (
        "fabricated_peer_signature",
        "9aac1fe980908080ecce08460be0c52e7b1b8aa50bc7a7bafc6f0bed36684a31",
    ),
    (
        "impersonation",
        "225b3028c2eeccbbc026ca71f3c9855eebf78464abaa048418101690f87deb03",
    ),
    (
        "wrong_publisher",
        "bf99ef30c229e1995b63ca7c7c42b462dfe6a129ab73be0699644ab90be93381",
    ),
    (
        "unknown_component",
        "d40292800d05e1bffd22bd29d772a7ef46daf310def77542b49c935499cf786b",
    ),
    (
        "unowned_topic",
        "7ee2440a49ae40aefc2483cc8c68c98118e38bf4152829af649d1440d2b6045b",
    ),
    (
        "duplicate_seq_replay",
        "9ece714b716f7fdb9f781dcc70cd38201d3c0a65966105124d3aa0a6e7221854",
    ),
    (
        "naive_scheme",
        "760e80712887010a890ca17dd935e85c5c624971be166cc1c42b62f9beb31817",
    ),
    (
        "aggregated_acks",
        "8f37f8478aa0059c9af34fe82767b50dfe073048bb20cd573d844b5453fe729f",
    ),
    (
        "gap_receipt_verified",
        "61bc87836fa22f6ccdbf612510abcb8a1fb6d57ab8e70aab7fd697ad62039b57",
    ),
    (
        "gap_receipt_overlapping",
        "233dac58e3946c9222002dd22f8c02a66263fb38e314c0d90bf1bcb5dddcb17c",
    ),
    (
        "gap_receipt_contradicted",
        "39bdbf9ee6788961247852cdcd47409b9a7a12637367d5368e339bb2927e2ade",
    ),
    (
        "gap_receipt_invalid",
        "12d203f9883670d049337bf457110e0a358ed45fae90efff7ae7f3ea9ba5fed4",
    ),
    (
        "sequence_gaps",
        "e4a28c18ed67e3955462fd2fa2b0b6f31730616cf0ac2db9529771cc2a3aadf0",
    ),
    (
        "inconsistent_ack",
        "fd9627b3ca4fd6dd2bc7c4a057a04965917c7d842713af89500509f63e6d3b7e",
    ),
    (
        "conflicting_evidence",
        "f98b3c9c501cc4096518458123295c966dc9c970e58ed094c633b2535116cb14",
    ),
    (
        "unproven_publication",
        "1029d0aa6638b44fc0672e0016a5e81fc4075bc7ac224c17d4a58577e93fd02b",
    ),
    (
        "shuffle_1",
        "2150d79bb13a9016360c7445629be67b9176ce604e2a97060ec73d72560087c6",
    ),
    (
        "shuffle_2",
        "56237e2eb3a9bf69a42520c0baefcefef88b74b29dc7deee184add65230ba39b",
    ),
    (
        "shuffle_3",
        "9fde84da19e8e89095d37cded6598013ba9eb44d8b99a8f3886fed572b3747f4",
    ),
    (
        "max_seq",
        "6e6f819534d3bdd47c79ff1b1d8ea0048ad32da43827d836288fdd03b271e8e7",
    ),
    (
        "wide_receipts",
        "dafc0aec2a58190d6cb54424ba12f4ad651ceb61b2b935151a00116548a02790",
    ),
    (
        "copied_signature",
        "2300822bcfd6629bf4581f3e1da4e9a4504c2e7c9e7768f4128fdf5e5a4583a6",
    ),
];

struct World {
    keys: KeyRegistry,
    publisher: ComponentIdentity,
    subscriber: ComponentIdentity,
    third: ComponentIdentity,
    /// Never registered.
    stranger: ComponentIdentity,
}

impl World {
    fn new() -> Self {
        let mut rng = StdRng::seed_from_u64(2919);
        let publisher = ComponentIdentity::generate("pubber", 512, &mut rng);
        let subscriber = ComponentIdentity::generate("subber", 512, &mut rng);
        let third = ComponentIdentity::generate("third", 512, &mut rng);
        let stranger = ComponentIdentity::generate("stranger", 512, &mut rng);
        let keys = KeyRegistry::new();
        for id in [&publisher, &subscriber, &third] {
            keys.register(id.id(), id.public_key().clone()).unwrap();
        }
        World {
            keys,
            publisher,
            subscriber,
            third,
            stranger,
        }
    }

    fn auditor(&self, keys: &KeyRegistry) -> Auditor {
        Auditor::new(keys.clone()).with_topology([(Topic::new("t"), self.publisher.id().clone())])
    }
}

fn sign(id: &ComponentIdentity, topic: &str, seq: u64, digest: &Digest) -> Signature {
    id.sign_digest(&binding_digest(topic, seq, digest)).unwrap()
}

fn forged() -> Signature {
    Signature::from_bytes(vec![0xab; 64])
}

/// The publisher's self-signed entry for `(t, seq)` logging `body`, with
/// the acknowledgement `(h(D_y), s_y)` it recorded, if any.
fn publication(w: &World, seq: u64, body: &[u8], ack: Option<(Digest, Signature)>) -> LogEntry {
    let (peer_hash, peer_sig) = ack.map_or((None, None), |(h, s)| (Some(h), Some(s)));
    LogEntry {
        component: w.publisher.id().clone(),
        topic: Topic::new("t"),
        direction: Direction::Out,
        seq,
        timestamp_ns: 100,
        payload: PayloadRecord::Data(body.to_vec()),
        own_sig: Some(sign(&w.publisher, "t", seq, &sha256(body))),
        peer_sig,
        peer_hash,
        peer: Some(w.subscriber.id().clone()),
        acks: Vec::new(),
    }
}

/// `by`'s self-signed receipt entry for `(t, seq)` claiming `digest`, with
/// the publisher signature `s_x` it recorded, if any.
fn receipt(
    by: &ComponentIdentity,
    w: &World,
    seq: u64,
    digest: Digest,
    s_x: Option<Signature>,
) -> LogEntry {
    LogEntry {
        component: by.id().clone(),
        topic: Topic::new("t"),
        direction: Direction::In,
        seq,
        timestamp_ns: 110,
        payload: PayloadRecord::Hash(digest),
        own_sig: Some(sign(by, "t", seq, &digest)),
        peer_sig: s_x,
        peer_hash: None,
        peer: Some(w.publisher.id().clone()),
        acks: Vec::new(),
    }
}

/// Both entries of one faithful exchange of `body` at `seq`.
fn faithful(w: &World, seq: u64, body: &[u8]) -> [LogEntry; 2] {
    let digest = sha256(body);
    let s_y = sign(&w.subscriber, "t", seq, &digest);
    let s_x = sign(&w.publisher, "t", seq, &digest);
    [
        publication(w, seq, body, Some((digest, s_y))),
        receipt(&w.subscriber, w, seq, digest, Some(s_x)),
    ]
}

fn naive(id: &ComponentIdentity, direction: Direction, seq: u64, body: &[u8]) -> LogEntry {
    LogEntry::naive(
        id.id().clone(),
        Topic::new("t"),
        direction,
        seq,
        100,
        body.to_vec(),
    )
}

/// A gap-receipt entry by `id`, signed or not, with a free `count` so a
/// malformed one can be built.
fn gap_receipt(
    id: &ComponentIdentity,
    direction: Direction,
    first: u64,
    last: u64,
    count: u64,
    signed: bool,
) -> LogEntry {
    let mut entry = GapReceipt {
        component: id.id().clone(),
        topic: Topic::new("t"),
        direction,
        first_seq: first,
        last_seq: last,
        count,
        reason: ShedReason::QueueFull,
    }
    .to_entry(500);
    if signed {
        entry.own_sig = Some(sign(id, "t", entry.seq, &entry.payload.digest()));
    }
    entry
}

/// An aggregated publication at `seq`: one entry carrying one
/// acknowledgement per subscriber.
fn aggregated(w: &World, seq: u64, body: &[u8], acks: Vec<AckRecord>) -> LogEntry {
    LogEntry {
        peer_sig: None,
        peer_hash: None,
        peer: None,
        acks,
        ..publication(w, seq, body, None)
    }
}

fn ack(by: &ComponentIdentity, seq: u64, digest: Digest) -> AckRecord {
    AckRecord {
        subscriber: by.id().clone(),
        hash: digest,
        sig: sign(by, "t", seq, &digest),
    }
}

/// The corpus: every case is named after the verdict branch it reaches.
fn cases(w: &World) -> Vec<(String, Vec<LogEntry>)> {
    let [p1, s1] = faithful(w, 1, b"one");
    let [p2, s2] = faithful(w, 2, b"two");
    let [p3, s3] = faithful(w, 3, b"three");
    let [_, s5] = faithful(w, 5, b"five");
    let [p7, s7] = faithful(w, 7, b"seven");
    let [p9, s9] = faithful(w, 9, b"nine");
    let [p40, s40] = faithful(w, 40, b"forty");
    let (one, two, three) = (sha256(b"one"), sha256(b"two"), sha256(b"three"));
    let (real, fake) = (sha256(b"real"), sha256(b"fake"));
    let sub = &w.subscriber;
    let mut cases: Vec<(&str, Vec<LogEntry>)> = vec![
        (
            "faithful",
            vec![
                p1.clone(),
                s1.clone(),
                p2.clone(),
                s2.clone(),
                p3.clone(),
                s3.clone(),
            ],
        ),
        // Lemma 2 both ways: the counterpart's entry proves the missing one.
        ("hide_publication", vec![p1.clone(), s1.clone(), s2.clone()]),
        ("hide_receipt", vec![p1.clone(), s1.clone(), p2.clone()]),
        // Lemma 3 (i): the publisher logs `fake`, yet its ack and the
        // subscriber's s_x both cover `real`; at 2 its ack alone convicts it.
        (
            "falsify_publisher",
            vec![
                publication(w, 1, b"fake", Some((real, sign(sub, "t", 1, &real)))),
                receipt(sub, w, 1, real, Some(sign(&w.publisher, "t", 1, &real))),
                publication(w, 2, b"fake", Some((real, sign(sub, "t", 2, &real)))),
            ],
        ),
        // Lemma 3 (ii): the subscriber acknowledged `real`, logs `fake`.
        (
            "falsify_subscriber",
            vec![
                publication(w, 1, b"real", Some((real, sign(sub, "t", 1, &real)))),
                receipt(sub, w, 1, fake, Some(sign(&w.publisher, "t", 1, &real))),
            ],
        ),
        // Acks the subscriber never signed: alone, beside an agreeing
        // receipt, and against a disagreeing receipt with a forged s_x.
        (
            "fabricated_ack",
            vec![
                publication(w, 1, b"one", Some((one, forged()))),
                publication(w, 2, b"two", Some((two, forged()))),
                s2.clone(),
                publication(w, 3, b"three", Some((three, forged()))),
                receipt(sub, w, 3, fake, Some(forged())),
            ],
        ),
        // Publisher signatures the subscriber made up (Figure 8(b)): alone,
        // beside an agreeing valid publication, beside a disagreeing
        // unacknowledged one, no s_x at all, and beside an agreeing
        // unacknowledged publication, which stays unproven.
        (
            "fabricated_peer_signature",
            vec![
                receipt(sub, w, 1, one, Some(forged())),
                p2.clone(),
                receipt(sub, w, 2, two, Some(forged())),
                publication(w, 3, b"three", None),
                receipt(sub, w, 3, fake, Some(forged())),
                receipt(sub, w, 4, sha256(b"four"), None),
                publication(w, 5, b"five", None),
                receipt(sub, w, 5, sha256(b"five"), Some(forged())),
            ],
        ),
        // An entry altered after signing, and a receipt relabeled to a seq
        // the publisher never used: authenticity failures, not evidence.
        (
            "impersonation",
            vec![
                LogEntry {
                    payload: PayloadRecord::Data(b"altered".to_vec()),
                    ..p1.clone()
                },
                s1.clone(),
                LogEntry {
                    seq: 7,
                    ..s2.clone()
                },
            ],
        ),
        // The subscriber claims to have published a topic it does not own.
        (
            "wrong_publisher",
            vec![
                p1.clone(),
                s1.clone(),
                LogEntry {
                    direction: Direction::Out,
                    ..s1.clone()
                },
            ],
        ),
        // The stranger's key was never registered: on an unowned topic and
        // posing as a second subscriber of `t`.
        (
            "unknown_component",
            vec![
                LogEntry {
                    component: w.stranger.id().clone(),
                    topic: Topic::new("other"),
                    own_sig: Some(sign(&w.stranger, "other", 1, &one)),
                    ..p1.clone()
                },
                receipt(&w.stranger, w, 1, one, s1.peer_sig.clone()),
                p1.clone(),
                s1.clone(),
            ],
        ),
        // No topology entry for `u`: the publisher is read off the
        // entries, from the publication or from the receipt's peer.
        (
            "unowned_topic",
            vec![
                LogEntry {
                    topic: Topic::new("u"),
                    own_sig: Some(sign(sub, "u", 1, &one)),
                    peer_sig: Some(sign(&w.publisher, "u", 1, &one)),
                    ..s1.clone()
                },
                LogEntry {
                    topic: Topic::new("u"),
                    own_sig: Some(sign(&w.publisher, "u", 2, &two)),
                    peer_sig: Some(sign(sub, "u", 2, &two)),
                    ..p2.clone()
                },
            ],
        ),
        (
            "duplicate_seq_replay",
            vec![p1.clone(), s1.clone(), s1.clone(), p1.clone()],
        ),
        // Definition 2: unsigned entries prove nothing. An agreeing pair, a
        // conflicting pair, a lone publication, and a signed publication
        // confronted with a naive receipt.
        (
            "naive_scheme",
            vec![
                naive(&w.publisher, Direction::Out, 1, b"one"),
                naive(sub, Direction::In, 1, b"one"),
                naive(&w.publisher, Direction::Out, 2, b"two"),
                naive(sub, Direction::In, 2, b"other"),
                naive(&w.publisher, Direction::Out, 3, b"three"),
                publication(w, 4, b"four", None),
                naive(sub, Direction::In, 4, b"four"),
            ],
        ),
        // One entry acknowledged by two subscribers, the third of which
        // hid its receipt; then an aggregated entry with a forged ack.
        (
            "aggregated_acks",
            vec![
                aggregated(w, 1, b"one", vec![ack(sub, 1, one), ack(&w.third, 1, one)]),
                s1.clone(),
                aggregated(
                    w,
                    2,
                    b"two",
                    vec![
                        ack(sub, 2, two),
                        AckRecord {
                            sig: forged(),
                            ..ack(&w.third, 2, two)
                        },
                    ],
                ),
                s2.clone(),
            ],
        ),
        // Verified receipts turn the subscriber's absence at 1 and the
        // publisher's at 5 into shed records, and excuse seqs 2, 3 and 6 of
        // the sequence gap; 4, 7 and 8 stay missing.
        (
            "gap_receipt_verified",
            vec![
                p1.clone(),
                gap_receipt(sub, Direction::In, 0, 3, 4, true),
                s5.clone(),
                gap_receipt(&w.publisher, Direction::Out, 5, 6, 2, true),
                p9.clone(),
                s9.clone(),
            ],
        ),
        // A re-delivered identical receipt is benign; an overlapping one
        // voids both, and the absence at 1 is hidden again.
        (
            "gap_receipt_overlapping",
            vec![
                p1.clone(),
                gap_receipt(sub, Direction::In, 0, 3, 4, true),
                gap_receipt(sub, Direction::In, 0, 3, 4, true),
                gap_receipt(sub, Direction::In, 2, 5, 4, true),
            ],
        ),
        // The subscriber claims to have shed 1–3 but deposited 2.
        (
            "gap_receipt_contradicted",
            vec![
                p1.clone(),
                p2.clone(),
                s2.clone(),
                gap_receipt(sub, Direction::In, 1, 3, 3, true),
            ],
        ),
        // Receipts that admit nothing: unsigned, a count that disagrees
        // with the range, a forged signature, an unregistered signer.
        (
            "gap_receipt_invalid",
            vec![
                p1.clone(),
                gap_receipt(sub, Direction::In, 0, 3, 4, false),
                gap_receipt(sub, Direction::In, 4, 6, 9, true),
                LogEntry {
                    own_sig: Some(forged()),
                    ..gap_receipt(sub, Direction::In, 7, 8, 2, true)
                },
                gap_receipt(&w.stranger, Direction::In, 9, 9, 1, true),
            ],
        ),
        // Links at 1, 3, 7 and 40: the report lists 2, 4–6 and the first
        // of 8–39 up to its cap.
        (
            "sequence_gaps",
            vec![
                p1.clone(),
                s1.clone(),
                p3.clone(),
                s3.clone(),
                p7,
                s7,
                p40,
                s40,
            ],
        ),
        // Both sides agree on the data, but the valid ack covers a third
        // digest.
        (
            "inconsistent_ack",
            vec![
                publication(w, 1, b"one", Some((two, sign(sub, "t", 1, &two)))),
                s1.clone(),
            ],
        ),
        // Each side holds the other's valid signature over a different
        // payload: only collusion or a stolen key explains it.
        (
            "conflicting_evidence",
            vec![
                publication(w, 1, b"real", Some((real, sign(sub, "t", 1, &real)))),
                receipt(sub, w, 1, fake, Some(sign(&w.publisher, "t", 1, &fake))),
            ],
        ),
        // No ack: unproven alone, corroborated by an agreeing receipt.
        (
            "unproven_publication",
            vec![
                publication(w, 1, b"one", None),
                publication(w, 2, b"two", None),
                s2.clone(),
            ],
        ),
    ];
    // Everything at once, in three seeded orders.
    let everything: Vec<LogEntry> = cases.iter().flat_map(|(_, e)| e.iter().cloned()).collect();
    let mut shuffled = Vec::new();
    for seed in 1..=3u64 {
        let mut entries = everything.clone();
        shuffle(&mut entries, seed);
        shuffled.push(entries);
    }
    let names = ["shuffle_1", "shuffle_2", "shuffle_3"];
    cases.extend(names.into_iter().zip(shuffled));
    // Forged extremes, kept out of the shuffles. A validly self-signed
    // receipt at seq u64::MAX on a link whose lowest seq is 0; a shed range
    // spanning almost all of u64 between two links; a receipt claiming
    // every seq, whose count cannot be written.
    let [p0, s0] = faithful(w, 0, b"zero");
    cases.push((
        "max_seq",
        vec![
            p0.clone(),
            s0.clone(),
            receipt(sub, w, u64::MAX, one, Some(forged())),
        ],
    ));
    cases.push((
        "wide_receipts",
        vec![
            p0,
            s0,
            p1,
            s1,
            receipt(sub, w, u64::MAX, one, Some(forged())),
            gap_receipt(sub, Direction::In, 2, u64::MAX - 1, u64::MAX - 2, true),
            gap_receipt(&w.publisher, Direction::Out, 0, u64::MAX, 0, true),
        ],
    ));
    // The subscriber passes the publisher's signature off as its own: the
    // same statement and signature, checked under a different signer.
    let copied = LogEntry {
        own_sig: p2.own_sig.clone(),
        ..s2
    };
    cases.push(("copied_signature", vec![p2, copied]));
    cases.into_iter().map(|(n, e)| (n.to_string(), e)).collect()
}

fn below(rng: &mut StdRng, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

fn shuffle(entries: &mut [LogEntry], seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..entries.len()).rev() {
        entries.swap(i, below(&mut rng, i + 1));
    }
}

fn pin(report: &AuditReport) -> String {
    hex::encode(&sha256(&canonical_report_bytes(report)).0)
}

#[test]
fn every_case_audits_to_its_pinned_report() {
    let w = World::new();
    let auditor = w.auditor(&w.keys);
    let cases = cases(&w);
    let mut moved = Vec::new();
    for (name, entries) in &cases {
        let actual = pin(&auditor.audit(entries));
        let pinned = PINS.iter().find(|(n, _)| n == name).map(|(_, p)| *p);
        if pinned != Some(actual.as_str()) {
            moved.push(format!("    (\"{name}\", \"{actual}\"),"));
        }
    }
    assert!(
        moved.is_empty(),
        "reports moved from their pins:\n{}",
        moved.join("\n")
    );
    assert_eq!(PINS.len(), cases.len(), "a pin names no case");
}

fn assert_same(context: &str, session: &AuditReport, one_shot: &AuditReport) {
    assert_eq!(
        canonical_report_bytes(session),
        canonical_report_bytes(one_shot),
        "{context}: canonical bytes differ"
    );
    assert_eq!(
        format!("{session:?}"),
        format!("{one_shot:?}"),
        "{context}: Debug differs"
    );
}

#[test]
fn a_session_report_equals_the_one_shot_audit_of_every_prefix() {
    let w = World::new();
    let auditor = w.auditor(&w.keys);
    let mut rng = StdRng::seed_from_u64(29);
    for (name, entries) in cases(&w) {
        for split in 0..3 {
            // 1–5 ingests at seeded cut points; an empty chunk is allowed.
            let mut cuts: Vec<usize> = (0..below(&mut rng, 5))
                .map(|_| below(&mut rng, entries.len() + 1))
                .collect();
            cuts.sort_unstable();
            cuts.push(entries.len());
            let mut session = AuditSession::new(auditor.clone());
            let mut start = 0;
            for end in cuts {
                let report = session.ingest(&entries[start..end]);
                assert_same(
                    &format!("{name} split {split} at {end}"),
                    report,
                    &auditor.audit(&entries[..end]),
                );
                start = end;
            }
            assert_eq!(session.len(), entries.len());
        }
    }
}

#[test]
fn a_key_registered_between_ingests_is_looked_up_again() {
    let w = World::new();
    // The subscriber's key reaches the registry only after the first
    // ingest: until then its entries are unknown and its acks unverifiable.
    let late = KeyRegistry::new();
    for id in [&w.publisher, &w.third] {
        late.register(id.id(), id.public_key().clone()).unwrap();
    }
    let [p1, s1] = faithful(&w, 1, b"one");
    let [p2, s2] = faithful(&w, 2, b"two");
    let [p3, _] = faithful(&w, 3, b"three");
    let mut session = AuditSession::new(w.auditor(&late));
    let early = session.ingest([&p1, &s1]);
    assert!(
        !early.all_clear(),
        "without the key nothing proves the exchange: {early:?}"
    );

    late.register(w.subscriber.id(), w.subscriber.public_key().clone())
        .unwrap();
    let all = [p1, s1, p2, s2, p3];
    let report = session.ingest(&all[2..]);
    assert_same("late key", report, &w.auditor(&w.keys).audit(&all));
    assert_eq!(report.hidden.len(), 1, "{report:?}");
}
