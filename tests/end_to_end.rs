//! Cross-crate integration tests: full stack (crypto → pubsub → core →
//! logger → audit → sim) exercised through the public `adlp` facade.

use adlp::audit::{Auditor, EntryClass};
use adlp::core::{AdlpNodeBuilder, BehaviorProfile, LinkRole, LogBehavior, Scheme};
use adlp::logger::merkle::MerkleTree;
use adlp::logger::{Direction, LogServer};
use adlp::pubsub::{Master, NodeId, Topic, TransportKind};
use adlp::sim::{fanout_app, self_driving_app, PayloadKind, Scenario};
use rand::SeedableRng;
use std::time::Duration;

fn wait_until(pred: impl Fn() -> bool) {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !pred() {
        assert!(std::time::Instant::now() < deadline, "timed out");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn full_stack_over_tcp_transport() {
    // The paper's deployment: point-to-point TCP between nodes.
    let master = Master::new();
    let server = LogServer::spawn();
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let p = AdlpNodeBuilder::new("cam")
        .scheme(Scheme::adlp())
        .key_bits(512)
        .transport(TransportKind::Tcp)
        .build(&master, &server.handle(), &mut rng)
        .unwrap();
    let s = AdlpNodeBuilder::new("det")
        .scheme(Scheme::adlp())
        .key_bits(512)
        .build(&master, &server.handle(), &mut rng)
        .unwrap();
    let publisher = p.advertise("image").unwrap();
    let _sub = s.subscribe("image", |_| {}).unwrap();
    // The TCP link attaches asynchronously; a publish before that is a
    // silent no-op (sent == 0).
    wait_until(|| publisher.connection_count() == 1);
    for i in 0..3 {
        // Wait for the previous ack so gating never skips (and seqs stay
        // contiguous).
        wait_until(|| p.pending_acks() == 0);
        assert_eq!(publisher.publish(&[i as u8; 10_000]).unwrap().sent, 1);
    }
    wait_until(|| p.pending_acks() == 0);
    p.flush().unwrap();
    s.flush().unwrap();

    let report = Auditor::new(server.handle().keys().clone())
        .with_topology(master.topology())
        .audit_store(server.handle().store());
    assert_eq!(report.link_count(), 3);
    assert!(report.all_clear(), "{report:?}");
}

#[test]
fn tamper_evidence_and_merkle_commitment_after_real_run() {
    let report = Scenario::new(fanout_app(PayloadKind::Custom(256), 2, 40.0))
        .key_bits(512)
        .duration(Duration::from_millis(400))
        .run();
    let store = report.logger.store();
    assert!(store.len() > 4);
    store.verify_chain().expect("records intact");

    // Commit to the log and prove one record's inclusion.
    let (size, root) = store.tree_head();
    let idx = size / 2;
    let (leaf, proof) = store.prove_at(idx, size).unwrap();
    assert!(MerkleTree::verify(&root.unwrap(), size, &leaf, &proof));

    // Tamper with a stored record: it no longer matches its committed
    // digest, and verification names exactly that index.
    store
        .tamper_with_record(idx, b"forged bytes".to_vec())
        .unwrap();
    let err = store.verify_chain().unwrap_err();
    assert_eq!(err.first_bad_index, idx);
}

#[test]
fn naive_scheme_cannot_resolve_disputes_but_adlp_can() {
    // The motivating claim of §III-B: under the naive scheme a dispute is
    // undecidable — under ADLP the auditor attributes it.
    for scheme in [Scheme::Base, Scheme::adlp()] {
        let master = Master::new();
        let server = LogServer::spawn();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let p = AdlpNodeBuilder::new("cam")
            .scheme(scheme.clone())
            .key_bits(512)
            .build(&master, &server.handle(), &mut rng)
            .unwrap();
        let s = AdlpNodeBuilder::new("det")
            .scheme(scheme.clone())
            .key_bits(512)
            .behavior(BehaviorProfile::faithful().with_link(
                LinkRole::Subscriber,
                Topic::new("image"),
                LogBehavior::Falsify,
            ))
            .build(&master, &server.handle(), &mut rng)
            .unwrap();
        let publisher = p.advertise("image").unwrap();
        let _sub = s.subscribe("image", |_| {}).unwrap();
        publisher.publish(&[1u8; 128]).unwrap();
        wait_until(|| s.stats().snapshot().received == 1);
        std::thread::sleep(Duration::from_millis(30));
        p.flush().unwrap();
        s.flush().unwrap();

        let entries: Vec<_> = server
            .handle()
            .store()
            .entries()
            .into_iter()
            .map(Result::unwrap)
            .collect();
        assert_eq!(entries.len(), 2);
        let pub_e = entries.iter().find(|e| e.direction == Direction::Out).unwrap();
        let sub_e = entries.iter().find(|e| e.direction == Direction::In).unwrap();
        // The records conflict in both schemes.
        assert_ne!(pub_e.payload.digest(), sub_e.payload.digest());

        let report = Auditor::new(server.handle().keys().clone())
            .with_topology(master.topology())
            .audit_store(server.handle().store());
        if scheme == Scheme::Base {
            // Naive entries carry no signatures: the auditor can see the
            // conflict but attributes nothing.
            assert!(report.verdicts.values().all(|v| v.is_faithful()));
        } else {
            // ADLP pins the falsification on the subscriber.
            let det = &report.verdicts[&NodeId::new("det")];
            assert!(!det.is_faithful());
            assert!(report.verdicts[&NodeId::new("cam")].is_faithful());
        }
    }
}

#[test]
fn self_driving_scenario_with_one_unfaithful_node_detected() {
    let report = Scenario::new(self_driving_app())
        .key_bits(512)
        .duration(Duration::from_millis(700))
        .behavior(
            "signrec",
            BehaviorProfile::faithful().with_link(
                LinkRole::Subscriber,
                Topic::new("image"),
                LogBehavior::Falsify,
            ),
        )
        .run();
    let audit = report.audit();
    let unfaithful: Vec<_> = audit
        .unfaithful_components()
        .into_iter()
        .map(|(id, _)| id.clone())
        .collect();
    assert!(
        unfaithful.contains(&NodeId::new("signrec")),
        "unfaithful: {unfaithful:?}"
    );
    // Nobody else convicted.
    assert_eq!(unfaithful.len(), 1, "{unfaithful:?}");
}

#[test]
fn mixed_schemes_interoperate() {
    // A Base-scheme subscriber consuming from an ADLP publisher must still
    // receive data (it just cannot strip the signature — so ADLP nodes only
    // interoperate with ADLP peers; mixed graphs run scheme-per-node but
    // per *link* both ends must match. Here: two separate links.)
    let master = Master::new();
    let server = LogServer::spawn();
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    let adlp_pub = AdlpNodeBuilder::new("a")
        .scheme(Scheme::adlp())
        .key_bits(512)
        .build(&master, &server.handle(), &mut rng)
        .unwrap();
    let adlp_sub = AdlpNodeBuilder::new("b")
        .scheme(Scheme::adlp())
        .key_bits(512)
        .build(&master, &server.handle(), &mut rng)
        .unwrap();
    let base_pub = AdlpNodeBuilder::new("c")
        .scheme(Scheme::Base)
        .build(&master, &server.handle(), &mut rng)
        .unwrap();
    let base_sub = AdlpNodeBuilder::new("d")
        .scheme(Scheme::Base)
        .build(&master, &server.handle(), &mut rng)
        .unwrap();

    let p1 = adlp_pub.advertise("t1").unwrap();
    let _s1 = adlp_sub.subscribe("t1", |_| {}).unwrap();
    let p2 = base_pub.advertise("t2").unwrap();
    let _s2 = base_sub.subscribe("t2", |_| {}).unwrap();
    p1.publish(&[1u8; 32]).unwrap();
    p2.publish(&[2u8; 32]).unwrap();
    wait_until(|| {
        adlp_sub.stats().snapshot().received == 1 && base_sub.stats().snapshot().received == 1
    });
    std::thread::sleep(Duration::from_millis(30));
    for n in [&adlp_pub, &adlp_sub, &base_pub, &base_sub] {
        n.flush().unwrap();
    }
    // 2 ADLP entries + 2 base entries.
    assert_eq!(server.handle().store().len(), 4);
}

#[test]
fn audit_classifies_unproven_publication() {
    // Publisher entry with no ack and no subscriber record → Unproven, not
    // Invalid (a faithful publisher facing a dead subscriber lands here).
    let master = Master::new();
    let server = LogServer::spawn();
    let mut rng = rand::rngs::StdRng::seed_from_u64(13);
    let p = AdlpNodeBuilder::new("cam")
        .scheme(Scheme::adlp())
        .key_bits(512)
        .build(&master, &server.handle(), &mut rng)
        .unwrap();
    let s = AdlpNodeBuilder::new("det")
        .scheme(Scheme::adlp())
        .key_bits(512)
        .behavior(
            BehaviorProfile::faithful()
                .withholding_acks(Topic::new("image"))
                .with_link(LinkRole::Subscriber, Topic::new("image"), LogBehavior::Hide),
        )
        .build(&master, &server.handle(), &mut rng)
        .unwrap();
    let publisher = p.advertise("image").unwrap();
    let _sub = s.subscribe("image", |_| {}).unwrap();
    publisher.publish(&[1u8; 64]).unwrap();
    wait_until(|| s.stats().snapshot().received == 1);
    p.flush().unwrap();
    s.flush().unwrap();

    let report = Auditor::new(server.handle().keys().clone())
        .with_topology(master.topology())
        .audit_store(server.handle().store());
    assert_eq!(report.links.len(), 1);
    assert_eq!(report.links[0].publisher_entry, Some(EntryClass::Unproven));
    // Unproven is not a conviction: cam has no violations on record.
    assert!(report
        .verdicts
        .get(&NodeId::new("cam"))
        .is_none_or(|v| v.is_faithful()));
}
