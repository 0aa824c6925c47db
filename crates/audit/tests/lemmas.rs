//! End-to-end scenario tests for the paper's protocol analysis (§IV-B):
//! Lemmas 1–3 and Theorems 1–2, executed against the real protocol stack
//! (middleware + ADLP interceptors + trusted logger + auditor).

use adlp_audit::{Anomaly, Auditor, CollusionGroups, EntryClass, ViolationKind};
use adlp_core::{AdlpNode, AdlpNodeBuilder, BehaviorProfile, LinkRole, LogBehavior, Scheme};
use adlp_logger::{Direction, LogServer, LoggerHandle};
use adlp_pubsub::{Master, NodeId, Topic};
use rand::SeedableRng;
use std::time::Duration;

const KEY_BITS: usize = 512;

struct Scenario {
    master: Master,
    server: LogServer,
    rng: rand::rngs::StdRng,
}

impl Scenario {
    fn new(seed: u64) -> Self {
        Scenario {
            master: Master::new(),
            server: LogServer::spawn(),
            rng: rand::rngs::StdRng::seed_from_u64(seed),
        }
    }

    fn handle(&self) -> LoggerHandle {
        self.server.handle()
    }

    fn node(&mut self, id: &str, behavior: BehaviorProfile) -> AdlpNode {
        AdlpNodeBuilder::new(id)
            .scheme(Scheme::adlp())
            .key_bits(KEY_BITS)
            .behavior(behavior)
            .build(&self.master, &self.server.handle(), &mut self.rng)
            .unwrap()
    }

    fn auditor(&self) -> Auditor {
        Auditor::new(self.handle().keys().clone()).with_topology(self.master.topology())
    }
}

fn wait_until(pred: impl Fn() -> bool) {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !pred() {
        assert!(std::time::Instant::now() < deadline, "timed out waiting");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Runs one pub→sub link for `n` messages and flushes all logging. Waits
/// for the previous acknowledgement before each publish so sequence
/// numbers stay contiguous (retrying a gated publish would burn seqs).
fn run_link(publisher: &AdlpNode, subscriber: &AdlpNode, topic: &str, n: usize) {
    let p = publisher.advertise(topic).unwrap();
    let _sub = subscriber.subscribe(topic, |_| {}).unwrap();
    for i in 0..n {
        wait_until(|| publisher.pending_acks() == 0);
        let r = p.publish(&[i as u8; 32]).unwrap();
        assert_eq!(r.sent, 1, "publish {i} must reach the subscriber");
    }
    wait_until(|| {
        publisher.pending_acks() == 0 || subscriber.stats().snapshot().received >= n as u64
    });
    // Give the final ack a moment to land before flushing.
    std::thread::sleep(Duration::from_millis(30));
    publisher.flush().unwrap();
    subscriber.flush().unwrap();
}

#[test]
fn ideal_system_is_all_clear() {
    let mut s = Scenario::new(1);
    let cam = s.node("camera", BehaviorProfile::faithful());
    let det = s.node("detector", BehaviorProfile::faithful());
    run_link(&cam, &det, "image", 5);

    let report = s.auditor().audit_store(s.handle().store());
    assert_eq!(report.link_count(), 5);
    assert!(report.all_clear(), "report: {report:?}");
    assert_eq!(report.verdicts[&NodeId::new("camera")].valid_entries, 5);
    assert_eq!(report.verdicts[&NodeId::new("detector")].valid_entries, 5);
}

#[test]
fn lemma2_subscriber_cannot_hide_receipts() {
    let mut s = Scenario::new(2);
    let cam = s.node("camera", BehaviorProfile::faithful());
    let det = s.node(
        "detector",
        BehaviorProfile::faithful().with_link(
            LinkRole::Subscriber,
            Topic::new("image"),
            LogBehavior::Hide,
        ),
    );
    run_link(&cam, &det, "image", 3);

    let report = s.auditor().audit_store(s.handle().store());
    // The subscriber acknowledged (transport is honest), so its receipt is
    // exposed: 3 hidden records recovered, all attributed to the detector.
    assert_eq!(report.hidden.len(), 3);
    for h in &report.hidden {
        assert_eq!(h.component, NodeId::new("detector"));
        assert_eq!(h.direction, Direction::In);
        assert_eq!(h.proven_by, NodeId::new("camera"));
    }
    let verdict = &report.verdicts[&NodeId::new("detector")];
    assert!(verdict
        .violations
        .iter()
        .all(|v| v.kind == ViolationKind::HidReceipt));
    // Theorem 1: the faithful publisher is fully valid.
    assert!(report.verdicts[&NodeId::new("camera")].is_faithful());
    assert_eq!(report.verdicts[&NodeId::new("camera")].valid_entries, 3);
}

#[test]
fn lemma2_publisher_cannot_hide_publications() {
    let mut s = Scenario::new(3);
    let cam = s.node(
        "camera",
        BehaviorProfile::faithful().with_link(
            LinkRole::Publisher,
            Topic::new("image"),
            LogBehavior::Hide,
        ),
    );
    let det = s.node("detector", BehaviorProfile::faithful());
    run_link(&cam, &det, "image", 3);

    let report = s.auditor().audit_store(s.handle().store());
    assert_eq!(report.hidden.len(), 3);
    for h in &report.hidden {
        assert_eq!(h.component, NodeId::new("camera"));
        assert_eq!(h.direction, Direction::Out);
    }
    assert!(report.verdicts[&NodeId::new("camera")]
        .violations
        .iter()
        .all(|v| v.kind == ViolationKind::HidPublication));
    assert!(report.verdicts[&NodeId::new("detector")].is_faithful());
}

#[test]
fn lemma3_publisher_falsification_detected() {
    let mut s = Scenario::new(4);
    let cam = s.node(
        "camera",
        BehaviorProfile::faithful().with_link(
            LinkRole::Publisher,
            Topic::new("image"),
            LogBehavior::Falsify,
        ),
    );
    let det = s.node("detector", BehaviorProfile::faithful());
    run_link(&cam, &det, "image", 3);

    let report = s.auditor().audit_store(s.handle().store());
    let verdict = &report.verdicts[&NodeId::new("camera")];
    assert_eq!(verdict.violations.len(), 3);
    assert!(verdict
        .violations
        .iter()
        .all(|v| v.kind == ViolationKind::FalsifiedLog));
    // The faithful subscriber's entries are all valid (Theorem 1).
    assert!(report.verdicts[&NodeId::new("detector")].is_faithful());
    assert_eq!(report.verdicts[&NodeId::new("detector")].valid_entries, 3);
    for link in &report.links {
        assert!(matches!(link.publisher_entry, Some(EntryClass::Invalid(_))));
        assert_eq!(link.subscriber_entry, Some(EntryClass::Valid));
    }
}

#[test]
fn lemma3_subscriber_false_accusation_detected() {
    // The motivating example of Figure 3: the sign recognizer claims it
    // received D' ≠ D.
    let mut s = Scenario::new(5);
    let cam = s.node("camera", BehaviorProfile::faithful());
    let det = s.node(
        "detector",
        BehaviorProfile::faithful().with_link(
            LinkRole::Subscriber,
            Topic::new("image"),
            LogBehavior::Falsify,
        ),
    );
    run_link(&cam, &det, "image", 3);

    let report = s.auditor().audit_store(s.handle().store());
    let verdict = &report.verdicts[&NodeId::new("detector")];
    assert_eq!(verdict.violations.len(), 3);
    assert!(verdict
        .violations
        .iter()
        .all(|v| v.kind == ViolationKind::FalsifiedLog));
    assert!(report.verdicts[&NodeId::new("camera")].is_faithful());
}

#[test]
fn lemma1_fabricated_publication_detected() {
    let mut s = Scenario::new(6);
    let cam = s.node("camera", BehaviorProfile::faithful());
    let det = s.node("detector", BehaviorProfile::faithful());
    // A real link exists so keys/topology are registered.
    run_link(&cam, &det, "image", 1);
    // Fabricate publication #50 which never happened: the "subscriber
    // signature" is random bytes.
    let mut rng = rand::rngs::StdRng::seed_from_u64(60);
    cam.fabricate_publication("image", 50, &[9u8; 16], "detector", &mut rng)
        .unwrap();
    cam.flush().unwrap();

    let report = s.auditor().audit_store(s.handle().store());
    let verdict = &report.verdicts[&NodeId::new("camera")];
    assert!(verdict
        .violations
        .iter()
        .any(|v| v.kind == ViolationKind::FabricatedLog && v.seq == 50));
    assert!(report.verdicts[&NodeId::new("detector")].is_faithful());
}

#[test]
fn lemma1_fabricated_receipt_detected() {
    let mut s = Scenario::new(7);
    let cam = s.node("camera", BehaviorProfile::faithful());
    let det = s.node("detector", BehaviorProfile::faithful());
    run_link(&cam, &det, "image", 1);
    let mut rng = rand::rngs::StdRng::seed_from_u64(70);
    det.fabricate_receipt("image", 50, &[9u8; 16], "camera", &mut rng)
        .unwrap();
    det.flush().unwrap();

    let report = s.auditor().audit_store(s.handle().store());
    let verdict = &report.verdicts[&NodeId::new("detector")];
    assert!(verdict
        .violations
        .iter()
        .any(|v| v.kind == ViolationKind::FabricatedLog && v.seq == 50));
    assert!(report.verdicts[&NodeId::new("camera")].is_faithful());
}

#[test]
fn impersonation_rejected_by_authenticity_check() {
    let mut s = Scenario::new(8);
    let cam = s.node("camera", BehaviorProfile::faithful());
    // The detector logs its receipts as if "innocent" wrote them.
    let det = s.node(
        "detector",
        BehaviorProfile::faithful().with_link(
            LinkRole::Subscriber,
            Topic::new("image"),
            LogBehavior::ImpersonateAs(NodeId::new("innocent")),
        ),
    );
    // Register the innocent party so its key exists.
    let innocent = s.node("innocent", BehaviorProfile::faithful());
    let _ = &innocent;
    run_link(&cam, &det, "image", 2);

    let report = s.auditor().audit_store(s.handle().store());
    // The forged entries fail authenticity under the victim's key.
    assert!(report.anomalies.iter().any(
        |a| matches!(a, Anomaly::ImpersonationSuspected { claimed, .. }
            if claimed == &NodeId::new("innocent"))
    ));
    // The victim is NOT convicted of anything.
    assert!(report
        .verdicts
        .get(&NodeId::new("innocent"))
        .is_none_or(|v| v.is_faithful()));
    // The detector's true receipts are missing → recovered as hidden.
    assert!(report
        .hidden
        .iter()
        .any(|h| h.component == NodeId::new("detector")));
}

#[test]
fn colluding_pair_evades_detection_but_faithful_parties_unharmed() {
    // Theorem 1's caveat: a colluding pair can enter consistent lies
    // (L_{V,c}); ADLP cannot flag them — but no faithful component is
    // misclassified, and an honest link of the same publisher still audits
    // clean.
    let mut s = Scenario::new(9);
    let cam = s.node("camera", BehaviorProfile::faithful());
    let det_honest = s.node("det_honest", BehaviorProfile::faithful());

    // Build the colluding pair: planner publishes "plan"; sink subscribes.
    // Components from the same non-compliant vendor share key material, so
    // pre-generate both identities and cross-wire the private keys.
    use adlp_core::{AdlpNodeBuilder, ComponentIdentity};
    let planner_ident = ComponentIdentity::generate("planner", KEY_BITS, &mut s.rng);
    let sink_ident = ComponentIdentity::generate("sink", KEY_BITS, &mut s.rng);
    let planner_key = std::sync::Arc::clone(planner_ident.private_key());
    let sink_key = std::sync::Arc::clone(sink_ident.private_key());

    let planner = AdlpNodeBuilder::new("planner")
        .scheme(Scheme::adlp())
        .identity(planner_ident)
        .behavior(BehaviorProfile::faithful().with_link(
            LinkRole::Publisher,
            Topic::new("plan"),
            LogBehavior::FalsifyWithPeerKey(sink_key),
        ))
        .build(&s.master, &s.server.handle(), &mut s.rng)
        .unwrap();
    let sink = AdlpNodeBuilder::new("sink")
        .scheme(Scheme::adlp())
        .identity(sink_ident)
        .behavior(BehaviorProfile::faithful().with_link(
            LinkRole::Subscriber,
            Topic::new("plan"),
            LogBehavior::FalsifyWithPeerKey(planner_key),
        ))
        .build(&s.master, &s.server.handle(), &mut s.rng)
        .unwrap();

    run_link(&cam, &det_honest, "image", 2);
    run_link(&planner, &sink, "plan", 2);

    let report = s.auditor().audit_store(s.handle().store());
    // The colluders' consistent lie is classified valid — the fundamental
    // limit the paper concedes.
    assert!(report.verdicts[&NodeId::new("planner")].is_faithful());
    assert!(report.verdicts[&NodeId::new("sink")].is_faithful());
    // And the faithful pair is of course clean.
    assert!(report.verdicts[&NodeId::new("camera")].is_faithful());
    assert!(report.verdicts[&NodeId::new("det_honest")].is_faithful());
}

#[test]
fn theorem2_collusion_free_system_identifies_every_unfaithful_component() {
    // A 4-component collusion-free system where two distinct components
    // misbehave in different ways; both must be identified, and only them.
    let mut s = Scenario::new(10);
    let cam = s.node("camera", BehaviorProfile::faithful());
    let hider = s.node(
        "hider",
        BehaviorProfile::faithful().with_link(
            LinkRole::Subscriber,
            Topic::new("image"),
            LogBehavior::Hide,
        ),
    );
    let lidar = s.node(
        "lidar",
        BehaviorProfile::faithful().with_link(
            LinkRole::Publisher,
            Topic::new("scan"),
            LogBehavior::Falsify,
        ),
    );
    let obstacle = s.node("obstacle", BehaviorProfile::faithful());

    run_link(&cam, &hider, "image", 2);
    run_link(&lidar, &obstacle, "scan", 2);

    let report = s.auditor().audit_store(s.handle().store());
    let unfaithful: Vec<&NodeId> = report
        .unfaithful_components()
        .into_iter()
        .map(|(id, _)| id)
        .collect();
    assert_eq!(unfaithful.len(), 2);
    assert!(unfaithful.contains(&&NodeId::new("hider")));
    assert!(unfaithful.contains(&&NodeId::new("lidar")));
    // No false positives.
    assert!(report.verdicts[&NodeId::new("camera")].is_faithful());
    assert!(report.verdicts[&NodeId::new("obstacle")].is_faithful());

    // Collusion-group machinery: ground truth says all singletons.
    let mut groups = CollusionGroups::new();
    for id in ["camera", "hider", "lidar", "obstacle"] {
        groups.add_component(NodeId::new(id));
    }
    assert!(groups.is_collusion_free());
}

#[test]
fn theorem1_faithful_entries_never_misclassified_under_any_peer_behavior() {
    // Sweep every unfaithful subscriber behavior against a faithful
    // publisher: the publisher's entries must always classify valid.
    let behaviors: Vec<(&str, LogBehavior)> = vec![
        ("hide", LogBehavior::Hide),
        ("falsify", LogBehavior::Falsify),
        (
            "impersonate",
            LogBehavior::ImpersonateAs(NodeId::new("ghost")),
        ),
    ];
    for (i, (name, b)) in behaviors.into_iter().enumerate() {
        let mut s = Scenario::new(100 + i as u64);
        let cam = s.node("camera", BehaviorProfile::faithful());
        let det = s.node(
            "detector",
            BehaviorProfile::faithful().with_link(LinkRole::Subscriber, Topic::new("image"), b),
        );
        run_link(&cam, &det, "image", 2);
        let report = s.auditor().audit_store(s.handle().store());
        let cam_verdict = &report.verdicts[&NodeId::new("camera")];
        assert!(
            cam_verdict.is_faithful(),
            "behavior {name}: faithful publisher misclassified: {report:?}"
        );
        assert_eq!(
            cam_verdict.valid_entries, 2,
            "behavior {name}: publisher entries not all valid"
        );
    }
}

#[test]
fn figure8_requirement4_violation_misattributes_the_receiver() {
    // Figure 8: if the transport does NOT enforce signature validity
    // (requirement (4)), a publisher can send an invalid (O_x, s_r) pair.
    // The faithful subscriber logs what it received — and the auditor,
    // trusting (4), pins the invalid signature on the *subscriber* as a
    // fabrication. This test documents that known, intended limitation:
    // it is exactly why the protocol performs signing transparently at the
    // transport layer.
    let mut s = Scenario::new(14);
    let cam = s.node(
        "camera",
        BehaviorProfile::faithful().corrupting_signatures_every(1),
    );
    let det = s.node("detector", BehaviorProfile::faithful());
    run_link(&cam, &det, "image", 2);

    let report = s.auditor().audit_store(s.handle().store());
    // The faithful subscriber is (wrongly, but per the model) implicated…
    let det_verdict = &report.verdicts[&NodeId::new("detector")];
    assert!(
        det_verdict
            .violations
            .iter()
            .all(|v| v.kind == ViolationKind::FabricatedLog),
        "{report:?}"
    );
    assert!(!det_verdict.is_faithful());
    // …which is precisely the ambiguity requirement (4) exists to prevent.
}

#[test]
fn timing_disruption_caught_by_causality_check() {
    use adlp_audit::{CausalityChecker, FlowStep};

    // camera → relay → actuator chain; relay skews its log timestamps
    // backwards by a large amount, inverting its in/out order.
    let mut s = Scenario::new(11);
    let cam = s.node("camera", BehaviorProfile::faithful());
    let relay = s.node(
        "relay",
        BehaviorProfile::faithful().with_timestamp_skew_ns(-3_600_000_000_000),
    );
    let act = s.node("actuator", BehaviorProfile::faithful());

    // camera → relay on "image"
    let p1 = cam.advertise("image").unwrap();
    let _s1 = relay.subscribe("image", |_| {}).unwrap();
    // relay → actuator on "cmd"
    let p2 = relay.advertise("cmd").unwrap();
    let _s2 = act.subscribe("cmd", |_| {}).unwrap();

    p1.publish(&[1u8; 16]).unwrap();
    wait_until(|| relay.stats().snapshot().received == 1);
    p2.publish(&[2u8; 16]).unwrap();
    wait_until(|| act.stats().snapshot().received == 1);
    std::thread::sleep(Duration::from_millis(30));
    for n in [&cam, &relay, &act] {
        n.flush().unwrap();
    }

    let entries: Vec<_> = s
        .handle()
        .store()
        .entries()
        .into_iter()
        .map(Result::unwrap)
        .collect();
    let checker = CausalityChecker::from_entries(&entries);
    let violations = checker.check_chain(&[
        (
            FlowStep {
                topic: Topic::new("image"),
                seq: 1,
                subscriber: NodeId::new("relay"),
            },
            NodeId::new("camera"),
        ),
        (
            FlowStep {
                topic: Topic::new("cmd"),
                seq: 1,
                subscriber: NodeId::new("actuator"),
            },
            NodeId::new("relay"),
        ),
    ]);
    assert!(!violations.is_empty(), "skew must break a constraint");
    // Every violated constraint implicates the relay.
    assert!(violations
        .iter()
        .all(|v| v.suspects.contains(&NodeId::new("relay"))));
}

#[test]
fn provenance_traces_steering_back_to_camera() {
    use adlp_audit::ProvenanceGraph;

    let mut s = Scenario::new(12);
    let cam = s.node("camera", BehaviorProfile::faithful());
    let lane = s.node("lane", BehaviorProfile::faithful());
    let ctrl = s.node("ctrl", BehaviorProfile::faithful());

    let p_img = cam.advertise("image").unwrap();
    let _s1 = lane.subscribe("image", |_| {}).unwrap();
    let p_lane = lane.advertise("lane_pos").unwrap();
    let _s2 = ctrl.subscribe("lane_pos", |_| {}).unwrap();

    p_img.publish(&[1u8; 64]).unwrap();
    wait_until(|| lane.stats().snapshot().received == 1);
    p_lane.publish(&[2u8; 8]).unwrap();
    wait_until(|| ctrl.stats().snapshot().received == 1);
    std::thread::sleep(Duration::from_millis(30));
    for n in [&cam, &lane, &ctrl] {
        n.flush().unwrap();
    }

    let entries: Vec<_> = s
        .handle()
        .store()
        .entries()
        .into_iter()
        .map(Result::unwrap)
        .collect();
    let graph = ProvenanceGraph::from_entries(&entries);
    let trace = graph.trace(&Topic::new("lane_pos"), 1, 4).unwrap();
    let flat = trace.flatten();
    assert!(flat.contains(&(NodeId::new("camera"), Topic::new("image"), 1)));
}
