//! Soak tests: the full application graph under sustained load, with and
//! without misbehavior, checked end-to-end (traffic flowed, logs audited,
//! store tamper-evident).

use adlp::core::{BehaviorProfile, LinkRole, LogBehavior};
use adlp::pubsub::Topic;
use adlp::sim::{self_driving_app, AppSpec, NodeSpec, PayloadKind, Scenario};
use std::time::Duration;

#[test]
fn self_driving_soak_faithful() {
    let report = Scenario::new(self_driving_app())
        .key_bits(512)
        .duration(Duration::from_millis(1500))
        .run();
    // The whole pipeline moved real data.
    assert!(report.node_stats["imgfeed"].published >= 10);
    assert!(report.node_stats["actuator"].received >= 5);
    // The logger holds a consistent, tamper-evident record.
    assert!(report.store_len > 50);
    report
        .logger
        .store()
        .verify_chain()
        .expect("records intact");
    // The audit is clean.
    let audit = report.audit();
    assert!(
        audit.unfaithful_components().is_empty(),
        "faithful soak must convict nobody: {:?}",
        audit.unfaithful_components()
    );
    assert!(
        audit.all_clear(),
        "hidden={:?} rejected={}",
        audit.hidden.len(),
        audit.rejected_entries.len()
    );
}

#[test]
fn wide_fanout_many_components() {
    // One sensor, eight consumers, all ADLP: exercises per-subscriber
    // signing amortization and concurrent logging threads.
    let mut app = AppSpec::new().with_node(NodeSpec::new("sensor").publishes_periodic(
        "blob",
        PayloadKind::Custom(4096),
        60.0,
    ));
    for i in 0..8 {
        app = app.with_node(NodeSpec::new(format!("worker{i}")).subscribes_to("blob"));
    }
    let report = Scenario::new(app)
        .key_bits(512)
        .duration(Duration::from_millis(1000))
        .run();
    for i in 0..8 {
        assert!(
            report.node_stats[&format!("worker{i}")].received > 0,
            "worker{i} starved"
        );
    }
    let audit = report.audit();
    assert!(audit.unfaithful_components().is_empty());
}

#[test]
fn soak_with_three_simultaneous_liars() {
    // Three distinct misbehaviors in one running system; the audit must
    // identify exactly those three and nobody else.
    let report = Scenario::new(self_driving_app())
        .key_bits(512)
        .duration(Duration::from_millis(1500))
        .behavior(
            "signrec",
            BehaviorProfile::faithful().with_link(
                LinkRole::Subscriber,
                Topic::new("image"),
                LogBehavior::Falsify,
            ),
        )
        .behavior(
            "obsdet",
            BehaviorProfile::faithful().with_link(
                LinkRole::Subscriber,
                Topic::new("scan"),
                LogBehavior::Hide,
            ),
        )
        .behavior(
            "planner",
            BehaviorProfile::faithful().with_link(
                LinkRole::Publisher,
                Topic::new("steering"),
                LogBehavior::Falsify,
            ),
        )
        .run();
    let audit = report.audit();
    let mut unfaithful: Vec<String> = audit
        .unfaithful_components()
        .into_iter()
        .map(|(id, _)| id.to_string())
        .collect();
    unfaithful.sort();
    assert_eq!(
        unfaithful,
        vec!["obsdet", "planner", "signrec"],
        "{audit:?}"
    );
}
