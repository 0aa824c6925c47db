//! Collusion forensics: demonstrates the boundary the paper proves — a
//! colluding publisher-subscriber pair can enter a mutually consistent lie
//! that ADLP classifies as valid, yet any *edge* of the collusion group that
//! talks to a faithful outsider is still caught (Theorem 1), and timestamp
//! games by a single component break temporal causality visibly (Lemma 4).
//!
//! ```text
//! cargo run --release --example collusion_forensics
//! ```

use adlp::audit::{Auditor, CausalityChecker, CollusionGroups, FlowStep};
use adlp::core::{AdlpNodeBuilder, BehaviorProfile, LinkRole, LogBehavior, Scheme};
use adlp::logger::LogServer;
use adlp::pubsub::{Master, NodeId, Topic};
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let master = Master::new();
    let server = LogServer::spawn();
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);

    // --- Build a colluding pair supplied by the same vendor. ------------
    // They share private keys, so each can forge the other's signatures:
    // pre-generate both identities and cross-wire the keys.
    use adlp::core::ComponentIdentity;
    let planner_ident = ComponentIdentity::generate("planner", 512, &mut rng);
    let sink_ident = ComponentIdentity::generate("fusion_sink", 512, &mut rng);
    let planner_key = Arc::clone(planner_ident.private_key());
    let sink_key = Arc::clone(sink_ident.private_key());

    let planner = AdlpNodeBuilder::new("planner")
        .scheme(Scheme::adlp())
        .identity(planner_ident)
        .behavior(BehaviorProfile::faithful().with_link(
            LinkRole::Publisher,
            Topic::new("plan"),
            LogBehavior::FalsifyWithPeerKey(sink_key),
        ))
        .build(&master, &server.handle(), &mut rng)?;
    let sink = AdlpNodeBuilder::new("fusion_sink")
        .scheme(Scheme::adlp())
        .identity(sink_ident)
        .behavior(BehaviorProfile::faithful().with_link(
            LinkRole::Subscriber,
            Topic::new("plan"),
            LogBehavior::FalsifyWithPeerKey(planner_key),
        ))
        .build(&master, &server.handle(), &mut rng)?;

    // --- A faithful outsider the planner also publishes to. -------------
    // The planner lies to the logger about "plan" *everywhere*, but the
    // outsider's faithful record convicts it on this edge.
    let monitor = AdlpNodeBuilder::new("monitor")
        .scheme(Scheme::adlp())
        .key_bits(512)
        .build(&master, &server.handle(), &mut rng)?;

    let plan_pub = planner.advertise("plan")?;
    let _s1 = sink.subscribe("plan", |_| {})?;
    let _s2 = monitor.subscribe("plan", |_| {})?;

    for i in 0..3u8 {
        while planner.pending_acks() > 0 {
            std::thread::sleep(Duration::from_micros(300));
        }
        plan_pub.publish(&vec![i; 512])?;
    }
    while planner.pending_acks() > 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    for n in [&planner, &sink, &monitor] {
        n.flush()?;
    }

    let handle = server.handle();
    let report = Auditor::new(handle.keys().clone())
        .with_topology(master.topology())
        .audit_store(handle.store());

    println!("-- verdicts --");
    for (component, verdict) in &report.verdicts {
        println!(
            "  {component:<12} {} ({} valid, {} violations)",
            if verdict.is_faithful() {
                "faithful"
            } else {
                "UNFAITHFUL"
            },
            verdict.valid_entries,
            verdict.violations.len()
        );
    }
    println!(
        "\nThe planner↔sink lie about their shared link is mutually consistent\n\
         (forged with shared keys) — but the faithful monitor's record convicts\n\
         the planner on the planner→monitor edge (Theorem 1's edge property)."
    );

    // Candidate collusion groups from conflicting evidence.
    let mut groups = CollusionGroups::candidates_from_anomalies(&report.anomalies);
    println!("\n-- candidate collusion groups from anomalies --");
    for g in groups.maximal_groups() {
        println!("  {g:?}");
    }

    // --- Lemma 4: a lone timestamp cheat is visible. ---------------------
    let entries: Vec<_> = handle
        .store()
        .entries()
        .into_iter()
        .filter_map(Result::ok)
        .collect();
    let checker = CausalityChecker::from_entries(&entries);
    let violations = checker.check_chain(&[(
        FlowStep {
            topic: Topic::new("plan"),
            seq: 1,
            subscriber: NodeId::new("monitor"),
        },
        NodeId::new("planner"),
    )]);
    println!(
        "\n-- causality check on plan#1 → monitor: {} violations --",
        violations.len()
    );
    Ok(())
}
