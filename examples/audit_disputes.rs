//! Dispute resolution demo: recreates the paper's motivating scenario
//! (Figure 3) — a traffic-sign recognizer that lies about the image it
//! received — plus a hiding subscriber and a fabricating publisher, and
//! shows the auditor attributing each violation to the right component.
//!
//! ```text
//! cargo run --release --example audit_disputes
//! ```

use adlp::audit::Auditor;
use adlp::core::{AdlpNodeBuilder, BehaviorProfile, LinkRole, LogBehavior, Scheme};
use adlp::logger::LogServer;
use adlp::pubsub::{Master, Topic};
use rand::SeedableRng;
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let master = Master::new();
    let server = LogServer::spawn();
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);

    // Faithful image feeder.
    let feeder = AdlpNodeBuilder::new("image_feeder")
        .scheme(Scheme::adlp())
        .key_bits(512)
        .build(&master, &server.handle(), &mut rng)?;

    // Figure 3's unfaithful sign recognizer: always logs D' ≠ D so that a
    // missed stop sign cannot be pinned on it.
    let recognizer = AdlpNodeBuilder::new("sign_recognizer")
        .scheme(Scheme::adlp())
        .key_bits(512)
        .behavior(BehaviorProfile::faithful().with_link(
            LinkRole::Subscriber,
            Topic::new("image"),
            LogBehavior::Falsify,
        ))
        .build(&master, &server.handle(), &mut rng)?;

    // A lane detector that simply hides its receipts.
    let lane = AdlpNodeBuilder::new("lane_detector")
        .scheme(Scheme::adlp())
        .key_bits(512)
        .behavior(BehaviorProfile::faithful().with_link(
            LinkRole::Subscriber,
            Topic::new("image"),
            LogBehavior::Hide,
        ))
        .build(&master, &server.handle(), &mut rng)?;

    let publisher = feeder.advertise("image")?;
    let _s1 = recognizer.subscribe("image", |_| {})?;
    let _s2 = lane.subscribe("image", |_| {})?;

    println!("Publishing 3 camera frames (with a stop sign)...");
    for i in 0..3u8 {
        while feeder.pending_acks() > 0 {
            std::thread::sleep(Duration::from_micros(300));
        }
        publisher.publish(&vec![i; 4096])?;
    }
    while feeder.pending_acks() > 0 {
        std::thread::sleep(Duration::from_millis(1));
    }

    // The feeder also *fabricates* a publication that never happened.
    feeder.fabricate_publication("image", 99, &[0u8; 64], "sign_recognizer", &mut rng)?;

    for n in [&feeder, &recognizer, &lane] {
        n.flush()?;
    }

    let handle = server.handle();
    let report = Auditor::new(handle.keys().clone())
        .with_topology(master.topology())
        .audit_store(handle.store());

    println!("\n-- component verdicts --");
    for (component, verdict) in &report.verdicts {
        if verdict.is_faithful() {
            println!(
                "  {component:<16} FAITHFUL ({} valid entries)",
                verdict.valid_entries
            );
        } else {
            println!("  {component:<16} UNFAITHFUL:");
            for v in &verdict.violations {
                println!("      {:?} on {}#{}", v.kind, v.topic, v.seq);
            }
        }
    }

    println!("\n-- hidden records recovered --");
    for h in &report.hidden {
        println!(
            "  {} hid its {} record for {}#{} (proven by {})",
            h.component, h.direction, h.topic, h.seq, h.proven_by
        );
    }
    Ok(())
}
