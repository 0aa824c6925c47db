//! Quickstart: two components exchanging signed, acknowledged, logged data,
//! followed by an audit.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use adlp::audit::Auditor;
use adlp::core::{AdlpNodeBuilder, Scheme};
use adlp::logger::LogServer;
use adlp::pubsub::Master;
use rand::SeedableRng;
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let master = Master::new();
    let server = LogServer::spawn();
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);

    println!("Generating RSA-1024 identities (paper §V-B step 1)...");
    let camera = AdlpNodeBuilder::new("camera")
        .scheme(Scheme::adlp())
        .build(&master, &server.handle(), &mut rng)?;
    let detector = AdlpNodeBuilder::new("detector")
        .scheme(Scheme::adlp())
        .build(&master, &server.handle(), &mut rng)?;

    let publisher = camera.advertise("image")?;
    let _sub = detector.subscribe("image", |msg| {
        println!(
            "  detector received image #{} ({} bytes)",
            msg.header.seq,
            msg.payload.len()
        );
    })?;

    println!("Publishing 5 signed frames (each acknowledged before the next)...");
    for i in 0..5u8 {
        // Wait out the gate: the previous message must be acknowledged
        // before this connection carries the next one.
        while camera.pending_acks() > 0 {
            std::thread::sleep(Duration::from_micros(200));
        }
        publisher.publish(&vec![i; 1024])?;
    }
    while camera.pending_acks() > 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    camera.flush()?;
    detector.flush()?;

    let handle = server.handle();
    println!(
        "Logger stored {} tamper-evident entries ({} bytes).",
        handle.store().len(),
        handle.store().total_bytes()
    );
    handle
        .store()
        .verify_chain()
        .expect("records match their commitment");

    let report = Auditor::new(handle.keys().clone())
        .with_topology(master.topology())
        .audit_store(handle.store());
    println!(
        "Audit: {} links, all clear = {}",
        report.link_count(),
        report.all_clear()
    );
    for (component, verdict) in &report.verdicts {
        println!(
            "  {component}: {} valid entries, {} violations",
            verdict.valid_entries,
            verdict.violations.len()
        );
    }
    Ok(())
}
