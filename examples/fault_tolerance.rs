//! The failure-handling layer end to end: a mute subscriber tripping the
//! ack deadline into a clean teardown with audit evidence, a lossy link
//! surviving on bounded retries, and a log client riding out a server
//! outage with bounded buffering and exact spill accounting.
//!
//! ```text
//! cargo run --release --example fault_tolerance
//! ```

use adlp::audit::Auditor;
use adlp::core::{AdlpNodeBuilder, BehaviorProfile, FaultConfig, ResilienceConfig, Scheme};
use adlp::logger::{
    Direction, LogEntry, LogServer, ReconnectConfig, RemoteLogClient, RemoteLogEndpoint,
};
use adlp::pubsub::{Master, Topic};
use rand::SeedableRng;
use std::time::{Duration, Instant};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    mute_subscriber()?;
    lossy_link()?;
    logger_outage()?;
    Ok(())
}

/// A subscriber that withholds acknowledgements wedges the link under
/// paper semantics; with an ack deadline the publisher retries, tears the
/// link down, and flushes the unacked publication as audit evidence.
fn mute_subscriber() -> Result<(), Box<dyn std::error::Error>> {
    println!("--- mute subscriber: deadline -> teardown -> evidence ---");
    let master = Master::new();
    let server = LogServer::spawn();
    let handle = server.handle();
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);

    let camera = AdlpNodeBuilder::new("camera")
        .scheme(Scheme::adlp())
        .key_bits(512)
        .resilience(
            ResilienceConfig::new()
                .with_ack_timeout(Duration::from_millis(30))
                .with_max_retries(2)
                .with_retry_backoff(Duration::from_millis(10)),
        )
        .build(&master, &handle, &mut rng)?;
    let sink = AdlpNodeBuilder::new("sink")
        .scheme(Scheme::adlp())
        .key_bits(512)
        .behavior(BehaviorProfile::faithful().withholding_acks(Topic::new("image")))
        .build(&master, &handle, &mut rng)?;

    let publisher = camera.advertise("image")?;
    let _sub = sink.subscribe("image", |_| {})?;
    publisher.publish(&[1u8; 256])?;

    let deadline = Instant::now() + Duration::from_secs(10);
    while camera.pending_acks() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    for event in camera.take_link_events() {
        println!("  event: {event:?}");
    }
    camera.flush()?;
    sink.flush()?;

    let report = Auditor::new(handle.keys().clone())
        .with_topology(master.topology())
        .audit_store(handle.store());
    println!(
        "  audit: {} links, unfaithful components: {:?}",
        report.link_count(),
        report
            .unfaithful_components()
            .iter()
            .map(|(id, _)| id.as_str())
            .collect::<Vec<_>>(),
    );
    Ok(())
}

/// A link dropping 30% of frames recovers through retransmission; the
/// retried duplicates are absorbed by the replay defense, so the audit of
/// the faulted run is as clean as a fault-free one.
fn lossy_link() -> Result<(), Box<dyn std::error::Error>> {
    println!("--- lossy link: retries carry the stream, audit stays clean ---");
    let master = Master::new();
    let server = LogServer::spawn();
    let handle = server.handle();
    let mut rng = rand::rngs::StdRng::seed_from_u64(8);

    let camera = AdlpNodeBuilder::new("camera")
        .scheme(Scheme::adlp())
        .key_bits(512)
        .resilience(
            ResilienceConfig::new()
                .with_ack_timeout(Duration::from_millis(15))
                .with_max_retries(1000)
                .with_retry_backoff(Duration::from_millis(5)),
        )
        .faults(
            FaultConfig::seeded(42)
                .with_drop_rate(0.3)
                .with_delay(0.2, Duration::from_millis(5)),
        )
        .build(&master, &handle, &mut rng)?;
    let sink = AdlpNodeBuilder::new("sink")
        .scheme(Scheme::adlp())
        .key_bits(512)
        .build(&master, &handle, &mut rng)?;

    let publisher = camera.advertise("image")?;
    let received = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
    let seen = std::sync::Arc::clone(&received);
    let _sub = sink.subscribe("image", move |_| {
        seen.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    })?;

    for i in 0..20u8 {
        let deadline = Instant::now() + Duration::from_secs(10);
        while camera.pending_acks() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        publisher.publish(&[i; 256])?;
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while camera.pending_acks() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    camera.flush()?;
    sink.flush()?;

    let faults = camera.fault_stats();
    use std::sync::atomic::Ordering::Relaxed;
    println!(
        "  delivered {}/20 publications; injector dropped {}, delayed {} frames",
        received.load(Relaxed),
        faults.dropped.load(Relaxed),
        faults.delayed.load(Relaxed),
    );
    let report = Auditor::new(handle.keys().clone())
        .with_topology(master.topology())
        .audit_store(handle.store());
    println!("  audit all clear = {}", report.all_clear());
    assert!(
        report.all_clear(),
        "a faulted-but-recovered run must audit clean"
    );
    Ok(())
}

/// A reconnecting log client buffers entries through a server outage and
/// accounts exactly for what it had to spill once the bounded buffer
/// filled; nothing is silently lost.
fn logger_outage() -> Result<(), Box<dyn std::error::Error>> {
    println!("--- logger outage: bounded buffering with exact spill accounting ---");
    let server_a = LogServer::spawn();
    let endpoint = RemoteLogEndpoint::bind(server_a.handle())?;
    let addr = endpoint.addr();
    let mut client = RemoteLogClient::connect_with(
        addr,
        ReconnectConfig::new()
            .with_buffer_capacity(4)
            .with_redial_backoff(Duration::from_millis(10)),
    )?;

    let entry = |seq| {
        LogEntry::naive(
            "cam".into(),
            Topic::new("t"),
            Direction::Out,
            seq,
            0,
            vec![0u8; 64],
        )
    };
    for seq in 0..6 {
        assert!(client.submit(&entry(seq)).is_accepted());
    }
    assert!(client.flush(Duration::from_secs(5)));
    println!("  before outage: {:?}", client.stats().snapshot());

    endpoint.shutdown();
    server_a.kill();
    let deadline = Instant::now() + Duration::from_secs(10);
    while client.stats().snapshot().connected && Instant::now() < deadline {
        assert!(client.submit(&entry(100)).is_accepted());
        std::thread::sleep(Duration::from_millis(5));
    }
    for seq in 6..16 {
        assert!(client.submit(&entry(seq)).is_accepted());
    }
    println!("  during outage: {:?}", client.stats().snapshot());

    let server_b = LogServer::spawn();
    let deadline = Instant::now() + Duration::from_secs(10);
    let _endpoint_b = loop {
        match RemoteLogEndpoint::bind_on(server_b.handle(), addr) {
            Ok(ep) => break ep,
            Err(e) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(20));
                let _ = e;
            }
            Err(e) => return Err(Box::new(e)),
        }
    };
    assert!(
        client.flush(Duration::from_secs(10)),
        "client must drain after the server returns"
    );
    let snap = client.stats().snapshot();
    println!("  after restart: {snap:?}");
    assert_eq!(snap.buffered, 0);
    assert_eq!(
        snap.delivered + snap.spilled,
        snap.submitted,
        "every entry is either delivered or counted as spilled"
    );
    println!(
        "  invariant holds: {} delivered + {} spilled == {} submitted ({} reconnects)",
        snap.delivered, snap.spilled, snap.submitted, snap.reconnects
    );
    Ok(())
}
