//! Fault-injection soak: the full topology under seeded transport faults
//! (drops, delays, forced disconnects) plus a mid-run trusted-logger
//! outage, and the accountability pipeline's delivery guarantees across a
//! log-server restart.
//!
//! Three properties from the robustness work are proven here:
//!
//! 1. **No deadlocks** — every test finishes under an explicit wall-clock
//!    bound even while links flap, frames vanish, and the logger dies.
//! 2. **Classification is fault-invariant** — the auditor's verdict on the
//!    deposited entries of a faulted run is indistinguishable from the
//!    fault-free run: every entry Valid or Unproven, nobody convicted.
//! 3. **Nothing vanishes unaccounted** — entries produced by a faulted run
//!    and shipped through a `RemoteLogClient` across a server crash are
//!    each either delivered or counted as spilled.

use adlp::audit::{AuditReport, EntryClass, ViolationKind};
use adlp::core::{FaultConfig, ReconnectConfig, ResilienceConfig};
use adlp::logger::{Direction, LogEntry, LogServer, RemoteLogClient, RemoteLogEndpoint};
use adlp::pubsub::{NodeId, Topic};
use adlp::sim::{fanout_app, Fault, PayloadKind, Scenario};
use proptest::prelude::*;
use std::time::{Duration, Instant};

/// Generous ceiling for one test body; a deadlock anywhere in the
/// transport, retry, or logging threads would blow straight through it.
const WALL_CLOCK_BOUND: Duration = Duration::from_secs(60);

fn resilient() -> ResilienceConfig {
    ResilienceConfig::new()
        .with_ack_timeout(Duration::from_millis(15))
        .with_max_retries(1000)
        .with_retry_backoff(Duration::from_millis(5))
}

/// Every deposited entry classified Valid or Unproven, nothing rejected,
/// nobody convicted — the signature of a run whose log tells the truth.
fn assert_classifies_clean(audit: &AuditReport, label: &str) {
    assert!(
        audit.rejected_entries.is_empty(),
        "{label}: genuine entries must never be rejected: {:?}",
        audit.rejected_entries.len()
    );
    assert!(
        audit.unfaithful_components().is_empty(),
        "{label}: honest nodes must not be convicted: {:?}",
        audit.unfaithful_components()
    );
    let acceptable = |c: &Option<EntryClass>| {
        c.as_ref()
            .is_none_or(|c| matches!(c, EntryClass::Valid | EntryClass::Unproven))
    };
    for link in &audit.links {
        assert!(
            acceptable(&link.publisher_entry) && acceptable(&link.subscriber_entry),
            "{label}: unexpected class on {:?} seq {}: {:?} / {:?}",
            link.topic,
            link.seq,
            link.publisher_entry,
            link.subscriber_entry
        );
    }
}

#[test]
fn seeded_faults_classify_like_the_fault_free_run() {
    let t0 = Instant::now();

    // Baseline: the same topology with no faults and no deadlines.
    let baseline = Scenario::new(fanout_app(PayloadKind::Custom(64), 2, 100.0))
        .key_bits(512)
        .duration(Duration::from_millis(500))
        .run();
    assert_classifies_clean(&baseline.audit(), "fault-free");

    // Faulted: drops and delays on every outgoing link, plus a forced
    // disconnect late in the run; ack deadlines re-send what the link eats.
    let faulted = Scenario::new(fanout_app(PayloadKind::Custom(64), 2, 100.0))
        .key_bits(512)
        .duration(Duration::from_millis(500))
        .resilience(resilient())
        .faults_for(
            "feeder",
            FaultConfig::seeded(11)
                .with_drop_rate(0.25)
                .with_delay(0.2, Duration::from_millis(10))
                .with_disconnect_after(40),
        )
        .run();
    assert!(
        faulted.node_stats["sink0"].received > 5,
        "retries must keep data flowing: {:?}",
        faulted.node_stats
    );
    // The auditor cannot tell the difference: same clean classification.
    assert_classifies_clean(&faulted.audit(), "faulted");

    assert!(
        t0.elapsed() < WALL_CLOCK_BOUND,
        "deadlock suspected: {:?}",
        t0.elapsed()
    );
}

#[test]
fn mid_run_logger_outage_with_faults_is_survivable() {
    let t0 = Instant::now();
    let report = Scenario::new(fanout_app(PayloadKind::Custom(64), 2, 100.0))
        .key_bits(512)
        .duration(Duration::from_millis(700))
        .resilience(resilient())
        .faults_for(
            "feeder",
            FaultConfig::seeded(13)
                .with_drop_rate(0.2)
                .with_delay(0.2, Duration::from_millis(10)),
        )
        .fault_at(Duration::from_millis(250), Fault::Kill(0, 0))
        .run();

    // The data plane outlived the trusted logger (§V-B failure isolation).
    assert!(
        report.node_stats["sink0"].received > 20,
        "stats: {:?}",
        report.node_stats
    );
    assert!(report.store_len > 0, "pre-outage prefix must survive");

    // The logger cut can split a publication/receipt pair — reported as a
    // hidden record — but must never manufacture falsification, fabrication,
    // or replay evidence against honest nodes.
    let audit = report.audit();
    assert!(audit.rejected_entries.is_empty());
    for (who, verdict) in audit.verdicts.iter() {
        for v in &verdict.violations {
            assert!(
                matches!(
                    v.kind,
                    ViolationKind::HidPublication | ViolationKind::HidReceipt
                ),
                "outage produced a bogus conviction of {who:?}: {v:?}"
            );
        }
    }

    assert!(
        t0.elapsed() < WALL_CLOCK_BOUND,
        "deadlock suspected: {:?}",
        t0.elapsed()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Exact spill accounting under arbitrary outage/reconnect
    /// interleavings: a phase script alternates the server between up and
    /// down while the client keeps submitting. At every quiescent point the
    /// conservation law `submitted == delivered + buffered + spilled` must
    /// hold, the buffer must drain to zero after the final reconnect, and —
    /// because the buffer state at each down phase is fully determined by
    /// the script — the final `spilled` counter must equal the model's
    /// prediction *exactly*, not just bound it.
    #[test]
    fn spilled_is_exactly_accounted_across_outage_interleavings(
        cap in 1usize..6,
        phases in proptest::collection::vec((any::<bool>(), 0u64..10), 1..5),
    ) {
        let t0 = Instant::now();
        let entry = |seq: u64| {
            LogEntry::naive(
                NodeId::new("cam"),
                Topic::new("image"),
                Direction::Out,
                seq,
                seq,
                vec![0xA5; 64],
            )
        };

        let mut server = Some(LogServer::spawn());
        let mut endpoint = Some(
            RemoteLogEndpoint::bind(server.as_ref().unwrap().handle()).expect("bind"),
        );
        let addr = endpoint.as_ref().unwrap().addr();
        let mut client = RemoteLogClient::connect_with(
            addr,
            ReconnectConfig::new()
                .with_buffer_capacity(cap)
                .with_redial_backoff(Duration::from_millis(5)),
        )
        .expect("connect");
        let stats = std::sync::Arc::clone(client.stats());

        let mut seq = 0u64;
        let mut model_buffered = 0u64;
        let mut model_spilled = 0u64;
        for &(up, n) in &phases {
            if up && server.is_none() {
                // Outage ends: a fresh server on the same address; the
                // client redials and drains its buffer.
                let s = LogServer::spawn();
                endpoint = Some(rebind(s.handle(), addr));
                server = Some(s);
                prop_assert!(client.flush(Duration::from_secs(10)), "reconnect flush");
                model_buffered = 0;
            } else if !up && server.is_some() {
                // Outage begins: settle in-flight entries first so the
                // buffer state entering the outage is exactly zero.
                prop_assert!(client.flush(Duration::from_secs(10)), "pre-kill flush");
                drop(endpoint.take());
                server.take().unwrap().kill();
                let deadline = Instant::now() + Duration::from_secs(5);
                while stats.snapshot().connected {
                    prop_assert!(Instant::now() < deadline, "outage never detected");
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
            for _ in 0..n {
                prop_assert!(client.submit(&entry(seq)).is_accepted());
                seq += 1;
            }
            if server.is_none() {
                // Down-phase submissions fill the bounded buffer; the
                // overflow is spilled, deterministically.
                let fits = (cap as u64).saturating_sub(model_buffered).min(n);
                model_buffered += fits;
                model_spilled += n - fits;
            }
        }

        // Quiesce: bring the server back one last time and drain.
        if server.is_none() {
            let s = LogServer::spawn();
            endpoint = Some(rebind(s.handle(), addr));
            server = Some(s);
        }
        prop_assert!(client.flush(Duration::from_secs(10)), "final flush");
        let _ = (&endpoint, &server);

        let snap = stats.snapshot();
        prop_assert_eq!(snap.submitted, seq);
        prop_assert_eq!(snap.buffered, 0);
        prop_assert_eq!(snap.delivered + snap.spilled, snap.submitted);
        prop_assert_eq!(snap.spilled, model_spilled);
        prop_assert!(t0.elapsed() < WALL_CLOCK_BOUND);
    }
}

/// Re-binds the endpoint on `addr`, retrying while the OS releases the
/// port from the previous listener.
fn rebind(handle: adlp::logger::LoggerHandle, addr: std::net::SocketAddr) -> RemoteLogEndpoint {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match RemoteLogEndpoint::bind_on(handle.clone(), addr) {
            Ok(ep) => return ep,
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(10)),
            Err(e) => panic!("rebind failed: {e}"),
        }
    }
}

#[test]
fn entries_from_a_faulted_run_deposit_or_spill_across_a_server_restart() {
    let t0 = Instant::now();

    // Produce real protocol entries under transport faults.
    let report = Scenario::new(fanout_app(PayloadKind::Custom(64), 1, 100.0))
        .key_bits(512)
        .duration(Duration::from_millis(400))
        .resilience(resilient())
        .faults_for(
            "feeder",
            FaultConfig::seeded(17)
                .with_drop_rate(0.2)
                .with_delay(0.2, Duration::from_millis(10)),
        )
        .run();
    let entries: Vec<LogEntry> = report
        .logger
        .store()
        .entries()
        .into_iter()
        .map(|e| e.expect("store intact"))
        .collect();
    assert!(entries.len() >= 10, "need material: {}", entries.len());

    // Ship them through a remote client that loses its server mid-stream.
    let first_half = entries.len() / 2;
    let server_a = LogServer::spawn();
    let endpoint_a = RemoteLogEndpoint::bind(server_a.handle()).expect("bind");
    let addr = endpoint_a.addr();
    let mut client = RemoteLogClient::connect_with(
        addr,
        ReconnectConfig::new()
            .with_buffer_capacity(4)
            .with_redial_backoff(Duration::from_millis(10)),
    )
    .expect("connect");

    for e in &entries[..first_half] {
        assert!(client.submit(e).is_accepted());
    }
    assert!(client.flush(Duration::from_secs(10)), "pre-crash flush");
    assert_eq!(client.stats().snapshot().delivered, first_half as u64);

    // The server crashes; the client notices.
    drop(endpoint_a);
    server_a.kill();
    let stats = std::sync::Arc::clone(client.stats());
    let deadline = Instant::now() + Duration::from_secs(5);
    while stats.snapshot().connected {
        assert!(Instant::now() < deadline, "outage never detected");
        std::thread::sleep(Duration::from_millis(5));
    }

    // Submissions during the outage: 4 buffered, the rest counted spilled.
    // The worker is still alive, so every push is accepted into the client;
    // the spill accounting happens inside the worker.
    for e in &entries[first_half..] {
        assert!(client.submit(e).is_accepted());
    }

    // A fresh server comes up on the same address; the client reconnects
    // and drains its buffer.
    let server_b = LogServer::spawn();
    let _endpoint_b = rebind(server_b.handle(), addr);
    assert!(client.flush(Duration::from_secs(10)), "post-restart flush");

    let snap = stats.snapshot();
    let total = entries.len() as u64;
    assert_eq!(snap.submitted, total);
    assert_eq!(snap.buffered, 0, "buffer drained after reconnect");
    assert_eq!(
        snap.delivered + snap.spilled,
        total,
        "every entry deposited or accounted: {snap:?}"
    );
    assert_eq!(snap.delivered, first_half as u64 + 4);
    assert_eq!(snap.spilled, total - first_half as u64 - 4);

    assert!(
        t0.elapsed() < WALL_CLOCK_BOUND,
        "deadlock suspected: {:?}",
        t0.elapsed()
    );
}
