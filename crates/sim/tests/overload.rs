//! Overload acceptance scenarios: the deposit pipeline drowning by
//! construction.
//!
//! A paced logger admits one deposit per 20 ms (50 entries/s) while the
//! fan-out app generates ~800 entries/s (feeder `out` + sink `in` at
//! 400 Hz) — a 16× overload factor set by construction, not by luck.
//! These are the acceptance proofs for the overload-resilient pipeline:
//!
//! * **bounded memory** — no deposit queue ever exceeds its configured
//!   capacity, no matter how hard the arrival side pushes;
//! * **backpressure** — pressure-aware drivers skip ticks while their
//!   node's queue sits above the high watermark (counted, never silent);
//! * **accountable shedding** — every shed entry is covered by a signed
//!   gap receipt that survives the full audit: the auditor classifies the
//!   losses as `Shed`, with zero false `Hidden` convictions and zero
//!   rejected entries;
//! * **breaker recovery** — the per-target circuit breaker trips under
//!   saturation and closes again once probes succeed: overload is a state
//!   the pipeline passes through, not a terminal condition.
//!
//! Each seed is its own `#[test]` so the ≥4-seed acceptance matrix runs in
//! parallel under the standard harness.

use adlp_cluster::ClusterConfig;
use adlp_core::{OverloadConfig, ShedPolicy};
use adlp_pubsub::BreakerConfig;
use adlp_sim::{fanout_app, Expect, Fault, PayloadKind, Scenario, ScenarioReport};
use std::time::Duration;

/// One deposit per 20 ms: 50 entries/s of service for ~800 entries/s of
/// arrival — 16× overload by construction.
const PACE: Duration = Duration::from_millis(20);
const HZ: f64 = 400.0;
const CAPACITY: usize = 16;

fn overload_config(seed: u64) -> OverloadConfig {
    // Watermarks hug the capacity so the pressure-aware driver still gets
    // throttled, but bursts that land while the worker is blocked inside a
    // paced deposit overshoot the queue and must be shed.
    OverloadConfig::with_capacity(CAPACITY)
        .with_watermarks(12, 15)
        .with_breaker(
            BreakerConfig::default()
                .with_trip(4, 8)
                .with_cooldown(Duration::from_millis(25))
                .with_seed(seed),
        )
}

fn run_overloaded(seed: u64, policy: ShedPolicy) -> ScenarioReport {
    Scenario::new(fanout_app(PayloadKind::Custom(64), 1, HZ))
        .key_bits(512)
        .seed(seed)
        .warmup(Duration::from_millis(100))
        .duration(Duration::from_millis(700))
        .overload(overload_config(seed).with_policy(policy))
        .paced_logger(PACE)
        .run()
}

/// The full acceptance-criteria bundle for one deterministic 16× run.
fn assert_overload_invariants(report: &ScenarioReport) {
    // The oracle's clauses (1)–(3): everything the pipelines deposited is
    // in the log, its chain verifies, the audit blames no node.
    report
        .judge(&Expect::default())
        .unwrap_or_else(|breach| panic!("{breach}"));

    // Bounded memory: the queue never exceeded its capacity.
    for (node, p) in &report.pressure {
        assert!(
            p.high_water() <= CAPACITY as u64,
            "{node}: queue grew past its bound ({} > {CAPACITY})",
            p.high_water()
        );
    }

    // Backpressure engaged: the driver skipped ticks under high water.
    assert!(
        report.publishes_throttled > 0,
        "16x overload must throttle the pressure-aware driver"
    );

    // The pipeline kept depositing (throughput under overload) and drained
    // completely at teardown (recovery once the load stopped).
    let deposited: u64 = report.pressure.values().map(|p| p.deposited()).sum();
    assert!(deposited > 0, "overload must degrade, not halt, deposits");
    assert!(report.store_len > 0);
    for (node, p) in &report.pressure {
        assert_eq!(p.depth(), 0, "{node}: queue must drain once load drops");
    }

    // Accountable shedding: losses happened, and every one of them is
    // admitted by a receipt that was actually delivered.
    let shed_total: u64 = report.pressure.values().map(|p| p.entries_shed()).sum();
    assert!(
        shed_total > 0,
        "16x overload must shed: {:?}",
        report.pressure
    );
    for (node, p) in &report.pressure {
        assert_eq!(
            p.receipts_undeliverable(),
            0,
            "{node}: every gap receipt must reach the logger"
        );
    }

    // Breaker lifecycle: saturation tripped it, recovery closed it.
    let trips: u64 = report.pressure.values().map(|p| p.breaker_trips()).sum();
    let closes: u64 = report.pressure.values().map(|p| p.breaker_closes()).sum();
    assert!(trips >= 1, "sustained saturation must trip a breaker");
    assert!(closes >= 1, "successful probes must re-close the breaker");

    // The audit: zero false convictions. Shed ranges verify, absences they
    // cover classify as `Shed` (not `Hidden`), and no deposited entry —
    // receipt or data — is rejected (clause 3, above).
    let audit = report.audit();
    assert!(
        audit.hidden.is_empty(),
        "receipted sheds must not convict as hiding: {:?}",
        audit.hidden
    );
    assert!(audit.all_clear(), "verdicts: {:?}", audit.verdicts);

    // Exact accounting: the verified receipts admit precisely the number
    // of entries the pipelines shed — no loss is unaccounted, no receipt
    // overclaims.
    let receipted: u64 = audit.shed.iter().map(|r| r.count).sum();
    assert_eq!(
        receipted, shed_total,
        "verified receipts must cover exactly the shed entries (receipts: {:?})",
        audit.shed
    );
    assert!(!audit.shed.is_empty());
}

#[test]
fn overload_16x_seed_11_sheds_accountably_and_recovers() {
    assert_overload_invariants(&run_overloaded(11, ShedPolicy::OldestFirst));
}

#[test]
fn overload_16x_seed_22_sheds_accountably_and_recovers() {
    assert_overload_invariants(&run_overloaded(22, ShedPolicy::OldestFirst));
}

#[test]
fn overload_16x_seed_33_sheds_accountably_and_recovers() {
    assert_overload_invariants(&run_overloaded(33, ShedPolicy::OldestFirst));
}

#[test]
fn overload_16x_seed_44_sheds_accountably_and_recovers() {
    assert_overload_invariants(&run_overloaded(44, ShedPolicy::OldestFirst));
}

#[test]
fn overload_16x_newest_first_policy_holds_same_invariants() {
    // The deadline-aware policy sheds the newest (already-stale-by-arrival)
    // entries instead of the oldest queued ones; accountability must not
    // depend on which end of the queue pays.
    assert_overload_invariants(&run_overloaded(55, ShedPolicy::NewestFirst));
}

#[test]
fn overload_with_replica_crash_chaos_stays_accountable() {
    // Breaker flap meets crash chaos: a 16x-overloaded pipeline deposits
    // into a replicated cluster shard while one replica is killed mid-run
    // and restarted (lagging) later. Quorum absorbs the crash, the queue
    // bound holds, receipts still verify, and the auditor never converts
    // overload + crash into a falsification conviction.
    let report = Scenario::new(fanout_app(PayloadKind::Custom(64), 1, HZ))
        .key_bits(512)
        .seed(77)
        .warmup(Duration::from_millis(100))
        .duration(Duration::from_millis(700))
        .overload(overload_config(77))
        .paced_logger(Duration::from_millis(10))
        .cluster(ClusterConfig::replicated(1))
        .fault_at(Duration::from_millis(150), Fault::Kill(0, 1))
        .fault_at(Duration::from_millis(400), Fault::Restart(0, 1))
        .run();

    for (node, p) in &report.pressure {
        assert!(
            p.high_water() <= CAPACITY as u64,
            "{node}: queue bound must hold under crash chaos"
        );
    }
    assert!(report.publishes_throttled > 0);
    let shed_total: u64 = report.pressure.values().map(|p| p.entries_shed()).sum();
    assert!(shed_total > 0, "pressure: {:?}", report.pressure);
    assert!(report.store_len > 0, "quorum must keep accepting deposits");
    // Clause (3) included: the auditor never converts overload + crash
    // into falsification evidence (evidence loss at most).
    report
        .judge(&Expect::default())
        .unwrap_or_else(|breach| panic!("{breach}"));

    let audit = report.audit();
    // Receipts that made it to quorum verify; none may be rejected as
    // invalid (rejected_entries is empty above), and they never overclaim.
    let receipted: u64 = audit.shed.iter().map(|r| r.count).sum();
    assert!(
        receipted <= shed_total,
        "receipts may only admit real sheds ({receipted} > {shed_total})"
    );
}
