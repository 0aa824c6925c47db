//! The experiment registry: the seven tables and figures of the paper's
//! evaluation (§VI), the §IV verdict matrix, and the three scenario tables
//! that have no closed-loop twin in `benchmark/`.
//!
//! Adding an experiment is one [`Run`] function plus one line in
//! [`EXPERIMENTS`].

use crate::stats::{mean_std, percentile};
use crate::table::{Cell, Table};
use adlp_core::{AdlpConfig, BehaviorProfile, LinkRole, LogBehavior, Scheme};
use adlp_crypto::{pkcs1, sha256, sha256::Sha256, RsaKeyPair};
use adlp_logger::Direction;
use adlp_pubsub::wire::FRAME_PREAMBLE_LEN;
use adlp_pubsub::Topic;
use adlp_sim::{fanout_app, self_driving_app, AppSpec, PayloadKind, Scenario};
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// How large an experiment runs. There are exactly two sizes and nothing
/// else to set: [`Scale::PAPER`] is what `adlp-bench` always runs,
/// [`Scale::SMOKE`] is what the crate's tests run.
#[derive(Debug, Clone, PartialEq)]
pub struct Scale {
    /// Table I timing samples per data type.
    pub samples: usize,
    /// Measurement window of every scenario-driven experiment.
    pub window: Duration,
    /// RSA modulus width of every timed experiment.
    pub key_bits: usize,
    /// Light-client audits timed per gossip row.
    pub light_audits: usize,
    /// Full litigations timed per dispute scenario.
    pub dispute_reps: usize,
}

impl Scale {
    /// The paper's configuration: 3,000 samples, RSA-1024; and enough
    /// light audits that ten samples lie beyond the reported p99.
    pub const PAPER: Scale = Scale {
        samples: 3_000,
        window: Duration::from_secs(3),
        key_bits: 1024,
        light_audits: 1_000,
        dispute_reps: 3,
    };

    /// Shrunken parameters: every experiment keeps its shape, the whole
    /// registry runs in about a minute.
    pub const SMOKE: Scale = Scale {
        samples: 20,
        window: Duration::from_millis(600),
        key_bits: 512,
        light_audits: 20,
        dispute_reps: 1,
    };

    /// `RSA-<bits>, <window> window` — how the scenario-driven tables state
    /// their size in the title.
    fn scenario_note(&self) -> String {
        format!("RSA-{}, {:?} window", self.key_bits, self.window)
    }
}

/// An experiment: runs at the given scale and returns its table.
pub type Run = fn(&Scale) -> Table;

/// Every experiment by its `adlp-bench <name>`, in the order they run.
pub const EXPERIMENTS: &[(&str, Run)] = &[
    ("table1", table1_crypto_times),
    ("fig13", fig13_message_latency),
    ("fig14", fig14_publisher_cpu),
    ("table2", table2_system_cpu),
    ("table3", table3_sizes),
    ("fig15", fig15_log_rates),
    ("table4", table4_system_log_rate),
    ("lemmas", lemma_matrix),
    ("overload", overload_resilience),
    ("gossip", gossip_overhead),
    ("dispute", dispute_resolution),
];

/// A scenario over `app` under `scheme` at the scale's key width and
/// measurement window.
fn scenario(app: AppSpec, scheme: Scheme, seed: u64, scale: &Scale) -> Scenario {
    Scenario::new(app)
        .scheme(scheme)
        .key_bits(scale.key_bits)
        .duration(scale.window)
        .seed(seed)
}

/// Milliseconds elapsed since `since`.
fn ms_since(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// Reproduces Table I: average times to hash / hash+sign Steering, Scan and
/// Image payloads (3,000 samples each in the paper). The title names the
/// SHA-256 kernel the CPU ran ([`sha256::kernel`]). "Verify" is the mean
/// PKCS#1 verification of that signature against the known digest, the
/// cost a light-client audit or the auditor pays per signature.
fn table1_crypto_times(scale: &Scale) -> Table {
    let mut table = Table::new(
        format!(
            "Table I — hashing and signing time per data type (ms; RSA-{}, SHA-256 {} kernel, {} samples)",
            scale.key_bits,
            sha256::kernel(),
            scale.samples
        ),
        "Type | Size (B) | Hash only | Hash stdev | Hash+Sign | Hash+Sign stdev | Verify",
    );
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xAD1);
    let keys = RsaKeyPair::generate(scale.key_bits, &mut rng);
    for kind in [PayloadKind::Steering, PayloadKind::Scan, PayloadKind::Image] {
        let mut body = vec![0u8; 16];
        body.extend_from_slice(&kind.generate(1));
        debug_assert_eq!(body.len(), kind.body_len());

        let mut hash_ms = Vec::with_capacity(scale.samples);
        let mut sign_ms = Vec::with_capacity(scale.samples);
        let mut verify_ms = Vec::with_capacity(scale.samples);
        for _ in 0..scale.samples {
            let t0 = Instant::now();
            let mut h = Sha256::new();
            h.update(&body);
            let digest = h.finalize();
            hash_ms.push(ms_since(t0));
            std::hint::black_box(&digest);

            let t1 = Instant::now();
            let mut h = Sha256::new();
            h.update(&body);
            let digest = h.finalize();
            let sig = pkcs1::sign_digest(keys.private_key(), &digest).expect("sign");
            sign_ms.push(ms_since(t1));

            let t2 = Instant::now();
            let valid = pkcs1::verify_digest(keys.public_key(), &digest, &sig);
            verify_ms.push(ms_since(t2));
            assert!(valid, "verify");
        }
        let (hash_avg, hash_std) = mean_std(&hash_ms);
        let (sign_avg, sign_std) = mean_std(&sign_ms);
        let (verify_avg, _) = mean_std(&verify_ms);
        table.rows.push(vec![
            kind.label().into(),
            kind.body_len().into(),
            Cell::Float(hash_avg, 3),
            Cell::Float(hash_std, 3),
            Cell::Float(sign_avg, 3),
            Cell::Float(sign_std, 3),
            Cell::Float(verify_avg, 3),
        ]);
    }
    table
}

/// Reproduces Figure 13: average end-to-end message latency from publisher
/// to subscriber over a size sweep, base vs ADLP.
fn fig13_message_latency(scale: &Scale) -> Table {
    let mut table = Table::new(
        format!(
            "Figure 13 — mean message latency, publisher → subscriber (ms; {})",
            scale.scenario_note()
        ),
        "Size (B) | Base | ADLP",
    );
    for size in [20usize, 1_000, 10_000, 100_000, 500_000, 921_641] {
        let mut row: Vec<Cell> = vec![size.into()];
        for scheme in [Scheme::Base, Scheme::adlp()] {
            // Rate low enough that even ~1 MB messages keep up.
            let app = fanout_app(PayloadKind::Custom(size), 1, 20.0);
            let report = scenario(app, scheme, 7 + size as u64, scale).run();
            let ms = report
                .mean_latency_ns
                .get(&("data".into(), "sink0".into()))
                .map_or(f64::NAN, |ns| ns / 1e6);
            row.push(Cell::Float(ms, 3));
        }
        table.rows.push(row);
    }
    table
}

/// Reproduces Figure 14: CPU utilization attributed to the Image publisher
/// (percent of one core) for 1–4 subscribers under the three schemes.
fn fig14_publisher_cpu(scale: &Scale) -> Table {
    let mut table = Table::new(
        format!(
            "Figure 14 — Image publisher CPU vs number of subscribers \
             (% of one core, publisher-attributed threads; {})",
            scale.scenario_note()
        ),
        "Subscribers | NoLog | Base | ADLP",
    );
    for subs in 1..=4usize {
        let mut row: Vec<Cell> = vec![subs.into()];
        for scheme in [Scheme::NoLogging, Scheme::Base, Scheme::adlp()] {
            let app = fanout_app(PayloadKind::Image, subs, 20.0);
            let report = scenario(app, scheme, 100 + subs as u64, scale)
                .measure_cpu_of("feeder")
                .run();
            row.push(Cell::Float(report.node_cpu_percent.unwrap_or(f64::NAN), 2));
        }
        table.rows.push(row);
    }
    table
}

/// Reproduces Table II: process-wide CPU (percent of all cores) while
/// running the full self-driving graph under each scheme, plus the idle
/// baseline.
fn table2_system_cpu(scale: &Scale) -> Table {
    let mut table = Table::new(
        format!(
            "Table II — system-wide CPU, self-driving application (% of the machine; {})",
            scale.scenario_note()
        ),
        "Config | CPU",
    );
    // Idle: measure this process doing nothing.
    let probe = adlp_sim::CpuProbe::start();
    std::thread::sleep(scale.window.min(Duration::from_secs(1)));
    let idle = probe.utilization_percent_of_machine();
    table.rows.push(vec!["Idle".into(), Cell::Float(idle, 2)]);
    for (label, scheme) in [
        ("No Logging", Scheme::NoLogging),
        ("Base Logging", Scheme::Base),
        ("ADLP", Scheme::adlp()),
    ] {
        let report = scenario(self_driving_app(), scheme, 200, scale).run();
        let pct = report.process_cpu_percent / adlp_sim::metrics::cpu_count() as f64;
        table.rows.push(vec![label.into(), Cell::Float(pct, 2)]);
    }
    table
}

/// Reproduces Table III by actually transmitting one message of each type
/// under each scheme and reading back the stored entry sizes. The message
/// columns are `|D| + 4` (base) and `|D| + 4 + |sig|` (ADLP); the
/// subscriber's ADLP entry stores `h(D)`. Byte arithmetic, so it runs at
/// the paper's RSA-1024 at every scale.
fn table3_sizes(_scale: &Scale) -> Table {
    let key_bits = Scale::PAPER.key_bits;
    let mut table = Table::new(
        format!("Table III — message and log entry sizes (bytes; RSA-{key_bits})"),
        "Type | Msg base | Msg ADLP | Pub base | Sub base | Pub ADLP | Sub ADLP",
    );
    for kind in [PayloadKind::Steering, PayloadKind::Scan, PayloadKind::Image] {
        let base_message = kind.body_len() + FRAME_PREAMBLE_LEN;
        let mut row: Vec<Cell> = vec![
            kind.label().into(),
            base_message.into(),
            (base_message + key_bits / 8).into(),
        ];
        for scheme in [Scheme::Base, Scheme::adlp()] {
            // A 1-publisher/1-subscriber link at a very low rate, just long
            // enough for one message to complete its full protocol round;
            // only one pub/sub entry pair is read, so extras are harmless.
            let report = Scenario::new(fanout_app(kind, 1, 10.0))
                .scheme(scheme)
                .key_bits(key_bits)
                .warmup(Duration::from_millis(50))
                .duration(Duration::from_millis(250))
                .seed(300)
                .run();
            let (mut pub_entry, mut sub_entry) = (0usize, 0usize);
            for e in report.logger.store().entries() {
                let e = e.expect("decodable entry");
                match e.direction {
                    Direction::Out => pub_entry = e.encoded_len(),
                    Direction::In => sub_entry = e.encoded_len(),
                }
            }
            row.extend([pub_entry.into(), sub_entry.into()]);
        }
        table.rows.push(row);
    }
    table
}

/// Reproduces Figure 15: per-type log generation rate for Steering and
/// Image under base, ADLP with the subscriber storing `h(D)`, and ADLP with
/// the subscriber storing the data.
fn fig15_log_rates(scale: &Scale) -> Table {
    let mut table = Table::new(
        format!(
            "Figure 15 — log generation rates (KB/s; {})",
            scale.scenario_note()
        ),
        "Type | Hz | Base | ADLP h(D) | ADLP D",
    );
    const HZ: f64 = 20.0;
    for kind in [PayloadKind::Steering, PayloadKind::Image] {
        let mut row: Vec<Cell> = vec![kind.label().into(), Cell::Float(HZ, 0)];
        let schemes = [
            Scheme::Base,
            Scheme::Adlp(AdlpConfig::new()),
            Scheme::Adlp(AdlpConfig::new().storing_data()),
        ];
        for (i, scheme) in schemes.into_iter().enumerate() {
            let report = scenario(fanout_app(kind, 1, HZ), scheme, 400 + i as u64, scale).run();
            let kbps = report.volume.bytes as f64 / 1e3 / report.elapsed.as_secs_f64();
            row.push(Cell::Float(kbps, 2));
        }
        table.rows.push(row);
    }
    table
}

/// Reproduces Table IV: the full self-driving app's log generation rate
/// under base vs ADLP (subscribers storing hashes in both).
///
/// Two ADLP rows are reported. With per-acknowledgement publisher entries
/// (the prototype's §V-B step 6), a topic with k subscribers stores its
/// data k times, so ADLP costs ≈ k× base on fan-out topics — visibly more
/// than the paper's +1.1 %. With **aggregated** publisher logging (the
/// paper's §VI-E optimization: one entry per publication), ADLP lands
/// within a few percent of base, which is the only configuration
/// arithmetically consistent with the paper's Table IV numbers.
fn table4_system_log_rate(scale: &Scale) -> Table {
    let mut table = Table::new(
        format!(
            "Table IV — system-wide log generation rate (subscribers storing hashes; {})",
            scale.scenario_note()
        ),
        "Scheme | Mb/s | vs Base (%)",
    );
    let mut base = None;
    for (label, scheme) in [
        ("Base", Scheme::Base),
        ("ADLP (per-ack entries)", Scheme::adlp()),
        (
            "ADLP (aggregated, §VI-E)",
            Scheme::Adlp(AdlpConfig::new().aggregated()),
        ),
    ] {
        let report = scenario(self_driving_app(), scheme, 500, scale)
            .base_stores_hash(true)
            .run();
        let mbps = report.log_rate_mbps();
        let base = *base.get_or_insert(mbps);
        table.rows.push(vec![
            label.into(),
            Cell::Float(mbps, 3),
            Cell::Float((mbps / base - 1.0) * 100.0, 1),
        ]);
    }
    table
}

/// An executable rendition of Lemmas 1–3 / Theorems 1–2: runs each
/// unfaithful behaviour of the paper's §III-B against a faithful
/// counterpart in a live system and checks that the auditor convicts
/// exactly the expected component. The verdicts do not depend on scale, so
/// the run is fixed at RSA-512 and 0.6 s per behaviour.
fn lemma_matrix(_scale: &Scale) -> Table {
    struct Case {
        name: &'static str,
        claim: &'static str,
        /// The one unfaithful node and what it does on the `data` link —
        /// the node the auditor must convict (`None`: nobody).
        culprit: Option<(&'static str, LogBehavior)>,
    }
    let cases = [
        Case {
            name: "all faithful",
            claim: "ideal system: everything valid",
            culprit: None,
        },
        Case {
            name: "subscriber hides",
            claim: "Lemma 2: receipt exposed by its own ack",
            culprit: Some(("sink0", LogBehavior::Hide)),
        },
        Case {
            name: "publisher hides",
            claim: "Lemma 2: publication exposed by subscriber's s_x",
            culprit: Some(("feeder", LogBehavior::Hide)),
        },
        Case {
            name: "publisher falsifies",
            claim: "Lemma 3(i): counterpart's record convicts it",
            culprit: Some(("feeder", LogBehavior::Falsify)),
        },
        Case {
            name: "subscriber falsifies",
            claim: "Lemma 3(ii): cannot forge s_x over its lie",
            culprit: Some(("sink0", LogBehavior::Falsify)),
        },
        // The forged entries are rejected rather than attributed; the true
        // receipts are recovered as hidden, which convicts the
        // impersonator of hiding.
        Case {
            name: "subscriber impersonates",
            claim: "authenticity check (3) rejects forged authorship",
            culprit: Some(("sink0", LogBehavior::ImpersonateAs("feeder".into()))),
        },
    ];

    let mut table = Table::new(
        "Protocol analysis — unfaithful behaviours vs a faithful counterpart \
         (RSA-512, 0.6 s per behaviour)",
        "Behaviour | Expected culprit | Convicted | Match | Paper claim",
    );
    let or_nobody = |names: &[String]| match names {
        [] => "(nobody)".to_string(),
        names => names.join(","),
    };
    for case in cases {
        let mut run = Scenario::new(fanout_app(PayloadKind::Custom(256), 1, 40.0))
            .key_bits(512)
            .duration(Duration::from_millis(600))
            .seed(77);
        let mut expected = Vec::new();
        if let Some((node, behavior)) = case.culprit {
            let role = match node {
                "feeder" => LinkRole::Publisher,
                _ => LinkRole::Subscriber,
            };
            let profile = BehaviorProfile::faithful().with_link(role, Topic::new("data"), behavior);
            run = run.behavior(node, profile);
            expected.push(node.to_string());
        }
        let convicted: Vec<String> = run
            .run()
            .audit()
            .unfaithful_components()
            .into_iter()
            .map(|(id, _)| id.to_string())
            .collect();
        table.rows.push(vec![
            case.name.into(),
            or_nobody(&expected).into(),
            or_nobody(&convicted).into(),
            Cell::Check(convicted == expected),
            case.claim.into(),
        ]);
    }
    table
}

/// Measures the overload-resilient deposit pipeline at 1×, 4× and 16×
/// offered load. The logger is paced to 50 deposits/s (one per 20 ms) and
/// the fan-out app's rate is scaled so the *offered* entry rate (feeder
/// `out` + sink `in`) is `factor × 50/s` — the overload factor is set by
/// construction.
///
/// Columns: `Deposited e/s` is deposits over total wall time (warmup +
/// window + drain); `Shed %` is shed ÷ (shed + deposited); `Receipts` are
/// the signed gap receipts the auditor verified and `Receipted` the
/// entries they admit, which must equal `Shed`; `Throttled` counts driver
/// ticks skipped by backpressure; `Trips` / `Closes` are circuit-breaker
/// transitions across all nodes; `Drain ms` is the time to empty the
/// backlog once the load stops. The `Audit` check holds when the audit
/// convicts nobody: shed ranges verified, no false `Hidden`, no rejected
/// entries.
fn overload_resilience(scale: &Scale) -> Table {
    use adlp_core::OverloadConfig;
    use adlp_pubsub::BreakerConfig;

    const PACE_MS: u64 = 20;
    let service_eps = 1_000.0 / PACE_MS as f64;
    let mut table = Table::new(
        format!(
            "Overload — admission control, shedding and breaker recovery \
             (logger paced to {service_eps:.0} deposits/s, capacity-16 queue; {})",
            scale.scenario_note()
        ),
        "Load | Offered e/s | Deposited e/s | Shed | Shed % | Receipts | Receipted | Throttled \
         | Trips | Closes | Drain ms | Audit",
    );
    for (i, factor) in [1usize, 4, 16].into_iter().enumerate() {
        // Offered = 2 entries per publication (out + in) at `hz`.
        let hz = service_eps * factor as f64 / 2.0;
        let seed = 900 + i as u64;
        let warmup = Duration::from_millis(100);
        let started = Instant::now();
        let app = fanout_app(PayloadKind::Custom(64), 1, hz);
        let report = scenario(app, Scheme::adlp(), seed, scale)
            .warmup(warmup)
            .overload(
                OverloadConfig::with_capacity(16)
                    .with_watermarks(12, 15)
                    .with_breaker(
                        BreakerConfig::default()
                            .with_trip(4, 8)
                            .with_cooldown(Duration::from_millis(25))
                            .with_seed(seed),
                    ),
            )
            .paced_logger(Duration::from_millis(PACE_MS))
            .run();
        let wall = started.elapsed();
        let drain = wall.saturating_sub(warmup + scale.window);

        let pressure = || report.pressure.values();
        let deposited: u64 = pressure().map(|p| p.deposited()).sum();
        let shed: u64 = pressure().map(|p| p.entries_shed()).sum();
        let audit = report.audit();
        let audit_clean =
            audit.all_clear() && audit.hidden.is_empty() && audit.rejected_entries.is_empty();
        table.rows.push(vec![
            format!("{factor}x").into(),
            Cell::Float(2.0 * hz, 1),
            Cell::Float(deposited as f64 / wall.as_secs_f64(), 1),
            shed.into(),
            Cell::Float(100.0 * shed as f64 / (deposited + shed).max(1) as f64, 1),
            audit.shed.len().into(),
            audit.shed.iter().map(|r| r.count).sum::<u64>().into(),
            report.publishes_throttled.into(),
            pressure().map(|p| p.breaker_trips()).sum::<u64>().into(),
            pressure().map(|p| p.breaker_closes()).sum::<u64>().into(),
            Cell::Float(drain.as_secs_f64() * 1e3, 1),
            Cell::Check(audit_clean),
        ]);
    }
    table
}

/// Log size of the gossip experiment: large enough for a multi-level
/// inclusion proof, small enough that the audit cost is the signatures.
const GOSSIP_ENTRIES: usize = 64;

/// Measures what retiring the trusted auditor costs, on both links from
/// one experiment: gossip convergence time for federations of growing `f`
/// — in-process channels under seeded link faults (15% drop, 20% × 5 ms
/// delay) and real sockets behind seeded chaos proxies (connection
/// resets, byte-boundary splits, delays, stalls) — how long the
/// federation takes to reconverge after a fully partitioned witness,
/// whose view went stale while it was cut off, is healed, and the per-ack
/// overhead a light client pays to verify the quorum's cosignatures,
/// inclusion and consistency itself instead of trusting the logger's
/// acknowledgement.
///
/// Columns: the set runs `2f + 1` `Witnesses` with cosign `Quorum`
/// `f + 1`; `Rounds` / `Converge ms` are the gossip rounds (and their
/// wall-clock, including injected faults and settle windows) until every
/// live witness agreed on the head; `Faults` counts what the link
/// injected over the row's run; `Heal ms` is the time from healing the
/// partition back to federation-wide convergence; the `Audit` columns are
/// the mean, median and nearest-rank p99 cost of one witnessed light-client
/// ack audit (fetch + signature verify + consistency verify +
/// inclusion-proof verify) over `light_audits` samples.
fn gossip_overhead(scale: &Scale) -> Table {
    use adlp_pubsub::transport::chaos::ChaosConfig;
    use adlp_pubsub::FaultConfig;
    use adlp_witness::{InprocLink, Link, TcpGossipConfig, TcpLink};

    let mut table = Table::new(
        format!(
            "Witness gossip — convergence and light-client audit cost vs f \
             ({GOSSIP_ENTRIES}-entry log, RSA-{}, {} light audits per row)",
            scale.key_bits, scale.light_audits
        ),
        "Link | f | Witnesses | Quorum | Rounds | Converge ms | Faults | Heal ms \
         | Audit mean µs | Audit p50 µs | Audit p99 µs",
    );
    for f in [1usize, 2, 3] {
        let fault = FaultConfig::seeded(0x905517 + f as u64)
            .with_drop_rate(0.15)
            .with_delay(0.2, Duration::from_millis(5));
        let link = Box::new(InprocLink::new(2 * f + 1, fault));
        table.rows.push(gossip_row("inproc", f, link, scale));
    }
    // f ∈ {1, 2} keeps the proxy mesh bounded: n witnesses need n(n-1)
    // chaos proxies, each a real listener plus pump threads.
    for f in [1usize, 2] {
        let chaos = ChaosConfig::seeded(0x905517 ^ f as u64)
            .with_reset_rate(0.01)
            .with_split_rate(0.25)
            .with_delay(0.05, Duration::from_millis(2))
            .with_stall(0.01, Duration::from_millis(4));
        let link: Box<dyn Link> = Box::new(
            TcpLink::spawn(2 * f + 1, TcpGossipConfig::default(), chaos)
                .expect("link spawns on localhost"),
        );
        table.rows.push(gossip_row("tcp", f, link, scale));
    }
    table
}

/// One gossip row: an honest `2f + 1` federation over `link`.
fn gossip_row(
    transport: &'static str,
    f: usize,
    link: Box<dyn adlp_witness::Link>,
    scale: &Scale,
) -> Vec<Cell> {
    use adlp_logger::sth::{SthPublisher, TreeHeadSigner};
    use adlp_logger::Keyring;
    use adlp_logger::LogStore;
    use adlp_pubsub::NodeId;
    use adlp_witness::{Federation, FederationConfig, LightClient, TreeHeadSource};
    use std::sync::Arc;

    let log_id = NodeId::new("logger");
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x905517 + f as u64);
    let kp = RsaKeyPair::generate(scale.key_bits, &mut rng);
    let sth_keys = Keyring::new().with(log_id.clone(), kp.public_key().clone());
    let store = LogStore::new();
    for i in 0..GOSSIP_ENTRIES {
        store.append_encoded(vec![i as u8; 16]);
    }
    let publisher = Arc::new(SthPublisher::new(
        TreeHeadSigner::new(log_id.clone(), kp.into_private_key()),
        store.clone(),
    ));

    let mut config = FederationConfig::new(f).with_seed(0x905517 + f as u64);
    config.key_bits = scale.key_bits;
    let n = config.witnesses();
    let quorum = config.witness_quorum();
    let sources: Vec<Vec<Arc<dyn TreeHeadSource>>> = (0..n)
        .map(|_| vec![Arc::clone(&publisher) as Arc<dyn TreeHeadSource>])
        .collect();
    let mut fed = Federation::new(config, link, sth_keys.clone(), sources)
        .expect("federation state persists to memory");

    let started = Instant::now();
    let converged_rounds = fed
        .run_until_converged(64)
        .expect("honest gossip converges within 64 rounds");
    let converge_ms = ms_since(started);

    // Partition-heal drill: cut witness 0 off entirely, advance the log,
    // let the survivors adopt the new head, then heal and clock
    // federation-wide reconvergence.
    fed.sever(0);
    store.append_encoded(vec![0xEA; 16]);
    store.append_encoded(vec![0x1B; 16]);
    for _ in 0..4 {
        fed.round();
    }
    fed.heal(0);
    let started = Instant::now();
    fed.run_until_converged(64)
        .expect("federation reconverges after the partition heals");
    let heal_ms = ms_since(started);

    // The light client's per-ack bill, one sample per ack of the newest
    // entry (each audit re-fetches and re-verifies a signed head and the
    // quorum's cosignatures — the cost of believing nobody).
    let light = LightClient::new(sth_keys);
    let witnessed = fed.witnessed(&log_id);
    let mut audit_us = Vec::with_capacity(scale.light_audits);
    for _ in 0..scale.light_audits {
        let t = Instant::now();
        light
            .audit_ack_witnessed(
                publisher.as_ref(),
                GOSSIP_ENTRIES as u64 - 1,
                witnessed.as_ref(),
                fed.keyring(),
                quorum,
            )
            .expect("honest witnessed ack verifies");
        audit_us.push(t.elapsed().as_secs_f64() * 1e6);
    }

    vec![
        transport.into(),
        f.into(),
        n.into(),
        quorum.into(),
        converged_rounds.into(),
        Cell::Float(converge_ms, 1),
        fed.link_counters().injected_faults.into(),
        Cell::Float(heal_ms, 1),
        Cell::Float(mean_std(&audit_us).0, 1),
        Cell::Float(percentile(&audit_us, 50.0), 1),
        Cell::Float(percentile(&audit_us, 99.0), 1),
    ]
}

/// Times the full dispute pipeline for each adversarial scenario of
/// DESIGN.md §3.14 — the price of a contested verdict, from recorded
/// traffic to a transferable resolution proof. Scenarios that deadlock the
/// initial panel (bribed resolver, crash mid-escalation) pay for a second
/// round at doubled stakes; the rows show that cost directly.
///
/// Columns: `Rounds` fought (1 = the initial panel settled it) and
/// `Escalations` granted by the ledger; `Stake` is the total posted across
/// all rounds (base 16, doubling per round); `Resolve ms` is the mean
/// wall-clock of one full litigation — recorded traffic run, audit,
/// evidence assembly, every vote round, proof verification. The `Proof`
/// check holds when the transferable resolution proof verified under the
/// resolver keyring in every rep, `Replay` when every rep passed the chaos
/// oracle (`adlp_sim::chaos::judge`), whose clause (5) replays every
/// recording in evidence twice and demands byte-identical reports.
fn dispute_resolution(scale: &Scale) -> Table {
    use adlp_dispute::Outcome;
    use adlp_sim::chaos::{plan, run_chaos, ChaosLink, SEEDS};

    // The five litigation rows of the chaos plan table, by name.
    let scenarios = [
        ("wrongful-conviction", "wrongful_conviction"),
        ("forged-evidence", "forged_evidence"),
        ("bribed-resolver", "bribed_resolver"),
        ("withholding-claimant", "withholding_claimant"),
        ("crash-mid-escalation", "crash_mid_escalation"),
    ];

    let mut table = Table::new(
        format!(
            "Dispute escalation — resolution latency vs rounds \
             (RSA-512, {} litigations per scenario)",
            scale.dispute_reps
        ),
        "Scenario | Rounds | Escalations | Stake | Verdict | Resolve ms | Resolve stdev | Proof \
         | Replay",
    );
    for (scenario, row) in scenarios {
        let mut resolve_ms = Vec::with_capacity(scale.dispute_reps);
        // `run_chaos` judges every run by the outcome oracle, whose clause
        // (5) includes both checks; the proof is re-verified here so the
        // two columns stay independent.
        let mut proof_verifies = true;
        let mut judged = true;
        let mut last = None;
        for rep in 0..scale.dispute_reps {
            let plan = plan(row, SEEDS[rep % SEEDS.len()], ChaosLink::Inproc);
            let t = Instant::now();
            let run = run_chaos(&plan);
            resolve_ms.push(ms_since(t));
            match run {
                Ok(out) => {
                    proof_verifies &= out
                        .verdict
                        .as_ref()
                        .is_some_and(|v| v.proof.verify(&v.resolvers));
                    last = Some(out);
                }
                Err(failure) => {
                    eprintln!("{failure}");
                    (proof_verifies, judged) = (false, false);
                }
            }
        }
        let (resolve_avg, resolve_std) = mean_std(&resolve_ms);
        let mut cells: Vec<Cell> = vec![scenario.into()];
        match last
            .as_ref()
            .and_then(|out| Some((out, out.verdict.as_ref()?)))
        {
            Some((out, verdict)) => cells.extend([
                u64::from(verdict.proof.rounds).into(),
                out.counter("dispute.escalations").into(),
                verdict.total_staked.into(),
                match verdict.proof.outcome {
                    Outcome::Upheld => "upheld",
                    Outcome::Overturned => "overturned",
                }
                .into(),
            ]),
            None => cells.extend([0u64.into(), 0u64.into(), 0u64.into(), "unsettled".into()]),
        }
        cells.extend([
            Cell::Float(resolve_avg, 1),
            Cell::Float(resolve_std, 1),
            Cell::Check(proof_verifies),
            Cell::Check(judged),
        ]);
        table.rows.push(cells);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique() {
        for (i, (name, _)) in EXPERIMENTS.iter().enumerate() {
            let earlier = &EXPERIMENTS[..i];
            assert!(earlier.iter().all(|(other, _)| other != name), "{name}");
        }
    }

    /// Shape assertions specific to one experiment, as column lookups.
    fn check_shape(name: &str, t: &Table) {
        match name {
            "table1" => {
                assert_eq!(t.rows.len(), 3);
                assert!(t.title.contains(sha256::kernel()), "{}", t.title);
                // Hashing grows with size…
                assert!(t.num(2, "Hash only") > t.num(0, "Hash only"));
                // …and for small payloads the signature dominates clearly.
                // (For ~1 MB payloads hashing dominates and the signing
                // increment can drown in timer noise at this tiny sample
                // count, so only a loose bound is asserted there.)
                assert!(t.num(0, "Hash+Sign") > t.num(0, "Hash only") * 2.0);
                for r in 0..3 {
                    assert!(t.num(r, "Hash+Sign") >= t.num(r, "Hash only") * 0.7);
                }
                // Verification at e = 65537 is far cheaper than a CRT sign.
                assert!(t.num(0, "Verify") < t.num(0, "Hash+Sign"));
            }
            "fig13" => {
                for r in 0..t.rows.len() {
                    assert!(t.num(r, "ADLP") >= t.num(r, "Base") * 0.5);
                }
            }
            "table3" => {
                let (steering, image) = (0, 2);
                assert_eq!(t.num(steering, "Msg base"), 24.0);
                // Both ADLP message sizes are the paper's values exactly.
                assert_eq!(t.num(steering, "Msg ADLP"), 152.0);
                assert_eq!(t.num(image, "Msg ADLP"), 921_773.0);
                assert!(t.num(steering, "Pub ADLP") > t.num(steering, "Pub base"));
                // Subscriber storing h(D): entry stays tiny for ~900 KB data.
                assert!(t.num(image, "Sub ADLP") < 500.0);
                assert!(t.num(image, "Sub base") > 900_000.0);
            }
            "fig15" => {
                let image = 1;
                assert_eq!(t.cell(image, "Type"), &Cell::from("Image"));
                assert!(
                    t.num(image, "ADLP h(D)") < t.num(image, "ADLP D"),
                    "storing hashes must reduce the log rate"
                );
            }
            "table4" => {
                assert_eq!(t.rows.len(), 3);
                let (base, adlp, agg) = (t.num(0, "Mb/s"), t.num(1, "Mb/s"), t.num(2, "Mb/s"));
                assert!(base > 0.0 && adlp > 0.0 && agg > 0.0);
                // Per-ack entries duplicate fan-out data; aggregation
                // recovers the paper's "only ~1% over base" headline (loose
                // bound for noise).
                assert!(agg < base * 1.4, "base={base} agg={agg}");
                assert!(adlp > agg, "per-ack must exceed aggregated");
            }
            "lemmas" => assert_eq!(t.rows.len(), 6),
            "overload" => {
                assert_eq!(t.rows.len(), 3);
                for r in 0..3 {
                    assert_eq!(t.num(r, "Receipted"), t.num(r, "Shed"), "row {r}");
                }
            }
            "gossip" => {
                let links = [
                    ("inproc", 1.0),
                    ("inproc", 2.0),
                    ("inproc", 3.0),
                    ("tcp", 1.0),
                    ("tcp", 2.0),
                ];
                assert_eq!(t.rows.len(), links.len());
                for (r, (link, f)) in links.into_iter().enumerate() {
                    assert_eq!(t.cell(r, "Link"), &Cell::from(link));
                    assert_eq!(t.num(r, "f"), f);
                    assert_eq!(t.num(r, "Witnesses"), 2.0 * f + 1.0);
                    assert_eq!(t.num(r, "Quorum"), f + 1.0);
                    assert!(t.num(r, "Rounds") >= 1.0, "row {r}");
                    assert!(t.num(r, "Heal ms") > 0.0, "row {r}");
                    assert!(t.num(r, "Audit mean µs") > 0.0, "row {r}");
                    // Nearest-rank percentiles are observed samples.
                    assert!(t.num(r, "Audit p99 µs") >= t.num(r, "Audit p50 µs"));
                }
            }
            "dispute" => {
                assert_eq!(t.rows.len(), 5);
                for r in 0..5 {
                    assert!(t.num(r, "Resolve ms") > 0.0, "row {r}");
                }
                let (wrongful, bribed) = (0, 2);
                assert_eq!(
                    t.cell(wrongful, "Scenario"),
                    &Cell::from("wrongful-conviction")
                );
                assert_eq!(t.cell(wrongful, "Verdict"), &Cell::from("overturned"));
                assert_eq!(t.num(wrongful, "Rounds"), 1.0);
                assert_eq!(t.cell(bribed, "Scenario"), &Cell::from("bribed-resolver"));
                assert_eq!(t.num(bribed, "Rounds"), 2.0, "deadlock forces escalation");
                assert_eq!(t.num(bribed, "Escalations"), 1.0);
                assert_eq!(t.num(bribed, "Stake"), 16.0 + 32.0, "stakes double");
            }
            _ => {}
        }
    }

    /// The whole registry at [`Scale::SMOKE`]: the generic table contract,
    /// every experiment's built-in checks (lemma matches, clean overload
    /// audits, dispute proofs and replays), and the per-experiment shapes.
    #[test]
    fn every_experiment_runs_at_smoke_scale() {
        for (name, run) in EXPERIMENTS {
            let t = run(&Scale::SMOKE);
            assert!(!t.rows.is_empty(), "{name}: no rows");
            for row in &t.rows {
                assert_eq!(row.len(), t.columns.len(), "{name}: {row:?}");
                for cell in row {
                    if let Cell::Float(x, _) = cell {
                        assert!(x.is_finite(), "{name}: {row:?}");
                    }
                }
            }
            assert_eq!(t.failures(), Vec::<String>::new(), "{name}");
            check_shape(name, &t);
        }
    }
}
