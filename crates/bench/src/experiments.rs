//! The seven experiments of the paper's evaluation section.

use crate::stats::mean_std;
use adlp_core::{AdlpConfig, Scheme};
use adlp_crypto::{pkcs1, sha256::Sha256, RsaKeyPair};
use adlp_logger::Direction;
use adlp_pubsub::wire::FRAME_PREAMBLE_LEN;
use adlp_sim::{fanout_app, self_driving_app, PayloadKind, Scenario};
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Key width used by the harnesses — the paper's RSA-1024.
pub const KEY_BITS: usize = 1024;

// ---------------------------------------------------------------------------
// Table I — hashing / hashing+signing time per data type
// ---------------------------------------------------------------------------

/// One row of Table I.
#[derive(Debug, Clone)]
pub struct CryptoTimeRow {
    /// Data-type label.
    pub label: String,
    /// Serialized size `|D|`.
    pub size: usize,
    /// Hashing-only mean (ms).
    pub hash_avg_ms: f64,
    /// Hashing-only stdev (ms).
    pub hash_std_ms: f64,
    /// Hashing+signing mean (ms).
    pub sign_avg_ms: f64,
    /// Hashing+signing stdev (ms).
    pub sign_std_ms: f64,
}

/// Reproduces Table I: average times to hash / hash+sign Steering, Scan and
/// Image payloads (`samples` = 3000 in the paper).
pub fn table1_crypto_times(samples: usize, key_bits: usize) -> Vec<CryptoTimeRow> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xAD1);
    let keys = RsaKeyPair::generate(key_bits, &mut rng);
    let kinds = [PayloadKind::Steering, PayloadKind::Scan, PayloadKind::Image];
    let mut rows = Vec::new();
    for kind in kinds {
        let mut body = vec![0u8; 16];
        body.extend_from_slice(&kind.generate(1));
        debug_assert_eq!(body.len(), kind.body_len());

        let mut hash_ms = Vec::with_capacity(samples);
        let mut sign_ms = Vec::with_capacity(samples);
        for _ in 0..samples {
            let t0 = Instant::now();
            let mut h = Sha256::new();
            h.update(&body);
            let digest = h.finalize();
            hash_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            std::hint::black_box(&digest);

            let t1 = Instant::now();
            let mut h = Sha256::new();
            h.update(&body);
            let digest = h.finalize();
            let sig = pkcs1::sign_digest(keys.private_key(), &digest).expect("sign");
            sign_ms.push(t1.elapsed().as_secs_f64() * 1e3);
            std::hint::black_box(&sig);
        }
        let (hash_avg_ms, hash_std_ms) = mean_std(&hash_ms);
        let (sign_avg_ms, sign_std_ms) = mean_std(&sign_ms);
        rows.push(CryptoTimeRow {
            label: kind.label(),
            size: kind.body_len(),
            hash_avg_ms,
            hash_std_ms,
            sign_avg_ms,
            sign_std_ms,
        });
    }
    rows
}

// ---------------------------------------------------------------------------
// Figure 13 — message latency vs data size, ADLP vs baseline
// ---------------------------------------------------------------------------

/// One series point of Figure 13.
#[derive(Debug, Clone)]
pub struct LatencyRow {
    /// Serialized message size `|D|`.
    pub size: usize,
    /// Mean pub→sub latency under the base scheme (ms).
    pub base_ms: f64,
    /// Mean pub→sub latency under ADLP (ms).
    pub adlp_ms: f64,
}

/// Reproduces Figure 13: average end-to-end message latency from publisher
/// to subscriber over a size sweep, base vs ADLP.
pub fn fig13_message_latency(
    sizes: &[usize],
    window: Duration,
    key_bits: usize,
) -> Vec<LatencyRow> {
    let mut rows = Vec::new();
    for &size in sizes {
        let mut ms = [0.0f64; 2];
        for (i, scheme) in [Scheme::Base, Scheme::adlp()].into_iter().enumerate() {
            // Rate low enough that even ~1 MB messages keep up.
            let report = Scenario::new(fanout_app(PayloadKind::Custom(size), 1, 20.0))
                .scheme(scheme)
                .key_bits(key_bits)
                .duration(window)
                .seed(7 + size as u64)
                .run();
            ms[i] = report
                .mean_latency_ns
                .get(&("data".into(), "sink0".into()))
                .map_or(f64::NAN, |ns| ns / 1e6);
        }
        rows.push(LatencyRow {
            size,
            base_ms: ms[0],
            adlp_ms: ms[1],
        });
    }
    rows
}

// ---------------------------------------------------------------------------
// Figure 14 — publisher CPU utilization vs number of subscribers
// ---------------------------------------------------------------------------

/// One bar of Figure 14.
#[derive(Debug, Clone)]
pub struct PublisherCpuRow {
    /// Number of Image subscribers.
    pub subscribers: usize,
    /// Publisher CPU (percent of one core) with no logging.
    pub none_pct: f64,
    /// With base logging.
    pub base_pct: f64,
    /// With ADLP.
    pub adlp_pct: f64,
}

/// Reproduces Figure 14: CPU utilization attributed to the Image publisher
/// for 1–`max_subs` subscribers under the three schemes.
pub fn fig14_publisher_cpu(
    max_subs: usize,
    window: Duration,
    key_bits: usize,
) -> Vec<PublisherCpuRow> {
    let mut rows = Vec::new();
    for subs in 1..=max_subs {
        let mut pct = [0.0f64; 3];
        for (i, scheme) in [Scheme::NoLogging, Scheme::Base, Scheme::adlp()]
            .into_iter()
            .enumerate()
        {
            let report = Scenario::new(fanout_app(PayloadKind::Image, subs, 20.0))
                .scheme(scheme)
                .key_bits(key_bits)
                .duration(window)
                .measure_cpu_of("feeder")
                .seed(100 + subs as u64)
                .run();
            pct[i] = report.node_cpu_percent.unwrap_or(f64::NAN);
        }
        rows.push(PublisherCpuRow {
            subscribers: subs,
            none_pct: pct[0],
            base_pct: pct[1],
            adlp_pct: pct[2],
        });
    }
    rows
}

// ---------------------------------------------------------------------------
// Table II — system-wide CPU running the self-driving application
// ---------------------------------------------------------------------------

/// Table II: system-wide CPU utilization (percent of the machine).
#[derive(Debug, Clone)]
pub struct SystemCpuRow {
    /// Configuration label (Idle / No Logging / Base Logging / ADLP).
    pub label: String,
    /// Mean utilization, percent of all cores.
    pub avg_pct: f64,
}

/// Reproduces Table II: process-wide CPU while running the full
/// self-driving graph under each scheme, plus the idle baseline.
pub fn table2_system_cpu(window: Duration, key_bits: usize) -> Vec<SystemCpuRow> {
    let mut rows = Vec::new();
    // Idle: measure this process doing nothing.
    let probe = adlp_sim::CpuProbe::start();
    std::thread::sleep(window.min(Duration::from_secs(1)));
    rows.push(SystemCpuRow {
        label: "Idle".into(),
        avg_pct: probe.utilization_percent_of_machine(),
    });
    for (label, scheme) in [
        ("No Logging", Scheme::NoLogging),
        ("Base Logging", Scheme::Base),
        ("ADLP", Scheme::adlp()),
    ] {
        let report = Scenario::new(self_driving_app())
            .scheme(scheme)
            .key_bits(key_bits)
            .duration(window)
            .seed(200)
            .run();
        rows.push(SystemCpuRow {
            label: label.into(),
            avg_pct: report.process_cpu_percent / adlp_sim::metrics::cpu_count() as f64,
        });
    }
    rows
}

// ---------------------------------------------------------------------------
// Table III — message and log entry sizes
// ---------------------------------------------------------------------------

/// One block of Table III (one data type).
#[derive(Debug, Clone)]
pub struct SizeRow {
    /// Data-type label.
    pub label: String,
    /// Serialized body size `|D|`.
    pub body: usize,
    /// On-the-wire message size under base (`|D| + 4`).
    pub base_message: usize,
    /// On-the-wire message size under ADLP (`|D| + 4 + |sig|`).
    pub adlp_message: usize,
    /// Base publisher entry bytes.
    pub base_pub_entry: usize,
    /// Base subscriber entry bytes.
    pub base_sub_entry: usize,
    /// ADLP publisher entry bytes.
    pub adlp_pub_entry: usize,
    /// ADLP subscriber entry bytes (storing `h(D)`).
    pub adlp_sub_entry: usize,
}

/// Reproduces Table III by actually transmitting one message of each type
/// under each scheme and reading back the stored entry sizes.
pub fn table3_sizes(key_bits: usize) -> Vec<SizeRow> {
    let sig_len = key_bits / 8;
    let kinds = [PayloadKind::Steering, PayloadKind::Scan, PayloadKind::Image];
    let mut rows = Vec::new();
    for kind in kinds {
        let mut entry_sizes = [[0usize; 2]; 2]; // [scheme][direction]
        for (si, scheme) in [Scheme::Base, Scheme::adlp()].into_iter().enumerate() {
            let report = run_single_message(kind, scheme, key_bits);
            for e in report.logger.store().entries() {
                let e = e.expect("decodable entry");
                let size = e.encoded_len();
                match e.direction {
                    Direction::Out => entry_sizes[si][0] = size,
                    Direction::In => entry_sizes[si][1] = size,
                }
            }
        }
        rows.push(SizeRow {
            label: kind.label(),
            body: kind.body_len(),
            base_message: kind.body_len() + FRAME_PREAMBLE_LEN,
            adlp_message: kind.body_len() + FRAME_PREAMBLE_LEN + sig_len,
            base_pub_entry: entry_sizes[0][0],
            base_sub_entry: entry_sizes[0][1],
            adlp_pub_entry: entry_sizes[1][0],
            adlp_sub_entry: entry_sizes[1][1],
        });
    }
    rows
}

/// Runs a 1-publisher/1-subscriber link just long enough for one message
/// to complete its full protocol round.
fn run_single_message(
    kind: PayloadKind,
    scheme: Scheme,
    key_bits: usize,
) -> adlp_sim::ScenarioReport {
    // Very low rate so exactly a couple of messages flow; we only read the
    // first pub/sub entry pair of each direction, so extras are harmless.
    Scenario::new(fanout_app(kind, 1, 10.0))
        .scheme(scheme)
        .key_bits(key_bits)
        .warmup(Duration::from_millis(50))
        .duration(Duration::from_millis(250))
        .seed(300)
        .run()
}

// ---------------------------------------------------------------------------
// Figure 15 — log generation rates per data type
// ---------------------------------------------------------------------------

/// One group of Figure 15.
#[derive(Debug, Clone)]
pub struct LogRateRow {
    /// Data-type label.
    pub label: String,
    /// Publication rate used (Hz).
    pub hz: f64,
    /// Base scheme log rate (KB/s).
    pub base_kbps: f64,
    /// ADLP with subscriber storing `h(D)` (KB/s).
    pub adlp_hash_kbps: f64,
    /// ADLP with subscriber storing the data (KB/s).
    pub adlp_data_kbps: f64,
}

/// Reproduces Figure 15: per-type log generation rate for Steering and
/// Image under base, ADLP-h(D) and ADLP-data.
pub fn fig15_log_rates(window: Duration, key_bits: usize) -> Vec<LogRateRow> {
    let mut rows = Vec::new();
    for (kind, hz) in [(PayloadKind::Steering, 20.0), (PayloadKind::Image, 20.0)] {
        let schemes = [
            Scheme::Base,
            Scheme::Adlp(AdlpConfig::new()),
            Scheme::Adlp(AdlpConfig::new().storing_data()),
        ];
        let mut kbps = [0.0f64; 3];
        for (i, scheme) in schemes.into_iter().enumerate() {
            let report = Scenario::new(fanout_app(kind, 1, hz))
                .scheme(scheme)
                .key_bits(key_bits)
                .duration(window)
                .seed(400 + i as u64)
                .run();
            kbps[i] = report.volume.bytes as f64 / 1e3 / report.elapsed.as_secs_f64();
        }
        rows.push(LogRateRow {
            label: kind.label(),
            hz,
            base_kbps: kbps[0],
            adlp_hash_kbps: kbps[1],
            adlp_data_kbps: kbps[2],
        });
    }
    rows
}

// ---------------------------------------------------------------------------
// Table IV — system-wide log generation rate
// ---------------------------------------------------------------------------

/// Table IV: system-wide log generation rate.
#[derive(Debug, Clone)]
pub struct SystemLogRateRow {
    /// Scheme label.
    pub label: String,
    /// Log generation rate in Mb/s.
    pub mbps: f64,
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
pub fn table4_system_log_rate(window: Duration, key_bits: usize) -> Vec<SystemLogRateRow> {
    let mut rows = Vec::new();
    let configs = [
        ("Base", Scheme::Base),
        ("ADLP", Scheme::adlp()),
        ("ADLP-agg", Scheme::Adlp(AdlpConfig::new().aggregated())),
    ];
    for (label, scheme) in configs {
        let report = Scenario::new(self_driving_app())
            .scheme(scheme)
            .key_bits(key_bits)
            .duration(window)
            .base_stores_hash(true)
            .seed(500)
            .run();
        rows.push(SystemLogRateRow {
            label: label.into(),
            mbps: report.log_rate_mbps(),
        });
    }
    rows
}

// ---------------------------------------------------------------------------
// Cluster — deposit throughput across shard/replication configurations
// ---------------------------------------------------------------------------

/// One row of the cluster throughput experiment.
#[derive(Debug, Clone)]
pub struct ClusterRow {
    /// Number of shards.
    pub shards: usize,
    /// Replicas per shard.
    pub replicas: usize,
    /// Write quorum.
    pub write_quorum: usize,
    /// Quorum-acknowledged deposits per second.
    pub entries_per_sec: f64,
    /// Log generation rate over quorum-acked deposits, KB/s.
    pub kbps: f64,
    /// Mean wall-clock time to reach the write quorum, microseconds.
    pub mean_quorum_latency_us: f64,
    /// 99th-percentile quorum latency, microseconds (nearest-rank over
    /// acked deposits).
    pub p99_quorum_latency_us: f64,
    /// 99.9th-percentile quorum latency, microseconds.
    pub p999_quorum_latency_us: f64,
    /// Deposits that failed their write quorum (should be 0 here: no
    /// faults are injected).
    pub entries_lost: u64,
}

/// Cluster deposit throughput: 1 vs 3 vs 5 shards, unreplicated (R=1/W=1)
/// vs quorum-replicated (R=3/W=2). Eight publishers spread links across
/// the ring so sharding has work to distribute.
pub fn cluster_throughput(window: Duration, key_bits: usize) -> Vec<ClusterRow> {
    use adlp_cluster::ClusterConfig;
    let mut rows = Vec::new();
    for (i, &shards) in [1usize, 3, 5].iter().enumerate() {
        for (j, config) in [
            ClusterConfig::new(shards),
            ClusterConfig::replicated(shards),
        ]
        .into_iter()
        .enumerate()
        {
            let (replicas, write_quorum) = (config.replicas, config.write_quorum);
            let report = Scenario::new(fanout_app(PayloadKind::Custom(256), 8, 120.0))
                .key_bits(key_bits)
                .duration(window)
                .seed(600 + (i * 2 + j) as u64)
                .cluster(config)
                .run();
            let cluster = report.cluster.as_ref().expect("cluster run");
            let secs = report.elapsed.as_secs_f64();
            rows.push(ClusterRow {
                shards,
                replicas,
                write_quorum,
                entries_per_sec: cluster.stats.acked as f64 / secs,
                kbps: report.volume.bytes as f64 / 1e3 / secs,
                mean_quorum_latency_us: cluster.stats.mean_quorum_latency_ns as f64 / 1e3,
                p99_quorum_latency_us: cluster.stats.p99_quorum_latency_ns as f64 / 1e3,
                p999_quorum_latency_us: cluster.stats.p999_quorum_latency_ns as f64 / 1e3,
                entries_lost: cluster.stats.entries_lost,
            });
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// BFT — what signed-quorum acknowledgement costs over crash quorums
// ---------------------------------------------------------------------------

/// One row of the BFT-overhead experiment.
#[derive(Debug, Clone)]
pub struct BftRow {
    /// Acknowledgement discipline: `crash` (W-of-R acceptance counting) or
    /// `bft` (2f+1 matching signed head attestations).
    pub mode: &'static str,
    /// Replicas per shard (4 in both rows: the comparison holds the
    /// replication factor fixed and varies only the ack discipline).
    pub replicas: usize,
    /// Acks required per deposit (crash: W; bft: 2f+1).
    pub quorum: usize,
    /// Quorum-acknowledged deposits per second.
    pub entries_per_sec: f64,
    /// Mean wall-clock time to reach the quorum, microseconds.
    pub mean_quorum_latency_us: f64,
    /// 99th-percentile quorum latency, microseconds.
    pub p99_quorum_latency_us: f64,
    /// 99.9th-percentile quorum latency, microseconds.
    pub p999_quorum_latency_us: f64,
    /// Deposits that missed their quorum (0 expected: no faults injected).
    pub entries_lost: u64,
    /// Signed head attestations verified over the run (0 in crash mode).
    pub attestations_verified: u64,
    /// Equivocation convictions minted (0 expected: every replica honest).
    pub equivocations_detected: u64,
}

/// Measures what Byzantine tolerance costs at deposit time: the same
/// 4-replica shard run under the crash discipline (W=3 acceptances) and
/// under BFT (`f = 1`: 2f+1 = 3 *matching signed head attestations*, each
/// requiring a per-entry flush plus an RSA sign on the replica and a
/// verify at the ledger). The gap between the rows is the attestation
/// overhead — the price of surviving a lying replica rather than a dead
/// one.
pub fn bft_overhead(window: Duration, key_bits: usize) -> Vec<BftRow> {
    use adlp_cluster::{BftConfig, ClusterConfig};
    let configs: [(&'static str, ClusterConfig); 2] = [
        (
            "crash",
            ClusterConfig::new(1).with_replicas(4).with_write_quorum(3),
        ),
        (
            "bft",
            ClusterConfig::new(1).with_bft(BftConfig::new(1).with_key_bits(key_bits)),
        ),
    ];
    let mut rows = Vec::new();
    for (i, (mode, config)) in configs.into_iter().enumerate() {
        let quorum = config
            .bft
            .as_ref()
            .map_or(config.write_quorum, BftConfig::attest_quorum);
        let replicas = config.replicas;
        let report = Scenario::new(fanout_app(PayloadKind::Custom(256), 4, 80.0))
            .key_bits(key_bits)
            .duration(window)
            .seed(700 + i as u64)
            .cluster(config)
            .run();
        let cluster = report.cluster.as_ref().expect("cluster run");
        let secs = report.elapsed.as_secs_f64();
        rows.push(BftRow {
            mode,
            replicas,
            quorum,
            entries_per_sec: cluster.stats.acked as f64 / secs,
            mean_quorum_latency_us: cluster.stats.mean_quorum_latency_ns as f64 / 1e3,
            p99_quorum_latency_us: cluster.stats.p99_quorum_latency_ns as f64 / 1e3,
            p999_quorum_latency_us: cluster.stats.p999_quorum_latency_ns as f64 / 1e3,
            entries_lost: cluster.stats.entries_lost,
            attestations_verified: cluster.stats.attestations_verified,
            equivocations_detected: cluster.stats.equivocations_detected,
        });
    }
    rows
}

// ---------------------------------------------------------------------------
// WAL overhead — durable acknowledgement cost: no WAL / WAL / WAL + fsync
// ---------------------------------------------------------------------------

/// One row of the WAL-overhead experiment.
#[derive(Debug, Clone)]
pub struct WalRow {
    /// Durability mode: `off`, `wal`, or `wal+fsync`.
    pub mode: &'static str,
    /// Entries submitted through the durable-ack path.
    pub entries: usize,
    /// Durably acknowledged deposits per second.
    pub entries_per_sec: f64,
    /// Mean wall-clock time from submission to durable acknowledgement,
    /// microseconds.
    pub mean_ack_latency_us: f64,
    /// Final WAL file size on disk (0 when the WAL is off).
    pub wal_bytes: u64,
}

/// Measures what durable acknowledgements cost over real files: a volatile
/// logger (acks on acceptance), a WAL without explicit syncs (acks mean
/// "in the WAL"), and a WAL synced per append (acks survive power loss).
/// Each durable mode runs in its own temp directory, removed afterwards.
pub fn wal_overhead(entries: usize) -> Vec<WalRow> {
    use adlp_logger::durable::WAL_FILE;
    use adlp_logger::{
        DurabilityConfig, FsStorage, KeyRegistry, LogEntry, LogServer, Storage, SyncPolicy,
    };
    use adlp_pubsub::{NodeId, Topic};
    use std::sync::Arc;

    fn entry(seq: u64) -> LogEntry {
        LogEntry::naive(
            NodeId::new("cam"),
            Topic::new("image"),
            Direction::Out,
            seq,
            seq,
            vec![0xA5; 256],
        )
    }

    fn drive(handle: &adlp_logger::LoggerHandle, entries: usize) -> (f64, f64) {
        let started = Instant::now();
        let mut in_call = Duration::ZERO;
        for i in 0..entries {
            let t = Instant::now();
            handle
                .submit_durable(entry(i as u64))
                .expect("no faults injected");
            in_call += t.elapsed();
        }
        let secs = started.elapsed().as_secs_f64();
        (
            entries as f64 / secs,
            in_call.as_secs_f64() * 1e6 / entries as f64,
        )
    }

    let mut rows = Vec::new();

    let volatile = LogServer::spawn();
    let (eps, lat) = drive(&volatile.handle(), entries);
    rows.push(WalRow {
        mode: "off",
        entries,
        entries_per_sec: eps,
        mean_ack_latency_us: lat,
        wal_bytes: 0,
    });

    for (mode, policy) in [
        ("wal", SyncPolicy::Never),
        ("wal+fsync", SyncPolicy::EveryAppend),
    ] {
        let root = std::env::temp_dir().join(format!(
            "adlp-bench-wal-{}-{mode}",
            std::process::id()
        ));
        let storage: Arc<dyn Storage> =
            Arc::new(FsStorage::open(&root).expect("temp storage root"));
        let config = DurabilityConfig::new(Arc::clone(&storage)).fsync(policy);
        let spawned =
            LogServer::try_spawn_durable(KeyRegistry::new(), &config).expect("durable spawn");
        let (eps, lat) = drive(&spawned.server.handle(), entries);
        let wal_bytes = storage.size_of(WAL_FILE).ok().flatten().unwrap_or(0);
        spawned.server.kill();
        let _ = std::fs::remove_dir_all(&root);
        rows.push(WalRow {
            mode,
            entries,
            entries_per_sec: eps,
            mean_ack_latency_us: lat,
            wal_bytes,
        });
    }
    rows
}

// ---------------------------------------------------------------------------
// Overload resilience — throughput, shed rate and recovery at 1×/4×/16×
// ---------------------------------------------------------------------------

/// One row of the overload-resilience experiment.
#[derive(Debug, Clone)]
pub struct OverloadRow {
    /// Nominal overload factor (offered load ÷ logger service rate).
    pub factor: usize,
    /// Offered log-entry arrival rate, entries/s (feeder `out` + sink `in`).
    pub offered_eps: f64,
    /// Entries the logger actually serves per second, entries/s.
    pub service_eps: f64,
    /// Deposits completed per second of total wall time (warmup + window +
    /// drain) — sustained throughput under pressure.
    pub deposited_eps: f64,
    /// Entries shed by the admission-controlled pipelines.
    pub shed: u64,
    /// Shed fraction of all pipeline outcomes (shed ÷ (shed + deposited)).
    pub shed_rate: f64,
    /// Gap receipts the auditor verified.
    pub receipts: u64,
    /// Entries those receipts admit — must equal `shed` for a clean run.
    pub receipted_entries: u64,
    /// Driver ticks skipped by backpressure.
    pub throttled: u64,
    /// Circuit-breaker trips across all nodes.
    pub breaker_trips: u64,
    /// Circuit-breaker closes (recoveries) across all nodes.
    pub breaker_closes: u64,
    /// Wall-clock time to drain the backlog once the load stops, ms.
    pub drain_ms: f64,
    /// Whether the audit came back with zero convictions: shed ranges
    /// verified, no false `Hidden`, no rejected entries.
    pub audit_clean: bool,
}

/// Measures the overload-resilient deposit pipeline at 1×, 4× and 16×
/// offered load. The logger is paced to 50 deposits/s (one per 20 ms) and
/// the fan-out app's rate is scaled so the *offered* entry rate (feeder
/// `out` + sink `in`) is `factor × 50/s` — the overload factor is set by
/// construction. Reports sustained throughput, shed rate, receipt
/// accounting, breaker lifecycle and backlog-drain time per factor.
pub fn overload_resilience(window: Duration, key_bits: usize) -> Vec<OverloadRow> {
    use adlp_core::OverloadConfig;
    use adlp_pubsub::BreakerConfig;

    const PACE_MS: u64 = 20;
    let service_eps = 1_000.0 / PACE_MS as f64;
    let mut rows = Vec::new();
    for (i, &factor) in [1usize, 4, 16].iter().enumerate() {
        // Offered = 2 entries per publication (out + in) at `hz`.
        let hz = service_eps * factor as f64 / 2.0;
        let seed = 900 + i as u64;
        let warmup = Duration::from_millis(100);
        let started = Instant::now();
        let report = Scenario::new(fanout_app(PayloadKind::Custom(64), 1, hz))
            .key_bits(key_bits)
            .seed(seed)
            .warmup(warmup)
            .duration(window)
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
        let drain = wall.saturating_sub(warmup + window);

        let deposited: u64 = report.pressure.values().map(|p| p.deposited()).sum();
        let shed: u64 = report.pressure.values().map(|p| p.entries_shed()).sum();
        let audit = report.audit();
        let audit_clean =
            audit.all_clear() && audit.hidden.is_empty() && audit.rejected_entries.is_empty();
        rows.push(OverloadRow {
            factor,
            offered_eps: 2.0 * hz,
            service_eps,
            deposited_eps: deposited as f64 / wall.as_secs_f64(),
            shed,
            shed_rate: if deposited + shed == 0 {
                0.0
            } else {
                shed as f64 / (deposited + shed) as f64
            },
            receipts: audit.shed.len() as u64,
            receipted_entries: audit.shed.iter().map(|r| r.count).sum(),
            throttled: report.publishes_throttled,
            breaker_trips: report.pressure.values().map(|p| p.breaker_trips()).sum(),
            breaker_closes: report.pressure.values().map(|p| p.breaker_closes()).sum(),
            drain_ms: drain.as_secs_f64() * 1e3,
            audit_clean,
        });
    }
    rows
}

// ---------------------------------------------------------------------------
// Witness gossip — convergence time and light-client verify overhead vs f
// ---------------------------------------------------------------------------

/// One row of the witness-gossip experiment (one witness-set size on one
/// transport).
#[derive(Debug, Clone)]
pub struct GossipRow {
    /// Gossip transport: `"inproc"` (fault-injected channels) or `"tcp"`
    /// (real sockets behind chaos proxies).
    pub transport: &'static str,
    /// Fault tolerance: the set runs `2f + 1` witnesses, quorum `f + 1`.
    pub f: usize,
    /// Witness-set size (`2f + 1`).
    pub witnesses: usize,
    /// Cosign quorum (`f + 1`).
    pub quorum: usize,
    /// Gossip rounds until every live witness agreed on the head.
    pub converged_rounds: usize,
    /// Wall-clock time of those rounds, ms (includes injected link/socket
    /// faults and settle windows).
    pub converge_ms: f64,
    /// Faults the link injected over the row's run: dropped/delayed
    /// frames (inproc) or socket faults (tcp).
    pub link_faults: u64,
    /// Time from healing a full witness partition back to federation-wide
    /// convergence, ms (`None` where the scenario has no partition phase).
    pub heal_converge_ms: Option<f64>,
    /// Ack-path audits the light client ran.
    pub light_audits: usize,
    /// Mean cost of one light-client ack audit, µs: fetch + signature
    /// verify + consistency verify + inclusion-proof verify.
    pub light_audit_us: f64,
    /// Tail cost of one audit, µs (nearest-rank p99).
    pub light_audit_p99_us: f64,
    /// Extreme-tail cost of one audit, µs (nearest-rank p99.9).
    pub light_audit_p999_us: f64,
}

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
pub fn gossip_overhead(entries: usize, audits: usize, key_bits: usize) -> Vec<GossipRow> {
    use adlp_pubsub::transport::chaos::ChaosConfig;
    use adlp_pubsub::FaultConfig;
    use adlp_witness::{InprocLink, Link, TcpGossipConfig, TcpLink};

    let mut rows = Vec::new();
    for f in [1usize, 2, 3] {
        let fault = FaultConfig::seeded(0x905517 + f as u64)
            .with_drop_rate(0.15)
            .with_delay(0.2, Duration::from_millis(5));
        let link = Box::new(InprocLink::new(2 * f + 1, fault));
        rows.push(gossip_row("inproc", f, link, entries, audits, key_bits));
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
        rows.push(gossip_row("tcp", f, link, entries, audits, key_bits));
    }
    rows
}

/// One [`GossipRow`]: an honest `2f + 1` federation over `link`.
fn gossip_row(
    transport: &'static str,
    f: usize,
    link: Box<dyn adlp_witness::Link>,
    entries: usize,
    audits: usize,
    key_bits: usize,
) -> GossipRow {
    use adlp_logger::sth::{SthPublisher, TreeHeadSigner};
    use adlp_logger::LogStore;
    use adlp_pubsub::NodeId;
    use adlp_witness::{Federation, FederationConfig, LightClient, SthKeyring, TreeHeadSource};
    use std::sync::Arc;

    let log_id = NodeId::new("logger");
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x905517 + f as u64);
    let kp = RsaKeyPair::generate(key_bits, &mut rng);
    let sth_keys = SthKeyring::new().with_log(log_id.clone(), kp.public_key().clone());
    let store = LogStore::new();
    for i in 0..entries {
        store.append_encoded(vec![i as u8; 16]);
    }
    let publisher = Arc::new(SthPublisher::new(
        TreeHeadSigner::new(log_id.clone(), kp.into_private_key()),
        store.clone(),
    ));

    let mut config = FederationConfig::new(f).with_seed(0x905517 + f as u64);
    config.key_bits = key_bits;
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
    let converge_ms = started.elapsed().as_secs_f64() * 1e3;

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
    let heal_converge_ms = started.elapsed().as_secs_f64() * 1e3;

    // The light client's per-ack bill, one sample per ack of the newest
    // entry (each audit re-fetches and re-verifies a signed head and the
    // quorum's cosignatures — the cost of believing nobody). Per-sample
    // timing so the tail (p99/p99.9) is reported alongside the mean.
    let light = LightClient::new(sth_keys);
    let witnessed = fed.witnessed(&log_id);
    let mut samples = Vec::with_capacity(audits);
    for _ in 0..audits {
        let t = Instant::now();
        light
            .audit_ack_witnessed(
                publisher.as_ref(),
                entries as u64 - 1,
                witnessed.as_ref(),
                fed.keyring(),
                quorum,
            )
            .expect("honest witnessed ack verifies");
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let (light_audit_us, _) = crate::stats::mean_std(&samples);

    GossipRow {
        transport,
        f,
        witnesses: n,
        quorum,
        converged_rounds,
        converge_ms,
        link_faults: fed.link_counters().injected_faults,
        heal_converge_ms: Some(heal_converge_ms),
        light_audits: audits,
        light_audit_us,
        light_audit_p99_us: crate::stats::percentile(&samples, 99.0),
        light_audit_p999_us: crate::stats::percentile(&samples, 99.9),
    }
}

// ---------------------------------------------------------------------------
// Dispute escalation — resolution latency vs rounds, recording-tap overhead
// ---------------------------------------------------------------------------

/// One row of the dispute-resolution experiment: one adversarial scenario
/// litigated end-to-end (traffic + recording + audit + court).
#[derive(Debug, Clone)]
pub struct DisputeRow {
    /// Scenario label (the same matrix the `dispute-chaos` CI job runs).
    pub scenario: &'static str,
    /// Full litigations timed.
    pub reps: usize,
    /// Rounds fought (1 = the initial panel settled it).
    pub rounds: u32,
    /// Escalation rounds granted by the ledger.
    pub escalations: u64,
    /// Total stake posted across all rounds (base 16, doubling per round).
    pub total_staked: u64,
    /// Settled outcome: `"upheld"` or `"overturned"`.
    pub outcome: &'static str,
    /// Mean wall-clock of one full litigation, ms: recorded traffic run,
    /// audit, evidence assembly, every vote round, proof verification.
    pub resolve_ms: f64,
    /// Stdev of the litigation wall-clock, ms.
    pub resolve_std_ms: f64,
    /// Whether the transferable resolution proof verified under the
    /// resolver keyring in every rep.
    pub proof_verifies: bool,
    /// Whether replaying the recorded window twice was byte-identical in
    /// every rep that carried a window in evidence.
    pub replay_deterministic: bool,
}

/// Times the full dispute pipeline for each adversarial scenario of
/// DESIGN.md §3.14 — the price of a contested verdict, from recorded
/// traffic to a transferable resolution proof. Scenarios that deadlock the
/// initial panel (bribed resolver, crash mid-escalation) pay for a second
/// round at doubled stakes; the rows show that cost directly.
pub fn dispute_resolution(reps: usize) -> Vec<DisputeRow> {
    use adlp_dispute::Outcome;
    use adlp_sim::dispute::{
        bribed_resolver, crash_mid_escalation, forged_evidence, withholding_claimant,
        wrongful_conviction, DisputeRunReport,
    };

    // The same seeds the dispute-chaos CI job pins.
    const SEEDS: [u64; 4] = [5, 19, 101, 977];
    type Run = fn(u64) -> DisputeRunReport;
    let scenarios: [(&'static str, Run); 5] = [
        ("wrongful-conviction", wrongful_conviction),
        ("forged-evidence", forged_evidence),
        ("bribed-resolver", bribed_resolver),
        ("withholding-claimant", withholding_claimant),
        ("crash-mid-escalation", crash_mid_escalation),
    ];

    let mut rows = Vec::new();
    for (scenario, run) in scenarios {
        let mut samples = Vec::with_capacity(reps);
        let mut proof_verifies = true;
        let mut replay_deterministic = true;
        let mut last: Option<DisputeRunReport> = None;
        for rep in 0..reps {
            let seed = SEEDS[rep % SEEDS.len()];
            let t = Instant::now();
            let report = run(seed);
            samples.push(t.elapsed().as_secs_f64() * 1e3);
            proof_verifies &= report.proof_verifies;
            replay_deterministic &= report.replay_deterministic;
            last = Some(report);
        }
        let report = last.expect("reps >= 1");
        let (resolve_ms, resolve_std_ms) = mean_std(&samples);
        rows.push(DisputeRow {
            scenario,
            reps,
            rounds: report.rounds,
            escalations: report.counters.escalations,
            total_staked: report.total_staked,
            outcome: match report.outcome {
                Outcome::Upheld => "upheld",
                Outcome::Overturned => "overturned",
            },
            resolve_ms,
            resolve_std_ms,
            proof_verifies,
            replay_deterministic,
        });
    }
    rows
}

/// One row of the recording-overhead experiment: the deposit path with and
/// without the forensic recording tap.
#[derive(Debug, Clone)]
pub struct RecordingRow {
    /// `"untapped"` (no recorder) or `"recorded"` (forensic tap attached).
    pub mode: &'static str,
    /// Entries pushed through the durable-ack deposit path.
    pub entries: usize,
    /// Durably acknowledged deposits per second.
    pub entries_per_sec: f64,
    /// Mean wall-clock from submission to durable acknowledgement, µs.
    pub mean_ack_latency_us: f64,
    /// Frames the recorder captured (0 when untapped).
    pub frames_recorded: u64,
    /// Time to extract the full-epoch evidence window, ms (recorded only).
    pub extract_ms: Option<f64>,
    /// Time to deterministically replay + re-audit that window, ms
    /// (recorded only).
    pub replay_ms: Option<f64>,
}

/// Measures what the always-on forensic tap costs the hot deposit path —
/// the recording that makes disputes winnable must be close to free when
/// nobody is litigating. Also times the cold path it buys: extracting an
/// evidence window and deterministically re-auditing it (run twice to
/// confirm byte-identical canonical reports).
pub fn recording_overhead(entries: usize) -> Vec<RecordingRow> {
    use adlp_dispute::{replay_window, ReplayContext};
    use adlp_logger::recording::Recorder;
    use adlp_logger::storage::MemStorage;
    use adlp_logger::{KeyRegistry, LogEntry, LogServer, Storage};
    use adlp_pubsub::{NodeId, Topic};
    use std::sync::Arc;

    fn entry(seq: u64) -> LogEntry {
        LogEntry::naive(
            NodeId::new("cam"),
            Topic::new("image"),
            Direction::Out,
            seq,
            seq,
            vec![0xA5; 256],
        )
    }

    fn drive(handle: &adlp_logger::LoggerHandle, entries: usize) -> (f64, f64) {
        let started = Instant::now();
        let mut in_call = Duration::ZERO;
        for i in 0..entries {
            let t = Instant::now();
            handle
                .submit_durable(entry(i as u64))
                .expect("no faults injected");
            in_call += t.elapsed();
        }
        let secs = started.elapsed().as_secs_f64();
        (
            entries as f64 / secs,
            in_call.as_secs_f64() * 1e6 / entries as f64,
        )
    }

    let mut rows = Vec::new();

    let untapped = LogServer::spawn();
    let (eps, lat) = drive(&untapped.handle(), entries);
    rows.push(RecordingRow {
        mode: "untapped",
        entries,
        entries_per_sec: eps,
        mean_ack_latency_us: lat,
        frames_recorded: 0,
        extract_ms: None,
        replay_ms: None,
    });

    let recorded = LogServer::spawn();
    let storage: Arc<dyn Storage> = Arc::new(MemStorage::new());
    let recorder = Arc::new(Recorder::new(storage, "bench-recording"));
    recorded.handle().attach_recorder(Arc::clone(&recorder));
    let (eps, lat) = drive(&recorded.handle(), entries);

    let t = Instant::now();
    let window = recorder
        .extract_window(0, u64::MAX)
        .expect("recording extracts");
    let extract_ms = t.elapsed().as_secs_f64() * 1e3;

    let ctx = ReplayContext::new(KeyRegistry::new());
    let t = Instant::now();
    let first = replay_window(&window, &ctx).expect("window replays");
    let replay_ms = t.elapsed().as_secs_f64() * 1e3;
    let second = replay_window(&window, &ctx).expect("window replays twice");
    assert_eq!(
        first.canonical_bytes(),
        second.canonical_bytes(),
        "replay must be deterministic"
    );

    rows.push(RecordingRow {
        mode: "recorded",
        entries,
        entries_per_sec: eps,
        mean_ack_latency_us: lat,
        frames_recorded: recorder.frames_recorded(),
        extract_ms: Some(extract_ms),
        replay_ms: Some(replay_ms),
    });
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    // Smoke tests with shrunken parameters; shape assertions only.

    #[test]
    fn cluster_throughput_shape() {
        let rows = cluster_throughput(Duration::from_millis(300), 512);
        assert_eq!(rows.len(), 6);
        for r in &rows {
            assert!(r.entries_per_sec > 0.0, "{r:?}");
            assert_eq!(r.entries_lost, 0, "no faults injected: {r:?}");
            assert!(r.mean_quorum_latency_us > 0.0, "{r:?}");
        }
        // Both replication settings appear for every shard count.
        assert!(rows.iter().filter(|r| r.replicas == 3).count() == 3);
        assert!(rows.iter().filter(|r| r.replicas == 1).count() == 3);
    }

    #[test]
    fn bft_overhead_shape() {
        let rows = bft_overhead(Duration::from_millis(300), 512);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].mode, "crash");
        assert_eq!(rows[1].mode, "bft");
        for r in &rows {
            assert_eq!(r.replicas, 4, "fixed replication factor: {r:?}");
            assert_eq!(r.quorum, 3, "{r:?}");
            assert!(r.entries_per_sec > 0.0, "{r:?}");
            assert_eq!(r.entries_lost, 0, "honest replicas, no faults: {r:?}");
            assert_eq!(r.equivocations_detected, 0, "{r:?}");
        }
        assert_eq!(rows[0].attestations_verified, 0, "crash mode signs nothing");
        assert!(
            rows[1].attestations_verified > 0,
            "bft acks flow through signed attestations: {:?}",
            rows[1]
        );
    }

    #[test]
    fn wal_overhead_shape() {
        let rows = wal_overhead(200);
        assert_eq!(rows.len(), 3);
        assert_eq!(
            rows.iter().map(|r| r.mode).collect::<Vec<_>>(),
            ["off", "wal", "wal+fsync"]
        );
        for r in &rows {
            assert_eq!(r.entries, 200);
            assert!(r.entries_per_sec > 0.0, "{r:?}");
            assert!(r.mean_ack_latency_us > 0.0, "{r:?}");
        }
        assert_eq!(rows[0].wal_bytes, 0, "volatile mode writes no WAL");
        // Each durable mode persisted every acked entry: magic plus 200
        // frames of (8-byte header + 8-byte index + encoded entry).
        assert!(rows[1].wal_bytes > 200 * 16, "{:?}", rows[1]);
        assert_eq!(rows[1].wal_bytes, rows[2].wal_bytes, "same entries, same WAL");
    }

    #[test]
    fn table1_shape() {
        let rows = table1_crypto_times(20, 512);
        assert_eq!(rows.len(), 3);
        // Hashing grows with size…
        assert!(rows[2].hash_avg_ms > rows[0].hash_avg_ms);
        // …and for small payloads the signature dominates clearly. (For
        // ~1 MB payloads hashing dominates and the signing increment can
        // drown in timer noise at this tiny sample count, so only a loose
        // bound is asserted there.)
        assert!(
            rows[0].sign_avg_ms > rows[0].hash_avg_ms * 2.0,
            "steering: {:?}",
            rows[0]
        );
        for r in &rows {
            assert!(r.sign_avg_ms >= r.hash_avg_ms * 0.7, "{r:?}");
        }
    }

    #[test]
    fn fig13_adlp_is_slower_but_same_order() {
        let rows = fig13_message_latency(&[1_000], Duration::from_millis(500), 512);
        assert_eq!(rows.len(), 1);
        assert!(rows[0].base_ms.is_finite());
        assert!(rows[0].adlp_ms.is_finite());
        assert!(rows[0].adlp_ms >= rows[0].base_ms * 0.5, "{rows:?}");
    }

    #[test]
    fn table3_matches_paper_arithmetic() {
        let rows = table3_sizes(1024);
        let steering = &rows[0];
        assert_eq!(steering.base_message, 24);
        assert_eq!(steering.adlp_message, 152); // the paper's value exactly
        assert!(steering.adlp_pub_entry > steering.base_pub_entry);
        let image = &rows[2];
        assert_eq!(image.adlp_message, 921_773); // paper value exactly
        // Subscriber storing h(D): entry stays tiny for ~900 KB data.
        assert!(image.adlp_sub_entry < 500, "{image:?}");
        assert!(image.base_sub_entry > 900_000);
    }

    #[test]
    fn fig15_hash_mode_beats_data_mode_for_images() {
        let rows = fig15_log_rates(Duration::from_millis(400), 512);
        let image = rows.iter().find(|r| r.label == "Image").unwrap();
        assert!(
            image.adlp_hash_kbps < image.adlp_data_kbps,
            "storing hashes must reduce the log rate: {image:?}"
        );
    }

    #[test]
    fn table4_aggregated_adlp_close_to_base() {
        let rows = table4_system_log_rate(Duration::from_millis(600), 512);
        assert_eq!(rows.len(), 3);
        let base = rows[0].mbps;
        let adlp = rows[1].mbps;
        let adlp_agg = rows[2].mbps;
        assert!(base > 0.0 && adlp > 0.0 && adlp_agg > 0.0);
        // Per-ack entries duplicate fan-out data; aggregation recovers the
        // paper's "only ~1% over base" headline (loose bound for noise).
        assert!(adlp_agg < base * 1.4, "base={base} adlp_agg={adlp_agg}");
        assert!(adlp > adlp_agg, "per-ack must exceed aggregated");
    }

    #[test]
    fn dispute_resolution_shape() {
        let rows = dispute_resolution(1);
        assert_eq!(rows.len(), 5);
        for r in &rows {
            assert!(r.resolve_ms > 0.0, "{r:?}");
            assert!(r.proof_verifies, "{r:?}");
            assert!(r.replay_deterministic, "{r:?}");
        }
        let wrongful = &rows[0];
        assert_eq!(wrongful.outcome, "overturned", "{wrongful:?}");
        assert_eq!(wrongful.rounds, 1, "{wrongful:?}");
        let bribed = rows.iter().find(|r| r.scenario == "bribed-resolver").unwrap();
        assert_eq!(bribed.rounds, 2, "deadlock forces escalation: {bribed:?}");
        assert_eq!(bribed.escalations, 1, "{bribed:?}");
        assert_eq!(bribed.total_staked, 16 + 32, "stakes double: {bribed:?}");
    }

    #[test]
    fn recording_overhead_shape() {
        let rows = recording_overhead(200);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].mode, "untapped");
        assert_eq!(rows[1].mode, "recorded");
        for r in &rows {
            assert_eq!(r.entries, 200);
            assert!(r.entries_per_sec > 0.0, "{r:?}");
            assert!(r.mean_ack_latency_us > 0.0, "{r:?}");
        }
        assert_eq!(rows[0].frames_recorded, 0, "no tap, no frames");
        assert_eq!(rows[1].frames_recorded, 200, "every deposit framed");
        assert!(rows[1].extract_ms.is_some() && rows[1].replay_ms.is_some());
    }

    #[test]
    fn gossip_converges_audits_and_heals_on_both_links() {
        let rows = gossip_overhead(8, 3, 512);
        let shape: Vec<_> = rows.iter().map(|r| (r.transport, r.f)).collect();
        assert_eq!(
            shape,
            [("inproc", 1), ("inproc", 2), ("inproc", 3), ("tcp", 1), ("tcp", 2)]
        );
        for r in &rows {
            assert_eq!(r.witnesses, 2 * r.f + 1);
            assert_eq!(r.quorum, r.f + 1);
            assert!(r.converged_rounds >= 1, "{r:?}");
            assert!(r.light_audit_us > 0.0, "{r:?}");
            // Nearest-rank percentiles are observed samples, so the tail
            // can never undercut the mean by more than sampling noise —
            // and p99.9 ≥ p99 by construction.
            assert!(r.light_audit_p999_us >= r.light_audit_p99_us, "{r:?}");
            let heal = r.heal_converge_ms.expect("every row times the heal drill");
            assert!(heal > 0.0, "{r:?}");
        }
    }
}
