//! `audit_read`: the read side of the structures the write workloads
//! append to. Set-up fills a store by a real protocol run over 8 links, two
//! of which misbehave (one subscriber hides its receipts, one falsifies
//! them; which ones is seeded).
//!
//! Phase A audits the whole store five times (entries audited per second).
//! Phase B times `LightClient::audit_ack` at seeded indices against the
//! live `SthPublisher` while the second driver thread keeps appending, the
//! server sealing an epoch every 256 appends. A write-path gain that taxes
//! decoding, Merkle proofs or consistency shows here.

use super::deposit_fsync::{merkle_us, prebuilt_entries};
use super::proto::{Fanout, FanoutSpec, SMALL_BODY};
use super::{ensure, Ctx, Layers, Workload};
use crate::inputs::{self, InputDigest};
use crate::measure::{median, median_us, time_us, Round, Window};
use crate::trace::{self, SpanStats, TimedHeads};
use adlp_audit::{AuditReport, AuditSession, Auditor, ViolationKind};
use adlp_core::{BehaviorProfile, DepositTarget, LinkRole, LogBehavior, Scheme};
use adlp_crypto::RsaKeyPair;
use adlp_logger::sth::{SthPublisher, TreeHeadSigner};
use adlp_logger::{LogEntry, LogServer};
use adlp_pubsub::{Master, NodeId, Topic};
use adlp_witness::{LightClient, SthKeyring, TreeHeadSource};
use rand::RngCore;
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::Instant;

const FANOUTS: [&str; 2] = ["a", "b"];
const SUBSCRIBERS: usize = 4;
/// Publications per fan-out in set-up; each yields 8 entries, less the
/// hidden ones.
const PUBLICATIONS: usize = 100;
const AUDIT_PASSES: usize = 5;
/// Entries the appender adds per light audit.
const APPENDS_PER_AUDIT: usize = 4;
const SEAL_EVERY: u64 = 256;

/// (component, kind, count) triples an audit must report — nothing else.
type Verdicts = Vec<(NodeId, ViolationKind, usize)>;

fn verdicts_of(report: &AuditReport) -> Verdicts {
    let mut out = Verdicts::new();
    for (component, verdict) in report.unfaithful_components() {
        for violation in &verdict.violations {
            match out
                .iter_mut()
                .find(|(c, k, _)| c == component && *k == violation.kind)
            {
                Some(slot) => slot.2 += 1,
                None => out.push((component.clone(), violation.kind, 1)),
            }
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

pub struct AuditRead {
    ctx: Ctx,
    audits: usize,
    master: Master,
    server: LogServer,
    links: Vec<Fanout>,
    publisher: Arc<SthPublisher>,
    light: LightClient,
    expected: Verdicts,
    initial_len: usize,
    indices: Vec<u64>,
    appends: Vec<LogEntry>,
    reports: Vec<AuditReport>,
    digest: f64,
}

impl AuditRead {
    pub fn setup(ctx: Ctx, audits: usize) -> Result<Self, String> {
        let publications = if ctx.smoke { 8 } else { PUBLICATIONS };
        let master = Master::new();
        let server = LogServer::try_spawn().map_err(|e| e.to_string())?;
        let handle = server.handle();
        let target = DepositTarget::Single(handle.clone());

        // Which two of the eight links misbehave is the seed's choice.
        let mut rng = inputs::rng(ctx.seed, 4);
        let hide = (rng.next_u64() % 8) as usize;
        let falsify = (hide + 1 + (rng.next_u64() % 7) as usize) % 8;
        let mut expected = Verdicts::new();
        let payloads = inputs::payloads(ctx.seed, 16, SMALL_BODY);
        let mut digest = InputDigest::default();
        payloads.iter().for_each(|p| digest.feed(p));

        let mut links = Vec::new();
        for (f, prefix) in FANOUTS.iter().enumerate() {
            let topic = Topic::new(format!("{prefix}{}", super::proto::TOPIC));
            let subscribers = (0..SUBSCRIBERS)
                .map(|i| {
                    let (link, id) = (f * SUBSCRIBERS + i, NodeId::new(format!("{prefix}sub{i}")));
                    let behavior = if link == hide {
                        expected.push((id, ViolationKind::HidReceipt, publications));
                        LogBehavior::Hide
                    } else if link == falsify {
                        expected.push((id, ViolationKind::FalsifiedLog, publications));
                        LogBehavior::Falsify
                    } else {
                        LogBehavior::Faithful
                    };
                    BehaviorProfile::faithful().with_link(
                        LinkRole::Subscriber,
                        topic.clone(),
                        behavior,
                    )
                })
                .collect();
            links.push(Fanout::connect(FanoutSpec {
                ctx,
                master: &master,
                prefix,
                scheme: Scheme::adlp(),
                target: target.clone(),
                ack_after_durable: false,
                subscribers,
            })?);
        }
        expected.sort_by(|a, b| a.0.cmp(&b.0));

        // The protocol run that fills the store: both fan-outs at once.
        let links = std::thread::scope(|scope| {
            let runs: Vec<_> = links
                .into_iter()
                .map(|link| {
                    let payloads = &payloads;
                    scope.spawn(move || {
                        for i in 0..publications {
                            link.exchange(&payloads[i % payloads.len()])?;
                        }
                        link.flush().map(|()| link)
                    })
                })
                .collect();
            runs.into_iter()
                .map(|r| {
                    r.join()
                        .unwrap_or_else(|_| Err("set-up run panicked".to_owned()))
                })
                .collect::<Result<Vec<Fanout>, String>>()
        })?;

        let log_key = RsaKeyPair::generate(ctx.key_bits(), &mut inputs::key_rng(3));
        let log_id = NodeId::new("log");
        let light = LightClient::new(
            SthKeyring::new().with_log(log_id.clone(), log_key.public_key().clone()),
        );
        let signer = TreeHeadSigner::new(log_id, log_key.into_private_key());
        let publisher = Arc::new(SthPublisher::new(signer, handle.store().clone()).paced());
        handle.attach_sth(Arc::clone(&publisher), SEAL_EVERY);
        handle.seal_epoch().map_err(|e| e.to_string())?;

        let initial_len = handle.store().len();
        let indices = (0..audits)
            .map(|_| rng.next_u64() % initial_len as u64)
            .collect();
        let appends = prebuilt_entries(
            ctx,
            0,
            ("appender", "appended"),
            audits * APPENDS_PER_AUDIT,
            handle.keys(),
            &mut digest,
        )?;
        Ok(AuditRead {
            ctx,
            audits,
            master,
            server,
            links,
            publisher,
            light,
            expected,
            initial_len,
            indices,
            appends,
            reports: Vec::new(),
            digest: digest.finish(),
        })
    }

    fn auditor(&self) -> Auditor {
        Auditor::new(self.server.handle().keys().clone()).with_topology(self.master.topology())
    }

    /// Phase B on the caller's thread, the appender on a second one: every
    /// audit releases the appender's next few entries, so the store an
    /// audit sees depends on the audit's number, not on thread timing.
    fn light_audits(&self, source: &dyn TreeHeadSource, round: &mut Round) -> Result<(), String> {
        let handle = self.server.handle();
        let (release, released) = channel::<()>();
        let appends = &self.appends;
        std::thread::scope(|scope| {
            let appender = scope.spawn(move || {
                let mut pending = appends.iter();
                while released.recv().is_ok() {
                    for entry in pending.by_ref().take(APPENDS_PER_AUDIT) {
                        handle
                            .submit_durable(entry.clone())
                            .map_err(|e| e.to_string())?;
                    }
                }
                Ok::<(), String>(())
            });
            let audited = self.indices.iter().enumerate().try_for_each(|(i, &index)| {
                trace::set_op(Some(i as u64));
                round.attempted += 1;
                let _ = release.send(());
                let t = Instant::now();
                trace::span("driver.op", || self.light.audit_ack(source, index)).map_err(|e| {
                    round.failed += 1;
                    format!("light audit of record {index}: {e}")
                })?;
                round.lat_us.push(t.elapsed().as_secs_f64() * 1e6);
                Ok(())
            });
            drop(release);
            let appended = appender
                .join()
                .unwrap_or_else(|_| Err("appender panicked".to_owned()));
            audited.and(appended)
        })
    }
}

impl Workload for AuditRead {
    fn round(&mut self) -> Result<Round, String> {
        let handle = self.server.handle();
        let store = handle.store().clone();
        let auditor = self.auditor();
        let mut round = Round::default();
        let window = Window::open();
        for _ in 0..AUDIT_PASSES {
            round.attempted += 1;
            self.reports.push(trace::span("audit.audit_store", || {
                auditor.audit_store(&store)
            }));
        }
        if self.ctx.trace {
            self.light_audits(&TimedHeads(Arc::clone(&self.publisher)), &mut round)?;
        } else {
            self.light_audits(self.publisher.as_ref(), &mut round)?;
        }
        handle.flush().map_err(|e| e.to_string())?;
        window.close(&mut round);
        round.entries = (AUDIT_PASSES * self.initial_len + self.audits) as u64;
        round.log_bytes = store.total_bytes() * round.entries / store.len() as u64;
        Ok(round)
    }

    fn layers(
        &mut self,
        round: &Round,
        spans: &SpanStats,
        layers: &mut Layers,
    ) -> Result<(), String> {
        let iters = self.ctx.iters();
        let span_us = |name: &str| trace::span_us(spans, name);
        let store = self.server.handle().store().clone();

        let pass_us = span_us("audit.audit_store");
        layers.set(
            "audit.entries_per_s",
            self.initial_len as f64 / (pass_us / 1e6),
        );
        layers.set(
            "audit.verify_us_per_entry",
            pass_us / self.initial_len as f64,
        );
        let entries: Vec<LogEntry> = (0..self.initial_len)
            .filter_map(|i| store.entry(i).ok())
            .collect();
        let (head, tail) = entries.split_at(entries.len() - 16.min(entries.len()));
        let mut session = AuditSession::new(self.auditor());
        session.ingest(head);
        let (_, ingest_us) = time_us(|| session.ingest(tail).links.len());
        layers.set("audit.incremental_ingest_us", ingest_us);
        let mismatches = self
            .reports
            .iter()
            .filter(|r| verdicts_of(r) != self.expected)
            .count();
        layers.set("audit.verdict_mismatches", mismatches as f64);

        // One light audit's life: fetch the head, prove, verify.
        let consistency_share = spans
            .get("witness.consistency_proof")
            .map_or(0.0, |(n, _)| *n as f64)
            / self.audits.max(1) as f64;
        layers.stage(
            "witness.inclusion_proof_us",
            span_us("witness.inclusion_proof"),
            1.0,
        );
        layers.periodic(
            "witness.consistency_proof_us",
            span_us("witness.consistency_proof"),
            consistency_share,
        );
        let (prove_us, verify_us) = merkle_us(&store, iters)?;
        layers.set("logger.merkle_prove_us", prove_us);
        layers.stage("logger.merkle_verify_us", verify_us, 1.0);
        layers.set("witness.light_audit_us", median(&round.lat_us));
        layers.set(
            "witness.sth_verify_failures",
            self.light.sth_verify_failures() as f64,
        );
        let sample = store.entry(0).map_err(|e| e.to_string())?;
        let encoded = sample.encode();
        layers.set("logger.encode_us", median_us(iters, |_| sample.encode()));
        layers.set(
            "logger.decode_us",
            median_us(iters, |_| LogEntry::decode(&encoded)),
        );
        let (_, seal_us) = time_us(|| self.server.handle().seal_epoch());
        layers.set("logger.sth_sign_us", seal_us);
        Ok(())
    }

    fn gate(self: Box<Self>, _layers: &mut Layers) -> Result<(), String> {
        let handle = self.server.handle();
        let store = handle.store();
        let expected_len = self.initial_len + self.appends.len();
        ensure(store.len() == expected_len, || {
            format!("{} entries stored, expected {expected_len}", store.len())
        })?;
        store
            .verify_chain()
            .map_err(|e| format!("hash chain: {e}"))?;
        for link in &self.links {
            link.gate_clean()?;
        }
        ensure(self.reports.len() == AUDIT_PASSES, || {
            "audit passes missing".to_owned()
        })?;
        for report in &self.reports {
            let got = verdicts_of(report);
            ensure(got == self.expected, || {
                format!("audit found {got:?}, seeded {:?}", self.expected)
            })?;
        }
        ensure(self.light.sth_verify_failures() == 0, || {
            "light client verification failed".to_owned()
        })?;
        ensure(self.light.verified_acks() >= self.audits as u64, || {
            "light audits missing".to_owned()
        })?;
        ensure(self.light.evidence().is_empty(), || {
            "light client holds split-view evidence".to_owned()
        })
    }

    fn input_digest(&self) -> f64 {
        self.digest
    }
}
