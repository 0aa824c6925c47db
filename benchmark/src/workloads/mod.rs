//! The six workloads. Each is a fixed op count on a fresh system, built from
//! the seed alone, ending in correctness gates.

pub mod audit_read;
pub mod cluster_bft;
pub mod deposit_fsync;
pub mod entry_life;
pub mod proto;

use crate::measure::Round;
use crate::trace::SpanStats;
use std::collections::BTreeMap;

/// What a workload is built from.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    pub seed: u64,
    /// `--smoke`: 512-bit keys, N/100 ops.
    pub smoke: bool,
    /// Install the `Timed*` wrappers at the trait seams.
    pub trace: bool,
}

impl Ctx {
    /// RSA modulus width of component and logger keys (the paper's 1024).
    pub fn key_bits(self) -> usize {
        if self.smoke {
            512
        } else {
            1024
        }
    }

    /// The round size for a workload whose frozen count is `n`.
    pub fn ops(self, n: usize) -> usize {
        if self.smoke {
            (n / 100).max(4)
        } else {
            n
        }
    }

    /// Calls per stage of a staged replay.
    pub fn iters(self) -> usize {
        if self.smoke {
            8
        } else {
            64
        }
    }
}

/// Per-layer numbers of a traced run, by metric name.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
    /// Stage times of one op's life: (metric, µs per op, on every op).
    stages: Vec<(&'static str, f64, bool)>,
}

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Records a stage every op blocks on, `per_op` times: it counts toward
    /// the time `op_p50_us` must be accounted for.
    pub fn stage(&mut self, name: &'static str, us: f64, per_op: f64) {
        self.set(name, us);
        self.stages.push((name, us * per_op, true));
    }

    /// Records a stage only some ops carry (a seal, the audits after it),
    /// as its cost spread over all ops: it explains the mean and the tail,
    /// not the median op.
    pub fn periodic(&mut self, name: &'static str, us: f64, per_op: f64) {
        self.set(name, us);
        self.stages.push((name, us * per_op, false));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Σ time of the stages every op blocks on, µs.
    pub fn attributed_us(&self) -> f64 {
        self.stages.iter().filter(|s| s.2).map(|s| s.1).sum()
    }

    pub fn stages(&self) -> &[(&'static str, f64, bool)] {
        &self.stages
    }
}

pub trait Workload {
    /// Runs the round's fixed op count, final flush included, inside one
    /// timed window.
    fn round(&mut self) -> Result<Round, String>;

    /// Per-layer numbers: counters of the round just run, plus a
    /// single-threaded staged replay of one op's life over this workload's
    /// own inputs. Traced runs only.
    fn layers(
        &mut self,
        round: &Round,
        spans: &SpanStats,
        layers: &mut Layers,
    ) -> Result<(), String>;

    /// The correctness gates. Consumes the system: durable workloads shut
    /// down and re-open their storage here.
    fn gate(self: Box<Self>, layers: &mut Layers) -> Result<(), String>;

    /// Leading bits of the digest of every input fed to the system.
    fn input_digest(&self) -> f64;
}

/// The workloads and their frozen round sizes (ops per round), calibrated
/// once on the 2-core reference box so a round's window is 1.5–2.5 s.
pub const FROZEN_OPS: [(&str, usize); 6] = [
    ("proto_small", 2_000),
    ("proto_image", 150),
    ("deposit_fsync", 6_000),
    ("cluster_bft", 2_400),
    ("audit_read", 250),
    ("entry_life", 256),
];

/// Builds `name` on a fresh system (the timed set-up).
pub fn setup(name: &str, ctx: Ctx) -> Result<Box<dyn Workload>, String> {
    let frozen = FROZEN_OPS.iter().find(|(n, _)| *n == name);
    let ops = ctx.ops(frozen.ok_or_else(|| format!("unknown workload {name}"))?.1);
    Ok(match name {
        "proto_small" => Box::new(proto::Proto::setup(ctx, ops, proto::SMALL_BODY)?),
        "proto_image" => Box::new(proto::Proto::setup(ctx, ops, proto::IMAGE_BODY)?),
        "deposit_fsync" => Box::new(deposit_fsync::DepositFsync::setup(ctx, ops)?),
        "cluster_bft" => Box::new(cluster_bft::ClusterBft::setup(ctx, ops)?),
        "audit_read" => Box::new(audit_read::AuditRead::setup(ctx, ops)?),
        "entry_life" => Box::new(entry_life::EntryLife::setup(ctx, ops)?),
        _ => unreachable!("FROZEN_OPS names every workload"),
    })
}

/// `Err` with context unless `ok`.
pub fn ensure(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}
