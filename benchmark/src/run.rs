//! One run: one workload, one seed, `--seconds` of timed window.

use crate::inputs;
use crate::measure::{end_to_end, Round, BLOCKED_P99};
use crate::spec::{END_TO_END, PER_LAYER};
use crate::trace;
use crate::workloads::{self, Ctx, Layers};
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

/// What a run reports: the contract's last-line JSON object.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// (name, value, unit), in the order of `spec`.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Timed ops pooled for the latency percentiles.
    pub samples: usize,
    pub rounds: usize,
}

impl Outcome {
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(r#""{name}": {{"value": {value}, "unit": "{unit}"}}"#)
            })
            .collect();
        format!(
            r#"{{"correct": true, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// One fresh system: timed set-up, one round, the gates.
fn one_round(
    name: &str,
    ctx: Ctx,
    layers: Option<&mut Layers>,
) -> Result<(f64, Round, f64), String> {
    let t = Instant::now();
    let mut workload = workloads::setup(name, ctx)?;
    let setup_s = t.elapsed().as_secs_f64();
    let round = workload.round()?;
    let digest = workload.input_digest();
    let mut scratch = Layers::default();
    let layers = match layers {
        Some(layers) => {
            let spans = trace::drain();
            trace::write_jsonl(
                &inputs::out_dir().join(format!("trace-{name}.jsonl")),
                &spans,
            )
            .map_err(|e| format!("write spans: {e}"))?;
            workload.layers(&round, &trace::durations(&spans), layers)?;
            trace::drain();
            layers
        }
        None => &mut scratch,
    };
    workload.gate(layers)?;
    if round.failed > 0 || round.entries == 0 {
        return Err(format!(
            "{} of {} ops failed",
            round.failed, round.attempted
        ));
    }
    Ok((setup_s, round, digest))
}

/// Timed ops a full run pools at least, so that ten samples lie beyond
/// `op_p99_us` however slow the box makes a round.
const MIN_SAMPLES: usize = 1_000;

/// Fresh rounds, at least one, until `seconds` of timed window and
/// `min_samples` timed ops have accumulated.
fn rounds_for(
    name: &str,
    ctx: Ctx,
    seconds: f64,
    min_samples: usize,
) -> Result<(Vec<f64>, Vec<Round>, f64), String> {
    let (mut setups, mut rounds) = (Vec::new(), Vec::new());
    let (mut measured, mut samples) = (0.0, 0);
    loop {
        let (setup_s, round, digest) = one_round(name, ctx, None)?;
        measured += round.window_s;
        samples += round.lat_us.len();
        setups.push(setup_s);
        rounds.push(round);
        if measured >= seconds && samples >= min_samples {
            return Ok((setups, rounds, digest));
        }
    }
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let name = args.workload.as_str();
    let ctx = Ctx {
        seed: args.seed,
        smoke: args.smoke,
        trace: false,
    };
    if !args.trace {
        let min_samples = if args.smoke { 0 } else { MIN_SAMPLES };
        let (setups, rounds, _) = rounds_for(name, ctx, args.seconds, min_samples)?;
        let e2e = end_to_end(&setups, &rounds, BLOCKED_P99.contains(&name));
        return Ok(Outcome {
            attempted: rounds.iter().map(|r| r.attempted).sum(),
            failed: rounds.iter().map(|r| r.failed).sum(),
            metrics: END_TO_END
                .iter()
                .map(|&(n, unit, _, _)| (n, e2e.value(n), unit))
                .collect(),
            samples: e2e.samples,
            rounds: rounds.len(),
        });
    }

    // Traced: one round behind the Timed* wrappers plus the staged replay,
    // then untraced rounds of the same seed for what tracing cost and for
    // the op time the stages must add up to.
    let mut layers = Layers::default();
    let (_, traced, digest) = one_round(name, Ctx { trace: true, ..ctx }, Some(&mut layers))?;
    let (setups, plain, _) = rounds_for(name, ctx, args.seconds / 2.0, 0)?;
    let untraced = end_to_end(&setups, &plain, false);
    let op_p50_us = untraced.op_p50_us;
    let traced_rate = traced.entries as f64 / traced.window_s;
    layers.set("driver.ops", traced.attempted as f64);
    layers.set("driver.input_digest", digest);
    layers.set("driver.spin_share", traced.spin_s / traced.window_s);
    layers.set(
        "driver.trace_overhead_ratio",
        untraced.entries_per_s / traced_rate,
    );
    layers.set(
        "driver.unattributed_share",
        1.0 - layers.attributed_us() / op_p50_us,
    );
    eprintln!("{name}: op_p50_us {op_p50_us:.1} untraced; stages of one op:");
    for (stage, us, every_op) in layers.stages() {
        let share = 100.0 * us / op_p50_us;
        let kind = if *every_op {
            ""
        } else {
            "  (periodic, spread over all ops)"
        };
        eprintln!("  {stage:<34} {us:>10.1} us/op  {share:>5.1} %{kind}");
    }
    Ok(Outcome {
        attempted: traced.attempted,
        failed: traced.failed,
        metrics: PER_LAYER
            .iter()
            .map(|&(n, unit)| (n, layers.get(n).unwrap_or(0.0), unit))
            .collect(),
        samples: traced.lat_us.len(),
        rounds: 1 + plain.len(),
    })
}
