//! Sets of runs and their comparison.
//!
//! A *set* is three interleaved repetitions of every workload, each run in
//! a child process of its own (so CPU and peak RSS are per run), plus one
//! traced run per workload. A metric's value in a set is the median of its
//! three repetitions, with min–max beside it.

use crate::inputs;
use crate::json::{object, Json};
use crate::measure::median;
use crate::spec::{END_TO_END, PER_LAYER};
use crate::workloads::FROZEN_OPS;
use std::path::{Path, PathBuf};
use std::process::Command;

pub const REPETITIONS: usize = 3;

#[derive(Debug, Clone)]
pub struct SetArgs {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    pub out: Option<PathBuf>,
}

/// Runs `run` in a child process and returns its last-line JSON object.
fn child_run(workload: &str, args: &SetArgs, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| format!("spawn run: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{workload}: run failed ({}): {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload}: run printed nothing"))?;
    let result = Json::parse(last)?;
    if result.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!("{workload}: run not correct"));
    }
    Ok(result)
}

fn metric_value(run: &Json, name: &str) -> Option<f64> {
    run.get("metrics")?.get(name)?.get("value")?.num()
}

/// Runs one set and returns it as a JSON document.
pub fn run_set(args: &SetArgs) -> Result<Json, String> {
    let repetitions = if args.smoke { 1 } else { REPETITIONS };
    let mut runs: Vec<Vec<Json>> = vec![Vec::new(); FROZEN_OPS.len()];
    for rep in 0..repetitions {
        for (w, (name, _)) in FROZEN_OPS.iter().enumerate() {
            eprintln!("set: repetition {}/{repetitions} of {name}", rep + 1);
            runs[w].push(child_run(name, args, false)?);
        }
    }
    let mut workloads = Vec::new();
    for ((name, _), reps) in FROZEN_OPS.iter().zip(&runs) {
        eprintln!("set: traced run of {name}");
        let traced = child_run(name, args, true)?;
        let end_to_end = END_TO_END.iter().map(|&(metric, unit, _, _)| {
            let values: Vec<f64> = reps
                .iter()
                .filter_map(|r| metric_value(r, metric))
                .collect();
            let summary = object([
                ("unit", Json::Str(unit.to_owned())),
                ("median", Json::Num(median(&values))),
                (
                    "min",
                    Json::Num(values.iter().copied().fold(f64::INFINITY, f64::min)),
                ),
                (
                    "max",
                    Json::Num(values.iter().copied().fold(f64::NEG_INFINITY, f64::max)),
                ),
                (
                    "values",
                    Json::Arr(values.into_iter().map(Json::Num).collect()),
                ),
            ]);
            (metric, summary)
        });
        let per_layer = PER_LAYER.iter().map(|&(metric, unit)| {
            let value = metric_value(&traced, metric).unwrap_or(0.0);
            (
                metric,
                object([
                    ("unit", Json::Str(unit.to_owned())),
                    ("value", Json::Num(value)),
                ]),
            )
        });
        let count = |key: &str| reps.iter().filter_map(|r| r.get(key)?.num()).sum::<f64>();
        workloads.push((
            *name,
            object([
                ("attempted", Json::Num(count("attempted"))),
                ("failed", Json::Num(count("failed"))),
                ("end_to_end", object(end_to_end)),
                ("per_layer", object(per_layer)),
            ]),
        ));
    }
    Ok(object([
        ("claim", Json::Null),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("repetitions", Json::Num(repetitions as f64)),
        ("smoke", Json::Bool(args.smoke)),
        (
            "cores",
            Json::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        ("workloads", object(workloads)),
    ]))
}

/// Prints every metric of a set by name, with its unit.
pub fn print_set(set: &Json) {
    for (workload, body) in set.get("workloads").into_iter().flat_map(Json::obj) {
        let num = |j: &Json, key: &str| j.get(key).and_then(Json::num).unwrap_or(0.0);
        println!(
            "{workload}  (attempted {}, failed {})",
            num(body, "attempted"),
            num(body, "failed")
        );
        for (metric, m) in body.get("end_to_end").into_iter().flat_map(Json::obj) {
            let unit = m.get("unit").and_then(Json::str).unwrap_or("");
            println!(
                "  {metric:<36} {:>16.4} {unit:<6} [{:.4} – {:.4}]",
                num(m, "median"),
                num(m, "min"),
                num(m, "max")
            );
        }
        let mut idle = Vec::new();
        for (metric, m) in body.get("per_layer").into_iter().flat_map(Json::obj) {
            let unit = m.get("unit").and_then(Json::str).unwrap_or("");
            match num(m, "value") {
                0.0 => idle.push(format!("{metric} ({unit})")),
                value => println!("  {metric:<36} {value:>16.4} {unit}"),
            }
        }
        println!("  0 on this workload: {}", idle.join(", "));
    }
}

pub fn write_set(set: &Json, path: &Path) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(path, set.pretty()).map_err(|e| format!("write {}: {e}", path.display()))
}

pub fn read_set(path: &Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    Json::parse(&text)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// One side's own spread is wider than the bound: the pair shows nothing.
    Unresolved,
}

/// One row of a comparison: a (workload, end-to-end metric) pair.
#[derive(Debug, Clone)]
pub struct Row {
    pub workload: &'static str,
    pub metric: &'static str,
    pub a: f64,
    pub b: f64,
    pub spread_a: f64,
    pub spread_b: f64,
    pub bound: f64,
    /// Share of `a` by which `b` is worse (negative: better).
    pub worse: f64,
    pub verdict: Verdict,
}

pub fn compare(a: &Json, b: &Json) -> Vec<Row> {
    let mut rows = Vec::new();
    for (name, _) in FROZEN_OPS {
        for (metric, _, lower_is_better, bound) in END_TO_END {
            let side = |set: &Json| -> Option<(f64, f64)> {
                let m = set
                    .get("workloads")?
                    .get(name)?
                    .get("end_to_end")?
                    .get(metric)?;
                let (med, lo, hi) = (
                    m.get("median")?.num()?,
                    m.get("min")?.num()?,
                    m.get("max")?.num()?,
                );
                Some((med, (hi - lo) / med))
            };
            let (Some((med_a, spread_a)), Some((med_b, spread_b))) = (side(a), side(b)) else {
                continue;
            };
            let change = (med_b - med_a) / med_a;
            let worse = if lower_is_better { change } else { -change };
            let noise = spread_a.max(spread_b);
            let verdict = if noise > bound {
                Verdict::Unresolved
            } else if worse > bound {
                Verdict::Regressed
            } else if worse < -noise {
                Verdict::Improved
            } else {
                Verdict::Unchanged
            };
            rows.push(Row {
                workload: name,
                metric,
                a: med_a,
                b: med_b,
                spread_a,
                spread_b,
                bound,
                worse,
                verdict,
            });
        }
    }
    rows
}

pub fn print_rows(rows: &[Row]) {
    println!(
        "| workload | metric | a median | a spread | b median | b spread | bound | b worse by | verdict |"
    );
    println!("|---|---|---:|---:|---:|---:|---:|---:|---|");
    for r in rows {
        println!(
            "| {} | {} | {:.4} | {:.3} | {:.4} | {:.3} | {:.2} | {:+.3} | {:?} |",
            r.workload, r.metric, r.a, r.spread_a, r.b, r.spread_b, r.bound, r.worse, r.verdict
        );
    }
}

/// Two full sets of the same build: every pair must agree within its bound.
pub fn repeat(args: &SetArgs) -> Result<(), String> {
    let first = run_set(args)?;
    let second = run_set(args)?;
    for (tag, set) in [("a", &first), ("b", &second)] {
        let out = inputs::out_dir().join(format!("repeat-{}-{tag}.json", args.seed));
        write_set(set, &out)?;
    }
    let rows = compare(&first, &second);
    print_rows(&rows);
    let disagree: Vec<String> = rows
        .iter()
        .filter(|r| r.worse.abs() > r.bound)
        .map(|r| {
            format!(
                "{}/{} differs by {:+.3} (bound {:.2})",
                r.workload, r.metric, r.worse, r.bound
            )
        })
        .collect();
    if disagree.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "two sets of one build disagree: {}",
            disagree.join("; ")
        ))
    }
}
