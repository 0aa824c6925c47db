//! Closed-loop, seeded ADLP benchmark. See `README.md`.

mod inputs;
mod json;
mod measure;
mod run;
mod set;
mod spec;
mod trace;
mod workloads;

use run::RunArgs;
use set::SetArgs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage:
  adlp-benchmark run --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
  adlp-benchmark set [--seed <n>] [--seconds <s>] [--smoke] [--out <file>]
  adlp-benchmark compare <a.json> <b.json>
  adlp-benchmark repeat [--seed <n>] [--seconds <s>] [--smoke]";

/// Seed and run length used when none is given; `BENCHMARK.json` names the
/// same run length. A `--smoke` run defaults to a single round.
const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: f64 = 10.0;

fn default_seconds(smoke: bool) -> f64 {
    if smoke {
        0.0
    } else {
        DEFAULT_SECONDS
    }
}

fn value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn number<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    value(args, flag).map_or(Ok(default), |v| {
        v.parse().map_err(|_| format!("{flag}: bad value {v}"))
    })
}

fn run_args(args: &[String]) -> Result<RunArgs, String> {
    let smoke = args.iter().any(|a| a == "--smoke");
    Ok(RunArgs {
        workload: value(args, "--workload")
            .ok_or("--workload <name> is required")?
            .to_owned(),
        seed: number(args, "--seed", DEFAULT_SEED)?,
        seconds: number(args, "--seconds", default_seconds(smoke))?,
        trace: number(args, "--trace", 0u8)? != 0,
        smoke,
    })
}

fn set_args(args: &[String]) -> Result<SetArgs, String> {
    let smoke = args.iter().any(|a| a == "--smoke");
    Ok(SetArgs {
        seed: number(args, "--seed", DEFAULT_SEED)?,
        seconds: number(args, "--seconds", default_seconds(smoke))?,
        smoke,
        out: value(args, "--out").map(PathBuf::from),
    })
}

fn dispatch(args: &[String]) -> Result<(), String> {
    let rest = args.get(1..).unwrap_or_default();
    match args.first().map(String::as_str) {
        Some("run") => {
            let outcome = run::run(&run_args(rest)?)?;
            eprintln!(
                "{} timed ops over {} rounds",
                outcome.samples, outcome.rounds
            );
            println!("{}", outcome.to_json());
            Ok(())
        }
        Some("set") => {
            let args = set_args(rest)?;
            let set = set::run_set(&args)?;
            let path = args
                .out
                .clone()
                .unwrap_or_else(|| inputs::out_dir().join(format!("set-{}.json", args.seed)));
            set::write_set(&set, &path)?;
            set::print_set(&set);
            eprintln!("set written to {}", path.display());
            Ok(())
        }
        Some("compare") => {
            let [a, b] = rest else {
                return Err(USAGE.to_owned());
            };
            let rows = set::compare(&set::read_set(Path::new(a))?, &set::read_set(Path::new(b))?);
            set::print_rows(&rows);
            Ok(())
        }
        Some("repeat") => set::repeat(&set_args(rest)?),
        _ => Err(USAGE.to_owned()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("adlp-benchmark: {why}");
            ExitCode::FAILURE
        }
    }
}
