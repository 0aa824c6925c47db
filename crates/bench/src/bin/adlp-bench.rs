//! `adlp-bench [name …]` — runs the named experiments (no names: all of
//! them, in registry order) at [`Scale::PAPER`] and prints each as a
//! GitHub-markdown table, the form `EXPERIMENTS.md` quotes. Exits non-zero
//! on an unknown name or when any experiment's built-in check fails.

use adlp_bench::experiments::{Scale, EXPERIMENTS};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut selected = Vec::new();
    for arg in std::env::args().skip(1) {
        let Some(experiment) = EXPERIMENTS.iter().find(|(name, _)| *name == arg) else {
            let known: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
            eprintln!(
                "adlp-bench: no experiment {arg:?}; known: {}",
                known.join(" ")
            );
            return ExitCode::from(2);
        };
        selected.push(experiment);
    }
    if selected.is_empty() {
        selected.extend(EXPERIMENTS);
    }

    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    println!("adlp-bench on {cores} cores at {:?}\n", Scale::PAPER);
    let mut failed = Vec::new();
    for (name, run) in selected {
        let table = run(&Scale::PAPER);
        print!("{}", table.render());
        for failure in table.failures() {
            failed.push(format!("{name}: {failure}"));
        }
    }
    for failure in &failed {
        eprintln!("adlp-bench: check failed in {failure}");
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
