//! CLI entry point: `cargo run -p adlp-lint --release -- [flags] [paths…]`.
//!
//! Modes:
//! * default — scan, print a summary and any divergence from the
//!   baseline; exit 0 regardless (informational).
//! * `--deny` — exit 1 on any regression against the baseline, any stale
//!   baseline entry, *or any baseline entry at all* — the baseline was
//!   burned down to zero and the CI gate keeps it there.
//! * `--write-baseline` — rewrite `lint-baseline.toml` from the scan.
//! * `--all` — print every diagnostic, baseline-covered or not.
//! * `--list-rules` — describe the rules and exit.
//! * `--explain RULE` — print a rule's invariant and suppression policy.
//! * `--format json` — machine-readable findings for CI annotation.

use adlp_lint::baseline::{Baseline, Delta};
use adlp_lint::{analyze_files, count_by_key, rules, scan_workspace, Diagnostic, FileReport};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    deny: bool,
    write_baseline: bool,
    all: bool,
    list_rules: bool,
    json: bool,
    explain: Option<String>,
    root: Option<PathBuf>,
    baseline: Option<PathBuf>,
    paths: Vec<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: adlp-lint [--deny] [--write-baseline] [--all] [--list-rules]\n\
         \x20                [--explain RULE] [--format text|json]\n\
         \x20                [--root DIR] [--baseline FILE] [paths…]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        deny: false,
        write_baseline: false,
        all: false,
        list_rules: false,
        json: false,
        explain: None,
        root: None,
        baseline: None,
        paths: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--deny" => args.deny = true,
            "--write-baseline" => args.write_baseline = true,
            "--all" => args.all = true,
            "--list-rules" => args.list_rules = true,
            "--explain" => args.explain = Some(it.next().unwrap_or_else(|| usage())),
            "--format" => match it.next().as_deref() {
                Some("json") => args.json = true,
                Some("text") => args.json = false,
                _ => usage(),
            },
            "--root" => args.root = Some(PathBuf::from(it.next().unwrap_or_else(|| usage()))),
            "--baseline" => {
                args.baseline = Some(PathBuf::from(it.next().unwrap_or_else(|| usage())))
            }
            "--help" | "-h" => usage(),
            _ if a.starts_with('-') => usage(),
            _ => args.paths.push(PathBuf::from(a)),
        }
    }
    args
}

/// Escapes a string for JSON output (the hand-rolled subset this CLI
/// needs: quotes, backslashes, control characters).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders the full report as one stable-sorted JSON document.
fn print_json(
    reports: &BTreeMap<String, FileReport>,
    deltas: &[Delta],
    total: usize,
    suppressed: usize,
) {
    let mut findings: Vec<&Diagnostic> = reports.values().flat_map(|r| r.diags.iter()).collect();
    findings
        .sort_by(|a, b| (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule)));
    let mut out = String::from("{\n  \"findings\": [\n");
    for (i, d) in findings.iter().enumerate() {
        let witness = d
            .witness
            .iter()
            .map(|w| json_str(w))
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&format!(
            "    {{\"file\": {}, \"line\": {}, \"col\": {}, \"rule\": {}, \
             \"message\": {}, \"witness\": [{}]}}{}\n",
            json_str(&d.path),
            d.line,
            d.col,
            json_str(d.rule),
            json_str(&d.message),
            witness,
            if i + 1 < findings.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n");
    let list = |pred: &dyn Fn(&Delta) -> Option<String>| {
        deltas
            .iter()
            .filter_map(pred)
            .collect::<Vec<_>>()
            .join(", ")
    };
    let regressions = list(&|d| match d {
        Delta::Regression(key, base, cur) => Some(format!(
            "{{\"key\": {}, \"baseline\": {base}, \"current\": {cur}}}",
            json_str(key)
        )),
        _ => None,
    });
    let stale = list(&|d| match d {
        Delta::Stale(key, base, cur) => Some(format!(
            "{{\"key\": {}, \"baseline\": {base}, \"current\": {cur}}}",
            json_str(key)
        )),
        _ => None,
    });
    out.push_str(&format!("  \"regressions\": [{regressions}],\n"));
    out.push_str(&format!("  \"stale\": [{stale}],\n"));
    out.push_str(&format!(
        "  \"total\": {total},\n  \"suppressed\": {suppressed}\n}}"
    ));
    println!("{out}");
}

/// Walks upward from the current directory to the workspace root (the
/// directory whose Cargo.toml declares `[workspace]`).
fn find_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    if args.list_rules {
        for r in rules::ALL {
            println!("{:<22} {}", r.id, r.rationale);
        }
        for r in rules::FLOW {
            println!("{:<22} {} (flow)", r.id, r.rationale);
        }
        return ExitCode::SUCCESS;
    }
    if let Some(rule) = &args.explain {
        return match rules::explain(rule) {
            Some(text) => {
                println!("{rule}\n{}\n\n{text}", "-".repeat(rule.len()));
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("adlp-lint: unknown rule `{rule}` (see --list-rules for the set)");
                ExitCode::from(2)
            }
        };
    }

    let Some(root) = args.root.clone().or_else(find_root) else {
        eprintln!("adlp-lint: could not locate the workspace root (use --root)");
        return ExitCode::from(2);
    };

    // Scan: the whole workspace, or just the paths given (analyzed
    // together, so the flow rules see calls across the given set).
    let reports: BTreeMap<String, FileReport> = if args.paths.is_empty() {
        scan_workspace(&root)
    } else {
        let mut files = Vec::new();
        for p in &args.paths {
            let Ok(source) = std::fs::read_to_string(p) else {
                eprintln!("adlp-lint: cannot read {}", p.display());
                return ExitCode::from(2);
            };
            let rel = p
                .strip_prefix(&root)
                .unwrap_or(p)
                .to_string_lossy()
                .replace('\\', "/");
            files.push((rel, source));
        }
        analyze_files(files)
    };

    let counts = count_by_key(&reports);
    let total: usize = counts.values().sum();
    let suppressed: usize = reports.values().map(|r| r.suppressed).sum();
    let files_scanned = reports.len();

    let baseline_path = args
        .baseline
        .clone()
        .unwrap_or_else(|| root.join("lint-baseline.toml"));

    if args.write_baseline {
        let mut per_rule: BTreeMap<String, usize> = BTreeMap::new();
        for (key, n) in &counts {
            if let Some((_, rule)) = key.rsplit_once(':') {
                *per_rule.entry(rule.to_owned()).or_default() += n;
            }
        }
        let per_rule_line = per_rule
            .iter()
            .map(|(r, n)| format!("{r}={n}"))
            .collect::<Vec<_>>()
            .join(" ");
        let header = format!(
            "adlp-lint baseline — accepted pre-existing debt, ratcheted down over time.\n\
             Regenerate with: cargo run -p adlp-lint --release -- --write-baseline\n\
             total = {total} across {files} file:rule keys ({per_rule_line})\n\
             A scan above any count fails --deny; below it, this file must be rewritten.",
            files = counts.len(),
        );
        let text = Baseline::render(&counts, &header);
        if let Err(e) = std::fs::write(&baseline_path, text) {
            eprintln!("adlp-lint: cannot write {}: {e}", baseline_path.display());
            return ExitCode::from(2);
        }
        println!(
            "wrote {} ({} violations over {} keys)",
            baseline_path.display(),
            total,
            counts.len()
        );
        return ExitCode::SUCCESS;
    }

    let baseline = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => match Baseline::parse(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("adlp-lint: {} is corrupt: {e}", baseline_path.display());
                return ExitCode::from(2);
            }
        },
        Err(_) => Baseline::default(),
    };

    let deltas = baseline.compare(&counts);
    let mut regressions = 0usize;
    let mut stale = 0usize;
    for d in &deltas {
        match d {
            Delta::Regression(key, base, cur) => {
                regressions += 1;
                if args.json {
                    continue;
                }
                println!("REGRESSION {key}: {cur} violation(s), baseline allows {base}");
                // Show the offending diagnostics for regressed keys.
                if let Some((path, rule)) = key.rsplit_once(':') {
                    if let Some(report) = reports.get(path) {
                        for diag in report.diags.iter().filter(|d| d.rule == rule) {
                            println!("  {diag}");
                        }
                    }
                }
            }
            Delta::Stale(key, base, cur) => {
                stale += 1;
                if args.json {
                    continue;
                }
                if *cur == 0 {
                    println!(
                        "STALE {key}: baseline records {base} but 0 remain — delete \
                         the line `\"{key}\" = {base}` from lint-baseline.toml (or \
                         run --write-baseline)"
                    );
                } else {
                    println!(
                        "STALE {key}: baseline records {base} but only {cur} remain — \
                         lower the line to `\"{key}\" = {cur}` in lint-baseline.toml \
                         (or run --write-baseline)"
                    );
                }
            }
        }
    }

    if args.json {
        print_json(&reports, &deltas, total, suppressed);
    } else if args.all {
        for report in reports.values() {
            for d in &report.diags {
                println!("{d}");
            }
        }
    }

    if !args.json {
        println!(
            "adlp-lint: {files_scanned} files, {total} violation(s) \
             ({} baselined), {suppressed} suppressed inline, \
             {regressions} regression(s), {stale} stale baseline key(s)",
            baseline.total(),
        );
    }

    if args.deny && (regressions > 0 || stale > 0) {
        eprintln!(
            "adlp-lint: failing (--deny): fix regressions and/or re-run \
             --write-baseline for ratcheted keys"
        );
        return ExitCode::FAILURE;
    }
    // The workspace's own debt is paid off and stays paid: under --deny a
    // baselined finding fails even without a regression, so accepted debt
    // can never be quietly reintroduced by rewriting the baseline file.
    // The one exception is the frozen `benchmark/` tree, which only a
    // benchmark-only change may edit: its findings ride the ratchet, and
    // the stale-key check forces their removal once such a change fixes
    // the sites.
    let owed: usize = baseline
        .counts
        .iter()
        .filter(|(key, _)| !key.starts_with("benchmark/"))
        .map(|(_, n)| n)
        .sum();
    if args.deny && owed > 0 {
        eprintln!(
            "adlp-lint: failing (--deny): {owed} lint-baseline.toml entries outside \
             benchmark/ — that baseline is permanently empty; fix the findings \
             instead of baselining them"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
