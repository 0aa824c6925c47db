//! The ADLP invariant rules neither clippy nor the type system states.
//!
//! Each rule maps to a guarantee in the paper (see DESIGN.md §3.7):
//! poisoned-lock unwraps turn one panic into a cascade, discarded
//! and discarded fallible sends silently lose the evidence the protocol
//! exists to keep. Lock order is checked at run time instead, by the
//! debug build of the workspace's `parking_lot` shim. The rest is the
//! compiler's: the protocol crates and the shims they
//! call deny clippy's panic lints, `clippy.toml` disallows the ambient
//! clocks and rng where replay is the contract, `Digest`/`Signature`
//! compare in constant time by type, the logger appends only an
//! `EncodedEntry` (a checked record), and a node counts a deposit only
//! with the receipt the logger's acceptance mints.

use crate::lexer::TokKind;
use crate::{Diagnostic, FileCtx};

/// A single token-local lint rule over `src/` code: id, rationale,
/// checker.
pub struct Rule {
    pub id: &'static str,
    pub rationale: &'static str,
    pub check: fn(&FileCtx, &mut Vec<Diagnostic>),
}

/// All token rules, in reporting order.
pub const ALL: &[Rule] = &[
    Rule {
        id: "lock-hygiene",
        rationale: "poisoned-lock unwraps cascade one panic into many, and a guard \
                    held across socket I/O stalls every peer of that lock",
        check: lock_hygiene,
    },
    Rule {
        id: "discarded-fallible",
        rationale: "a discarded protocol send or log submission silently loses the \
                    evidence accountability depends on; handle, count, or suppress with a reason",
        check: discarded_fallible,
    },
];

fn push(out: &mut Vec<Diagnostic>, ctx: &FileCtx, rule: &'static str, i: usize, msg: String) {
    out.push(Diagnostic {
        rule,
        path: ctx.path.clone(),
        line: ctx.toks[i].line,
        col: ctx.toks[i].col,
        message: msg,
    });
}

/// Method names that perform socket/channel I/O; holding a lock guard
/// across them is the deadlock/stall heuristic this rule encodes.
const IO_CALLS: &[&str] = &[
    "write_all",
    "read_exact",
    "read_to_end",
    "connect",
    "connect_timeout",
    "accept",
    "recv",
    "recv_timeout",
    "send_frame",
    "shutdown",
];

/// Rule 1: `.lock().unwrap()`-style poison panics, and lock guards held
/// across socket I/O (heuristic: a `let g = ….lock();` binding whose
/// enclosing block performs I/O before the guard dies).
fn lock_hygiene(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    let toks = &ctx.toks;
    // Precompute brace depth per token for the guard-scope scan.
    let mut depth = vec![0u32; toks.len()];
    let mut d = 0u32;
    for (i, t) in toks.iter().enumerate() {
        if t.is_punct("}") {
            d = d.saturating_sub(1);
        }
        depth[i] = d;
        if t.is_punct("{") {
            d += 1;
        }
    }
    for i in 0..toks.len() {
        if ctx.in_test(i) || ctx.in_attr(i) {
            continue;
        }
        let t = &toks[i];
        // .lock().unwrap() / .read().expect(…) / .write().unwrap()
        if t.kind == TokKind::Ident
            && matches!(t.text.as_str(), "lock" | "read" | "write")
            && i > 0
            && toks[i - 1].is_punct(".")
            && toks.get(i + 1).is_some_and(|a| a.is_punct("("))
            && toks.get(i + 2).is_some_and(|a| a.is_punct(")"))
            && toks.get(i + 3).is_some_and(|a| a.is_punct("."))
            && toks
                .get(i + 4)
                .is_some_and(|a| a.is_ident("unwrap") || a.is_ident("expect"))
        {
            push(
                out,
                ctx,
                "lock-hygiene",
                i,
                format!(
                    ".{}().{}() panics when the lock is poisoned, cascading one \
                     panic into many; use the poison-recovering lock API",
                    t.text,
                    toks[i + 4].text
                ),
            );
            continue;
        }
        // let guard = ….lock();  followed by I/O inside the guard's scope.
        if t.is_ident("let")
            && toks.get(i + 1).map(|n| n.kind) == Some(TokKind::Ident)
            && toks.get(i + 2).is_some_and(|n| n.is_punct("="))
        {
            let guard = &toks[i + 1].text;
            if guard == "_" {
                continue; // dropped immediately, holds nothing
            }
            // Find the end of the statement and whether it takes a guard.
            let mut j = i + 3;
            let mut takes_guard = false;
            while j < toks.len() && !toks[j].is_punct(";") && !toks[j].is_punct("{") {
                if toks[j].kind == TokKind::Ident
                    && matches!(toks[j].text.as_str(), "lock" | "read" | "write")
                    && toks[j - 1].is_punct(".")
                    && toks.get(j + 1).is_some_and(|a| a.is_punct("("))
                    && toks.get(j + 2).is_some_and(|a| a.is_punct(")"))
                {
                    takes_guard = true;
                }
                j += 1;
            }
            if !takes_guard || j >= toks.len() || !toks[j].is_punct(";") {
                continue;
            }
            let scope_depth = depth[i];
            let mut k = j + 1;
            while k < toks.len() && depth[k] >= scope_depth {
                // An explicit drop(guard) ends the held range.
                if toks[k].is_ident("drop")
                    && toks.get(k + 1).is_some_and(|a| a.is_punct("("))
                    && toks.get(k + 2).is_some_and(|a| a.is_ident(guard))
                {
                    break;
                }
                if toks[k].kind == TokKind::Ident
                    && IO_CALLS.contains(&toks[k].text.as_str())
                    && toks[k - 1].is_punct(".")
                    && toks.get(k + 1).is_some_and(|a| a.is_punct("("))
                {
                    push(
                        out,
                        ctx,
                        "lock-hygiene",
                        k,
                        format!(
                            "socket/channel I/O `.{}()` while lock guard `{}` (bound at \
                             line {}) is live; drop the guard before blocking",
                            toks[k].text, guard, toks[i].line
                        ),
                    );
                    break; // one report per guard
                }
                k += 1;
            }
        }
    }
}

/// Call names whose `Result` carries protocol evidence — including the
/// durability layer's wal/storage operations, where a discarded failure
/// silently downgrades "acked durable" to "probably on disk", and the
/// overload layer's breaker/shedder verdicts, where a discarded outcome
/// means an untripped breaker or an uncounted loss.
const FALLIBLE_SENDS: &[&str] = &[
    "publish",
    "submit",
    "send",
    "try_send",
    "send_frame",
    "append",
    "flush",
    "log_event",
    "submit_durable",
    "adopt_encoded",
    "sync",
    "write_replace",
    "truncate",
    "store",
    "deposit",
    "deposit_durable",
    "admit",
    "on_success",
    "on_failure",
];

/// Rule 2: `let _ = <protocol send / log submission>;` discards delivery
/// or persistence failures the accountability argument depends on.
fn discarded_fallible(ctx: &FileCtx, out: &mut Vec<Diagnostic>) {
    let toks = &ctx.toks;
    for i in 0..toks.len() {
        if !(toks[i].is_ident("let")
            && toks.get(i + 1).is_some_and(|n| n.is_ident("_"))
            && toks.get(i + 2).is_some_and(|n| n.is_punct("=")))
        {
            continue;
        }
        if ctx.in_test(i) || ctx.in_attr(i) {
            continue;
        }
        let mut j = i + 3;
        while j < toks.len() && !toks[j].is_punct(";") {
            let t = &toks[j];
            if t.kind == TokKind::Ident
                && FALLIBLE_SENDS.contains(&t.text.as_str())
                && toks.get(j + 1).is_some_and(|a| a.is_punct("("))
                && (j == 0 || toks[j - 1].is_punct(".") || toks[j - 1].is_punct("::"))
            {
                push(
                    out,
                    ctx,
                    "discarded-fallible",
                    j,
                    format!(
                        "`let _ =` discards the Result of `{}`; a lost send/submission \
                         is lost evidence — handle it, count it, or allow() with a reason",
                        t.text
                    ),
                );
                break;
            }
            j += 1;
        }
    }
}

/// Long-form documentation for `--explain`: the invariant, what the rule
/// matches, and the suppression policy.
pub fn explain(id: &str) -> Option<&'static str> {
    Some(match id {
        "lock-hygiene" => {
            "Invariant: one panic must not cascade through poisoned locks, and no\n\
             lock may be held across blocking socket/channel I/O.\n\
             Matches: .lock()/.read()/.write() followed by .unwrap()/.expect(),\n\
             and guards live across write_all/read_exact/recv/connect/… calls.\n\
             Suppress: allow() with a reason when the guard provably cannot block."
        }
        "discarded-fallible" => {
            "Invariant: a failed protocol send/submission is lost evidence and must\n\
             be handled or counted, never discarded.\n\
             Matches: `let _ = <call>` over publish/submit/append/flush/… calls.\n\
             Suppress: allow() with a reason (e.g. reply channel already closed —\n\
             peer gone, failure accounted elsewhere)."
        }
        "suppression-missing-reason" => {
            "Every `// adlp-lint: allow(rule)` directive must carry a reason:\n\
             `// adlp-lint: allow(rule) — why this site is safe`. A reasonless\n\
             directive suppresses nothing and is itself reported."
        }
        _ => return None,
    })
}
