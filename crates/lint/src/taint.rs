//! Wire-taint flow analysis: raw transport/storage bytes must pass a
//! verification step before they reach the tamper-evident sinks.
//!
//! ADLP's audit argument (paper §IV, Lemmas 1–2) assumes everything in
//! the committed log was *checked on the way in* — a logger that appends a
//! wire blob it never decoded or verified commits garbage that the auditor
//! later attributes to an honest publisher. The analysis is a token-order
//! walk per function: a call to a raw read source
//! ([`summary::TAINT_SOURCES`], or a callee summarized as an unverified
//! `wire_source`) sets the taint; a verifier call
//! ([`summary::is_verifier`], or a callee that verifies) clears it; a
//! sink call ([`summary::TAINT_SINKS`]) while tainted is a finding, with
//! the source→sink witness attached.

use crate::graph::Workspace;
use crate::lexer::TokKind;
use crate::summary::{self, Summaries};
use crate::Diagnostic;

/// Runs the `unverified-wire-taint` rule over every in-scope function.
pub fn unverified_wire_taint(ws: &Workspace, sums: &Summaries, out: &mut Vec<Diagnostic>) {
    for (id, f) in ws.fns.iter().enumerate() {
        let ctx = &ws.files[f.file];
        if !in_scope(&ctx.path) {
            continue;
        }
        let toks = &ctx.toks;
        let nested: Vec<(usize, usize)> = ws
            .fns
            .iter()
            .filter(|g| g.file == f.file && g.start > f.start && g.end <= f.end)
            .map(|g| (g.start, g.end))
            .collect();

        // Resolved call sites by token index, for callee summaries.
        let callee_at = |tok: usize| {
            ws.calls[id]
                .iter()
                .find(|c| c.tok == tok)
                .map(|c| c.callee)
        };

        let mut taint: Option<(usize, String)> = None; // (token, source name)
        for i in f.body..f.end.min(toks.len()) {
            if ctx.in_test(i) || ctx.in_attr(i) {
                continue;
            }
            if nested.iter().any(|&(s, e)| i >= s && i < e) {
                continue;
            }
            let t = &toks[i];
            if t.kind != TokKind::Ident
                || !toks.get(i + 1).is_some_and(|n| n.is_punct("("))
            {
                continue;
            }
            let name = t.text.as_str();
            let callee = callee_at(i);
            let callee_sum = callee.map(|c| &sums.fns[c]);

            if summary::TAINT_SOURCES.contains(&name)
                || callee_sum.is_some_and(|s| s.wire_source)
            {
                taint = Some((i, name.to_owned()));
                continue;
            }
            if summary::is_verifier(name) || callee_sum.is_some_and(|s| s.verifier) {
                taint = None;
                continue;
            }
            if summary::TAINT_SINKS.contains(&name) {
                if let Some((src_tok, src_name)) = &taint {
                    let src = &toks[*src_tok];
                    out.push(Diagnostic {
                        rule: "unverified-wire-taint",
                        path: ctx.path.clone(),
                        line: t.line,
                        col: t.col,
                        message: format!(
                            "bytes read by `{src_name}` (line {}) reach sink `{name}` \
                             without passing a verify/checksum/decode step; unchecked \
                             wire data must never enter the tamper-evident chain",
                            src.line
                        ),
                        witness: vec![
                            format!("{}:{} {src_name}", ctx.path, src.line),
                            format!("{}:{} {name}", ctx.path, t.line),
                        ],
                    });
                    // One finding per source; re-arm only on a new source.
                    taint = None;
                }
            }
        }
    }
}

/// The crates whose ingest paths feed the tamper-evident structures.
fn in_scope(path: &str) -> bool {
    [
        "crates/logger/src/",
        "crates/cluster/src/",
        "crates/pubsub/src/",
        "crates/core/src/",
        "crates/witness/src/",
        "crates/dispute/src/",
    ]
    .iter()
    .any(|pre| path.starts_with(pre))
}
