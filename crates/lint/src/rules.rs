//! The ADLP invariant rules neither clippy nor the type system states.
//!
//! Each rule maps to a guarantee in the paper (see DESIGN.md §3.7):
//! poisoned-lock unwraps turn one panic into a cascade, discarded
//! fallible sends silently lose the evidence the protocol exists to keep,
//! and the one flow rule follows lock acquisitions across the call graph.
//! The rest is the compiler's: the protocol crates and the shims they
//! call deny clippy's panic lints, `clippy.toml` disallows the ambient
//! clocks and rng where replay is the contract, `Digest`/`Signature`
//! compare in constant time by type, the logger appends only an
//! `EncodedEntry` (a checked record), and a node counts a deposit only
//! with the receipt the logger's acceptance mints.

use crate::graph::Workspace;
use crate::lexer::TokKind;
use crate::summary::Summaries;
use crate::{Diagnostic, FileCtx};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// A single token-local lint rule over `src/` code: id, rationale,
/// checker.
pub struct Rule {
    pub id: &'static str,
    pub rationale: &'static str,
    pub check: fn(&FileCtx, &mut Vec<Diagnostic>),
}

/// A flow rule: runs once over the whole-workspace call graph and the
/// per-function summaries instead of file by file.
pub struct FlowRule {
    pub id: &'static str,
    pub rationale: &'static str,
    pub check: fn(&Workspace, &Summaries, &mut Vec<Diagnostic>),
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

/// The flow rules, in reporting order.
pub const FLOW: &[FlowRule] = &[FlowRule {
    id: "lock-order-cycles",
    rationale: "two call paths that acquire the same locks in opposite orders \
                    deadlock under contention; the interprocedural acquisition graph \
                    must stay acyclic across cluster/logger/pubsub",
    check: lock_order_cycles,
}];

fn push(out: &mut Vec<Diagnostic>, ctx: &FileCtx, rule: &'static str, i: usize, msg: String) {
    out.push(Diagnostic {
        rule,
        path: ctx.path.clone(),
        line: ctx.toks[i].line,
        col: ctx.toks[i].col,
        message: msg,
        witness: Vec::new(),
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

// ---- flow rules ----------------------------------------------------------

/// Crates whose lock discipline the deadlock rule enforces.
fn lock_scope(p: &str) -> bool {
    [
        "crates/cluster/src/",
        "crates/logger/src/",
        "crates/pubsub/src/",
        "crates/core/src/",
    ]
    .iter()
    .any(|pre| p.starts_with(pre))
}

/// One lock-order edge: `from` is held while `to` is acquired.
struct LockEdge {
    to: String,
    file: usize,
    tok: usize,
    /// Callee whose transitive lock set produced the edge, if indirect.
    via: Option<String>,
}

/// Flow rule: build the interprocedural lock-acquisition order graph and
/// report every cycle with a witness path.
fn lock_order_cycles(ws: &Workspace, sums: &Summaries, out: &mut Vec<Diagnostic>) {
    // from-lock → (to-lock → first witness edge).
    let mut edges: BTreeMap<String, BTreeMap<String, LockEdge>> = BTreeMap::new();
    for (id, f) in ws.fns.iter().enumerate() {
        let ctx = &ws.files[f.file];
        if !lock_scope(&ctx.path) {
            continue;
        }
        for site in &sums.lock_sites[id] {
            let held = site.tok..site.held_until;
            // Direct: another lock acquired while this one is held.
            for other in &sums.lock_sites[id] {
                if other.tok > site.tok && held.contains(&other.tok) && other.id != site.id {
                    edges
                        .entry(site.id.clone())
                        .or_default()
                        .entry(other.id.clone())
                        .or_insert(LockEdge {
                            to: other.id.clone(),
                            file: f.file,
                            tok: other.tok,
                            via: None,
                        });
                }
            }
            // Indirect: a callee (transitively) acquires locks while this
            // one is held.
            for call in &ws.calls[id] {
                if !held.contains(&call.tok) {
                    continue;
                }
                let callee = &ws.fns[call.callee];
                for lk in &sums.locks[call.callee] {
                    if *lk != site.id {
                        edges
                            .entry(site.id.clone())
                            .or_default()
                            .entry(lk.clone())
                            .or_insert(LockEdge {
                                to: lk.clone(),
                                file: f.file,
                                tok: call.tok,
                                via: Some(callee.qname()),
                            });
                    }
                }
            }
        }
    }

    // A cycle exists iff some edge a→b has a path b→…→a. Report it once,
    // anchored at the lexicographically smallest lock in the cycle.
    let mut reported: BTreeSet<Vec<String>> = BTreeSet::new();
    for (a, outs) in &edges {
        for b in outs.keys() {
            let Some(path_back) = shortest_path(&edges, b, a) else {
                continue;
            };
            // Cycle node sequence: a → b → … → a (path_back is b → … → a
            // inclusive).
            let mut cycle = vec![a.clone()];
            cycle.extend(path_back);
            let mut canon = cycle.clone();
            canon.pop();
            canon.sort();
            if cycle.first().map(String::as_str) != canon.first().map(String::as_str)
                || !reported.insert(canon)
            {
                continue;
            }
            let mut witness = Vec::new();
            for w in cycle.windows(2) {
                let e = &edges[&w[0]][&w[1]];
                let ctx = &ws.files[e.file];
                let t = &ctx.toks[e.tok];
                witness.push(match &e.via {
                    Some(v) => format!(
                        "{} held, {} acquired via {v} at {}:{}",
                        w[0], e.to, ctx.path, t.line
                    ),
                    None => format!(
                        "{} held, {} acquired at {}:{}",
                        w[0], e.to, ctx.path, t.line
                    ),
                });
            }
            let first = &edges[&cycle[0]][&cycle[1]];
            let ctx = &ws.files[first.file];
            let t = &ctx.toks[first.tok];
            out.push(Diagnostic {
                rule: "lock-order-cycles",
                path: ctx.path.clone(),
                line: t.line,
                col: t.col,
                message: format!(
                    "lock acquisition cycle {} — opposite acquisition orders \
                     deadlock under contention; impose one global order",
                    cycle.join(" -> ")
                ),
                witness,
            });
        }
    }
}

/// BFS shortest path through the lock-order edges; returns the inclusive
/// node sequence `[from, …, to]`, so every consecutive pair is a real
/// edge of the graph.
fn shortest_path(
    edges: &BTreeMap<String, BTreeMap<String, LockEdge>>,
    from: &str,
    to: &str,
) -> Option<Vec<String>> {
    let mut prev: BTreeMap<String, String> = BTreeMap::new();
    let mut visited: BTreeSet<String> = BTreeSet::from([from.to_owned()]);
    let mut queue = VecDeque::from([from.to_owned()]);
    while let Some(n) = queue.pop_front() {
        if n == to {
            let mut path = vec![n.clone()];
            let mut cur = n;
            while let Some(p) = prev.get(&cur) {
                path.push(p.clone());
                cur = p.clone();
            }
            path.reverse();
            return Some(path);
        }
        if let Some(outs) = edges.get(&n) {
            for next in outs.keys() {
                if visited.insert(next.clone()) {
                    prev.insert(next.clone(), n.clone());
                    queue.push_back(next.clone());
                }
            }
        }
    }
    None
}

/// Rationale for any rule id, token-local or flow.
pub fn rationale(id: &str) -> Option<&'static str> {
    ALL.iter()
        .find(|r| r.id == id)
        .map(|r| r.rationale)
        .or_else(|| FLOW.iter().find(|r| r.id == id).map(|r| r.rationale))
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
        "lock-order-cycles" => {
            "Invariant: the workspace-wide lock-acquisition order graph must be\n\
             acyclic across cluster/logger/pubsub/core — two paths taking the same\n\
             locks in opposite orders deadlock under contention.\n\
             Matches: interprocedural edges `A held while B acquired`, where lock\n\
             identities are `Owner.field` paths resolved through the call graph;\n\
             each cycle is reported once with its full witness path.\n\
             Soundness caveats: guards are assumed held to end of block (or\n\
             explicit drop), and unresolved calls contribute no edges.\n\
             Suppress: allow() on the acquisition line with the reason the cycle\n\
             cannot contend (e.g. startup-only path)."
        }
        "suppression-missing-reason" => {
            "Every `// adlp-lint: allow(rule)` directive must carry a reason:\n\
             `// adlp-lint: allow(rule) — why this site is safe`. A reasonless\n\
             directive suppresses nothing and is itself reported."
        }
        _ => return None,
    })
}
