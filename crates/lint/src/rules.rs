//! The ADLP invariant rules clippy cannot state.
//!
//! Each rule maps to a guarantee in the paper (see DESIGN.md §3.7):
//! poisoned-lock unwraps turn one panic into a cascade, discarded
//! fallible sends silently lose the evidence the protocol exists to keep,
//! and the flow rules follow locks, wire bytes, acks and panics across the
//! call graph. Panic sites, ambient time and randomness, and
//! variable-time digest comparison are the compiler's: the protocol
//! crates deny clippy's panic lints, `clippy.toml` disallows the ambient
//! sources where replay is the contract, and `Digest`/`Signature`
//! compare in constant time by type.

use crate::graph::Workspace;
use crate::lexer::TokKind;
use crate::summary::{self, Summaries};
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

/// The flow rules, in reporting order. `no-panic-paths` here is the half
/// of panic-freedom clippy cannot see: clippy reports panic sites inside
/// each protocol crate, this rule reports *calls* from protocol code into
/// panicking code defined outside the protocol crates.
pub const FLOW: &[FlowRule] = &[
    FlowRule {
        id: "lock-order-cycles",
        rationale: "two call paths that acquire the same locks in opposite orders \
                    deadlock under contention; the interprocedural acquisition graph \
                    must stay acyclic across cluster/logger/pubsub",
        check: lock_order_cycles,
    },
    FlowRule {
        id: "unverified-wire-taint",
        rationale: "bytes from transport/storage reads must pass a verify/checksum/\
                    decode step before reaching append/adopt/submit sinks, or the \
                    chain commits garbage the auditor attributes to honest parties",
        check: crate::taint::unverified_wire_taint,
    },
    FlowRule {
        id: "ack-before-durable",
        rationale: "on ack-after-durable paths an acknowledgement emitted before the \
                    durable write (or outside a counted-failure branch) converts \
                    'acked durable' into 'probably on disk'",
        check: ack_before_durable,
    },
    FlowRule {
        id: "no-panic-paths",
        rationale: "a protocol function that calls panicking code outside the protocol \
                    crates still dies; the no-panic property must hold transitively",
        check: no_panic_transitive,
    },
];

/// The clippy lints whose `#![deny(…)]` in a crate's `lib.rs` makes it a
/// protocol crate for the transitive `no-panic-paths` rule.
pub const PANIC_LINTS: &[&str] = &[
    "unwrap_used",
    "expect_used",
    "panic",
    "indexing_slicing",
    "unreachable",
    "todo",
    "unimplemented",
];

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
                for lk in &sums.fns[call.callee].locks {
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

/// Crates on the deposit/ack pipeline.
fn ack_scope(p: &str) -> bool {
    [
        "crates/core/src/",
        "crates/logger/src/",
        "crates/cluster/src/",
    ]
    .iter()
    .any(|pre| p.starts_with(pre))
}

/// Flow rule: in any function on a durable-write path, an ack emission
/// (`note_deposited`/`note_acked`/`SubmitOutcome::Accepted`) must come
/// after the durable write or a counted-failure event in token order.
fn ack_before_durable(ws: &Workspace, sums: &Summaries, out: &mut Vec<Diagnostic>) {
    for (id, f) in ws.fns.iter().enumerate() {
        let ctx = &ws.files[f.file];
        if !ack_scope(&ctx.path) {
            continue;
        }
        // Only functions that perform a durable write (directly or via a
        // callee) are on an ack-after-durable path; pure volatile-mode
        // acking is legitimate by construction.
        let on_durable_path =
            sums.fns[id].durable || ws.calls[id].iter().any(|c| sums.fns[c.callee].durable);
        if !on_durable_path {
            continue;
        }
        let toks = &ctx.toks;
        let nested: Vec<(usize, usize)> = ws
            .fns
            .iter()
            .filter(|g| g.file == f.file && g.start > f.start && g.end <= f.end)
            .map(|g| (g.start, g.end))
            .collect();
        let callee_at = |tok: usize| {
            ws.calls[id]
                .iter()
                .find(|c| c.tok == tok)
                .map(|c| &sums.fns[c.callee])
        };
        let mut gated = false; // durable write or counted failure seen
        let mut durable_line = None;
        for i in f.body..f.end.min(toks.len()) {
            if ctx.in_test(i) || ctx.in_attr(i) {
                continue;
            }
            if nested.iter().any(|&(s, e)| i >= s && i < e) {
                continue;
            }
            let t = &toks[i];
            if t.kind != TokKind::Ident {
                continue;
            }
            let call_like = toks.get(i + 1).is_some_and(|n| n.is_punct("("));
            let name = t.text.as_str();
            if call_like
                && (summary::DURABLE_CALLS.contains(&name)
                    || callee_at(i).is_some_and(|s| s.durable))
            {
                gated = true;
                durable_line.get_or_insert(t.line);
                continue;
            }
            if call_like && summary::COUNTED_FAILURES.contains(&name) {
                gated = true;
                continue;
            }
            let is_ack = (call_like
                && (summary::ACK_CALLS.contains(&name) || callee_at(i).is_some_and(|s| s.acks)))
                || (name == "Accepted"
                    && i >= 2
                    && toks[i - 1].is_punct("::")
                    && toks[i - 2].is_ident("SubmitOutcome"));
            if is_ack && !gated {
                out.push(Diagnostic {
                    rule: "ack-before-durable",
                    path: ctx.path.clone(),
                    line: t.line,
                    col: t.col,
                    message: format!(
                        "`{name}` acknowledges the entry before any durable write or \
                         counted-failure branch in `{}`; on ack-after-durable paths \
                         the ack must follow the WAL sync",
                        f.qname()
                    ),
                    witness: vec![format!("{}:{} {name}", ctx.path, t.line)],
                });
                gated = true; // one finding per function is enough signal
            }
        }
    }
}

/// Flow rule: transitive `no-panic-paths` — flag calls from protocol
/// crates into panicking functions defined *outside* them (panic sites
/// inside a protocol crate are clippy's to report).
fn no_panic_transitive(ws: &Workspace, sums: &Summaries, out: &mut Vec<Diagnostic>) {
    for (id, f) in ws.fns.iter().enumerate() {
        let ctx = &ws.files[f.file];
        if !ws.is_protocol(&ctx.path) {
            continue;
        }
        let mut seen: BTreeSet<(u32, usize)> = BTreeSet::new();
        for call in &ws.calls[id] {
            if ctx.in_test(call.tok) || ctx.in_attr(call.tok) {
                continue;
            }
            let callee = &ws.fns[call.callee];
            let callee_path = &ws.files[callee.file].path;
            if ws.is_protocol(callee_path) {
                continue;
            }
            if sums.fns[call.callee].panics.is_none() {
                continue;
            }
            let t = &ctx.toks[call.tok];
            if !seen.insert((t.line, call.callee)) {
                continue;
            }
            let witness = panic_witness(ws, sums, call.callee);
            out.push(Diagnostic {
                rule: "no-panic-paths",
                path: ctx.path.clone(),
                line: t.line,
                col: t.col,
                message: format!(
                    "call into `{}` ({}) which can panic ({}); protocol code must \
                     not reach panicking helpers",
                    callee.qname(),
                    callee_path,
                    witness.last().map(String::as_str).unwrap_or("?"),
                ),
                witness,
            });
        }
    }
}

/// Follows `PanicOrigin::Via` links to the concrete panic site, producing
/// a printable chain. Depth-capped defensively; the fixpoint cannot
/// produce a Via chain without a Direct terminus, but a cap keeps even a
/// logic bug from looping.
fn panic_witness(ws: &Workspace, sums: &Summaries, mut id: usize) -> Vec<String> {
    let mut chain = Vec::new();
    for _ in 0..32 {
        let f = &ws.fns[id];
        match &sums.fns[id].panics {
            Some(summary::PanicOrigin::Direct { line, what }) => {
                chain.push(format!(
                    "{} panics via {what} at {}:{line}",
                    f.qname(),
                    ws.files[f.file].path
                ));
                break;
            }
            Some(summary::PanicOrigin::Via { callee }) => {
                chain.push(f.qname());
                id = *callee;
            }
            None => break,
        }
    }
    chain
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
        "no-panic-paths" => {
            "Invariant: protocol crates must not panic — in the audit model a\n\
             panicking component is indistinguishable from a hiding one (paper\n\
             Lemma 2).\n\
             A protocol crate is one whose src/lib.rs denies clippy::{unwrap_used,\n\
             expect_used, panic, indexing_slicing, unreachable, todo,\n\
             unimplemented}; clippy reports every panic site inside it.\n\
             Matches: calls, through the call graph, from protocol code into\n\
             functions defined outside the protocol crates that can reach\n\
             .unwrap()/.expect() or panic!/unreachable!/todo!/unimplemented!.\n\
             Suppress: a panic site inside a protocol crate takes\n\
             #[allow(clippy::<lint>, reason = \"…\")] on its item; a flagged call\n\
             takes an inline allow of this rule id, with its reason."
        }
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
        "unverified-wire-taint" => {
            "Invariant: bytes read from transport or storage must pass a\n\
             verify/checksum/decode step before reaching the tamper-evident sinks\n\
             (append_encoded/adopt_encoded/submit/submit_durable/append_pipeline,\n\
             and the witness layer's STH adoption: adopt_head/observe_head);\n\
             ADLP decoders validate framing and checksums and fail closed, so a\n\
             structured decode counts as verification.\n\
             Matches: a token-order flow inside one function from a read source\n\
             (read_frame/read_exact/…, or a callee summarized as returning\n\
             unverified wire bytes) to a sink with no verifier between.\n\
             Suppress: allow() on the sink line, stating where verification\n\
             actually happens."
        }
        "ack-before-durable" => {
            "Invariant: on ack-after-durable paths, the acknowledgement\n\
             (note_deposited/note_acked/SubmitOutcome::Accepted) must be dominated\n\
             by the durable write or an explicit counted-failure branch; acking\n\
             first silently downgrades 'acked durable' to 'probably on disk'.\n\
             Matches: functions that perform a durable write (directly or via a\n\
             callee) where an ack emission precedes every durable/counted event in\n\
             token order.\n\
             Suppress: allow() on the ack line, explaining why durability is\n\
             already guaranteed at that point."
        }
        "suppression-missing-reason" => {
            "Every `// adlp-lint: allow(rule)` directive must carry a reason:\n\
             `// adlp-lint: allow(rule) — why this site is safe`. A reasonless\n\
             directive suppresses nothing and is itself reported."
        }
        _ => return None,
    })
}
