//! Per-function summaries and their transitive (fixpoint) closure.
//!
//! Each function gets a small monotone fact set — panic potential, locks
//! acquired, wire-taint roles, durable-write/ack emission — computed
//! directly from its tokens and then propagated through the call graph
//! with a worklist until stable (cycles in the graph are therefore fine:
//! the facts only grow, so the fixpoint exists and is reached).

use crate::graph::Workspace;
use crate::lexer::TokKind;
use crate::FileCtx;
use std::collections::BTreeSet;

/// How a function can reach a panic: directly at a token of its own, or
/// through a call to a panicking function.
#[derive(Clone, Debug)]
pub enum PanicOrigin {
    /// Panics at this line of the function's own body; the string names
    /// the construct (`.unwrap()`, `panic!`, `[i]`, …).
    Direct { line: u32, what: String },
    /// Panics via a call to `callee` (a [`Workspace::fns`] index).
    Via { callee: usize },
}

/// The monotone fact set for one function.
#[derive(Clone, Default)]
pub struct Summary {
    /// `Some` when the function can panic (transitively). Holds the first
    /// origin discovered, in token order, for witness printing.
    pub panics: Option<PanicOrigin>,
    /// Lock identities this function acquires, transitively.
    pub locks: BTreeSet<String>,
    /// Produces wire/storage bytes that were never verified: the body
    /// calls a raw read source and no verifier afterwards.
    pub wire_source: bool,
    /// Performs a verification step (signature/checksum/decode).
    pub verifier: bool,
    /// Performs a durable write (WAL/fsync-backed append), transitively.
    pub durable: bool,
    /// Emits a deposit/submission ack, transitively.
    pub acks: bool,
}

/// Raw read calls whose returned bytes are untrusted until verified.
/// `recv_gossip_frame` is the federation ingest funnel: every frame any
/// witness link delivers — in-process channel or gossip socket —
/// re-surfaces through it, so its return value is wire bytes no matter
/// that the call itself is a channel pop.
pub const TAINT_SOURCES: &[&str] = &[
    "read_frame",
    "read_frame_timeout",
    "read_exact",
    "read_to_end",
    "read_to_string",
    "recv_gossip_frame",
];

/// Calls that check integrity/authenticity of bytes: signature verifies,
/// checksum checks, and structured decodes (every ADLP decoder validates
/// framing + checksums and fails closed; both `Wire` entry points,
/// `decode` and `decode_from`, fall under the `decode` prefix).
pub fn is_verifier(name: &str) -> bool {
    name.starts_with("verify")
        || name.starts_with("check")
        || name.starts_with("decode")
        || name.starts_with("validate")
        || name == "constant_time_eq"
}

/// Sinks that chain/commit bytes into the tamper-evident structures.
/// `adopt_head`/`observe_head` are the witness layer's STH-adoption
/// sinks: a gossiped head must be structurally decoded (framing +
/// checksum) before a witness or light client even considers it.
/// `adopt_proof`/`observe_conviction` are the conviction-gossip ingests,
/// and `submit_evidence`/`submit_vote` admit material into the dispute
/// ledger — all of them must only ever see structurally decoded input.
pub const TAINT_SINKS: &[&str] = &[
    "append_encoded",
    "adopt_encoded",
    "append_pipeline",
    "submit",
    "submit_durable",
    "adopt_head",
    "observe_head",
    "adopt_proof",
    "observe_conviction",
    "submit_evidence",
    "submit_vote",
];

/// Durable-write operations (ack-gating events for `ack-before-durable`).
pub const DURABLE_CALLS: &[&str] = &[
    "submit_durable",
    "append_pipeline",
    "append_durable",
    "sync",
];

/// Ack-emission calls (pressure-gauge deposit acknowledgements).
pub const ACK_CALLS: &[&str] = &["note_deposited", "note_acked"];

/// Counted-failure calls: losing an entry is fine *if it is counted* —
/// these mark the explicit accounting branch the rule accepts.
pub const COUNTED_FAILURES: &[&str] = &[
    "note_lost",
    "note_shed",
    "note_spilled",
    "note_deposit_failure",
];

/// One lock acquisition inside a function body.
pub struct LockSite {
    /// Token index of the `lock`/`read`/`write` ident.
    pub tok: usize,
    /// Canonical lock identity, e.g. `LoggerCluster.shards` or a bare
    /// `field` path when the receiver is not `self`.
    pub id: String,
    /// Exclusive token index where the guard provably dies (end of the
    /// enclosing block, an explicit `drop(guard)`, or end of statement
    /// for temporaries).
    pub held_until: usize,
}

/// Everything the flow rules need per function, pre-fixpoint and post.
pub struct Summaries {
    pub fns: Vec<Summary>,
    /// Direct lock acquisitions per function, token order.
    pub lock_sites: Vec<Vec<LockSite>>,
}

/// Computes direct facts for every function, then closes them over the
/// call graph.
pub fn compute(ws: &Workspace) -> Summaries {
    let mut fns: Vec<Summary> = Vec::with_capacity(ws.fns.len());
    let mut lock_sites = Vec::with_capacity(ws.fns.len());
    for f in ws.fns.iter() {
        let ctx = &ws.files[f.file];
        // Clippy rules out panic sites in protocol crates (an allowed one
        // carries its reason on the item), so only code outside them
        // seeds panic facts.
        let seeds_panics = !ws.is_protocol(&ctx.path);
        // Nested fn items summarize themselves; mask their spans out of
        // the enclosing function's scan.
        let nested: Vec<(usize, usize)> = ws
            .fns
            .iter()
            .filter(|g| g.file == f.file && g.start > f.start && g.end <= f.end)
            .map(|g| (g.start, g.end))
            .collect();
        let sites = find_lock_sites(ctx, f.body, f.end, &nested);
        let mut s = direct_summary(ctx, f.body, f.end, &nested, seeds_panics);
        for l in &sites {
            s.locks.insert(l.id.clone());
        }
        fns.push(s);
        lock_sites.push(sites);
    }

    // Worklist fixpoint: when a callee's facts grow, revisit its callers.
    let mut callers: Vec<Vec<usize>> = vec![Vec::new(); ws.fns.len()];
    for (caller, sites) in ws.calls.iter().enumerate() {
        for c in sites {
            callers[c.callee].push(caller);
        }
    }
    let mut work: Vec<usize> = (0..ws.fns.len()).collect();
    while let Some(id) = work.pop() {
        let mut changed = false;
        // Collect callee contributions first to appease the borrow checker.
        let mut add_locks: Vec<String> = Vec::new();
        let mut panic_via: Option<usize> = None;
        let (mut durable, mut acks) = (false, false);
        for c in &ws.calls[id] {
            let callee = &fns[c.callee];
            for l in &callee.locks {
                if !fns[id].locks.contains(l) {
                    add_locks.push(l.clone());
                }
            }
            if callee.panics.is_some() && fns[id].panics.is_none() && panic_via.is_none() {
                panic_via = Some(c.callee);
            }
            durable |= callee.durable;
            acks |= callee.acks;
        }
        let s = &mut fns[id];
        for l in add_locks {
            s.locks.insert(l);
            changed = true;
        }
        if let Some(callee) = panic_via {
            s.panics = Some(PanicOrigin::Via { callee });
            changed = true;
        }
        if durable && !s.durable {
            s.durable = true;
            changed = true;
        }
        if acks && !s.acks {
            s.acks = true;
            changed = true;
        }
        if changed {
            for &caller in &callers[id] {
                if !work.contains(&caller) {
                    work.push(caller);
                }
            }
        }
    }

    Summaries { fns, lock_sites }
}

/// Scans one body span for the direct (intraprocedural) facts.
fn direct_summary(
    ctx: &FileCtx,
    body: usize,
    end: usize,
    nested: &[(usize, usize)],
    seeds_panics: bool,
) -> Summary {
    let toks = &ctx.toks;
    let mut s = Summary::default();
    let mut saw_source_tok: Option<usize> = None;
    let mut verified_after_source = true;
    for i in body..end.min(toks.len()) {
        if ctx.in_test(i) || ctx.in_attr(i) {
            continue;
        }
        if nested.iter().any(|&(ns, ne)| i >= ns && i < ne) {
            continue;
        }
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let call_like = toks.get(i + 1).is_some_and(|n| n.is_punct("("));
        let name = t.text.as_str();
        if seeds_panics && s.panics.is_none() {
            if (name == "unwrap" || name == "expect")
                && i > 0
                && toks[i - 1].is_punct(".")
                && call_like
            {
                s.panics = Some(PanicOrigin::Direct {
                    line: t.line,
                    what: format!(".{name}()"),
                });
            } else if matches!(name, "panic" | "unreachable" | "todo" | "unimplemented")
                && toks.get(i + 1).is_some_and(|n| n.is_punct("!"))
            {
                s.panics = Some(PanicOrigin::Direct {
                    line: t.line,
                    what: format!("{name}!"),
                });
            }
        }
        if !call_like {
            continue;
        }
        if TAINT_SOURCES.contains(&name) {
            saw_source_tok = Some(i);
            verified_after_source = false;
        } else if is_verifier(name) {
            verified_after_source = true;
            s.verifier = true;
        }
        if DURABLE_CALLS.contains(&name) {
            s.durable = true;
        }
        if ACK_CALLS.contains(&name) {
            s.acks = true;
        }
    }
    s.wire_source = saw_source_tok.is_some() && !verified_after_source;
    s
}

/// Finds direct lock acquisitions in a body span and how long each guard
/// is held. Matches the empty-args `.lock()` / `.read()` / `.write()`
/// shapes of std and parking_lot locks.
fn find_lock_sites(
    ctx: &FileCtx,
    body: usize,
    end: usize,
    nested: &[(usize, usize)],
) -> Vec<LockSite> {
    let toks = &ctx.toks;
    let end = end.min(toks.len());
    // Brace depth per token, for guard-scope extents.
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
    let mut out = Vec::new();
    for i in body..end {
        if ctx.in_test(i) || ctx.in_attr(i) {
            continue;
        }
        if nested.iter().any(|&(ns, ne)| i >= ns && i < ne) {
            continue;
        }
        let t = &toks[i];
        if !(t.kind == TokKind::Ident
            && matches!(t.text.as_str(), "lock" | "read" | "write")
            && i > 0
            && toks[i - 1].is_punct(".")
            && toks.get(i + 1).is_some_and(|n| n.is_punct("("))
            && toks.get(i + 2).is_some_and(|n| n.is_punct(")")))
        {
            continue;
        }
        let Some(id) = lock_identity(ctx, i) else {
            continue;
        };
        // Guard extent: a `let g = ….lock();` binding lives to the end of
        // its block or an explicit `drop(g)`; a temporary guard dies at
        // the end of its statement.
        let mut stmt_start = i;
        while stmt_start > body
            && !toks[stmt_start - 1].is_punct(";")
            && !toks[stmt_start - 1].is_punct("{")
            && !toks[stmt_start - 1].is_punct("}")
        {
            stmt_start -= 1;
        }
        let guard = (toks.get(stmt_start).is_some_and(|t| t.is_ident("let"))
            && toks.get(stmt_start + 2).is_some_and(|t| t.is_punct("=")))
        .then(|| toks[stmt_start + 1].text.clone());
        let held_until = match guard.as_deref() {
            Some("_") => {
                // `let _ = x.lock();` drops immediately.
                i + 3
            }
            Some(g) => {
                let scope_depth = depth[stmt_start];
                let mut k = i + 3;
                while k < end && depth[k] >= scope_depth {
                    if toks[k].is_ident("drop")
                        && toks.get(k + 1).is_some_and(|a| a.is_punct("("))
                        && toks.get(k + 2).is_some_and(|a| a.is_ident(g))
                    {
                        break;
                    }
                    k += 1;
                }
                k
            }
            None => {
                // Temporary guard: held to the end of the statement.
                let mut k = i + 3;
                while k < end && !toks[k].is_punct(";") {
                    k += 1;
                }
                k
            }
        };
        out.push(LockSite {
            tok: i,
            id,
            held_until,
        });
    }
    out
}

/// Canonicalizes the receiver path of a lock call at token `i` (the
/// `lock`/`read`/`write` ident): `self.field.lock()` inside `impl T`
/// becomes `T.field`; other dotted paths keep their trailing segments.
fn lock_identity(ctx: &FileCtx, i: usize) -> Option<String> {
    let toks = &ctx.toks;
    // Walk back over the `.`-separated path: i-1 is `.`, i-2 a segment…
    let mut segs: Vec<String> = Vec::new();
    let mut j = i - 1; // the `.` before `lock`
    loop {
        if j == 0 || !toks[j].is_punct(".") {
            break;
        }
        let seg = &toks[j - 1];
        if seg.kind == TokKind::Ident {
            segs.push(seg.text.clone());
            if j < 2 || !toks[j - 2].is_punct(".") {
                break;
            }
            j -= 2;
        } else {
            // `(expr).lock()`, `x[i].lock()` — receiver too dynamic to
            // name; skip rather than invent identities.
            return None;
        }
    }
    segs.reverse();
    match segs.as_slice() {
        [] => None,
        [only] if *only == "self" => None,
        rest => {
            let mut parts: Vec<&str> = rest.iter().map(String::as_str).collect();
            if parts[0] == "self" {
                // Qualify by the impl owner so `self.x` in two types
                // never collides.
                let owner = enclosing_owner(ctx, i).unwrap_or_else(|| "Self".into());
                parts.remove(0);
                return Some(format!("{owner}.{}", parts.join(".")));
            }
            Some(parts.join("."))
        }
    }
}

/// The impl owner type enclosing token `i`, if any (cached on FileCtx).
fn enclosing_owner(ctx: &FileCtx, i: usize) -> Option<String> {
    ctx.impl_owner_at(i)
}
