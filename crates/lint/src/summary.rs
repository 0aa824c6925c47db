//! Per-function lock summaries and their transitive (fixpoint) closure.
//!
//! Each function gets the set of locks it acquires, computed directly
//! from its tokens and then propagated through the call graph with a
//! worklist until stable (cycles in the graph are therefore fine: the
//! sets only grow, so the fixpoint exists and is reached).

use crate::graph::Workspace;
use crate::lexer::TokKind;
use crate::FileCtx;
use std::collections::BTreeSet;

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

/// Everything the flow rule needs per function.
pub struct Summaries {
    /// Lock identities each function acquires, transitively.
    pub locks: Vec<BTreeSet<String>>,
    /// Direct lock acquisitions per function, token order.
    pub lock_sites: Vec<Vec<LockSite>>,
}

/// Computes direct lock sites for every function, then closes the lock
/// sets over the call graph.
pub fn compute(ws: &Workspace) -> Summaries {
    let mut locks: Vec<BTreeSet<String>> = Vec::with_capacity(ws.fns.len());
    let mut lock_sites = Vec::with_capacity(ws.fns.len());
    for f in ws.fns.iter() {
        let ctx = &ws.files[f.file];
        // Nested fn items summarize themselves; mask their spans out of
        // the enclosing function's scan.
        let nested: Vec<(usize, usize)> = ws
            .fns
            .iter()
            .filter(|g| g.file == f.file && g.start > f.start && g.end <= f.end)
            .map(|g| (g.start, g.end))
            .collect();
        let sites = find_lock_sites(ctx, f.body, f.end, &nested);
        locks.push(sites.iter().map(|l| l.id.clone()).collect());
        lock_sites.push(sites);
    }

    // Worklist fixpoint: when a callee's set grows, revisit its callers.
    let mut callers: Vec<Vec<usize>> = vec![Vec::new(); ws.fns.len()];
    for (caller, sites) in ws.calls.iter().enumerate() {
        for c in sites {
            callers[c.callee].push(caller);
        }
    }
    let mut work: Vec<usize> = (0..ws.fns.len()).collect();
    while let Some(id) = work.pop() {
        let add: Vec<String> = ws.calls[id]
            .iter()
            .flat_map(|c| &locks[c.callee])
            .filter(|l| !locks[id].contains(*l))
            .cloned()
            .collect();
        if add.is_empty() {
            continue;
        }
        locks[id].extend(add);
        for &caller in &callers[id] {
            if !work.contains(&caller) {
                work.push(caller);
            }
        }
    }

    Summaries { locks, lock_sites }
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
