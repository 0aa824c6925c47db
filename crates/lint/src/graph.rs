//! Symbol resolution and call-graph construction over lexed files.
//!
//! This stays at the lexer level — no `syn`, no type inference. Function
//! definitions are recovered from `fn name … { … }` token shapes, owners
//! from enclosing `impl Type` / `impl Trait for Type` headers, and call
//! sites from `name (` shapes with their qualifier (`self.`, `Type::`,
//! `.method`, or bare). Resolution is deliberately conservative:
//!
//! * `self.m(…)` inside `impl T` resolves to `T::m` when defined, else
//!   falls through to unique-name resolution;
//! * `Q::m(…)` resolves to `Q::m` when `Q` is a known impl owner;
//! * `.m(…)` and bare `m(…)` resolve only when the workspace defines
//!   exactly one function named `m` *and* `m` is not a common std method
//!   name (so `vec.push(…)` never aliases a workspace `push`);
//! * everything else (std, closures, trait objects) is *unresolved* and
//!   contributes no facts — absence of evidence is treated as absence of
//!   effect. DESIGN.md §3.7 spells out the resulting soundness caveats.

use crate::lexer::TokKind;
use crate::FileCtx;
use std::collections::HashMap;

/// One function definition discovered in the workspace.
pub struct FnDef {
    /// Index into [`Workspace::files`].
    pub file: usize,
    /// Bare function name.
    pub name: String,
    /// Enclosing `impl` owner type, if any.
    pub owner: Option<String>,
    /// Token span (inclusive start at the `fn` keyword, exclusive end one
    /// past the closing brace).
    pub start: usize,
    pub end: usize,
    /// Token index of the body's opening brace.
    pub body: usize,
}

impl FnDef {
    /// `Owner::name` when owned, else the bare name — used in witnesses.
    pub fn qname(&self) -> String {
        match &self.owner {
            Some(o) => format!("{o}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// A resolved call from one workspace function to another.
pub struct CallSite {
    /// Index into [`Workspace::fns`].
    pub callee: usize,
    /// Token index of the callee name at the call site (in the caller's
    /// file).
    pub tok: usize,
}

/// Method names so common on std types that unqualified-name resolution
/// must never bind them to a workspace function of the same name.
const STD_METHODS: &[&str] = &[
    "push",
    "pop",
    "insert",
    "remove",
    "get",
    "get_mut",
    "len",
    "is_empty",
    "clear",
    "contains",
    "contains_key",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "map",
    "and_then",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "ok",
    "err",
    "is_ok",
    "is_err",
    "is_some",
    "is_none",
    "take",
    "replace",
    "clone",
    "to_vec",
    "to_owned",
    "to_string",
    "as_ref",
    "as_mut",
    "as_slice",
    "as_bytes",
    "split",
    "join",
    "extend",
    "drain",
    "retain",
    "sort",
    "sort_by",
    "new",
    "default",
    "from",
    "into",
    "try_from",
    "try_into",
    "fmt",
    "eq",
    "cmp",
    "hash",
    "drop",
    "send",
    "recv",
    "lock",
    "read",
    "write",
    "flush",
    "append",
    "write_all",
    "read_exact",
    "clone_from",
    "with_capacity",
    "first",
    "last",
    "min",
    "max",
    "abs",
    "wrapping_add",
    "wrapping_sub",
    "checked_add",
    "checked_sub",
    "checked_mul",
    "saturating_add",
    "saturating_sub",
    "count",
    "sum",
    "collect",
    "filter",
    "find",
    "position",
    "any",
    "all",
    "zip",
    "rev",
    "chain",
    "enumerate",
    "copy_from_slice",
];

/// Keywords that can precede `(` without forming a call.
const NON_CALL_IDENTS: &[&str] = &[
    "fn", "if", "while", "for", "match", "return", "loop", "move", "in", "as", "let", "else",
    "impl", "where", "dyn",
];

/// The workspace-wide view the flow-aware rules run against: every file's
/// token context, every discovered function, and the resolved call graph.
pub struct Workspace {
    pub files: Vec<FileCtx>,
    pub fns: Vec<FnDef>,
    /// Per-function resolved call sites, token order preserved.
    pub calls: Vec<Vec<CallSite>>,
}

impl Workspace {
    /// Builds the call graph over already-lexed files.
    pub fn build(files: Vec<FileCtx>) -> Self {
        let mut fns = Vec::new();
        for (fi, ctx) in files.iter().enumerate() {
            collect_fns(fi, ctx, &mut fns);
        }

        // Resolution indexes: (owner, name) → id and name → ids.
        let mut by_owner: HashMap<(String, String), usize> = HashMap::new();
        let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
        for (id, f) in fns.iter().enumerate() {
            if let Some(o) = &f.owner {
                by_owner.entry((o.clone(), f.name.clone())).or_insert(id);
            }
            by_name.entry(f.name.as_str()).or_default().push(id);
        }

        let mut calls = Vec::with_capacity(fns.len());
        for f in &fns {
            calls.push(collect_calls(f, &files[f.file], &fns, &by_owner, &by_name));
        }
        Workspace { files, fns, calls }
    }
}

/// Discovers every function definition in one file, with impl owners
/// (impl regions are pre-computed and cached on the [`FileCtx`]).
fn collect_fns(fi: usize, ctx: &FileCtx, out: &mut Vec<FnDef>) {
    let impls = ctx.impl_regions();
    let toks = &ctx.toks;
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("fn") && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident) {
            let name = toks[i + 1].text.clone();
            let mut j = i + 2;
            while j < toks.len() && !toks[j].is_punct("{") && !toks[j].is_punct(";") {
                j += 1;
            }
            if j < toks.len() && toks[j].is_punct("{") {
                let end = crate::matching_close(toks, j, "{", "}");
                let owner = impls
                    .iter()
                    .rev()
                    .find(|&&(s, e, _)| i >= s && i < e)
                    .map(|(_, _, n)| n.clone());
                out.push(FnDef {
                    file: fi,
                    name,
                    owner,
                    start: i,
                    end,
                    body: j,
                });
            }
        }
        i += 1;
    }
}

/// Extracts and resolves the call sites inside one function body.
fn collect_calls(
    f: &FnDef,
    ctx: &FileCtx,
    fns: &[FnDef],
    by_owner: &HashMap<(String, String), usize>,
    by_name: &HashMap<&str, Vec<usize>>,
) -> Vec<CallSite> {
    let toks = &ctx.toks;
    let mut out = Vec::new();
    // Nested fn definitions own their own call sites; skip their spans.
    let nested: Vec<(usize, usize)> = fns
        .iter()
        .filter(|g| g.file == f.file && g.start > f.start && g.end <= f.end)
        .map(|g| (g.start, g.end))
        .collect();

    let mut i = f.body;
    while i + 1 < f.end.min(toks.len()) {
        i += 1;
        if nested.iter().any(|&(s, e)| i >= s && i < e) {
            continue;
        }
        let t = &toks[i];
        if t.kind != TokKind::Ident
            || NON_CALL_IDENTS.contains(&t.text.as_str())
            || !toks.get(i + 1).is_some_and(|n| n.is_punct("("))
            || ctx.in_attr(i)
        {
            continue;
        }
        let name = t.text.as_str();
        let prev = toks.get(i.wrapping_sub(1));
        // Skip definitions (`fn name(`) — already excluded by `fn` in
        // NON_CALL_IDENTS check on prev below — and macro-ish shapes.
        let resolved = if prev.is_some_and(|p| p.is_punct(".")) {
            let recv = toks.get(i.wrapping_sub(2));
            if recv.is_some_and(|r| r.is_ident("self"))
                && !toks.get(i.wrapping_sub(3)).is_some_and(|p| p.is_punct("."))
            {
                // self.m(…): prefer the enclosing impl's method.
                f.owner
                    .as_ref()
                    .and_then(|o| by_owner.get(&(o.clone(), name.to_owned())).copied())
                    .or_else(|| unique_by_name(name, by_name))
            } else {
                // x.m(…): unqualified method — unique names only.
                unique_by_name(name, by_name)
            }
        } else if prev.is_some_and(|p| p.is_punct("::")) {
            // Q::m(…): resolve through the qualifier's impl when known.
            let qual = toks.get(i.wrapping_sub(2));
            qual.and_then(|q| {
                if q.kind == TokKind::Ident {
                    by_owner.get(&(q.text.clone(), name.to_owned())).copied()
                } else {
                    None
                }
            })
            .or_else(|| unique_by_name(name, by_name))
        } else if prev.is_some_and(|p| p.is_ident("fn")) {
            None
        } else {
            // Bare call: a free function in the same file wins, else a
            // workspace-unique name.
            let local = fns
                .iter()
                .position(|g| g.file == f.file && g.owner.is_none() && g.name == name);
            local.or_else(|| unique_by_name(name, by_name))
        };
        if let Some(callee) = resolved {
            out.push(CallSite { callee, tok: i });
        }
    }
    out
}

/// Resolves `name` only when the workspace defines it exactly once and it
/// cannot be confused with a std method.
fn unique_by_name(name: &str, by_name: &HashMap<&str, Vec<usize>>) -> Option<usize> {
    if STD_METHODS.contains(&name) {
        return None;
    }
    match by_name.get(name).map(Vec::as_slice) {
        Some([only]) => Some(*only),
        _ => None,
    }
}
