//! The debug-build lock-order check (compiled only with
//! `debug_assertions`).
//!
//! A lock's *class* is the source location that created it. Each thread
//! keeps a stack of the classes it holds; a blocking acquisition records
//! the edge *held → acquired* for every held class in one process-wide
//! graph, and panics on the acquisition whose edge closes a cycle — two
//! code paths that take the same two classes in opposite orders can
//! deadlock under contention even if this run never did. Holding two
//! guards of one class is a cycle of length 1. `try_lock` never blocks,
//! so it adds no edge, but its guard still counts as held.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt::Write as _;
use std::panic::Location;
use std::sync::{Mutex, PoisonError};

/// A lock class: where the lock was created.
pub(crate) type Class = &'static Location<'static>;

/// Where a lock was acquired.
type Site = &'static Location<'static>;

/// The first observation of one edge: where the held lock was taken and
/// where the other was then taken under it.
#[derive(Clone, Copy)]
struct Edge {
    held_at: Site,
    acquired_at: Site,
}

/// held class → acquired class → first observation.
type Graph = BTreeMap<Class, BTreeMap<Class, Edge>>;

/// The process-wide graph, behind a plain std lock so the check never
/// observes itself.
static GRAPH: Mutex<Graph> = Mutex::new(BTreeMap::new());

thread_local! {
    /// The classes this thread holds, oldest first, with their
    /// acquisition sites.
    static HELD: RefCell<Vec<(Class, Site)>> = const { RefCell::new(Vec::new()) };
}

/// Marks one held guard of `class`; dropping it releases the entry.
pub(crate) struct Held {
    class: Class,
}

impl Drop for Held {
    fn drop(&mut self) {
        // `try_with`: a guard dropped during thread-local teardown has
        // nothing left to release.
        let _ = HELD.try_with(|held| {
            if let Ok(mut held) = held.try_borrow_mut() {
                if let Some(i) = held.iter().rposition(|&(c, _)| c == self.class) {
                    held.remove(i);
                }
            }
        });
    }
}

/// Notes that the caller takes a lock of `class`. A `blocking`
/// acquisition first records an edge from every held class and panics
/// if one closes a cycle; the returned [`Held`] lives in the guard.
#[track_caller]
#[allow(
    clippy::panic,
    reason = "a lock-order cycle is a latent deadlock: debug builds stop at the \
              acquisition that closes it, before it can block"
)]
pub(crate) fn acquire(class: Class, blocking: bool) -> Held {
    let site = Location::caller();
    if blocking {
        let cycle = HELD
            .try_with(|held| {
                let held = held.try_borrow().ok()?;
                if held.is_empty() {
                    return None;
                }
                let mut graph = GRAPH.lock().unwrap_or_else(PoisonError::into_inner);
                held.iter().find_map(|&(from, held_at)| {
                    let edge = Edge {
                        held_at,
                        acquired_at: site,
                    };
                    add_edge(&mut graph, from, class, edge)
                })
            })
            .ok()
            .flatten();
        // Panic only once the stack and the graph are released, so the
        // unwinding guards can still drop.
        if let Some(report) = cycle {
            panic!("{report}");
        }
    }
    let _ = HELD.try_with(|held| {
        if let Ok(mut held) = held.try_borrow_mut() {
            held.push((class, site));
        }
    });
    Held { class }
}

/// Adds `from → to` unless present; returns the cycle report instead if
/// the graph already has a path `to → … → from`.
fn add_edge(graph: &mut Graph, from: Class, to: Class, edge: Edge) -> Option<String> {
    if graph.get(from).is_some_and(|outs| outs.contains_key(to)) {
        return None;
    }
    if let Some(path) = path(graph, to, from) {
        return Some(report(graph, from, to, edge, &path));
    }
    graph.entry(from).or_default().insert(to, edge);
    None
}

/// Shortest path `from → … → to` (inclusive) through the graph.
fn path(graph: &Graph, from: Class, to: Class) -> Option<Vec<Class>> {
    let mut prev: BTreeMap<Class, Class> = BTreeMap::new();
    let mut seen = BTreeSet::from([from]);
    let mut queue = VecDeque::from([from]);
    while let Some(n) = queue.pop_front() {
        if n == to {
            let mut path = vec![n];
            let mut cur = n;
            while let Some(&p) = prev.get(cur) {
                path.push(p);
                cur = p;
            }
            path.reverse();
            return Some(path);
        }
        for &next in graph.get(n).into_iter().flat_map(BTreeMap::keys) {
            if seen.insert(next) {
                prev.insert(next, n);
                queue.push_back(next);
            }
        }
    }
    None
}

/// The panic message for the edge `from → to` closing `path` (`to → … →
/// from`; just `[to]` when both are one class).
fn report(graph: &Graph, from: Class, to: Class, edge: Edge, path: &[Class]) -> String {
    let mut out = format!(
        "lock-order cycle: the lock created at {to} is acquired at {} while the lock \
         created at {from} is held since {}",
        edge.acquired_at, edge.held_at
    );
    for pair in path.windows(2) {
        if let [a, b] = *pair {
            if let Some(e) = graph.get(a).and_then(|outs| outs.get(b)) {
                let _ = write!(
                    out,
                    "\n  seen before: lock created at {a} held since {}, lock created at {b} \
                     acquired at {}",
                    e.held_at, e.acquired_at
                );
            }
        }
    }
    out
}
