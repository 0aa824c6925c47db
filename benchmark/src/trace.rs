//! Spans recorded from outside the program, at its public trait seams.
//!
//! Only a traced run (`--trace 1`) installs the `Timed*` wrappers; the
//! end-to-end metrics are measured without them. Spans stay in memory and
//! are written to `out/trace-<workload>.jsonl` when the run ends.

use adlp_cluster::{HeadAttestation, ReplicaSink};
use adlp_crypto::Digest;
use adlp_logger::merkle::{ConsistencyProof, InclusionProof};
use adlp_logger::{LogEntry, LogError, SignedTreeHead, Storage};
use adlp_pubsub::{NodeId, Transition};
use adlp_witness::TreeHeadSource;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// One span: a call into a layer, with the span that caused it.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The enclosing span on the same thread ("" at the top).
    pub parent: &'static str,
    /// The driver op this span belongs to; `None` on the program's own
    /// threads, which the outside cannot tie to one op.
    pub op: Option<u64>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Duration minus the part covered by child spans.
    pub self_ns: u64,
}

static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static OP: Cell<Option<u64>> = const { Cell::new(None) };
    /// Open spans of this thread: (name, nanoseconds covered by children).
    static STACK: RefCell<Vec<(&'static str, u64)>> = const { RefCell::new(Vec::new()) };
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Tags the spans this thread records from now on with a driver op id.
pub fn set_op(op: Option<u64>) {
    OP.with(|c| c.set(op));
}

/// Runs `f` inside a span named `name`.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().map_or("", |(n, _)| *n);
        s.push((name, 0));
        parent
    });
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    let children_ns = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let (_, children_ns) = s.pop().unwrap_or((name, 0));
        if let Some(top) = s.last_mut() {
            top.1 += end_ns - start_ns;
        }
        children_ns
    });
    let span = Span {
        name,
        parent,
        op: OP.with(Cell::get),
        start_ns,
        end_ns,
        self_ns: (end_ns - start_ns).saturating_sub(children_ns),
    };
    SPANS.lock().unwrap_or_else(|e| e.into_inner()).push(span);
    out
}

/// Takes every span recorded so far.
pub fn drain() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().unwrap_or_else(|e| e.into_inner()))
}

/// Count and median duration (µs) per span name.
pub type SpanStats = BTreeMap<&'static str, (usize, f64)>;

/// Median duration (µs) of the spans named `name`; 0 when none were recorded.
pub fn span_us(stats: &SpanStats, name: &str) -> f64 {
    stats.get(name).map_or(0.0, |(_, us)| *us)
}

pub fn durations(spans: &[Span]) -> SpanStats {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in spans {
        by_name
            .entry(s.name)
            .or_default()
            .push((s.end_ns - s.start_ns) as f64 / 1e3);
    }
    by_name
        .into_iter()
        .map(|(name, v)| (name, (v.len(), crate::measure::median(&v))))
        .collect()
}

pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let op = s.op.map_or_else(|| "null".to_owned(), |o| o.to_string());
        writeln!(
            w,
            r#"{{"name":"{}","parent":"{}","op":{op},"start_ns":{},"end_ns":{},"self_ns":{}}}"#,
            s.name, s.parent, s.start_ns, s.end_ns, s.self_ns
        )?;
    }
    w.flush()
}

/// Counts taken at the storage seam, next to its spans.
#[derive(Debug, Default)]
pub struct StorageCounts {
    pub appends: AtomicU64,
    pub syncs: AtomicU64,
    pub bytes: AtomicU64,
    /// `write_replace` calls on the log snapshot (rotation, compaction).
    pub snapshots: AtomicU64,
}

/// A [`Storage`] that records a span per device call.
#[derive(Debug)]
pub struct TimedStorage {
    inner: Arc<dyn Storage>,
    counts: Arc<StorageCounts>,
}

impl TimedStorage {
    pub fn wrap(inner: Arc<dyn Storage>, counts: Arc<StorageCounts>) -> Arc<dyn Storage> {
        Arc::new(TimedStorage { inner, counts })
    }
}

impl Storage for TimedStorage {
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, LogError> {
        self.inner.read(name)
    }

    fn append(&self, name: &str, bytes: &[u8]) -> Result<(), LogError> {
        self.counts.appends.fetch_add(1, Ordering::Relaxed);
        self.counts
            .bytes
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        span("logger.storage_append", || self.inner.append(name, bytes))
    }

    fn sync(&self, name: &str) -> Result<(), LogError> {
        self.counts.syncs.fetch_add(1, Ordering::Relaxed);
        span("logger.storage_sync", || self.inner.sync(name))
    }

    fn truncate(&self, name: &str, len: u64) -> Result<(), LogError> {
        self.inner.truncate(name, len)
    }

    fn write_replace(&self, name: &str, bytes: &[u8]) -> Result<(), LogError> {
        if name == adlp_logger::durable::SNAPSHOT_FILE {
            self.counts.snapshots.fetch_add(1, Ordering::Relaxed);
        }
        self.counts
            .bytes
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        span("logger.storage_write_replace", || {
            self.inner.write_replace(name, bytes)
        })
    }

    fn remove(&self, name: &str) -> Result<(), LogError> {
        self.inner.remove(name)
    }

    fn size_of(&self, name: &str) -> Result<Option<u64>, LogError> {
        self.inner.size_of(name)
    }
}

/// A replica lane that records a span per deposit.
#[derive(Debug)]
pub struct TimedSink(pub Box<dyn ReplicaSink>);

impl ReplicaSink for TimedSink {
    fn deposit(&self, entry: &LogEntry) -> bool {
        span("cluster.replica_deposit", || self.0.deposit(entry))
    }

    fn deposit_durable(&self, entry: &LogEntry) -> bool {
        span("cluster.replica_deposit", || self.0.deposit_durable(entry))
    }

    fn flush_replica(&self) -> bool {
        self.0.flush_replica()
    }

    fn note_breaker(&self, transition: Transition) {
        self.0.note_breaker(transition);
    }

    fn deposit_attested(&self, entry: &LogEntry, durable: bool) -> Option<HeadAttestation> {
        span("cluster.replica_deposit", || {
            self.0.deposit_attested(entry, durable)
        })
    }
}

/// A tree-head source that records a span per proof request.
pub struct TimedHeads<S: TreeHeadSource>(pub Arc<S>);

impl<S: TreeHeadSource> TreeHeadSource for TimedHeads<S> {
    fn log_id(&self) -> NodeId {
        self.0.log_id()
    }

    fn latest(&self) -> Option<SignedTreeHead> {
        span("witness.latest_head", || self.0.latest())
    }

    fn consistency(&self, old_size: u64, new_size: u64) -> Option<ConsistencyProof> {
        span("witness.consistency_proof", || {
            self.0.consistency(old_size, new_size)
        })
    }

    fn inclusion(&self, index: u64, size: u64) -> Option<(Digest, InclusionProof)> {
        span("witness.inclusion_proof", || self.0.inclusion(index, size))
    }
}
