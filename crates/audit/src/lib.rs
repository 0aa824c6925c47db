//! The ADLP auditor.
//!
//! Given the trusted logger's contents — log entries, the public-key
//! registry, and the topic→publisher topology — the auditor implements the
//! paper's analysis (§IV-B):
//!
//! * [`classify`] — the classification lattice of Figure 5: every observed
//!   entry lands in **valid** (L̂_V), **invalid** (L̂_I, with the reason),
//!   or **unproven**; hidden entries (L̂_H) are recovered from counterpart
//!   evidence;
//! * [`auditor`] — the per-link dispute-resolution engine realizing
//!   Lemmas 1–3 (unforgeability, completeness, correctness) and the
//!   component verdicts of Theorems 1–2: one pass, run by
//!   [`Auditor::audit`] and by an [`AuditSession`] over a growing log;
//! * [`causality`] — the temporal-causality checker of Lemma 4;
//! * [`collusion`] — collusion groups (Definition 1): maximal-group
//!   computation over known or suspected collusion edges;
//! * [`provenance`] — reconstruction of the proven data-flow graph and
//!   backward tracing from a faulty output to its upstream evidence;
//! * [`recovery`] — post-crash classification of a recovered log against a
//!   retained commitment: intact, truncated tail, or tamper evidence;
//! * [`cluster`] — auditing a sharded, replicated logger cluster: replica
//!   divergence, seals, then the entry audit of its quorum logs;
//! * [`forensic`] — canonical report bytes and the verdicts a dispute can
//!   contest.
//!
//! # Example
//!
//! ```no_run
//! use adlp_audit::Auditor;
//! use adlp_logger::LogServer;
//!
//! let server = LogServer::spawn();
//! // ... run the system, components deposit entries ...
//! let handle = server.handle();
//! let auditor = Auditor::new(handle.keys().clone())
//!     .with_topology([("image".into(), "camera".into())]);
//! let report = auditor.audit_store(handle.store());
//! for verdict in report.unfaithful_components() {
//!     println!("unfaithful: {verdict:?}");
//! }
//! ```

pub mod auditor;
pub mod causality;
pub mod cluster;
pub mod classify;
pub mod collusion;
pub mod forensic;
pub mod provenance;
pub mod recovery;

pub use auditor::{AuditReport, AuditSession, Auditor, ComponentVerdict, Violation, ViolationKind};
pub use causality::{CausalityChecker, CausalityViolation, FlowStep};
pub use cluster::{ClusterAuditReport, ClusterAuditor, SealCheck};
pub use classify::{Anomaly, EntryClass, HiddenRecord, InvalidReason, LinkAudit};
pub use collusion::CollusionGroups;
pub use forensic::{canonical_report_bytes, contestable_verdicts, ContestedVerdict};
pub use provenance::{FlowEdge, ImpactNode, ProvenanceGraph, ProvenanceNode};
pub use recovery::{
    verify_recovered_store, RecoveryCheck, RecoveryVerdict, RetainedCommitment,
};
