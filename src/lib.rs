//! # ADLP — Accountable Data Logging Protocol
//!
//! A from-scratch Rust implementation of *"ADLP: Accountable Data Logging
//! Protocol for Publish-Subscribe Communication Systems"* (Yoon & Shao,
//! ICDCS 2019), including every substrate the paper builds on:
//!
//! | Layer | Crate | What it provides |
//! |---|---|---|
//! | Crypto | [`crypto`] | SHA-256, arbitrary-precision integers, RSA PKCS#1 v1.5 — all from the specifications |
//! | Middleware | [`pubsub`] | ROS-like topics, master, in-proc + TCP transports, transport interceptors |
//! | Trusted logger | [`logger`] | key registry, tamper-evident store under one Merkle commitment, push-only server |
//! | Protocol | [`core`] | signed publications, signed acks, ack gating, logging threads, unfaithful behaviors |
//! | Auditor | [`audit`] | entry classification, dispute resolution, causality, collusion, provenance |
//! | Simulation | [`sim`] | the paper's self-driving app graph, synthetic sensors, CPU/latency metrics |
//!
//! # Quickstart
//!
//! ```
//! use adlp::core::{AdlpNodeBuilder, Scheme};
//! use adlp::audit::Auditor;
//! use adlp::logger::LogServer;
//! use adlp::pubsub::Master;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let master = Master::new();
//! let server = LogServer::spawn();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//!
//! // Two components; ADLP is wired beneath the pub/sub API.
//! let cam = AdlpNodeBuilder::new("camera")
//!     .scheme(Scheme::adlp())
//!     .key_bits(512) // paper uses 1024; smaller here for doc-test speed
//!     .build(&master, &server.handle(), &mut rng)?;
//! let det = AdlpNodeBuilder::new("detector")
//!     .scheme(Scheme::adlp())
//!     .key_bits(512)
//!     .build(&master, &server.handle(), &mut rng)?;
//!
//! let publisher = cam.advertise("image")?;
//! let _sub = det.subscribe("image", |msg| {
//!     assert_eq!(msg.payload.len(), 64);
//! })?;
//! publisher.publish(&[0u8; 64])?;
//!
//! // Wait for the acknowledgement round, then audit.
//! while cam.pending_acks() > 0 {
//!     std::thread::sleep(std::time::Duration::from_millis(1));
//! }
//! cam.flush()?;
//! det.flush()?;
//!
//! let report = Auditor::new(server.handle().keys().clone())
//!     .with_topology(master.topology())
//!     .audit_store(server.handle().store());
//! assert!(report.all_clear());
//! # Ok(())
//! # }
//! ```

pub use adlp_audit as audit;
pub use adlp_core as core;
pub use adlp_crypto as crypto;
pub use adlp_logger as logger;
pub use adlp_pubsub as pubsub;
pub use adlp_sim as sim;
pub use adlp_witness as witness;
