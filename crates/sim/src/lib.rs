//! Simulation of the paper's prototype platform, and the chaos harness.
//!
//! The paper evaluates ADLP on a 1/10-scale self-driving car (Intel NUC,
//! camera + LIDAR, ROS Kinetic). This crate substitutes that hardware with
//! a faithful software model:
//!
//! * [`data`] — synthetic sensor payloads with the paper's exact serialized
//!   sizes (Steering 20 B, Scan 8 705 B, Image 921 641 B) and rates
//!   (camera at 20 Hz);
//! * [`app`] — the autonomous-navigation component graph of Figure 11(b):
//!   sensor feeders, perception nodes, planner, controller, actuator;
//! * [`scenario`] — a harness that builds the graph under any scheme /
//!   behavior assignment, runs it for a wall-clock window, and hands back
//!   logs, statistics and an audit;
//! * [`metrics`] — CPU accounting from `/proc/self/task` (per-node thread
//!   attribution) and `/proc/self/stat` (process-wide), standing in for the
//!   paper's per-process `top` measurements;
//! * [`chaos`] — the one chaos harness: a [`ChaosPlan`] of faults (crashes,
//!   power cuts, device faults, traitor replicas, forked logs, witness
//!   partitions and restarts, litigation) against one assembled system —
//!   cluster, witness federation, light client, auditor, court — judged by
//!   one outcome oracle stating Lemmas 1–4 / Theorems 1–2 once;
//! * [`dispute`] — the dispute court, the chaos rig's top layer.

// Seeded replay: time and randomness come from the scenario seed and the
// Clock abstraction; clippy.toml lists the ambient sources.
#![deny(clippy::disallowed_methods)]

pub mod app;
pub mod chaos;
pub mod data;
pub mod dispute;
pub mod metrics;
pub mod scenario;

pub use app::{fanout_app, self_driving_app, AppSpec, DriveSpec, NodeSpec, PubSpec};
pub use chaos::{run_chaos, ChaosFailure, ChaosLink, ChaosOutcome, ChaosPlan, Expect, Fault};
pub use data::PayloadKind;
pub use metrics::{CpuProbe, ThreadCpuProbe};
pub use scenario::{ClusterRun, Scenario, ScenarioReport};
