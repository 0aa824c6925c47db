//! Simulation of the paper's prototype platform.
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
//! * [`crash`] — deterministic crash-chaos runners that kill and restart
//!   durable loggers and cluster replicas mid-stream under storage faults,
//!   proving no acked entry is ever lost and auditor verdicts are unchanged
//!   across crashes;
//! * [`byzantine`] — scripted-traitor runners for the BFT cluster mode: a
//!   replica that equivocates, replays stale attestations, splits the
//!   epoch seal, or goes silent must end in continued liveness or a
//!   verified equivocation conviction — never silent acceptance;
//! * [`witness`] — the chaos runner for the witness federation
//!   (DESIGN.md §3.13), over in-process channels or real TCP sockets
//!   behind seeded chaos proxies: a split-view logger, a forging witness,
//!   a partitioned witness set and a witness killed mid-run must end in
//!   continued liveness or an auditor-re-verified split-view conviction
//!   naming the exact log, and a restarted witness must resume from
//!   durable state with its TOFU anchor and cosign high-water mark intact;
//! * [`dispute`] — dispute-chaos scenarios (DESIGN.md §3.14): contested
//!   audit verdicts litigated through the dispute ledger with recorded
//!   traffic as evidence, under forged evidence, bribed resolvers,
//!   evidence-withholding claimants, and crashes mid-escalation.

pub mod app;
pub mod byzantine;
pub mod crash;
pub mod data;
pub mod dispute;
pub mod metrics;
pub mod scenario;
pub mod witness;

pub use app::{fanout_app, self_driving_app, AppSpec, DriveSpec, NodeSpec, PubSpec};
pub use byzantine::{
    run_byzantine_chaos, ByzantineChaosConfig, ByzantineChaosOutcome, ByzantineMode,
};
pub use crash::{
    run_cluster_chaos, run_single_logger_chaos, ClusterChaosConfig, ClusterChaosOutcome,
    SingleChaosConfig, SingleChaosOutcome,
};
pub use data::PayloadKind;
pub use metrics::{CpuProbe, ThreadCpuProbe};
pub use scenario::{ClusterRun, Scenario, ScenarioReport};
pub use witness::{
    run_witness_chaos, RestartDrill, WitnessChaosConfig, WitnessChaosOutcome, WitnessLink,
    WitnessMode,
};
