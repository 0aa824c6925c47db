//! The paper-reproduction harness: every table and figure of the ADLP
//! paper's evaluation (§VI), the §IV verdict matrix, and the scenario
//! tables (overload, witness gossip, dispute resolution) that the
//! closed-loop `benchmark/` package has no workload for.
//!
//! One registry ([`experiments::EXPERIMENTS`]), one row schema and printer
//! ([`table::Table`]), two fixed sizes ([`experiments::Scale`]), one binary
//! (`adlp-bench [name …]`). Absolute numbers differ from the paper
//! (compiled Rust on a modern host vs Python on a 2017 NUC); the *shapes* —
//! who wins, scaling in payload size and subscriber count — are the
//! reproduction targets recorded in `EXPERIMENTS.md`. Throughput and
//! per-layer cost of the deposit path are measured by `benchmark/`, not
//! here.

pub mod experiments;
pub mod stats;
pub mod table;
