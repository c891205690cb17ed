//! Seeded end-to-end benchmark of the coremax MaxSAT solver.
//!
//! The binary (`src/main.rs`) generates each workload's instances,
//! renames them under the seed, and solves them through the same public
//! path the `coremax-solve` CLI uses, checking every answer against
//! the known-answer table. `WORKLOADS.md` describes the workloads and
//! the metrics.

#![forbid(unsafe_code)]

pub mod known;
pub mod rename;
pub mod report;
pub mod trace;
pub mod workloads;
