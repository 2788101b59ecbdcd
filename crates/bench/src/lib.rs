//! Benchmark harness for the Maxoid evaluation (paper §7.2).
//!
//! Provides the workload builders and the one measurement harness
//! ([`report`]) that the bench bins share. Every microbenchmark runs in
//! three setups:
//!
//! - **android** — the unmodified-Android baseline: a plain bind
//!   namespace (no union mounts, no tmp windows) and, for providers, raw
//!   SQL against primary tables with no proxy machinery.
//! - **initiator** — Maxoid with the app running normally. The paper's
//!   claim: negligible overhead (single-branch mounts, primary tables).
//! - **delegate** — Maxoid with the app confined (`B^A`): union mounts
//!   with copy-up, COW views with delta tables.
//!
//! Absolute times are not comparable to the paper's Nexus 7 numbers; the
//! *shape* (who pays, roughly how much, and where the worst case is) is.

#![warn(missing_docs)]

pub mod fsbench;
pub mod provider_bench;
pub mod report;

pub use fsbench::{FsMode, FsWorkload};
pub use provider_bench::{cow_point_query, cow_table, DictMode, DictWorkload};
pub use report::{cores, measure, measure_interleaved, BenchJson, Case, Measurement, Unit};
