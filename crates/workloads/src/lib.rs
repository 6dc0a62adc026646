//! # pbs-workloads — benchmark drivers regenerating the paper's evaluation
//!
//! One module per experiment in *Prudent Memory Reclamation in
//! Procrastination-Based Synchronization* (ASPLOS '16):
//!
//! | module | paper result |
//! |---|---|
//! | [`alloc_cost`] | §3.3 — refill ≈ 4× and grow ≈ 14× the cost of a cache hit |
//! | [`endurance`] | Figure 3 — SLUB+RCU memory growth → OOM vs Prudence equilibrium |
//! | [`microbench`] | Figure 6 — kmalloc/kfree_deferred pairs per second by object size; the one alloc/free pair loop |
//! | [`apps`] | Figures 7–13 — Postmark / Netperf / Apache / PostgreSQL emulations |
//! | [`tree_churn`] | extension: §3.1 multi-deferral amplification on an RCU tree |
//! | [`chaos`] | extension: fault-injected churn asserting OOM/stall robustness invariants |
//!
//! Every driver runs unchanged over both allocators via [`Testbed`], so a
//! comparison is always like-for-like: same page allocator limits, same
//! RCU domain parameters, same sizing heuristics. The `bench` binary in
//! `pbs-bench` runs them, repeats them and records the results.

pub mod alloc_cost;
pub mod apps;
pub mod chaos;
pub mod doctor;
pub mod endurance;
pub mod microbench;
mod report;
pub mod telemetry_export;
mod testbed;
pub mod tree_churn;

pub use report::{AppComparison, AppResult, CacheComparison};
pub use testbed::{AllocatorKind, Testbed};
