//! Closed-loop benchmark of the Prudence allocator stack.
//!
//! Four workloads (`alloc-churn`, `kv-update`, `kv-update-hp`,
//! `postmark`) run two client threads against a pinned testbed, check
//! the program's outputs against models, and report end-to-end metrics
//! from an untraced phase or per-layer metrics from a traced one. See
//! `README.md` in this directory for the metrics and what each should
//! move.

pub mod churn;
pub mod driver;
pub mod hist;
pub mod kv;
pub mod postmark;
pub mod report;
pub mod rng;
pub mod trace;

pub use report::{run, Metric, Report, WorkloadName};

/// Makes any panic end the process with status 1. A failed check panics
/// on a client thread while the others may wait on a barrier it will
/// never reach, so the run must end rather than unwind.
pub fn exit_on_panic() {
    std::panic::set_hook(Box::new(|info| {
        eprintln!("perfbench: run failed: {info}");
        std::process::exit(1);
    }));
}
