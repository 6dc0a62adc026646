//! server_bench — the sharded server scenario as a committed benchmark.
//!
//! Runs [`pbs_workloads::apps::run_server`] at a chosen scale, prints the
//! per-phase degradation report, and (under `--bench`) merges the full
//! [`ServerReport`]s into `BENCH_server.json` under a run label with the
//! same provenance metadata as the other BENCH files. The process exits
//! non-zero if any run violates a degradation gate, so the same binary is
//! the CI smoke check (`--smoke`) and the full-scale capture.
//!
//! Usage:
//!
//! ```text
//! server_bench [label] [--smoke] [--bench] [--out-dir DIR]
//!              [--connections N] [--shards N] [--seed N]
//!              [--allocator slub|prudence|both] [--reclaim epoch|hp|hyaline]
//!              [--baseline-ms N] [--storm-ms N] [--recovery-ms N]
//!              [--no-stall] [--garbage-bound N]
//! server_bench --validate [FILE]
//! ```
//!
//! `--validate` checks that an existing `BENCH_server.json` parses and
//! that every stored report round-trips through the [`ServerReport`]
//! schema — the CI guard against committing a stale or hand-mangled file.

use std::time::Duration;

use pbs_rcu::reclaim::ReclaimBackend;
use pbs_workloads::apps::{run_server, ServerParams, ServerReport};
use pbs_workloads::AllocatorKind;
use serde::{Deserialize as _, Serialize};
use serde_json::Value;

fn main() {
    let mut args = std::env::args().skip(1);
    let mut label = None;
    let mut out_dir = ".".to_string();
    let mut bench = false;
    let mut smoke = false;
    let mut validate: Option<Option<String>> = None;
    let mut allocators = AllocatorKind::BOTH.to_vec();
    let mut params = ServerParams {
        shards: 8,
        connections: 1_000_000,
        baseline_ms: 2_000,
        storm_ms: 3_000,
        recovery_ms: 4_000,
        establish_timeout: Duration::from_secs(600),
        ..ServerParams::default()
    };
    while let Some(arg) = args.next() {
        let mut next = |what: &str| args.next().unwrap_or_else(|| panic!("{what} needs a value"));
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--bench" => bench = true,
            "--validate" => validate = Some(args.next()),
            "--out-dir" => out_dir = next("--out-dir"),
            "--connections" => params.connections = next("--connections").parse().expect("count"),
            "--shards" => params.shards = next("--shards").parse().expect("count"),
            "--seed" => params.seed = next("--seed").parse().expect("seed"),
            "--baseline-ms" => params.baseline_ms = next("--baseline-ms").parse().expect("ms"),
            "--storm-ms" => params.storm_ms = next("--storm-ms").parse().expect("ms"),
            "--recovery-ms" => params.recovery_ms = next("--recovery-ms").parse().expect("ms"),
            "--garbage-bound" => {
                params.garbage_bound = next("--garbage-bound").parse().expect("count");
            }
            "--no-stall" => params.stalled_shard = false,
            "--allocator" => {
                allocators = match next("--allocator").as_str() {
                    "slub" => vec![AllocatorKind::Slub],
                    "prudence" => vec![AllocatorKind::Prudence],
                    "both" => AllocatorKind::BOTH.to_vec(),
                    other => panic!("unknown allocator {other:?}"),
                };
            }
            "--reclaim" => {
                params.reclaim =
                    Some(next("--reclaim").parse::<ReclaimBackend>().expect("backend"));
            }
            other if label.is_none() && !other.starts_with('-') => {
                label = Some(other.to_string());
            }
            other => panic!("unexpected argument {other:?}"),
        }
    }

    if let Some(path) = validate {
        let path = path.unwrap_or_else(|| format!("{out_dir}/BENCH_server.json"));
        validate_file(&path);
        return;
    }

    if smoke {
        // CI-sized: small population, sub-second phases, same gates.
        params = ServerParams {
            connections: params.connections.min(5_000),
            shards: params.shards.min(2),
            seed: params.seed,
            reclaim: params.reclaim,
            stalled_shard: params.stalled_shard,
            ..ServerParams::smoke()
        };
    }
    params = params.scaled_for_population();

    let meta = run_metadata();
    println!(
        "run metadata: rev={} nproc={} kernel={} engine={} reclaim={}",
        meta.git_rev, meta.nproc, meta.kernel, meta.fastpath_engine, meta.reclaim_backend
    );
    let mut reports = Vec::new();
    let mut failed = false;
    for kind in allocators {
        println!(
            "server scenario: {kind} × {} connections × {} shards (seed {}) ...",
            params.connections, params.shards, params.seed
        );
        let report = run_server(kind, &params);
        println!("  {}", report.render());
        for violation in &report.violations {
            println!("  VIOLATION: {violation}");
        }
        if !report.passed() {
            println!("  replay: {}", report.replay_command());
            failed = true;
        }
        reports.push(report);
    }

    if bench {
        let label = label.unwrap_or_else(|| "run".to_string());
        merge_run(
            &format!("{out_dir}/BENCH_server.json"),
            &label,
            serde_json::json!({
                "meta": meta,
                "reports": reports,
            }),
        );
    }
    if failed {
        std::process::exit(1);
    }
}

/// Checks that `path` parses and every stored report round-trips through
/// the [`ServerReport`] schema. Exits non-zero with a description on any
/// mismatch.
fn validate_file(path: &str) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|err| panic!("{path}: cannot read: {err}"));
    let root: Value = serde_json::from_str(&text)
        .unwrap_or_else(|err| panic!("{path}: not valid JSON: {err}"));
    let Value::Map(entries) = &root else {
        panic!("{path}: top level is not an object");
    };
    let Some((_, Value::Map(runs))) = entries.iter().find(|(key, _)| key == "runs") else {
        panic!("{path}: missing \"runs\" object");
    };
    assert!(!runs.is_empty(), "{path}: no runs recorded");
    let mut total_reports = 0usize;
    for (run_label, run) in runs {
        let Value::Map(run) = run else {
            panic!("{path}: run {run_label:?} is not an object");
        };
        for field in ["meta", "reports"] {
            assert!(
                run.iter().any(|(key, _)| key == field),
                "{path}: run {run_label:?} is missing {field:?}"
            );
        }
        let Some((_, Value::Seq(reports))) = run.iter().find(|(key, _)| key == "reports") else {
            panic!("{path}: run {run_label:?}: \"reports\" is not an array");
        };
        assert!(!reports.is_empty(), "{path}: run {run_label:?} has no reports");
        for report in reports {
            let parsed = ServerReport::from_content(report).unwrap_or_else(|err| {
                panic!("{path}: run {run_label:?}: report does not match schema: {err}")
            });
            assert!(
                parsed.passed(),
                "{path}: run {run_label:?}: committed report for {} has violations: {:?}",
                parsed.allocator,
                parsed.violations
            );
            assert!(
                parsed.alloc_latency.is_some(),
                "{path}: run {run_label:?}: report for {} has no alloc percentiles",
                parsed.allocator
            );
            total_reports += 1;
        }
    }
    println!("{path}: {} runs, {total_reports} reports, schema OK", runs.len());
}

/// Provenance recorded with every committed run (the same shape the other
/// BENCH files carry).
#[derive(Debug, Clone, Serialize)]
struct RunMeta {
    /// `git rev-parse --short HEAD`, or "unknown" outside a checkout.
    git_rev: String,
    /// Available hardware parallelism on the measuring machine.
    nproc: usize,
    /// Kernel release (`/proc/sys/kernel/osrelease`), or "unknown".
    kernel: String,
    /// Fast-path engine new caches select ("rseq" / "locks").
    fastpath_engine: String,
    /// Value of `PBS_FASTPATH` if the run was forced, else null.
    fastpath_override: Option<String>,
    /// Reclamation backend new testbeds select, after any override.
    reclaim_backend: String,
    /// Value of `PBS_RECLAIM` if the run was forced, else null.
    reclaim_override: Option<String>,
}

fn run_metadata() -> RunMeta {
    let git_rev = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|rev| rev.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    RunMeta {
        git_rev,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        kernel,
        fastpath_engine: pbs_alloc_api::fastpath_default_engine().label().to_string(),
        fastpath_override: std::env::var("PBS_FASTPATH").ok(),
        reclaim_backend: ReclaimBackend::from_env().label().to_string(),
        reclaim_override: std::env::var("PBS_RECLAIM").ok(),
    }
}

/// Inserts `data` under `runs.<label>` in the JSON file at `path`,
/// creating the file or replacing an existing run of the same label.
fn merge_run(path: &str, label: &str, data: Value) {
    let mut root = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| serde_json::from_str::<Value>(&text).ok())
        .unwrap_or_else(|| Value::Map(vec![("runs".to_string(), Value::Map(Vec::new()))]));
    let Value::Map(entries) = &mut root else {
        panic!("{path}: top level is not an object");
    };
    let runs = match entries.iter_mut().find(|(key, _)| key == "runs") {
        Some((_, runs)) => runs,
        None => {
            entries.push(("runs".to_string(), Value::Map(Vec::new())));
            &mut entries.last_mut().unwrap().1
        }
    };
    let Value::Map(runs) = runs else {
        panic!("{path}: \"runs\" is not an object");
    };
    match runs.iter_mut().find(|(key, _)| key == label) {
        Some((_, slot)) => *slot = data,
        None => runs.push((label.to_string(), data)),
    }
    let text = serde_json::to_string_pretty(&root).expect("serialize run file");
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("create output directory");
        }
    }
    std::fs::write(path, text + "\n").expect("write run file");
    println!("merged run {label:?} into {path}");
}
