//! bench — the one benchmark driver.
//!
//! ```text
//! bench sweep [LABEL]     Figure 6 deferred-pair and hit-path sweep over
//!                         1, 2, 4, … ≤ nproc threads     -> BENCH_fig6.json
//! bench cost [LABEL]      §3.3 hit / refill / grow table -> BENCH_alloc_cost.json
//! bench ablation          §4.2 ablations: each Prudence optimization off
//! bench figures [LABEL] [--quick] [--telemetry PREFIX]
//!                         Figures 3, 6, 7–13, the §3.1 tree churn and the
//!                         ablations                      -> results/figures.{json,txt}
//! bench all [LABEL]       sweep + cost + figures
//! bench server [LABEL] [--smoke] [--seed N] [--shards N] [--connections N]
//!              [--allocator slub|prudence|both] [--reclaim epoch|hp|hyaline]
//!                         the sharded server scenario    -> BENCH_server.json
//! bench idle              idle guard: armed degradation machinery ≤ 1 %
//! bench trace             trace guard: tracing on ≤ 3 % on the hit path
//! bench validate FILE…    schema check of result files
//! ```
//!
//! With a LABEL, a subcommand stores its run as `runs.<LABEL>` in the
//! file named above (relative to the working directory); without one it
//! only prints. Every timed number is a [`Summary`] over [`REPS`]
//! interleaved repeats: slub/prudence (or off/on) pairs run back to back
//! in alternating order. `--quick` cuts every run to a tenth for a smoke
//! pass; `--telemetry` writes the Figure 6 runs' merged telemetry to
//! `PREFIX.prom` and `PREFIX.trace.json`. `server`, `idle`, `trace` and
//! `validate` exit 1 when a gate fails.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pbs_alloc_api::{CacheStatsSnapshot, TelemetrySnapshot};
use pbs_bench::{paired, write_run, Compared, RunMeta, Summary, REPS};
use pbs_rcu::reclaim::ReclaimBackend;
use pbs_rcu::RcuConfig;
use pbs_workloads::alloc_cost::measure_alloc_cost;
use pbs_workloads::apps::{self, AppParams, ServerParams, ServerReport};
use pbs_workloads::doctor::{http_get, DoctorServer};
use pbs_workloads::endurance::{run_endurance, EnduranceParams, EnduranceReport};
use pbs_workloads::microbench::{num_threads, pair_loop, run_microbench, MicrobenchParams};
use pbs_workloads::telemetry_export::{accumulate_labeled, write_telemetry};
use pbs_workloads::tree_churn::{run_tree_churn, TreeChurnParams};
use pbs_workloads::{AllocatorKind, AppComparison, AppResult, CacheComparison, Testbed};
use prudence::PrudenceConfig;
use serde::Serialize;

const USAGE: &str = "usage: bench sweep|cost|figures|all [LABEL] | bench figures [LABEL] \
[--quick] [--telemetry PREFIX] | bench server [LABEL] [--smoke] [--seed N] [--shards N] \
[--connections N] [--allocator slub|prudence|both] [--reclaim epoch|hp|hyaline] | \
bench ablation|idle|trace | bench validate FILE...";

/// The idle guard's budget: the armed degradation machinery may cost the
/// hit path at most this much.
const IDLE_BUDGET_PCT: f64 = 1.0;
/// The trace guard's budget: tracing on may cost the hit path at most
/// this much.
const TRACE_BUDGET_PCT: f64 = 3.0;
/// Back-to-back pairs behind each guard's verdict: more than [`REPS`],
/// because a guard gates on a median delta of a few percent between
/// 4-thread runs, which a single preempted pair can swing.
const GUARD_PAIRS: usize = 12;
/// One pair-loop measurement (sweep, Figure 6, ablations).
const WINDOW: Duration = Duration::from_millis(500);
/// One Figure 3 endurance run.
const ENDURANCE: Duration = Duration::from_secs(5);

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = args.split_first().unwrap_or_else(|| usage("no subcommand"));
    let (valued, switches): (&[&str], &[&str]) = match cmd.as_str() {
        "figures" => (&["--telemetry"], &["--quick"]),
        "server" => (
            &[
                "--seed",
                "--shards",
                "--connections",
                "--allocator",
                "--reclaim",
            ],
            &["--smoke"],
        ),
        _ => (&[], &[]),
    };
    let args = Args::parse(rest, valued, switches);
    match cmd.as_str() {
        "sweep" => sweep(args.label()),
        "cost" => cost(args.label()),
        "ablation" => {
            args.none();
            print!("{}", ablation(WINDOW).1);
        }
        "figures" => {
            let telemetry = args.value::<PathBuf>("--telemetry");
            figures(args.label(), args.has("--quick"), telemetry.as_deref());
        }
        "all" => {
            sweep(args.label());
            cost(args.label());
            figures(args.label(), false, None);
        }
        "server" => server(&args),
        "idle" => {
            args.none();
            idle_guard();
        }
        "trace" => {
            args.none();
            trace_guard();
        }
        "validate" => validate(&args.positional),
        other => usage(&format!("unknown subcommand {other:?}")),
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("bench: {msg}\n{USAGE}");
    std::process::exit(2);
}

/// A subcommand's arguments: positionals plus `--flag [value]` options.
struct Args {
    positional: Vec<String>,
    options: Vec<(String, String)>,
}

impl Args {
    /// Splits `args`; `valued` flags take a value, `switches` do not, and
    /// anything else starting with `-` is an error.
    fn parse(args: &[String], valued: &[&str], switches: &[&str]) -> Self {
        let mut out = Self {
            positional: Vec::new(),
            options: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if valued.contains(&arg.as_str()) {
                let value = it
                    .next()
                    .unwrap_or_else(|| usage(&format!("{arg} needs a value")));
                out.options.push((arg.clone(), value.clone()));
            } else if switches.contains(&arg.as_str()) {
                out.options.push((arg.clone(), String::new()));
            } else if arg.starts_with('-') {
                usage(&format!("unknown option {arg:?}"));
            } else {
                out.positional.push(arg.clone());
            }
        }
        out
    }

    fn has(&self, flag: &str) -> bool {
        self.options.iter().any(|(f, _)| f == flag)
    }

    fn value<T: FromStr>(&self, flag: &str) -> Option<T> {
        let (_, value) = self.options.iter().rev().find(|(f, _)| f == flag)?;
        let parsed = value.parse();
        Some(parsed.unwrap_or_else(|_| usage(&format!("bad value {value:?} for {flag}"))))
    }

    /// The optional run label: at most one positional.
    fn label(&self) -> Option<&str> {
        if self.positional.len() > 1 {
            usage(&format!(
                "expected at most one LABEL, got {:?}",
                self.positional
            ));
        }
        self.positional.first().map(String::as_str)
    }

    fn none(&self) {
        if !self.positional.is_empty() {
            usage(&format!("unexpected arguments {:?}", self.positional));
        }
    }
}

/// Stores `run` under `label` in `path` when a label was given.
fn store(label: Option<&str>, path: &str, run: &impl Serialize) {
    if let Some(label) = label {
        write_run(Path::new(path), label, run).unwrap_or_else(|e| panic!("{e}"));
        println!("stored run {label:?} in {path}");
    }
}

/// The allocator of a slub (`false`) / prudence (`true`) pair's arm.
fn kind(prudence: bool) -> AllocatorKind {
    AllocatorKind::BOTH[usize::from(prudence)]
}

fn last<T>(runs: &[T]) -> &T {
    runs.last().expect("REPS > 0")
}

/// A Prudence testbed with no memory limit and the given RCU and
/// Prudence configurations.
fn prudence_bed(threads: usize, rcu: RcuConfig, config: PrudenceConfig) -> Testbed {
    let kind = AllocatorKind::Prudence;
    Testbed::new_tuned(kind, threads, rcu, None, None, None, Some(config), None)
}

/// One sweep cell; base is slub, treated is prudence.
#[derive(Serialize)]
struct SweepRow {
    regime: &'static str,
    object_size: usize,
    threads: usize,
    pairs_per_sec: Compared,
    best_batch_ns: Compared,
}

#[derive(Serialize)]
struct SweepRun {
    meta: RunMeta,
    rows: Vec<SweepRow>,
}

/// The Figure 6 deferred-pair loop (128 B, 1 KiB) and the hit-path loop
/// (512 B) over the powers of two up to `nproc` threads: claims of
/// scaling stop where the hardware does.
fn sweep(label: Option<&str>) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let thread_counts: Vec<usize> = (0..).map(|i| 1 << i).take_while(|&t| t <= nproc).collect();
    let meta = RunMeta::capture(thread_counts.clone());
    println!("sweep {meta}\nslub → prudence, median [q1–q3] of {REPS} pairs");
    let mut rows = Vec::new();
    for (regime, deferred, object_size) in [
        ("deferred", true, 128),
        ("deferred", true, 1024),
        ("hit", false, 512),
    ] {
        for &threads in &thread_counts {
            let params = MicrobenchParams {
                threads,
                window: WINDOW,
                memory_limit: None,
                deferred,
            };
            let pairs = paired(REPS, |p| run_microbench(kind(p), object_size, &params).run);
            let row = SweepRow {
                regime,
                object_size,
                threads,
                pairs_per_sec: pairs.compare(|r| r.pairs_per_sec),
                best_batch_ns: pairs.compare(|r| r.best_batch_ns),
            };
            println!(
                "  {regime:<8} {object_size:>4} B {threads:>2}T  pairs/s {:.0}  \
                 best batch ns/pair {:.1}",
                row.pairs_per_sec, row.best_batch_ns
            );
            rows.push(row);
        }
    }
    store(label, "BENCH_fig6.json", &SweepRun { meta, rows });
}

#[derive(Serialize)]
struct CostRun {
    meta: RunMeta,
    object_size: usize,
    hit_ns: Summary,
    refill_ns: Summary,
    grow_ns: Summary,
    refill_multiple: Summary,
    grow_multiple: Summary,
}

/// The §3.3 table: each repeat times the hit, refill and grow regimes in
/// turn.
fn cost(label: Option<&str>) {
    let meta = RunMeta::capture(vec![1]);
    let reports: Vec<_> = (0..REPS)
        .map(|_| measure_alloc_cost(512, 100_000))
        .collect();
    let run = CostRun {
        meta,
        object_size: 512,
        hit_ns: Summary::over(&reports, |r| r.hit_ns),
        refill_ns: Summary::over(&reports, |r| r.refill_ns),
        grow_ns: Summary::over(&reports, |r| r.grow_ns),
        refill_multiple: Summary::over(&reports, |r| r.refill_multiple()),
        grow_multiple: Summary::over(&reports, |r| r.grow_multiple()),
    };
    println!(
        "§3.3 allocation cost {}\n512 B, median [q1–q3] of {REPS} runs: hit {:.0} ns | \
         with refill {:.0} ns ({:.1}x) | with grow {:.0} ns ({:.1}x)",
        run.meta, run.hit_ns, run.refill_ns, run.refill_multiple, run.grow_ns, run.grow_multiple
    );
    store(label, "BENCH_alloc_cost.json", &run);
}

/// One ablation; base is the full design, treated the variant.
#[derive(Serialize)]
struct AblationRow {
    variant: &'static str,
    pairs_per_sec: Compared,
    best_batch_ns: Compared,
    /// The variant's allocator counters in its last run.
    stats: CacheStatsSnapshot,
}

/// Each §4.2 optimization disabled in turn against the full design, on
/// the 512 B deferred-pair loop.
fn ablation(window: Duration) -> (Vec<AblationRow>, String) {
    let threads = num_threads();
    let full = PrudenceConfig::new(threads);
    let variants = [
        ("no_latent_cache", full.clone().with_latent_cache(false)),
        ("no_partial_refill", full.clone().with_partial_refill(false)),
        ("no_preflush", full.clone().with_preflush(false)),
        (
            "no_proportional_flush",
            full.clone().with_proportional_flush(false),
        ),
        (
            "no_deferred_selection",
            full.clone().with_deferred_aware_selection(false),
        ),
        ("scan_window_1", full.clone().with_slab_scan_window(1)),
        ("scan_window_100", full.clone().with_slab_scan_window(100)),
    ];
    let mut text = format!(
        "Ablations (§4.2) — 512 B deferred pairs, {threads} threads; full design → variant; \
         the variant's grows/shrinks/peak slabs\n"
    );
    let mut rows = Vec::new();
    for (variant, config) in variants {
        let pairs = paired(REPS, |on| {
            let config = if on { config.clone() } else { full.clone() };
            let bed = prudence_bed(threads, RcuConfig::linux_like(), config);
            let cache = bed.create_cache("ablation", 512);
            let run = pair_loop(&cache, threads, true, || std::thread::sleep(window));
            let stats = cache.stats();
            cache.quiesce();
            (run, stats)
        });
        let row = AblationRow {
            variant,
            pairs_per_sec: pairs.compare(|(r, _)| r.pairs_per_sec),
            best_batch_ns: pairs.compare(|(r, _)| r.best_batch_ns),
            stats: last(&pairs.treated).1,
        };
        let s = &row.stats;
        let _ = writeln!(
            text,
            "{variant:<22} pairs/s {:.0}  {}/{}/{}",
            row.pairs_per_sec, s.grows, s.shrinks, s.slabs_peak
        );
        rows.push(row);
    }
    (rows, text)
}

/// One Figure 6 size; base is slub, treated is prudence.
#[derive(Serialize)]
struct Fig6Row {
    object_size: usize,
    pairs_per_sec: Compared,
    best_batch_ns: Compared,
    /// Allocator counters of the last pair.
    slub: CacheStatsSnapshot,
    prudence: CacheStatsSnapshot,
}

/// Figure 3's out-of-memory outcome for one allocator.
#[derive(Serialize)]
struct Ooms {
    /// Runs that hit out-of-memory.
    runs: usize,
    /// When they did, if every run did.
    at_ms: Option<Summary>,
}

impl Ooms {
    fn of(reports: &[EnduranceReport]) -> Self {
        let at: Vec<f64> = reports
            .iter()
            .filter_map(|r| r.oom_at_ms)
            .map(|ms| ms as f64)
            .collect();
        Self {
            runs: at.len(),
            at_ms: (at.len() == reports.len()).then(|| Summary::of(at)),
        }
    }
}

/// Figure 3; base is slub, treated is prudence.
#[derive(Serialize)]
struct Fig3 {
    updates: Compared,
    peak_used_kib: Compared,
    slub_oom: Ooms,
    prudence_oom: Ooms,
}

/// One application benchmark; base is slub, treated is prudence.
#[derive(Serialize)]
struct AppRow {
    name: &'static str,
    threads: usize,
    ops_per_sec: Compared,
    /// Figure 12, from the last slub run.
    deferred_free_pct: f64,
    /// Figures 7–11, from the last pair.
    caches: Vec<CacheComparison>,
}

/// The §3.1 tree churn; base is slub, treated is prudence.
#[derive(Serialize)]
struct TreeRow {
    ops_per_sec: Compared,
    deferred_per_op: f64,
    slub: CacheStatsSnapshot,
    prudence: CacheStatsSnapshot,
}

#[derive(Serialize)]
struct FiguresRun {
    meta: RunMeta,
    figure6: Vec<Fig6Row>,
    figure3: Fig3,
    figures7_to_13: Vec<AppRow>,
    tree_churn: TreeRow,
    ablation: Vec<AblationRow>,
}

/// Every table and figure of the paper's evaluation except §3.3, plus the
/// tree-churn extension and the ablations; `quick` runs each for a tenth
/// as long.
fn figures(label: Option<&str>, quick: bool, telemetry: Option<&Path>) {
    let tenths: u32 = if quick { 1 } else { 10 };
    let meta = RunMeta::capture(vec![num_threads()]);
    let mut text = format!(
        "== Prudence reproduction: paper evaluation ==\n{meta}\nEvery timed number: median \
         [q1–q3] of {REPS} back-to-back slub/prudence pairs in alternating order, shown as \
         slub → prudence (Δ: the median per-pair change). Counters are from the last pair.\n\n"
    );
    print!("{text}");
    let mut emit = |section: String| {
        println!("{section}");
        text.push_str(&section);
        text.push('\n');
    };
    let (figure6, section) = figure6(WINDOW * tenths / 10, telemetry);
    emit(section);
    let (figure3, section) = figure3(ENDURANCE * tenths / 10);
    emit(section);
    let (figures7_to_13, section) = figures7_to_13(2_000 * u64::from(tenths));
    emit(section);
    let (tree_churn, section) = tree_churn(5_000 * u64::from(tenths));
    emit(section);
    let (ablation, section) = ablation(WINDOW * tenths / 10);
    emit(section);
    let run = FiguresRun {
        meta,
        figure6,
        figure3,
        figures7_to_13,
        tree_churn,
        ablation,
    };
    store(label, "results/figures.json", &run);
    if label.is_some() {
        std::fs::write("results/figures.txt", text).expect("write results/figures.txt");
        println!("wrote results/figures.txt");
    }
}

/// Figure 6 over the paper's object sizes, with a memory budget bounding
/// the baseline's deferred backlog; with `telemetry`, the last pair's
/// telemetry of every size is written to that prefix.
fn figure6(window: Duration, telemetry: Option<&Path>) -> (Vec<Fig6Row>, String) {
    let params = MicrobenchParams {
        threads: num_threads(),
        window,
        memory_limit: Some(256 << 20),
        deferred: true,
    };
    let mut text = format!(
        "Figure 6 — kmalloc/kfree_deferred pairs per second, {} threads; \
         grows, peak slabs and hit % slub/prudence\n",
        params.threads
    );
    let mut merged = TelemetrySnapshot::default();
    let mut rows = Vec::new();
    for object_size in [128, 256, 512, 1024, 2048, 4096] {
        let pairs = paired(REPS, |p| run_microbench(kind(p), object_size, &params));
        let (s, p) = (&last(&pairs.base).stats, &last(&pairs.treated).stats);
        if telemetry.is_some() {
            accumulate_labeled(&mut merged, "slub", last(&pairs.base).telemetry.clone());
            accumulate_labeled(
                &mut merged,
                "prudence",
                last(&pairs.treated).telemetry.clone(),
            );
        }
        let row = Fig6Row {
            object_size,
            pairs_per_sec: pairs.compare(|x| x.run.pairs_per_sec),
            best_batch_ns: pairs.compare(|x| x.run.best_batch_ns),
            slub: *s,
            prudence: *p,
        };
        let _ = writeln!(
            text,
            "{object_size:<5} {:.0}  grows {}/{} peak {}/{} hit {:.0}/{:.0}",
            row.pairs_per_sec,
            s.grows,
            p.grows,
            s.slabs_peak,
            p.slabs_peak,
            s.hit_percent(),
            p.hit_percent()
        );
        rows.push(row);
    }
    if let Some(prefix) = telemetry {
        let (prom, trace) = write_telemetry(prefix, &merged).expect("write telemetry");
        let _ = writeln!(text, "wrote {} and {}", prom.display(), trace.display());
    }
    (rows, text)
}

/// Figure 3: used memory under continuous RCU list updates.
fn figure3(duration: Duration) -> (Fig3, String) {
    let params = EnduranceParams {
        duration,
        memory_limit: 96 << 20,
        ..EnduranceParams::default()
    };
    let pairs = paired(REPS, |p| run_endurance(kind(p), &params));
    let fig = Fig3 {
        updates: pairs.compare(|r| r.updates as f64),
        peak_used_kib: pairs.compare(|r| (r.peak_used_bytes >> 10) as f64),
        slub_oom: Ooms::of(&pairs.base),
        prudence_oom: Ooms::of(&pairs.treated),
    };
    let text = format!(
        "Figure 3 — used memory under continuous RCU updates, {} threads, {:.1} s runs, \
         96 MiB limit\nupdates {:.0}\npeak KiB {:.0}\nOOM in slub {}/{REPS} runs, prudence \
         {}/{REPS} runs\nlast pair:\n{}\n{}\n",
        params.threads,
        duration.as_secs_f64(),
        fig.updates,
        fig.peak_used_kib,
        fig.slub_oom.runs,
        fig.prudence_oom.runs,
        last(&pairs.base).render(),
        last(&pairs.treated).render(),
    );
    (fig, text)
}

/// Figures 7–13: the four application benchmarks.
fn figures7_to_13(transactions_per_thread: u64) -> (Vec<AppRow>, String) {
    type Runner = fn(AllocatorKind, &AppParams) -> AppResult;
    let params = AppParams {
        transactions_per_thread,
        ..AppParams::default()
    };
    let mut text = String::from("Figures 7-11 — per-cache allocator attributes, last pair\n\n");
    let mut fig12 = String::from("Figure 12 — deferred frees out of total frees\n");
    let mut fig13 = String::from("Figure 13 — throughput, ops/s\n");
    let mut rows = Vec::new();
    for (name, runner) in [
        ("postmark", apps::run_postmark as Runner),
        ("netperf", apps::run_netperf),
        ("apache", apps::run_apache),
        ("pgbench", apps::run_pgbench),
    ] {
        let pairs = paired(REPS, |p| runner(kind(p), &params));
        let pair = AppComparison {
            name: name.into(),
            slub: last(&pairs.base).clone(),
            prudence: last(&pairs.treated).clone(),
        };
        let row = AppRow {
            name,
            threads: params.threads,
            ops_per_sec: pairs.compare(|r| r.ops_per_sec),
            deferred_free_pct: pair.slub.deferred_free_percent(),
            caches: pair.cache_comparisons(),
        };
        let _ = writeln!(text, "{}", pair.render());
        let _ = writeln!(fig12, "{name:<10} {:>5.1}%", row.deferred_free_pct);
        let _ = writeln!(fig13, "{name:<10} {:.0}", row.ops_per_sec);
        rows.push(row);
    }
    (rows, format!("{text}{fig12}\n{fig13}"))
}

/// Extension: §3.1 deferral amplification under RCU tree churn.
fn tree_churn(ops_per_thread: u64) -> (TreeRow, String) {
    let params = TreeChurnParams {
        ops_per_thread,
        ..TreeChurnParams::default()
    };
    let pairs = paired(REPS, |p| run_tree_churn(kind(p), &params));
    let (s, p) = (&last(&pairs.base).stats, &last(&pairs.treated).stats);
    let row = TreeRow {
        ops_per_sec: pairs.compare(|r| r.ops_per_sec),
        deferred_per_op: last(&pairs.treated).deferred_per_op,
        slub: *s,
        prudence: *p,
    };
    let text = format!(
        "Extension — RCU tree churn (§3.1 multi-deferral amplification)\nops/s {:.0}\n\
         {:.2} deferrals/op; grows/shrinks/peak slabs slub {}/{}/{} prudence {}/{}/{}\n",
        row.ops_per_sec,
        row.deferred_per_op,
        s.grows,
        s.shrinks,
        s.slabs_peak,
        p.grows,
        p.shrinks,
        p.slabs_peak,
    );
    (row, text)
}

/// The sharded server scenario, once per allocator; a violated gate fails
/// the run, and only a passing run is stored. Defaults are the full-scale
/// capture (1M connections, 8 shards); `--smoke` shrinks it to the CI
/// size.
fn server(args: &Args) {
    let mut params = ServerParams {
        shards: args.value("--shards").unwrap_or(8),
        connections: args.value("--connections").unwrap_or(1_000_000),
        seed: args.value("--seed").unwrap_or(ServerParams::default().seed),
        reclaim: args.value::<ReclaimBackend>("--reclaim"),
        baseline_ms: 2_000,
        storm_ms: 3_000,
        recovery_ms: 4_000,
        establish_timeout: Duration::from_secs(600),
        ..ServerParams::default()
    };
    if args.has("--smoke") {
        params = ServerParams {
            connections: params.connections.min(5_000),
            shards: params.shards.min(2),
            seed: params.seed,
            reclaim: params.reclaim,
            ..ServerParams::smoke()
        };
    }
    let params = params.scaled_for_population();
    let allocators = match args.value::<String>("--allocator").as_deref() {
        None | Some("both") => AllocatorKind::BOTH.to_vec(),
        Some("slub") => vec![AllocatorKind::Slub],
        Some("prudence") => vec![AllocatorKind::Prudence],
        Some(other) => usage(&format!("unknown allocator {other:?}")),
    };
    let meta = RunMeta::capture(vec![params.shards]);
    println!("server {meta}");
    let mut reports = Vec::new();
    for kind in allocators {
        println!(
            "server scenario: {kind} × {} connections × {} shards (seed {}) ...",
            params.connections, params.shards, params.seed
        );
        let report = apps::run_server(kind, &params);
        println!("  {}", report.render());
        for violation in &report.violations {
            println!("  VIOLATION: {violation}");
        }
        if !report.passed() {
            println!("  replay: {}", report.replay_command());
        }
        reports.push(report);
    }
    if !reports.iter().all(ServerReport::passed) {
        std::process::exit(1);
    }
    #[derive(Serialize)]
    struct ServerRun {
        meta: RunMeta,
        reports: Vec<ServerReport>,
    }
    store(
        args.label(),
        "BENCH_server.json",
        &ServerRun { meta, reports },
    );
}

/// Checks every result file and exits 1 if any fails.
fn validate(files: &[String]) {
    if files.is_empty() {
        usage("validate needs at least one FILE");
    }
    let mut ok = true;
    for file in files {
        match pbs_bench::validate(Path::new(file)) {
            Ok(line) => println!("{line}"),
            Err(e) => {
                eprintln!("validate: {e}");
                ok = false;
            }
        }
    }
    if !ok {
        std::process::exit(1);
    }
}

/// Exits 1 if `delta` (the median paired delta, percent) exceeds
/// `budget`.
fn gate(name: &str, delta: &Summary, budget: f64) {
    if delta.median > budget {
        eprintln!(
            "{name}: {:+.2} % exceeds the {budget} % budget",
            delta.median
        );
        std::process::exit(1);
    }
    println!(
        "{name}: {:+.2} % within the {budget} % budget",
        delta.median
    );
}

/// The idle-cost guard. The stall watchdog, the deferred-backlog governor
/// and the OOM ladder must cost the uncontended hit path nothing when
/// nothing is wrong: this times the 4-thread 512 B alloc/free loop on
/// Prudence with the machinery armed at its defaults against a quiescent
/// build-out (threshold and watermarks out of reach), with registered,
/// never-pinned readers so the watchdog scan walks real records. Both
/// modes build byte-identical structures: only the scalars differ.
fn idle_guard() {
    let threads = 4;
    let pairs = paired(GUARD_PAIRS, |armed| {
        let (threshold, soft, hard) = if armed {
            (Duration::from_millis(100), 4096, 16384)
        } else {
            (Duration::from_secs(3600), usize::MAX / 4, usize::MAX / 4)
        };
        let bed = prudence_bed(
            threads,
            RcuConfig::linux_like().with_stall_threshold(threshold),
            PrudenceConfig::new(threads).with_watermarks(soft, hard),
        );
        let readers: Vec<_> = (0..threads).map(|_| bed.rcu().register()).collect();
        let cache = bed.create_cache("idle-overhead", 512);
        let run = pair_loop(&cache, threads, false, || {
            std::thread::sleep(Duration::from_millis(150));
        });
        cache.quiesce();
        drop(readers);
        run
    });
    let cmp = pairs.compare(|r| r.best_batch_ns);
    println!(
        "idle guard, prudence 512 B hit path, {threads} threads, best-batch ns/pair, \
         quiescent → armed: {cmp:.1}"
    );
    gate("idle guard", &cmp.delta_pct, IDLE_BUDGET_PCT);
}

/// The tracing-cost guard: the 4-thread 512 B Prudence pair loop with
/// event tracing off against on, in three regimes. Only the hit path is
/// gated — there tracing costs one relaxed flag load. The deferred path
/// deliberately pays for ring writes, defer clocks and site interning,
/// and under hit+doctor the "on" arm also serves and scrapes the live
/// `/doctor` endpoint every 20 ms; both are recorded, not gated.
fn trace_guard() {
    let threads = 4;
    let window = Duration::from_millis(250);
    println!("trace guard, prudence 512 B, {threads} threads, best-batch ns/pair, off → on:");
    let mut hit = None;
    for (regime, deferred, doctor) in [
        ("hit", false, false),
        ("deferred", true, false),
        ("hit+doctor", false, true),
    ] {
        let pairs = paired(GUARD_PAIRS, |on| {
            pbs_telemetry::set_enabled(on);
            let bed = Arc::new(Testbed::new(
                AllocatorKind::Prudence,
                threads,
                RcuConfig::linux_like(),
                None,
            ));
            let server = (doctor && on).then(|| {
                let provider = Arc::clone(&bed);
                DoctorServer::start(move || provider.telemetry()).expect("doctor endpoint binds")
            });
            let cache = bed.create_cache("overhead", 512);
            let run = pair_loop(&cache, threads, deferred, || {
                let start = Instant::now();
                while start.elapsed() < window {
                    if let Some(server) = &server {
                        let _ = http_get(server.addr(), "/doctor");
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
            });
            cache.quiesce();
            run
        });
        let cmp = pairs.compare(|r| r.best_batch_ns);
        println!("  {regime:<10} {cmp:.1}");
        hit = hit.or(Some(cmp.delta_pct));
    }
    // Leave the flag where the library default puts it.
    pbs_telemetry::set_enabled(true);
    let hit = hit.expect("hit regime measured");
    gate("trace guard (hit path)", &hit, TRACE_BUDGET_PCT);
}
