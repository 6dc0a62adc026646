//! # pbs-bench — the shared machinery of the `bench` driver
//!
//! Every committed benchmark number in this repository comes from one
//! binary, `bench` (`src/bin/bench.rs`), whose subcommands regenerate the
//! paper's evaluation, run the server scenario and gate the overhead
//! budgets. This library is what they share:
//!
//! * [`Summary`] — every timed number, stored as its samples plus median,
//!   minimum and quartiles, from at least [`REPS`] interleaved repeats;
//! * [`paired`] — the paired-repeat helper: back-to-back A/B runs in
//!   alternating order, compared through the median of per-pair deltas;
//! * [`RunMeta`] — the provenance every run records;
//! * [`write_run`] — the one run-file writer;
//! * [`validate`] — the schema check for every result file it writes.
//!
//! Every result file has the shape
//! `{"runs": {<label>: {"meta": RunMeta, …}}}`. Runs recorded in older,
//! differently shaped forms sit, frozen, under a top-level `legacy` key.

use std::fmt;
use std::path::Path;

use pbs_workloads::apps::ServerReport;
use serde::{Deserialize, Serialize};
use serde_json::Value;

/// Repeats behind every stored [`Summary`].
pub const REPS: usize = 5;

/// A timed quantity over repeated runs: the raw samples in measurement
/// order plus their median, minimum and quartiles (linear interpolation
/// between order statistics, so an even count's median is the mean of
/// the middle two).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// The measurements, in the order they were taken.
    pub samples: Vec<f64>,
    /// 50th percentile.
    pub median: f64,
    /// Smallest sample.
    pub min: f64,
    /// 25th percentile.
    pub q1: f64,
    /// 75th percentile.
    pub q3: f64,
}

impl Summary {
    /// Summarizes `samples`.
    ///
    /// # Panics
    ///
    /// If `samples` is empty.
    pub fn of(samples: Vec<f64>) -> Self {
        assert!(!samples.is_empty(), "a summary needs at least one sample");
        let mut sorted = samples.clone();
        sorted.sort_by(f64::total_cmp);
        Self {
            median: quantile(&sorted, 0.5),
            min: sorted[0],
            q1: quantile(&sorted, 0.25),
            q3: quantile(&sorted, 0.75),
            samples,
        }
    }

    /// Summarizes `metric` over `items`.
    pub fn over<T>(items: &[T], metric: impl Fn(&T) -> f64) -> Self {
        Self::of(items.iter().map(metric).collect())
    }
}

/// Renders as `median [q1–q3]`, honouring the format's precision and
/// right-aligning to its width.
impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let p = f.precision().unwrap_or(0);
        let text = format!("{:.p$} [{:.p$}–{:.p$}]", self.median, self.q1, self.q3);
        write!(f, "{text:>w$}", w = f.width().unwrap_or(0))
    }
}

fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The runs of an A/B comparison, index-aligned: `base[i]` and
/// `treated[i]` ran back to back.
#[derive(Debug, Clone)]
pub struct Pairs<T> {
    /// The A arm's runs.
    pub base: Vec<T>,
    /// The B arm's runs.
    pub treated: Vec<T>,
}

/// One metric of an A/B comparison.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Compared {
    /// The metric over the A arm's runs.
    pub base: Summary,
    /// The metric over the B arm's runs.
    pub treated: Summary,
    /// `(B − A) / A` in percent, per back-to-back pair. Slow machine
    /// drift cancels inside a pair, and the median discards the pairs a
    /// preemption or frequency step landed in, so this — not the ratio of
    /// the two medians — is the number to judge a difference by.
    pub delta_pct: Summary,
}

/// Renders as `base → treated (Δ delta %)`, base and treated at the
/// format's precision.
impl fmt::Display for Compared {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let p = f.precision().unwrap_or(0);
        let (base, treated, delta) = (&self.base, &self.treated, &self.delta_pct);
        write!(f, "{base:.p$} → {treated:.p$} (Δ {delta:.1} %)")
    }
}

impl<T> Pairs<T> {
    /// Compares the two arms on `metric`.
    pub fn compare(&self, metric: impl Fn(&T) -> f64) -> Compared {
        let deltas = self
            .base
            .iter()
            .zip(&self.treated)
            .map(|(b, t)| (metric(t) - metric(b)) / metric(b) * 100.0)
            .collect();
        Compared {
            base: Summary::over(&self.base, &metric),
            treated: Summary::over(&self.treated, &metric),
            delta_pct: Summary::of(deltas),
        }
    }
}

/// Runs `run(false)` (arm A) and `run(true)` (arm B) back to back `reps`
/// times, alternating which goes first so ordering effects (frequency
/// ramp, cache warmth) cancel, after one discarded warm-up pair.
pub fn paired<T>(reps: usize, mut run: impl FnMut(bool) -> T) -> Pairs<T> {
    run(false);
    run(true);
    let mut pairs = Pairs {
        base: Vec::with_capacity(reps),
        treated: Vec::with_capacity(reps),
    };
    for rep in 0..reps {
        let (b, t) = if rep % 2 == 0 {
            let b = run(false);
            (b, run(true))
        } else {
            let t = run(true);
            (run(false), t)
        };
        pairs.base.push(b);
        pairs.treated.push(t);
    }
    pairs
}

/// Provenance recorded with every run, so a number in a result file can
/// be traced to the code, machine and configuration that produced it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunMeta {
    /// `git rev-parse --short HEAD`, or "unknown" outside a checkout.
    pub git_rev: String,
    /// Available hardware parallelism on the measuring machine.
    pub nproc: usize,
    /// Kernel release (`/proc/sys/kernel/osrelease`), or "unknown".
    pub kernel: String,
    /// Fast-path engine new caches select ("rseq" / "locks"), after any
    /// `PBS_FASTPATH` override. Runs from before the single-tier cache may
    /// also read "off".
    pub fastpath_engine: String,
    /// Value of `PBS_FASTPATH` if the run was forced, else null.
    pub fastpath_override: Option<String>,
    /// Reclamation backend new testbeds select ("epoch" / "hp" /
    /// "hyaline"), after any `PBS_RECLAIM` override.
    pub reclaim_backend: String,
    /// Value of `PBS_RECLAIM` if the run was forced, else null.
    pub reclaim_override: Option<String>,
    /// Worker-thread counts the run measured (absent from runs recorded
    /// before it was kept).
    pub threads: Option<Vec<usize>>,
}

impl RunMeta {
    /// Captures this process's provenance for a run over `threads`.
    pub fn capture(threads: Vec<usize>) -> Self {
        let git_rev = std::process::Command::new("git")
            .args(["rev-parse", "--short", "HEAD"])
            .output()
            .ok()
            .filter(|out| out.status.success())
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .map_or_else(|| "unknown".to_string(), |rev| rev.trim().to_string());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
        Self {
            git_rev,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            kernel,
            fastpath_engine: pbs_alloc_api::fastpath_default_engine().label().to_string(),
            fastpath_override: std::env::var("PBS_FASTPATH").ok(),
            reclaim_backend: pbs_rcu::reclaim::ReclaimBackend::from_env()
                .label()
                .to_string(),
            reclaim_override: std::env::var("PBS_RECLAIM").ok(),
            threads: Some(threads),
        }
    }
}

/// Renders as the JSON the result files store.
impl fmt::Display for RunMeta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&serde_json::to_string(self).map_err(|_| fmt::Error)?)
    }
}

/// Stores `run` as `runs.<label>` in the result file at `path`: a run of
/// the same label is replaced, every other key is kept, and the file and
/// its directory are created if missing.
///
/// # Errors
///
/// If the existing file is not a JSON object with an object `runs`, or on
/// any I/O failure.
pub fn write_run(path: &Path, label: &str, run: &impl Serialize) -> Result<(), String> {
    let err = |msg: String| format!("{}: {msg}", path.display());
    let mut root = match std::fs::read_to_string(path) {
        Ok(text) => serde_json::from_str(&text).map_err(|e| err(format!("not valid JSON: {e}")))?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Value::Map(Vec::new()),
        Err(e) => return Err(err(format!("cannot read: {e}"))),
    };
    let Value::Map(entries) = &mut root else {
        return Err(err("top level is not an object".into()));
    };
    if get(entries, "runs").is_none() {
        entries.insert(0, ("runs".into(), Value::Map(Vec::new())));
    }
    let Some((_, Value::Map(runs))) = entries.iter_mut().find(|(key, _)| key == "runs") else {
        return Err(err("\"runs\" is not an object".into()));
    };
    let run = serde_json::to_value(run);
    match runs.iter_mut().find(|(key, _)| key == label) {
        Some((_, slot)) => *slot = run,
        None => runs.push((label.to_string(), run)),
    }
    let text = serde_json::to_string_pretty(&root).map_err(|e| err(e.to_string()))?;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| err(format!("cannot create directory: {e}")))?;
    }
    std::fs::write(path, text + "\n").map_err(|e| err(format!("cannot write: {e}")))
}

fn get<'a>(entries: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Checks a result file: the top level holds only `runs` and `legacy`;
/// every run under `runs` carries a [`RunMeta`] and records its numbers —
/// every object with a `samples` key must be a [`Summary`] of at least
/// [`REPS`] samples whose statistics match them, and a server run's
/// `reports` must round-trip through [`ServerReport`], each with alloc
/// percentiles and no violated gate. Runs under `legacy` are only parsed.
/// Returns a one-line account of what was checked.
///
/// # Errors
///
/// A description of the first problem found.
pub fn validate(path: &Path) -> Result<String, String> {
    let err = |msg: String| format!("{}: {msg}", path.display());
    let text = std::fs::read_to_string(path).map_err(|e| err(format!("cannot read: {e}")))?;
    let root: Value =
        serde_json::from_str(&text).map_err(|e| err(format!("not valid JSON: {e}")))?;
    let Value::Map(entries) = &root else {
        return Err(err("top level is not an object".into()));
    };
    if let Some((key, _)) = entries.iter().find(|(k, _)| k != "runs" && k != "legacy") {
        return Err(err(format!("unexpected top-level key {key:?}")));
    }
    let Some(Value::Map(runs)) = get(entries, "runs") else {
        return Err(err("missing \"runs\" object".into()));
    };
    if runs.is_empty() {
        return Err(err("no runs recorded".into()));
    }
    let (mut summaries, mut reports) = (0, 0);
    for (label, run) in runs {
        let fail = |msg: String| err(format!("run {label:?}: {msg}"));
        let Value::Map(fields) = run else {
            return Err(fail("not an object".into()));
        };
        let meta = get(fields, "meta").ok_or_else(|| fail("missing \"meta\"".into()))?;
        RunMeta::from_content(meta).map_err(|e| fail(format!("meta: {e}")))?;
        let before = summaries + reports;
        check_summaries(run, &mut summaries).map_err(fail)?;
        if let Some(value) = get(fields, "reports") {
            reports += check_reports(value).map_err(fail)?;
        }
        if summaries + reports == before {
            return Err(fail("records no summary and no server report".into()));
        }
    }
    let legacy = match get(entries, "legacy") {
        Some(Value::Map(legacy)) => legacy.len(),
        _ => 0,
    };
    Ok(format!(
        "{}: {} runs ({legacy} legacy), {summaries} summaries, {reports} server reports: OK",
        path.display(),
        runs.len()
    ))
}

fn check_summaries(value: &Value, count: &mut usize) -> Result<(), String> {
    match value {
        Value::Map(fields) if get(fields, "samples").is_some() => {
            let summary =
                Summary::from_content(value).map_err(|e| format!("malformed summary: {e}"))?;
            if summary.samples.len() < REPS {
                return Err(format!(
                    "summary has {} samples, fewer than {REPS}",
                    summary.samples.len()
                ));
            }
            if Summary::of(summary.samples.clone()) != summary {
                return Err(format!(
                    "summary statistics do not match its samples: {summary:?}"
                ));
            }
            *count += 1;
        }
        Value::Map(fields) => {
            for (_, v) in fields {
                check_summaries(v, count)?;
            }
        }
        Value::Seq(items) => {
            for v in items {
                check_summaries(v, count)?;
            }
        }
        _ => {}
    }
    Ok(())
}

fn check_reports(value: &Value) -> Result<usize, String> {
    let Value::Seq(reports) = value else {
        return Err("\"reports\" is not an array".into());
    };
    if reports.is_empty() {
        return Err("no server reports".into());
    }
    for report in reports {
        let parsed = ServerReport::from_content(report)
            .map_err(|e| format!("report does not match the ServerReport schema: {e}"))?;
        if !parsed.passed() {
            return Err(format!(
                "report for {} has violations: {:?}",
                parsed.allocator, parsed.violations
            ));
        }
        if parsed.alloc_latency.is_none() {
            return Err(format!(
                "report for {} has no alloc percentiles",
                parsed.allocator
            ));
        }
    }
    Ok(reports.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn odd_median_is_the_middle_sample() {
        let s = Summary::of(vec![5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.median, s.min, s.q1, s.q3), (3.0, 1.0, 2.0, 4.0));
        assert_eq!(
            s.samples,
            vec![5.0, 1.0, 4.0, 2.0, 3.0],
            "samples keep their order"
        );
    }

    #[test]
    fn even_median_is_the_mean_of_the_middle_two() {
        let s = Summary::of(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.median, 2.5);
        assert_eq!((s.q1, s.q3), (1.75, 3.25));
        assert_eq!(Summary::of(vec![7.0]).median, 7.0);
    }

    #[test]
    fn paired_alternates_order_and_compares_per_pair() {
        let mut order = Vec::new();
        let pairs = paired(4, |b| {
            order.push(b);
            if b {
                110.0
            } else {
                100.0
            }
        });
        assert_eq!(
            order,
            [false, true, false, true, true, false, false, true, true, false],
            "one warm-up pair, then alternating order"
        );
        let cmp = pairs.compare(|x| *x);
        assert!((cmp.delta_pct.median - 10.0).abs() < 1e-9);
        assert_eq!(cmp.base.samples.len(), 4);
    }

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("pbs-bench-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn runs_of(path: &Path) -> Vec<(String, Value)> {
        let root: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let Value::Map(entries) = root else {
            panic!("not an object")
        };
        let Some(Value::Map(runs)) = get(&entries, "runs").cloned() else {
            panic!("no runs")
        };
        runs
    }

    #[test]
    fn writer_creates_its_directory() {
        let dir = scratch("mkdir");
        let path = dir.join("nested/out.json");
        write_run(&path, "a", &Summary::of(vec![1.0])).unwrap();
        assert_eq!(runs_of(&path).len(), 1);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn writer_replaces_same_label_and_keeps_the_rest() {
        let dir = scratch("upsert");
        let path = dir.join("out.json");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            &path,
            r#"{"runs": {"old": {"x": 1}}, "legacy": {"l": [1]}}"#,
        )
        .unwrap();
        write_run(&path, "a", &Summary::of(vec![1.0])).unwrap();
        write_run(&path, "a", &Summary::of(vec![2.0])).unwrap();
        let runs = runs_of(&path);
        let labels: Vec<_> = runs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(labels, ["old", "a"]);
        assert_eq!(Summary::from_content(&runs[1].1).unwrap().median, 2.0);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"legacy\""), "other top-level keys survive");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn writer_refuses_to_clobber_a_malformed_file() {
        let dir = scratch("malformed");
        let path = dir.join("out.json");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&path, "{not json").unwrap();
        assert!(write_run(&path, "a", &Summary::of(vec![1.0])).is_err());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{not json");
        std::fs::remove_dir_all(dir).unwrap();
    }
}
