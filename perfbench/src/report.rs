//! Runs a workload and turns its sessions into named metrics.

use std::time::Duration;

use pbs_rcu::reclaim::ReclaimBackend;

use crate::churn::AllocChurn;
use crate::driver::{session, Phase, Plan, Session, Workload};
use crate::hist::LogHist;
use crate::kv::KvUpdate;
use crate::postmark::Postmark;
use crate::trace::Site;

/// An untraced run splits its timed phase over this many sessions, each
/// on a fresh testbed, and reports the median over sessions of every
/// end-to-end metric: one session's memory placement and thread
/// scheduling then cannot set a run's figures alone.
pub const SESSIONS: usize = 5;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadName {
    AllocChurn,
    KvUpdate,
    KvUpdateHp,
    Postmark,
}

impl WorkloadName {
    pub const ALL: [WorkloadName; 4] = [
        WorkloadName::AllocChurn,
        WorkloadName::KvUpdate,
        WorkloadName::KvUpdateHp,
        WorkloadName::Postmark,
    ];

    pub fn label(self) -> &'static str {
        match self {
            WorkloadName::AllocChurn => "alloc-churn",
            WorkloadName::KvUpdate => "kv-update",
            WorkloadName::KvUpdateHp => "kv-update-hp",
            WorkloadName::Postmark => "postmark",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.label() == s)
    }
}

/// The settings a workload pins, for the provenance record.
#[derive(Debug, Clone, Copy)]
pub struct Pinned {
    pub backend: ReclaimBackend,
    pub rcu_preset: &'static str,
    pub page_limit: usize,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// Sample counts behind one reported percentile.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleCount {
    pub metric: String,
    pub samples: u64,
    pub beyond: u64,
}

/// Everything one run reports.
#[derive(Debug)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub samples: Vec<SampleCount>,
    pub attempted: u64,
    pub failed: u64,
    /// The traced phase of a traced run (kept for span output).
    pub traced: Option<Phase>,
    pub pinned: Pinned,
}

#[derive(Default)]
struct Out {
    metrics: Vec<Metric>,
    samples: Vec<SampleCount>,
}

impl Out {
    fn push(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value,
        });
    }

    /// Reports the `q`-quantile of `h`, or 0 when fewer than ten samples
    /// lie beyond it; the sample counts go with the report either way.
    fn quantile(&mut self, name: impl Into<String>, h: &LogHist, q: f64) {
        self.median_quantile(name, &[h], q);
    }

    /// Reports the median over `hists` of their `q`-quantiles, or 0 when
    /// any has fewer than ten samples beyond it. The sample counts
    /// reported are those of the thinnest histogram.
    fn median_quantile(&mut self, name: impl Into<String>, hists: &[&LogHist], q: f64) {
        let name = name.into();
        let est: Vec<_> = hists.iter().map(|h| h.quantile(q)).collect();
        let thinnest = est
            .iter()
            .min_by_key(|e| e.beyond)
            .expect("at least one histogram");
        self.samples.push(SampleCount {
            metric: name.clone(),
            samples: thinnest.samples,
            beyond: thinnest.beyond,
        });
        let values: Option<Vec<f64>> = est.iter().map(|e| e.value).collect();
        self.push(name, "ns", values.map_or(0.0, median));
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn end_to_end(out: &mut Out, sessions: &[Session]) {
    let phases: Vec<&Phase> = sessions.iter().map(|s| &s.untraced).collect();
    let of = |f: fn(&Phase) -> f64| median(phases.iter().map(|p| f(p)).collect());
    out.push("throughput_ops_s", "ops/s", of(Phase::throughput));
    let reads: Vec<&LogHist> = phases.iter().map(|p| &p.read).collect();
    let writes: Vec<&LogHist> = phases.iter().map(|p| &p.write).collect();
    out.median_quantile("read_p50_ns", &reads, 0.50);
    out.median_quantile("read_p99_ns", &reads, 0.99);
    out.median_quantile("write_p50_ns", &writes, 0.50);
    out.median_quantile("write_p99_ns", &writes, 0.99);
    out.push(
        "peak_mem_mib",
        "MiB",
        of(|p| p.after.peak_bytes as f64 / (1u64 << 20) as f64),
    );
    let (ops, failed) = phases
        .iter()
        .fold((0, 0), |(o, f), p| (o + p.ops, f + p.failed));
    out.push("ok_ops_ratio", "ratio", 1.0 - ratio(failed, ops));
    out.push(
        "setup_s",
        "s",
        median(sessions.iter().map(|s| s.setup_s).collect()),
    );
}

fn per_layer(out: &mut Out, untraced: &Phase, p: &Phase) {
    for (i, site) in Site::ALL.iter().enumerate() {
        let mut hist = LogHist::default();
        let (mut busy_ns, mut failed) = (0u64, 0u64);
        for t in &p.traces {
            let s = &t.sites()[i];
            hist.merge(&s.hist);
            busy_ns += s.busy_ns;
            failed += s.failed;
        }
        let m = site.metric();
        out.push(format!("{m}.calls"), "count", hist.len() as f64);
        out.quantile(format!("{m}.p50_ns"), &hist, 0.50);
        out.quantile(format!("{m}.p99_ns"), &hist, 0.99);
        if m.starts_with("alloc_api.") {
            out.push(format!("{m}.busy_s"), "s", busy_ns as f64 * 1e-9);
        }
        if *site == Site::Allocate {
            out.push(format!("{m}.failed"), "count", failed as f64);
        }
    }

    let (a, b) = (&p.after.cache, &p.before.cache);
    let d = |after: u64, before: u64| after.saturating_sub(before);
    let requests = d(a.alloc_requests, b.alloc_requests);
    let kops = p.ops as f64 / 1000.0;
    // The fast path serves pops and pushes alike, so its hits are taken
    // over allocations plus immediate frees.
    let fast_ops = requests + d(a.frees, b.frees);
    out.push(
        "percpu.fast_hit_ratio",
        "ratio",
        ratio(d(a.rseq_hits, b.rseq_hits), fast_ops),
    );
    out.push(
        "percpu.restarts",
        "count",
        d(a.rseq_restarts, b.rseq_restarts) as f64,
    );
    out.push(
        "percpu.fallbacks",
        "count",
        d(a.fastpath_fallbacks, b.fastpath_fallbacks) as f64,
    );

    let refills = d(a.refills, b.refills);
    out.push(
        "prudence.hit_ratio",
        "ratio",
        ratio(d(a.cache_hits, b.cache_hits), requests),
    );
    out.push(
        "prudence.latent_hit_ratio",
        "ratio",
        ratio(d(a.latent_hits, b.latent_hits), requests),
    );
    out.push("prudence.refills_per_kop", "1/kop", refills as f64 / kops);
    out.push(
        "prudence.partial_refill_ratio",
        "ratio",
        ratio(d(a.partial_refills, b.partial_refills), refills),
    );
    out.push(
        "prudence.flushes_per_kop",
        "1/kop",
        d(a.flushes, b.flushes) as f64 / kops,
    );
    out.push(
        "prudence.cpu_slot_misses",
        "count",
        d(a.cpu_slot_misses, b.cpu_slot_misses) as f64,
    );
    out.push(
        "prudence.node_lock_contended",
        "count",
        d(a.node_lock_contended, b.node_lock_contended) as f64,
    );
    out.push("prudence.grows", "count", d(a.grows, b.grows) as f64);
    out.push("prudence.shrinks", "count", d(a.shrinks, b.shrinks) as f64);
    out.push("prudence.slabs_peak", "count", a.slabs_peak as f64);
    out.push(
        "prudence.oom_waits",
        "count",
        d(a.oom_waits, b.oom_waits) as f64,
    );
    out.push(
        "prudence.assisted_merges",
        "count",
        d(a.assisted_merges, b.assisted_merges) as f64,
    );
    out.push(
        "prudence.pressure_transitions",
        "count",
        d(a.pressure_transitions, b.pressure_transitions) as f64,
    );
    out.push(
        "prudence.deferred_outstanding_peak",
        "count",
        p.deferred_peak as f64,
    );

    out.push("mem.peak_bytes", "bytes", p.after.peak_bytes as f64);
    out.push("mem.used_bytes_end", "bytes", p.after.used_bytes as f64);

    let mut gp_wait = LogHist::default();
    for t in &p.traces {
        gp_wait.merge(t.gp_wait());
    }
    let (ra, rb) = (&p.after.rcu, &p.before.rcu);
    out.push("rcu.gp_wait_samples", "count", gp_wait.len() as f64);
    out.quantile("rcu.gp_wait_p50_ns", &gp_wait, 0.50);
    out.quantile("rcu.gp_wait_p99_ns", &gp_wait, 0.99);
    out.push(
        "rcu.gp_advances_per_s",
        "1/s",
        d(ra.gp_advances, rb.gp_advances) as f64 / p.elapsed_s,
    );
    out.push(
        "rcu.expedited_gps",
        "count",
        d(ra.expedited_gps, rb.expedited_gps) as f64,
    );
    out.push(
        "rcu.max_callback_backlog",
        "count",
        ra.max_callback_backlog as f64,
    );

    let (xa, xb) = (&p.after.reclaim, &p.before.reclaim);
    let reclaimed = d(xa.scan_reclaimed, xb.scan_reclaimed);
    let protected = d(xa.scan_protected, xb.scan_protected);
    out.push("reclaim.scans", "count", d(xa.scans, xb.scans) as f64);
    out.push(
        "reclaim.scan_yield",
        "ratio",
        ratio(reclaimed, reclaimed + protected),
    );
    out.push(
        "reclaim.deferred_in_domain_peak",
        "count",
        p.in_domain_peak as f64,
    );

    let (mut self_ns, mut op_ns, mut spans) = (0u64, 0u64, 0usize);
    for t in &p.traces {
        let (s, o) = t.op_self_time();
        self_ns += s;
        op_ns += o;
        spans += t.span_count();
    }
    out.push("trace.throughput_ops_s", "ops/s", p.throughput());
    out.push(
        "trace.untraced_throughput_ops_s",
        "ops/s",
        untraced.throughput(),
    );
    out.push(
        "trace.overhead_ratio",
        "ratio",
        1.0 - p.throughput() / untraced.throughput(),
    );
    out.push("trace.op_self_share", "ratio", ratio(self_ns, op_ns));
    out.push("trace.spans", "count", spans as f64);
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn run_workload<W: Workload>(seed: u64, seconds: f64, traced: bool) -> Report {
    let pinned = Pinned {
        backend: W::BACKEND,
        rcu_preset: W::RCU.0,
        page_limit: W::PAGE_LIMIT,
    };
    let mut out = Out::default();
    if traced {
        // The untraced and traced phases share the run's length.
        let s = session::<W>(seed, Plan::Traced(Duration::from_secs_f64(seconds / 2.0)));
        let untraced = s.untraced;
        let p = s.traced.expect("traced session has a traced phase");
        per_layer(&mut out, &untraced, &p);
        return Report {
            metrics: out.metrics,
            samples: out.samples,
            attempted: untraced.ops + p.ops,
            failed: untraced.failed + p.failed,
            traced: Some(p),
            pinned,
        };
    }
    let length = Duration::from_secs_f64(seconds / SESSIONS as f64);
    let sessions: Vec<Session> = (0..SESSIONS)
        .map(|_| session::<W>(seed, Plan::Untraced(length)))
        .collect();
    end_to_end(&mut out, &sessions);
    let (attempted, failed) = sessions.iter().fold((0, 0), |(o, f), s| {
        (o + s.untraced.ops, f + s.untraced.failed)
    });
    Report {
        metrics: out.metrics,
        samples: out.samples,
        attempted,
        failed,
        traced: None,
        pinned,
    }
}

/// Runs workload `w` for `seconds` of timed phases. Untraced, reports
/// end-to-end metrics; traced, splits the time between an untraced and a
/// traced phase and reports per-layer metrics.
pub fn run(w: WorkloadName, seed: u64, seconds: f64, traced: bool) -> Report {
    match w {
        WorkloadName::AllocChurn => run_workload::<AllocChurn>(seed, seconds, traced),
        WorkloadName::KvUpdate => run_workload::<KvUpdate<false>>(seed, seconds, traced),
        WorkloadName::KvUpdateHp => run_workload::<KvUpdate<true>>(seed, seconds, traced),
        WorkloadName::Postmark => run_workload::<Postmark>(seed, seconds, traced),
    }
}
