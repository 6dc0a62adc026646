//! The closed-loop driver shared by every workload.
//!
//! A session builds one testbed, prefills it, starts the client threads
//! and warms them up; everything up to that point is set-up time. The
//! session then runs an untraced timed phase and, in a traced run, a
//! traced one. Every session ends with the workload's model check and
//! the teardown checks.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use pbs_alloc_api::{CacheStatsSnapshot, ObjectAllocator};
use pbs_rcu::reclaim::{ReclaimBackend, ReclaimConfig, ReclaimStats};
use pbs_rcu::{RcuConfig, RcuStats};
use pbs_workloads::{AllocatorKind, Testbed};
use prudence::PrudenceConfig;

use crate::hist::LogHist;
use crate::trace::{NoTrace, Trace, Tracer};

/// Client threads of every workload (the closed loop's concurrency).
pub const CLIENTS: usize = 2;

/// Which end-to-end latency an operation counts towards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    Read,
    Write,
}

/// What one operation did.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    pub class: OpClass,
    /// `false` when a call returned an error (an allocation failure).
    pub ok: bool,
}

/// One workload: its generated operations, how a client executes them
/// against the program, and the model checks.
///
/// Correctness checks are assertions: a failed check panics, and the
/// benchmark binary turns any panic into a failed run.
pub trait Workload: Sync + Sized {
    type Op;
    /// Per-client state, created and used on the client's own thread.
    type Client;
    /// What a client hands back for the final model check.
    type Model: Send;

    /// The pinned reclamation backend.
    const BACKEND: ReclaimBackend;
    /// The pinned `RcuConfig` preset: its name and constructor.
    const RCU: (&'static str, fn() -> RcuConfig);
    /// Hard page limit in bytes: several times the workload's steady
    /// peak, so a reclamation regression shows as failed operations
    /// rather than as unbounded growth.
    const PAGE_LIMIT: usize;
    /// Operations each client runs to warm up before timing starts.
    const WARMUP_OPS: u64;

    /// Builds the testbed and the data the clients share (prefilled).
    fn build(seed: u64) -> Self;
    /// Creates client `tid`; per-client prefill happens here.
    fn client(&self, tid: usize) -> Self::Client;
    /// The client's next operation from its generated stream.
    fn next_op(&self, c: &mut Self::Client) -> Self::Op;
    /// Executes one operation.
    fn exec<T: Tracer>(&self, c: &mut Self::Client, op: Self::Op, t: &mut T) -> Outcome;
    /// Ends a client, handing back its model.
    fn finish(&self, c: Self::Client) -> Self::Model;
    /// Checks the shared state against every client's model.
    fn verify(&self, models: Vec<Self::Model>);
    /// The testbed.
    fn bed(&self) -> &Testbed;
    /// Every cache the workload allocates from.
    fn caches(&self) -> Vec<Arc<dyn ObjectAllocator>>;
    /// Drops the workload's data structures, keeping the testbed.
    fn into_bed(self) -> Testbed;
}

/// A testbed with `W`'s pinned settings: Prudence with one CPU slot per
/// client, `W`'s backend, `RcuConfig` and page limit. `PBS_RECLAIM` is
/// not consulted.
pub fn testbed<W: Workload>() -> Testbed {
    Testbed::new_tuned(
        AllocatorKind::Prudence,
        CLIENTS,
        (W::RCU.1)(),
        Some(W::PAGE_LIMIT),
        None,
        None,
        Some(PrudenceConfig::new(CLIENTS)),
        Some((W::BACKEND, ReclaimConfig::default())),
    )
}

/// Program-side counters read at a phase boundary.
#[derive(Debug, Clone, Default)]
pub struct Snap {
    /// Sum over the workload's caches.
    pub cache: CacheStatsSnapshot,
    pub rcu: RcuStats,
    pub reclaim: ReclaimStats,
    pub used_bytes: usize,
    pub peak_bytes: usize,
}

fn snap<W: Workload>(w: &W) -> Snap {
    let mut cache = CacheStatsSnapshot::default();
    for c in w.caches() {
        cache.merge(&c.stats());
    }
    let bed = w.bed();
    Snap {
        cache,
        rcu: bed.rcu().stats(),
        reclaim: bed.reclaim_stats(),
        used_bytes: bed.pages().used_bytes(),
        peak_bytes: bed.pages().peak_bytes(),
    }
}

/// One client's share of a phase.
struct ClientPhase {
    ops: u64,
    failed: u64,
    read: LogHist,
    write: LogHist,
    trace: Option<Trace>,
    deferred_peak: usize,
    in_domain_peak: usize,
}

/// A timed phase, merged over clients.
#[derive(Debug, Default)]
pub struct Phase {
    pub elapsed_s: f64,
    pub ops: u64,
    pub failed: u64,
    pub read: LogHist,
    pub write: LogHist,
    pub before: Snap,
    pub after: Snap,
    /// Per-client recorders (traced phase only).
    pub traces: Vec<Trace>,
    /// Peak of the caches' summed `deferred_outstanding()`, sampled by
    /// client 0 (traced phase only).
    pub deferred_peak: usize,
    /// Peak of the domain's `deferred_in_domain`, sampled alongside.
    pub in_domain_peak: usize,
}

impl Phase {
    pub fn throughput(&self) -> f64 {
        self.ops as f64 / self.elapsed_s
    }
}

/// Result of one session.
#[derive(Debug)]
pub struct Session {
    pub setup_s: f64,
    pub untraced: Phase,
    pub traced: Option<Phase>,
}

/// Client 0 samples deferral backlogs once per this many traced ops.
const SAMPLE_EVERY: u64 = 4096;

/// Runs `c` until `stop` is set or `limit` ops are done.
#[allow(clippy::too_many_arguments)]
fn run_ops<W: Workload, T: Tracer>(
    w: &W,
    c: &mut W::Client,
    t: &mut T,
    stop: &AtomicBool,
    limit: u64,
    next_id: &mut u64,
    sampler: Option<&dyn Fn() -> (usize, usize)>,
) -> ClientPhase {
    let mut p = ClientPhase {
        ops: 0,
        failed: 0,
        read: LogHist::default(),
        write: LogHist::default(),
        trace: None,
        deferred_peak: 0,
        in_domain_peak: 0,
    };
    while p.ops < limit && !stop.load(Ordering::Relaxed) {
        let op = w.next_op(c);
        t.begin_op(*next_id);
        let start = Instant::now();
        let out = w.exec(c, op, t);
        let ns = start.elapsed().as_nanos() as u64;
        t.end_op();
        *next_id += 1;
        match out.class {
            OpClass::Read => p.read.record(ns),
            OpClass::Write => p.write.record(ns),
        }
        p.ops += 1;
        p.failed += u64::from(!out.ok);
        if let Some(sample) = sampler {
            if p.ops.is_multiple_of(SAMPLE_EVERY) {
                let (deferred, in_domain) = sample();
                p.deferred_peak = p.deferred_peak.max(deferred);
                p.in_domain_peak = p.in_domain_peak.max(in_domain);
            }
        }
    }
    p
}

fn merge(parts: Vec<ClientPhase>, elapsed_s: f64, before: Snap, after: Snap) -> Phase {
    let mut phase = Phase {
        elapsed_s,
        before,
        after,
        ..Phase::default()
    };
    for p in parts {
        phase.ops += p.ops;
        phase.failed += p.failed;
        phase.read.merge(&p.read);
        phase.write.merge(&p.write);
        phase.traces.extend(p.trace);
        phase.deferred_peak = phase.deferred_peak.max(p.deferred_peak);
        phase.in_domain_peak = phase.in_domain_peak.max(p.in_domain_peak);
    }
    phase
}

/// What a session runs after set-up.
#[derive(Debug, Clone, Copy)]
pub enum Plan {
    /// Untraced timed phase of this length.
    Untraced(Duration),
    /// Untraced phase, then a traced phase, each of this length.
    Traced(Duration),
}

/// Runs one session of workload `W`.
pub fn session<W: Workload>(seed: u64, plan: Plan) -> Session {
    let setup_start = Instant::now();
    let w = W::build(seed);
    let stop = AtomicBool::new(false);
    let barrier = Barrier::new(CLIENTS + 1);
    let base = Instant::now();
    let (length, traced) = match plan {
        Plan::Untraced(d) => (d, false),
        Plan::Traced(d) => (d, true),
    };
    let mut setup_s = 0.0;
    let (models, mut phases) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|tid| {
                let (w, stop, barrier) = (&w, &stop, &barrier);
                s.spawn(move || {
                    let mut c = w.client(tid);
                    let mut next_id = 0u64;
                    let never = AtomicBool::new(false);
                    run_ops(
                        w,
                        &mut c,
                        &mut NoTrace,
                        &never,
                        W::WARMUP_OPS,
                        &mut next_id,
                        None,
                    );
                    barrier.wait(); // warm
                    barrier.wait(); // go
                    let mut phases = vec![run_ops(
                        w,
                        &mut c,
                        &mut NoTrace,
                        stop,
                        u64::MAX,
                        &mut next_id,
                        None,
                    )];
                    barrier.wait(); // untraced done
                    if traced {
                        barrier.wait(); // go traced
                        let caches = w.caches();
                        let sample = || {
                            let deferred = caches.iter().map(|c| c.deferred_outstanding()).sum();
                            (deferred, w.bed().reclaim_stats().deferred_in_domain)
                        };
                        let sampler: Option<&dyn Fn() -> (usize, usize)> =
                            if tid == 0 { Some(&sample) } else { None };
                        let mut t = Trace::new(base, Some(Arc::clone(w.bed().rcu())));
                        let mut p =
                            run_ops(w, &mut c, &mut t, stop, u64::MAX, &mut next_id, sampler);
                        p.trace = Some(t);
                        phases.push(p);
                        barrier.wait(); // traced done
                    }
                    (phases, w.finish(c))
                })
            })
            .collect();

        barrier.wait(); // warm
        setup_s = setup_start.elapsed().as_secs_f64();
        let timed_phase = || {
            let before = snap(&w);
            let start = Instant::now();
            barrier.wait(); // go
            std::thread::sleep(length);
            stop.store(true, Ordering::Relaxed);
            barrier.wait(); // done
            let elapsed = start.elapsed().as_secs_f64();
            stop.store(false, Ordering::Relaxed);
            (elapsed, before, snap(&w))
        };
        let mut bounds = vec![timed_phase()];
        if traced {
            bounds.push(timed_phase());
        }
        let mut models = Vec::new();
        let mut parts: Vec<Vec<ClientPhase>> = Vec::new();
        for h in handles {
            let (phases, model) = h.join().expect("client thread panicked");
            for (i, p) in phases.into_iter().enumerate() {
                if parts.len() <= i {
                    parts.push(Vec::new());
                }
                parts[i].push(p);
            }
            models.push(model);
        }
        let phases: Vec<Phase> = parts
            .into_iter()
            .zip(bounds)
            .map(|(p, (elapsed, before, after))| merge(p, elapsed, before, after))
            .collect();
        (models, phases)
    });
    w.verify(models);
    teardown(w);
    let traced = if traced { phases.pop() } else { None };
    Session {
        setup_s,
        untraced: phases.pop().expect("untraced phase ran"),
        traced,
    }
}

/// Quiesces and empties every cache, then drops the testbed, checking
/// that nothing stays deferred, live or mapped.
fn teardown<W: Workload>(w: W) {
    let caches = w.caches();
    let pages = Arc::clone(w.bed().pages());
    let bed = w.into_bed();
    for c in &caches {
        c.quiesce();
        assert_eq!(
            c.deferred_outstanding(),
            0,
            "cache {}: deferred objects left after quiesce",
            c.name()
        );
        assert_eq!(
            c.stats().live_objects,
            0,
            "cache {}: live objects left after teardown",
            c.name()
        );
    }
    drop(caches);
    drop(bed);
    assert_eq!(
        pages.used_bytes(),
        0,
        "page allocator bytes still used after teardown"
    );
}
