//! `alloc-churn`: allocate/free churn across four size classes, with
//! immediate frees only.
//!
//! Each client keeps a live set per cache whose target size random-walks
//! between ½× and 4× the cache's per-CPU object-cache capacity, so the
//! object cache keeps crossing its refill and flush points and slabs grow
//! and shrink. Nothing is ever deferred: `pbs-rcu` and reclamation are
//! bypassed, and a change there should show no change here.

use std::sync::Arc;

use pbs_alloc_api::{ObjPtr, ObjectAllocator};
use pbs_rcu::reclaim::ReclaimBackend;
use pbs_rcu::RcuConfig;
use pbs_workloads::Testbed;

use crate::driver::{testbed, OpClass, Outcome, Workload};
use crate::rng::{mix64, Rng};
use crate::trace::{Site, Tracer};

/// Object sizes of the four caches.
pub const SIZES: [usize; 4] = [64, 256, 1024, 2048];
/// Per-CPU object-cache capacity of each size as `SizingPolicy` set it
/// when this workload was defined. Fixed here so that the generated
/// stream does not change when the program's sizing does.
const CAPACITIES: [u32; 4] = [96, 54, 24, 16];
/// Share of operations that read live objects instead of churning.
const READ_PERCENT: u64 = 20;

/// One generated operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnOp {
    /// Allocate `allocs` objects from cache `cache`, then free random
    /// members of its live set until at most `target` remain.
    Churn {
        cache: usize,
        allocs: u32,
        target: u32,
        pick: u64,
    },
    /// Verify the canaries of `count` random live objects.
    Inspect { count: u32, pick: u64 },
}

/// A client's operation stream.
#[derive(Debug, Clone)]
pub struct ChurnGen {
    rng: Rng,
    targets: [u32; 4],
    bounds: [(u32, u32); 4],
}

impl ChurnGen {
    pub fn new(seed: u64, tid: usize) -> Self {
        Self {
            rng: Rng::new(seed, 0xC0 + tid as u64),
            targets: CAPACITIES,
            bounds: CAPACITIES.map(|c| (c / 2, c * 4)),
        }
    }

    pub fn next_op(&mut self) -> ChurnOp {
        let rng = &mut self.rng;
        if rng.percent(READ_PERCENT) {
            return ChurnOp::Inspect {
                count: rng.range(1, 8) as u32,
                pick: rng.next_u64(),
            };
        }
        let cache = rng.below(SIZES.len() as u64) as usize;
        let allocs = rng.range(1, 8) as u32;
        let (lo, hi) = self.bounds[cache];
        let mut target = self.targets[cache] as i64 + rng.range(0, 16) as i64 - 8;
        if target < lo as i64 {
            target = 2 * lo as i64 - target;
        } else if target > hi as i64 {
            target = 2 * hi as i64 - target;
        }
        self.targets[cache] = target as u32;
        ChurnOp::Churn {
            cache,
            allocs,
            target: target as u32,
            pick: rng.next_u64(),
        }
    }
}

/// The workload: four Prudence caches on an epoch-backend testbed.
pub struct AllocChurn {
    bed: Testbed,
    caches: Vec<Arc<dyn ObjectAllocator>>,
    seed: u64,
}

/// Per-client state: the stream and the live sets with their canaries.
pub struct ChurnClient {
    tid: usize,
    gen: ChurnGen,
    live: [Vec<(ObjPtr, u64)>; 4],
    seq: u64,
}

fn tag(tid: usize, seq: u64) -> u64 {
    ((tid as u64) << 56) ^ seq
}

/// Writes `tag` and its checksum at the head of the object and the
/// checksum's complement in its last word.
///
/// # Safety
///
/// `obj` is a live, exclusively owned object of `size >= 24` bytes.
unsafe fn stamp(obj: ObjPtr, size: usize, tag: u64) {
    let words = obj.as_ptr().cast::<u64>();
    words.write(tag);
    words.add(1).write(mix64(tag));
    obj.as_ptr().add(size - 8).cast::<u64>().write(!mix64(tag));
}

/// Checks the stamp written by [`stamp`].
///
/// # Safety
///
/// As for [`stamp`].
unsafe fn stamped(obj: ObjPtr, size: usize, tag: u64) -> bool {
    let words = obj.as_ptr().cast::<u64>();
    words.read() == tag
        && words.add(1).read() == mix64(tag)
        && obj.as_ptr().add(size - 8).cast::<u64>().read() == !mix64(tag)
}

impl ChurnClient {
    fn check(&self, cache: usize, obj: ObjPtr, seq: u64) {
        // SAFETY: `obj` is in this client's live set: allocated from
        // cache `cache` and not yet freed.
        let ok = unsafe { stamped(obj, SIZES[cache], tag(self.tid, seq)) };
        assert!(
            ok,
            "alloc-churn: canary of client {} object {seq} ({} B) corrupted",
            self.tid, SIZES[cache]
        );
    }
}

impl Workload for AllocChurn {
    type Op = ChurnOp;
    type Client = ChurnClient;
    type Model = ();

    const BACKEND: ReclaimBackend = ReclaimBackend::Epoch;
    const RCU: (&'static str, fn() -> RcuConfig) = ("linux_like", RcuConfig::linux_like);
    // The live sets peak under 1 MiB.
    const PAGE_LIMIT: usize = 8 << 20;
    const WARMUP_OPS: u64 = 200_000;

    fn build(seed: u64) -> Self {
        let bed = testbed::<Self>();
        let caches = SIZES
            .iter()
            .map(|&s| bed.create_cache(&format!("churn-{s}"), s))
            .collect();
        Self { bed, caches, seed }
    }

    fn client(&self, tid: usize) -> ChurnClient {
        ChurnClient {
            tid,
            gen: ChurnGen::new(self.seed, tid),
            live: Default::default(),
            seq: 0,
        }
    }

    fn next_op(&self, c: &mut ChurnClient) -> ChurnOp {
        c.gen.next_op()
    }

    fn exec<T: Tracer>(&self, c: &mut ChurnClient, op: ChurnOp, t: &mut T) -> Outcome {
        match op {
            ChurnOp::Churn {
                cache,
                allocs,
                target,
                pick,
            } => {
                let alloc = &self.caches[cache];
                let mut ok = true;
                for _ in 0..allocs {
                    match t.call(Site::Allocate, || alloc.allocate()) {
                        Ok(obj) => {
                            c.seq += 1;
                            // SAFETY: fresh object of SIZES[cache] bytes.
                            unsafe { stamp(obj, SIZES[cache], tag(c.tid, c.seq)) };
                            c.live[cache].push((obj, c.seq));
                        }
                        Err(_) => {
                            t.fail(Site::Allocate);
                            ok = false;
                            break;
                        }
                    }
                }
                let mut i = 0u64;
                while c.live[cache].len() > target as usize {
                    let len = c.live[cache].len() as u64;
                    let at = (mix64(pick.wrapping_add(i)) % len) as usize;
                    i += 1;
                    let (obj, seq) = c.live[cache].swap_remove(at);
                    c.check(cache, obj, seq);
                    // SAFETY: allocated from this cache, removed from the
                    // live set, never touched again.
                    t.call(Site::Free, || unsafe { alloc.free(obj) });
                }
                Outcome {
                    class: OpClass::Write,
                    ok,
                }
            }
            ChurnOp::Inspect { count, pick } => {
                for i in 0..count as u64 {
                    let r = mix64(pick.wrapping_add(i));
                    let cache = (r % SIZES.len() as u64) as usize;
                    let set = &c.live[cache];
                    if !set.is_empty() {
                        let (obj, seq) = set[((r >> 8) % set.len() as u64) as usize];
                        c.check(cache, obj, seq);
                    }
                }
                Outcome {
                    class: OpClass::Read,
                    ok: true,
                }
            }
        }
    }

    fn finish(&self, mut c: ChurnClient) {
        for cache in 0..SIZES.len() {
            for (obj, seq) in std::mem::take(&mut c.live[cache]) {
                c.check(cache, obj, seq);
                // SAFETY: as in `exec`.
                unsafe { self.caches[cache].free(obj) };
            }
        }
    }

    fn verify(&self, _models: Vec<()>) {
        // Every object was checked when freed; teardown checks that
        // none is left live.
    }

    fn bed(&self) -> &Testbed {
        &self.bed
    }

    fn caches(&self) -> Vec<Arc<dyn ObjectAllocator>> {
        self.caches.clone()
    }

    fn into_bed(self) -> Testbed {
        self.bed
    }
}
