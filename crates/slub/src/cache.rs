//! The baseline slab cache.

use std::sync::{Arc, Weak};

use pbs_alloc_api::frame::{obj_at, Node};
use pbs_alloc_api::{AllocError, CacheFrame, CachePolicy, ListKind, ObjPtr, RawSlab, SizingPolicy};
use pbs_mem::PageAllocator;
use pbs_rcu::reclaim::{EpochDomain, ReclaimClient, ReclamationDomain};
use pbs_rcu::Rcu;
use pbs_telemetry::EventKind;

/// Degradation knobs for the baseline cache.
///
/// The defaults match the Prudence cache's (`PrudenceConfig`) so the
/// hardened comparison stays fair. Setting `oom_retries` to zero disables
/// the recovery ladder entirely, reproducing the paper's unhardened
/// baseline that reports out-of-memory on the first slab-grow failure —
/// the endurance experiment (Figure 3) pins that configuration.
#[derive(Debug, Clone)]
pub struct SlubTuning {
    /// Deferred-backlog soft watermark (pressure level 1: expedite GPs).
    pub soft_watermark: usize,
    /// Deferred-backlog hard watermark (pressure level 2: freeing threads
    /// assist reclaim).
    pub hard_watermark: usize,
    /// Recovery-ladder rungs to climb before reporting OOM; zero turns
    /// the ladder off.
    pub oom_retries: usize,
}

impl Default for SlubTuning {
    fn default() -> Self {
        Self {
            soft_watermark: 4096,
            hard_watermark: 16384,
            oom_retries: 4,
        }
    }
}

/// A SLUB-style slab cache for fixed-size objects: the shared
/// [`CacheFrame`] with first-partial refill, flush-in-halves, and deferred
/// frees that stay invisible until an RCU callback returns them.
///
/// See the [crate-level documentation](crate) for the role this type plays
/// in the reproduction and an example.
pub struct SlubCache {
    frame: CacheFrame<(), RawSlab>,
    weak_self: Weak<SlubCache>,
}

impl std::fmt::Debug for SlubCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlubCache")
            .field("name", &self.frame.name())
            .field("object_size", &self.frame.sizing.object_size)
            .finish()
    }
}

impl SlubCache {
    /// Creates a cache for `object_size`-byte objects with `ncpus` per-CPU
    /// object caches, growing from `pages` and deferring frees through
    /// `rcu`.
    ///
    /// # Panics
    ///
    /// Panics if `object_size` is zero or too large for the maximum slab
    /// order, or `ncpus` is zero.
    pub fn new(
        name: &str,
        object_size: usize,
        ncpus: usize,
        pages: Arc<PageAllocator>,
        rcu: Arc<Rcu>,
    ) -> Arc<Self> {
        Self::with_tuning(name, object_size, ncpus, SlubTuning::default(), pages, rcu)
    }

    /// Like [`new`](Self::new) with explicit degradation knobs. The hard
    /// watermark is clamped to at least the soft one so the pressure
    /// levels stay ordered.
    pub fn with_tuning(
        name: &str,
        object_size: usize,
        ncpus: usize,
        tuning: SlubTuning,
        pages: Arc<PageAllocator>,
        rcu: Arc<Rcu>,
    ) -> Arc<Self> {
        let domain: Arc<dyn ReclamationDomain> = Arc::new(EpochDomain::new(rcu));
        Self::with_domain(name, object_size, ncpus, tuning, pages, domain)
    }

    /// Like [`with_tuning`](Self::with_tuning), but integrated with an
    /// explicit [`ReclamationDomain`] instead of the default epoch
    /// backend. With a robust backend (`hp`/`hyaline`) deferred frees
    /// bypass `call_rcu` and route through the domain; with the epoch
    /// backend the cache behaves exactly like the baseline.
    pub fn with_domain(
        name: &str,
        object_size: usize,
        ncpus: usize,
        tuning: SlubTuning,
        pages: Arc<PageAllocator>,
        domain: Arc<dyn ReclamationDomain>,
    ) -> Arc<Self> {
        let frame = CacheFrame::new(
            name,
            object_size,
            ncpus,
            (tuning.soft_watermark, tuning.hard_watermark),
            tuning.oom_retries,
            pages,
            Arc::clone(domain.rcu()),
        );
        let cache = Arc::new_cyclic(|weak_self| Self {
            frame,
            weak_self: weak_self.clone(),
        });
        let weak = cache.weak_self.clone() as Weak<dyn ReclaimClient>;
        cache.frame.attach(domain, weak);
        cache
    }

    /// The reclamation domain this cache is attached to.
    pub fn reclaim_domain(&self) -> &Arc<dyn ReclamationDomain> {
        &self.frame.hook().domain
    }

    /// The sizing policy in effect (shared with Prudence for fairness).
    pub fn policy(&self) -> &SizingPolicy {
        &self.frame.sizing
    }

    /// Ladder rungs 2/3: complete a grace period, then give the domain's
    /// reclaimer threads a bounded window to return deferred objects
    /// (unlike Prudence, the baseline cannot merge them itself — they only
    /// come back through RCU callbacks).
    fn await_deferred_drain(&self, expedited: bool) {
        let before = self.frame.deferred_outstanding();
        if self.frame.hook().robust {
            // Robust backends deliver synchronously from the drain; no
            // reclaimer-thread window needed afterwards.
            self.frame.synchronize(expedited);
            return;
        }
        if expedited {
            self.frame.rcu.synchronize_expedited();
        } else {
            self.frame.rcu.synchronize();
        }
        for _ in 0..64 {
            if self.frame.deferred_outstanding() < before {
                break;
            }
            std::thread::sleep(std::time::Duration::from_micros(50));
        }
    }

    /// Returns a deferred object to this allocator once its grace period
    /// is over: the moment the baseline makes it reusable, on the stack of
    /// the CPU running the return. Both return routes (direct `call_rcu`
    /// and domain delivery) end here.
    fn release_deferred(&self, obj: ObjPtr) {
        let frame = &self.frame;
        let (cpu_idx, mut slot) = frame.lock_cpu();
        // Credit site attribution here so both return routes close the
        // defer stamp. Slot lock held → lane owned.
        pbs_telemetry::site::note_reclaimed(obj.addr());
        frame.note_reclaimed(1);
        frame.stats.ring.record(
            cpu_idx,
            EventKind::DeferredReusable,
            frame.stats.id(),
            obj.addr() as u64,
            0,
        );
        frame.stash(self, cpu_idx, &mut slot, &[obj]);
    }
}

impl CachePolicy for SlubCache {
    type Slot = ();
    type Slab = RawSlab;

    #[inline]
    fn frame(&self) -> &CacheFrame<(), RawSlab> {
        &self.frame
    }

    /// SLUB refill: take from the first partial slab, then free slabs,
    /// then grow; a partial batch is still usable when pages run out.
    fn refill(
        &self,
        cpu_idx: usize,
        _slot: &mut (),
        want: usize,
        batch: &mut Vec<ObjPtr>,
    ) -> Result<(), AllocError> {
        self.frame.stats.shard(cpu_idx).refills.bump();
        let mut node = self.frame.lock_node();
        let mut remaining = want.min(self.frame.sizing.object_cache_size);
        while remaining > 0 {
            let slab_index = match node
                .lists
                .first(ListKind::Partial)
                .or_else(|| node.lists.first(ListKind::Free))
            {
                Some(index) => index,
                None => match self.frame.grow(&mut node, pbs_fault::site::SLUB_GROW) {
                    Ok(index) => index,
                    Err(_) if !batch.is_empty() => break,
                    Err(e) => return Err(e.into()),
                },
            };
            remaining -= node.slab_mut(slab_index).take(remaining, batch);
            node.relist(slab_index);
        }
        Ok(())
    }

    fn defer(&self, obj: ObjPtr) -> Option<(usize, usize)> {
        let frame = &self.frame;
        // Count under the slot lock: `live_delta` is a single-writer
        // counter also updated by the locked alloc/free paths with plain
        // load+store pairs, so a lock-free update here could land between
        // a holder's load and store and be silently overwritten. The lock
        // is dropped before the `call_rcu` box allocation below.
        let transition = {
            let (cpu_idx, _slot) = frame.lock_cpu();
            frame.count_deferred_free(cpu_idx);
            let (outstanding, transition) = frame.defer_one();
            frame.stats.ring.record(
                cpu_idx,
                EventKind::DeferredFree,
                frame.stats.id(),
                obj.addr() as u64,
                0,
            );
            frame.record_pressure_change(cpu_idx, transition, outstanding);
            transition
        };
        let hook = frame.hook();
        if hook.robust {
            // Robust backends own the backlog: the object enters the
            // domain and comes back through `reclaim_addrs` →
            // `release_deferred` once proven unreachable.
            hook.domain.defer(hook.client, obj.addr());
        } else {
            // The baseline behaviour under test: the allocator registers an
            // RCU callback and the object stays invisible to it until
            // background reclaim runs the callback. The callback holds only
            // a weak reference — a strong one would cycle through the RCU
            // queues and keep cache and domain alive forever. If the cache
            // is gone by the time the callback runs, its slabs (and the
            // object) were already returned wholesale, so dropping the
            // pointer is correct.
            let weak = self.weak_self.clone();
            frame.rcu.call_rcu(Box::new(move || {
                if let Some(cache) = weak.upgrade() {
                    cache.release_deferred(obj);
                }
            }));
        }
        transition
    }

    /// The baseline's analogue of the Prudence ladder, so degradation
    /// behaviour is comparable. Every rung ends by draining every CPU's
    /// stack: free objects parked on other CPUs — including deferred
    /// objects the reclaimer threads just returned to their own CPUs —
    /// become refillable. Rung 1 does only that, with no grace-period
    /// wait.
    fn recovery_rung(&self, rung: usize) {
        if rung > 1 {
            self.await_deferred_drain(rung == 2);
        }
        self.frame.flush_fastpath(self);
    }

    /// For the epoch backend: get the RCU callbacks runnable and cede the
    /// CPU to the reclaimers; for robust backends one bounded scan/seal
    /// step.
    fn assist_reclaim(&self) {
        let hook = self.frame.hook();
        if hook.robust {
            hook.domain.advance();
        } else {
            self.frame.rcu.expedite();
        }
        std::thread::yield_now();
    }

    /// Returns free slabs beyond the threshold to the page allocator.
    fn shrink(&self, node: &mut Node<RawSlab>) {
        while node.lists.len(ListKind::Free) > self.frame.sizing.free_slabs_limit {
            let index = node
                .lists
                .first(ListKind::Free)
                .expect("free list non-empty");
            debug_assert!(node.slab(index).is_free());
            self.frame.release_slab(node, index);
        }
    }

    fn drain_deferred(&self) {
        let hook = self.frame.hook();
        if hook.robust {
            hook.domain.synchronize();
        } else {
            self.frame.rcu.barrier();
        }
    }
}

impl ReclaimClient for SlubCache {
    /// Domain delivery: each address re-enters through the deferred
    /// release path, which owns the pending-count and pressure
    /// bookkeeping. Runs with no domain locks held and never re-enters
    /// the domain.
    fn reclaim_addrs(&self, addrs: &[usize]) {
        for &addr in addrs {
            // SAFETY: the domain only returns addresses this cache
            // deferred into it, each exactly once.
            self.release_deferred(unsafe { obj_at(addr) });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbs_alloc_api::ObjectAllocator;

    fn cache(size: usize) -> (Arc<SlubCache>, Arc<PageAllocator>, Arc<Rcu>) {
        let pages = Arc::new(PageAllocator::new());
        let rcu = Arc::new(Rcu::with_config(pbs_rcu::RcuConfig::eager()));
        let c = SlubCache::new("t", size, 2, Arc::clone(&pages), Arc::clone(&rcu));
        (c, pages, rcu)
    }

    #[test]
    fn allocate_free_roundtrip() {
        let (c, _p, _r) = cache(64);
        let a = c.allocate().unwrap();
        let b = c.allocate().unwrap();
        assert_ne!(a, b);
        unsafe {
            c.free(a);
            c.free(b);
        }
        let s = c.stats();
        assert_eq!(s.alloc_requests, 2);
        assert_eq!(s.frees, 2);
        assert_eq!(s.live_objects, 0);
    }

    #[test]
    fn first_allocation_misses_then_hits() {
        let (c, _p, _r) = cache(64);
        let a = c.allocate().unwrap();
        let b = c.allocate().unwrap();
        let s = c.stats();
        assert_eq!(s.refills, 1);
        assert_eq!(s.cache_hits, 1); // second alloc served from the refill
        unsafe {
            c.free(a);
            c.free(b);
        }
    }

    #[test]
    fn objects_are_writable_and_distinct() {
        let (c, _p, _r) = cache(128);
        let objs: Vec<ObjPtr> = (0..50).map(|_| c.allocate().unwrap()).collect();
        for (i, o) in objs.iter().enumerate() {
            unsafe { o.as_ptr().cast::<u64>().write(i as u64) };
        }
        for (i, o) in objs.iter().enumerate() {
            assert_eq!(unsafe { o.as_ptr().cast::<u64>().read() }, i as u64);
        }
        for o in objs {
            unsafe { c.free(o) };
        }
    }

    #[test]
    fn grow_and_shrink_cycle() {
        let (c, pages, _r) = cache(512);
        let per_slab = c.policy().objects_per_slab;
        let objs: Vec<ObjPtr> = (0..per_slab * 20).map(|_| c.allocate().unwrap()).collect();
        assert!(c.stats().grows >= 20);
        assert!(pages.used_bytes() > 0);
        for o in objs {
            unsafe { c.free(o) };
        }
        let s = c.stats();
        assert!(s.shrinks > 0, "freeing everything should shrink: {s:?}");
        // Slabs still referenced by the per-CPU stacks stay partial;
        // everything beyond those plus the free-slab threshold must have
        // shrunk.
        let stacked_slabs = (pbs_percpu::nslots() * c.frame.fast.capacity())
            .div_ceil(c.policy().objects_per_slab);
        assert!(
            s.slabs_current <= c.policy().free_slabs_limit + stacked_slabs + 1,
            "retained too many slabs: {s:?}"
        );
    }

    #[test]
    fn deferred_free_goes_through_rcu() {
        let (c, _p, rcu) = cache(256);
        let objs: Vec<ObjPtr> = (0..10).map(|_| c.allocate().unwrap()).collect();
        for o in objs {
            unsafe { c.free_deferred(o) };
        }
        assert_eq!(c.stats().deferred_frees, 10);
        c.quiesce();
        assert_eq!(rcu.callback_backlog(), 0);
        // After quiesce the objects are reusable: allocate again without
        // growing further.
        let grows_before = c.stats().grows;
        let again: Vec<ObjPtr> = (0..10).map(|_| c.allocate().unwrap()).collect();
        assert_eq!(c.stats().grows, grows_before);
        for o in again {
            unsafe { c.free(o) };
        }
    }

    #[test]
    fn deferred_objects_not_reused_before_grace_period() {
        // With a reader pinned, deferred objects must not come back from
        // allocate() (their memory could still be read).
        let pages = Arc::new(PageAllocator::new());
        let rcu = Arc::new(Rcu::with_config(pbs_rcu::RcuConfig::eager()));
        let c = SlubCache::new("t", 64, 1, pages, Arc::clone(&rcu));
        let reader = rcu.register();

        let a = c.allocate().unwrap();
        let guard = reader.read_lock();
        unsafe { c.free_deferred(a) };
        std::thread::sleep(std::time::Duration::from_millis(20));
        // Drain the cpu cache worth of allocations; none may equal `a`.
        let objs: Vec<ObjPtr> = (0..c.policy().object_cache_size * 2)
            .map(|_| c.allocate().unwrap())
            .collect();
        assert!(objs.iter().all(|&o| o != a), "deferred object reused early");
        drop(guard);
        for o in objs {
            unsafe { c.free(o) };
        }
        c.quiesce();
    }

    #[test]
    fn concurrent_alloc_free_stress() {
        let (c, _p, _r) = cache(64);
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    let mut held = Vec::new();
                    for i in 0..5_000 {
                        held.push(c.allocate().unwrap());
                        if i % 3 == 0 {
                            if let Some(o) = held.pop() {
                                unsafe { c.free(o) };
                            }
                        }
                        if held.len() > 100 {
                            for o in held.drain(..) {
                                unsafe { c.free(o) };
                            }
                        }
                    }
                    for o in held {
                        unsafe { c.free(o) };
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.stats().live_objects, 0);
    }

    #[test]
    fn oom_propagates() {
        let pages = Arc::new(PageAllocator::builder().limit_bytes(8 * 4096).build());
        let rcu = Arc::new(Rcu::with_config(pbs_rcu::RcuConfig::eager()));
        let c = SlubCache::new("t", 2048, 1, pages, rcu);
        let mut objs = Vec::new();
        let err = loop {
            match c.allocate() {
                Ok(o) => objs.push(o),
                Err(e) => break e,
            }
        };
        assert_eq!(err, AllocError::OutOfMemory);
        for o in objs {
            unsafe { c.free(o) };
        }
    }

    #[test]
    fn deferred_outstanding_drains_on_quiesce() {
        let (c, _p, _r) = cache(64);
        assert_eq!(c.deferred_outstanding(), 0);
        let objs: Vec<ObjPtr> = (0..10).map(|_| c.allocate().unwrap()).collect();
        for o in objs {
            unsafe { c.free_deferred(o) };
        }
        assert_eq!(c.deferred_outstanding(), 10);
        c.quiesce();
        assert_eq!(c.deferred_outstanding(), 0);
    }

    #[test]
    fn telemetry_traces_deferred_lifecycle() {
        let (c, _p, _rcu) = cache(64);
        let a = c.allocate().unwrap();
        unsafe { c.free_deferred(a) };
        c.quiesce();
        let t = c.telemetry();
        assert_eq!(t.count_of(pbs_telemetry::EventKind::DeferredFree), 1);
        assert_eq!(t.count_of(pbs_telemetry::EventKind::DeferredReusable), 1);
        assert!(t.count_of(pbs_telemetry::EventKind::SlabGrow) >= 1);
        assert!(t.histogram("slot_wait_ns").is_some());
    }

    #[test]
    fn robust_backends_bound_garbage_under_a_stalled_reader() {
        use pbs_rcu::reclaim::{domain_for, ReclaimBackend, ReclaimConfig};
        for backend in [ReclaimBackend::Hp, ReclaimBackend::Hyaline] {
            let pages = Arc::new(PageAllocator::new());
            let rcu = Arc::new(Rcu::with_config(pbs_rcu::RcuConfig::eager()));
            let domain = domain_for(Arc::clone(&rcu), backend, ReclaimConfig::aggressive());
            let c = SlubCache::with_domain(
                "t",
                64,
                2,
                SlubTuning::default(),
                Arc::clone(&pages),
                domain,
            );
            let reader = rcu.register();
            let guard = reader.read_lock();
            let objs: Vec<ObjPtr> = (0..512).map(|_| c.allocate().unwrap()).collect();
            for o in objs {
                unsafe { c.free_deferred(o) };
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
            c.reclaim_domain().advance();
            let outstanding = c.deferred_outstanding();
            assert!(
                outstanding <= 128,
                "{backend}: stalled reader pinned {outstanding} objects"
            );
            // The epoch baseline in the same position wedges at 512; see
            // the chaos stalled-reader scenario for the gated contrast.
            c.quiesce();
            assert_eq!(c.deferred_outstanding(), 0, "{backend}: quiesce under pin");
            drop(guard);
            drop(c);
            assert_eq!(pages.used_bytes(), 0, "{backend}: pages leaked");
        }
    }
}
