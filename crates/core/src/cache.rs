//! The Prudence slab cache: Algorithm 1 of the paper plus the §4.2
//! optimizations, as policy hooks on the shared cache frame.

use std::sync::{Arc, Weak};
use std::thread::JoinHandle;

use crossbeam::channel::{unbounded, Sender};
use parking_lot::{Mutex, MutexGuard};

use pbs_alloc_api::frame::obj_at;
use pbs_alloc_api::slab_layout::resolve_slab_index;
use pbs_alloc_api::{AllocError, CacheFrame, CachePolicy, ListKind, ObjPtr, SizingPolicy};
use pbs_mem::PageAllocator;
use pbs_rcu::reclaim::{EpochDomain, ReclaimClient, ReclamationDomain};
use pbs_rcu::{GpState, Rcu};
use pbs_telemetry::EventKind;

use crate::config::PrudenceConfig;
use crate::cpu_state::{CpuState, LatentEntry};
use crate::node::{reclaim_pending, Node, PrudentSlab};
use crate::preflush::preflush_worker;

/// A Prudence slab cache for fixed-size objects.
///
/// See the [crate-level documentation](crate) for the design overview and
/// an example. The cache owns a background pre-flush worker; dropping the
/// cache joins the worker and returns every slab to the page allocator
/// deterministically.
pub struct PrudenceCache {
    core: Arc<Core>,
    config: PrudenceConfig,
    /// Pre-flush request channel (slot index, stack depth the trigger
    /// read); taken (closed) when the cache drops.
    preflush_tx: Mutex<Option<Sender<(usize, usize)>>>,
    worker: Option<JoinHandle<()>>,
}

/// The frame plus the latent machinery that needs nothing else. Shared
/// with the pre-flush worker (through a `Weak`) and with the reclamation
/// domain, which delivers reclaimed objects to it.
pub(crate) struct Core {
    frame: CacheFrame<CpuState, PrudentSlab>,
}

impl std::fmt::Debug for PrudenceCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrudenceCache")
            .field("name", &self.core.frame.name())
            .field("object_size", &self.core.frame.sizing.object_size)
            .field(
                "deferred_outstanding",
                &self.core.frame.deferred_outstanding(),
            )
            .finish()
    }
}

impl PrudenceCache {
    /// Creates a cache for `object_size`-byte objects.
    ///
    /// The sizing heuristics are identical to the baseline allocator's
    /// (paper §4.3); only reclamation differs.
    ///
    /// # Panics
    ///
    /// Panics if `object_size` is zero or too large for the maximum slab
    /// order.
    pub fn new(
        name: &str,
        object_size: usize,
        config: PrudenceConfig,
        pages: Arc<PageAllocator>,
        rcu: Arc<Rcu>,
    ) -> Self {
        let domain: Arc<dyn ReclamationDomain> = Arc::new(EpochDomain::new(Arc::clone(&rcu)));
        Self::with_domain(name, object_size, config, pages, domain)
    }

    /// Like [`new`](Self::new), but integrated with an explicit
    /// [`ReclamationDomain`] instead of the default epoch backend. With a
    /// *robust* backend (`hp`/`hyaline`) deferred frees bypass the latent
    /// caches and route through the domain, which bounds the garbage one
    /// stalled reader can pin; with the epoch backend the cache behaves
    /// exactly like [`new`](Self::new) (the paper's scheme).
    pub fn with_domain(
        name: &str,
        object_size: usize,
        config: PrudenceConfig,
        pages: Arc<PageAllocator>,
        domain: Arc<dyn ReclamationDomain>,
    ) -> Self {
        let frame = CacheFrame::new(
            name,
            object_size,
            config.ncpus,
            (config.soft_watermark, config.hard_watermark),
            config.oom_retries,
            pages,
            Arc::clone(domain.rcu()),
        );
        let core = Arc::new(Core { frame });
        let weak = Arc::downgrade(&core) as Weak<dyn ReclaimClient>;
        core.frame.attach(domain, weak);
        let (tx, rx) = unbounded();
        let worker = config.preflush.then(|| {
            let weak = Arc::downgrade(&core);
            std::thread::Builder::new()
                .name(format!("prudence-preflush-{name}"))
                .spawn(move || preflush_worker(weak, rx))
                .expect("spawn preflush worker")
        });
        Self {
            core,
            preflush_tx: Mutex::new(config.preflush.then_some(tx)),
            config,
            worker,
        }
    }

    /// The sizing policy in effect.
    pub fn policy(&self) -> &SizingPolicy {
        &self.core.frame.sizing
    }

    /// The reclamation domain this cache is attached to.
    pub fn reclaim_domain(&self) -> &Arc<dyn ReclamationDomain> {
        &self.core.frame.hook().domain
    }

    /// Ladder rung 1: drain the stacks, move this thread's latent cache to
    /// its latent slabs and sweep the node's pending list at the current
    /// epoch — no grace-period wait. Often enough when the backlog is
    /// merely parked in the latent cache past its grace period.
    fn oom_flush_local(&self) {
        self.frame().flush_fastpath(self);
        let moved: Vec<LatentEntry> = self.frame().lock_cpu().1.latent.drain(..).collect();
        self.core.defer_to_slabs(&moved);
        let (mut node, _, _) = self.core.sweep_pending();
        self.core.shrink(&mut node);
    }

    /// Slab selection for refill (Algorithm lines 17-21 plus the Figure 5
    /// fragmentation optimization): fills `out` with the slabs to take
    /// from, best last (the caller pops). Ranks at most
    /// `slab_scan_window` slabs of the partial list, all of which have
    /// free objects (see [`PrudentSlab::classify`]) — once per window, not
    /// once per slab taken, since taking from one slab leaves the others'
    /// ranks unchanged — and lazily reclaims completed deferred objects of
    /// every slab it inspects. Falls back to one free-list slab.
    fn select_slabs(
        &self,
        node: &mut Node,
        epoch: u64,
        allow_deferred_heavy: bool,
        out: &mut Vec<usize>,
    ) {
        let window = self.config.slab_scan_window;
        let mut ranked = Vec::new();
        for pos in 0..node.lists.len(ListKind::Partial).min(window) {
            let index = node.lists.list(ListKind::Partial)[pos];
            let slab = node.slab_mut(index);
            self.frame().note_reclaimed(slab.reclaim_completed(epoch));
            let free = slab.raw.free_count();
            let allocated = slab.raw.allocated_count();
            let deferred = slab.deferred.len();
            debug_assert!(free > 0, "partial slab {index} has no free objects");
            if !self.config.deferred_aware_selection {
                // Baseline behaviour: partial slabs in list order.
                ranked.push(((0, 0, pos), index));
                continue;
            }
            // Skip slabs whose allocated objects are mostly deferred: the
            // whole slab is likely to become free (returnable) soon.
            if !allow_deferred_heavy && allocated > 0 && deferred * 4 >= allocated * 3 {
                continue;
            }
            // Minimize total fragmentation: prefer slabs with no deferred
            // objects, then the fullest candidate (best-fit keeps sparse
            // slabs draining toward free).
            ranked.push(((deferred, free, pos), index));
        }
        ranked.sort_unstable_by(|a, b| b.cmp(a));
        out.extend(ranked.into_iter().map(|(_, index)| index));
        if !out.is_empty() {
            return;
        }
        // Free list next (lines 20-21); prefer slabs without pending
        // deferred objects — slabs that are entirely "about to be free"
        // should be left alone so their pages can be returned.
        let free_list: Vec<usize> = node.lists.list(ListKind::Free).to_vec();
        let mut fallback = None;
        for index in free_list {
            let slab = node.slab_mut(index);
            self.frame().note_reclaimed(slab.reclaim_completed(epoch));
            if slab.raw.free_count() == 0 {
                node.relist(index);
                continue;
            }
            if slab.deferred.is_empty() {
                out.push(index);
                return;
            }
            if allow_deferred_heavy && fallback.is_none() {
                fallback = Some(index);
            }
        }
        out.extend(fallback);
    }

    /// Schedules an idle-time pre-flush for a CPU slot (lines 41-43),
    /// passing the stack depth the trigger read.
    fn schedule_preflush(&self, cpu_idx: usize, cpu: &mut CpuState, depth: usize) {
        if !self.config.preflush || cpu.preflush_pending {
            return;
        }
        if let Some(tx) = self.preflush_tx.lock().as_ref() {
            cpu.preflush_pending = true;
            let _ = tx.send((cpu_idx, depth));
        }
    }

    /// OOM deferral (lines 31-32): flush latent caches toward slabs, wait
    /// for a grace period (`expedited` drives it eagerly), reclaim
    /// everything reclaimable.
    fn emergency_reclaim(&self, expedited: bool) {
        self.frame().flush_fastpath(self);
        self.frame().synchronize(expedited);
        self.core.flush_latent_caches();
        let (mut node, reclaimed, epoch) = self.core.sweep_pending();
        // Node lock held: the node lane is ours to write.
        self.frame()
            .stats
            .record_node_event(EventKind::OomDefer, reclaimed as u64, epoch);
        self.core.shrink(&mut node);
    }

    /// The slot-locked tail of the epoch-backend defer: admit `obj` into
    /// the latent cache or move it (and any overflow) to its latent slab.
    /// Consumes the guard so every early return drops the slot lock.
    fn stamp_latent(
        &self,
        cpu_idx: usize,
        mut cpu: MutexGuard<'_, CpuState>,
        obj: ObjPtr,
        gp: GpState,
        queued_ns: u64,
    ) {
        if !self.config.latent_cache {
            drop(cpu);
            self.core.defer_to_slabs(&[(obj, gp, queued_ns)]);
            return;
        }
        let frame = self.frame();
        let threshold = frame.sizing.object_cache_size;
        if cpu.latent.len() < threshold {
            // Fast path (lines 39-44).
            cpu.latent.push_back((obj, gp, queued_ns));
            let depth = frame.fast.depth();
            if depth + cpu.latent.len() > threshold {
                self.schedule_preflush(cpu_idx, &mut cpu, depth);
            }
            return;
        }
        // Slow path (lines 45-51): make room by merging onto the stack
        // (which flushes proportionally if it fills), retry, else latent
        // slab.
        self.merge_onto_stack(cpu_idx, &mut cpu, queued_ns);
        if cpu.latent.len() < threshold {
            cpu.latent.push_back((obj, gp, queued_ns));
        } else {
            // Move the older half of the latent cache to its latent slabs
            // in one node-lock acquisition, then admit the new object.
            // Per-object eviction would serialize sustained defer streams
            // on the node lock; batching keeps the amortized cost O(1)
            // while preserving the lines 49-51 semantics.
            let n = (threshold / 2 + 1).min(threshold);
            // Draining from the front keeps stamps non-decreasing, the
            // order latent slabs rely on.
            let moved: Vec<LatentEntry> = cpu.latent.drain(..n).collect();
            cpu.latent.push_back((obj, gp, queued_ns));
            frame.stats.ring.record(
                cpu_idx,
                EventKind::LatentFlush,
                frame.stats.id(),
                moved.len() as u64,
                cpu.latent.len() as u64,
            );
            drop(cpu);
            self.core.defer_to_slabs(&moved);
        }
    }

    /// Merges the locked slot's grace-period-complete latent objects onto
    /// this CPU's stack (MERGE_CACHES; see [`Core::merge_caches`]).
    fn merge_onto_stack(&self, cpu_idx: usize, cpu: &mut CpuState, now_hint: u64) {
        let frame = self.frame();
        let mut merged = Vec::new();
        let size = frame.sizing.object_cache_size;
        self.core
            .merge_caches(cpu_idx, cpu, size, &mut merged, now_hint);
        frame.stash(self, cpu_idx, cpu, &merged);
    }
}

impl Drop for PrudenceCache {
    fn drop(&mut self) {
        // Closing the channel wakes the worker; it holds only a Weak, so it
        // can never be the thread running this Drop.
        self.preflush_tx.lock().take();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
        // With the worker joined, this is the last `Core` reference unless
        // the domain is delivering: the frame drops with it, returning all
        // slabs.
    }
}

impl Core {
    /// Locks the node and merges its grace-period-complete latent-slab
    /// objects back into their slabs at the current epoch (read before
    /// locking). Returns the locked node, how many objects came back, and
    /// the epoch swept at.
    fn sweep_pending(&self) -> (MutexGuard<'_, Node>, usize, u64) {
        let epoch = self.frame.rcu.current_epoch();
        let mut node = self.frame.lock_node();
        let reclaimed = reclaim_pending(&mut node, epoch);
        self.frame.note_reclaimed(reclaimed);
        (node, reclaimed, epoch)
    }

    /// MERGE_CACHES wrapper: moves up to `capacity` reusable latent
    /// objects into `out`, bound for the stack, maintains the
    /// outstanding-deferred count,
    /// records the defer→reusable delay of each merged object, and traces
    /// the merge. `cpu_idx` is the slot whose lock the caller holds — it
    /// picks the stats shard's trace lane (single-writer under that lock).
    /// `now_hint` forwards a clock value the caller already read (0 =
    /// none), so tracing costs at most one clock read per operation.
    fn merge_caches(
        &self,
        cpu_idx: usize,
        cpu: &mut CpuState,
        capacity: usize,
        out: &mut Vec<ObjPtr>,
        now_hint: u64,
    ) -> usize {
        let frame = &self.frame;
        let now = if now_hint != 0 {
            now_hint
        } else if pbs_telemetry::enabled() {
            pbs_telemetry::now_nanos()
        } else {
            0
        };
        let merged = cpu.merge_caches(
            frame.rcu.current_epoch(),
            capacity,
            out,
            |obj, queued_ns| {
                pbs_telemetry::site::note_reclaimed(obj.addr());
                if now != 0 && queued_ns != 0 {
                    frame
                        .stats
                        .defer_delay_ns
                        .record(now.saturating_sub(queued_ns));
                }
            },
        );
        frame.note_reclaimed(merged);
        if merged > 0 {
            // Reuse the clock read from the delay samples above.
            frame.stats.ring.record_at(
                cpu_idx,
                now,
                EventKind::LatentMerge,
                frame.stats.id(),
                merged as u64,
                cpu.latent.len() as u64,
            );
        }
        merged
    }

    /// Moves deferred objects into their latent slabs, pre-moving slabs
    /// to the free list (Algorithm lines 49-59). Entries' defer-time clocks
    /// are dropped here: latent-slab objects rejoin circulation through
    /// whole-slab reclamation, which has no single defer to attribute.
    fn defer_to_slabs(&self, objs: &[LatentEntry]) {
        if objs.is_empty() {
            return;
        }
        let mut node = self.frame.lock_node();
        for &(obj, gp, _) in objs {
            // SAFETY: deferred objects come from this cache; node lock held.
            let index = unsafe { resolve_slab_index(obj, self.frame.sizing.slab_bytes) };
            let slab = node.slab_mut(index);
            let obj_index = slab.raw.index_of(obj);
            let first_pending = slab.deferred.is_empty();
            slab.deferred.push_back((obj_index, gp));
            if first_pending {
                node.ext.pending.push_back(index);
            }
            if node.relist(index) {
                // Single-writer: the node lock is held on every path here
                // (and it also owns the node trace lane).
                self.frame.stats.shard(0).pre_movements.bump();
                self.frame.stats.record_node_event(
                    EventKind::SlabPremove,
                    index as u64,
                    gp.raw_epoch(),
                );
            }
        }
        self.shrink(&mut node);
    }

    /// Latent-cache pre-flush, run by the idle worker (§4.2): moves the
    /// deferred objects by which the stack (at the `depth` the trigger
    /// read) and the latent cache together exceed the object-cache size to
    /// their latent slabs, oldest first. When the recent allocation rate
    /// exceeds the free/defer rate the pre-flush is lazier (allocation
    /// will drain the stack anyway).
    ///
    /// The paper also merges grace-period-complete objects here. The
    /// worker cannot push onto the owner's stack, so such objects leave
    /// with the oldest and come back through the node sweep instead.
    pub(crate) fn preflush(&self, cpu_idx: usize, depth: usize) {
        let mut cpu = self.frame.slots()[cpu_idx].lock();
        cpu.preflush_pending = false;
        // Single-writer: only the pre-flush worker bumps this, and only
        // while holding the matching slot lock.
        self.frame.stats.shard(cpu_idx).preflushes.bump();
        let size = self.frame.sizing.object_cache_size;
        let total = depth + cpu.latent.len();
        if total <= size {
            return;
        }
        let mut excess = total - size;
        if cpu.allocs_since > cpu.frees_since + cpu.defers_since {
            excess = excess.div_ceil(2);
        }
        cpu.allocs_since = 0;
        cpu.frees_since = 0;
        cpu.defers_since = 0;
        let n = excess.min(cpu.latent.len());
        let moved: Vec<LatentEntry> = cpu.latent.drain(..n).collect();
        self.frame.stats.ring.record(
            cpu_idx,
            EventKind::LatentPreflush,
            self.frame.stats.id(),
            moved.len() as u64,
            cpu.latent.len() as u64,
        );
        self.defer_to_slabs(&moved);
    }

    /// Moves every slot's latent cache to its latent slabs, so a node
    /// sweep can reclaim the completed objects and free whole slabs.
    fn flush_latent_caches(&self) {
        for state in self.frame.slots() {
            let moved: Vec<LatentEntry> = state.lock().latent.drain(..).collect();
            self.defer_to_slabs(&moved);
        }
    }

    /// SHRINK (line 59): returns fully-free slabs beyond the threshold to
    /// the page allocator. Slabs pre-moved to the free list whose deferred
    /// objects are still inside a grace period are *not* releasable yet.
    ///
    /// The threshold "acts with caution by considering the number of
    /// deferred objects waiting for reclamation" (§3.1): objects that will
    /// be reusable after the grace period are about to be demanded again,
    /// so their slabs are kept rather than churned through the page
    /// allocator. When the deferred backlog drains, the threshold falls
    /// back to the baseline heuristic and memory is returned.
    pub(crate) fn shrink(&self, node: &mut Node) {
        let frame = &self.frame;
        let pending_slabs = frame
            .deferred_outstanding()
            .div_ceil(frame.sizing.objects_per_slab);
        // Proportional slack (an emptiness threshold in the Hoard spirit):
        // under a sustained defer/alloc cycle the free list legitimately
        // oscillates by a grace period's worth of slabs, so keep a
        // fraction of the cache as slack instead of churning those slabs
        // through the page allocator. Repeated shrinks still converge to
        // `free_slabs_limit` once the cache goes idle.
        let limit = frame.sizing.free_slabs_limit.max(node.live_slabs() / 2) + pending_slabs;
        if node.lists.len(ListKind::Free) <= limit {
            node.ext.shrink_excess_since = None;
            return;
        }
        // Temporal hysteresis: a reclamation burst can briefly push the
        // free list over the limit even though the very next grace window
        // of allocations will re-demand those slabs. Only release slabs
        // once the excess has persisted for a full grace period — the same
        // prudence argument (§3.1) applied to pages instead of objects. An
        // idle cache still converges: quiesce advances epochs until the
        // stamp completes.
        match node.ext.shrink_excess_since {
            None => {
                node.ext.shrink_excess_since = Some(frame.rcu.gp_state());
                return;
            }
            Some(since) if !since.is_completed_at(frame.rcu.current_epoch()) => return,
            Some(_) => node.ext.shrink_excess_since = None,
        }
        let epoch = frame.rcu.current_epoch();
        let candidates: Vec<usize> = node.lists.list(ListKind::Free).to_vec();
        for index in candidates {
            if node.lists.len(ListKind::Free) <= limit {
                break;
            }
            let slab = node.slab_mut(index);
            frame.note_reclaimed(slab.reclaim_completed(epoch));
            if slab.releasable() {
                frame.release_slab(node, index);
            }
        }
    }
}

impl CachePolicy for PrudenceCache {
    type Slot = CpuState;
    type Slab = PrudentSlab;

    #[inline]
    fn frame(&self) -> &CacheFrame<CpuState, PrudentSlab> {
        &self.core.frame
    }

    /// MALLOC's miss path: merge grace-period-complete latent objects
    /// (Algorithm lines 7-11) before touching the node lists; failing
    /// that, REFILL_OBJECT_CACHE (lines 13-30) — partial refill sized by
    /// pending deferred objects, deferred-aware slab selection, growing
    /// the cache as a last resort.
    fn refill(
        &self,
        cpu_idx: usize,
        cpu: &mut CpuState,
        want: usize,
        batch: &mut Vec<ObjPtr>,
    ) -> Result<(), AllocError> {
        let frame = self.frame();
        let shard = frame.stats.shard(cpu_idx);
        let merged = self.core.merge_caches(cpu_idx, cpu, want, batch, 0);
        cpu.allocs_since += merged as u64;
        if merged > 0 {
            shard.latent_hits.bump();
            return Ok(());
        }
        shard.refills.bump();
        let size = frame.sizing.object_cache_size;
        let latent_count = if self.config.partial_refill {
            cpu.latent.len()
        } else {
            0
        };
        // Partial refill (line 14): refill o − d objects. Floor the batch
        // at a quarter cache so a latent cache full of objects still
        // inside their grace period cannot degrade refills to single
        // objects; any overflow when those objects later merge is absorbed
        // by the proportional flush.
        let want_total = size.saturating_sub(latent_count).max(size / 4).max(1);
        if want_total < size {
            shard.partial_refills.bump();
        }
        let mut node = frame.lock_node();
        let epoch = frame.rcu.current_epoch();
        // Merge grace-period-complete latent-slab objects back into their
        // slabs first (§4.1), so refill reuses them instead of growing.
        frame.note_reclaimed(reclaim_pending(&mut node, epoch));
        let mut want = want_total.min(want);
        let mut candidates = Vec::new();
        while want > 0 {
            if candidates.is_empty() {
                self.select_slabs(&mut node, epoch, false, &mut candidates);
            }
            let index = match candidates.pop() {
                Some(i) => i,
                // Growing is for satisfying the demanded object, not for
                // topping up the batch: once the cache holds anything,
                // stop rather than grow (otherwise an exactly-full heap
                // gains a slab on every boundary refill).
                None if !batch.is_empty() => break,
                None => match frame.grow(&mut node, pbs_fault::site::PRUDENCE_GROW) {
                    Ok(i) => i,
                    Err(e) => {
                        // Last resort before failing: slabs we skipped
                        // because most of their objects are deferred
                        // ("unless it needs to grow the slab cache").
                        self.select_slabs(&mut node, epoch, true, &mut candidates);
                        candidates.pop().ok_or(AllocError::from(e))?
                    }
                },
            };
            let taken = node.slab_mut(index).raw.take(want, batch);
            want -= taken;
            node.relist(index);
            if taken == 0 {
                // Defensive: a selected slab must yield objects; avoid
                // spinning if it did not.
                break;
            }
        }
        cpu.allocs_since += batch.len() as u64;
        Ok(())
    }

    /// The proportional flush (§4.2): the more deferred objects pending in
    /// the latent cache, the fewer objects a flushing stack keeps beyond
    /// its first object cache (o + ½o − latent), so the
    /// post-grace-period merge will fit.
    fn flush_keep(&self, cpu: &mut CpuState) -> usize {
        let size = self.frame().sizing.object_cache_size;
        let keep = size
            + if self.config.proportional_flush {
                (size / 2).saturating_sub(cpu.latent.len())
            } else {
                size / 2
            };
        cpu.frees_since += self.frame().fast.capacity().saturating_sub(keep) as u64;
        keep
    }

    /// FREE_DEFERRED (Algorithm lines 34-51). Under a robust backend the
    /// object skips the latent machinery entirely and enters the domain,
    /// which returns it through [`ReclaimClient::reclaim_addrs`] once no
    /// captured reader can hold it; the outstanding-count, pressure and
    /// per-shard accounting stay identical so the governors and the
    /// comparison harnesses read the same gauges for every backend.
    fn defer(&self, obj: ObjPtr) -> Option<(usize, usize)> {
        let frame = self.frame();
        let (outstanding, transition) = frame.defer_one();
        let hook = frame.hook();
        if hook.robust {
            let (cpu_idx, mut cpu) = frame.lock_cpu();
            frame.count_deferred_free(cpu_idx);
            cpu.defers_since += 1;
            frame.record_pressure_change(cpu_idx, transition, outstanding);
            // Drop the slot lock before entering the domain: a defer can
            // trigger a scan or batch seal whose delivery calls back into
            // `reclaim_addrs` (node lock) on this thread.
            drop(cpu);
            hook.domain.defer(hook.client, obj.addr());
            return transition;
        }
        let gp = frame.rcu.gp_state(); // line 35
                                       // 0 = tracing disabled: merge skips the delay sample (same
                                       // convention as the baseline's callback stamp).
        let queued_ns = if pbs_telemetry::enabled() {
            pbs_telemetry::now_nanos()
        } else {
            0
        };
        let (cpu_idx, mut cpu) = frame.lock_cpu();
        frame.count_deferred_free(cpu_idx);
        cpu.defers_since += 1;
        // Slot lock held: lane `cpu_idx` is ours to write. Disabled
        // tracing turns this into one Relaxed load and a branch. The
        // record reuses the defer stamp's clock read.
        frame.stats.ring.record_at(
            cpu_idx,
            queued_ns,
            EventKind::LatentStamp,
            frame.stats.id(),
            gp.raw_epoch(),
            cpu.latent.len() as u64,
        );
        frame.record_pressure_change(cpu_idx, transition, outstanding);
        self.stamp_latent(cpu_idx, cpu, obj, gp, queued_ns);
        transition
    }

    /// The OOM ladder (§4.2, *Handling memory pressure*, hardened): flush
    /// this thread's slot without waiting (rung 1), then drive the grace
    /// period expedited and reclaim everything reclaimable across all
    /// slots (rung 2), then sweep again after each backoff.
    fn recovery_rung(&self, rung: usize) {
        match rung {
            1 => self.oom_flush_local(),
            2 => self.emergency_reclaim(true),
            _ => self.emergency_reclaim(false),
        }
    }

    /// Caller-assisted reclaim: merge this slot's grace-period-complete
    /// latent objects and sweep the node's pending list. Deliberately does
    /// *not* block on a grace period.
    fn assist_reclaim(&self) {
        let hook = self.frame().hook();
        if hook.robust {
            // Robust backends hold the backlog themselves: one bounded
            // progress step (scan / seal + release) is the assist.
            hook.domain.advance();
            return;
        }
        let (cpu_idx, mut cpu) = self.frame().lock_cpu();
        self.merge_onto_stack(cpu_idx, &mut cpu, 0);
        drop(cpu);
        self.core.sweep_pending();
    }

    fn shrink(&self, node: &mut Node) {
        self.core.shrink(node);
    }

    fn drain_deferred(&self) {
        for _ in 0..64 {
            if self.frame().deferred_outstanding() == 0 {
                return;
            }
            self.frame().synchronize(false);
            self.core.flush_latent_caches();
            self.core.sweep_pending();
        }
        debug_assert_eq!(
            self.frame().deferred_outstanding(),
            0,
            "quiesce failed to drain deferred objects"
        );
    }
}

impl ReclaimClient for Core {
    /// Domain delivery: the backend proved no captured reader can still
    /// hold these objects, so they go straight back to their slabs (the
    /// same motion as an object-cache flush). Runs with no domain locks
    /// held and never re-enters the domain.
    fn reclaim_addrs(&self, addrs: &[usize]) {
        if addrs.is_empty() {
            return;
        }
        {
            let mut node = self.frame.lock_node();
            for &addr in addrs {
                // SAFETY: the domain only returns addresses this cache
                // deferred into it, each exactly once; the node lock is
                // held.
                unsafe { node.give_back(obj_at(addr), self.frame.sizing.slab_bytes) };
            }
            self.shrink(&mut node);
        }
        self.frame.note_reclaimed(addrs.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbs_alloc_api::ObjectAllocator;
    use pbs_rcu::RcuConfig;

    fn cache(size: usize) -> (Arc<PrudenceCache>, Arc<PageAllocator>, Arc<Rcu>) {
        let pages = Arc::new(PageAllocator::new());
        let rcu = Arc::new(Rcu::with_config(RcuConfig::eager()));
        let c = Arc::new(PrudenceCache::new(
            "t",
            size,
            PrudenceConfig::new(2),
            Arc::clone(&pages),
            Arc::clone(&rcu),
        ));
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
    fn deferred_objects_invisible_until_grace_period() {
        let pages = Arc::new(PageAllocator::new());
        let rcu = Arc::new(Rcu::with_config(RcuConfig::eager()));
        let c = PrudenceCache::new("t", 64, PrudenceConfig::new(1), pages, Arc::clone(&rcu));
        let reader = rcu.register();

        let a = c.allocate().unwrap();
        let guard = reader.read_lock();
        unsafe { c.free_deferred(a) };
        assert_eq!(c.deferred_outstanding(), 1);
        // With the reader pinned, `a` must never be handed out again.
        let objs: Vec<ObjPtr> = (0..c.policy().object_cache_size * 2)
            .map(|_| c.allocate().unwrap())
            .collect();
        assert!(objs.iter().all(|&o| o != a), "deferred object reused early");
        drop(guard);
        rcu.synchronize();
        // Now it becomes available via merge.
        let mut found = false;
        let mut more = Vec::new();
        for _ in 0..c.policy().object_cache_size * 2 {
            let o = c.allocate().unwrap();
            if o == a {
                found = true;
            }
            more.push(o);
        }
        assert!(found, "deferred object should be reusable after GP");
        for o in objs.into_iter().chain(more) {
            unsafe { c.free(o) };
        }
    }

    #[test]
    fn deferred_object_reused_after_grace_period_without_refill() {
        let (c, _p, rcu) = cache(512);
        let a = c.allocate().unwrap();
        unsafe { c.free_deferred(a) };
        rcu.synchronize();
        // Drain the object cache; once it is empty the latent merge (not a
        // refill) must hand `a` back.
        let mut held = Vec::new();
        let mut found = false;
        for _ in 0..2 * c.policy().object_cache_size {
            let o = c.allocate().unwrap();
            held.push(o);
            if o == a {
                found = true;
                break;
            }
        }
        assert!(
            found,
            "deferred object should come back via the latent merge"
        );
        assert!(c.stats().latent_hits >= 1, "stats: {:?}", c.stats());
        for o in held {
            unsafe { c.free(o) };
        }
    }

    #[test]
    fn latent_cache_overflows_to_latent_slab() {
        let pages = Arc::new(PageAllocator::new());
        let rcu = Arc::new(Rcu::with_config(RcuConfig::eager()));
        // Disable preflush so overflow must take the slow path.
        let cfg = PrudenceConfig::new(1).with_preflush(false);
        let c = PrudenceCache::new("t", 64, cfg, pages, Arc::clone(&rcu));
        let reader = rcu.register();
        let guard = reader.read_lock(); // hold the grace period open
        let n = c.policy().object_cache_size * 3;
        let objs: Vec<ObjPtr> = (0..n).map(|_| c.allocate().unwrap()).collect();
        for o in objs {
            unsafe { c.free_deferred(o) };
        }
        assert_eq!(c.deferred_outstanding(), n);
        drop(guard);
        c.quiesce();
        assert_eq!(c.deferred_outstanding(), 0);
        assert_eq!(c.stats().live_objects, 0);
    }

    #[test]
    fn quiesce_makes_everything_reusable() {
        let (c, pages, _r) = cache(256);
        let objs: Vec<ObjPtr> = (0..500).map(|_| c.allocate().unwrap()).collect();
        for o in objs {
            unsafe { c.free_deferred(o) };
        }
        c.quiesce();
        let before = c.stats();
        let again: Vec<ObjPtr> = (0..500).map(|_| c.allocate().unwrap()).collect();
        let after = c.stats();
        // Reclaimed objects are reusable: regrowth is allowed only for
        // slabs that quiesce's shrink legitimately returned to the page
        // allocator, plus the slack of objects parked on *another* CPU's
        // stack — at exact heap capacity a CPU whose own stack ran dry
        // cannot steal them and must grow instead.
        let parked_slack = c
            .policy()
            .object_cache_size
            .div_ceil(c.policy().objects_per_slab) as u64;
        assert!(
            after.grows - before.grows <= after.shrinks + parked_slack,
            "grew more than it shrank: before={before:?} after={after:?}"
        );
        for o in again {
            unsafe { c.free(o) };
        }
        drop(c);
        assert_eq!(pages.used_bytes(), 0);
    }

    #[test]
    fn immediate_free_oom_propagates() {
        let pages = Arc::new(PageAllocator::builder().limit_bytes(4096 * 4).build());
        let rcu = Arc::new(Rcu::with_config(RcuConfig::eager()));
        let c = PrudenceCache::new("t", 2048, PrudenceConfig::new(1), pages, rcu);
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
    fn concurrent_defer_and_alloc_stress() {
        let (c, _p, _r) = cache(64);
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..3_000 {
                        let o = c.allocate().unwrap();
                        unsafe { o.as_ptr().write(0xAB) };
                        unsafe { c.free_deferred(o) };
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        c.quiesce();
        assert_eq!(c.stats().live_objects, 0);
        assert_eq!(c.deferred_outstanding(), 0);
    }

    #[test]
    fn stats_track_partial_refills() {
        let (c, _p, rcu) = cache(64);
        let size = c.policy().object_cache_size;
        // Put some deferred objects in the latent cache, then force a
        // refill: it should be partial.
        let objs: Vec<ObjPtr> = (0..size * 2).map(|_| c.allocate().unwrap()).collect();
        let reader = rcu.register();
        let guard = reader.read_lock();
        for &o in objs.iter().take(size / 2) {
            unsafe { c.free_deferred(o) };
        }
        // Exhaust the object cache to force a refill while latent is
        // non-empty and unmergeable (reader pinned).
        let mut extra = Vec::new();
        for _ in 0..size * 2 {
            extra.push(c.allocate().unwrap());
        }
        assert!(c.stats().partial_refills > 0, "stats: {:?}", c.stats());
        drop(guard);
        for o in objs.into_iter().skip(size / 2).chain(extra) {
            unsafe { c.free(o) };
        }
        c.quiesce();
    }

    #[test]
    fn preflush_moves_latent_to_slabs() {
        let pages = Arc::new(PageAllocator::new());
        let rcu = Arc::new(Rcu::with_config(RcuConfig::eager()));
        let c = PrudenceCache::new("t", 64, PrudenceConfig::new(1), pages, Arc::clone(&rcu));
        let reader = rcu.register();
        let guard = reader.read_lock();
        let size = c.policy().object_cache_size;
        // Fill the object cache AND the latent cache so total > size:
        // allocate 2×size, return half immediately (fills the object
        // cache), defer the other half (fills latent and trips line 41).
        let objs: Vec<ObjPtr> = (0..2 * size).map(|_| c.allocate().unwrap()).collect();
        for &o in &objs[..size] {
            unsafe { c.free(o) };
        }
        for &o in &objs[size..] {
            unsafe { c.free_deferred(o) };
        }
        // Give the worker a moment.
        for _ in 0..100 {
            if c.stats().preflushes > 0 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(c.stats().preflushes > 0, "preflush never ran");
        drop(guard);
        c.quiesce();
    }

    #[test]
    fn telemetry_traces_latent_lifecycle() {
        let (c, _p, rcu) = cache(64);
        let a = c.allocate().unwrap();
        unsafe { c.free_deferred(a) };
        rcu.synchronize();
        // Drain until the latent merge returns `a`.
        let mut held = Vec::new();
        for _ in 0..2 * c.policy().object_cache_size {
            held.push(c.allocate().unwrap());
        }
        let t = c.telemetry();
        assert!(
            t.count_of(pbs_telemetry::EventKind::LatentStamp) >= 1,
            "missing stamp event: {:?}",
            t.event_counts
        );
        assert!(
            t.count_of(pbs_telemetry::EventKind::LatentMerge) >= 1,
            "missing merge event: {:?}",
            t.event_counts
        );
        assert!(
            t.count_of(pbs_telemetry::EventKind::SlabGrow) >= 1,
            "missing grow event: {:?}",
            t.event_counts
        );
        let delay = t.histogram("defer_delay_ns").expect("defer_delay_ns");
        assert!(delay.count >= 1, "defer delay not recorded: {delay:?}");
        for o in held {
            unsafe { c.free(o) };
        }
        c.quiesce();
    }

    fn robust_cache(
        backend: pbs_rcu::reclaim::ReclaimBackend,
    ) -> (Arc<PrudenceCache>, Arc<PageAllocator>, Arc<Rcu>) {
        use pbs_rcu::reclaim::{domain_for, ReclaimConfig};
        let pages = Arc::new(PageAllocator::new());
        let rcu = Arc::new(Rcu::with_config(RcuConfig::eager()));
        let domain = domain_for(Arc::clone(&rcu), backend, ReclaimConfig::aggressive());
        let c = Arc::new(PrudenceCache::with_domain(
            "t",
            64,
            PrudenceConfig::new(2),
            Arc::clone(&pages),
            domain,
        ));
        (c, pages, rcu)
    }

    #[test]
    fn robust_backends_bound_garbage_under_a_stalled_reader() {
        use pbs_rcu::reclaim::ReclaimBackend;
        for backend in [ReclaimBackend::Hp, ReclaimBackend::Hyaline] {
            let (c, pages, rcu) = robust_cache(backend);
            let reader = rcu.register();
            let guard = reader.read_lock();
            let objs: Vec<ObjPtr> = (0..512).map(|_| c.allocate().unwrap()).collect();
            for o in objs {
                unsafe { c.free_deferred(o) };
            }
            // Give the hyaline ejector its window (aggressive: 2ms), then
            // one progress step. The reader is STILL pinned.
            std::thread::sleep(std::time::Duration::from_millis(5));
            c.reclaim_domain().advance();
            let outstanding = c.deferred_outstanding();
            assert!(
                outstanding <= 128,
                "{backend}: stalled reader pinned {outstanding} objects"
            );
            // Epoch in the same position wedges at 512 (see
            // `deferred_objects_invisible_until_grace_period`).
            c.quiesce();
            assert_eq!(c.deferred_outstanding(), 0, "{backend}: quiesce under pin");
            drop(guard);
            drop(c);
            assert_eq!(pages.used_bytes(), 0, "{backend}: pages leaked");
        }
    }

    #[test]
    fn epoch_domain_cache_matches_plain_construction() {
        // `new` and `with_domain(EpochDomain)` are the same cache: the
        // latent machinery stays in charge and quiesce drains through it.
        let (c, _p, rcu) = cache(64);
        assert_eq!(
            c.reclaim_domain().backend(),
            pbs_rcu::reclaim::ReclaimBackend::Epoch
        );
        let a = c.allocate().unwrap();
        unsafe { c.free_deferred(a) };
        assert_eq!(c.deferred_outstanding(), 1);
        rcu.synchronize();
        c.quiesce();
        assert_eq!(c.deferred_outstanding(), 0);
    }
}
