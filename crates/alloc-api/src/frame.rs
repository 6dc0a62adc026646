//! The cache frame both slab allocators are built on.
//!
//! Prudence changes only how SLUB reclaims deferred objects (paper §4.3:
//! it "reuses the existing allocator heuristics"), so everything the two
//! caches share lives here once: the per-CPU object cache (one
//! `pbs-percpu` stack per CPU), the per-CPU policy slots and their
//! locking, the node's slab table, the deferred-backlog pressure
//! governor, the allocation retry loop with its OOM-ladder skeleton, and
//! the [`ObjectAllocator`] glue. An allocator embeds a [`CacheFrame`] and
//! implements [`CachePolicy`] — the hooks where the two designs differ —
//! which makes it an [`ObjectAllocator`].

use std::ptr::NonNull;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, Weak};

use crossbeam::utils::CachePadded;
use parking_lot::{Mutex, MutexGuard};
use pbs_mem::PageAllocator;
use pbs_percpu::{FastCache, FastPop, FastPush};
use pbs_rcu::reclaim::{DomainHandle, ReclaimClient, ReclamationDomain};
use pbs_rcu::Rcu;
use pbs_telemetry::EventKind;

use crate::slab_layout::resolve_slab_index;
use crate::{
    AllocError, CacheStats, CacheStatsSnapshot, CpuRegistry, ListKind, ObjPtr, ObjectAllocator,
    RawSlab, SizingPolicy, SlabLists,
};

/// Rebuilds an object pointer from an address the cache handed out.
///
/// # Safety
///
/// `addr` must be the address of an object minted by this cache's
/// `allocate` (per-CPU stacks and reclamation domains only ever hold
/// such addresses).
#[inline]
pub unsafe fn obj_at(addr: usize) -> ObjPtr {
    ObjPtr::new(NonNull::new_unchecked(addr as *mut u8))
}

/// A slab as the node's slab table stores it: a [`RawSlab`], possibly
/// wrapped with per-slab policy state (Prudence's latent slab).
pub trait FrameSlab: Send + Sized {
    /// Node-wide state this slab kind keeps beside the table, guarded by
    /// the node lock (`()` for plain slabs).
    type NodeState: Default + Send;

    /// Wraps a freshly carved slab.
    fn from_raw(raw: RawSlab) -> Self;

    /// The underlying slab.
    fn raw(&self) -> &RawSlab;

    /// The underlying slab, mutably.
    fn raw_mut(&mut self) -> &mut RawSlab;

    /// Unwraps the slab (to return its pages).
    fn into_raw(self) -> RawSlab;

    /// The list this slab belongs on; the default lists by occupancy.
    fn list_kind(&self) -> ListKind {
        let raw = self.raw();
        if raw.is_free() {
            ListKind::Free
        } else if raw.is_full() {
            ListKind::Full
        } else {
            ListKind::Partial
        }
    }
}

impl FrameSlab for RawSlab {
    type NodeState = ();

    fn from_raw(raw: RawSlab) -> Self {
        raw
    }

    fn raw(&self) -> &RawSlab {
        self
    }

    fn raw_mut(&mut self) -> &mut RawSlab {
        self
    }

    fn into_raw(self) -> RawSlab {
        self
    }
}

/// Per-node slab table and full/partial/free lists, guarded by one lock
/// (the "node list lock" whose contention the paper discusses in §3.1).
#[derive(Debug)]
pub struct Node<S: FrameSlab> {
    /// The slab table; `None` marks a released slot awaiting reuse.
    pub slabs: Vec<Option<S>>,
    /// Released table slots, reused last-in first-out.
    pub free_slots: Vec<usize>,
    /// Which list each live slab is on.
    pub lists: SlabLists,
    next_color: usize,
    /// The slab kind's node-wide state.
    pub ext: S::NodeState,
}

impl<S: FrameSlab> Default for Node<S> {
    fn default() -> Self {
        Self {
            slabs: Vec::new(),
            free_slots: Vec::new(),
            lists: SlabLists::default(),
            next_color: 0,
            ext: S::NodeState::default(),
        }
    }
}

impl<S: FrameSlab> Node<S> {
    /// The live slab at `index`.
    pub fn slab(&self, index: usize) -> &S {
        self.slabs[index].as_ref().expect("live slab index")
    }

    /// The live slab at `index`, mutably.
    pub fn slab_mut(&mut self, index: usize) -> &mut S {
        self.slabs[index].as_mut().expect("live slab index")
    }

    /// Number of live slabs in the table.
    pub fn live_slabs(&self) -> usize {
        self.slabs.len() - self.free_slots.len()
    }

    /// Re-lists a slab according to [`FrameSlab::list_kind`]; returns
    /// `true` if it moved.
    pub fn relist(&mut self, index: usize) -> bool {
        let kind = self.slab(index).list_kind();
        if self.lists.kind_of(index) == Some(kind) {
            false
        } else {
            self.lists.move_to(index, kind);
            true
        }
    }

    /// Inserts the slab `make` builds for the table index it will take
    /// (the index is stamped into the slab header), lists it, and returns
    /// the index.
    pub fn insert_with(&mut self, make: impl FnOnce(usize) -> S) -> usize {
        let index = self.free_slots.pop().unwrap_or(self.slabs.len());
        let slab = make(index);
        let kind = slab.list_kind();
        if index == self.slabs.len() {
            self.slabs.push(Some(slab));
        } else {
            debug_assert!(self.slabs[index].is_none());
            self.slabs[index] = Some(slab);
        }
        self.lists.insert(index, kind);
        index
    }

    /// Removes a slab from the table and lists, returning it.
    pub fn remove(&mut self, index: usize) -> S {
        self.lists.remove(index);
        let slab = self.slabs[index].take().expect("live slab index");
        self.free_slots.push(index);
        slab
    }

    /// Returns a free object to its slab and re-lists the slab.
    ///
    /// # Safety
    ///
    /// As [`resolve_slab_index`], with this node's lock held; `obj` is
    /// outside the slab's free list (allocated, cached or deferred) and
    /// owned by the caller.
    pub unsafe fn give_back(&mut self, obj: ObjPtr, slab_bytes: usize) {
        let index = resolve_slab_index(obj, slab_bytes);
        self.slab_mut(index).raw_mut().give_back(obj);
        self.relist(index);
    }
}

/// The policy half of a slab cache: the hooks an allocator fills in on
/// top of its [`CacheFrame`]. Every implementor is an [`ObjectAllocator`].
///
/// Hooks that take a `slot` run with that CPU slot's lock held and may
/// bump the `cpu_idx` stats shard and trace lane (single-writer under
/// that lock). The others run with no frame lock held.
pub trait CachePolicy: Send + Sync + Sized {
    /// Per-CPU policy state, guarded by the slot lock. It holds no free
    /// objects: those live only on the frame's per-CPU stacks.
    type Slot: Default + Send;
    /// The slab type of the node's slab table.
    type Slab: FrameSlab;

    /// The frame this policy runs on.
    fn frame(&self) -> &CacheFrame<Self::Slot, Self::Slab>;

    /// Serves an allocation this CPU's stack missed: appends between one
    /// and `want` objects to `batch` (empty on entry), from the policy's
    /// own slot state or the node (growing if needed), and counts the
    /// refill. The frame hands out one and parks the rest on the stack.
    /// Every failure is an `Err`, never a panic.
    fn refill(
        &self,
        cpu_idx: usize,
        slot: &mut Self::Slot,
        want: usize,
        batch: &mut Vec<ObjPtr>,
    ) -> Result<(), AllocError>;

    /// How many objects a full stack (two object caches' worth, see
    /// [`CacheFrame::new`]) keeps when it flushes; the rest go back to
    /// their slabs. Called once per flush, so a policy may note the flush
    /// in its slot state. The default keeps one object cache plus half of
    /// the second: SLUB's flush-in-halves of the overflowing cache.
    fn flush_keep(&self, _slot: &mut Self::Slot) -> usize {
        let size = self.frame().sizing.object_cache_size;
        size + size / 2
    }

    /// The deferred free proper, after the frame's call-site stamp.
    /// Returns the pressure transition this caller won (see
    /// [`CacheFrame::defer_one`]); the frame applies the backpressure.
    fn defer(&self, obj: ObjPtr) -> Option<(usize, usize)>;

    /// One rung of the OOM ladder (1-based; every rung past 2 repeats the
    /// slowest one). Every rung must drain the per-CPU stacks. The frame
    /// counts the wait and backs off first.
    fn recovery_rung(&self, rung: usize);

    /// Freeing-thread assist while the gauge sits at the hard level. Must
    /// stay short: it runs on the free path.
    fn assist_reclaim(&self);

    /// Returns excess free slabs to the page allocator (node lock held).
    fn shrink(&self, node: &mut Node<Self::Slab>);

    /// Blocks until every deferred free issued so far is reusable; quiesce
    /// runs it before the frame drains the per-CPU stacks.
    fn drain_deferred(&self);
}

/// The state and machinery both slab caches share; see the
/// [module documentation](self).
pub struct CacheFrame<C, S: FrameSlab> {
    name: String,
    /// The sizing heuristics (shared by both designs, paper §4.3).
    pub sizing: SizingPolicy,
    /// Where slabs come from.
    pub pages: Arc<PageAllocator>,
    /// The RCU domain deferred frees synchronize with.
    pub rcu: Arc<Rcu>,
    cpus: CpuRegistry,
    /// Per-CPU policy state and the stats shard and trace lane it owns,
    /// cache-padded so neighbouring slots (and their lock words) never
    /// share a line.
    slots: Vec<CachePadded<Mutex<C>>>,
    /// The per-CPU object cache: a zero-atomic stack per CPU that every
    /// reusable object passes through (immediate frees, refills, latent
    /// merges, deferred returns). Deferred objects never park here before
    /// their grace period ends.
    pub fast: FastCache,
    node: Mutex<Node<S>>,
    /// Counters, histograms and the trace ring.
    pub stats: CacheStats,
    /// Deferred objects not yet reusable. Drives the pressure gauge and
    /// gates the OOM ladder.
    outstanding: AtomicUsize,
    soft_watermark: usize,
    hard_watermark: usize,
    oom_retries: usize,
    /// The attached reclamation domain. Set once right after construction
    /// (the handle needs a `Weak` to the cache that embeds this frame).
    reclaim: OnceLock<DomainHandle>,
}

impl<C: Default + Send, S: FrameSlab> CacheFrame<C, S> {
    /// Builds a frame for `object_size`-byte objects with `ncpus` slots.
    /// The watermarks are `(soft, hard)` deferred-backlog levels, clamped
    /// so that `1 <= soft <= hard`; `oom_retries` caps the OOM ladder
    /// (zero turns it off). The per-CPU stacks run on the process default
    /// engine and hold two object caches' worth each (2o, o =
    /// `sizing.object_cache_size`): the capacity the object cache and the
    /// room its flush leaves had as two separate tiers. Refills still
    /// bring o objects and flushes still move about ½o, so a live set
    /// that swings by up to o objects stays off the node lock; with a
    /// single o the `alloc-churn` benchmark refilled and flushed five
    /// times as often and lost a quarter of its throughput.
    ///
    /// # Panics
    ///
    /// Panics if `object_size` is zero or too large for the maximum slab
    /// order, or `ncpus` is zero.
    pub fn new(
        name: &str,
        object_size: usize,
        ncpus: usize,
        (soft, hard): (usize, usize),
        oom_retries: usize,
        pages: Arc<PageAllocator>,
        rcu: Arc<Rcu>,
    ) -> Self {
        let sizing = SizingPolicy::for_object_size(object_size);
        let soft = soft.max(1);
        let frame = Self {
            name: name.to_owned(),
            sizing,
            pages,
            rcu,
            cpus: CpuRegistry::new(ncpus),
            slots: (0..ncpus)
                .map(|_| CachePadded::new(Mutex::new(C::default())))
                .collect(),
            fast: FastCache::with_slots(
                2 * sizing.object_cache_size,
                ncpus,
                pbs_percpu::default_engine(),
            ),
            node: Mutex::new(Node::default()),
            stats: CacheStats::new(ncpus),
            outstanding: AtomicUsize::new(0),
            soft_watermark: soft,
            hard_watermark: hard.max(soft),
            oom_retries,
            reclaim: OnceLock::new(),
        };
        // Trace the engine the stacks selected (`a` = 1 for rseq, 2 for
        // the emulation; `b` = per-CPU capacity) before the cache is
        // shared, so the node lane has no other writer yet.
        let (code, cap) = (frame.fast.engine() as u64, frame.fast.capacity() as u64);
        frame
            .stats
            .record_node_event(EventKind::FastpathEngine, code, cap);
        frame
    }

    /// Attaches the reclamation domain, registering `client` (the cache
    /// embedding this frame) for deliveries.
    pub fn attach(&self, domain: Arc<dyn ReclamationDomain>, client: Weak<dyn ReclaimClient>) {
        let _ = self.reclaim.set(DomainHandle::attach(domain, client));
    }

    /// The cache name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The domain attachment (the accessor keeps hot-path call sites to
    /// one Acquire load + unwrap).
    #[inline]
    pub fn hook(&self) -> &DomainHandle {
        self.reclaim.get().expect("domain attached at construction")
    }

    /// Backend-generic blocking drain: every defer issued before this
    /// call is reusable when it returns.
    pub fn synchronize(&self, expedited: bool) {
        let hook = self.hook();
        if expedited {
            hook.domain.synchronize_expedited();
        } else {
            hook.domain.synchronize();
        }
    }

    /// Deferred objects not yet reusable.
    #[inline]
    pub fn deferred_outstanding(&self) -> usize {
        self.outstanding.load(Ordering::Relaxed)
    }

    /// The per-CPU slots, for sweeps over every slot.
    pub fn slots(&self) -> &[CachePadded<Mutex<C>>] {
        &self.slots
    }

    /// Locks the node, counting contention for the statistics.
    pub fn lock_node(&self) -> MutexGuard<'_, Node<S>> {
        if let Some(guard) = self.node.try_lock() {
            return guard;
        }
        // Acquire first, count after: recording between the failed
        // try_lock and the blocking acquire would let a relock race
        // double-count one contention event, and the counter bump below is
        // single-writer precisely because the node lock is already held.
        let guard = self.node.lock();
        self.stats.shard(0).node_lock_contended.bump();
        guard
    }

    /// Acquires a per-CPU slot for the slow paths. Fast path: an
    /// uncontended `try_lock` of the home slot. On contention: note the
    /// miss, then [`pbs_percpu::steal_slot`] — spin briefly, steal any
    /// other free slot, and only then block on the home slot. Returns the
    /// index actually locked so callers attribute stats to the right
    /// shard.
    pub fn lock_cpu(&self) -> (usize, MutexGuard<'_, C>) {
        let home = self.cpus.current_cpu().0;
        if let Some(guard) = self.slots[home].try_lock() {
            return (home, guard);
        }
        self.stats.shard(home).cpu_slot_misses.add_contended(1);
        // Time the slow path only: the fast path above stays clock-free.
        let t0 = if pbs_telemetry::enabled() {
            pbs_telemetry::now_nanos()
        } else {
            0
        };
        let acquired = pbs_percpu::steal_slot(
            self.slots.len(),
            home,
            |i| self.slots[i].try_lock(),
            |i| self.slots[i].lock(),
        );
        if t0 != 0 {
            self.stats
                .slot_wait_ns
                .record(pbs_telemetry::now_nanos().saturating_sub(t0));
        }
        acquired
    }

    /// Grows the cache by one slab from the page allocator, consulting
    /// fault site `site`, and returns its table index.
    pub fn grow(
        &self,
        node: &mut Node<S>,
        site: &'static str,
    ) -> Result<usize, pbs_mem::OutOfMemory> {
        let block =
            self.pages
                .allocate_aligned_at(self.sizing.slab_bytes, self.sizing.slab_bytes, site)?;
        let color = node.next_color;
        node.next_color = node.next_color.wrapping_add(1);
        let index =
            node.insert_with(|index| S::from_raw(RawSlab::new(block, &self.sizing, index, color)));
        self.stats.record_grow();
        Ok(index)
    }

    /// Returns slab `index` to the page allocator.
    pub fn release_slab(&self, node: &mut Node<S>, index: usize) {
        let slab = node.remove(index);
        self.pages.free_pages(slab.into_raw().into_block());
        self.stats.record_shrink();
    }

    /// Folds a deferred backlog of `outstanding` into the pressure gauge.
    /// Returns the transition if this caller won it (see
    /// [`CacheStats::update_pressure`]).
    #[inline]
    pub fn update_pressure(&self, outstanding: usize) -> Option<(usize, usize)> {
        self.stats
            .update_pressure(outstanding, self.soft_watermark, self.hard_watermark)
    }

    /// Adds one object to the deferred backlog and folds it into the
    /// pressure gauge. Returns the new backlog and the transition this
    /// caller won.
    #[inline]
    pub fn defer_one(&self) -> (usize, Option<(usize, usize)>) {
        let outstanding = self.outstanding.fetch_add(1, Ordering::Relaxed) + 1;
        (outstanding, self.update_pressure(outstanding))
    }

    /// Takes `n` reclaimed objects off the deferred backlog. Downward
    /// pressure transitions happen here, as the backlog drains: gauge and
    /// counter only, no ring event, because reclaim runs under varying
    /// lock contexts and lanes are single-writer.
    #[inline]
    pub fn note_reclaimed(&self, n: usize) {
        if n > 0 {
            let prev = self.outstanding.fetch_sub(n, Ordering::Relaxed);
            self.update_pressure(prev.saturating_sub(n));
        }
    }

    /// Counts a deferred free on the shard of the locked slot `cpu_idx`.
    #[inline]
    pub fn count_deferred_free(&self, cpu_idx: usize) {
        let shard = self.stats.shard(cpu_idx);
        shard.deferred_frees.bump();
        shard.live_delta.bump_sub();
    }

    /// Traces a pressure transition won by a deferred free on the lane of
    /// the locked slot `cpu_idx`.
    #[inline]
    pub fn record_pressure_change(
        &self,
        cpu_idx: usize,
        transition: Option<(usize, usize)>,
        outstanding: usize,
    ) {
        if let Some((_, to)) = transition {
            self.stats.ring.record(
                cpu_idx,
                EventKind::PressureChange,
                self.stats.id(),
                to as u64,
                outstanding as u64,
            );
        }
    }

    /// Attributes a deferred free to its call site before any defer
    /// machinery runs (a robust defer may reclaim on this stack); the
    /// domain-layer fallback stamp is a no-op after this one.
    #[track_caller]
    #[inline]
    pub fn stamp_deferred(&self, obj: ObjPtr) {
        if pbs_telemetry::enabled() {
            pbs_telemetry::site::note_deferred(
                obj.addr(),
                pbs_telemetry::site::intern(std::panic::Location::caller()),
                self.sizing.object_size,
                pbs_telemetry::site::backend_index(self.hook().domain.backend().label()),
            );
        }
    }

    /// Attributes a successful allocation that needed the OOM ladder to
    /// the rung that unblocked it (`attempts` = ladder entries so far; 0 =
    /// none, nothing to record). Caller holds the `cpu_idx` slot lock,
    /// which owns that trace lane.
    #[inline]
    fn record_oom_recovery(&self, cpu_idx: usize, attempts: usize) {
        if attempts == 0 {
            return;
        }
        let stage = attempts.min(3);
        self.stats.record_oom_recovery(stage);
        self.stats.ring.record(
            cpu_idx,
            EventKind::OomRecovery,
            self.stats.id(),
            stage as u64,
            1,
        );
    }
}

/// The machinery that calls back into the policy.
impl<C: Default + Send, S: FrameSlab> CacheFrame<C, S> {
    /// The allocation path: pop this CPU's stack. An uncontended hit
    /// takes no lock and performs no atomic RMW (its stats fold into the
    /// snapshot from thread-local counters). A miss refills under the
    /// slot lock; a failed refill climbs the OOM ladder while deferred
    /// objects remain that could come back.
    pub fn allocate<P>(&self, p: &P) -> Result<ObjPtr, AllocError>
    where
        P: CachePolicy<Slot = C, Slab = S>,
    {
        if let FastPop::Hit(addr) = self.fast.pop() {
            // SAFETY: stacked addresses are objects of this cache, each
            // handed out exactly once by the commit protocol.
            return Ok(unsafe { obj_at(addr) });
        }
        let mut attempts = 0;
        let mut counted_request = false;
        loop {
            let (cpu_idx, mut slot) = self.lock_cpu();
            // All shard bumps below are single-writer: this thread holds
            // the slot lock matching the shard.
            let shard = self.stats.shard(cpu_idx);
            if !counted_request {
                shard.alloc_requests.bump();
                counted_request = true;
            }
            if let Some(faults) = self.pages.faults() {
                // Chaos hook: drain every stack before refilling, so
                // drains race live traffic (before any node lock: the
                // drain takes it).
                if faults.should_fail(pbs_fault::site::FASTPATH_DRAIN) {
                    self.flush_fastpath(p);
                }
            }
            // Refill the room on this CPU's stack plus the object handed
            // out.
            let want = self.fast.capacity().saturating_sub(self.fast.depth()) + 1;
            let mut batch = Vec::new();
            let got = p
                .refill(cpu_idx, &mut slot, want, &mut batch)
                .and_then(|()| batch.pop().ok_or(AllocError::OutOfMemory));
            match got {
                Ok(obj) => {
                    shard.live_delta.bump_add();
                    self.record_oom_recovery(cpu_idx, attempts);
                    self.stash(p, cpu_idx, &mut slot, &batch);
                    return Ok(obj);
                }
                Err(e) => {
                    // Recover via the ladder instead of failing, while
                    // deferred objects remain or other CPUs' stacks hold
                    // free objects (every rung drains the stacks). Release
                    // the slot lock first so frees on this slot can
                    // progress.
                    drop(slot);
                    let stranded = self.deferred_outstanding() + self.fast.cached();
                    if attempts >= self.oom_retries || stranded == 0 {
                        return Err(e);
                    }
                    attempts += 1;
                    self.recover(p, attempts);
                }
            }
        }
    }

    /// One entry into the staged OOM recovery ladder: escalate from
    /// cheap-and-local to grace-period-blocking to backoff-and-retry.
    /// Every entry counts as an `oom_wait` — the ladder only runs when
    /// allocation actually failed. From rung 3 on the backlog is waiting
    /// on something slower (a pinned reader, a wedged epoch), so back off
    /// before the rung to let it make progress.
    fn recover<P>(&self, p: &P, rung: usize)
    where
        P: CachePolicy<Slot = C, Slab = S>,
    {
        self.stats.oom_waits.fetch_add(1, Ordering::Relaxed);
        if rung >= 3 {
            let shift = (rung - 3).min(4) as u32;
            std::thread::sleep(std::time::Duration::from_micros(50 << shift));
        }
        p.recovery_rung(rung);
    }

    /// Immediate free: push the object onto this CPU's stack (its stats
    /// fold in at snapshot time); a full stack flushes under the slot
    /// lock.
    pub fn free<P>(&self, p: &P, obj: ObjPtr)
    where
        P: CachePolicy<Slot = C, Slab = S>,
    {
        if let FastPush::Pushed = self.fast.push(obj.addr()) {
            return;
        }
        let (cpu_idx, mut slot) = self.lock_cpu();
        let shard = self.stats.shard(cpu_idx);
        shard.frees.bump();
        shard.live_delta.bump_sub();
        self.stash(p, cpu_idx, &mut slot, &[obj]);
    }

    /// Parks reusable `objs` on this CPU's stack with slot `cpu_idx`
    /// locked. A stack that fills first flushes down to the policy's
    /// [`flush_keep`](CachePolicy::flush_keep); objects that still do not
    /// fit (an rseq bypass) go back to their slabs, so nothing is lost.
    pub fn stash<P>(&self, p: &P, cpu_idx: usize, slot: &mut C, objs: &[ObjPtr])
    where
        P: CachePolicy<Slot = C, Slab = S>,
    {
        let mut pushed = self.fast.push_batch(objs);
        if pushed == objs.len() {
            return;
        }
        let mut excess = Vec::new();
        self.fast.trim(p.flush_keep(slot), &mut excess);
        if !excess.is_empty() {
            self.stats.shard(cpu_idx).flushes.bump();
        }
        pushed += self.fast.push_batch(&objs[pushed..]);
        excess.extend(objs[pushed..].iter().map(|o| o.addr()));
        self.return_to_slabs(p, &excess);
    }

    /// Post-defer governor actions, run with no locks held.
    ///
    /// An *upward* transition nudges the reclamation machinery once with
    /// an expedited drive (the backlog is usually waiting on grace
    /// periods, not on CPU time). While the gauge sits at the hard level,
    /// every freeing thread also assists reclaim, throttling the defer
    /// producers to the reclaim rate instead of growing the backlog
    /// without bound.
    #[inline]
    pub fn apply_backpressure<P>(&self, p: &P, transition: Option<(usize, usize)>)
    where
        P: CachePolicy<Slot = C, Slab = S>,
    {
        if let Some((from, to)) = transition {
            if to > from {
                self.hook().domain.expedite();
            }
        }
        if self.stats.pressure_level.load(Ordering::Relaxed) >= 2 {
            self.stats.assisted_merges.fetch_add(1, Ordering::Relaxed);
            p.assist_reclaim();
        }
    }

    /// Returns free objects (pointers or addresses) to their slabs under
    /// the node lock, then lets the policy shrink.
    pub fn return_to_slabs<P, T>(&self, p: &P, objs: &[T])
    where
        P: CachePolicy<Slot = C, Slab = S>,
        T: Copy + Into<usize>,
    {
        if objs.is_empty() {
            return;
        }
        let mut node = self.lock_node();
        for &obj in objs {
            // SAFETY: only objects allocated from this cache reach here,
            // each once; the node lock is held.
            unsafe { node.give_back(obj_at(obj.into()), self.sizing.slab_bytes) };
        }
        p.shrink(&mut node);
    }

    /// Drains every CPU's stack to the slabs (quiesce, the OOM ladder,
    /// the `fastpath.drain` fault site) and traces the drain. Safe under
    /// live traffic; the stacks refill on their own afterwards.
    pub fn flush_fastpath<P>(&self, p: &P)
    where
        P: CachePolicy<Slot = C, Slab = S>,
    {
        let drained = self.fast.drain();
        if !drained.is_empty() {
            self.return_to_slabs(p, &drained);
            // The node lock owns the node lane.
            let _node = self.lock_node();
            self.stats
                .record_node_event(EventKind::FastpathDrain, drained.len() as u64, 0);
        }
    }
}

impl<C, S: FrameSlab> Drop for CacheFrame<C, S> {
    fn drop(&mut self) {
        // Return every slab's pages. Objects still live at this point are
        // the owner's responsibility; their memory goes away with the slab.
        for slab in self.node.get_mut().slabs.drain(..).flatten() {
            self.pages.free_pages(slab.into_raw().into_block());
        }
    }
}

impl<P: CachePolicy> ObjectAllocator for P {
    #[inline]
    fn allocate(&self) -> Result<ObjPtr, AllocError> {
        self.frame().allocate(self)
    }

    #[inline]
    unsafe fn free(&self, obj: ObjPtr) {
        self.frame().free(self, obj);
    }

    unsafe fn free_deferred(&self, obj: ObjPtr) {
        let frame = self.frame();
        frame.stamp_deferred(obj);
        let transition = self.defer(obj);
        // Locks dropped: safe to expedite / assist without convoying a
        // slot behind a grace-period drive.
        frame.apply_backpressure(self, transition);
    }

    fn object_size(&self) -> usize {
        self.frame().sizing.object_size
    }

    fn name(&self) -> &str {
        self.frame().name()
    }

    fn rcu(&self) -> &Arc<Rcu> {
        &self.frame().rcu
    }

    fn reclaim_domain(&self) -> Option<&Arc<dyn ReclamationDomain>> {
        Some(&self.frame().hook().domain)
    }

    fn stats(&self) -> CacheStatsSnapshot {
        let frame = self.frame();
        frame.stats.snapshot_with_fastpath(
            frame.sizing.object_size,
            frame.sizing.slab_bytes,
            &frame.fast.snapshot(),
        )
    }

    fn telemetry(&self) -> pbs_telemetry::ComponentTelemetry {
        self.frame().stats.telemetry()
    }

    fn quiesce(&self) {
        // Park nothing across a quiesce: once the deferred objects are
        // back, the stacks drain to their slabs so peak/fragmentation
        // measurements stay comparable.
        self.drain_deferred();
        self.frame().flush_fastpath(self);
    }

    fn deferred_outstanding(&self) -> usize {
        self.frame().deferred_outstanding()
    }

    fn flush_fastpath(&self) {
        self.frame().flush_fastpath(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(watermarks: (usize, usize)) -> CacheFrame<Vec<ObjPtr>, RawSlab> {
        CacheFrame::new(
            "t",
            64,
            2,
            watermarks,
            4,
            Arc::new(PageAllocator::new()),
            Arc::new(Rcu::new()),
        )
    }

    #[test]
    fn watermarks_are_clamped_at_construction() {
        let f = frame((100, 10));
        assert_eq!(f.soft_watermark, 100);
        assert_eq!(f.hard_watermark, 100, "hard clamped up to soft");
        let f = frame((0, 0));
        assert_eq!(f.soft_watermark, 1, "soft clamped to at least 1");
        assert_eq!(f.hard_watermark, 1);
    }

    #[test]
    fn node_grow_release_reuses_table_slots() {
        let f = frame((1, 1));
        let mut node = f.lock_node();
        let a = f.grow(&mut node, "t.grow").unwrap();
        let b = f.grow(&mut node, "t.grow").unwrap();
        assert_eq!((a, b), (0, 1));
        assert_eq!(node.lists.kind_of(a), Some(ListKind::Free));
        f.release_slab(&mut node, a);
        assert_eq!(node.live_slabs(), 1);
        assert_eq!(f.grow(&mut node, "t.grow").unwrap(), 0, "slot reused");
        let mut objs = Vec::new();
        node.slab_mut(b).take(1, &mut objs);
        assert!(node.relist(b), "free → partial after take");
        assert!(!node.relist(b), "already on the right list");
        unsafe { node.give_back(objs[0], f.sizing.slab_bytes) };
        assert_eq!(node.lists.kind_of(b), Some(ListKind::Free));
        drop(node);
        assert_eq!(f.stats.grows.load(Ordering::Relaxed), 3);
        assert_eq!(f.stats.shrinks.load(Ordering::Relaxed), 1);
    }
}
