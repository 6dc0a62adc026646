//! Slab-cache statistics: the raw material for the paper's Figures 7–11.
//!
//! # Hot-path design
//!
//! Counters touched on every allocation or free live in per-CPU
//! [`StatShard`]s, one cache-padded block per CPU slot, and are updated
//! with plain `Relaxed` load/store pairs instead of atomic
//! read-modify-writes. The discipline that makes this sound mirrors the
//! kernel's percpu counters: a shard's single-writer counters are only
//! bumped while the owning per-CPU slot lock is held, so at most one
//! thread writes a given counter at a time and the lock's release/acquire
//! edges order successive writers. Readers ([`CacheStats::snapshot`]) sum
//! the shards locklessly and may observe a bump late — fine for
//! reporting, which only runs after quiescence.
//!
//! The single-writer lock need not be a *slot* lock: node-path counters
//! (`node_lock_contended`, `pre_movements`) are bumped only under the
//! node lock and attributed to shard 0. Events recorded outside any lock
//! (slot-lock misses) use [`Counter::add_contended`], a real `fetch_add`,
//! because they can race; they are off the hot path by definition. Never
//! mix the two schemes on one counter — an RMW landing between a lock
//! holder's load and store is silently overwritten.

use std::sync::atomic::{AtomicI64, AtomicU32, AtomicU64, AtomicUsize, Ordering};

use crossbeam::utils::CachePadded;
use pbs_telemetry::{ComponentTelemetry, EventKind, EventRing, LogHistogram, NamedHistogram};
use serde::{Deserialize, Serialize};

/// Process-wide cache id allocator, so trace events from different caches
/// stay distinguishable in a merged timeline (`src` field of each record).
static NEXT_CACHE_ID: AtomicU32 = AtomicU32::new(1);

/// Records per trace lane. Cache hot paths emit at most a handful of event
/// kinds per operation, and the interesting windows (OOM deferral, slab
/// churn storms) are short; 256 records per lane keeps the footprint at a
/// few KiB per CPU slot while surviving typical bursts.
const CACHE_LANE_CAPACITY: usize = 256;

/// A single event counter inside a [`StatShard`].
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds 1 from the shard's owner (the holder of the matching per-CPU
    /// slot lock). A plain load/store pair — no atomic RMW — so callers
    /// must hold that lock; see the module docs.
    #[inline]
    pub fn bump(&self) {
        self.bump_by(1);
    }

    /// Owner-only add, as [`Counter::bump`].
    #[inline]
    pub fn bump_by(&self, n: u64) {
        self.0
            .store(self.0.load(Ordering::Relaxed).wrapping_add(n), Ordering::Relaxed);
    }

    /// Adds from any thread (atomic RMW) for events recorded outside the
    /// shard's slot lock.
    #[inline]
    pub fn add_contended(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed per-shard tally (live-object delta: allocations minus frees
/// attributed to this shard; individual shards can go negative when an
/// object is allocated on one CPU and freed on another).
///
/// Deliberately has no contended (RMW) variant: every update races with
/// the slot-lock holders' plain load+store bumps, so *all* writers must
/// hold the owning slot's lock — a fetch_add from outside it can land
/// between a holder's load and store and be silently overwritten.
#[derive(Debug, Default)]
pub struct SignedCounter(AtomicI64);

impl SignedCounter {
    /// Owner-only `+1`; same single-writer contract as [`Counter::bump`].
    #[inline]
    pub fn bump_add(&self) {
        self.0
            .store(self.0.load(Ordering::Relaxed).wrapping_add(1), Ordering::Relaxed);
    }

    /// Owner-only `-1`.
    #[inline]
    pub fn bump_sub(&self) {
        self.0
            .store(self.0.load(Ordering::Relaxed).wrapping_sub(1), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Per-CPU block of hot-path counters. One per CPU slot, cache-padded so
/// slots never false-share.
#[derive(Debug, Default)]
pub struct StatShard {
    /// Allocation requests served (successfully) off the slow path;
    /// per-CPU stack hits fold in at snapshot time.
    pub alloc_requests: Counter,
    /// Allocations served after merging safe deferred objects from the
    /// latent cache (Prudence only; counted as hits for Figure 7, tracked
    /// separately for diagnostics).
    pub latent_hits: Counter,
    /// Immediate frees.
    pub frees: Counter,
    /// Deferred frees (`free_deferred`).
    pub deferred_frees: Counter,
    /// Object-cache refill operations (from node slabs).
    pub refills: Counter,
    /// Refills that were *partial* because deferred objects were pending in
    /// the latent cache (Prudence optimization, §4.2).
    pub partial_refills: Counter,
    /// Object-cache flush operations (to node slabs).
    pub flushes: Counter,
    /// Latent-cache pre-flush operations performed off the hot path.
    pub preflushes: Counter,
    /// Slab pre-movements (Prudence, §4.2): a slab moved to the free list
    /// because every allocated object in it is deferred. Full slabs with
    /// some deferred objects stay full, so only free-list moves count.
    pub pre_movements: Counter,
    /// Times the node-list lock was contended (try_lock failed).
    /// Single-writer under the *node* lock — bumped (plain [`Counter::bump`])
    /// only by the thread that just acquired it, and always attributed to
    /// shard 0. Never bump this without holding the node lock: it would
    /// race the existing non-atomic bumps.
    pub node_lock_contended: Counter,
    /// Times the home CPU slot's try_lock failed and the allocation took
    /// the slow path (spin, neighbor slot, or blocking acquire). Recorded
    /// outside slot locks: use [`Counter::add_contended`].
    pub cpu_slot_misses: Counter,
    /// Live-object delta attributed to this shard.
    pub live_delta: SignedCounter,
}

/// Live statistics maintained by a slab cache: sharded hot counters plus
/// a few cold, globally-shared ones.
///
/// Allocators update shards on their hot paths; experiments read a
/// [`CacheStatsSnapshot`] at the end of a run.
#[derive(Debug)]
pub struct CacheStats {
    /// Process-unique id for this cache, stamped into every trace event's
    /// `src` field.
    id: u32,
    /// One shard per CPU slot.
    shards: Box<[CachePadded<StatShard>]>,
    /// Event ring with one lane per CPU slot plus a final lane reserved
    /// for node-path events (see [`CacheStats::node_lane`]). The lane
    /// assignment reuses the single-writer discipline that protects the
    /// shards: slot lanes are written only under the owning slot lock,
    /// the node lane only under the node lock, so lane writes never race.
    pub ring: EventRing,
    /// Time spent waiting for a per-CPU slot lock when the home slot's
    /// `try_lock` missed (nanoseconds). Only slow paths record here.
    pub slot_wait_ns: LogHistogram,
    /// `free_deferred` → object-reusable delay (nanoseconds): how long a
    /// deferred object sat in the latent cache before a merge made it
    /// allocatable again (the Prudence counterpart of the baseline's
    /// callback delay).
    pub defer_delay_ns: LogHistogram,
    /// Slab-cache grow operations (slabs allocated from the page
    /// allocator). Cold: a grow amortizes over a whole slab of objects.
    pub grows: AtomicU64,
    /// Slab-cache shrink operations (slabs returned to the page allocator).
    pub shrinks: AtomicU64,
    /// Times an allocation had to wait for a grace period under memory
    /// pressure instead of triggering OOM (Prudence, §4.2).
    pub oom_waits: AtomicU64,
    /// Slabs currently allocated.
    pub slabs_current: AtomicUsize,
    /// Peak of `slabs_current`.
    pub slabs_peak: AtomicUsize,
    /// Deferred-backlog pressure level (gauge): 0 = nominal, 1 = soft
    /// watermark crossed, 2 = hard watermark crossed. Maintained by
    /// [`update_pressure`](Self::update_pressure).
    pub pressure_level: AtomicUsize,
    /// Pressure-level transitions, either direction.
    pub pressure_transitions: AtomicU64,
    /// Caller-assisted reclaim passes run by freeing threads while at the
    /// hard pressure level.
    pub assisted_merges: AtomicU64,
    /// Successful OOM-ladder recoveries attributed to each rung (index 0 =
    /// stage 1 local flush, 1 = stage 2 expedited GP + merge, 2 = stage 3
    /// backoff retry). Cold: one bump per recovered allocation.
    pub oom_recoveries: [AtomicU64; 3],
}

impl Default for CacheStats {
    fn default() -> Self {
        Self::new(1)
    }
}

impl CacheStats {
    /// Creates zeroed statistics with one shard per CPU slot (at least
    /// one).
    pub fn new(nshards: usize) -> Self {
        let nshards = nshards.max(1);
        Self {
            id: NEXT_CACHE_ID.fetch_add(1, Ordering::Relaxed),
            shards: (0..nshards)
                .map(|_| CachePadded::new(StatShard::default()))
                .collect(),
            // One lane per CPU slot plus the node lane.
            ring: EventRing::new(nshards + 1, CACHE_LANE_CAPACITY),
            slot_wait_ns: LogHistogram::default(),
            defer_delay_ns: LogHistogram::default(),
            grows: AtomicU64::new(0),
            shrinks: AtomicU64::new(0),
            oom_waits: AtomicU64::new(0),
            slabs_current: AtomicUsize::new(0),
            slabs_peak: AtomicUsize::new(0),
            pressure_level: AtomicUsize::new(0),
            pressure_transitions: AtomicU64::new(0),
            assisted_merges: AtomicU64::new(0),
            oom_recoveries: [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)],
        }
    }

    /// Publishes the deferred-backlog pressure level implied by
    /// `outstanding` against the `soft`/`hard` watermarks. Returns
    /// `Some((from, to))` when this caller won the transition (so exactly
    /// one racing thread runs any transition side effect), `None` when the
    /// level is unchanged or another thread transitioned first.
    pub fn update_pressure(
        &self,
        outstanding: usize,
        soft: usize,
        hard: usize,
    ) -> Option<(usize, usize)> {
        let new = if outstanding >= hard {
            2
        } else if outstanding >= soft {
            1
        } else {
            0
        };
        let old = self.pressure_level.load(Ordering::Relaxed);
        if new == old {
            return None;
        }
        if self
            .pressure_level
            .compare_exchange(old, new, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            self.pressure_transitions.fetch_add(1, Ordering::Relaxed);
            Some((old, new))
        } else {
            None
        }
    }

    /// Counts a successful OOM-ladder recovery attributed to `stage`
    /// (1-based; stages past the ladder clamp to the last rung).
    pub fn record_oom_recovery(&self, stage: usize) {
        let idx = stage.saturating_sub(1).min(self.oom_recoveries.len() - 1);
        self.oom_recoveries[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Process-unique id for this cache (stamped into trace events).
    #[inline]
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Index of the trace lane reserved for events recorded under the
    /// node lock (grow/shrink/pre-movement). Per-CPU hot-path events use
    /// the slot index as the lane.
    #[inline]
    pub fn node_lane(&self) -> usize {
        self.ring.lanes() - 1
    }

    /// Records a trace event on the node lane. Callers must hold the node
    /// lock (or otherwise be the only writer of that lane), matching the
    /// single-writer ring discipline.
    #[inline]
    pub fn record_node_event(&self, kind: EventKind, a: u64, b: u64) {
        self.ring.record(self.node_lane(), kind, self.id, a, b);
    }

    /// The shard for CPU slot `cpu` (wrapped into range, like CPU-slot
    /// selection itself).
    #[inline]
    pub fn shard(&self, cpu: usize) -> &StatShard {
        // Callers pass an in-range slot index on every hot path; branch
        // instead of `%` so the common case skips a hardware divide.
        let n = self.shards.len();
        let idx = if cpu < n { cpu } else { cpu % n };
        &self.shards[idx]
    }

    /// Records that a slab was allocated, maintaining the peak watermark.
    ///
    /// The peak is folded in with `fetch_max`: `slabs_peak` only ever
    /// increases and ends up at least `slabs_current`'s value as observed
    /// here. A concurrent grow publishing a larger peak makes this call's
    /// contribution moot, and `fetch_max` stops right there instead of
    /// retrying a CAS it can no longer win.
    pub fn record_grow(&self) {
        self.grows.fetch_add(1, Ordering::Relaxed);
        let now = self.slabs_current.fetch_add(1, Ordering::Relaxed) + 1;
        self.slabs_peak.fetch_max(now, Ordering::Relaxed);
        self.record_node_event(EventKind::SlabGrow, now as u64, 0);
    }

    /// Records that a slab was returned to the page allocator.
    pub fn record_shrink(&self) {
        self.shrinks.fetch_add(1, Ordering::Relaxed);
        let before = self.slabs_current.fetch_sub(1, Ordering::Relaxed);
        self.record_node_event(EventKind::SlabShrink, before.saturating_sub(1) as u64, 0);
    }

    /// Telemetry view of this cache: slot-wait and defer-delay histograms
    /// plus the event-ring snapshot.
    pub fn telemetry(&self) -> ComponentTelemetry {
        ComponentTelemetry::new(
            self.ring.snapshot(),
            vec![
                NamedHistogram {
                    name: "slot_wait_ns".to_string(),
                    hist: self.slot_wait_ns.snapshot(),
                },
                NamedHistogram {
                    name: "defer_delay_ns".to_string(),
                    hist: self.defer_delay_ns.snapshot(),
                },
            ],
        )
    }

    /// Takes a consistent-enough snapshot for reporting, summing all
    /// shards.
    pub fn snapshot(&self, object_size: usize, slab_bytes: usize) -> CacheStatsSnapshot {
        self.snapshot_with_fastpath(object_size, slab_bytes, &pbs_percpu::FastPathSnapshot::default())
    }

    /// [`snapshot`](Self::snapshot) plus the allocator's per-CPU
    /// fast-path totals. Fast-path hits never touch the shards (that is
    /// the point), so they are folded in here: a fast pop is an
    /// allocation request served from cache, a fast push is an immediate
    /// free, and both move the live-object balance — *before* the
    /// non-negative clamp, because with a fast cache in front the shard
    /// sum alone can legitimately go negative (alloc on the fast path,
    /// free on the slow path).
    pub fn snapshot_with_fastpath(
        &self,
        object_size: usize,
        slab_bytes: usize,
        fast: &pbs_percpu::FastPathSnapshot,
    ) -> CacheStatsSnapshot {
        let mut snap = CacheStatsSnapshot {
            object_size,
            slab_bytes,
            grows: self.grows.load(Ordering::Relaxed),
            shrinks: self.shrinks.load(Ordering::Relaxed),
            oom_waits: self.oom_waits.load(Ordering::Relaxed),
            slabs_current: self.slabs_current.load(Ordering::Relaxed),
            slabs_peak: self.slabs_peak.load(Ordering::Relaxed),
            pressure_level: self.pressure_level.load(Ordering::Relaxed),
            pressure_transitions: self.pressure_transitions.load(Ordering::Relaxed),
            assisted_merges: self.assisted_merges.load(Ordering::Relaxed),
            oom_recoveries_stage1: self.oom_recoveries[0].load(Ordering::Relaxed),
            oom_recoveries_stage2: self.oom_recoveries[1].load(Ordering::Relaxed),
            oom_recoveries_stage3: self.oom_recoveries[2].load(Ordering::Relaxed),
            ..CacheStatsSnapshot::default()
        };
        let mut live = 0i64;
        for shard in self.shards.iter() {
            snap.alloc_requests += shard.alloc_requests.get();
            snap.latent_hits += shard.latent_hits.get();
            snap.frees += shard.frees.get();
            snap.deferred_frees += shard.deferred_frees.get();
            snap.refills += shard.refills.get();
            snap.partial_refills += shard.partial_refills.get();
            snap.flushes += shard.flushes.get();
            snap.preflushes += shard.preflushes.get();
            snap.pre_movements += shard.pre_movements.get();
            snap.node_lock_contended += shard.node_lock_contended.get();
            snap.cpu_slot_misses += shard.cpu_slot_misses.get();
            live += shard.live_delta.get();
        }
        snap.alloc_requests += fast.alloc_hits;
        snap.cache_hits += fast.alloc_hits;
        snap.frees += fast.free_hits;
        snap.rseq_hits = fast.alloc_hits + fast.free_hits;
        snap.rseq_restarts = fast.restarts;
        snap.fastpath_fallbacks = fast.fallbacks;
        live += fast.alloc_hits as i64 - fast.free_hits as i64;
        snap.live_objects = live.max(0) as u64;
        snap
    }
}

/// Immutable snapshot of [`CacheStats`] plus derived metrics.
///
/// # Example
///
/// ```
/// use pbs_alloc_api::CacheStats;
///
/// let stats = CacheStats::new(2);
/// stats.record_grow();
/// let snap = stats.snapshot(64, 4096);
/// assert_eq!(snap.slabs_peak, 1);
/// assert_eq!(snap.slab_churns(), 0); // a grow without a shrink is not a churn pair
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct CacheStatsSnapshot {
    /// Object size of the cache.
    pub object_size: usize,
    /// Bytes per slab.
    pub slab_bytes: usize,
    /// See [`StatShard`]/[`CacheStats`] field docs for each counter.
    pub alloc_requests: u64,
    /// Allocations served directly from the object cache.
    pub cache_hits: u64,
    /// Allocations served from merged-in safe deferred objects.
    pub latent_hits: u64,
    /// Immediate frees.
    pub frees: u64,
    /// Deferred frees.
    pub deferred_frees: u64,
    /// Object-cache refills.
    pub refills: u64,
    /// Partial refills.
    pub partial_refills: u64,
    /// Object-cache flushes.
    pub flushes: u64,
    /// Latent-cache pre-flushes.
    pub preflushes: u64,
    /// Slab grow operations.
    pub grows: u64,
    /// Slab shrink operations.
    pub shrinks: u64,
    /// Slab pre-movements to the free list.
    pub pre_movements: u64,
    /// Contended node-lock acquisitions.
    pub node_lock_contended: u64,
    /// Home-CPU-slot try_lock misses (allocation took a slow path).
    pub cpu_slot_misses: u64,
    /// OOM-deferral waits.
    pub oom_waits: u64,
    /// Slabs currently held.
    pub slabs_current: usize,
    /// Peak slabs held (Figure 10).
    pub slabs_peak: usize,
    /// Live (requested) objects at snapshot time.
    pub live_objects: u64,
    /// Deferred-backlog pressure level at snapshot time (0 = nominal,
    /// 1 = soft, 2 = hard).
    pub pressure_level: usize,
    /// Pressure-level transitions, either direction.
    pub pressure_transitions: u64,
    /// Caller-assisted reclaim passes at the hard pressure level.
    pub assisted_merges: u64,
    /// OOM recoveries via ladder stage 1 (local latent flush).
    pub oom_recoveries_stage1: u64,
    /// OOM recoveries via ladder stage 2 (expedited GP + full merge).
    pub oom_recoveries_stage2: u64,
    /// OOM recoveries via ladder stage 3 (backoff retry).
    pub oom_recoveries_stage3: u64,
    /// Operations (pops + pushes) served by the per-CPU fast path with
    /// no lock and no atomic RMW. Counted for both engines; under the
    /// emulation engine these are slot-mutex hits with the same
    /// semantics, so trajectories stay comparable across hosts.
    pub rseq_hits: u64,
    /// rseq critical sections restarted by preemption/migration (always
    /// zero under the emulation engine).
    pub rseq_restarts: u64,
    /// Fast-path operations that went to the slow path (empty/full stack,
    /// or an rseq bypass: drain in flight, unregistered thread, restart
    /// budget spent).
    pub fastpath_fallbacks: u64,
}

impl CacheStatsSnapshot {
    /// Percentage of allocation requests served from the object cache
    /// (Figure 7). Latent-cache merges count as hits, as in the paper:
    /// "eligible deferred objects ... are merged into the object cache and
    /// the allocation request is served from the object cache".
    pub fn hit_percent(&self) -> f64 {
        if self.alloc_requests == 0 {
            return 0.0;
        }
        100.0 * (self.cache_hits + self.latent_hits) as f64 / self.alloc_requests as f64
    }

    /// Object-cache churns: pairs of refill/flush operations (Figure 8).
    pub fn object_cache_churns(&self) -> u64 {
        self.refills.min(self.flushes)
    }

    /// Slab churns: pairs of grow/shrink operations (Figure 9).
    pub fn slab_churns(&self) -> u64 {
        self.grows.min(self.shrinks)
    }

    /// Total frees of any kind.
    pub fn total_frees(&self) -> u64 {
        self.frees + self.deferred_frees
    }

    /// Allocations that recovered from OOM via any ladder stage.
    pub fn oom_recoveries_total(&self) -> u64 {
        self.oom_recoveries_stage1 + self.oom_recoveries_stage2 + self.oom_recoveries_stage3
    }

    /// Percentage of frees that were deferred (Figure 12).
    pub fn deferred_free_percent(&self) -> f64 {
        let total = self.total_frees();
        if total == 0 {
            return 0.0;
        }
        100.0 * self.deferred_frees as f64 / total as f64
    }

    /// Total fragmentation `f_t = allocated / requested` (paper §4.2):
    /// slab memory held by the allocator divided by memory the cache user
    /// actually has live. Returns `None` when no objects are live.
    pub fn total_fragmentation(&self) -> Option<f64> {
        let requested = self.live_objects * self.object_size as u64;
        if requested == 0 {
            return None;
        }
        Some((self.slabs_current * self.slab_bytes) as f64 / requested as f64)
    }

    /// Folds another snapshot into this one (summing counters, taking max
    /// of peaks). Useful for aggregating per-CPU or per-class stats.
    pub fn merge(&mut self, other: &CacheStatsSnapshot) {
        self.alloc_requests += other.alloc_requests;
        self.cache_hits += other.cache_hits;
        self.latent_hits += other.latent_hits;
        self.frees += other.frees;
        self.deferred_frees += other.deferred_frees;
        self.refills += other.refills;
        self.partial_refills += other.partial_refills;
        self.flushes += other.flushes;
        self.preflushes += other.preflushes;
        self.grows += other.grows;
        self.shrinks += other.shrinks;
        self.pre_movements += other.pre_movements;
        self.node_lock_contended += other.node_lock_contended;
        self.cpu_slot_misses += other.cpu_slot_misses;
        self.oom_waits += other.oom_waits;
        self.slabs_current += other.slabs_current;
        self.slabs_peak += other.slabs_peak;
        self.live_objects += other.live_objects;
        // The merged pressure level is the worst of the two gauges.
        self.pressure_level = self.pressure_level.max(other.pressure_level);
        self.pressure_transitions += other.pressure_transitions;
        self.assisted_merges += other.assisted_merges;
        self.oom_recoveries_stage1 += other.oom_recoveries_stage1;
        self.oom_recoveries_stage2 += other.oom_recoveries_stage2;
        self.oom_recoveries_stage3 += other.oom_recoveries_stage3;
        self.rseq_hits += other.rseq_hits;
        self.rseq_restarts += other.rseq_restarts;
        self.fastpath_fallbacks += other.fastpath_fallbacks;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap_with(f: impl FnOnce(&CacheStats)) -> CacheStatsSnapshot {
        let s = CacheStats::new(2);
        f(&s);
        s.snapshot(64, 4096)
    }

    /// A snapshot whose stack served `hits` allocations on top of `f`.
    fn snap_with_hits(hits: u64, f: impl FnOnce(&CacheStats)) -> CacheStatsSnapshot {
        let s = CacheStats::new(2);
        f(&s);
        let fast = pbs_percpu::FastPathSnapshot {
            alloc_hits: hits,
            ..Default::default()
        };
        s.snapshot_with_fastpath(64, 4096, &fast)
    }

    #[test]
    fn hit_percent_counts_latent_hits() {
        let snap = snap_with_hits(6, |s| {
            s.shard(0).alloc_requests.bump_by(4);
            s.shard(1).latent_hits.bump_by(2);
        });
        assert_eq!(snap.alloc_requests, 10);
        assert!((snap.hit_percent() - 80.0).abs() < 1e-9);
    }

    #[test]
    fn hit_percent_zero_requests() {
        assert_eq!(snap_with(|_| {}).hit_percent(), 0.0);
    }

    #[test]
    fn churns_are_pairs() {
        let snap = snap_with(|s| {
            s.shard(0).refills.bump_by(10);
            s.shard(1).flushes.bump_by(7);
            s.grows.store(3, Ordering::Relaxed);
            s.shrinks.store(5, Ordering::Relaxed);
        });
        assert_eq!(snap.object_cache_churns(), 7);
        assert_eq!(snap.slab_churns(), 3);
    }

    #[test]
    fn deferred_free_percent() {
        let snap = snap_with(|s| {
            s.shard(0).frees.bump_by(75);
            s.shard(1).deferred_frees.bump_by(25);
        });
        assert!((snap.deferred_free_percent() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn fragmentation_formula() {
        let snap = snap_with(|s| {
            s.slabs_current.store(2, Ordering::Relaxed);
            for _ in 0..64 {
                s.shard(0).live_delta.bump_add();
            }
        });
        // 2 slabs * 4096 B / (64 objects * 64 B) = 2.0
        assert!((snap.total_fragmentation().unwrap() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn fragmentation_none_when_no_live_objects() {
        assert_eq!(snap_with(|_| {}).total_fragmentation(), None);
    }

    #[test]
    fn shards_sum_and_wrap() {
        let s = CacheStats::new(2);
        s.shard(0).alloc_requests.bump();
        s.shard(1).alloc_requests.bump();
        // Slot index wraps modulo shard count, like CPU-slot selection.
        s.shard(2).alloc_requests.bump();
        s.shard(3).cpu_slot_misses.add_contended(2);
        let snap = s.snapshot(64, 4096);
        assert_eq!(snap.alloc_requests, 3);
        assert_eq!(snap.cpu_slot_misses, 2);
    }

    #[test]
    fn cross_shard_live_delta_balances() {
        // Alloc on shard 0, free on shard 1: shard 1 goes negative but the
        // summed snapshot stays balanced.
        let s = CacheStats::new(2);
        for _ in 0..3 {
            s.shard(0).live_delta.bump_add();
        }
        s.shard(1).live_delta.bump_sub();
        assert_eq!(s.shard(1).live_delta.get(), -1);
        assert_eq!(s.snapshot(64, 4096).live_objects, 2);
    }

    #[test]
    fn grow_shrink_update_peak() {
        let s = CacheStats::new(1);
        s.record_grow();
        s.record_grow();
        s.record_shrink();
        s.record_grow();
        let snap = s.snapshot(8, 4096);
        assert_eq!(snap.slabs_current, 2);
        assert_eq!(snap.slabs_peak, 2);
        assert_eq!(snap.grows, 3);
        assert_eq!(snap.shrinks, 1);
    }

    #[test]
    fn merge_sums_counters() {
        let mut a = snap_with_hits(5, |_| {});
        let b = snap_with_hits(1, |s| s.shard(0).alloc_requests.bump_by(4));
        a.merge(&b);
        assert_eq!(a.alloc_requests, 10);
        assert!((a.hit_percent() - 60.0).abs() < 1e-9);
    }

    #[test]
    fn cache_ids_are_unique() {
        let a = CacheStats::new(1);
        let b = CacheStats::new(1);
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn grow_shrink_emit_node_lane_events() {
        let s = CacheStats::new(2);
        s.record_grow();
        s.record_grow();
        s.record_shrink();
        assert_eq!(s.node_lane(), 2); // one lane per slot + the node lane
        let t = s.telemetry();
        assert_eq!(t.count_of(pbs_telemetry::EventKind::SlabGrow), 2);
        assert_eq!(t.count_of(pbs_telemetry::EventKind::SlabShrink), 1);
        // Every event is stamped with this cache's id and the node lane.
        for e in &t.events {
            assert_eq!(e.src, s.id());
            assert_eq!(e.lane as usize, s.node_lane());
        }
    }

    #[test]
    fn telemetry_exposes_named_histograms() {
        let s = CacheStats::new(1);
        s.slot_wait_ns.record(100);
        s.defer_delay_ns.record(5);
        s.defer_delay_ns.record(9);
        let t = s.telemetry();
        assert_eq!(t.histogram("slot_wait_ns").unwrap().count, 1);
        assert_eq!(t.histogram("defer_delay_ns").unwrap().count, 2);
        assert!(t.histogram("no_such_histogram").is_none());
    }

    #[test]
    fn snapshot_serializes() {
        let snap = snap_with(|s| s.shard(0).alloc_requests.bump());
        let json = serde_json::to_string(&snap).unwrap();
        let back: CacheStatsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }
}
