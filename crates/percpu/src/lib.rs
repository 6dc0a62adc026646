//! Per-CPU object stacks with two interchangeable engines.
//!
//! The hot paths of both allocators (`prudence`, `pbs-slub`) want an
//! uncontended alloc/free pair to perform **zero atomic
//! read-modify-writes and zero lock acquisitions** — the property the
//! paper attributes to Prudence's per-CPU object caches running under
//! kernel preemption control. Userspace has no `preempt_disable`, but
//! Linux offers the next best thing: restartable sequences
//! ([`rseq(2)`]), where the kernel *restarts* a registered critical
//! section whenever the thread is preempted or migrated, so a
//! load→compute→single-commit-store sequence is per-CPU atomic without
//! any `lock`-prefixed instruction.
//!
//! This crate packages that as a [`FastCache`]: a per-CPU array stack of
//! `usize` values (object addresses) with push/pop commit points. It is
//! the allocators' only per-CPU object cache: hits pop and push single
//! objects, while refills, flushes and drains move batches. Two engines
//! implement the protocol behind one API:
//!
//! * [`Engine::Rseq`] — the real thing. Requires Linux ≥ 4.18 on
//!   x86-64/glibc with `membarrier(PRIVATE_EXPEDITED_RSEQ)` available
//!   (the fence that lets another thread *stop* all in-flight critical
//!   sections, which remote drains need). Selected automatically, like
//!   the membarrier fallback in `pbs-rcu`.
//! * [`Engine::Locks`] — a portable emulation that performs the same
//!   slot operations under a per-slot `parking_lot` mutex. Always
//!   available; the only choice under Miri or on non-rseq platforms, and
//!   forceable with `PBS_FASTPATH=locks`.
//!
//! A cache picks its engine once, at construction. Every slot carries a
//! mode word that the rseq critical section checks *inside* the commit
//! window: a drain takes every slot lock, parks the slots in `off`,
//! issues one rseq fence (aborting any still-running critical section),
//! empties them, and only then restores the mode — so a concurrent
//! operation either committed before the drain or bails to the caller's
//! slow path.
//!
//! Statistics (`alloc_hits`, `free_hits`, `restarts`, `fallbacks`) are
//! accumulated in per-thread single-writer counters — plain load+store
//! bumps, since counting must not reintroduce the atomics the fast path
//! just removed — registered with a shared sink that
//! [`FastCache::snapshot`] reads through, so no count ever waits on a
//! thread-exit flush. Batch operations are not hits and count only
//! their rseq restarts.
//!
//! [`rseq(2)`]: https://man7.org/linux/man-pages/man2/rseq.2.html

mod rseq;
mod tls;

#[cfg(all(pbs_rseq, not(miri)))]
use rseq::{RSEQ_BYPASS, RSEQ_MOVED, RSEQ_RESTART};

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::{Mutex, MutexGuard};

/// Slot mode: no fast-path commits allowed (a drain is in flight).
/// Otherwise a slot's mode is its cache's engine as `u32`.
const MODE_OFF: u32 = 0;

/// Which per-CPU protocol a [`FastCache`] runs. The discriminants are the
/// engine's slot mode (the rseq sections commit only in mode 1) and its
/// wire code in trace payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Restartable-sequence commit points (Linux, x86-64, glibc ≥ 2.35).
    Rseq = 1,
    /// Portable slot-lock emulation.
    Locks = 2,
}

impl Engine {
    /// Stable label for logs, metrics and `PBS_FASTPATH`.
    pub fn label(self) -> &'static str {
        match self {
            Engine::Rseq => "rseq",
            Engine::Locks => "locks",
        }
    }
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The engine new [`FastCache`]s start on, decided once per process (the
/// same decide-once pattern as the RCU membarrier strategy):
/// `PBS_FASTPATH=locks` forces the emulation; otherwise (`rseq`, empty or
/// unset) `rseq` when the kernel supports both restartable sequences and
/// the rseq membarrier fence, else `locks`.
pub fn default_engine() -> Engine {
    static DEFAULT: OnceLock<Engine> = OnceLock::new();
    *DEFAULT.get_or_init(|| match std::env::var("PBS_FASTPATH").as_deref() {
        Ok("locks") => Engine::Locks,
        // An explicit `rseq` request still degrades gracefully on
        // platforms without it: the emulation engine is the honest
        // answer, not a panic.
        Ok("rseq") | Ok("") | Err(_) => supported_or_locks(Engine::Rseq),
        Ok(other) => {
            eprintln!("PBS_FASTPATH={other}: expected `rseq` or `locks`; using the default");
            supported_or_locks(Engine::Rseq)
        }
    })
}

fn supported_or_locks(engine: Engine) -> Engine {
    if engine == Engine::Rseq && !rseq::supported() {
        Engine::Locks
    } else {
        engine
    }
}

/// Always `false`: every cache has a fast path, because the per-CPU
/// stack is the allocators' only object cache. Kept so provenance
/// writers built against the old `PBS_FASTPATH=off` switch still build
/// and report the engine.
pub fn env_disabled() -> bool {
    false
}

/// Number of per-CPU slots a [`FastCache`] allocates: one per *possible*
/// CPU id, so an rseq-reported cpu number always indexes its own slot
/// (any sharing would break the per-CPU mutual-exclusion argument).
pub fn nslots() -> usize {
    static NSLOTS: OnceLock<usize> = OnceLock::new();
    *NSLOTS.get_or_init(possible_cpus)
}

fn possible_cpus() -> usize {
    // `/sys/.../possible` is authoritative for the highest cpu id rseq
    // can ever report ("0-63" style); affinity-based counts can
    // undercount on restricted cpusets. Fall back gracefully (Miri,
    // non-Linux, sandboxes).
    if let Ok(s) = std::fs::read_to_string("/sys/devices/system/cpu/possible") {
        if let Some(hi) = s.trim().rsplit(['-', ',']).next() {
            if let Ok(hi) = hi.parse::<usize>() {
                return (hi + 1).min(4096);
            }
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Per-CPU slot header, layout shared with the rseq assembly:
/// `current` at +0, `cap` at +8, `mode` at +16, `items` at +24.
/// Cache-line aligned and padded so neighbouring CPUs' slots (and their
/// lock words) never false-share.
#[repr(C, align(128))]
struct SlotHdr {
    /// Number of objects in `items`; the single commit store of both
    /// critical sections. Only written inside an rseq critical section
    /// or under the slot mutex with the matching mode.
    current: AtomicU64,
    /// Capacity of `items` (read-only after construction).
    cap: u64,
    /// Which protocol may currently touch this slot. The rseq
    /// critical section re-checks it inside the commit window, so
    /// parking the slot in `MODE_OFF` plus one rseq fence is sufficient
    /// to stop all fast-path commits.
    mode: AtomicU32,
    _pad: u32,
    /// The object stack: the buffer of the slot's `buf`.
    items: *mut usize,
}

struct Slot {
    hdr: SlotHdr,
    /// Owns the buffer `hdr.items` points into; only ever accessed
    /// through that pointer.
    _buf: Vec<usize>,
    /// Taken by every lock-engine operation, and by drains under either
    /// engine.
    lock: Mutex<()>,
    /// Lock-engine counters, bumped with plain load+store while the slot
    /// lock is held (the repo's `Counter::bump` discipline): the hit
    /// path must not pay the thread-local stats machinery the rseq
    /// engine needs. Snapshots read them racily, which at worst lags by
    /// the op in flight.
    alloc_hits: AtomicU64,
    free_hits: AtomicU64,
    fallbacks: AtomicU64,
}

impl Slot {
    /// One plain load+store increment; caller holds the slot lock.
    #[inline]
    fn bump(counter: &AtomicU64) {
        counter.store(counter.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
    }

    /// Objects parked in the slot (racy outside the protocol).
    #[inline]
    fn depth(&self) -> usize {
        self.hdr.current.load(Ordering::Relaxed) as usize
    }

    fn new(cap: usize, mode: u32) -> Self {
        let mut buf = vec![0usize; cap];
        Slot {
            hdr: SlotHdr {
                current: AtomicU64::new(0),
                cap: cap as u64,
                mode: AtomicU32::new(mode),
                _pad: 0,
                items: buf.as_mut_ptr(),
            },
            _buf: buf,
            lock: Mutex::new(()),
            alloc_hits: AtomicU64::new(0),
            free_hits: AtomicU64::new(0),
            fallbacks: AtomicU64::new(0),
        }
    }
}

// SAFETY: `items` points into the slot's own buffer; all access is
// serialized by the slot protocol (rseq per-CPU exclusivity or the slot
// mutex).
unsafe impl Send for Slot {}
unsafe impl Sync for Slot {}

/// Outcome of a fast-path pop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FastPop {
    /// An object address; the caller owns it now.
    Hit(usize),
    /// The slot was empty — refill via the slow path.
    Empty,
    /// The rseq fast path is unavailable (drain in flight, unregistered
    /// thread, restart budget exhausted); use the slow path. The lock
    /// engine never bypasses.
    Bypass,
}

/// Outcome of a fast-path push.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FastPush {
    /// The object is parked in the per-CPU slot.
    Pushed,
    /// The slot is full — flush via the slow path.
    Full,
    /// The rseq fast path is unavailable; use the slow path.
    Bypass,
}

/// Shared-sink totals for one [`FastCache`] (flushed thread-locals
/// included for the calling thread; other threads' in-flight counts
/// arrive when they exit or snapshot).
#[derive(Debug, Clone, Copy, Default)]
pub struct FastPathSnapshot {
    /// Pops served without a lock or atomic RMW.
    pub alloc_hits: u64,
    /// Pushes absorbed without a lock or atomic RMW.
    pub free_hits: u64,
    /// rseq critical sections restarted (preemption/migration aborts).
    pub restarts: u64,
    /// Operations that fell back to the caller's slow path.
    pub fallbacks: u64,
}

/// Spin budget on a busy slot before trying neighbours: slot critical
/// sections are short, so a handful of `spin_loop` hints usually outlasts
/// the holder without burning a timeslice.
const SLOT_SPIN: usize = 24;

/// The contended half of a per-CPU slot lock, shared by the lock engine
/// and the allocators' policy slots: spin briefly on the busy `home`
/// slot, then take any free one of the `n` slots, else block on `home`.
/// `try_lock(i)` and `lock(i)` acquire slot `i`; returns the index
/// acquired with its guard.
#[cold]
pub fn steal_slot<G>(
    n: usize,
    home: usize,
    try_lock: impl Fn(usize) -> Option<G>,
    lock: impl FnOnce(usize) -> G,
) -> (usize, G) {
    for _ in 0..SLOT_SPIN {
        std::hint::spin_loop();
        if let Some(guard) = try_lock(home) {
            return (home, guard);
        }
    }
    for offset in 1..n {
        let idx = (home + offset) % n;
        if let Some(guard) = try_lock(idx) {
            return (idx, guard);
        }
    }
    (home, lock(home))
}

static NEXT_CACHE_ID: AtomicU64 = AtomicU64::new(1);

/// A per-CPU stack of object addresses with commit-point push/pop.
///
/// Values are plain `usize`s (object addresses); values up to 3 are never
/// valid heap addresses and must not be pushed.
pub struct FastCache {
    id: u64,
    engine: Engine,
    cap: usize,
    slots: Box<[Slot]>,
    sink: Arc<tls::Sinks>,
}

impl FastCache {
    /// A cache with one `cap`-element slot per possible CPU on the
    /// process default engine.
    pub fn new(cap: usize) -> Self {
        Self::with_slots(cap, 0, default_engine())
    }

    /// A cache on `engine` (degraded to [`Engine::Locks`] where rseq is
    /// unavailable) with at least `min_slots` slots.
    ///
    /// The rseq engine indexes slots by cpu id and never reaches past
    /// [`nslots`]; the extra slots serve the lock engine, whose threads
    /// round-robin over all of them. An allocator sized for `n` CPU
    /// slots passes `n` here so the emulation engine spreads load the
    /// same way its per-CPU policy state does, instead of funnelling
    /// every thread through the few slots a small machine would get.
    pub fn with_slots(cap: usize, min_slots: usize, engine: Engine) -> Self {
        let engine = supported_or_locks(engine);
        let n = nslots().max(min_slots.min(4096));
        FastCache {
            id: NEXT_CACHE_ID.fetch_add(1, Ordering::Relaxed),
            engine,
            cap,
            slots: (0..n).map(|_| Slot::new(cap, engine as u32)).collect(),
            sink: Arc::new(tls::Sinks::default()),
        }
    }

    /// The engine this cache runs.
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// Objects each slot holds at most.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Pops an object address from the current CPU's slot.
    // Inline into the allocators' hit paths: an outlined call here costs
    // a measurable share of the emulation engine's per-op budget.
    #[inline]
    pub fn pop(&self) -> FastPop {
        #[cfg(all(pbs_rseq, not(miri)))]
        if self.engine == Engine::Rseq {
            let mut obj = 0usize;
            let dst: *mut usize = &mut obj;
            // SAFETY: `rseq_op` hands the section this thread's area and
            // the slot whose index is the cpu it validates; `dst` is
            // writable for one value.
            let (code, restarts) =
                self.rseq_op(|a, cpu, hdr| unsafe { rseq::pop_many(a, cpu, hdr, dst, 1) });
            let (hit, outcome) = match code {
                RSEQ_MOVED => (0, FastPop::Empty),
                RSEQ_BYPASS => (0, FastPop::Bypass),
                _ => (1, FastPop::Hit(obj)),
            };
            self.count(hit, 0, restarts, 1 - hit);
            return outcome;
        }
        let (slot, _guard) = self.lock_slot();
        let cur = slot.depth();
        if cur == 0 {
            Slot::bump(&slot.fallbacks);
            return FastPop::Empty;
        }
        // SAFETY: the slot mutex is held — exclusive slot access; the
        // index is within `cap` by the push-side bound check.
        let obj = unsafe { *slot.hdr.items.add(cur - 1) };
        slot.hdr.current.store(cur as u64 - 1, Ordering::Relaxed);
        Slot::bump(&slot.alloc_hits);
        FastPop::Hit(obj)
    }

    /// Pushes an object address onto the current CPU's slot.
    ///
    /// `obj` must be a real object address (> 3; the low values are
    /// protocol codes).
    #[inline]
    pub fn push(&self, obj: usize) -> FastPush {
        debug_assert!(obj > 3, "low values are reserved protocol codes");
        #[cfg(all(pbs_rseq, not(miri)))]
        if self.engine == Engine::Rseq {
            let src: *const usize = &obj;
            // SAFETY: as in `pop`; `src` holds one object.
            let (code, restarts) =
                self.rseq_op(|a, cpu, hdr| unsafe { rseq::push_many(a, cpu, hdr, src, 1) });
            let (hit, outcome) = match code {
                RSEQ_BYPASS => (0, FastPush::Bypass),
                RSEQ_MOVED => (0, FastPush::Full),
                _ => (1, FastPush::Pushed),
            };
            self.count(0, hit, restarts, 1 - hit);
            return outcome;
        }
        let (slot, _guard) = self.lock_slot();
        let cur = slot.depth();
        if cur >= self.cap {
            Slot::bump(&slot.fallbacks);
            return FastPush::Full;
        }
        // SAFETY: as in `pop`.
        unsafe { *slot.hdr.items.add(cur) = obj };
        slot.hdr.current.store(cur as u64 + 1, Ordering::Relaxed);
        Slot::bump(&slot.free_hits);
        FastPush::Pushed
    }

    /// Pushes a prefix of `objs` onto the current CPU's slot, stopping at
    /// the first object that does not fit (full slot or rseq bypass), and
    /// returns its length. The caller still owns `objs[returned..]`.
    /// Not counted as hits: refills and merges fill the stack this way.
    pub fn push_batch<T: Copy + Into<usize>>(&self, objs: &[T]) -> usize {
        #[cfg(all(pbs_rseq, not(miri)))]
        if self.engine == Engine::Rseq {
            let mut total_restarts = 0;
            let mut pushed = 0;
            let mut buf = [0usize; 64];
            for chunk in objs.chunks(buf.len()) {
                for (b, &obj) in buf.iter_mut().zip(chunk) {
                    *b = obj.into();
                    debug_assert!(*b > 3, "low values are reserved protocol codes");
                }
                let src = buf.as_ptr();
                // SAFETY: as in `pop`; `buf` holds `chunk.len()` objects.
                let (code, restarts) = self.rseq_op(|a, cpu, hdr| unsafe {
                    rseq::push_many(a, cpu, hdr, src, chunk.len())
                });
                total_restarts += restarts;
                let moved = code.saturating_sub(RSEQ_MOVED);
                pushed += moved;
                if moved < chunk.len() {
                    break;
                }
            }
            self.count(0, 0, total_restarts, 0);
            return pushed;
        }
        let (slot, _guard) = self.lock_slot();
        let cur = slot.depth();
        let n = objs.len().min(self.cap - cur);
        for (i, &obj) in objs[..n].iter().enumerate() {
            // SAFETY: lock held; `cur + i < cap`.
            unsafe { *slot.hdr.items.add(cur + i) = obj.into() };
        }
        slot.hdr.current.store((cur + n) as u64, Ordering::Relaxed);
        n
    }

    /// Pops objects off the current CPU's slot until it holds at most
    /// `keep`, appending them to `out`. Not counted as hits: this is a
    /// flush.
    pub fn trim(&self, keep: usize, out: &mut Vec<usize>) {
        #[cfg(all(pbs_rseq, not(miri)))]
        if self.engine == Engine::Rseq {
            let n = self.depth().saturating_sub(keep);
            out.reserve(n);
            let len = out.len();
            // SAFETY: `out` has room for `n` more values.
            let dst = unsafe { out.as_mut_ptr().add(len) };
            // SAFETY: as in `pop`.
            let (code, restarts) =
                self.rseq_op(|a, cpu, hdr| unsafe { rseq::pop_many(a, cpu, hdr, dst, n) });
            // SAFETY: the committed section wrote this many objects.
            unsafe { out.set_len(len + code.saturating_sub(RSEQ_MOVED)) };
            self.count(0, 0, restarts, 0);
            return;
        }
        let (slot, _guard) = self.lock_slot();
        let cur = slot.depth();
        let keep = keep.min(cur);
        // SAFETY: lock held; every index below `cur` holds an object.
        out.extend((keep..cur).rev().map(|i| unsafe { *slot.hdr.items.add(i) }));
        slot.hdr.current.store(keep as u64, Ordering::Relaxed);
    }

    /// Objects parked in the current CPU's slot (a racy hint for batch
    /// sizing). A thread the rseq engine cannot serve reads a full slot,
    /// so it sizes batches for no room.
    pub fn depth(&self) -> usize {
        #[cfg(all(pbs_rseq, not(miri)))]
        if self.engine == Engine::Rseq {
            let cpu = rseq::current_cpu(rseq::area()) as usize;
            return self.slots.get(cpu).map_or(self.cap, Slot::depth);
        }
        self.slots[tls::lock_slot_index(self.slots.len())].depth()
    }

    /// Objects parked across all slots (a racy sum).
    pub fn cached(&self) -> usize {
        self.slots.iter().map(Slot::depth).sum()
    }

    /// Runs one rseq critical section on the current CPU's slot,
    /// retrying restarts up to [`rseq::RESTART_BUDGET`]. Returns the
    /// section's code ([`RSEQ_BYPASS`] once the budget is spent, or for a
    /// thread whose cpu has no slot) and the restarts taken.
    #[cfg(all(pbs_rseq, not(miri)))]
    #[inline]
    fn rseq_op(&self, op: impl Fn(*mut u8, u32, &SlotHdr) -> usize) -> (usize, u64) {
        let area = rseq::area();
        let mut restarts = 0u64;
        loop {
            let cpu = rseq::current_cpu(area) as usize;
            // Unregistered thread (cpu_id = -1) or a cpu beyond the
            // possible range we sized for: never fast-path it.
            let Some(slot) = self.slots.get(cpu) else {
                return (RSEQ_BYPASS, restarts);
            };
            match op(area, cpu as u32, &slot.hdr) {
                RSEQ_RESTART => {
                    restarts += 1;
                    if restarts >= rseq::RESTART_BUDGET {
                        return (RSEQ_BYPASS, restarts);
                    }
                }
                code => return (code, restarts),
            }
        }
    }

    /// Locks this thread's lock-engine slot, or per [`steal_slot`] a
    /// neighbour. A contended operation waits or steals; it never
    /// bounces to the caller's slow path.
    #[inline]
    fn lock_slot(&self) -> (&Slot, MutexGuard<'_, ()>) {
        let home = tls::lock_slot_index(self.slots.len());
        let (idx, guard) = match self.slots[home].lock.try_lock() {
            Some(guard) => (home, guard),
            None => steal_slot(
                self.slots.len(),
                home,
                |i| self.slots[i].lock.try_lock(),
                |i| self.slots[i].lock.lock(),
            ),
        };
        (&self.slots[idx], guard)
    }

    /// Removes and returns every parked object. Safe against concurrent
    /// traffic: the drain holds every slot lock with the slots parked, so
    /// concurrent rseq operations bounce to the slow path and lock-engine
    /// operations wait; afterwards the stacks refill organically.
    pub fn drain(&self) -> Vec<usize> {
        let guards: Vec<_> = self.slots.iter().map(|s| s.lock.lock()).collect();
        let mut was_rseq = false;
        for slot in self.slots.iter() {
            was_rseq |= slot.hdr.mode.swap(MODE_OFF, Ordering::SeqCst) == Engine::Rseq as u32;
        }
        if was_rseq {
            // One process-wide fence aborts every critical section that
            // read the rseq mode before the swap; afterwards no fast-path
            // commit can land on any slot.
            rseq::fence();
        }
        std::sync::atomic::fence(Ordering::SeqCst);
        let mut out = Vec::new();
        for slot in self.slots.iter() {
            // SAFETY: slot parked and lock held — no concurrent writer.
            out.extend((0..slot.depth()).map(|i| unsafe { *slot.hdr.items.add(i) }));
            slot.hdr.current.store(0, Ordering::Relaxed);
            slot.hdr.mode.store(self.engine as u32, Ordering::SeqCst);
        }
        drop(guards);
        out
    }

    /// Totals across all threads: the sink reads through every live
    /// thread's registered counters plus the retired base, so counts
    /// are exact for any reader ordered after the writes (a joined
    /// scope, a quiesced testbed). Lock-engine counts live in the slots
    /// and are always current.
    pub fn snapshot(&self) -> FastPathSnapshot {
        let mut snap = self.sink.read();
        for slot in self.slots.iter() {
            snap.alloc_hits += slot.alloc_hits.load(Ordering::Relaxed);
            snap.free_hits += slot.free_hits.load(Ordering::Relaxed);
            snap.fallbacks += slot.fallbacks.load(Ordering::Relaxed);
        }
        snap
    }

    #[cfg_attr(not(all(pbs_rseq, not(miri))), allow(dead_code))]
    #[inline]
    fn count(&self, alloc_hits: u64, free_hits: u64, restarts: u64, fallbacks: u64) {
        if alloc_hits | free_hits | restarts | fallbacks != 0 {
            tls::bump(
                self.id, &self.sink, alloc_hits, free_hits, restarts, fallbacks,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicBool;

    // Object addresses for tests: anything > 3 works; use page-ish
    // values so mistakes are obvious.
    fn addr(i: usize) -> usize {
        0x10_000 + i * 8
    }

    /// The engines a test can construct on this host.
    fn engines() -> Vec<Engine> {
        if default_engine() == Engine::Rseq {
            vec![Engine::Rseq, Engine::Locks]
        } else {
            vec![Engine::Locks]
        }
    }

    #[test]
    fn engine_labels_round_trip() {
        assert_eq!(Engine::Rseq.label(), "rseq");
        assert_eq!(Engine::Locks.label(), "locks");
        assert_eq!(Engine::Rseq.to_string(), "rseq");
        assert!(!env_disabled());
    }

    #[test]
    fn push_pop_round_trip_single_thread() {
        let c = FastCache::new(8);
        assert_eq!(c.pop(), FastPop::Empty);
        for i in 0..8 {
            assert_eq!(c.push(addr(i)), FastPush::Pushed);
        }
        // The lock engine fills one slot; the rseq engine fills the
        // current cpu's. Either way this thread sees LIFO order on an
        // unmigrated run — but migration may split pushes across slots,
        // so only assert conservation.
        let mut got = Vec::new();
        while let FastPop::Hit(v) = c.pop() {
            got.push(v);
        }
        let mut rest = c.drain();
        got.append(&mut rest);
        got.sort_unstable();
        let want: Vec<usize> = (0..8).map(addr).collect();
        assert_eq!(got, want);
        let s = c.snapshot();
        assert_eq!(s.free_hits, 8);
        assert!(s.alloc_hits <= 8);
    }

    #[test]
    fn full_slot_reports_full() {
        let c = FastCache::new(2);
        // On a multi-cpu box pushes may land on different slots; force
        // determinism by draining until a Full shows up or the total
        // pushed exceeds all slots' capacity.
        let total_cap = c.slots.len() * 2;
        let mut pushed = 0;
        let mut saw_full = false;
        for i in 0..total_cap + 1 {
            match c.push(addr(i)) {
                FastPush::Pushed => pushed += 1,
                FastPush::Full => {
                    saw_full = true;
                    break;
                }
                FastPush::Bypass => {}
            }
        }
        assert!(saw_full || pushed <= total_cap);
        c.drain();
    }

    #[test]
    fn drain_empties_the_stacks_and_leaves_them_live() {
        for engine in engines() {
            let c = FastCache::with_slots(8, 0, engine);
            assert_eq!(c.engine(), engine);
            assert_eq!(c.push(addr(1)), FastPush::Pushed);
            assert_eq!(c.push(addr(2)), FastPush::Pushed);
            let mut got = c.drain();
            got.sort_unstable();
            assert_eq!(got, vec![addr(1), addr(2)], "{engine}");
            assert_eq!(c.pop(), FastPop::Empty, "{engine}");
            assert_eq!(c.push(addr(3)), FastPush::Pushed, "{engine}");
            assert_eq!(c.drain(), vec![addr(3)], "{engine}");
        }
    }

    #[test]
    fn batches_fill_to_capacity_and_trim_to_keep() {
        for engine in engines() {
            let c = FastCache::with_slots(8, 0, engine);
            let objs: Vec<usize> = (0..12).map(addr).collect();
            let pushed = c.push_batch(&objs);
            // A migration mid-batch can spread the prefix over two
            // slots; on an unmigrated run exactly the capacity fits.
            assert!((1..=12).contains(&pushed), "{engine}: pushed {pushed}");
            let mut flushed = Vec::new();
            c.trim(3, &mut flushed);
            assert!(c.depth() <= 8, "{engine}");
            let mut all = flushed;
            all.extend(c.drain());
            all.sort_unstable();
            assert_eq!(all, objs[..pushed].to_vec(), "{engine}: conservation");
            let s = c.snapshot();
            assert_eq!(
                (s.alloc_hits, s.free_hits),
                (0, 0),
                "{engine}: batches count no hits"
            );
        }
    }

    /// The emulation engine, exercised concurrently at Miri-friendly
    /// size: conservation (every pushed value pops exactly once) and
    /// balanced stats.
    #[test]
    fn locks_engine_conserves_objects_across_threads() {
        let c = Arc::new(FastCache::with_slots(4, 0, Engine::Locks));
        let threads = if cfg!(miri) { 2 } else { 4 };
        let per = if cfg!(miri) { 16 } else { 4000 };
        let popped: Vec<Vec<usize>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let c = Arc::clone(&c);
                    s.spawn(move || {
                        let mut got = Vec::new();
                        let mut next = t * per;
                        let end = (t + 1) * per;
                        while next < end {
                            match c.push(addr(next)) {
                                FastPush::Pushed => next += 1,
                                FastPush::Full | FastPush::Bypass => {
                                    if let FastPop::Hit(v) = c.pop() {
                                        got.push(v);
                                    }
                                }
                            }
                        }
                        got
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut all: Vec<usize> = popped.into_iter().flatten().collect();
        let parked = c.drain();
        let parked_len = parked.len() as u64;
        all.extend(parked);
        all.sort_unstable();
        let want: Vec<usize> = (0..threads * per).map(addr).collect();
        assert_eq!(all, want, "an object was lost or double-popped");
        let s = c.snapshot();
        assert_eq!(s.free_hits, (threads * per) as u64);
        assert_eq!(s.alloc_hits, s.free_hits - parked_len);
    }

    /// Each engine: hammer single and batch push/pop from many threads
    /// while the main thread drains continuously, then check
    /// conservation. This is the drain-under-live-traffic soundness test.
    #[test]
    #[cfg_attr(miri, ignore = "timing loop; the locks test covers Miri")]
    fn drains_under_traffic_never_lose_objects() {
        for engine in engines() {
            let c = Arc::new(FastCache::with_slots(16, 0, engine));
            let stop = Arc::new(AtomicBool::new(false));
            let mut recovered: Vec<usize> = Vec::new();
            // Each worker reports (addresses it pushed, addresses it got
            // back by pop or trim).
            let results: Vec<(Vec<usize>, Vec<usize>)> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..4)
                    .map(|t| {
                        let c = Arc::clone(&c);
                        let stop = Arc::clone(&stop);
                        s.spawn(move || {
                            let mut got = Vec::new();
                            // Batches may overshoot the bound by three.
                            let start = t * 200_000;
                            let mut next = start;
                            while !stop.load(Ordering::Relaxed) && next < start + 100_000 {
                                if next % 7 == 0 {
                                    let batch: Vec<usize> = (next..next + 4).map(addr).collect();
                                    next += c.push_batch(&batch);
                                    c.trim(8, &mut got);
                                } else if c.push(addr(next)) == FastPush::Pushed {
                                    next += 1;
                                }
                                if let FastPop::Hit(v) = c.pop() {
                                    got.push(v);
                                }
                            }
                            ((start..next).map(addr).collect::<Vec<_>>(), got)
                        })
                    })
                    .collect();
                for _ in 0..200 {
                    recovered.extend(c.drain());
                    std::thread::yield_now();
                }
                stop.store(true, Ordering::Relaxed);
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            // Every address pushed must be accounted for exactly once:
            // popped or trimmed by some worker, drained mid-run, or still
            // parked at the end.
            let mut pushed: HashSet<usize> = HashSet::new();
            let mut seen: Vec<usize> = recovered;
            for (p, g) in results {
                pushed.extend(p);
                seen.extend(g);
            }
            seen.extend(c.drain());
            let seen_set: HashSet<usize> = seen.iter().copied().collect();
            assert_eq!(
                seen_set.len(),
                seen.len(),
                "{engine}: an object was double-popped"
            );
            assert_eq!(seen_set, pushed, "{engine}: conservation violated");
        }
    }

    #[test]
    fn snapshot_counts_hits_and_fallbacks_coherently() {
        let c = FastCache::new(4);
        // One guaranteed fallback: a pop on an empty cache.
        assert_eq!(c.pop(), FastPop::Empty);
        for i in 0..4 {
            c.push(addr(i));
        }
        let s = c.snapshot();
        assert!(s.fallbacks >= 1);
        assert_eq!(s.free_hits + s.fallbacks, 5);
    }
}
