//! Cross-crate integration tests: allocators + RCU + data structures +
//! simulated subsystems working together through the public API.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pbs_telemetry::EventKind;
use prudence_repro::alloc_api::{
    fastpath_default_engine, fastpath_env_disabled, AllocError, CacheFactory, CacheFrame,
    CachePolicy, FastPathEngine, FrameSlab, KmallocHeap, ObjPtr, ObjectAllocator, SizingPolicy,
    SIZE_CLASSES,
};
use prudence_repro::fault::{site, FaultInjector, Schedule};
use prudence_repro::mem::PageAllocator;
use prudence_repro::prudence::{PrudenceCache, PrudenceConfig, PrudenceFactory};
use prudence_repro::rcu::{Rcu, RcuConfig};
use prudence_repro::simfs::SimFs;
use prudence_repro::slub::{SlubCache, SlubFactory, SlubTuning};
use prudence_repro::structs::{RcuHashMap, RcuList};

fn prudence_setup(ncpus: usize) -> (Arc<PageAllocator>, Arc<Rcu>, Arc<PrudenceCache>) {
    let pages = Arc::new(PageAllocator::new());
    let rcu = Arc::new(Rcu::with_config(RcuConfig::eager()));
    let cache = Arc::new(PrudenceCache::new(
        "it",
        64,
        PrudenceConfig::new(ncpus),
        Arc::clone(&pages),
        Arc::clone(&rcu),
    ));
    (pages, rcu, cache)
}

#[test]
fn list_stress_across_both_allocators_returns_all_memory() {
    for which in ["slub", "prudence"] {
        let pages = Arc::new(PageAllocator::new());
        let rcu = Arc::new(Rcu::with_config(RcuConfig::eager()));
        let cache: Arc<dyn ObjectAllocator> = match which {
            "slub" => SlubCache::new("it", 64, 4, Arc::clone(&pages), Arc::clone(&rcu)),
            _ => Arc::new(PrudenceCache::new(
                "it",
                64,
                PrudenceConfig::new(4),
                Arc::clone(&pages),
                Arc::clone(&rcu),
            )),
        };
        {
            let list: Arc<RcuList<u64>> = Arc::new(RcuList::new(Arc::clone(&cache)));
            for i in 0..64 {
                list.insert(i, i).unwrap();
            }
            let stop = Arc::new(AtomicBool::new(false));
            std::thread::scope(|s| {
                for _ in 0..2 {
                    let list = Arc::clone(&list);
                    let rcu = Arc::clone(&rcu);
                    let stop = Arc::clone(&stop);
                    s.spawn(move || {
                        let t = rcu.register();
                        while !stop.load(Ordering::Relaxed) {
                            let g = t.read_lock();
                            let _ = list.lookup(&g, 7);
                        }
                    });
                }
                for round in 0..5_000u64 {
                    list.update(round % 64, round).unwrap();
                }
                stop.store(true, Ordering::Relaxed);
            });
        }
        cache.quiesce();
        assert_eq!(cache.stats().live_objects, 0, "{which}: leaked objects");
        drop(cache);
        assert_eq!(pages.used_bytes(), 0, "{which}: leaked pages");
    }
}

#[test]
fn baseline_backlog_grows_while_reader_pinned_prudence_stays_visible() {
    // Endurance in miniature: with a reader pinned, the baseline's
    // deferred objects sit in the RCU callback backlog (invisible to the
    // allocator), while Prudence tracks them itself.
    let pages = Arc::new(PageAllocator::new());
    let rcu = Arc::new(Rcu::with_config(RcuConfig::linux_like()));
    let slub = SlubCache::new("base", 128, 1, Arc::clone(&pages), Arc::clone(&rcu));
    let prudence = PrudenceCache::new(
        "pru",
        128,
        PrudenceConfig::new(1),
        Arc::clone(&pages),
        Arc::clone(&rcu),
    );
    let reader = rcu.register();
    let guard = reader.read_lock();
    for _ in 0..500 {
        let a = slub.allocate().unwrap();
        let b = prudence.allocate().unwrap();
        unsafe {
            slub.free_deferred(a);
            prudence.free_deferred(b);
        }
    }
    assert!(rcu.callback_backlog() >= 500, "baseline objects stuck in callbacks");
    assert_eq!(prudence.deferred_outstanding(), 500, "prudence sees its deferred objects");
    drop(guard);
    slub.quiesce();
    prudence.quiesce();
    assert_eq!(rcu.callback_backlog(), 0);
    assert_eq!(prudence.deferred_outstanding(), 0);
}

#[test]
fn oom_deferral_survives_where_memory_is_all_deferred() {
    // Everything allocated is deferred; a fixed budget forces the OOM
    // path. Prudence must wait for grace periods and keep serving.
    let pages = Arc::new(PageAllocator::builder().limit_bytes(1 << 20).build());
    let rcu = Arc::new(Rcu::with_config(RcuConfig::eager()));
    let cache = PrudenceCache::new(
        "oom",
        512,
        PrudenceConfig::new(1),
        Arc::clone(&pages),
        Arc::clone(&rcu),
    );
    for _ in 0..20_000 {
        let o = cache.allocate().expect("allocation with OOM deferral");
        unsafe { cache.free_deferred(o) };
    }
    cache.quiesce();
    assert_eq!(cache.stats().live_objects, 0);
}

#[test]
fn deferred_replacement_keeps_prudence_near_its_live_set() {
    // The kv-update pattern: a fixed live set where every write allocates
    // a replacement and defers a random old object. A reader pinned across
    // each batch of writes makes the grace-period cadence deterministic;
    // once a batch's grace period ends its objects are reusable, so
    // refills must find them instead of growing. A full slab holding
    // deferred objects must stay off the partial list, where it would
    // crowd usable slabs out of the refill scan window.
    const LIVE: usize = 16 * 1024;
    const WRITES_PER_GRACE_PERIOD: usize = 512;
    let (_pages, rcu, cache) = prudence_setup(1);
    let reader = rcu.register();
    let mut live: Vec<ObjPtr> = (0..LIVE).map(|_| cache.allocate().unwrap()).collect();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..400_000 / WRITES_PER_GRACE_PERIOD {
        let guard = reader.read_lock();
        for _ in 0..WRITES_PER_GRACE_PERIOD {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let victim = (x % LIVE as u64) as usize;
            let new = cache.allocate().unwrap();
            unsafe { cache.free_deferred(std::mem::replace(&mut live[victim], new)) };
        }
        drop(guard);
        rcu.synchronize();
    }
    let base = LIVE.div_ceil(cache.policy().objects_per_slab);
    let peak = cache.stats().slabs_peak;
    assert!(peak <= 2 * base, "slabs peaked at {peak} for a live set of {base} slabs");
    for o in live {
        unsafe { cache.free(o) };
    }
    cache.quiesce();
    assert_eq!(cache.stats().live_objects, 0);
}

#[test]
fn alloc_error_when_truly_out_of_memory() {
    let pages = Arc::new(PageAllocator::builder().limit_bytes(64 << 10).build());
    let rcu = Arc::new(Rcu::with_config(RcuConfig::eager()));
    let cache = PrudenceCache::new(
        "oom2",
        1024,
        PrudenceConfig::new(1),
        pages,
        rcu,
    );
    let mut held: Vec<ObjPtr> = Vec::new();
    let err = loop {
        match cache.allocate() {
            Ok(o) => held.push(o),
            Err(e) => break e,
        }
    };
    assert_eq!(err, AllocError::OutOfMemory);
    assert!(!held.is_empty(), "some allocations must succeed first");
    for o in held {
        unsafe { cache.free(o) };
    }
}

#[test]
fn filesystem_and_hashmap_share_an_rcu_domain() {
    let pages = Arc::new(PageAllocator::new());
    let rcu = Arc::new(Rcu::with_config(RcuConfig::eager()));
    let factory = PrudenceFactory::new(
        PrudenceConfig::new(2),
        Arc::clone(&pages),
        Arc::clone(&rcu),
    );
    let fs = SimFs::new(&factory);
    let index: RcuHashMap<u64, u64> =
        RcuHashMap::new(factory.create_cache("index", 64), 64);
    let t = rcu.register();
    for i in 0..100 {
        let ino = fs.create(1, i).unwrap();
        index.insert(i, ino.0).unwrap();
    }
    // One guard protects traversals of both structures (same domain).
    let g = t.read_lock();
    for i in 0..100 {
        let ino = fs.lookup(&g, 1, i).expect("file exists");
        assert_eq!(index.get(&g, &i), Some(ino.0));
    }
    drop(g);
    for i in 0..100 {
        fs.unlink(1, i).unwrap();
        index.remove(&i);
    }
    fs.quiesce();
    index.len(); // map still alive here
    drop(index);
    drop(fs);
    factory.create_cache("post", 64).quiesce();
}

#[test]
fn slub_and_prudence_agree_on_workload_accounting() {
    // Identical deterministic workload on both allocators: the *user
    // visible* accounting (allocs, frees, deferred frees, live objects)
    // must agree exactly, whatever the internal reclamation strategy.
    let mut results = Vec::new();
    for which in ["slub", "prudence"] {
        let pages = Arc::new(PageAllocator::new());
        let rcu = Arc::new(Rcu::with_config(RcuConfig::eager()));
        let factory: Box<dyn CacheFactory> = match which {
            "slub" => Box::new(SlubFactory::new(2, pages, Arc::clone(&rcu))),
            _ => Box::new(PrudenceFactory::new(
                PrudenceConfig::new(2),
                pages,
                Arc::clone(&rcu),
            )),
        };
        let cache = factory.create_cache("parity", 96);
        let mut held = Vec::new();
        for i in 0..5_000u64 {
            held.push(cache.allocate().unwrap());
            if i % 3 == 0 {
                let o = held.swap_remove((i as usize * 7) % held.len());
                unsafe { cache.free(o) };
            } else if i % 3 == 1 {
                let o = held.swap_remove((i as usize * 5) % held.len());
                unsafe { cache.free_deferred(o) };
            }
        }
        for o in held {
            unsafe { cache.free(o) };
        }
        cache.quiesce();
        let s = cache.stats();
        results.push((s.alloc_requests, s.frees, s.deferred_frees, s.live_objects));
    }
    assert_eq!(results[0], results[1], "user-visible accounting must match");
}

#[test]
fn readers_never_observe_reclaimed_memory_under_churn() {
    // Torn-read detector across the whole stack: values are always
    // written as [x, x]; any reader observing [a, b] with a != b saw
    // freed/reused memory.
    let (_pages, rcu, cache) = prudence_setup(4);
    let map: Arc<RcuHashMap<u64, [u64; 2]>> = Arc::new(RcuHashMap::new(cache, 128));
    for k in 0..128 {
        map.insert(k, [0, 0]).unwrap();
    }
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        for _ in 0..2 {
            let map = Arc::clone(&map);
            let rcu = Arc::clone(&rcu);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let t = rcu.register();
                let mut k = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let g = t.read_lock();
                    if let Some([a, b]) = map.get(&g, &(k % 128)) {
                        assert_eq!(a, b, "reader saw torn/reclaimed value");
                    }
                    drop(g);
                    k += 1;
                }
            });
        }
        for i in 0..30_000u64 {
            map.insert(i % 128, [i, i]).unwrap();
        }
        stop.store(true, Ordering::Relaxed);
    });
}

#[test]
fn quiesce_is_idempotent_and_reentrant() {
    let (_pages, _rcu, cache) = prudence_setup(2);
    let objs: Vec<ObjPtr> = (0..100).map(|_| cache.allocate().unwrap()).collect();
    for o in objs {
        unsafe { cache.free_deferred(o) };
    }
    cache.quiesce();
    cache.quiesce();
    cache.quiesce();
    assert_eq!(cache.deferred_outstanding(), 0);
}

#[test]
fn long_running_reader_delays_but_does_not_block_forever() {
    let (_pages, rcu, cache) = prudence_setup(1);
    let done = Arc::new(AtomicBool::new(false));
    let rcu2 = Arc::clone(&rcu);
    let done2 = Arc::clone(&done);
    let reader = std::thread::spawn(move || {
        let t = rcu2.register();
        let g = t.read_lock();
        std::thread::sleep(Duration::from_millis(100));
        drop(g);
        done2.store(true, Ordering::Relaxed);
    });
    std::thread::sleep(Duration::from_millis(10));
    let o = cache.allocate().unwrap();
    unsafe { cache.free_deferred(o) };
    // quiesce must wait for the reader, then drain.
    cache.quiesce();
    assert!(done.load(Ordering::Relaxed), "quiesce returned before the reader finished");
    reader.join().unwrap();
}

/// Both allocator designs as factories over one page allocator and RCU
/// domain, baseline first. `tuning` and `config` carry the same
/// degradation knobs in each design's vocabulary.
fn factories(
    pages: &Arc<PageAllocator>,
    rcu: &Arc<Rcu>,
    tuning: SlubTuning,
    config: PrudenceConfig,
) -> [Box<dyn CacheFactory>; 2] {
    [
        Box::new(SlubFactory::with_tuning(
            config.ncpus,
            tuning,
            Arc::clone(pages),
            Arc::clone(rcu),
        )),
        Box::new(PrudenceFactory::new(config, Arc::clone(pages), Arc::clone(rcu))),
    ]
}

/// The default knobs of both designs with `ncpus` CPU slots.
fn default_factories(
    pages: &Arc<PageAllocator>,
    rcu: &Arc<Rcu>,
    ncpus: usize,
) -> [Box<dyn CacheFactory>; 2] {
    factories(pages, rcu, SlubTuning::default(), PrudenceConfig::new(ncpus))
}

#[test]
fn kmalloc_heap_routes_every_class_on_both_allocators() {
    let pages = Arc::new(PageAllocator::new());
    let rcu = Arc::new(Rcu::with_config(RcuConfig::eager()));
    for factory in default_factories(&pages, &rcu, 2) {
        let label = factory.label();
        let heap = KmallocHeap::new(&*factory);
        assert_eq!(heap.caches().len(), SIZE_CLASSES.len(), "{label}");
        assert_eq!(heap.kmalloc(1 << 20), Err(AllocError::OutOfMemory), "{label}");

        let o = heap.kmalloc(100).unwrap();
        let class = heap.cache_for(100).unwrap();
        assert_eq!(class.object_size(), 128, "{label}");
        assert_eq!(class.name(), "kmalloc-128", "{label}");
        assert_eq!(class.stats().alloc_requests, 1, "{label}");
        unsafe { heap.kfree(o, 100) };
        assert_eq!(class.stats().frees, 1, "{label}");

        let o = heap.kmalloc(512).unwrap();
        unsafe { heap.kfree_deferred(o, 512) };
        heap.quiesce();
        let s = heap.cache_for(512).unwrap().stats();
        assert_eq!(s.deferred_frees, 1, "{label}");
        assert_eq!(s.live_objects, 0, "{label}");
    }
}

#[test]
fn kmalloc_heap_quiesce_parks_nothing_in_any_class() {
    // Quiesce must flush every class's fast path, not just the first
    // class's: after it, disabling a class's fast path has nothing left to
    // drain.
    let pages = Arc::new(PageAllocator::new());
    let rcu = Arc::new(Rcu::with_config(RcuConfig::eager()));
    for factory in default_factories(&pages, &rcu, 2) {
        let label = factory.label();
        let heap = KmallocHeap::new(&*factory);
        let o = heap.kmalloc(100).unwrap();
        unsafe { heap.kfree(o, 100) };
        heap.quiesce();
        let class = heap.cache_for(100).unwrap();
        let drains = || class.telemetry().count_of(EventKind::FastpathDrain);
        let after_quiesce = drains();
        class.fastpath_set_enabled(false);
        assert_eq!(
            drains(),
            after_quiesce,
            "{label}: kmalloc-128 kept objects parked in its fast path across quiesce"
        );
    }
}

#[test]
fn fastpath_toggles_and_engine_switches_stay_leak_free() {
    for which in 0..2 {
        let pages = Arc::new(PageAllocator::new());
        let rcu = Arc::new(Rcu::with_config(RcuConfig::eager()));
        let factory = default_factories(&pages, &rcu, 2).into_iter().nth(which).unwrap();
        let label = factory.label().to_owned();
        let cache = factory.create_cache("toggle", 64);
        let mut live: Vec<ObjPtr> = (0..256).map(|_| cache.allocate().unwrap()).collect();
        let free_some = |live: &mut Vec<ObjPtr>, n: usize, deferred: bool| {
            for o in live.drain(..n) {
                unsafe {
                    if deferred {
                        cache.free_deferred(o);
                    } else {
                        cache.free(o);
                    }
                }
            }
        };
        free_some(&mut live, 48, false); // parks in the fast path
        cache.fastpath_set_enabled(false); // drains with live objects out
        assert!(!cache.fastpath_enabled(), "{label}");
        free_some(&mut live, 32, false);
        free_some(&mut live, 16, true);
        cache.fastpath_set_enabled(true);
        assert_eq!(cache.fastpath_enabled(), !fastpath_env_disabled(), "{label}");
        cache.fastpath_set_engine(FastPathEngine::Locks);
        free_some(&mut live, 32, false);
        let more: Vec<ObjPtr> = (0..64).map(|_| cache.allocate().unwrap()).collect();
        cache.fastpath_set_engine(fastpath_default_engine());
        for o in more {
            unsafe { cache.free(o) };
        }
        free_some(&mut live, 64, true);
        cache.fastpath_set_enabled(false);
        cache.fastpath_set_enabled(true);
        let rest = live.len();
        free_some(&mut live, rest, false);
        cache.quiesce();
        let s = cache.stats();
        assert_eq!(s.live_objects, 0, "{label}: {s:?}");
        assert_eq!(cache.deferred_outstanding(), 0, "{label}");
        drop(cache);
        drop(factory);
        assert_eq!(pages.used_bytes(), 0, "{label}: leaked pages");
    }
}

/// Holds the calling thread's home slot of `frame` and allocates from
/// `cache` (the same cache): the allocation must note the miss and steal
/// the neighbour slot — blocking on the home slot would deadlock.
fn allocate_with_home_slot_held<C: Default + Send, S: FrameSlab>(
    cache: &dyn ObjectAllocator,
    frame: &CacheFrame<C, S>,
) {
    // A fresh cache has nothing parked in its fast path, so the
    // allocation goes to the slot-locked path.
    let before = cache.stats().cpu_slot_misses;
    let (home, held) = frame.lock_cpu();
    let obj = cache.allocate().expect("steals a neighbour slot");
    drop(held);
    assert_eq!(
        cache.stats().cpu_slot_misses,
        before + 1,
        "{}: busy home slot {home} not counted",
        cache.name()
    );
    unsafe { cache.free(obj) };
    cache.quiesce();
    assert_eq!(cache.stats().live_objects, 0, "{}", cache.name());
}

#[test]
fn busy_home_slot_steals_a_neighbour_on_both_allocators() {
    let pages = Arc::new(PageAllocator::new());
    let rcu = Arc::new(Rcu::with_config(RcuConfig::eager()));
    let slub = SlubCache::new("slub", 64, 2, Arc::clone(&pages), Arc::clone(&rcu));
    allocate_with_home_slot_held(&*slub, slub.frame());
    let prudence = PrudenceCache::new("prudence", 64, PrudenceConfig::new(2), pages, rcu);
    allocate_with_home_slot_held(&prudence, prudence.frame());
}

#[test]
fn pressure_gauge_rises_and_falls_on_both_allocators() {
    let pages = Arc::new(PageAllocator::new());
    let rcu = Arc::new(Rcu::with_config(RcuConfig::eager()));
    let tuning = SlubTuning {
        soft_watermark: 4,
        hard_watermark: 8,
        ..SlubTuning::default()
    };
    let config = PrudenceConfig::new(1)
        .with_preflush(false)
        .with_watermarks(4, 8);
    for factory in factories(&pages, &rcu, tuning, config) {
        let label = factory.label();
        let c = factory.create_cache("pressure", 64);
        let reader = rcu.register();
        let objs: Vec<ObjPtr> = (0..16).map(|_| c.allocate().unwrap()).collect();
        // Pin a reader so nothing can drain while the backlog builds.
        let guard = reader.read_lock();
        for &o in &objs {
            unsafe { c.free_deferred(o) };
        }
        let s = c.stats();
        assert_eq!(s.pressure_level, 2, "{label}: hard watermark crossed: {s:?}");
        assert!(s.pressure_transitions >= 2, "{label}: 0→1→2 expected: {s:?}");
        assert!(s.assisted_merges >= 1, "{label}: hard-level frees must assist: {s:?}");
        assert!(
            c.telemetry().count_of(EventKind::PressureChange) >= 2,
            "{label}: transitions should be traced"
        );
        drop(guard);
        c.quiesce();
        let s = c.stats();
        assert_eq!(s.pressure_level, 0, "{label}: gauge returns to nominal: {s:?}");
        assert_eq!(c.deferred_outstanding(), 0, "{label}");
    }
}

#[test]
fn oom_ladder_recovery_is_attributed_on_both_allocators() {
    // Page budget fits 6 slabs; with everything deferred, allocation
    // would OOM unless the ladder drives a grace period and gets the
    // deferred objects back. The background driver is parked out of
    // reach so it cannot race the allocation loop and reclaim early —
    // the only way back is the ladder.
    let policy = SizingPolicy::for_object_size(512);
    let pages = Arc::new(
        PageAllocator::builder()
            .limit_bytes(6 * policy.slab_bytes)
            .build(),
    );
    let rcu = Arc::new(Rcu::with_config(RcuConfig {
        driver_interval: Duration::from_secs(3600),
        ..RcuConfig::eager()
    }));
    let config = PrudenceConfig::new(1).with_preflush(false);
    for factory in factories(&pages, &rcu, SlubTuning::default(), config) {
        let label = factory.label();
        let c = factory.create_cache("oom", 512);
        let total = policy.objects_per_slab * 5;
        for round in 0..4 {
            let objs: Vec<ObjPtr> = (0..total)
                .map(|_| {
                    c.allocate()
                        .unwrap_or_else(|e| panic!("{label} round {round}: {e}"))
                })
                .collect();
            for o in objs {
                unsafe { c.free_deferred(o) };
            }
        }
        let s = c.stats();
        assert!(s.oom_waits > 0, "{label}: ladder never entered: {s:?}");
        assert!(
            s.oom_recoveries_total() >= 1,
            "{label}: no recovery attributed to a ladder stage: {s:?}"
        );
        c.quiesce();
    }
}

#[test]
fn injected_grow_fault_returns_err_on_both_allocators() {
    let faults = Arc::new(FaultInjector::new(1));
    faults.schedule(site::SLUB_GROW, Schedule::EveryKth(1));
    faults.schedule(site::PRUDENCE_GROW, Schedule::EveryKth(1));
    let pages = Arc::new(
        PageAllocator::builder()
            .fault_injector(Arc::clone(&faults))
            .build(),
    );
    let rcu = Arc::new(Rcu::with_config(RcuConfig::eager()));
    for factory in default_factories(&pages, &rcu, 1) {
        let label = factory.label();
        let grow_site = if label == "slub" {
            site::SLUB_GROW
        } else {
            site::PRUDENCE_GROW
        };
        let c = factory.create_cache("blackout", 64);
        // A fresh cache has nothing cached, so the very first allocation
        // must reach grow, hit the blackout, and report OOM — not panic.
        assert_eq!(c.allocate(), Err(AllocError::OutOfMemory), "{label}");
        assert!(faults.injected(grow_site) >= 1, "{label}");
        assert_eq!(c.stats().live_objects, 0, "{label}");
    }
}

#[test]
fn drop_returns_all_pages_on_both_allocators() {
    for which in 0..2 {
        let pages = Arc::new(PageAllocator::new());
        let rcu = Arc::new(Rcu::with_config(RcuConfig::eager()));
        let factory = default_factories(&pages, &rcu, 2).into_iter().nth(which).unwrap();
        let label = factory.label().to_owned();
        {
            let c = factory.create_cache("drop", 128);
            let objs: Vec<ObjPtr> = (0..200).map(|_| c.allocate().unwrap()).collect();
            for (i, o) in objs.into_iter().enumerate() {
                unsafe {
                    if i % 2 == 0 {
                        c.free(o);
                    } else {
                        c.free_deferred(o);
                    }
                }
            }
            c.quiesce();
        }
        drop(factory);
        assert_eq!(pages.used_bytes(), 0, "{label}: cache leaked pages on drop");
    }
}
