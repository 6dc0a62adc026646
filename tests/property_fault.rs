//! Property-based tests for the fault-injection layer (proptest).
//!
//! Complements `property_allocator.rs`: the same op-sequence state machine
//! runs with a seeded [`FaultInjector`] failing page allocations, and the
//! invariants tighten to the robustness claims of the harness:
//!
//! 1. an injected OOM surfaces as `Err` from `allocate` or is absorbed by
//!    a retry/reclaim path — it never panics or poisons a lock,
//! 2. fault or no fault, live-object accounting stays balanced,
//! 3. every page returns to the system when the cache drops, even when
//!    arbitrary grow attempts failed mid-sequence,
//! 4. a total blackout (`EveryKth(1)`) makes the very first allocation of
//!    a fresh cache fail cleanly on both allocators,
//! 5. recovery-ladder accounting is consistent: every recorded recovery
//!    implies at least one ladder entry (`recoveries <= oom_waits`), and a
//!    run that never entered the ladder records no recovery stage.
//!
//! No read-side pin is held across `allocate` here: under OOM, Prudence may
//! wait on a grace period (Algorithm lines 31–33), which a pin from the
//! allocating thread would block.

use std::collections::HashSet;
use std::sync::Arc;

use proptest::prelude::*;

use prudence_repro::alloc_api::{ObjPtr, ObjectAllocator};
use prudence_repro::fault::{site, FaultInjector, Schedule};
use prudence_repro::mem::PageAllocator;
use prudence_repro::prudence::{PrudenceCache, PrudenceConfig};
use prudence_repro::rcu::{Rcu, RcuConfig};
use prudence_repro::slub::SlubCache;

#[derive(Debug, Clone)]
enum Op {
    Alloc,
    Free(usize),
    Defer(usize),
    Quiesce,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => Just(Op::Alloc),
        2 => any::<usize>().prop_map(Op::Free),
        2 => any::<usize>().prop_map(Op::Defer),
        1 => Just(Op::Quiesce),
    ]
}

fn check_faulted(
    make: impl Fn(Arc<PageAllocator>, Arc<Rcu>) -> Arc<dyn ObjectAllocator>,
    fault_site: &'static str,
    seed: u64,
    fault_p: f64,
    ops: &[Op],
) {
    let faults = Arc::new(FaultInjector::new(seed));
    faults.schedule(fault_site, Schedule::Probability(fault_p));
    let pages = Arc::new(
        PageAllocator::builder()
            .fault_injector(Arc::clone(&faults))
            .build(),
    );
    // The injector is also wired into the RCU domain so schedules against
    // the grace-period-advance site take effect.
    let rcu = Arc::new(Rcu::with_config(
        RcuConfig::eager().with_fault_injector(Arc::clone(&faults)),
    ));
    let cache = make(Arc::clone(&pages), Arc::clone(&rcu));

    let mut live: Vec<ObjPtr> = Vec::new();
    let mut live_set: HashSet<usize> = HashSet::new();
    let mut oom_errors = 0u64;

    for op in ops {
        match op {
            Op::Alloc => match cache.allocate() {
                Ok(obj) => {
                    assert!(
                        live_set.insert(obj.addr()),
                        "allocator returned a live pointer twice"
                    );
                    live.push(obj);
                }
                // Invariant 1: the only legal failure mode is an error
                // value. A panic would abort the test process here.
                Err(_) => oom_errors += 1,
            },
            Op::Free(i) => {
                if live.is_empty() {
                    continue;
                }
                let obj = live.swap_remove(i % live.len());
                live_set.remove(&obj.addr());
                // SAFETY: object tracked as live exactly once.
                unsafe { cache.free(obj) };
            }
            Op::Defer(i) => {
                if live.is_empty() {
                    continue;
                }
                let obj = live.swap_remove(i % live.len());
                live_set.remove(&obj.addr());
                // SAFETY: object tracked as live exactly once.
                unsafe { cache.free_deferred(obj) };
            }
            Op::Quiesce => cache.quiesce(),
        }
    }

    // Invariant 2: accounting balanced regardless of how many grows failed.
    assert_eq!(
        cache.stats().live_objects as usize,
        live.len(),
        "live-object accounting diverged under {oom_errors} injected OOM errors"
    );
    for obj in live.drain(..) {
        // SAFETY: remaining tracked objects freed exactly once.
        unsafe { cache.free(obj) };
    }
    cache.quiesce();
    let stats = cache.stats();
    assert_eq!(stats.live_objects, 0);
    assert_eq!(cache.deferred_outstanding(), 0, "deferred not drained");

    // Invariant 5: ladder accounting is consistent. A recovery is recorded
    // only when an allocation succeeded after climbing >= 1 rung, and each
    // rung climbed bumps `oom_waits`; a clean run records neither.
    let recoveries =
        stats.oom_recoveries_stage1 + stats.oom_recoveries_stage2 + stats.oom_recoveries_stage3;
    assert!(
        recoveries <= stats.oom_waits,
        "{recoveries} ladder recoveries recorded but only {} ladder entries",
        stats.oom_waits
    );
    if stats.oom_waits == 0 {
        assert_eq!(
            recoveries, 0,
            "recovery stage recorded without ever entering the ladder"
        );
    }

    // The injector saw every consult and never under-counts injections.
    assert!(faults.calls(fault_site) >= faults.injected(fault_site));

    // Invariant 3: no page leaks even with mid-sequence grow failures.
    drop(cache);
    assert_eq!(pages.used_bytes(), 0, "pages leaked after faulted run");
}

fn make_prudence(pages: Arc<PageAllocator>, rcu: Arc<Rcu>) -> Arc<dyn ObjectAllocator> {
    Arc::new(PrudenceCache::new(
        "prop-fault",
        64,
        PrudenceConfig::new(2),
        pages,
        rcu,
    ))
}

fn make_slub(pages: Arc<PageAllocator>, rcu: Arc<Rcu>) -> Arc<dyn ObjectAllocator> {
    SlubCache::new("prop-fault", 64, 2, pages, rcu)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48, ..ProptestConfig::default()
    })]

    #[test]
    fn prudence_survives_injected_oom(
        ops in proptest::collection::vec(op_strategy(), 1..200),
        seed in any::<u64>(),
        fault_pm in 0u32..600,
    ) {
        // Catch-all site: every page allocation, whatever the caller.
        check_faulted(make_prudence, site::PAGE_ALLOC, seed, f64::from(fault_pm) / 1000.0, &ops);
    }

    #[test]
    fn prudence_survives_grow_site_oom(
        ops in proptest::collection::vec(op_strategy(), 1..200),
        seed in any::<u64>(),
        fault_pm in 0u32..600,
    ) {
        // Specific site: only Prudence's slab-grow path fails.
        check_faulted(make_prudence, site::PRUDENCE_GROW, seed, f64::from(fault_pm) / 1000.0, &ops);
    }

    #[test]
    fn slub_survives_injected_oom(
        ops in proptest::collection::vec(op_strategy(), 1..200),
        seed in any::<u64>(),
        fault_pm in 0u32..600,
    ) {
        check_faulted(make_slub, site::PAGE_ALLOC, seed, f64::from(fault_pm) / 1000.0, &ops);
    }

    #[test]
    fn slub_survives_grow_site_oom(
        ops in proptest::collection::vec(op_strategy(), 1..200),
        seed in any::<u64>(),
        fault_pm in 0u32..600,
    ) {
        check_faulted(make_slub, site::SLUB_GROW, seed, f64::from(fault_pm) / 1000.0, &ops);
    }

    #[test]
    fn prudence_survives_injected_gp_stalls(
        ops in proptest::collection::vec(op_strategy(), 1..200),
        seed in any::<u64>(),
        fault_pm in 0u32..600,
    ) {
        // Grace-period advances refused at random: deferred objects must
        // still drain at quiesce and the ladder accounting stay coherent.
        check_faulted(make_prudence, site::RCU_ADVANCE, seed, f64::from(fault_pm) / 1000.0, &ops);
    }

    #[test]
    fn slub_survives_injected_gp_stalls(
        ops in proptest::collection::vec(op_strategy(), 1..200),
        seed in any::<u64>(),
        fault_pm in 0u32..600,
    ) {
        check_faulted(make_slub, site::RCU_ADVANCE, seed, f64::from(fault_pm) / 1000.0, &ops);
    }

    #[test]
    fn prudence_survives_fastpath_flips(
        ops in proptest::collection::vec(op_strategy(), 1..200),
        seed in any::<u64>(),
        fault_pm in 0u32..600,
    ) {
        // Each injected fault drains the per-CPU stacks mid-run; the
        // usual invariants (no panic, balanced accounting, no page leak)
        // must hold across arbitrarily many drains.
        check_faulted(make_prudence, site::FASTPATH_DRAIN, seed, f64::from(fault_pm) / 1000.0, &ops);
    }

    #[test]
    fn slub_survives_fastpath_flips(
        ops in proptest::collection::vec(op_strategy(), 1..200),
        seed in any::<u64>(),
        fault_pm in 0u32..600,
    ) {
        check_faulted(make_slub, site::FASTPATH_DRAIN, seed, f64::from(fault_pm) / 1000.0, &ops);
    }
}

/// Invariant 4: under a total page-allocation blackout, a fresh cache's
/// first `allocate` must return `Err` — there is nothing to refill from,
/// no retry can succeed, and neither allocator may panic or hang.
#[test]
fn blackout_errors_propagate_from_both_allocators() {
    type Make = fn(Arc<PageAllocator>, Arc<Rcu>) -> Arc<dyn ObjectAllocator>;
    let makes: [(&str, Make); 2] =
        [("prudence", make_prudence), ("slub", make_slub)];
    for (label, make) in makes {
        let faults = Arc::new(FaultInjector::new(11));
        faults.schedule(site::PAGE_ALLOC, Schedule::EveryKth(1));
        let pages = Arc::new(
            PageAllocator::builder()
                .fault_injector(Arc::clone(&faults))
                .build(),
        );
        let rcu = Arc::new(Rcu::with_config(RcuConfig::eager()));
        let cache = make(Arc::clone(&pages), rcu);
        assert!(
            cache.allocate().is_err(),
            "{label}: allocation succeeded under total blackout"
        );
        assert!(faults.injected(site::PAGE_ALLOC) > 0);
        assert_eq!(cache.stats().live_objects, 0);
        drop(cache);
        assert_eq!(pages.used_bytes(), 0, "{label}: blackout charged pages");
    }
}

/// Forced drains, deterministic direction: with `fastpath.drain` armed
/// on every refill, every refill first drains the per-CPU stacks under
/// churn. The run must stay leak-free and accounting-balanced, and the
/// operations that then miss the emptied stack must show up in the
/// `fastpath_fallbacks` counter.
#[test]
fn forced_fastpath_disable_is_leak_free() {
    type Make = fn(Arc<PageAllocator>, Arc<Rcu>) -> Arc<dyn ObjectAllocator>;
    let makes: [(&str, Make); 2] = [("prudence", make_prudence), ("slub", make_slub)];
    for (label, make) in makes {
        let faults = Arc::new(FaultInjector::new(7));
        faults.schedule(site::FASTPATH_DRAIN, Schedule::EveryKth(1));
        let pages = Arc::new(
            PageAllocator::builder()
                .fault_injector(Arc::clone(&faults))
                .build(),
        );
        let rcu = Arc::new(Rcu::with_config(RcuConfig::eager()));
        let cache = make(Arc::clone(&pages), rcu);
        let mut live: Vec<ObjPtr> = Vec::new();
        for _ in 0..8 {
            for _ in 0..512 {
                live.push(cache.allocate().expect("no OOM faults armed"));
            }
            for obj in live.drain(..) {
                // SAFETY: each object freed exactly once.
                unsafe { cache.free(obj) };
            }
        }
        assert!(
            faults.injected(site::FASTPATH_DRAIN) >= 1,
            "{label}: churn never reached a refill"
        );
        cache.quiesce();
        let stats = cache.stats();
        assert_eq!(stats.live_objects, 0, "{label}: accounting diverged");
        assert!(
            stats.fastpath_fallbacks >= 1,
            "{label}: a drained stack never sent an operation to the slow path"
        );
        assert_eq!(cache.deferred_outstanding(), 0);
        drop(cache);
        assert_eq!(pages.used_bytes(), 0, "{label}: pages leaked across drains");
    }
}

/// Invariant 5, deterministic direction: a fault-free, amply-provisioned
/// run must never enter the recovery ladder, and therefore must never
/// attribute a recovery to any stage.
#[test]
fn clean_runs_enter_no_ladder_stage() {
    type Make = fn(Arc<PageAllocator>, Arc<Rcu>) -> Arc<dyn ObjectAllocator>;
    let makes: [(&str, Make); 2] = [("prudence", make_prudence), ("slub", make_slub)];
    for (label, make) in makes {
        let pages = Arc::new(PageAllocator::new());
        let rcu = Arc::new(Rcu::with_config(RcuConfig::eager()));
        let cache = make(Arc::clone(&pages), rcu);
        let objs: Vec<ObjPtr> = (0..256).map(|_| cache.allocate().unwrap()).collect();
        for (i, obj) in objs.into_iter().enumerate() {
            // SAFETY: each object freed exactly once.
            unsafe {
                if i % 2 == 0 {
                    cache.free(obj);
                } else {
                    cache.free_deferred(obj);
                }
            }
        }
        cache.quiesce();
        let stats = cache.stats();
        assert_eq!(stats.oom_waits, 0, "{label}: ladder entered without pressure");
        assert_eq!(
            stats.oom_recoveries_stage1 + stats.oom_recoveries_stage2 + stats.oom_recoveries_stage3,
            0,
            "{label}: recovery stage recorded on a clean run"
        );
    }
}
