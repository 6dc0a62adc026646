//! §3.3 cost table: cache hit vs object-cache refill vs slab-cache grow.
//!
//! The paper motivates Prudence with a measurement: "the object allocation
//! cost, compared to cache hit, is 4× expensive if it involves object
//! cache refill and 14× expensive if it involves slab cache grow". This
//! module measures the same three quantities on the baseline allocator:
//! the cost of an allocation served from the object cache, of one that
//! triggers a refill, and of one that triggers a slab grow. Refill and
//! grow costs are extracted from mixed regimes using the allocator's own
//! operation counters. The `bench cost` subcommand repeats the
//! measurement and records the table.

use std::time::Instant;

use pbs_rcu::RcuConfig;

use crate::{AllocatorKind, Testbed};

/// Measured §3.3 allocation costs.
#[derive(Debug, Clone, Copy)]
pub struct AllocCostReport {
    /// Nanoseconds for an allocation served from the object cache.
    pub hit_ns: f64,
    /// Nanoseconds for an allocation that triggers an object-cache refill.
    pub refill_ns: f64,
    /// Nanoseconds for an allocation that triggers a slab-cache grow.
    pub grow_ns: f64,
}

impl AllocCostReport {
    /// Refill cost as a multiple of the hit cost (paper: ≈4×).
    pub fn refill_multiple(&self) -> f64 {
        self.refill_ns / self.hit_ns
    }

    /// Grow cost as a multiple of the hit cost (paper: ≈14×).
    pub fn grow_multiple(&self) -> f64 {
        self.grow_ns / self.hit_ns
    }
}

/// Measures the three §3.3 costs for `object_size`-byte objects.
///
/// * **hit** — steady alloc/free of one object: every allocation is a
///   hit on the per-CPU stack, the only object cache.
/// * **refill** — cycle a working set of four object caches through
///   alloc/free batches over warm slabs, timing only the allocations;
///   their time minus the hit share, divided by the allocator's refill
///   counter, gives the extra cost a refill adds to an allocation (the
///   untimed frees absorb the flushes).
/// * **grow** — allocate-only from a cold cache; subtracting the hit and
///   refill shares and dividing by the grow counter gives the extra cost
///   a grow adds.
pub fn measure_alloc_cost(object_size: usize, iterations: u64) -> AllocCostReport {
    let bed = Testbed::new(AllocatorKind::Slub, 1, RcuConfig::eager(), None);

    // Regime 1: pure hits. The loop measures alloc+free pairs; an
    // allocation alone is roughly half a pair (the free path mirrors it).
    let cache = bed.create_cache("cost-hit", object_size);
    let hit_pair_ns = {
        let obj = cache.allocate().expect("warmup allocation");
        // SAFETY: freed exactly once here; reallocated in the loop.
        unsafe { cache.free(obj) };
        let start = Instant::now();
        for _ in 0..iterations {
            let o = cache.allocate().expect("hit allocation");
            // SAFETY: freed exactly once, immediately.
            unsafe { cache.free(o) };
        }
        start.elapsed().as_nanos() as f64 / iterations as f64
    };
    let hit_ns = hit_pair_ns / 2.0;

    // Regime 2: refill cycling. Extract the per-refill surcharge from the
    // allocator's own counters.
    let refill_extra_ns = {
        let cache = bed.create_cache("cost-refill", object_size);
        let batch = 4 * pbs_alloc_api::SizingPolicy::for_object_size(object_size).object_cache_size;
        let mut held = Vec::with_capacity(batch);
        // Warm: materialize the slabs so the regime refills, not grows.
        for _ in 0..batch {
            held.push(cache.allocate().expect("warm"));
        }
        for o in held.drain(..) {
            // SAFETY: each held object freed once.
            unsafe { cache.free(o) };
        }
        let before = cache.stats();
        let rounds = (iterations / batch as u64).max(1);
        let mut elapsed = 0.0;
        for _ in 0..rounds {
            let start = Instant::now();
            for _ in 0..batch {
                held.push(cache.allocate().expect("refill regime"));
            }
            elapsed += start.elapsed().as_nanos() as f64;
            for o in held.drain(..) {
                // SAFETY: as above.
                unsafe { cache.free(o) };
            }
        }
        let after = cache.stats();
        let allocs = (after.alloc_requests - before.alloc_requests) as f64;
        let refills = ((after.refills - before.refills) as f64).max(1.0);
        ((elapsed - allocs * hit_ns) / refills).max(0.0)
    };

    // Regime 3: allocate-only growth from a cold cache.
    let grow_extra_ns = {
        let cache = bed.create_cache("cost-grow", object_size);
        let n = iterations.min(200_000) as usize;
        let mut held = Vec::with_capacity(n);
        let before = cache.stats();
        let start = Instant::now();
        for _ in 0..n {
            held.push(cache.allocate().expect("grow regime"));
        }
        let elapsed = start.elapsed().as_nanos() as f64;
        let after = cache.stats();
        let allocs = (after.alloc_requests - before.alloc_requests) as f64;
        let refills = (after.refills - before.refills) as f64;
        let grows = ((after.grows - before.grows) as f64).max(1.0);
        for o in held {
            // SAFETY: each held object freed once.
            unsafe { cache.free(o) };
        }
        ((elapsed - allocs * hit_ns - refills * refill_extra_ns) / grows).max(0.0)
    };

    AllocCostReport {
        hit_ns,
        refill_ns: hit_ns + refill_extra_ns,
        grow_ns: hit_ns + refill_extra_ns + grow_extra_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regimes_are_ordered() {
        let report = measure_alloc_cost(512, 100_000);
        assert!(report.hit_ns > 0.0);
        // The qualitative §3.3 ordering: hit < with-refill < with-grow.
        assert!(
            report.refill_multiple() > 1.2,
            "refill {:.1} !>> hit {:.1}",
            report.refill_ns,
            report.hit_ns
        );
        assert!(
            report.grow_multiple() > report.refill_multiple(),
            "grow {:.1} !> refill {:.1}",
            report.grow_ns,
            report.refill_ns
        );
    }
}
