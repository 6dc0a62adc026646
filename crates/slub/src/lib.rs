//! # pbs-slub — the baseline SLUB-style slab allocator
//!
//! A faithful userspace analog of the allocator the Prudence paper compares
//! against: per-CPU object caches over per-node full/partial/free slab
//! lists, refill/flush in halves, grow/shrink against the page allocator.
//!
//! **Deferred frees are not visible to this allocator.** `free_deferred`
//! registers an RCU callback (exactly like kernel code calling
//! `call_rcu(..., kfree_cb)`), so deferred objects are reclaimed later, in
//! bursts, by background reclaimer threads throttled per
//! [`RcuConfig`](pbs_rcu::RcuConfig). This reproduces the pathologies of
//! paper §3: bursty freeing, extended object lifetimes, high object-cache
//! and slab churn, and OOM under sustained deferred-free load.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use pbs_alloc_api::ObjectAllocator;
//! use pbs_mem::PageAllocator;
//! use pbs_rcu::Rcu;
//! use pbs_slub::SlubCache;
//!
//! let pages = Arc::new(PageAllocator::new());
//! let rcu = Arc::new(Rcu::new());
//! let cache = SlubCache::new("example", 256, 4, pages, rcu);
//!
//! let obj = cache.allocate()?;
//! unsafe { cache.free_deferred(obj) }; // reclaimed after a grace period
//! cache.quiesce();
//! assert_eq!(cache.stats().deferred_frees, 1);
//! # Ok::<(), pbs_alloc_api::AllocError>(())
//! ```

mod cache;
mod factory;

pub use cache::{SlubCache, SlubTuning};
pub use factory::SlubFactory;
