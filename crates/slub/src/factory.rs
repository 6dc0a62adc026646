//! Factory producing baseline caches.

use std::sync::Arc;

use pbs_alloc_api::{CacheFactory, ObjectAllocator};
use pbs_mem::PageAllocator;
use pbs_rcu::reclaim::{EpochDomain, ReclamationDomain};
use pbs_rcu::Rcu;

use crate::{SlubCache, SlubTuning};

/// Creates [`SlubCache`]s sharing one page allocator and RCU domain.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use pbs_alloc_api::CacheFactory;
/// use pbs_mem::PageAllocator;
/// use pbs_rcu::Rcu;
/// use pbs_slub::SlubFactory;
///
/// let f = SlubFactory::new(4, Arc::new(PageAllocator::new()), Arc::new(Rcu::new()));
/// let cache = f.create_cache("dentry", 192);
/// assert_eq!(cache.object_size(), 192);
/// assert_eq!(f.label(), "slub");
/// ```
pub struct SlubFactory {
    ncpus: usize,
    tuning: SlubTuning,
    pages: Arc<PageAllocator>,
    rcu: Arc<Rcu>,
    /// Shared reclamation domain for every minted cache; `None` lets each
    /// cache attach its own default epoch backend.
    domain: Option<Arc<dyn ReclamationDomain>>,
}

impl std::fmt::Debug for SlubFactory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlubFactory")
            .field("ncpus", &self.ncpus)
            .field("backend", &self.domain.as_ref().map(|d| d.backend()))
            .finish()
    }
}

impl SlubFactory {
    /// Creates a factory; every cache it mints shares `pages` and `rcu`.
    pub fn new(ncpus: usize, pages: Arc<PageAllocator>, rcu: Arc<Rcu>) -> Self {
        Self::with_tuning(ncpus, SlubTuning::default(), pages, rcu)
    }

    /// Like [`new`](Self::new) with explicit degradation knobs applied to
    /// every cache this factory mints.
    pub fn with_tuning(
        ncpus: usize,
        tuning: SlubTuning,
        pages: Arc<PageAllocator>,
        rcu: Arc<Rcu>,
    ) -> Self {
        Self {
            ncpus,
            tuning,
            pages,
            rcu,
            domain: None,
        }
    }

    /// Like [`with_tuning`](Self::with_tuning), but every minted cache
    /// shares `domain` (one retire stream / batch stream across the whole
    /// subsystem, the way all caches already share one `rcu`).
    pub fn with_domain(
        ncpus: usize,
        tuning: SlubTuning,
        pages: Arc<PageAllocator>,
        domain: Arc<dyn ReclamationDomain>,
    ) -> Self {
        Self {
            ncpus,
            tuning,
            pages,
            rcu: Arc::clone(domain.rcu()),
            domain: Some(domain),
        }
    }

    /// The shared page allocator.
    pub fn pages(&self) -> &Arc<PageAllocator> {
        &self.pages
    }

    /// The shared RCU domain.
    pub fn rcu(&self) -> &Arc<Rcu> {
        &self.rcu
    }
}

impl CacheFactory for SlubFactory {
    fn create_cache(&self, name: &str, object_size: usize) -> Arc<dyn ObjectAllocator> {
        // Without a shared domain every cache attaches its own epoch
        // backend.
        let domain = self.domain.clone().unwrap_or_else(|| {
            Arc::new(EpochDomain::new(Arc::clone(&self.rcu))) as Arc<dyn ReclamationDomain>
        });
        SlubCache::with_domain(
            name,
            object_size,
            self.ncpus,
            self.tuning.clone(),
            Arc::clone(&self.pages),
            domain,
        )
    }

    fn label(&self) -> &str {
        "slub"
    }
}
