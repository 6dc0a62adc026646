//! Factory producing Prudence caches.

use std::sync::Arc;

use pbs_alloc_api::{CacheFactory, ObjectAllocator};
use pbs_mem::PageAllocator;
use pbs_rcu::reclaim::{EpochDomain, ReclamationDomain};
use pbs_rcu::Rcu;

use crate::{PrudenceCache, PrudenceConfig};

/// Creates [`PrudenceCache`]s sharing one page allocator, RCU domain and
/// configuration.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use pbs_alloc_api::{CacheFactory, KmallocHeap};
/// use pbs_mem::PageAllocator;
/// use pbs_rcu::Rcu;
/// use prudence::{PrudenceConfig, PrudenceFactory};
///
/// let f = PrudenceFactory::new(
///     PrudenceConfig::new(4),
///     Arc::new(PageAllocator::new()),
///     Arc::new(Rcu::new()),
/// );
/// let cache = f.create_cache("dentry", 192);
/// assert_eq!(cache.object_size(), 192);
/// assert_eq!(f.label(), "prudence");
///
/// // The paper's kmalloc front end over Prudence size classes.
/// let heap = KmallocHeap::new(&f);
/// let obj = heap.kmalloc(100)?; // served by kmalloc-128
/// unsafe { heap.kfree_deferred(obj, 100) }; // paper Listing 2
/// heap.quiesce();
/// # Ok::<(), pbs_alloc_api::AllocError>(())
/// ```
pub struct PrudenceFactory {
    config: PrudenceConfig,
    pages: Arc<PageAllocator>,
    rcu: Arc<Rcu>,
    /// Shared reclamation domain for every minted cache; `None` lets each
    /// cache attach its own default epoch backend.
    domain: Option<Arc<dyn ReclamationDomain>>,
}

impl std::fmt::Debug for PrudenceFactory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrudenceFactory")
            .field("config", &self.config)
            .field("backend", &self.domain.as_ref().map(|d| d.backend()))
            .finish()
    }
}

impl PrudenceFactory {
    /// Creates a factory; every cache it mints shares `pages`, `rcu` and
    /// `config`.
    pub fn new(config: PrudenceConfig, pages: Arc<PageAllocator>, rcu: Arc<Rcu>) -> Self {
        Self {
            config,
            pages,
            rcu,
            domain: None,
        }
    }

    /// Like [`new`](Self::new), but every minted cache shares `domain`
    /// (one retire stream / batch stream across the whole subsystem, the
    /// way all caches already share one `rcu`).
    pub fn with_domain(
        config: PrudenceConfig,
        pages: Arc<PageAllocator>,
        domain: Arc<dyn ReclamationDomain>,
    ) -> Self {
        Self {
            config,
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

    /// The shared configuration.
    pub fn config(&self) -> &PrudenceConfig {
        &self.config
    }
}

impl CacheFactory for PrudenceFactory {
    fn create_cache(&self, name: &str, object_size: usize) -> Arc<dyn ObjectAllocator> {
        // Without a shared domain every cache attaches its own epoch
        // backend.
        let domain = self.domain.clone().unwrap_or_else(|| {
            Arc::new(EpochDomain::new(Arc::clone(&self.rcu))) as Arc<dyn ReclamationDomain>
        });
        Arc::new(PrudenceCache::with_domain(
            name,
            object_size,
            self.config.clone(),
            Arc::clone(&self.pages),
            domain,
        ))
    }

    fn label(&self) -> &str {
        "prudence"
    }
}
