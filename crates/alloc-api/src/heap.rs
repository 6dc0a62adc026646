//! kmalloc-style front end over size-class caches.

use std::sync::Arc;

use crate::{class_index_for, AllocError, CacheFactory, ObjPtr, ObjectAllocator, SIZE_CLASSES};

/// A general-purpose allocator front end: one cache per kmalloc size class
/// (`kmalloc-8` … `kmalloc-4096`), as in the Linux kernel, minted by any
/// [`CacheFactory`] — so the same heap runs over the SLUB baseline or
/// Prudence. This is the allocator behind the paper's `kfree_deferred()`
/// evaluation API (§5); `prudence::PrudenceFactory`'s documentation shows
/// it in use.
pub struct KmallocHeap {
    caches: Vec<Arc<dyn ObjectAllocator>>,
}

impl std::fmt::Debug for KmallocHeap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list()
            .entries(self.caches.iter().map(|c| c.name()))
            .finish()
    }
}

impl KmallocHeap {
    /// Creates the full set of size-class caches from `factory`.
    pub fn new(factory: &dyn CacheFactory) -> Self {
        let caches = SIZE_CLASSES
            .iter()
            .map(|&size| factory.create_cache(&format!("kmalloc-{size}"), size))
            .collect();
        Self { caches }
    }

    /// Allocates `size` bytes from the smallest fitting size class.
    ///
    /// # Errors
    ///
    /// Fails if `size` exceeds the largest class or the class cannot
    /// allocate (see [`ObjectAllocator::allocate`]).
    pub fn kmalloc(&self, size: usize) -> Result<ObjPtr, AllocError> {
        self.cache_for(size)
            .ok_or(AllocError::OutOfMemory)?
            .allocate()
    }

    /// Frees an object previously allocated with `kmalloc(size)`.
    ///
    /// # Safety
    ///
    /// `obj` must come from [`kmalloc`](Self::kmalloc) on this heap with a
    /// size mapping to the same class, freed exactly once, not used after.
    pub unsafe fn kfree(&self, obj: ObjPtr, size: usize) {
        self.cache_for(size)
            .expect("size was allocatable")
            .free(obj);
    }

    /// The paper's `kfree_deferred()`: defers the free until after a grace
    /// period.
    ///
    /// # Safety
    ///
    /// As [`kfree`](Self::kfree); additionally the object must already be
    /// unreachable for new readers.
    pub unsafe fn kfree_deferred(&self, obj: ObjPtr, size: usize) {
        self.cache_for(size)
            .expect("size was allocatable")
            .free_deferred(obj);
    }

    /// The cache serving a given size.
    pub fn cache_for(&self, size: usize) -> Option<&Arc<dyn ObjectAllocator>> {
        class_index_for(size).map(|i| &self.caches[i])
    }

    /// All size-class caches.
    pub fn caches(&self) -> &[Arc<dyn ObjectAllocator>] {
        &self.caches
    }

    /// Quiesces every class: each deferred object is reusable and nothing
    /// stays parked on any class's per-CPU stacks.
    pub fn quiesce(&self) {
        for c in &self.caches {
            c.quiesce();
        }
    }
}
