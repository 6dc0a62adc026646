//! Page-granular allocator over the process heap.
//!
//! Slab allocators in this workspace carve object slabs out of
//! [`PageBlock`]s. Blocks are allocated with the alignment the caller
//! requests (slabs use power-of-two size == alignment so an object pointer
//! can be masked back to its slab header).

use std::alloc::{alloc, dealloc, Layout};
use std::fmt;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use pbs_fault::{site, FaultInjector};

use crate::accounting::MemoryAccounting;
use crate::PAGE_SIZE;

/// Error returned when a [`PageAllocator`] refuses or fails an allocation.
///
/// Carries the number of bytes that were requested so OOM handlers can log
/// meaningful diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfMemory {
    /// Bytes that were requested when the allocator gave up.
    pub requested_bytes: usize,
}

impl fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "page allocator out of memory (requested {} bytes)",
            self.requested_bytes
        )
    }
}

impl std::error::Error for OutOfMemory {}

/// An owned, page-aligned block of real memory.
///
/// The block is **not** freed on drop: ownership semantics mirror a kernel
/// page allocator where pages must be explicitly returned with
/// [`PageAllocator::free_pages`]. Leaking a `PageBlock` leaks memory and
/// keeps it counted as used. (Explicit return also keeps accounting attached
/// to the allocator rather than the block.)
pub struct PageBlock {
    ptr: NonNull<u8>,
    bytes: usize,
    align: usize,
}

// SAFETY: PageBlock uniquely owns its memory region; transferring it across
// threads transfers that ownership.
unsafe impl Send for PageBlock {}
unsafe impl Sync for PageBlock {}

impl fmt::Debug for PageBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PageBlock")
            .field("base", &self.ptr.as_ptr())
            .field("bytes", &self.bytes)
            .field("align", &self.align)
            .finish()
    }
}

impl PageBlock {
    /// Base address of the block.
    pub fn base(&self) -> NonNull<u8> {
        self.ptr
    }

    /// Length of the block in bytes (a multiple of [`PAGE_SIZE`]).
    pub fn len(&self) -> usize {
        self.bytes
    }

    /// Whether the block is empty (never true for live blocks).
    pub fn is_empty(&self) -> bool {
        self.bytes == 0
    }

    /// Alignment the block was allocated with.
    pub fn align(&self) -> usize {
        self.align
    }
}

/// Builder for a [`PageAllocator`] (see [`PageAllocator::builder`]).
///
/// # Example
///
/// ```
/// use pbs_mem::PageAllocator;
///
/// let pages = PageAllocator::builder()
///     .limit_bytes(1 << 20) // 1 MiB hard limit
///     .build();
/// assert!(pages.allocate_pages(1).is_ok());
/// assert!(pages.allocate_pages(1 << 20).is_err());
/// ```
#[derive(Debug, Default)]
pub struct PageAllocatorBuilder {
    limit_bytes: Option<usize>,
    faults: Option<Arc<FaultInjector>>,
}

impl PageAllocatorBuilder {
    /// Sets a hard limit on total outstanding bytes; allocations that would
    /// exceed it fail with [`OutOfMemory`]. This models the finite physical
    /// memory of the paper's test machine. Admission is a compare-exchange
    /// reserve, so concurrent allocators can never overshoot the limit.
    pub fn limit_bytes(mut self, limit: usize) -> Self {
        self.limit_bytes = Some(limit);
        self
    }

    /// Attaches a fault injector: every block allocation consults it (under
    /// the [`site::PAGE_ALLOC`] catch-all plus the caller's specific site
    /// tag) and fails with [`OutOfMemory`] when a scheduled fault fires.
    pub fn fault_injector(mut self, faults: Arc<FaultInjector>) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Builds the allocator.
    pub fn build(self) -> PageAllocator {
        PageAllocator {
            limit_bytes: self.limit_bytes,
            accounting: MemoryAccounting::new(),
            outstanding_blocks: AtomicUsize::new(0),
            faults: self.faults,
        }
    }
}

/// A page-granular memory allocator with accounting and an optional hard
/// limit.
///
/// This is the userspace stand-in for the kernel buddy allocator: slab
/// caches grow by requesting page blocks here and shrink by returning them.
///
/// # Example
///
/// ```
/// use pbs_mem::{PageAllocator, PAGE_SIZE};
///
/// let pages = PageAllocator::new();
/// let block = pages.allocate_aligned(2 * PAGE_SIZE, 2 * PAGE_SIZE)?;
/// assert_eq!(block.base().as_ptr() as usize % (2 * PAGE_SIZE), 0);
/// pages.free_pages(block);
/// # Ok::<(), pbs_mem::OutOfMemory>(())
/// ```
#[derive(Debug)]
pub struct PageAllocator {
    limit_bytes: Option<usize>,
    accounting: MemoryAccounting,
    outstanding_blocks: AtomicUsize,
    faults: Option<Arc<FaultInjector>>,
}

impl Default for PageAllocator {
    fn default() -> Self {
        Self::new()
    }
}

impl PageAllocator {
    /// Creates an allocator with no memory limit.
    pub fn new() -> Self {
        Self::builder().build()
    }

    /// Returns a builder for configuring limits.
    pub fn builder() -> PageAllocatorBuilder {
        PageAllocatorBuilder::default()
    }

    /// The fault injector this allocator consults, when one is attached.
    /// Caches built on this allocator share it so their own fault sites
    /// (e.g. [`site::FASTPATH_DRAIN`](pbs_fault::site::FASTPATH_DRAIN))
    /// ride the same seeded plan as the page-level ones.
    pub fn faults(&self) -> Option<&Arc<FaultInjector>> {
        self.faults.as_ref()
    }

    /// Allocates `n` pages aligned to [`PAGE_SIZE`].
    ///
    /// # Errors
    ///
    /// Returns [`OutOfMemory`] if `n` is zero-sized in a way the platform
    /// rejects, the configured limit would be exceeded, or the underlying
    /// system allocator fails.
    pub fn allocate_pages(&self, n: usize) -> Result<PageBlock, OutOfMemory> {
        self.allocate_aligned(n * PAGE_SIZE, PAGE_SIZE)
    }

    /// Allocates `bytes` (rounded up to whole pages) with the given
    /// alignment. Slab caches use `align == bytes` (power of two) so object
    /// pointers can be masked to the slab base.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfMemory`] under the same conditions as
    /// [`allocate_pages`](Self::allocate_pages).
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two.
    pub fn allocate_aligned(&self, bytes: usize, align: usize) -> Result<PageBlock, OutOfMemory> {
        self.allocate_aligned_at(bytes, align, site::PAGE_ALLOC)
    }

    /// [`allocate_aligned`](Self::allocate_aligned) with a fault-site tag,
    /// letting callers (slab grow paths) be targeted individually by an
    /// attached [`FaultInjector`]. Without an injector the tag is inert.
    pub fn allocate_aligned_at(
        &self,
        bytes: usize,
        align: usize,
        fault_site: &'static str,
    ) -> Result<PageBlock, OutOfMemory> {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let align = align.max(PAGE_SIZE);
        // An over-aligned block (align > rounded size) consumes `align`
        // bytes of address space from the backing allocator, so charge,
        // allocate, and later free exactly that: accounting, the limit
        // reserve, and the `free_pages` layout all see one size.
        let bytes = (crate::pages_for(bytes.max(1)) * PAGE_SIZE).max(align);
        let oom = OutOfMemory {
            requested_bytes: bytes,
        };
        if let Some(faults) = &self.faults {
            // Consult both the catch-all and the caller's specific tag so
            // one schedule can cover every allocation while per-site call
            // counts stay complete for coverage audits.
            let catch_all = faults.should_fail(site::PAGE_ALLOC);
            let tagged = fault_site != site::PAGE_ALLOC && faults.should_fail(fault_site);
            if catch_all || tagged {
                return Err(oom);
            }
        }
        // Reserve-commit-cancel: admission and the usage update are one
        // compare-exchange, so `used_bytes <= limit` holds at every instant
        // — concurrent allocators cannot overshoot a configured limit.
        if !self.accounting.try_reserve(bytes, self.limit_bytes) {
            return Err(oom);
        }
        let Ok(layout) = Layout::from_size_align(bytes, align) else {
            self.accounting.cancel_reserve(bytes);
            return Err(oom);
        };
        // SAFETY: layout has non-zero size (bytes >= PAGE_SIZE).
        let raw = unsafe { alloc(layout) };
        let Some(ptr) = NonNull::new(raw) else {
            self.accounting.cancel_reserve(bytes);
            return Err(oom);
        };
        self.accounting.commit_reserve();
        self.outstanding_blocks.fetch_add(1, Ordering::Relaxed);
        Ok(PageBlock { ptr, bytes, align })
    }

    /// Returns a block to the allocator, releasing its memory.
    pub fn free_pages(&self, block: PageBlock) {
        let layout = Layout::from_size_align(block.bytes, block.align)
            .expect("layout was valid at allocation time");
        // SAFETY: `block` was produced by `allocate_aligned` with exactly
        // this layout and `PageBlock` is not Clone, so this is the unique
        // owner.
        unsafe { dealloc(block.ptr.as_ptr(), layout) };
        self.accounting.record_free(block.bytes);
        self.outstanding_blocks.fetch_sub(1, Ordering::Relaxed);
    }

    /// Bytes currently outstanding (allocated, not yet returned).
    pub fn used_bytes(&self) -> usize {
        self.accounting.used_bytes()
    }

    /// Peak of [`used_bytes`](Self::used_bytes) over the allocator lifetime.
    pub fn peak_bytes(&self) -> usize {
        self.accounting.peak_bytes()
    }

    /// Number of blocks currently outstanding.
    pub fn outstanding_blocks(&self) -> usize {
        self.outstanding_blocks.load(Ordering::Relaxed)
    }

    /// The configured hard limit, if any.
    pub fn limit_bytes(&self) -> Option<usize> {
        self.limit_bytes
    }

    /// Shared accounting counters (alloc/free event counts, peak).
    pub fn accounting(&self) -> &MemoryAccounting {
        &self.accounting
    }

    /// Fraction of the limit currently used, or `0.0` when unlimited.
    ///
    /// Prudence's OOM-deferral logic uses this to decide when the system is
    /// "under memory pressure" (paper §4.2, *Handling memory pressure*).
    pub fn pressure(&self) -> f64 {
        match self.limit_bytes {
            Some(limit) if limit > 0 => self.used_bytes() as f64 / limit as f64,
            _ => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_and_free_pages() {
        let pages = PageAllocator::new();
        let b = pages.allocate_pages(3).unwrap();
        assert_eq!(b.len(), 3 * PAGE_SIZE);
        assert_eq!(pages.used_bytes(), 3 * PAGE_SIZE);
        assert_eq!(pages.outstanding_blocks(), 1);
        pages.free_pages(b);
        assert_eq!(pages.used_bytes(), 0);
        assert_eq!(pages.outstanding_blocks(), 0);
    }

    #[test]
    fn limit_enforced() {
        let pages = PageAllocator::builder().limit_bytes(8 * PAGE_SIZE).build();
        let a = pages.allocate_pages(4).unwrap();
        let b = pages.allocate_pages(4).unwrap();
        let err = pages.allocate_pages(1).unwrap_err();
        assert_eq!(err.requested_bytes, PAGE_SIZE);
        pages.free_pages(a);
        assert!(pages.allocate_pages(1).is_ok());
        pages.free_pages(b);
    }

    #[test]
    fn aligned_allocation_is_aligned() {
        let pages = PageAllocator::new();
        for order in 0..4 {
            let bytes = PAGE_SIZE << order;
            let b = pages.allocate_aligned(bytes, bytes).unwrap();
            assert_eq!(b.base().as_ptr() as usize % bytes, 0);
            assert_eq!(b.len(), bytes);
            pages.free_pages(b);
        }
    }

    #[test]
    fn sub_page_request_rounds_up() {
        let pages = PageAllocator::new();
        let b = pages.allocate_aligned(100, 64).unwrap();
        assert_eq!(b.len(), PAGE_SIZE);
        pages.free_pages(b);
    }

    #[test]
    fn pressure_reporting() {
        let pages = PageAllocator::builder().limit_bytes(10 * PAGE_SIZE).build();
        assert_eq!(pages.pressure(), 0.0);
        let b = pages.allocate_pages(5).unwrap();
        assert!((pages.pressure() - 0.5).abs() < 1e-9);
        pages.free_pages(b);
        let unlimited = PageAllocator::new();
        assert_eq!(unlimited.pressure(), 0.0);
    }

    #[test]
    fn display_of_oom_error() {
        let err = OutOfMemory {
            requested_bytes: 4096,
        };
        assert!(err.to_string().contains("4096"));
    }

    #[test]
    fn concurrent_allocation_respects_limit() {
        use std::sync::Arc;
        let pages = Arc::new(PageAllocator::builder().limit_bytes(64 * PAGE_SIZE).build());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let pages = Arc::clone(&pages);
                std::thread::spawn(move || {
                    let mut held = Vec::new();
                    let mut failures = 0u32;
                    for _ in 0..200 {
                        match pages.allocate_pages(2) {
                            Ok(b) => held.push(b),
                            Err(_) => {
                                failures += 1;
                                if let Some(b) = held.pop() {
                                    pages.free_pages(b);
                                }
                            }
                        }
                    }
                    for b in held {
                        pages.free_pages(b);
                    }
                    failures
                })
            })
            .collect();
        let failures: u32 = threads.into_iter().map(|t| t.join().unwrap()).sum();
        assert!(failures > 0, "the limit must have pushed back");
        assert_eq!(pages.used_bytes(), 0);
        // The limit is a hard cap: the compare-exchange reserve admits an
        // allocation and charges it in one step, so not even a transient
        // overshoot is possible.
        assert!(pages.peak_bytes() <= 64 * PAGE_SIZE);
    }

    #[test]
    fn over_aligned_block_charges_its_alignment() {
        let pages = PageAllocator::new();
        let b = pages.allocate_aligned(PAGE_SIZE, 8 * PAGE_SIZE).unwrap();
        assert_eq!(b.len(), 8 * PAGE_SIZE, "block spans the aligned size");
        assert_eq!(b.base().as_ptr() as usize % (8 * PAGE_SIZE), 0);
        assert_eq!(pages.used_bytes(), 8 * PAGE_SIZE, "charged what it consumes");
        pages.free_pages(b);
        assert_eq!(pages.used_bytes(), 0);
    }

    #[test]
    fn over_aligned_block_counts_against_limit() {
        let pages = PageAllocator::builder().limit_bytes(8 * PAGE_SIZE).build();
        // 1 page requested but 8-page alignment: the reserve must charge 8
        // pages, so a second over-aligned block cannot be admitted.
        let a = pages.allocate_aligned(PAGE_SIZE, 8 * PAGE_SIZE).unwrap();
        assert!(pages.allocate_aligned(PAGE_SIZE, 8 * PAGE_SIZE).is_err());
        pages.free_pages(a);
    }

    #[test]
    fn injected_fault_fails_allocation_without_charging() {
        use pbs_fault::Schedule;
        let faults = Arc::new(FaultInjector::new(11));
        faults.schedule(site::PAGE_ALLOC, Schedule::Nth(2));
        let pages = PageAllocator::builder()
            .fault_injector(Arc::clone(&faults))
            .build();
        let a = pages.allocate_pages(1).unwrap();
        let err = pages.allocate_pages(1).unwrap_err();
        assert_eq!(err.requested_bytes, PAGE_SIZE);
        assert_eq!(pages.used_bytes(), PAGE_SIZE, "failed alloc charges nothing");
        assert!(pages.allocate_pages(1).is_ok_and(|b| {
            pages.free_pages(b);
            true
        }));
        pages.free_pages(a);
        assert_eq!(faults.injected(site::PAGE_ALLOC), 1);
    }

    #[test]
    fn tagged_site_is_consulted_alongside_catch_all() {
        use pbs_fault::Schedule;
        let faults = Arc::new(FaultInjector::new(3));
        faults.schedule("test.grow", Schedule::EveryKth(1));
        let pages = PageAllocator::builder()
            .fault_injector(Arc::clone(&faults))
            .build();
        // Untagged allocations are unaffected by the site-specific schedule.
        let b = pages.allocate_pages(1).unwrap();
        pages.free_pages(b);
        // Tagged ones always fail under the blackout.
        assert!(pages
            .allocate_aligned_at(PAGE_SIZE, PAGE_SIZE, "test.grow")
            .is_err());
        assert_eq!(faults.injected("test.grow"), 1);
        assert_eq!(faults.calls(site::PAGE_ALLOC), 2, "catch-all saw every call");
        assert_eq!(pages.used_bytes(), 0);
    }

    #[test]
    fn outstanding_blocks_tracks_each_block() {
        let pages = PageAllocator::new();
        let blocks: Vec<_> = (0..5).map(|_| pages.allocate_pages(1).unwrap()).collect();
        assert_eq!(pages.outstanding_blocks(), 5);
        for b in blocks {
            pages.free_pages(b);
        }
        assert_eq!(pages.outstanding_blocks(), 0);
        assert_eq!(pages.limit_bytes(), None);
    }

    #[test]
    fn memory_is_writable() {
        let pages = PageAllocator::new();
        let b = pages.allocate_pages(1).unwrap();
        // SAFETY: we own the block and stay in bounds.
        unsafe {
            let p = b.base().as_ptr();
            for i in 0..PAGE_SIZE {
                p.add(i).write((i % 251) as u8);
            }
            for i in 0..PAGE_SIZE {
                assert_eq!(p.add(i).read(), (i % 251) as u8);
            }
        }
        pages.free_pages(b);
    }
}
