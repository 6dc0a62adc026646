//! Idle-time latent-cache pre-flush worker (§4.2).
//!
//! The paper schedules pre-flushing during CPU idle time (inspired by
//! "Idleness is not sloth") so it never interferes with the allocation and
//! free hot paths. The userspace analog is a low-priority background thread
//! per cache that drains pre-flush requests from a channel — it only runs
//! when the OS has spare cycles to schedule it, and the hot paths only pay
//! one `try_send` when they foresee a post-grace-period overflow.

use std::sync::Weak;

use crossbeam::channel::Receiver;

use crate::cache::Core;

/// Worker loop: drains (CPU slot, stack depth) requests for latent caches
/// that need pre-flushing. Exits when the cache is dropped (channel closed
/// or upgrade fails).
pub(crate) fn preflush_worker(cache: Weak<Core>, rx: Receiver<(usize, usize)>) {
    while let Ok((cpu_idx, depth)) = rx.recv() {
        let Some(cache) = cache.upgrade() else {
            return;
        };
        cache.preflush(cpu_idx, depth);
    }
}
