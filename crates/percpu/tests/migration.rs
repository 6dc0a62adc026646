//! Migration/preemption stress for the per-CPU ownership protocol.
//!
//! Threads hammer push/pop on a [`FastCache`] while forcing themselves
//! across CPUs with `sched_setaffinity(2)` mid-stream, so rseq critical
//! sections get aborted by migration as often as the machine allows (on
//! a single-CPU host the re-pin is a no-op syscall, and preemption
//! between the oversubscribed workers still drives restarts). The
//! invariant is conservation: every pushed address is popped or drained
//! exactly once, whatever the interleaving of aborts.

#![cfg(all(target_os = "linux", target_arch = "x86_64"))]

use std::collections::HashSet;
use std::sync::Arc;

use pbs_percpu::{FastCache, FastPop, FastPush};

const SYS_SCHED_SETAFFINITY: i64 = 203;
const SYS_SCHED_GETAFFINITY: i64 = 204;

fn affinity_syscall(nr: i64, mask: *mut u64, len: usize) -> i64 {
    let ret: i64;
    // SAFETY: well-formed sched_{set,get}affinity call on the calling
    // thread (pid 0) with a correctly sized mask buffer.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") nr => ret,
            in("rdi") 0,
            in("rsi") len,
            in("rdx") mask,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret
}

/// CPUs the test process may run on (empty if the syscall fails, e.g.
/// under a seccomp sandbox — the test then runs unpinned).
fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; 16];
    let ret = affinity_syscall(
        SYS_SCHED_GETAFFINITY,
        mask.as_mut_ptr(),
        std::mem::size_of_val(&mask),
    );
    if ret <= 0 {
        return Vec::new();
    }
    let mut cpus = Vec::new();
    for (word_idx, word) in mask.iter().enumerate() {
        for bit in 0..64 {
            if word & (1 << bit) != 0 {
                cpus.push(word_idx * 64 + bit);
            }
        }
    }
    cpus
}

/// Pins the calling thread to one CPU; best-effort.
fn pin_to(cpu: usize) {
    let mut mask = [0u64; 16];
    mask[cpu / 64] = 1 << (cpu % 64);
    let _ = affinity_syscall(
        SYS_SCHED_SETAFFINITY,
        mask.as_mut_ptr(),
        std::mem::size_of_val(&mask),
    );
}

/// Restores the full allowed mask.
fn unpin(cpus: &[usize]) {
    let mut mask = [0u64; 16];
    for &cpu in cpus {
        if cpu < 16 * 64 {
            mask[cpu / 64] |= 1 << (cpu % 64);
        }
    }
    let _ = affinity_syscall(
        SYS_SCHED_SETAFFINITY,
        mask.as_mut_ptr(),
        std::mem::size_of_val(&mask),
    );
}

#[test]
fn migration_storm_conserves_objects() {
    let cpus = allowed_cpus();
    let cache = Arc::new(FastCache::new(32));
    let threads = 8;
    let per_thread = 200_000usize;

    // Each worker reports (pushed, got back, pushed by batch).
    let results: Vec<(Vec<usize>, Vec<usize>, usize)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let cache = Arc::clone(&cache);
                let cpus = cpus.clone();
                s.spawn(move || {
                    let base = 0x100_000 + t * per_thread * 8;
                    let mut next = 0usize;
                    let mut popped = Vec::new();
                    let mut hop = t; // stagger starting CPUs
                    let mut batched = 0;
                    // Every iteration pushes, pops, or spends bounded
                    // restart budget, so the loop terminates on its own.
                    while next < per_thread {
                        // Force a migration attempt mid-stream every few
                        // hundred operations.
                        if !cpus.is_empty() && next.is_multiple_of(512) {
                            pin_to(cpus[hop % cpus.len()]);
                            hop += 1;
                        }
                        // Batch arm: the refill and flush commit points.
                        if next.is_multiple_of(97) && next + 8 <= per_thread {
                            let batch: Vec<usize> = (next..next + 8).map(|i| base + i * 8).collect();
                            let n = cache.push_batch(&batch);
                            next += n;
                            batched += n;
                            cache.trim(16, &mut popped);
                        }
                        if next == per_thread {
                            break;
                        }
                        match cache.push(base + next * 8) {
                            FastPush::Pushed => next += 1,
                            FastPush::Full | FastPush::Bypass => {
                                if let FastPop::Hit(v) = cache.pop() {
                                    popped.push(v);
                                }
                            }
                        }
                        if next.is_multiple_of(3) {
                            if let FastPop::Hit(v) = cache.pop() {
                                popped.push(v);
                            }
                        }
                    }
                    if !cpus.is_empty() {
                        unpin(&cpus);
                    }
                    let pushed: Vec<usize> = (0..next).map(|i| base + i * 8).collect();
                    (pushed, popped, batched)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut pushed: HashSet<usize> = HashSet::new();
    let mut seen: Vec<usize> = Vec::new();
    let mut batched = 0;
    for (p, g, b) in results {
        pushed.extend(p);
        seen.extend(g);
        batched += b;
    }
    seen.extend(cache.drain());
    let seen_set: HashSet<usize> = seen.iter().copied().collect();
    assert_eq!(
        seen_set.len(),
        seen.len(),
        "double handout under migration storm"
    );
    assert_eq!(seen_set, pushed, "conservation violated under migration");

    let snap = cache.snapshot();
    // Batches are refills, not hits: only single pushes count.
    assert_eq!(snap.free_hits, (pushed.len() - batched) as u64);
    eprintln!(
        "migration storm: engine={} cpus={} hits={}/{} restarts={} fallbacks={}",
        cache.engine(),
        cpus.len().max(1),
        snap.alloc_hits,
        snap.free_hits,
        snap.restarts,
        snap.fallbacks,
    );
}
