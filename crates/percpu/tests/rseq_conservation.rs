//! Conservation + exact-count identity for the rseq engine, mirroring
//! the in-crate locks-engine test. On platforms without rseq the engine
//! degrades to locks and the identities must still hold.

use std::sync::Arc;

use pbs_percpu::{Engine, FastCache, FastPop, FastPush};

/// Counts must be exact the moment a scope joins its workers — even
/// though `std::thread::scope` returns before the workers' TLS
/// destructors run. This is the web-server-integration flake in
/// miniature: four threads round-robining over more caches than the
/// one-entry TLS memo holds, with the snapshot racing thread teardown.
/// An exit-time-flush stats scheme loses whole threads here; the
/// read-through sink registry must not.
#[test]
fn counts_exact_at_scope_join_across_many_caches() {
    for round in 0..40 {
        let caches: Vec<Arc<FastCache>> = (0..6)
            .map(|_| Arc::new(FastCache::with_slots(4, 0, Engine::Rseq)))
            .collect();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let caches = caches.clone();
                s.spawn(move || {
                    for _ in 0..400 {
                        for c in &caches {
                            // Always empty: every pop is one fallback.
                            let _ = c.pop();
                        }
                    }
                });
            }
        });
        for (ci, c) in caches.iter().enumerate() {
            let s = c.snapshot();
            assert_eq!(
                (s.alloc_hits, s.free_hits, s.fallbacks),
                (0, 0, 1600),
                "round {round} cache {ci}: counts lost at scope join: {s:?}"
            );
        }
    }
}

fn addr(i: usize) -> usize {
    0x1000 + i * 8
}

#[test]
fn rseq_counts_match_physical_traffic() {
    for round in 0..8 {
        let c = Arc::new(FastCache::with_slots(4, 0, Engine::Rseq));
        let installed = c.engine();
        let threads = 4;
        let per = 4000;
        let popped: Vec<Vec<usize>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let c = Arc::clone(&c);
                    s.spawn(move || {
                        let mut got = Vec::new();
                        let mut next = t * per;
                        let end = (t + 1) * per;
                        while next < end {
                            match c.push(addr(next)) {
                                FastPush::Pushed => next += 1,
                                FastPush::Full | FastPush::Bypass => {
                                    if let FastPop::Hit(v) = c.pop() {
                                        got.push(v);
                                    }
                                }
                            }
                        }
                        got
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut all: Vec<usize> = popped.into_iter().flatten().collect();
        let parked = c.drain();
        let parked_len = parked.len() as u64;
        all.extend(parked);
        all.sort_unstable();
        let want: Vec<usize> = (0..threads * per).map(addr).collect();
        assert_eq!(
            all, want,
            "round {round} ({installed:?}): an object was lost or double-popped"
        );
        let s = c.snapshot();
        assert_eq!(
            s.free_hits,
            (threads * per) as u64,
            "round {round} ({installed:?}): push count mismatch: {s:?}"
        );
        assert_eq!(
            s.alloc_hits,
            s.free_hits - parked_len,
            "round {round} ({installed:?}): pop count mismatch (parked {parked_len}): {s:?}"
        );
    }
}
