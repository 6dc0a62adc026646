//! Node-level state: slabs with latent-slab tracking.

use std::collections::VecDeque;

use pbs_alloc_api::{FrameSlab, ListKind, RawSlab};
use pbs_rcu::GpState;

/// A slab plus its latent slab: the deferred objects belonging to it
/// (paper Figure 4, right side).
///
/// Deferred objects are counted as *allocated* by the underlying
/// [`RawSlab`] until their grace period completes and the slab merges
/// them back into its free list.
#[derive(Debug)]
pub struct PrudentSlab {
    pub(crate) raw: RawSlab,
    /// Deferred objects (slab-local index, stamp), oldest first.
    pub(crate) deferred: VecDeque<(u16, GpState)>,
}

impl PrudentSlab {
    /// Returns deferred objects whose grace period completed at `epoch` to
    /// the slab free list. Returns how many were reclaimed.
    pub(crate) fn reclaim_completed(&mut self, epoch: u64) -> usize {
        let mut reclaimed = 0;
        while let Some(&(idx, gp)) = self.deferred.front() {
            if !gp.is_completed_at(epoch) {
                break;
            }
            self.deferred.pop_front();
            pbs_telemetry::site::note_reclaimed(self.raw.object_ptr(idx).addr());
            self.raw.give_back_index(idx);
            reclaimed += 1;
        }
        reclaimed
    }

    /// Whether every allocated object in the slab is deferred — the slab
    /// will be entirely free after the grace period (Algorithm line 56).
    pub(crate) fn all_allocated_deferred(&self) -> bool {
        self.raw.allocated_count() > 0 && self.raw.allocated_count() == self.deferred.len()
    }

    /// The list this slab should be on. A slab whose allocated objects are
    /// all deferred is pre-moved to the free list: the whole slab is about
    /// to be free (Algorithm lines 56-57). A full slab with only some
    /// objects deferred stays on the full list rather than being pre-moved
    /// to the partial list (lines 54-55): partial slabs must have free
    /// objects, or they crowd the refill scan window and force growth
    /// (DESIGN.md §4c). `reclaim_pending` relists it once objects return.
    pub(crate) fn classify(&self) -> ListKind {
        if self.raw.is_free() || self.all_allocated_deferred() {
            ListKind::Free
        } else if self.raw.is_full() {
            ListKind::Full
        } else {
            ListKind::Partial
        }
    }

    /// Whether the slab's pages can be returned to the page allocator
    /// right now.
    pub(crate) fn releasable(&self) -> bool {
        self.raw.is_free() && self.deferred.is_empty()
    }
}

impl FrameSlab for PrudentSlab {
    type NodeState = LatentLists;

    fn from_raw(raw: RawSlab) -> Self {
        Self {
            raw,
            deferred: VecDeque::new(),
        }
    }

    fn raw(&self) -> &RawSlab {
        &self.raw
    }

    fn raw_mut(&mut self) -> &mut RawSlab {
        &mut self.raw
    }

    fn into_raw(self) -> RawSlab {
        self.raw
    }

    fn list_kind(&self) -> ListKind {
        self.classify()
    }
}

/// Prudence's node-wide state beside the slab table, under the node lock.
#[derive(Debug, Default)]
pub struct LatentLists {
    /// Slabs with pending latent-slab objects, in the order their oldest
    /// stamp was queued. Lets reclamation merge completed objects back
    /// ("objects in the latent slab are merged with the slab", §4.1)
    /// without scanning every slab. May contain stale entries; consumers
    /// re-validate.
    pub(crate) pending: VecDeque<usize>,
    /// Grace-period stamp taken when the free list was first observed over
    /// the shrink threshold, or `None` while it is within bounds. Shrink
    /// hysteresis: excess free slabs are only released once this stamp's
    /// grace period completes, so slabs emptied by a reclamation burst get
    /// one grace period to be re-demanded before the page allocator sees
    /// them.
    pub(crate) shrink_excess_since: Option<GpState>,
}

/// The node of a Prudence cache.
pub(crate) type Node = pbs_alloc_api::frame::Node<PrudentSlab>;

/// Merges grace-period-complete latent-slab objects back into their
/// slabs' free lists, draining the pending queue front while stamps are
/// complete. Returns the number of objects reclaimed and relists every
/// touched slab.
pub(crate) fn reclaim_pending(node: &mut Node, epoch: u64) -> usize {
    let mut reclaimed = 0;
    while let Some(&index) = node.ext.pending.front() {
        let Some(slab) = node.slabs.get_mut(index).and_then(|s| s.as_mut()) else {
            node.ext.pending.pop_front();
            continue;
        };
        match slab.deferred.front() {
            None => {
                node.ext.pending.pop_front();
            }
            Some(&(_, gp)) if gp.is_completed_at(epoch) => {
                reclaimed += slab.reclaim_completed(epoch);
                node.ext.pending.pop_front();
                if !node.slab(index).deferred.is_empty() {
                    // Newer stamps remain; queue again behind peers.
                    node.ext.pending.push_back(index);
                }
                node.relist(index);
            }
            Some(_) => break, // front stamp still inside its grace period
        }
    }
    reclaimed
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbs_alloc_api::FrameSlab;
    use pbs_alloc_api::SizingPolicy;
    use pbs_mem::PageAllocator;
    use pbs_rcu::Rcu;

    fn mk_slab(policy: &SizingPolicy, pages: &PageAllocator, index: usize) -> PrudentSlab {
        let block = pages
            .allocate_aligned(policy.slab_bytes, policy.slab_bytes)
            .unwrap();
        PrudentSlab::from_raw(RawSlab::new(block, policy, index, 0))
    }

    #[test]
    fn classify_transitions() {
        let policy = SizingPolicy::for_object_size(512);
        let pages = PageAllocator::new();
        let rcu = Rcu::new();
        let mut node = Node::default();
        let i = node.insert_with(|index| mk_slab(&policy, &pages, index));
        assert_eq!(node.lists.kind_of(i), Some(ListKind::Free));

        let mut objs = Vec::new();
        node.slab_mut(i).raw.take(policy.objects_per_slab, &mut objs);
        assert!(node.relist(i));
        assert_eq!(node.lists.kind_of(i), Some(ListKind::Full));

        // Defer one object: with nothing to hand out the slab stays full;
        // the pending queue, not the partial list, brings it back.
        let slab = node.slab_mut(i);
        let idx = slab.raw.index_of(objs[0]);
        slab.deferred.push_back((idx, rcu.gp_state()));
        node.ext.pending.push_back(i);
        assert!(!node.relist(i));
        assert_eq!(node.lists.kind_of(i), Some(ListKind::Full));

        // Its grace period ends: the object merges back → Partial.
        rcu.synchronize();
        assert_eq!(reclaim_pending(&mut node, rcu.current_epoch()), 1);
        assert_eq!(node.lists.kind_of(i), Some(ListKind::Partial));

        // Refill it, then defer everything: all allocated objects are
        // deferred → Free, though no object is free yet.
        node.slab_mut(i).raw.take(1, &mut objs);
        assert!(node.relist(i));
        let slab = node.slab_mut(i);
        for &o in &objs[1..] {
            slab.deferred
                .push_back((slab.raw.index_of(o), rcu.gp_state()));
        }
        node.ext.pending.push_back(i);
        assert!(node.relist(i));
        assert_eq!(node.lists.kind_of(i), Some(ListKind::Free));
        assert!(!node.slab(i).releasable(), "pages must wait for the grace period");

        rcu.synchronize();
        let n = reclaim_pending(&mut node, rcu.current_epoch());
        assert_eq!(n, policy.objects_per_slab);
        assert!(node.slab(i).releasable());
        pages.free_pages(node.remove(i).raw.into_block());
    }

    #[test]
    fn reclaim_stops_at_incomplete_stamp() {
        let policy = SizingPolicy::for_object_size(512);
        let pages = PageAllocator::new();
        let rcu = Rcu::new();
        let mut slab = mk_slab(&policy, &pages, 0);
        let mut objs = Vec::new();
        slab.raw.take(2, &mut objs);
        let early = rcu.gp_state();
        slab.deferred.push_back((slab.raw.index_of(objs[0]), early));
        rcu.synchronize();
        let late = rcu.gp_state();
        slab.deferred.push_back((slab.raw.index_of(objs[1]), late));
        // Only the first stamp is complete.
        assert_eq!(slab.reclaim_completed(early.raw_epoch() + 2), 1);
        assert_eq!(slab.deferred.len(), 1);
        rcu.synchronize();
        assert_eq!(slab.reclaim_completed(rcu.current_epoch()), 1);
        pages.free_pages(slab.raw.into_block());
    }
}
