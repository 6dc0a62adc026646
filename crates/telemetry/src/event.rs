//! Trace-event vocabulary and the decoded record form.

use serde::{Deserialize, Serialize};

/// Number of event kinds; sizes the per-lane kind-count arrays.
pub const KIND_COUNT: usize = 25;

/// What happened. The discriminant is the on-ring wire value, so new kinds
/// must only ever be appended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum EventKind {
    /// A `synchronize()` call observed its start grace-period state
    /// (`a` = raw epoch at entry).
    GpBegin = 0,
    /// The global epoch advanced using the membarrier-elided read path
    /// (`a` = new raw epoch).
    GpAdvanceMembarrier = 1,
    /// The global epoch advanced on the portable fence fallback path
    /// (`a` = new raw epoch).
    GpAdvanceFence = 2,
    /// A `synchronize()` call completed (`a` = wait nanoseconds,
    /// `b` = raw epoch at completion).
    GpComplete = 3,
    /// An object was stamped into a per-CPU latent cache
    /// (`a` = raw epoch stamp, `b` = latent length after the stamp).
    LatentStamp = 4,
    /// Grace-period-complete latent objects merged into the object cache
    /// (`a` = objects merged, `b` = raw epoch observed).
    LatentMerge = 5,
    /// The idle-time pre-flush worker drained a latent cache
    /// (`a` = objects moved to slabs).
    LatentPreflush = 6,
    /// A latent/object-cache overflow flushed objects to the slab layer
    /// (`a` = objects flushed).
    LatentFlush = 7,
    /// Deferred-object hints pre-moved a slab between lists before its
    /// grace period completed (`a` = slab index).
    SlabPremove = 8,
    /// A slab was allocated from the page allocator (`a` = slabs now
    /// live).
    SlabGrow = 9,
    /// A slab was returned to the page allocator (`a` = slabs now live).
    SlabShrink = 10,
    /// An allocation stalled waiting for deferred memory under OOM
    /// pressure (`a` = raw epoch observed at the stall).
    OomDefer = 11,
    /// A `free_deferred` entered the reclamation pipeline
    /// (`a` = raw epoch stamp).
    DeferredFree = 12,
    /// A deferred object became reusable (`a` = defer→reusable delay in
    /// nanoseconds, when known).
    DeferredReusable = 13,
    /// The stall watchdog observed a reader pinned past the threshold
    /// (`a` = stall duration in nanoseconds so far, `b` = offending
    /// thread-record id).
    StallWarn = 14,
    /// A previously-warned stalled reader unpinned (`a` = total stall
    /// duration in nanoseconds, `b` = thread-record id).
    StallClear = 15,
    /// An expedited grace-period drive started (`a` = raw epoch at
    /// entry).
    GpExpedite = 16,
    /// The deferred-backlog pressure level changed (`a` = new level:
    /// 0 = nominal, 1 = soft, 2 = hard; `b` = deferred objects
    /// outstanding at the transition).
    PressureChange = 17,
    /// An OOM recovery-ladder rung ran (`a` = stage: 1 = local flush,
    /// 2 = expedited GP + merge, 3 = backoff retry; `b` = 1 if the
    /// retried allocation then succeeded).
    OomRecovery = 18,
    /// The per-CPU object stacks selected their engine at cache
    /// construction (`a` = engine: 1 = rseq, 2 = slot-lock emulation;
    /// `b` = per-CPU stack capacity in objects).
    FastpathEngine = 19,
    /// Every per-CPU stack was drained back to the slabs (`a` = objects
    /// drained, `b` = 0).
    FastpathDrain = 20,
    /// A hazard-pointer retire-list scan ran (`a` = objects reclaimed,
    /// `b` = objects kept because a hazard protected them).
    HpScan = 21,
    /// A Hyaline-style batch was sealed with its reader reference set
    /// (`a` = objects in the batch, `b` = reader references captured).
    BatchSeal = 22,
    /// A stalled reader was ejected so the batches it blocked could be
    /// released (`a` = offending thread-record id, `b` = the pin
    /// sequence being revoked).
    ReaderEject = 23,
    /// The stall watchdog attributed a stall to a culprit reader: one
    /// record per stall episode, emitted alongside the first
    /// [`StallWarn`](Self::StallWarn) (`a` = offending thread-record id,
    /// `b` = the culprit's pin sequence).
    StallBlame = 24,
}

impl EventKind {
    /// Every kind, in wire order.
    pub const ALL: [EventKind; KIND_COUNT] = [
        EventKind::GpBegin,
        EventKind::GpAdvanceMembarrier,
        EventKind::GpAdvanceFence,
        EventKind::GpComplete,
        EventKind::LatentStamp,
        EventKind::LatentMerge,
        EventKind::LatentPreflush,
        EventKind::LatentFlush,
        EventKind::SlabPremove,
        EventKind::SlabGrow,
        EventKind::SlabShrink,
        EventKind::OomDefer,
        EventKind::DeferredFree,
        EventKind::DeferredReusable,
        EventKind::StallWarn,
        EventKind::StallClear,
        EventKind::GpExpedite,
        EventKind::PressureChange,
        EventKind::OomRecovery,
        EventKind::FastpathEngine,
        EventKind::FastpathDrain,
        EventKind::HpScan,
        EventKind::BatchSeal,
        EventKind::ReaderEject,
        EventKind::StallBlame,
    ];

    /// Stable snake_case name used in exports and kind-count tables.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::GpBegin => "gp_begin",
            EventKind::GpAdvanceMembarrier => "gp_advance_membarrier",
            EventKind::GpAdvanceFence => "gp_advance_fence",
            EventKind::GpComplete => "gp_complete",
            EventKind::LatentStamp => "latent_stamp",
            EventKind::LatentMerge => "latent_merge",
            EventKind::LatentPreflush => "latent_preflush",
            EventKind::LatentFlush => "latent_flush",
            EventKind::SlabPremove => "slab_premove",
            EventKind::SlabGrow => "slab_grow",
            EventKind::SlabShrink => "slab_shrink",
            EventKind::OomDefer => "oom_defer",
            EventKind::DeferredFree => "deferred_free",
            EventKind::DeferredReusable => "deferred_reusable",
            EventKind::StallWarn => "stall_warn",
            EventKind::StallClear => "stall_clear",
            EventKind::GpExpedite => "gp_expedite",
            EventKind::PressureChange => "pressure_change",
            EventKind::OomRecovery => "oom_recovery",
            EventKind::FastpathEngine => "fastpath_engine",
            EventKind::FastpathDrain => "fastpath_drain",
            EventKind::HpScan => "hp_scan",
            EventKind::BatchSeal => "batch_seal",
            EventKind::ReaderEject => "reader_eject",
            EventKind::StallBlame => "stall_blame",
        }
    }

    /// Decodes a wire value; `None` for out-of-range (torn) values.
    pub fn from_u16(v: u16) -> Option<EventKind> {
        EventKind::ALL.get(v as usize).copied()
    }
}

/// One decoded, checksum-validated trace record.
///
/// The `a`/`b` payload meaning depends on [`kind`](Self::kind); see
/// [`EventKind`]. Kept as plain integers so the struct round-trips through
/// the vendored serde shim.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventSnapshot {
    /// Per-lane sequence number (records overwritten by drop-oldest leave
    /// gaps).
    pub seq: u64,
    /// Process-relative timestamp from [`now_nanos`](crate::now_nanos).
    pub t_ns: u64,
    /// Wire value of the [`EventKind`].
    pub kind: u16,
    /// Ring lane (per-CPU shard index for cache rings).
    pub lane: u16,
    /// Source id: the emitting component (cache id, 0 for the RCU
    /// domain).
    pub src: u32,
    /// First payload word.
    pub a: u64,
    /// Second payload word.
    pub b: u64,
}

impl EventSnapshot {
    /// The decoded kind (always valid for snapshot-produced records).
    pub fn event_kind(&self) -> EventKind {
        EventKind::from_u16(self.kind).expect("snapshot validated kind")
    }

    /// Stable name of the kind.
    pub fn kind_name(&self) -> &'static str {
        self.event_kind().name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_values_round_trip() {
        for (i, kind) in EventKind::ALL.iter().enumerate() {
            assert_eq!(*kind as usize, i);
            assert_eq!(EventKind::from_u16(i as u16), Some(*kind));
        }
        assert_eq!(EventKind::from_u16(KIND_COUNT as u16), None);
    }

    #[test]
    fn names_are_unique() {
        for a in EventKind::ALL {
            for b in EventKind::ALL {
                if a != b {
                    assert_ne!(a.name(), b.name());
                }
            }
        }
    }
}
