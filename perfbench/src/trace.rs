//! Timing of the calls a client makes into the program's public API.
//!
//! Workloads issue every call through a [`Tracer`]. The untraced run uses
//! [`NoTrace`], which compiles to the bare call; the traced run uses
//! [`Trace`], which times each call into a per-site histogram and keeps
//! spans of a sample of operations in memory until the run ends.

use std::io::{self, Write};
use std::sync::Arc;
use std::time::Instant;

use pbs_rcu::{GpState, Rcu};

use crate::hist::LogHist;

/// A public entry point of the program that a workload calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    Allocate,
    Free,
    FreeDeferred,
    ReadLock,
    Unpin,
    Get,
    Insert,
    Create,
    Lookup,
    Open,
    Read,
    Append,
    Close,
    Unlink,
}

impl Site {
    /// Every site, in report order.
    pub const ALL: [Site; 14] = [
        Site::Allocate,
        Site::Free,
        Site::FreeDeferred,
        Site::ReadLock,
        Site::Unpin,
        Site::Get,
        Site::Insert,
        Site::Create,
        Site::Lookup,
        Site::Open,
        Site::Read,
        Site::Append,
        Site::Close,
        Site::Unlink,
    ];

    /// Metric prefix: `<crate>.<call>`.
    pub fn metric(self) -> &'static str {
        match self {
            Site::Allocate => "alloc_api.allocate",
            Site::Free => "alloc_api.free",
            Site::FreeDeferred => "alloc_api.free_deferred",
            Site::ReadLock => "rcu.read_lock",
            Site::Unpin => "rcu.unpin",
            Site::Get => "structs.get",
            Site::Insert => "structs.insert",
            Site::Create => "simfs.create",
            Site::Lookup => "simfs.lookup",
            Site::Open => "simfs.open",
            Site::Read => "simfs.read",
            Site::Append => "simfs.append",
            Site::Close => "simfs.close",
            Site::Unlink => "simfs.unlink",
        }
    }

    /// Calls that hand an object to deferred reclamation.
    fn defers(self) -> bool {
        matches!(
            self,
            Site::FreeDeferred | Site::Insert | Site::Unlink | Site::Close
        )
    }
}

/// How a workload issues calls into the program.
pub trait Tracer {
    /// Starts operation `op_id` of this client.
    fn begin_op(&mut self, _op_id: u64) {}
    /// Ends the operation started last.
    fn end_op(&mut self) {}
    /// Makes one call into the program at `site`.
    fn call<R>(&mut self, site: Site, f: impl FnOnce() -> R) -> R;
    /// Counts a call at `site` that returned an error.
    fn fail(&mut self, _site: Site) {}
}

/// The untraced run: calls go straight through.
#[derive(Debug, Default)]
pub struct NoTrace;

impl Tracer for NoTrace {
    #[inline(always)]
    fn call<R>(&mut self, _site: Site, f: impl FnOnce() -> R) -> R {
        f()
    }
}

/// What the traced run keeps per site.
#[derive(Debug, Default, Clone)]
pub struct SiteStats {
    pub hist: LogHist,
    pub busy_ns: u64,
    pub failed: u64,
}

/// One recorded span. The root span of an operation has index 0 and is
/// named `op`; each call is a child of it.
#[derive(Debug, Clone, Copy)]
struct Span {
    op_id: u64,
    index: u16,
    site: Option<Site>,
    start: u64,
    end: u64,
}

/// Spans are kept for one operation in this many.
const SPAN_SAMPLE: u64 = 64;
/// Span buffer capacity per client.
const SPAN_CAP: usize = 1 << 16;

/// The traced run's per-client recorder.
pub struct Trace {
    base: Instant,
    sites: Vec<SiteStats>,
    spans: Vec<Span>,
    op_id: u64,
    op_start: u64,
    next_index: u16,
    sampled: bool,
    /// Grace-period probe: the RCU domain, and the state taken at this
    /// client's oldest unfinished deferral with its timestamp.
    rcu: Option<Arc<Rcu>>,
    probe: Option<(GpState, u64)>,
    gp_wait: LogHist,
}

impl std::fmt::Debug for Trace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Trace")
            .field("spans", &self.spans.len())
            .finish()
    }
}

impl Trace {
    /// A recorder whose timestamps count from `base`. With `rcu`, the
    /// client keeps one grace-period probe outstanding after deferrals.
    pub fn new(base: Instant, rcu: Option<Arc<Rcu>>) -> Self {
        Self {
            base,
            sites: vec![SiteStats::default(); Site::ALL.len()],
            spans: Vec::with_capacity(SPAN_CAP + 256),
            op_id: 0,
            op_start: 0,
            next_index: 1,
            sampled: false,
            rcu,
            probe: None,
            gp_wait: LogHist::default(),
        }
    }

    #[inline]
    fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Per-site statistics, indexed like [`Site::ALL`].
    pub fn sites(&self) -> &[SiteStats] {
        &self.sites
    }

    /// Grace-period waits seen by this client.
    pub fn gp_wait(&self) -> &LogHist {
        &self.gp_wait
    }

    /// Number of spans kept.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Self time of the sampled `op` spans (duration minus the time their
    /// children cover) and their total duration, in ns.
    pub fn op_self_time(&self) -> (u64, u64) {
        let (mut children, mut total) = (0u64, 0u64);
        for s in &self.spans {
            match s.site {
                Some(_) => children += s.end - s.start,
                None => total += s.end - s.start,
            }
        }
        (total.saturating_sub(children), total)
    }

    /// Writes the spans as CSV rows (`tid,op_id,span,parent,name,start_ns,end_ns`).
    pub fn write_spans(&self, tid: usize, out: &mut impl Write) -> io::Result<()> {
        for s in &self.spans {
            let (name, parent) = match s.site {
                Some(site) => (site.metric(), "0"),
                None => ("op", ""),
            };
            writeln!(
                out,
                "{tid},{},{},{parent},{name},{},{}",
                s.op_id, s.index, s.start, s.end
            )?;
        }
        Ok(())
    }
}

impl Tracer for Trace {
    fn begin_op(&mut self, op_id: u64) {
        self.op_id = op_id;
        self.next_index = 1;
        self.sampled = op_id.is_multiple_of(SPAN_SAMPLE) && self.spans.len() < SPAN_CAP;
        self.op_start = self.now();
    }

    fn end_op(&mut self) {
        let end = self.now();
        if self.sampled {
            self.spans.push(Span {
                op_id: self.op_id,
                index: 0,
                site: None,
                start: self.op_start,
                end,
            });
        }
        if let (Some(rcu), Some((state, since))) = (&self.rcu, self.probe) {
            if state.is_completed_at(rcu.current_epoch()) {
                self.gp_wait.record(end - since);
                self.probe = None;
            }
        }
    }

    #[inline]
    fn call<R>(&mut self, site: Site, f: impl FnOnce() -> R) -> R {
        let start = self.now();
        let r = f();
        let end = self.now();
        let stats = &mut self.sites[site as usize];
        stats.hist.record(end - start);
        stats.busy_ns += end - start;
        // A sampled operation may overrun the cap by its own calls; the
        // buffer was reserved with room for that.
        if self.sampled {
            self.spans.push(Span {
                op_id: self.op_id,
                index: self.next_index,
                site: Some(site),
                start,
                end,
            });
            self.next_index += 1;
        }
        if site.defers() && self.probe.is_none() {
            if let Some(rcu) = &self.rcu {
                self.probe = Some((rcu.gp_state(), end));
            }
        }
        r
    }

    fn fail(&mut self, site: Site) {
        self.sites[site as usize].failed += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_discriminants_index_all() {
        // Per-site statistics are indexed by `site as usize` when recorded
        // and by position in `Site::ALL` when reported.
        for (i, site) in Site::ALL.iter().enumerate() {
            assert_eq!(*site as usize, i);
        }
    }
}
