//! `postmark`: Postmark's four-way transaction mix on `SimFs`.
//!
//! Reads and appends open, transfer and close a file; creates and
//! unlinks change the file set. The mix touches five caches (inode,
//! dentry, filp, selinux and the transient I/O buffers) with about a
//! quarter of all frees deferred, and is the only workload that measures
//! `pbs-simfs`.

use std::sync::{Arc, Mutex};

use pbs_alloc_api::{CacheFactory, ObjectAllocator};
use pbs_rcu::reclaim::ReclaimBackend;
use pbs_rcu::{RcuConfig, RcuThread};
use pbs_simfs::{FsError, Ino, SimFs};
use pbs_workloads::Testbed;

use crate::driver::{testbed, OpClass, Outcome, Workload};
use crate::rng::Rng;
use crate::trace::{Site, Tracer};

/// Files each client creates before the run.
pub const POOL: u32 = 1000;
/// Creates and unlinks keep each pool within these bounds.
const POOL_MIN: u32 = POOL * 4 / 5;
const POOL_MAX: u32 = POOL * 6 / 5;

/// One generated transaction. `pick` selects a file of the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PmOp {
    Read { pick: u64, bytes: usize },
    Append { pick: u64, bytes: usize },
    Create,
    Unlink { pick: u64 },
}

/// A client's transaction stream.
#[derive(Debug, Clone)]
pub struct PmGen {
    rng: Rng,
    /// The pool size the stream has produced so far.
    pool: u32,
}

impl PmGen {
    pub fn new(seed: u64, tid: usize) -> Self {
        Self {
            rng: Rng::new(seed, 0x9A + tid as u64),
            pool: POOL,
        }
    }

    pub fn next_op(&mut self) -> PmOp {
        let rng = &mut self.rng;
        match rng.below(4) {
            0 => PmOp::Read {
                pick: rng.next_u64(),
                bytes: rng.range(512, 8191) as usize,
            },
            1 => PmOp::Append {
                pick: rng.next_u64(),
                bytes: rng.range(512, 4095) as usize,
            },
            k => {
                let create = if self.pool <= POOL_MIN {
                    true
                } else if self.pool >= POOL_MAX {
                    false
                } else {
                    k == 2
                };
                if create {
                    self.pool += 1;
                    PmOp::Create
                } else {
                    self.pool -= 1;
                    PmOp::Unlink {
                        pick: rng.next_u64(),
                    }
                }
            }
        }
    }
}

/// Hands caches to `SimFs` and keeps a handle to each for stats and the
/// teardown checks.
struct Recording<'a> {
    inner: &'a dyn CacheFactory,
    created: Mutex<Vec<Arc<dyn ObjectAllocator>>>,
}

impl CacheFactory for Recording<'_> {
    fn create_cache(&self, name: &str, object_size: usize) -> Arc<dyn ObjectAllocator> {
        let cache = self.inner.create_cache(name, object_size);
        self.created
            .lock()
            .expect("cache list lock poisoned")
            .push(Arc::clone(&cache));
        cache
    }

    fn label(&self) -> &str {
        self.inner.label()
    }
}

/// The workload: one `SimFs` on a bursty-RCU epoch testbed.
pub struct Postmark {
    // Declared first so the filesystem drops before the testbed.
    fs: SimFs,
    caches: Vec<Arc<dyn ObjectAllocator>>,
    bed: Testbed,
    seed: u64,
}

/// Per-client state: its directory and the model of its files.
pub struct PmClient {
    reader: RcuThread,
    gen: PmGen,
    dir: u64,
    files: Vec<(u64, Ino)>,
    next_name: u64,
}

impl PmClient {
    fn lookup<T: Tracer>(&self, fs: &SimFs, name: u64, t: &mut T) -> Option<Ino> {
        let guard = t.call(Site::ReadLock, || self.reader.read_lock());
        let ino = t.call(Site::Lookup, || fs.lookup(&guard, self.dir, name));
        t.call(Site::Unpin, move || drop(guard));
        ino
    }

    /// Opens a pool file, runs `io` on it and closes it.
    fn transfer<T: Tracer>(
        &self,
        fs: &SimFs,
        pick: u64,
        site: Site,
        io: impl FnOnce(pbs_simfs::Fd) -> Result<(), FsError>,
        t: &mut T,
    ) -> bool {
        let (name, ino) = self.files[(pick % self.files.len() as u64) as usize];
        let found = self.lookup(fs, name, t);
        assert_eq!(
            found,
            Some(ino),
            "postmark: lookup of file {name} in dir {}",
            self.dir
        );
        let fd = match t.call(Site::Open, || fs.open(ino)) {
            Ok(fd) => fd,
            Err(FsError::NoMemory) => {
                t.fail(Site::Open);
                return false;
            }
            Err(e) => panic!("postmark: open of file {name}: {e}"),
        };
        let ok = match t.call(site, || io(fd)) {
            Ok(()) => true,
            Err(FsError::NoMemory) => {
                t.fail(site);
                false
            }
            Err(e) => panic!("postmark: transfer on file {name}: {e}"),
        };
        t.call(Site::Close, || fs.close(fd))
            .expect("postmark: close of an open fd");
        ok
    }
}

impl Workload for Postmark {
    type Op = PmOp;
    type Client = PmClient;
    type Model = (u64, Vec<(u64, Ino)>);

    const BACKEND: ReclaimBackend = ReclaimBackend::Epoch;
    // The preset `run_postmark` uses.
    const RCU: (&'static str, fn() -> RcuConfig) = ("kernel_bursty", RcuConfig::kernel_bursty);
    // The run peaks near 15 MiB.
    const PAGE_LIMIT: usize = 64 << 20;
    const WARMUP_OPS: u64 = 20_000;

    fn build(seed: u64) -> Self {
        let bed = testbed::<Self>();
        let factory = Recording {
            inner: bed.factory(),
            created: Mutex::new(Vec::new()),
        };
        let fs = SimFs::new(&factory);
        let caches = factory
            .created
            .into_inner()
            .expect("cache list lock poisoned");
        Self {
            fs,
            caches,
            bed,
            seed,
        }
    }

    fn client(&self, tid: usize) -> PmClient {
        let dir = tid as u64;
        let files = (0..u64::from(POOL))
            .map(|name| {
                let ino = self.fs.create(dir, name).expect("postmark pool create");
                (name, ino)
            })
            .collect();
        PmClient {
            reader: self.bed.rcu().register(),
            gen: PmGen::new(self.seed, tid),
            dir,
            files,
            next_name: u64::from(POOL),
        }
    }

    fn next_op(&self, c: &mut PmClient) -> PmOp {
        c.gen.next_op()
    }

    fn exec<T: Tracer>(&self, c: &mut PmClient, op: PmOp, t: &mut T) -> Outcome {
        let fs = &self.fs;
        let (class, ok) = match op {
            PmOp::Read { pick, bytes } => (
                OpClass::Read,
                c.transfer(fs, pick, Site::Read, |fd| fs.read(fd, bytes), t),
            ),
            PmOp::Append { pick, bytes } => (
                OpClass::Read,
                c.transfer(fs, pick, Site::Append, |fd| fs.append(fd, bytes), t),
            ),
            PmOp::Create => {
                let name = c.next_name;
                c.next_name += 1;
                let ok = match t.call(Site::Create, || fs.create(c.dir, name)) {
                    Ok(ino) => {
                        c.files.push((name, ino));
                        true
                    }
                    Err(FsError::NoMemory) => {
                        t.fail(Site::Create);
                        // A create can fail after linking the name; keep
                        // the model in step with what the lookup sees.
                        if let Some(ino) = c.lookup(fs, name, t) {
                            c.files.push((name, ino));
                        }
                        false
                    }
                    Err(e) => panic!("postmark: create of file {name}: {e}"),
                };
                (OpClass::Write, ok)
            }
            PmOp::Unlink { pick } => {
                let at = (pick % c.files.len() as u64) as usize;
                let (name, _) = c.files.swap_remove(at);
                t.call(Site::Unlink, || fs.unlink(c.dir, name))
                    .unwrap_or_else(|e| panic!("postmark: unlink of file {name}: {e}"));
                (OpClass::Write, true)
            }
        };
        Outcome { class, ok }
    }

    fn finish(&self, c: PmClient) -> (u64, Vec<(u64, Ino)>) {
        (c.dir, c.files)
    }

    fn verify(&self, models: Vec<(u64, Vec<(u64, Ino)>)>) {
        let reader = self.bed.rcu().register();
        let guard = reader.read_lock();
        let mut total = 0;
        for (dir, files) in &models {
            for &(name, ino) in files {
                let found = self.fs.lookup(&guard, *dir, name);
                assert_eq!(
                    found,
                    Some(ino),
                    "postmark: final lookup of file {name} in dir {dir}"
                );
            }
            total += files.len();
        }
        assert_eq!(
            self.fs.file_count(),
            total,
            "postmark: file count differs from the model"
        );
    }

    fn bed(&self) -> &Testbed {
        &self.bed
    }

    fn caches(&self) -> Vec<Arc<dyn ObjectAllocator>> {
        self.caches.clone()
    }

    fn into_bed(self) -> Testbed {
        self.bed
    }
}
