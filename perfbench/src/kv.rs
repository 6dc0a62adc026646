//! `kv-update` and `kv-update-hp`: a Zipf-skewed read-mostly key-value
//! store on `RcuHashMap`, the paper's deferred-free pattern (Fig 3/6)
//! with readers beside the writers.
//!
//! Both workloads run the same generated stream; they differ only in the
//! reclamation backend, so the hp run measures `pbs_rcu::reclaim::hp`
//! (per-hop publish and revalidate, retire scans) against the epoch run.

use std::sync::Arc;

use pbs_alloc_api::ObjectAllocator;
use pbs_rcu::reclaim::ReclaimBackend;
use pbs_rcu::{RcuConfig, RcuThread};
use pbs_structs::RcuHashMap;
use pbs_workloads::Testbed;

use crate::driver::{testbed, OpClass, Outcome, Workload, CLIENTS};
use crate::rng::{mix64, Rng, Zipf};
use crate::trace::{Site, Tracer};

/// Keys in the map, all present from prefill on.
pub const KEYS: u64 = 1 << 16;
/// Buckets: about four nodes per chain.
pub const BUCKETS: usize = 1 << 14;
/// Zipf skew of key popularity.
pub const THETA: f64 = 0.99;
/// Share of operations that replace a value.
const WRITE_PERCENT: u64 = 20;
/// Node size class: key, value and link fit in 64 bytes.
const NODE_SIZE: usize = 64;

/// A stored value: which key it belongs to, who wrote it, the writer's
/// sequence number for that key, and a checksum over the three.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Val {
    pub key: u64,
    pub writer: u64,
    pub seq: u64,
    pub sum: u64,
}

impl Val {
    fn new(key: u64, seq: u64) -> Self {
        let writer = owner(key);
        Self {
            key,
            writer,
            seq,
            sum: checksum(key, writer, seq),
        }
    }

    fn verifies(&self, key: u64) -> bool {
        self.key == key
            && self.writer == owner(key)
            && self.sum == checksum(self.key, self.writer, self.seq)
    }
}

fn checksum(key: u64, writer: u64, seq: u64) -> u64 {
    mix64(key ^ mix64(writer ^ mix64(seq)))
}

/// The only client that writes `key`.
pub fn owner(key: u64) -> u64 {
    key % CLIENTS as u64
}

/// One generated operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvOp {
    Get(u64),
    Insert(u64),
}

/// A client's operation stream: Zipf ranks mapped to keys through a
/// fixed bijection, writes redirected to a key the client owns. The seed
/// draws the ranks; which keys are hot is the same for every seed, so
/// seeds differ in order, not in the shape of the load.
#[derive(Debug, Clone)]
pub struct KvGen {
    rng: Rng,
    zipf: Arc<Zipf>,
    tid: u64,
}

impl KvGen {
    pub fn new(seed: u64, tid: usize, zipf: Arc<Zipf>) -> Self {
        Self {
            rng: Rng::new(seed, 0x4B + tid as u64),
            zipf,
            tid: tid as u64,
        }
    }

    pub fn next_op(&mut self) -> KvOp {
        let rank = self.zipf.sample(&mut self.rng);
        // An odd multiplier is a bijection modulo the power-of-two key
        // count, so hot ranks spread over the buckets.
        let key = rank.wrapping_mul(0x9E37) % KEYS;
        if self.rng.percent(WRITE_PERCENT) {
            KvOp::Insert(key - owner(key) + self.tid)
        } else {
            KvOp::Get(key)
        }
    }
}

/// The workload, parameterised by reclamation backend.
pub struct KvUpdate<const HP: bool> {
    // Declared first so the map drops before the testbed.
    map: RcuHashMap<u64, Val>,
    cache: Arc<dyn ObjectAllocator>,
    bed: Testbed,
    zipf: Arc<Zipf>,
    seed: u64,
}

/// Per-client state: its reader registration, stream and the sequence
/// number of each key it owns.
pub struct KvClient {
    tid: usize,
    reader: RcuThread,
    gen: KvGen,
    seqs: Vec<u64>,
}

impl KvClient {
    fn slot(key: u64) -> usize {
        (key / CLIENTS as u64) as usize
    }
}

impl<const HP: bool> Workload for KvUpdate<HP> {
    type Op = KvOp;
    type Client = KvClient;
    type Model = (usize, Vec<u64>);

    const BACKEND: ReclaimBackend = if HP {
        ReclaimBackend::Hp
    } else {
        ReclaimBackend::Epoch
    };
    const RCU: (&'static str, fn() -> RcuConfig) = ("linux_like", RcuConfig::linux_like);
    // Epoch peaks near 70 MiB, hp near 4 MiB.
    const PAGE_LIMIT: usize = 256 << 20;
    const WARMUP_OPS: u64 = 200_000;

    fn build(seed: u64) -> Self {
        let bed = testbed::<Self>();
        let cache = bed.create_cache("kv-nodes", NODE_SIZE);
        let map = RcuHashMap::new(Arc::clone(&cache), BUCKETS);
        for key in 0..KEYS {
            let replaced = map
                .insert(key, Val::new(key, 0))
                .expect("kv prefill allocation");
            assert!(!replaced, "kv prefill: key {key} inserted twice");
        }
        Self {
            map,
            cache,
            bed,
            zipf: Arc::new(Zipf::new(KEYS, THETA)),
            seed,
        }
    }

    fn client(&self, tid: usize) -> KvClient {
        KvClient {
            tid,
            reader: self.bed.rcu().register(),
            gen: KvGen::new(self.seed, tid, Arc::clone(&self.zipf)),
            seqs: vec![0; (KEYS / CLIENTS as u64) as usize],
        }
    }

    fn next_op(&self, c: &mut KvClient) -> KvOp {
        c.gen.next_op()
    }

    fn exec<T: Tracer>(&self, c: &mut KvClient, op: KvOp, t: &mut T) -> Outcome {
        match op {
            KvOp::Get(key) => {
                let guard = t.call(Site::ReadLock, || c.reader.read_lock());
                let got = t.call(Site::Get, || self.map.get(&guard, &key));
                t.call(Site::Unpin, move || drop(guard));
                let val = got.unwrap_or_else(|| panic!("kv: key {key} missing"));
                assert!(
                    val.verifies(key),
                    "kv: get({key}) returned a bad value {val:?}"
                );
                if owner(key) == c.tid as u64 {
                    let want = c.seqs[KvClient::slot(key)];
                    assert_eq!(val.seq, want, "kv: get({key}) missed the owner's own write");
                }
                Outcome {
                    class: OpClass::Read,
                    ok: true,
                }
            }
            KvOp::Insert(key) => {
                let slot = KvClient::slot(key);
                let val = Val::new(key, c.seqs[slot] + 1);
                let ok = match t.call(Site::Insert, || self.map.insert(key, val)) {
                    Ok(replaced) => {
                        assert!(replaced, "kv: insert({key}) found the key missing");
                        c.seqs[slot] = val.seq;
                        true
                    }
                    Err(_) => false,
                };
                Outcome {
                    class: OpClass::Write,
                    ok,
                }
            }
        }
    }

    fn finish(&self, c: KvClient) -> (usize, Vec<u64>) {
        (c.tid, c.seqs)
    }

    fn verify(&self, models: Vec<(usize, Vec<u64>)>) {
        let mut seqs = vec![Vec::new(); CLIENTS];
        for (tid, s) in models {
            seqs[tid] = s;
        }
        assert_eq!(self.map.len() as u64, KEYS, "kv: map size changed");
        let reader = self.bed.rcu().register();
        let guard = reader.read_lock();
        for key in 0..KEYS {
            let val = self.map.get(&guard, &key);
            let want = Val::new(key, seqs[owner(key) as usize][KvClient::slot(key)]);
            assert_eq!(val, Some(want), "kv: final value of key {key}");
        }
    }

    fn bed(&self) -> &Testbed {
        &self.bed
    }

    fn caches(&self) -> Vec<Arc<dyn ObjectAllocator>> {
        vec![Arc::clone(&self.cache)]
    }

    fn into_bed(self) -> Testbed {
        self.bed
    }
}
