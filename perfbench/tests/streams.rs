//! The generated operation streams depend on the seed and nothing else.

use std::sync::Arc;

use perfbench::churn::ChurnGen;
use perfbench::kv::{owner, KvGen, KvOp, KEYS, THETA};
use perfbench::postmark::PmGen;
use perfbench::rng::Zipf;

const OPS: usize = 10_000;

fn churn(seed: u64, tid: usize) -> Vec<perfbench::churn::ChurnOp> {
    let mut g = ChurnGen::new(seed, tid);
    (0..OPS).map(|_| g.next_op()).collect()
}

fn kv(seed: u64, tid: usize, zipf: &Arc<Zipf>) -> Vec<KvOp> {
    let mut g = KvGen::new(seed, tid, Arc::clone(zipf));
    (0..OPS).map(|_| g.next_op()).collect()
}

fn postmark(seed: u64, tid: usize) -> Vec<perfbench::postmark::PmOp> {
    let mut g = PmGen::new(seed, tid);
    (0..OPS).map(|_| g.next_op()).collect()
}

#[test]
fn same_seed_same_stream_other_seed_other_stream() {
    let zipf = Arc::new(Zipf::new(KEYS, THETA));
    for tid in 0..2 {
        assert_eq!(churn(7, tid), churn(7, tid));
        assert_ne!(churn(7, tid), churn(8, tid));
        assert_eq!(kv(7, tid, &zipf), kv(7, tid, &zipf));
        assert_ne!(kv(7, tid, &zipf), kv(8, tid, &zipf));
        assert_eq!(postmark(7, tid), postmark(7, tid));
        assert_ne!(postmark(7, tid), postmark(8, tid));
    }
    // Clients of one run get different streams.
    assert_ne!(churn(7, 0), churn(7, 1));
    assert_ne!(postmark(7, 0), postmark(7, 1));
}

#[test]
fn kv_writes_come_only_from_the_owner() {
    let zipf = Arc::new(Zipf::new(KEYS, THETA));
    for tid in 0..2 {
        let ops = kv(3, tid, &zipf);
        let writes = ops
            .iter()
            .filter_map(|op| match op {
                KvOp::Insert(k) => Some(*k),
                KvOp::Get(_) => None,
            })
            .collect::<Vec<_>>();
        assert!(writes.len() > OPS / 10, "about a fifth of the ops write");
        assert!(writes.iter().all(|&k| k < KEYS && owner(k) == tid as u64));
    }
}
