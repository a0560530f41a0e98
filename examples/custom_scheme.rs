//! Implementing your own reclamation scheme against the public [`RawSmr`]
//! trait — and getting the paper's Amortized Free technique for free by
//! embedding [`SchemeCommon`]. The impl below is the trait's seven required
//! methods and nothing else: `common` hands the trait the embedded state
//! its provided methods (stats, name, allocator, object pool, the
//! amortized-free tick in `on_alloc`) are written over, and the defaulted
//! hooks stay defaulted — `local()` already declares an epoch scheme
//! passive, so `protect_load` compiles down to one Acquire load. Wrapping
//! the scheme in [`Smr::from_raw`] gives it the thread-bound
//! `SmrHandle`/`OpGuard` surface (registration guard included) with no
//! extra code.
//!
//! The scheme here is a deliberately minimal EBR ("MiniEbr"): one global
//! epoch, per-thread announcements, and the conservative lag-2 free rule
//! (objects retired under epoch tag `e` are freed once every thread has
//! announced an epoch ≥ `e + 2`; see `epic-smr`'s `epoch.rs` for the safety
//! argument). Everything batch-vs-amortized is delegated to
//! `SchemeCommon::dispose`, so flipping `FreeMode` turns this toy into
//! `miniebr_af` with no extra code.
//!
//! ```text
//! cargo run --release --example custom_scheme
//! ```

use epochs_too_epic::alloc::{build_allocator, AllocatorKind, CostModel, PoolAllocator, Tid};
use epochs_too_epic::ds::{build_tree, TreeKind};
use epochs_too_epic::smr::{FreeMode, RawSmr, RetiredList, SchemeCommon, Smr, SmrConfig, SmrKind};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A thread that is not in an operation announces this sentinel.
const QUIESCENT: u64 = u64::MAX;

/// One thread's limbo bags: (epoch tag, objects retired under that tag).
/// The per-tag lists are intrusive — retiring into them and splicing them
/// out never allocates; only the tag spine is a Vec.
type LimboBags = Mutex<Vec<(u64, RetiredList)>>;

struct MiniEbr {
    common: SchemeCommon,
    epoch: AtomicU64,
    announce: Box<[AtomicU64]>,
    /// Per-thread limbo bags of (epoch tag, objects). A Mutex keeps the
    /// example short; the real schemes use owner-indexed slots instead.
    bags: Box<[LimboBags]>,
}

impl MiniEbr {
    fn new(alloc: Arc<dyn PoolAllocator>, cfg: SmrConfig) -> Self {
        let n = cfg.max_threads;
        MiniEbr {
            epoch: AtomicU64::new(2), // start ≥ 2 so tag - 2 never underflows
            announce: (0..n).map(|_| AtomicU64::new(QUIESCENT)).collect(),
            bags: (0..n).map(|_| Mutex::new(Vec::new())).collect(),
            common: SchemeCommon::new("miniebr", alloc, cfg),
        }
    }

    /// The grace-period check: advance the epoch if everyone has caught
    /// up, then free every bag generation that is ≥ 2 epochs stale.
    fn try_reclaim(&self, tid: Tid) {
        let e = self.epoch.load(Ordering::SeqCst);
        let all_current = self
            .announce
            .iter()
            .all(|a| matches!(a.load(Ordering::SeqCst), v if v == QUIESCENT || v >= e));
        if !all_current {
            return;
        }
        let _ = self
            .epoch
            .compare_exchange(e, e + 1, Ordering::SeqCst, Ordering::SeqCst);
        self.common.stats.get(tid).on_scan();
        self.common.record_epoch_advance(tid, e + 1);
        let mut bag = self.bags[tid].lock().unwrap();
        let mut freeable = RetiredList::new();
        bag.retain_mut(|(tag, objs)| {
            // Safe once every thread announced ≥ tag + 2 (epoch is only
            // e + 1 now, so require tag ≤ e - 1... conservatively e - 2).
            if *tag + 2 <= e {
                freeable.append(objs);
                false
            } else {
                true
            }
        });
        drop(bag);
        // Batch vs amortized vs pooled — entirely SchemeCommon's business.
        self.common.dispose(tid, &mut freeable);
    }
}

impl RawSmr for MiniEbr {
    fn common(&self) -> &SchemeCommon {
        &self.common
    }

    fn kind(&self) -> SmrKind {
        SmrKind::Rcu // closest built-in family, for reporting purposes
    }

    fn begin_op(&self, tid: Tid) {
        self.common.relief(tid);
        let e = self.epoch.load(Ordering::SeqCst);
        self.announce[tid].store(e, Ordering::SeqCst);
    }

    fn end_op(&self, tid: Tid) {
        self.announce[tid].store(QUIESCENT, Ordering::SeqCst);
    }

    fn retire(&self, tid: Tid, ptr: NonNull<u8>) {
        self.common.stats.get(tid).on_retire(1);
        let tag = self.epoch.load(Ordering::SeqCst);
        let mut bag = self.bags[tid].lock().unwrap();
        let objs = match bag.last_mut() {
            Some((t, objs)) if *t == tag => objs,
            _ => {
                bag.push((tag, RetiredList::new()));
                &mut bag.last_mut().expect("just pushed").1
            }
        };
        // SAFETY: `ptr` is a live block of this scheme's allocator (retire
        // contract), exclusively ours from unlink to free.
        unsafe { objs.push(ptr) };
        let total: usize = bag.iter().map(|(_, o)| o.len()).sum();
        drop(bag);
        if total >= self.common.cfg.bag_cap {
            self.try_reclaim(tid);
        }
    }

    fn detach(&self, tid: Tid) {
        self.end_op(tid);
    }

    fn quiesce_and_drain(&self) {
        for tid in 0..self.common.n_threads() {
            let mut bag = self.bags[tid].lock().unwrap();
            let mut all = RetiredList::new();
            for (_, mut objs) in bag.drain(..) {
                all.append(&mut objs);
            }
            drop(bag);
            self.common.free_batch_now(tid, &mut all);
            self.common.drain_freebuf(tid);
        }
        self.common.sync_background();
    }
}

fn run(mode: FreeMode) {
    let threads = 4;
    let alloc = build_allocator(AllocatorKind::Je, threads, CostModel::default_for_machine());
    let mut cfg = SmrConfig::new(threads).with_mode(mode).with_bag_cap(1024);
    cfg.af_backlog_cap = 16 * 1024; // relief valve well above steady backlog
    let smr = Smr::from_raw(Arc::new(MiniEbr::new(Arc::clone(&alloc), cfg)));
    let tree = build_tree(TreeKind::Ab, smr);

    std::thread::scope(|scope| {
        for tid in 0..threads {
            let tree = Arc::clone(&tree);
            scope.spawn(move || {
                let handle = tree.smr().register(tid);
                let mut x = 0x2545_F491_4F6C_DD1Du64 ^ ((tid as u64) << 17);
                for _ in 0..200_000u32 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    // Key and coin from well-separated bit ranges: xorshift
                    // low bits correlate across the state, and a correlated
                    // key/coin pair degenerates into "insert evens, remove
                    // odds" — no churn at all.
                    let key = (x >> 16) % 8192;
                    if (x >> 40) & 1 == 0 {
                        tree.insert(&handle, key, key);
                    } else {
                        tree.remove(&handle, key);
                    }
                }
                handle.detach();
            });
        }
    });

    let s = tree.smr().stats();
    let a = alloc.snapshot().totals;
    println!(
        "{:<12}  retired {:>8}  freed {:>8}  epochs {:>5}  flushes {:>5}  remote {:>7}",
        tree.smr().name(),
        s.retired,
        s.freed,
        s.epochs,
        a.flushes,
        a.remote_freed
    );
    tree.check_invariants().expect("tree invariants");
}

fn main() {
    println!("a user-defined scheme, batch vs amortized vs pooled (ABtree, Je model):\n");
    run(FreeMode::Batch);
    run(FreeMode::amortized());
    run(FreeMode::Pooled);
    println!(
        "\ntakeaway: embedding SchemeCommon gives any custom scheme the paper's\n\
         amortized-free (and pooled) disposal for free — compare the flush and\n\
         remote-free columns."
    );
}
