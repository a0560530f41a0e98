//! A Harris–Michael lock-free sorted linked list (`HmList`).
//!
//! Not one of the paper's three benchmark structures, but the canonical
//! SMR client (the paper cites Harris's non-blocking linked list \[19\] as
//! the origin of batched reclamation): every delete retires exactly one
//! node, every insert allocates exactly one, and traversals hold no locks
//! — so it exercises the full `epic-smr` protocol (protect/validate for
//! slot-based schemes, neutralization polls for NBR) on a fourth,
//! maximally simple shape. Useful for testing scheme generality and for
//! the `ablation_ds_generality` bench.
//!
//! ## Algorithm
//!
//! The list is sorted ascending with a permanent head sentinel and a
//! permanent tail sentinel of key `u64::MAX`. Each node's `next` field
//! carries a **mark bit** (bit 0): removal first marks the victim's
//! `next` (the logical delete, the linearization point), then tries to
//! swing the predecessor's link past it (the physical unlink). Traversals
//! that encounter a marked node help unlink it; whichever thread's unlink
//! CAS succeeds retires the node (exactly once — see the safety argument
//! on the private `HmList::find` helper).

use crate::{alloc_node, dealloc_node, free_node_quiescent, ConcurrentMap, MAX_KEY};
use epic_alloc::PoolAllocator;
use epic_smr::sync::{AtomicUsize, Ordering};
use epic_smr::{OpGuard, Restart, Smr, SmrHandle};
use std::sync::Arc;

/// Mark bit stored in the low bit of `next` (nodes are ≥ 8-aligned).
const MARK: usize = 1;

#[inline]
fn unmark(raw: usize) -> usize {
    raw & !MARK
}

#[inline]
fn is_marked(raw: usize) -> bool {
    raw & MARK != 0
}

/// One list node. Padded to 64 bytes so it lands in the same small size
/// class as the OCC tree's nodes (the "small node" allocation profile).
#[repr(C)]
pub(crate) struct Node {
    key: u64,
    value: u64,
    /// Successor address; bit 0 is the logical-delete mark.
    next: AtomicUsize,
    _pad: [u64; 5],
}

/// Shorthand: dereference a node address.
///
/// # Safety
/// `addr` must be a node pointer obtained from this list's links while
/// protected under the SMR discipline (or during quiescence).
#[inline]
unsafe fn node<'a>(addr: usize) -> &'a Node {
    debug_assert!(addr != 0);
    // SAFETY: forwarded to caller.
    unsafe { &*(addr as *const Node) }
}

/// The traversal window: `pred` (unmarked when validated) and the first
/// node with `key >= search key`.
struct Window {
    pred: usize,
    curr: usize,
}

/// Harris–Michael sorted linked list. See module docs.
pub struct HmList {
    smr: Smr,
    alloc: Arc<dyn PoolAllocator>,
    head: usize,
}

// SAFETY: all shared state is atomics + SMR-protected nodes.
unsafe impl Send for HmList {}
unsafe impl Sync for HmList {}

impl HmList {
    /// Builds an empty list over `smr`'s allocator.
    ///
    /// Briefly registers tid 0 to allocate the sentinels.
    ///
    /// # Panics
    /// If another [`epic_smr::SmrHandle`] for tid 0 is live at call time
    /// (register after construction, or drop the handle first).
    pub fn new(smr: Smr) -> Self {
        let alloc = Arc::clone(smr.allocator());
        let head = {
            let handle = smr.register(0);
            let guard = handle.begin_op();
            let mk = |key: u64, next: usize| -> usize {
                // SAFETY: Node is POD; sentinels live for the list's
                // lifetime.
                unsafe {
                    alloc_node(
                        &guard,
                        Node {
                            key,
                            value: 0,
                            next: AtomicUsize::new(next),
                            _pad: [0; 5],
                        },
                    ) as usize
                }
            };
            let tail = mk(u64::MAX, 0);
            mk(0, tail)
        };
        HmList { smr, alloc, head }
    }

    /// One protected hop: [`OpGuard::protect_load`] over `from.next` —
    /// publish (tag-stripped), re-read/validate, poll. Returns the raw
    /// word (successor | mark); `Err(Restart)` means restart.
    ///
    /// The returned successor is safe to dereference because (a) for
    /// validating schemes the link was re-read after protection was
    /// published, and a retired `from` would have a *marked* `next`, which
    /// callers treat as "help or skip", never as a stable window; (b) for
    /// epoch/token/NBR schemes the grace period covers the whole operation.
    #[inline]
    fn read_next(&self, g: &OpGuard<'_>, slot: usize, from: &Node) -> Result<usize, Restart> {
        g.protect_load(slot, &from.next)
    }

    /// Michael's `find`: descends to the first node with `key >= key`,
    /// helping to physically unlink any marked node encountered.
    /// `Err(Restart)` means the operation must restart (neutralization or
    /// lost race).
    ///
    /// Exactly-once retirement: only the thread whose unlink CAS succeeds
    /// retires the victim. A stale window cannot double-unlink because a
    /// retired predecessor's `next` is itself marked (removal marks before
    /// unlinking), so a CAS expecting an *unmarked* value on it must fail.
    fn find(&self, g: &OpGuard<'_>, key: u64) -> Result<Window, Restart> {
        let mut pred = self.head;
        // SAFETY: head is a permanent sentinel.
        let mut pred_node = unsafe { node(pred) };
        // The head sentinel is never marked; its link is the current first
        // node.
        let mut curr = unmark(self.read_next(g, 0, pred_node)?);
        let mut depth = 1usize;
        loop {
            // SAFETY: curr was protected by the previous read_next hop.
            let curr_node = unsafe { node(curr) };
            let next_raw = self.read_next(g, depth % 3, curr_node)?;
            if is_marked(next_raw) {
                // curr is logically deleted: help unlink it from pred.
                let succ = unmark(next_raw);
                if pred_node
                    .next
                    .compare_exchange(curr, succ, Ordering::AcqRel, Ordering::Acquire)
                    .is_err()
                {
                    // The window moved under us; retry from the head.
                    return Err(Restart);
                }
                // SAFETY: the successful CAS above made `curr` unreachable,
                // and (per the mark argument in the doc comment) no other
                // thread's unlink of `curr` can also succeed.
                unsafe {
                    g.retire(std::ptr::NonNull::new_unchecked(curr as *mut u8));
                }
                // `succ` inherits curr's protection obligations: re-run the
                // protected hop on pred's link; any outcome other than
                // `succ` means the window moved.
                if g.validating() && self.read_next(g, depth % 3, pred_node)? != succ {
                    return Err(Restart);
                }
                curr = succ;
                continue;
            }
            if curr_node.key >= key {
                return Ok(Window { pred, curr });
            }
            pred = curr;
            pred_node = curr_node;
            curr = unmark(next_raw);
            depth += 1;
        }
    }

    fn drop_rec(&self) {
        // SAFETY: exclusive access during drop; walk the physical list.
        let mut addr = self.head;
        while addr != 0 {
            // SAFETY: exclusive access; nodes freed exactly once (retired
            // nodes are already physically unlinked and were drained by
            // quiesce_and_drain).
            let next = unsafe { unmark(node(addr).next.load(Ordering::Relaxed)) };
            // SAFETY: node came from this list's allocator.
            unsafe { free_node_quiescent(&self.alloc, addr as *mut Node) };
            addr = next;
        }
    }
}

impl ConcurrentMap for HmList {
    fn insert(&self, h: &SmrHandle, key: u64, value: u64) -> bool {
        assert!(key <= MAX_KEY, "key space reserved for the tail sentinel");
        let guard = h.begin_op();
        let result = loop {
            let Ok(w) = self.find(&guard, key) else {
                continue;
            };
            // SAFETY: protected by the traversal discipline.
            let curr_node = unsafe { node(w.curr) };
            if curr_node.key == key {
                break false;
            }
            guard.enter_write_phase(&[w.pred, w.curr]);
            // SAFETY: fresh POD node, published by the CAS below or
            // returned on failure.
            let new = unsafe {
                alloc_node(
                    &guard,
                    Node {
                        key,
                        value,
                        next: AtomicUsize::new(w.curr),
                        _pad: [0; 5],
                    },
                ) as usize
            };
            // SAFETY: pred is protected; a retired pred has a marked next,
            // so this CAS (expecting the unmarked value) would fail.
            let pred_node = unsafe { node(w.pred) };
            if pred_node
                .next
                .compare_exchange(w.curr, new, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                break true;
            }
            // SAFETY: the new node was never published.
            unsafe { dealloc_node(&guard, new as *mut Node) };
            guard.restart(); // re-enter read phase (NBR) and re-tick
        };
        drop(guard);
        result
    }

    fn remove(&self, h: &SmrHandle, key: u64) -> bool {
        assert!(key <= MAX_KEY);
        let guard = h.begin_op();
        let result = loop {
            let Ok(w) = self.find(&guard, key) else {
                continue;
            };
            // SAFETY: protected by the traversal discipline.
            let curr_node = unsafe { node(w.curr) };
            if curr_node.key != key {
                break false;
            }
            guard.enter_write_phase(&[w.pred, w.curr]);
            let raw = curr_node.next.load(Ordering::Acquire);
            if is_marked(raw) {
                // Lost the race: someone else logically deleted it first.
                guard.restart();
                continue;
            }
            // The logical delete (linearization point).
            if curr_node
                .next
                .compare_exchange(raw, raw | MARK, Ordering::AcqRel, Ordering::Acquire)
                .is_err()
            {
                guard.restart();
                continue;
            }
            // Best-effort physical unlink; on failure some traversal's
            // helping path performs it (and retires).
            // SAFETY: pred is protected; see find() for the exactly-once
            // unlink/retire argument.
            let pred_node = unsafe { node(w.pred) };
            if pred_node
                .next
                .compare_exchange(w.curr, unmark(raw), Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                // SAFETY: unlinked by the CAS above, exactly once.
                unsafe {
                    guard.retire(std::ptr::NonNull::new_unchecked(w.curr as *mut u8));
                }
            }
            break true;
        };
        drop(guard);
        result
    }

    fn get(&self, h: &SmrHandle, key: u64) -> Option<u64> {
        assert!(key <= MAX_KEY);
        let guard = h.begin_op();
        let result = loop {
            let Ok(w) = self.find(&guard, key) else {
                continue;
            };
            // SAFETY: protected by the traversal discipline.
            let curr_node = unsafe { node(w.curr) };
            break if curr_node.key == key {
                Some(curr_node.value)
            } else {
                None
            };
        };
        drop(guard);
        result
    }

    fn size(&self) -> usize {
        self.collect_keys().len()
    }

    fn collect_keys(&self) -> Vec<u64> {
        // Quiescent walk; skip logically deleted (marked) stragglers.
        let mut out = Vec::new();
        // SAFETY: quiescent traversal (caller contract).
        let mut addr = unsafe { unmark(node(self.head).next.load(Ordering::Acquire)) };
        while addr != 0 {
            // SAFETY: quiescent traversal.
            let n = unsafe { node(addr) };
            let raw = n.next.load(Ordering::Acquire);
            if n.key <= MAX_KEY && !is_marked(raw) {
                out.push(n.key);
            }
            addr = unmark(raw);
        }
        out
    }

    fn check_invariants(&self) -> Result<(), String> {
        let mut report = Vec::new();
        let mut last: Option<u64> = None;
        let mut saw_tail = false;
        // SAFETY: quiescent traversal.
        let mut addr = unsafe { unmark(node(self.head).next.load(Ordering::Acquire)) };
        while addr != 0 {
            // SAFETY: quiescent traversal.
            let n = unsafe { node(addr) };
            let raw = n.next.load(Ordering::Acquire);
            if n.key == u64::MAX {
                saw_tail = true;
                if unmark(raw) != 0 {
                    report.push("tail sentinel has a successor".into());
                }
            } else if !is_marked(raw) {
                if let Some(prev) = last {
                    if n.key <= prev {
                        report.push(format!("keys out of order: {prev} then {}", n.key));
                    }
                }
                last = Some(n.key);
            }
            addr = unmark(raw);
        }
        if !saw_tail {
            report.push("tail sentinel unreachable".into());
        }
        if report.is_empty() {
            Ok(())
        } else {
            Err(report.join("; "))
        }
    }

    fn ds_name(&self) -> &'static str {
        "hmlist"
    }

    fn smr(&self) -> &Smr {
        &self.smr
    }

    fn frees_per_delete_hint(&self) -> usize {
        1
    }
}

impl Drop for HmList {
    fn drop(&mut self) {
        // Free everything still in limbo, then the live list (including
        // marked-but-never-unlinked stragglers, which were never retired).
        self.smr.quiesce_and_drain();
        self.drop_rec();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epic_alloc::{build_allocator, AllocatorKind, CostModel};
    use epic_smr::{build_smr, SmrConfig, SmrKind};

    /// Limbo-bag capacity of every test list.
    const BAG_CAP: usize = 32;

    fn list(kind: SmrKind, threads: usize) -> HmList {
        let alloc = build_allocator(AllocatorKind::Sys, threads, CostModel::zero());
        let cfg = SmrConfig::new(threads).with_bag_cap(BAG_CAP);
        HmList::new(build_smr(kind, alloc, cfg))
    }

    #[test]
    fn sequential_semantics() {
        let l = list(SmrKind::Debra, 1);
        let h = l.smr().register(0);
        assert!(!l.contains(&h, 5));
        assert!(l.insert(&h, 5, 50));
        assert!(!l.insert(&h, 5, 51), "duplicate insert");
        assert_eq!(l.get(&h, 5), Some(50));
        assert!(l.insert(&h, 3, 30));
        assert!(l.insert(&h, 8, 80));
        assert_eq!(l.collect_keys(), vec![3, 5, 8]);
        assert!(l.remove(&h, 5));
        assert!(!l.remove(&h, 5), "double remove");
        assert_eq!(l.collect_keys(), vec![3, 8]);
        l.check_invariants().unwrap();
    }

    #[test]
    fn ordered_insertion_any_order() {
        let l = list(SmrKind::Rcu, 1);
        let h = l.smr().register(0);
        for k in [9u64, 1, 7, 3, 5, 2, 8, 4, 6] {
            assert!(l.insert(&h, k, k * 10));
        }
        assert_eq!(l.collect_keys(), (1..=9).collect::<Vec<_>>());
        for k in 1..=9 {
            assert_eq!(l.get(&h, k), Some(k * 10));
        }
        l.check_invariants().unwrap();
    }

    #[test]
    fn empty_then_refill() {
        let l = list(SmrKind::Qsbr, 1);
        let h = l.smr().register(0);
        for k in 1..=64 {
            assert!(l.insert(&h, k, k));
        }
        for k in 1..=64 {
            assert!(l.remove(&h, k));
        }
        assert_eq!(l.size(), 0);
        l.check_invariants().unwrap();
        for k in (1..=64).rev() {
            assert!(l.insert(&h, k, k * 2));
        }
        assert_eq!(l.size(), 64);
        assert_eq!(l.get(&h, 10), Some(20));
        l.check_invariants().unwrap();
    }

    #[test]
    fn deletes_retire_one_node() {
        let l = list(SmrKind::Debra, 1);
        let h = l.smr().register(0);
        l.insert(&h, 1, 1);
        l.insert(&h, 2, 2);
        let before = l.smr().stats().retired;
        l.remove(&h, 1);
        assert_eq!(l.smr().stats().retired - before, 1);
        assert_eq!(l.frees_per_delete_hint(), 1);
    }

    #[test]
    fn concurrent_stress_every_scheme() {
        for kind in SmrKind::ALL {
            let l = Arc::new(list(kind, 4));
            let handles: Vec<_> = (0..4usize)
                .map(|tid| {
                    let l = Arc::clone(&l);
                    std::thread::spawn(move || {
                        let h = l.smr().register(tid);
                        // Keys ≡ tid (mod 4), shifted to avoid key 0.
                        let base = tid as u64 + 1;
                        for round in 0..200u64 {
                            for i in 0..8u64 {
                                let k = base + 4 * (i + 8 * (round % 3));
                                if round % 2 == 0 {
                                    l.insert(&h, k, k + 1);
                                } else {
                                    l.remove(&h, k);
                                }
                            }
                            for i in 1..8u64 {
                                let _ = l.get(&h, i * 13 % 97 + 1);
                            }
                        }
                        crate::churn_until_freed(&*l, &h, 4 * BAG_CAP as u64);
                        h.detach();
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            l.check_invariants()
                .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
            // Sequential replay oracle (per-thread keys are disjoint).
            let mut oracle = std::collections::BTreeSet::new();
            for tid in 0..4u64 {
                for round in 0..200u64 {
                    for i in 0..8u64 {
                        let k = tid + 1 + 4 * (i + 8 * (round % 3));
                        if round % 2 == 0 {
                            oracle.insert(k);
                        } else {
                            oracle.remove(&k);
                        }
                    }
                }
            }
            let got = l.collect_keys();
            let want: Vec<u64> = oracle.into_iter().collect();
            assert_eq!(got, want, "{kind:?} diverged from oracle");
        }
    }

    #[test]
    fn reclamation_happens_under_churn() {
        let l = list(SmrKind::Debra, 1);
        let h = l.smr().register(0);
        for round in 0..2_000u64 {
            l.insert(&h, round % 16 + 1, round);
            l.remove(&h, round % 16 + 1);
        }
        let s = l.smr().stats();
        assert!(s.retired > 1_500, "churn retires: {s:?}");
        assert!(s.freed > 1_000, "and reclaims: {s:?}");
    }

    #[test]
    fn drop_frees_all_pool_blocks() {
        let alloc = build_allocator(AllocatorKind::Sys, 1, CostModel::zero());
        let cfg = SmrConfig::new(1).with_bag_cap(16);
        {
            let l = HmList::new(build_smr(SmrKind::Debra, Arc::clone(&alloc), cfg));
            let h = l.smr().register(0);
            for k in 1..=100 {
                l.insert(&h, k, k);
            }
            for k in 1..=50 {
                l.remove(&h, k);
            }
        }
        let snap = alloc.snapshot();
        assert_eq!(
            snap.totals.allocs, snap.totals.deallocs,
            "node leak at drop"
        );
    }

    #[test]
    fn node_is_one_cache_line() {
        assert_eq!(std::mem::size_of::<Node>(), 64);
    }

    #[test]
    fn pooled_mode_recycles_nodes() {
        // Churn one key under FreeMode::Pooled: after warm-up every insert
        // should be served from the pool, not the allocator.
        let alloc = build_allocator(AllocatorKind::Sys, 1, CostModel::zero());
        let cfg = SmrConfig::new(1)
            .with_mode(epic_smr::FreeMode::Pooled)
            .with_bag_cap(16);
        let l = HmList::new(build_smr(SmrKind::Debra, Arc::clone(&alloc), cfg));
        let h = l.smr().register(0);
        for round in 0..2_000u64 {
            l.insert(&h, round % 8 + 1, round);
            l.remove(&h, round % 8 + 1);
        }
        let s = l.smr().stats();
        assert!(
            s.pool_hits > 500,
            "pool must serve steady-state churn: {s:?}"
        );
        let a = alloc.snapshot().totals;
        assert!(
            a.allocs < 2_000 / 2,
            "most allocations must bypass the allocator: {} allocs",
            a.allocs
        );
        l.check_invariants().unwrap();
        drop(l);
        // Teardown still returns every allocator block exactly once.
        let a = alloc.snapshot().totals;
        assert_eq!(a.allocs, a.deallocs, "pooled blocks leaked at drop");
    }

    #[test]
    fn key_zero_is_usable() {
        // The head sentinel's key field is never compared, so the full
        // [0, MAX_KEY] space is usable.
        let l = list(SmrKind::Debra, 1);
        let h = l.smr().register(0);
        assert!(l.insert(&h, 0, 7));
        assert_eq!(l.get(&h, 0), Some(7));
        assert!(l.insert(&h, MAX_KEY, 9));
        assert_eq!(l.collect_keys(), vec![0, MAX_KEY]);
        assert!(l.remove(&h, 0));
        assert_eq!(l.collect_keys(), vec![MAX_KEY]);
        l.check_invariants().unwrap();
    }
}
