//! Bronson-style optimistic-concurrency BST (`OccTree`).
//!
//! A simplified partially-external BST with lock-free reads and per-node
//! write locks, preserving the benchmark-relevant characteristics of Bronson et
//! al.'s AVL tree (the paper's "OCCtree", Fig. 1):
//!
//! * **Allocation profile**: an insert allocates one small (64 B) node —
//!   or none, if it revives a routing node; a delete allocates nothing.
//! * **Partially external**: deleting a node with two children merely
//!   *tombstones* its value (the node stays as a routing node, no retire);
//!   nodes with ≤ 1 child are physically unlinked (one retire). Routing
//!   nodes encountered with ≤ 1 child are unlinked opportunistically
//!   during updates.
//! * **Optimistic traversal**: readers descend lock-free, one
//!   `protect_load` per hop, and restart from the root only when the SMR
//!   scheme asks (or a validating scheme finds the parent marked). No
//!   reader reads a version: an update takes the per-node
//!   [`epic_util::SeqLock`] write lock and re-checks the `marked` flag
//!   under it.
//!
//! Divergence from Bronson et al. (documented in DESIGN.md): no AVL
//! rebalancing — uniform random workloads keep expected height
//! logarithmic, and the paper's phenomena concern allocation volume, not
//! rotations.

use crate::{alloc_node, free_node_quiescent, ConcurrentMap, MAX_KEY};
use epic_alloc::PoolAllocator;
use epic_smr::sync::{AtomicU64, AtomicUsize, Ordering};
use epic_smr::{OpGuard, Restart, Smr, SmrHandle};
use epic_util::SeqLock;
use std::sync::Arc;

/// Tombstone value marking a routing node.
const TOMB: u64 = u64::MAX;

/// One internal-BST node: 56 bytes, 64-byte class (the paper's 64 B OCC
/// node).
#[repr(C)]
pub(crate) struct Node {
    key: u64,
    value: AtomicU64,
    left: AtomicUsize,
    right: AtomicUsize,
    version: SeqLock,
    marked: AtomicUsize,
}

impl Node {
    #[inline]
    fn child(&self, go_left: bool) -> &AtomicUsize {
        if go_left {
            &self.left
        } else {
            &self.right
        }
    }

    #[inline]
    fn is_marked(&self) -> bool {
        self.marked.load(Ordering::SeqCst) != 0
    }

    #[inline]
    fn set_marked(&self) {
        self.marked.store(1, Ordering::SeqCst);
    }

    #[inline]
    fn n_children(&self) -> usize {
        usize::from(self.left.load(Ordering::Acquire) != 0)
            + usize::from(self.right.load(Ordering::Acquire) != 0)
    }
}

/// # Safety
/// `addr` must be a protected (or quiescent) node pointer from this tree.
#[inline]
unsafe fn node<'a>(addr: usize) -> &'a Node {
    debug_assert!(addr != 0);
    // SAFETY: forwarded to caller.
    unsafe { &*(addr as *const Node) }
}

/// Traversal outcome: the node holding `key`, or the attach point.
struct Found {
    parent: usize,
    /// Node with the key, or 0 if absent.
    target: usize,
    /// Side of `parent` that `target` (or the null link) is on.
    go_left: bool,
}

/// Simplified Bronson OCC tree. See module docs.
pub struct OccTree {
    smr: Smr,
    alloc: Arc<dyn PoolAllocator>,
    /// Permanent sentinel root with key `u64::MAX`; the real tree is its
    /// left subtree.
    root: usize,
}

// SAFETY: shared state is atomics + SMR-protected nodes.
unsafe impl Send for OccTree {}
unsafe impl Sync for OccTree {}

impl OccTree {
    /// Builds an empty tree over `smr`'s allocator.
    ///
    /// Briefly registers tid 0 to allocate the sentinels.
    ///
    /// # Panics
    /// If another [`epic_smr::SmrHandle`] for tid 0 is live at call time
    /// (register after construction, or drop the handle first).
    pub fn new(smr: Smr) -> Self {
        let root = {
            let handle = smr.register(0);
            let guard = handle.begin_op();
            // SAFETY: POD sentinel, lives for the tree's lifetime.
            unsafe {
                alloc_node(
                    &guard,
                    Node {
                        key: u64::MAX,
                        value: AtomicU64::new(TOMB),
                        left: AtomicUsize::new(0),
                        right: AtomicUsize::new(0),
                        version: SeqLock::new(),
                        marked: AtomicUsize::new(0),
                    },
                ) as usize
            }
        };
        let alloc = Arc::clone(smr.allocator());
        OccTree { smr, alloc, root }
    }

    /// Protected hop: one [`OpGuard::protect_load`] plus the staleness
    /// check a validating scheme needs (a marked parent may already be
    /// retired).
    #[inline]
    fn read_child(
        &self,
        g: &OpGuard<'_>,
        slot: usize,
        parent: &Node,
        go_left: bool,
    ) -> Result<usize, Restart> {
        let c = g.protect_load(slot, parent.child(go_left))?;
        if g.validating() && parent.is_marked() {
            return Err(Restart);
        }
        Ok(c)
    }

    /// Optimistic descent to `key`. `Err(Restart)` = restart.
    fn search(&self, g: &OpGuard<'_>, key: u64) -> Result<Found, Restart> {
        let mut parent = self.root;
        let mut go_left = true;
        let mut depth = 0usize;
        loop {
            // SAFETY: parent is the sentinel or was protected last hop.
            let p_node = unsafe { node(parent) };
            let c = self.read_child(g, depth % 3, p_node, go_left)?;
            if c == 0 {
                return Ok(Found {
                    parent,
                    target: 0,
                    go_left,
                });
            }
            // SAFETY: c protected by read_child.
            let c_node = unsafe { node(c) };
            if c_node.key == key {
                return Ok(Found {
                    parent,
                    target: c,
                    go_left,
                });
            }
            parent = c;
            go_left = key < c_node.key;
            depth += 1;
        }
    }

    /// Physically unlinks `target` (≤ 1 child) from `parent`. Both locks
    /// taken in root-to-leaf order. Returns false if validation failed.
    fn unlink(
        &self,
        g: &OpGuard<'_>,
        parent_addr: usize,
        target_addr: usize,
        go_left: bool,
    ) -> bool {
        // SAFETY: protected by caller's traversal.
        let (parent, target) = unsafe { (node(parent_addr), node(target_addr)) };
        g.enter_write_phase(&[parent_addr, target_addr]);
        parent.version.write_lock();
        target.version.write_lock();
        let replacement = {
            let l = target.left.load(Ordering::Acquire);
            let r = target.right.load(Ordering::Acquire);
            if l != 0 && r != 0 {
                // Grew a second child meanwhile: cannot unlink.
                target.version.write_unlock();
                parent.version.write_unlock();
                return false;
            }
            l | r
        };
        let valid = !parent.is_marked()
            && !target.is_marked()
            && parent.child(go_left).load(Ordering::Acquire) == target_addr;
        if !valid {
            target.version.write_unlock();
            parent.version.write_unlock();
            return false;
        }
        target.set_marked();
        parent.child(go_left).store(replacement, Ordering::Release);
        target.version.write_unlock();
        parent.version.write_unlock();
        // SAFETY: target is unlinked; SMR delays the free.
        unsafe {
            g.retire(std::ptr::NonNull::new_unchecked(target_addr as *mut u8));
        }
        true
    }

    fn collect_rec(&self, addr: usize, out: &mut Vec<u64>) {
        if addr == 0 {
            return;
        }
        // SAFETY: quiescent traversal.
        let n = unsafe { node(addr) };
        self.collect_rec(n.left.load(Ordering::Acquire), out);
        if n.key <= MAX_KEY && n.value.load(Ordering::Acquire) != TOMB {
            out.push(n.key);
        }
        self.collect_rec(n.right.load(Ordering::Acquire), out);
    }

    fn check_rec(&self, addr: usize, lo: u64, hi: u64, report: &mut Vec<String>) {
        if addr == 0 {
            return;
        }
        // SAFETY: quiescent traversal.
        let n = unsafe { node(addr) };
        if n.is_marked() {
            report.push(format!("reachable node {} is marked", n.key));
        }
        if !(lo <= n.key && n.key < hi) {
            report.push(format!("node {} violates BST range [{lo},{hi})", n.key));
        }
        self.check_rec(n.left.load(Ordering::Acquire), lo, n.key.min(hi), report);
        self.check_rec(
            n.right.load(Ordering::Acquire),
            n.key.saturating_add(1).max(lo),
            hi,
            report,
        );
    }

    fn drop_rec(&self, addr: usize) {
        if addr == 0 {
            return;
        }
        // SAFETY: exclusive access during drop.
        let n = unsafe { node(addr) };
        self.drop_rec(n.left.load(Ordering::Relaxed));
        self.drop_rec(n.right.load(Ordering::Relaxed));
        // SAFETY: freed exactly once during the drop walk.
        unsafe { free_node_quiescent(&self.alloc, addr as *mut Node) };
    }
}

impl ConcurrentMap for OccTree {
    fn insert(&self, h: &SmrHandle, key: u64, value: u64) -> bool {
        assert!(key <= MAX_KEY && value < TOMB);
        let guard = h.begin_op();
        let result = loop {
            let Ok(f) = self.search(&guard, key) else {
                continue;
            };
            if f.target != 0 {
                // Key node exists: revive if tombstoned (no allocation —
                // the Bronson signature move).
                // SAFETY: protected by traversal.
                let t = unsafe { node(f.target) };
                guard.enter_write_phase(&[f.target]);
                t.version.write_lock();
                if t.is_marked() {
                    t.version.write_unlock();
                    guard.restart();
                    continue;
                }
                let was_tomb = t.value.load(Ordering::Acquire) == TOMB;
                if was_tomb {
                    t.value.store(value, Ordering::Release);
                }
                t.version.write_unlock();
                break was_tomb;
            }
            // Attach a fresh node at the null link.
            // SAFETY: protected by traversal.
            let p = unsafe { node(f.parent) };
            guard.enter_write_phase(&[f.parent]);
            p.version.write_lock();
            let valid = !p.is_marked() && p.child(f.go_left).load(Ordering::Acquire) == 0;
            if !valid {
                p.version.write_unlock();
                guard.restart();
                continue;
            }
            // SAFETY: fresh POD node, published below.
            let fresh = unsafe {
                alloc_node(
                    &guard,
                    Node {
                        key,
                        value: AtomicU64::new(value),
                        left: AtomicUsize::new(0),
                        right: AtomicUsize::new(0),
                        version: SeqLock::new(),
                        marked: AtomicUsize::new(0),
                    },
                ) as usize
            };
            p.child(f.go_left).store(fresh, Ordering::Release);
            p.version.write_unlock();
            break true;
        };
        drop(guard);
        result
    }

    fn remove(&self, h: &SmrHandle, key: u64) -> bool {
        assert!(key <= MAX_KEY);
        let guard = h.begin_op();
        let result = loop {
            let Ok(f) = self.search(&guard, key) else {
                continue;
            };
            if f.target == 0 {
                break false;
            }
            // SAFETY: protected by traversal.
            let t = unsafe { node(f.target) };
            if t.value.load(Ordering::Acquire) == TOMB {
                break false;
            }
            if t.n_children() == 2 {
                // Logical delete: tombstone, keep as routing node.
                guard.enter_write_phase(&[f.target]);
                t.version.write_lock();
                if t.is_marked() {
                    t.version.write_unlock();
                    guard.restart();
                    continue;
                }
                if t.n_children() < 2 {
                    // Shrank meanwhile: retry through the unlink path.
                    t.version.write_unlock();
                    guard.restart();
                    continue;
                }
                let had_value = t.value.load(Ordering::Acquire) != TOMB;
                if had_value {
                    t.value.store(TOMB, Ordering::Release);
                }
                t.version.write_unlock();
                break had_value;
            }
            // ≤ 1 child: tombstone + physical unlink (one retire).
            guard.enter_write_phase(&[f.parent, f.target]);
            t.version.write_lock();
            if t.is_marked() || t.value.load(Ordering::Acquire) == TOMB {
                t.version.write_unlock();
                guard.restart();
                // Value gone: someone else deleted it.
                // SAFETY: protected.
                if unsafe { node(f.target) }.value.load(Ordering::Acquire) == TOMB {
                    break false;
                }
                continue;
            }
            t.value.store(TOMB, Ordering::Release);
            t.version.write_unlock();
            // Best-effort physical unlink; failure leaves a routing node
            // that later operations clean up.
            let _ = self.unlink(&guard, f.parent, f.target, f.go_left);
            break true;
        };
        drop(guard);
        result
    }

    fn get(&self, h: &SmrHandle, key: u64) -> Option<u64> {
        assert!(key <= MAX_KEY);
        let guard = h.begin_op();
        let result = loop {
            let Ok(f) = self.search(&guard, key) else {
                continue;
            };
            if f.target == 0 {
                break None;
            }
            // SAFETY: protected by traversal.
            let v = unsafe { node(f.target) }.value.load(Ordering::Acquire);
            break if v == TOMB { None } else { Some(v) };
        };
        drop(guard);
        result
    }

    fn collect_keys(&self) -> Vec<u64> {
        let mut out = Vec::new();
        // SAFETY: quiescent.
        let r = unsafe { node(self.root) };
        self.collect_rec(r.left.load(Ordering::Acquire), &mut out);
        out
    }

    fn check_invariants(&self) -> Result<(), String> {
        let mut report = Vec::new();
        // SAFETY: quiescent.
        let r = unsafe { node(self.root) };
        self.check_rec(r.left.load(Ordering::Acquire), 0, u64::MAX, &mut report);
        let keys = self.collect_keys();
        for w in keys.windows(2) {
            if w[0] >= w[1] {
                report.push(format!("ordering violation near {}", w[0]));
            }
        }
        if report.is_empty() {
            Ok(())
        } else {
            Err(report.join("; "))
        }
    }

    fn smr(&self) -> &Smr {
        &self.smr
    }

    fn frees_per_delete_hint(&self) -> usize {
        1
    }
}

impl Drop for OccTree {
    fn drop(&mut self) {
        self.smr.quiesce_and_drain();
        self.drop_rec(self.root);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epic_alloc::{build_allocator, AllocatorKind, CostModel};
    use epic_smr::{build_smr, SmrConfig, SmrKind};

    crate::conformance::conformance_suite!(Occ);

    /// Limbo-bag capacity of every test tree.
    const BAG_CAP: usize = 32;

    fn tree(kind: SmrKind, threads: usize) -> OccTree {
        let alloc = build_allocator(AllocatorKind::Sys, threads, CostModel::zero());
        let cfg = SmrConfig::new(threads).with_bag_cap(BAG_CAP);
        OccTree::new(build_smr(kind, alloc, cfg))
    }

    #[test]
    fn two_child_delete_allocates_and_retires_nothing() {
        let t = tree(SmrKind::Debra, 1);
        let h = t.smr().register(0);
        t.insert(&h, 10, 1);
        t.insert(&h, 5, 1);
        t.insert(&h, 15, 1);
        let before = t.smr().stats();
        assert!(t.remove(&h, 10));
        let after = t.smr().stats();
        assert_eq!(after.retired - before.retired, 0, "routing node stays");
    }

    #[test]
    fn tombstone_revival_allocates_nothing() {
        let t = tree(SmrKind::Debra, 1);
        let h = t.smr().register(0);
        t.insert(&h, 10, 1);
        t.insert(&h, 5, 1);
        t.insert(&h, 15, 1);
        t.remove(&h, 10); // tombstone
        let allocs_before = t.alloc.snapshot().totals.allocs;
        assert!(t.insert(&h, 10, 42), "revival counts as insert");
        assert_eq!(
            t.alloc.snapshot().totals.allocs,
            allocs_before,
            "no allocation on revival"
        );
        assert_eq!(t.get(&h, 10), Some(42));
    }

    #[test]
    fn leaf_delete_unlinks_physically() {
        let t = tree(SmrKind::Debra, 1);
        let h = t.smr().register(0);
        t.insert(&h, 10, 1);
        t.insert(&h, 5, 1);
        let before = t.smr().stats().retired;
        assert!(t.remove(&h, 5)); // leaf -> physical unlink
        assert_eq!(t.smr().stats().retired - before, 1);
        assert_eq!(t.collect_keys(), vec![10]);
        t.check_invariants().unwrap();
    }
}
