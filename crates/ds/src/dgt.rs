//! The David–Guerraoui–Trigonakis external BST with ticket locks
//! (`DgtTree`), the data structure of the paper's appendix D.
//!
//! * **External**: internal nodes only route; key–value pairs live in
//!   leaves. Internal nodes always have exactly two children.
//! * **Reads are lock-free**: traversals never take locks.
//! * **Updates lock locally**: an insert locks the leaf's parent; a delete
//!   locks the grandparent and parent, then unlinks the leaf *and* its
//!   parent — so a delete retires **two** nodes (`frees_per_delete_hint`
//!   = 2, the §7 AF-tuning example).
//!
//! Routing convention: keys `< node.key` go left, keys `≥ node.key` go
//! right. A new internal for leaves `a < b` gets key `b`.
//!
//! Sentinels: two permanent internals (`g0 → p0`) with key `u64::MAX` and
//! a permanent "empty" leaf of key `u64::MAX`, so every real leaf has a
//! real parent and grandparent and the update paths have no root special
//! cases.

use crate::{alloc_node, free_node_quiescent, ConcurrentMap, MAX_KEY};
use epic_alloc::PoolAllocator;
use epic_smr::sync::{AtomicUsize, Ordering};
use epic_smr::{OpGuard, Restart, Smr, SmrHandle};
use epic_util::TicketLock;
use std::sync::Arc;

/// One node of the external BST (leaf or internal). 64 bytes of payload
/// (the paper's OCC/DGT nodes are "small"); lands in the 64-byte class.
#[repr(C)]
pub(crate) struct Node {
    key: u64,
    value: u64,
    /// 0 ⇒ leaf (external tree: internal nodes always have two children).
    left: AtomicUsize,
    right: AtomicUsize,
    lock: TicketLock,
    /// Set (under the parent's lock) when the node is unlinked; traversal
    /// mark-checks hang off this.
    marked: AtomicUsize,
}

impl Node {
    #[inline]
    fn is_leaf(&self) -> bool {
        self.left.load(Ordering::Acquire) == 0
    }

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
}

/// Shorthand: dereference a node address.
///
/// # Safety
/// `addr` must be a node pointer obtained from this tree's links while
/// protected under the SMR discipline (or during quiescence).
#[inline]
unsafe fn node<'a>(addr: usize) -> &'a Node {
    debug_assert!(addr != 0);
    // SAFETY: forwarded to caller.
    unsafe { &*(addr as *const Node) }
}

/// The traversal window: grandparent, parent, leaf (+ which side each hangs
/// off).
struct Window {
    g: usize,
    p: usize,
    l: usize,
    /// p is on this side of g.
    p_left: bool,
    /// l is on this side of p.
    l_left: bool,
}

/// DGT external BST. See module docs.
pub struct DgtTree {
    smr: Smr,
    alloc: Arc<dyn PoolAllocator>,
    g0: usize,
}

// SAFETY: all shared state is atomics + SMR-protected nodes.
unsafe impl Send for DgtTree {}
unsafe impl Sync for DgtTree {}

impl DgtTree {
    /// Builds an empty tree over `smr`'s allocator.
    ///
    /// Briefly registers tid 0 to allocate the sentinels.
    ///
    /// # Panics
    /// If another [`epic_smr::SmrHandle`] for tid 0 is live at call time
    /// (register after construction, or drop the handle first).
    pub fn new(smr: Smr) -> Self {
        let g0 = {
            let handle = smr.register(0);
            let guard = handle.begin_op();
            let mk = |key: u64, left: usize, right: usize| -> usize {
                // SAFETY: Node is POD; sentinels live for the tree's
                // lifetime.
                unsafe {
                    alloc_node(
                        &guard,
                        Node {
                            key,
                            value: 0,
                            left: AtomicUsize::new(left),
                            right: AtomicUsize::new(right),
                            lock: TicketLock::new(),
                            marked: AtomicUsize::new(0),
                        },
                    ) as usize
                }
            };
            let empty_leaf = mk(u64::MAX, 0, 0);
            let right_leaf_p = mk(u64::MAX, 0, 0);
            let right_leaf_g = mk(u64::MAX, 0, 0);
            let p0 = mk(u64::MAX, empty_leaf, right_leaf_p);
            mk(u64::MAX, p0, right_leaf_g)
        };
        let alloc = Arc::clone(smr.allocator());
        DgtTree { smr, alloc, g0 }
    }

    /// One protected hop: [`OpGuard::protect_load`] over `parent.child(dir)`
    /// plus the mark check a validating scheme needs — if the parent is
    /// already unlinked, `c` may be retired despite the stable link (the
    /// protection was published too late). `Err(Restart)` means restart
    /// the operation.
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

    /// Descends to the leaf for `key`, maintaining the (g, p, l) window.
    /// `Err(Restart)` means restart.
    fn search(&self, guard: &OpGuard<'_>, key: u64) -> Result<Window, Restart> {
        // Sentinels are never retired, so the first two hops are safe to
        // read unprotected; still protect them for slot bookkeeping
        // simplicity.
        let mut g = self.g0;
        // SAFETY: g0 is a permanent sentinel.
        let g_node = unsafe { node(g) };
        let mut p_left = true;
        let mut p = self.read_child(guard, 0, g_node, true)?;
        let mut l_left = true;
        // SAFETY: p0 is protected by slot 0 (or permanent).
        let mut l = self.read_child(guard, 1, unsafe { node(p) }, true)?;
        let mut depth = 2usize;
        loop {
            // SAFETY: l is protected by the previous read_child.
            let l_node = unsafe { node(l) };
            if l_node.is_leaf() {
                return Ok(Window {
                    g,
                    p,
                    l,
                    p_left,
                    l_left,
                });
            }
            let go_left = key < l_node.key;
            let next = self.read_child(guard, depth % 3, l_node, go_left)?;
            g = p;
            p = l;
            p_left = l_left;
            l = next;
            l_left = go_left;
            depth += 1;
        }
    }

    /// Builds a fresh leaf.
    fn make_leaf(&self, g: &OpGuard<'_>, key: u64, value: u64) -> usize {
        // SAFETY: POD node; published or explicitly deallocated by callers.
        unsafe {
            alloc_node(
                g,
                Node {
                    key,
                    value,
                    left: AtomicUsize::new(0),
                    right: AtomicUsize::new(0),
                    lock: TicketLock::new(),
                    marked: AtomicUsize::new(0),
                },
            ) as usize
        }
    }

    fn size_rec(&self, addr: usize, out: &mut Vec<u64>) {
        // SAFETY: quiescent traversal (caller contract of size()).
        let n = unsafe { node(addr) };
        if n.is_leaf() {
            if n.key <= MAX_KEY {
                out.push(n.key);
            }
            return;
        }
        self.size_rec(n.left.load(Ordering::Acquire), out);
        self.size_rec(n.right.load(Ordering::Acquire), out);
    }

    fn check_rec(&self, addr: usize, lo: u64, hi: u64, report: &mut Vec<String>) {
        // SAFETY: quiescent traversal.
        let n = unsafe { node(addr) };
        if n.is_marked() {
            report.push(format!("reachable node key={} is marked", n.key));
        }
        if n.is_leaf() {
            if n.key <= MAX_KEY && !(lo <= n.key && n.key < hi) {
                report.push(format!("leaf {} outside routing range [{lo},{hi})", n.key));
            }
            return;
        }
        if n.right.load(Ordering::Acquire) == 0 {
            report.push(format!("internal {} with only one child", n.key));
            return;
        }
        self.check_rec(n.left.load(Ordering::Acquire), lo, n.key.min(hi), report);
        self.check_rec(n.right.load(Ordering::Acquire), n.key.max(lo), hi, report);
    }

    fn drop_rec(&self, addr: usize) {
        // SAFETY: exclusive access during drop.
        let n = unsafe { node(addr) };
        let (l, r) = (
            n.left.load(Ordering::Relaxed),
            n.right.load(Ordering::Relaxed),
        );
        if l != 0 {
            self.drop_rec(l);
            self.drop_rec(r);
        }
        // SAFETY: node came from this tree's allocator; freed exactly once
        // (drop walks each reachable node once; retired nodes were already
        // drained by quiesce_and_drain).
        unsafe { free_node_quiescent(&self.alloc, addr as *mut Node) };
    }
}

impl ConcurrentMap for DgtTree {
    fn insert(&self, h: &SmrHandle, key: u64, value: u64) -> bool {
        assert!(key <= MAX_KEY, "key space reserved for sentinels");
        let guard = h.begin_op();
        let result = loop {
            let Ok(w) = self.search(&guard, key) else {
                continue;
            };
            // SAFETY: protected by the traversal discipline.
            let (p_node, l_node) = unsafe { (node(w.p), node(w.l)) };
            if l_node.key == key {
                break false;
            }
            guard.enter_write_phase(&[w.p, w.l]);
            p_node.lock.lock();
            let valid =
                !p_node.is_marked() && p_node.child(w.l_left).load(Ordering::Acquire) == w.l;
            if !valid {
                p_node.lock.unlock();
                guard.restart(); // re-enter read phase (NBR) and re-tick
                continue;
            }
            let new_leaf = self.make_leaf(&guard, key, value);
            let (nk, nl, nr) = if key < l_node.key {
                (l_node.key, new_leaf, w.l)
            } else {
                (key, w.l, new_leaf)
            };
            // SAFETY: fresh POD node.
            let new_internal = unsafe {
                alloc_node(
                    &guard,
                    Node {
                        key: nk,
                        value: 0,
                        left: AtomicUsize::new(nl),
                        right: AtomicUsize::new(nr),
                        lock: TicketLock::new(),
                        marked: AtomicUsize::new(0),
                    },
                ) as usize
            };
            p_node
                .child(w.l_left)
                .store(new_internal, Ordering::Release);
            p_node.lock.unlock();
            break true;
        };
        drop(guard);
        result
    }

    fn remove(&self, h: &SmrHandle, key: u64) -> bool {
        assert!(key <= MAX_KEY);
        let guard = h.begin_op();
        let result = loop {
            let Ok(w) = self.search(&guard, key) else {
                continue;
            };
            // SAFETY: protected by the traversal discipline.
            let (g_node, p_node, l_node) = unsafe { (node(w.g), node(w.p), node(w.l)) };
            if l_node.key != key {
                break false;
            }
            guard.enter_write_phase(&[w.g, w.p, w.l]);
            g_node.lock.lock();
            p_node.lock.lock();
            let valid = !g_node.is_marked()
                && !p_node.is_marked()
                && g_node.child(w.p_left).load(Ordering::Acquire) == w.p
                && p_node.child(w.l_left).load(Ordering::Acquire) == w.l;
            if !valid {
                p_node.lock.unlock();
                g_node.lock.unlock();
                guard.restart();
                continue;
            }
            let sibling = p_node.child(!w.l_left).load(Ordering::Acquire);
            // Mark before unlinking: traversal mark-checks rely on it.
            p_node.set_marked();
            l_node.set_marked();
            g_node.child(w.p_left).store(sibling, Ordering::Release);
            p_node.lock.unlock();
            g_node.lock.unlock();
            // SAFETY: both nodes are unlinked and unreachable from the
            // root; the SMR scheme delays the actual free.
            unsafe {
                guard.retire(std::ptr::NonNull::new_unchecked(w.p as *mut u8));
                guard.retire(std::ptr::NonNull::new_unchecked(w.l as *mut u8));
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
            let Ok(w) = self.search(&guard, key) else {
                continue;
            };
            // SAFETY: protected by the traversal discipline.
            let l_node = unsafe { node(w.l) };
            if l_node.key == key {
                break Some(l_node.value);
            }
            break None;
        };
        drop(guard);
        result
    }

    fn collect_keys(&self) -> Vec<u64> {
        let mut out = Vec::new();
        self.size_rec(self.g0, &mut out);
        out.sort_unstable();
        out
    }

    fn check_invariants(&self) -> Result<(), String> {
        let mut report = Vec::new();
        self.check_rec(self.g0, 0, u64::MAX, &mut report);
        let keys = self.collect_keys();
        for w in keys.windows(2) {
            if w[0] == w[1] {
                report.push(format!("duplicate key {}", w[0]));
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
        2
    }
}

impl Drop for DgtTree {
    fn drop(&mut self) {
        // Free everything still in limbo, then the live tree.
        self.smr.quiesce_and_drain();
        self.drop_rec(self.g0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epic_alloc::{build_allocator, AllocatorKind, CostModel};
    use epic_smr::{build_smr, SmrConfig, SmrKind};

    crate::conformance::conformance_suite!(Dgt);

    /// Limbo-bag capacity of every test tree.
    const BAG_CAP: usize = 32;

    fn tree(kind: SmrKind, threads: usize) -> DgtTree {
        let alloc = build_allocator(AllocatorKind::Sys, threads, CostModel::zero());
        let cfg = SmrConfig::new(threads).with_bag_cap(BAG_CAP);
        DgtTree::new(build_smr(kind, alloc, cfg))
    }

    #[test]
    fn deletes_retire_two_nodes() {
        let t = tree(SmrKind::Debra, 1);
        let h = t.smr().register(0);
        t.insert(&h, 1, 1);
        t.insert(&h, 2, 2);
        let retired_before = t.smr().stats().retired;
        t.remove(&h, 1);
        assert_eq!(t.smr().stats().retired - retired_before, 2);
        assert_eq!(t.frees_per_delete_hint(), 2);
    }
}
