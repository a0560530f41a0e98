//! Leaf-oriented concurrent (a,b)-tree (`AbTree`) — the paper's primary
//! benchmark structure ("ABtree", Brown's concurrency-friendly B-tree
//! variant).
//!
//! * **Leaf-oriented**: key–value pairs live only in leaves; internal
//!   nodes hold separator keys and child pointers.
//! * **Copy-on-write nodes**: every update builds replacement node(s) and
//!   installs them in the parent's child slot under the parent's lock;
//!   node contents (keys, len) are immutable once published, so lock-free
//!   traversals always see consistent nodes. This is what gives the paper
//!   its signature allocation profile: **one or two ~240-byte nodes
//!   allocated and retired per insert or delete** (§3).
//! * **Fat nodes**: up to [`CAP`] = 12 keys per leaf / children per
//!   internal ⇒ 216-byte nodes in the 256-byte size class.
//!
//! Structural changes (leaf split / parent collapse) lock the grandparent
//! and parent only. Divergence from Brown's LLX/SCX protocol (documented
//! in DESIGN.md): instead of multi-node atomic SCX sections we use
//! per-node ticket locks with validation, and instead of strict (a,b)
//! rebalancing a full parent *overflows* into a fresh two-child internal
//! while two-child parents *collapse* into their sibling — heights remain
//! logarithmic in expectation under uniform workloads, and the
//! retire/alloc stream shape is preserved.

use crate::{alloc_node, dealloc_node, free_node_quiescent, ConcurrentMap, MAX_KEY};
use epic_alloc::PoolAllocator;
use epic_smr::sync::{AtomicUsize, Ordering};
use epic_smr::{OpGuard, Restart, Smr, SmrHandle};
use epic_util::TicketLock;
use std::sync::Arc;

/// Maximum keys per leaf and children per internal node.
pub const CAP: usize = 12;

/// One (a,b)-tree node. 216 bytes → 256-byte class (the paper's "large
/// nodes (240 bytes each)").
#[repr(C)]
pub(crate) struct Node {
    is_leaf: u8,
    /// Leaf: number of keys. Internal: number of children (keys used =
    /// len − 1). Immutable after publication.
    len: u8,
    _pad: [u8; 6],
    marked: AtomicUsize,
    lock: TicketLock,
    /// Leaf: the keys. Internal: separators `keys[0..len-1]`.
    keys: [u64; CAP],
    /// Leaf: values (immutable). Internal: child pointers (mutated only
    /// under `lock`).
    slots: [AtomicUsize; CAP],
}

impl Node {
    fn empty_slots() -> [AtomicUsize; CAP] {
        std::array::from_fn(|_| AtomicUsize::new(0))
    }

    fn blank(is_leaf: bool) -> Node {
        Node {
            is_leaf: u8::from(is_leaf),
            len: 0,
            _pad: [0; 6],
            marked: AtomicUsize::new(0),
            lock: TicketLock::new(),
            keys: [0; CAP],
            slots: Self::empty_slots(),
        }
    }

    #[inline]
    fn is_leaf(&self) -> bool {
        self.is_leaf != 0
    }

    #[inline]
    fn len(&self) -> usize {
        self.len as usize
    }

    #[inline]
    fn is_marked(&self) -> bool {
        self.marked.load(Ordering::SeqCst) != 0
    }

    #[inline]
    fn set_marked(&self) {
        self.marked.store(1, Ordering::SeqCst);
    }

    /// Internal: the child slot index routing `key`.
    #[inline]
    fn child_index(&self, key: u64) -> usize {
        debug_assert!(!self.is_leaf());
        let nkeys = self.len() - 1;
        for i in 0..nkeys {
            if key < self.keys[i] {
                return i;
            }
        }
        nkeys
    }

    /// Leaf: position of `key`, if present.
    #[inline]
    fn find(&self, key: u64) -> Option<usize> {
        debug_assert!(self.is_leaf());
        self.keys[..self.len()].iter().position(|&k| k == key)
    }
}

const _: () = assert!(std::mem::size_of::<Node>() <= 256);

/// # Safety
/// `addr` must be a protected (or quiescent) node pointer from this tree.
#[inline]
unsafe fn node<'a>(addr: usize) -> &'a Node {
    debug_assert!(addr != 0);
    // SAFETY: forwarded to caller.
    unsafe { &*(addr as *const Node) }
}

/// Traversal window: grandparent (0 when parent is the entry sentinel),
/// parent, leaf, and the slot indices connecting them.
struct Window {
    g: usize,
    p: usize,
    l: usize,
    /// Index of `p` in `g` (meaningless when `g == 0`).
    p_idx: usize,
    /// Index of `l` in `p`.
    l_idx: usize,
}

/// Concurrent (a,b)-tree. See module docs.
pub struct AbTree {
    smr: Smr,
    alloc: Arc<dyn PoolAllocator>,
    /// Permanent one-child internal sentinel; its slot 0 is the tree.
    entry: usize,
}

// SAFETY: shared state is atomics + SMR-protected nodes.
unsafe impl Send for AbTree {}
unsafe impl Sync for AbTree {}

impl AbTree {
    /// Builds an empty tree over `smr`'s allocator.
    ///
    /// Briefly registers tid 0 to allocate the sentinels.
    ///
    /// # Panics
    /// If another [`epic_smr::SmrHandle`] for tid 0 is live at call time
    /// (register after construction, or drop the handle first).
    pub fn new(smr: Smr) -> Self {
        let alloc = Arc::clone(smr.allocator());
        let entry_addr = {
            let handle = smr.register(0);
            let guard = handle.begin_op();
            let mut leaf = Node::blank(true);
            leaf.len = 0;
            // SAFETY: POD nodes.
            let leaf_addr = unsafe { alloc_node(&guard, leaf) as usize };
            let mut entry = Node::blank(false);
            entry.len = 1;
            entry.slots[0] = AtomicUsize::new(leaf_addr);
            // SAFETY: POD nodes.
            unsafe { alloc_node(&guard, entry) as usize }
        };
        AbTree {
            smr,
            alloc,
            entry: entry_addr,
        }
    }

    /// Protected hop: one [`OpGuard::protect_load`] plus the copy-on-write
    /// staleness check a validating scheme needs (a marked parent may
    /// already be retired, so its slot content is garbage-in-waiting).
    #[inline]
    fn read_child(
        &self,
        g: &OpGuard<'_>,
        slot: usize,
        parent: &Node,
        idx: usize,
    ) -> Result<usize, Restart> {
        let c = g.protect_load(slot, &parent.slots[idx])?;
        if g.validating() && parent.is_marked() {
            return Err(Restart);
        }
        Ok(c)
    }

    /// Descends to the leaf routing `key`.
    fn search(&self, guard: &OpGuard<'_>, key: u64) -> Result<Window, Restart> {
        let mut g = 0usize;
        let mut p = self.entry;
        let mut p_idx = 0usize;
        // SAFETY: entry is a permanent sentinel.
        let mut l = self.read_child(guard, 0, unsafe { node(p) }, 0)?;
        let mut l_idx = 0usize;
        let mut depth = 1usize;
        loop {
            // SAFETY: protected by the previous read_child.
            let l_node = unsafe { node(l) };
            if l_node.is_leaf() {
                return Ok(Window {
                    g,
                    p,
                    l,
                    p_idx,
                    l_idx,
                });
            }
            let idx = l_node.child_index(key);
            let next = self.read_child(guard, depth % 3, l_node, idx)?;
            g = p;
            p = l;
            p_idx = l_idx;
            l = next;
            l_idx = idx;
            depth += 1;
        }
    }

    /// Allocates a published-ready node.
    fn publish(&self, g: &OpGuard<'_>, n: Node) -> usize {
        // SAFETY: POD node; callers publish it or return it via
        // `discard`.
        unsafe { alloc_node(g, n) as usize }
    }

    /// Returns an unpublished node to the allocator (validation failure).
    fn discard(&self, g: &OpGuard<'_>, addr: usize) {
        // SAFETY: `addr` came from `publish` and was never linked.
        unsafe { dealloc_node(g, addr as *mut Node) };
    }

    /// Leaf copy with `key → value` inserted (len < CAP).
    fn leaf_copy_insert(&self, leaf: &Node, key: u64, value: u64) -> Node {
        let mut n = Node::blank(true);
        let len = leaf.len();
        let pos = leaf.keys[..len]
            .iter()
            .position(|&k| k > key)
            .unwrap_or(len);
        for i in 0..pos {
            n.keys[i] = leaf.keys[i];
            n.slots[i] = AtomicUsize::new(leaf.slots[i].load(Ordering::Acquire));
        }
        n.keys[pos] = key;
        n.slots[pos] = AtomicUsize::new(value as usize);
        for i in pos..len {
            n.keys[i + 1] = leaf.keys[i];
            n.slots[i + 1] = AtomicUsize::new(leaf.slots[i].load(Ordering::Acquire));
        }
        n.len = (len + 1) as u8;
        n
    }

    /// Leaf copy with the key at `pos` removed.
    fn leaf_copy_remove(&self, leaf: &Node, pos: usize) -> Node {
        let mut n = Node::blank(true);
        let len = leaf.len();
        let mut out = 0;
        for i in 0..len {
            if i == pos {
                continue;
            }
            n.keys[out] = leaf.keys[i];
            n.slots[out] = AtomicUsize::new(leaf.slots[i].load(Ordering::Acquire));
            out += 1;
        }
        n.len = out as u8;
        n
    }

    /// Splits a full leaf plus one new pair into two leaves; returns
    /// (left, right, separator).
    fn leaf_split(&self, leaf: &Node, key: u64, value: u64) -> (Node, Node, u64) {
        let len = leaf.len();
        debug_assert_eq!(len, CAP);
        let pos = leaf.keys[..len]
            .iter()
            .position(|&k| k > key)
            .unwrap_or(len);
        // Entry `j` of the merged run goes straight into its half — no
        // scratch buffer: a split sits on the update path whose allocator
        // traffic is the experiment, so it must not reach the process heap.
        const RUN: usize = CAP + 1;
        let mid = RUN / 2;
        let mut left = Node::blank(true);
        let mut right = Node::blank(true);
        for j in 0..RUN {
            let (k, v) = if j == pos {
                (key, value as usize)
            } else {
                let i = j - usize::from(j > pos);
                (leaf.keys[i], leaf.slots[i].load(Ordering::Acquire))
            };
            let (half, at) = if j < mid {
                (&mut left, j)
            } else {
                (&mut right, j - mid)
            };
            half.keys[at] = k;
            half.slots[at] = AtomicUsize::new(v);
        }
        left.len = mid as u8;
        right.len = (RUN - mid) as u8;
        let sep = right.keys[0];
        (left, right, sep)
    }

    /// Internal copy with child `idx` replaced by `left` and `(sep,
    /// right)` spliced in after it (len < CAP).
    fn internal_copy_split(
        &self,
        p: &Node,
        idx: usize,
        left: usize,
        sep: u64,
        right: usize,
    ) -> Node {
        let len = p.len();
        debug_assert!(len < CAP);
        let mut n = Node::blank(false);
        let mut kout = 0;
        let mut cout = 0;
        for i in 0..len {
            if i == idx {
                n.slots[cout] = AtomicUsize::new(left);
                cout += 1;
                n.keys[kout] = sep;
                kout += 1;
                n.slots[cout] = AtomicUsize::new(right);
                cout += 1;
            } else {
                n.slots[cout] = AtomicUsize::new(p.slots[i].load(Ordering::Acquire));
                cout += 1;
            }
            if i < len - 1 {
                n.keys[kout] = p.keys[i];
                kout += 1;
            }
        }
        n.len = cout as u8;
        n
    }

    /// Internal copy with child `idx` (and its separator) removed
    /// (len > 2).
    fn internal_copy_remove(&self, p: &Node, idx: usize) -> Node {
        let len = p.len();
        debug_assert!(len > 2);
        let mut n = Node::blank(false);
        let mut cout = 0;
        for i in 0..len {
            if i == idx {
                continue;
            }
            n.slots[cout] = AtomicUsize::new(p.slots[i].load(Ordering::Acquire));
            cout += 1;
        }
        // Separators: drop keys[idx-1] (or keys[0] when idx == 0).
        let drop_key = idx.saturating_sub(1);
        let mut kout = 0;
        for i in 0..len - 1 {
            if i == drop_key {
                continue;
            }
            n.keys[kout] = p.keys[i];
            kout += 1;
        }
        n.len = cout as u8;
        n
    }

    /// Lock + validate helper for single-parent updates. On success the
    /// parent lock is HELD.
    fn lock_parent(&self, p: &Node, l_idx: usize, l: usize) -> bool {
        p.lock.lock();
        let ok = !p.is_marked() && p.slots[l_idx].load(Ordering::Acquire) == l;
        if !ok {
            p.lock.unlock();
        }
        ok
    }

    /// Lock + validate grandparent and parent. On success BOTH locks are
    /// held.
    fn lock_two(
        &self,
        g: &Node,
        p_idx: usize,
        p_addr: usize,
        p: &Node,
        l_idx: usize,
        l: usize,
    ) -> bool {
        g.lock.lock();
        p.lock.lock();
        let ok = !g.is_marked()
            && !p.is_marked()
            && g.slots[p_idx].load(Ordering::Acquire) == p_addr
            && p.slots[l_idx].load(Ordering::Acquire) == l;
        if !ok {
            p.lock.unlock();
            g.lock.unlock();
        }
        ok
    }

    fn retire2(&self, g: &OpGuard<'_>, a: usize, b: usize) {
        // SAFETY: both unlinked; SMR delays the frees.
        unsafe {
            g.retire(std::ptr::NonNull::new_unchecked(a as *mut u8));
            g.retire(std::ptr::NonNull::new_unchecked(b as *mut u8));
        }
    }

    fn retire1(&self, g: &OpGuard<'_>, a: usize) {
        // SAFETY: unlinked; SMR delays the free.
        unsafe {
            g.retire(std::ptr::NonNull::new_unchecked(a as *mut u8));
        }
    }

    fn collect_rec(&self, addr: usize, out: &mut Vec<u64>) {
        // SAFETY: quiescent traversal.
        let n = unsafe { node(addr) };
        if n.is_leaf() {
            out.extend_from_slice(&n.keys[..n.len()]);
            return;
        }
        for i in 0..n.len() {
            self.collect_rec(n.slots[i].load(Ordering::Acquire), out);
        }
    }

    fn check_rec(&self, addr: usize, lo: u64, hi: u64, report: &mut Vec<String>) {
        // SAFETY: quiescent traversal.
        let n = unsafe { node(addr) };
        if n.is_marked() {
            report.push(format!("reachable node marked (leaf={})", n.is_leaf()));
        }
        if n.is_leaf() {
            let keys = &n.keys[..n.len()];
            for w in keys.windows(2) {
                if w[0] >= w[1] {
                    report.push(format!("leaf keys unsorted: {} >= {}", w[0], w[1]));
                }
            }
            for &k in keys {
                if !(lo <= k && k < hi) {
                    report.push(format!("leaf key {k} outside routing range [{lo},{hi})"));
                }
            }
            return;
        }
        let len = n.len();
        if addr != self.entry && len < 2 {
            report.push(format!("non-entry internal with {len} children"));
        }
        let seps = &n.keys[..len.saturating_sub(1)];
        for w in seps.windows(2) {
            if w[0] >= w[1] {
                report.push(format!("separators unsorted: {} >= {}", w[0], w[1]));
            }
        }
        for i in 0..len {
            let clo = if i == 0 { lo } else { seps[i - 1].max(lo) };
            let chi = if i == len - 1 { hi } else { seps[i].min(hi) };
            self.check_rec(n.slots[i].load(Ordering::Acquire), clo, chi, report);
        }
    }

    fn drop_rec(&self, addr: usize) {
        // SAFETY: exclusive access during drop.
        let n = unsafe { node(addr) };
        if !n.is_leaf() {
            for i in 0..n.len() {
                self.drop_rec(n.slots[i].load(Ordering::Relaxed));
            }
        }
        // SAFETY: each reachable node freed exactly once.
        unsafe { free_node_quiescent(&self.alloc, addr as *mut Node) };
    }
}

impl ConcurrentMap for AbTree {
    fn insert(&self, h: &SmrHandle, key: u64, value: u64) -> bool {
        assert!(key <= MAX_KEY);
        let guard = h.begin_op();
        let result = loop {
            let Ok(w) = self.search(&guard, key) else {
                continue;
            };
            // SAFETY: protected by traversal.
            let (p_node, l_node) = unsafe { (node(w.p), node(w.l)) };
            if l_node.find(key).is_some() {
                break false;
            }

            if l_node.len() < CAP {
                // Simple path: replace the leaf (1 alloc, 1 retire).
                guard.enter_write_phase(&[w.p, w.l]);
                let fresh = self.publish(&guard, self.leaf_copy_insert(l_node, key, value));
                if !self.lock_parent(p_node, w.l_idx, w.l) {
                    self.discard(&guard, fresh);
                    guard.restart();
                    continue;
                }
                l_node.set_marked();
                p_node.slots[w.l_idx].store(fresh, Ordering::Release);
                p_node.lock.unlock();
                self.retire1(&guard, w.l);
                break true;
            }

            // Split path.
            let (left, right, sep) = self.leaf_split(l_node, key, value);
            if w.p == self.entry || p_node.len() == CAP {
                // Overflow: a fresh two-child internal absorbs the split
                // (parent keys unchanged, so only the parent lock is
                // needed).
                guard.enter_write_phase(&[w.p, w.l]);
                let l_addr = self.publish(&guard, left);
                let r_addr = self.publish(&guard, right);
                let mut np = Node::blank(false);
                np.len = 2;
                np.keys[0] = sep;
                np.slots[0] = AtomicUsize::new(l_addr);
                np.slots[1] = AtomicUsize::new(r_addr);
                let np_addr = self.publish(&guard, np);
                if !self.lock_parent(p_node, w.l_idx, w.l) {
                    self.discard(&guard, np_addr);
                    self.discard(&guard, l_addr);
                    self.discard(&guard, r_addr);
                    guard.restart();
                    continue;
                }
                l_node.set_marked();
                p_node.slots[w.l_idx].store(np_addr, Ordering::Release);
                p_node.lock.unlock();
                self.retire1(&guard, w.l);
                break true;
            }

            // Absorb: copy the parent with the split spliced in (2 retires).
            // SAFETY: protected by traversal; g != 0 because p != entry.
            let g_node = unsafe { node(w.g) };
            guard.enter_write_phase(&[w.g, w.p, w.l]);
            let l_addr = self.publish(&guard, left);
            let r_addr = self.publish(&guard, right);
            if !self.lock_two(g_node, w.p_idx, w.p, p_node, w.l_idx, w.l) {
                self.discard(&guard, l_addr);
                self.discard(&guard, r_addr);
                guard.restart();
                continue;
            }
            // The parent copy MUST be built while p's lock is held: p's
            // child slots are mutable, and copying them before the lock
            // would let a concurrent slot update vanish — resurrecting a
            // retired child (use-after-free).
            let p_new = self.publish(
                &guard,
                self.internal_copy_split(p_node, w.l_idx, l_addr, sep, r_addr),
            );
            p_node.set_marked();
            l_node.set_marked();
            g_node.slots[w.p_idx].store(p_new, Ordering::Release);
            p_node.lock.unlock();
            g_node.lock.unlock();
            self.retire2(&guard, w.p, w.l);
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
            // SAFETY: protected by traversal.
            let (p_node, l_node) = unsafe { (node(w.p), node(w.l)) };
            let Some(pos) = l_node.find(key) else {
                break false;
            };

            if l_node.len() > 1 || w.p == self.entry {
                // Replace the leaf (possibly by an empty one when it is the
                // root leaf).
                guard.enter_write_phase(&[w.p, w.l]);
                let fresh = self.publish(&guard, self.leaf_copy_remove(l_node, pos));
                if !self.lock_parent(p_node, w.l_idx, w.l) {
                    self.discard(&guard, fresh);
                    guard.restart();
                    continue;
                }
                l_node.set_marked();
                p_node.slots[w.l_idx].store(fresh, Ordering::Release);
                p_node.lock.unlock();
                self.retire1(&guard, w.l);
                break true;
            }

            // Leaf empties: restructure the parent.
            // SAFETY: g != 0 because p != entry.
            let g_node = unsafe { node(w.g) };
            guard.enter_write_phase(&[w.g, w.p, w.l]);
            if p_node.len() == 2 {
                // Collapse: the sibling subtree replaces the parent.
                if !self.lock_two(g_node, w.p_idx, w.p, p_node, w.l_idx, w.l) {
                    guard.restart();
                    continue;
                }
                let sibling = p_node.slots[1 - w.l_idx].load(Ordering::Acquire);
                p_node.set_marked();
                l_node.set_marked();
                g_node.slots[w.p_idx].store(sibling, Ordering::Release);
                p_node.lock.unlock();
                g_node.lock.unlock();
                self.retire2(&guard, w.p, w.l);
                break true;
            }
            // p.len > 2: copy the parent without this child.
            if !self.lock_two(g_node, w.p_idx, w.p, p_node, w.l_idx, w.l) {
                guard.restart();
                continue;
            }
            // Built under p's lock — see the split path for why.
            let p_new = self.publish(&guard, self.internal_copy_remove(p_node, w.l_idx));
            p_node.set_marked();
            l_node.set_marked();
            g_node.slots[w.p_idx].store(p_new, Ordering::Release);
            p_node.lock.unlock();
            g_node.lock.unlock();
            self.retire2(&guard, w.p, w.l);
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
            // SAFETY: protected by traversal; leaves are immutable.
            let l_node = unsafe { node(w.l) };
            break l_node
                .find(key)
                .map(|pos| l_node.slots[pos].load(Ordering::Acquire) as u64);
        };
        drop(guard);
        result
    }

    fn collect_keys(&self) -> Vec<u64> {
        let mut out = Vec::new();
        self.collect_rec(self.entry, &mut out);
        out.sort_unstable();
        out
    }

    fn check_invariants(&self) -> Result<(), String> {
        let mut report = Vec::new();
        self.check_rec(self.entry, 0, u64::MAX, &mut report);
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
        1
    }
}

impl Drop for AbTree {
    fn drop(&mut self) {
        self.smr.quiesce_and_drain();
        self.drop_rec(self.entry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epic_alloc::{build_allocator, AllocatorKind, CostModel};
    use epic_smr::{build_smr, SmrConfig, SmrKind};

    crate::conformance::conformance_suite!(Ab);

    /// Limbo-bag capacity of every test tree.
    const BAG_CAP: usize = 32;

    fn tree(kind: SmrKind, threads: usize) -> AbTree {
        let alloc = build_allocator(AllocatorKind::Sys, threads, CostModel::zero());
        let cfg = SmrConfig::new(threads).with_bag_cap(BAG_CAP);
        AbTree::new(build_smr(kind, alloc, cfg))
    }

    #[test]
    fn node_is_one_fat_block() {
        assert!(std::mem::size_of::<Node>() > 128 && std::mem::size_of::<Node>() <= 256);
    }

    #[test]
    fn splits_preserve_order_and_routing() {
        let t = tree(SmrKind::Debra, 1);
        let h = t.smr().register(0);
        // Insert far more than CAP keys in shuffled order to force splits
        // at multiple levels.
        let mut keys: Vec<u64> = (0..500).map(|i| (i * 7919) % 1000).collect();
        keys.sort_unstable();
        keys.dedup();
        let mut shuffled = keys.clone();
        shuffled.reverse();
        for (i, &k) in shuffled.iter().enumerate() {
            assert!(t.insert(&h, k, k * 2), "insert {k} at step {i}");
            if i % 64 == 0 {
                t.check_invariants().unwrap();
            }
        }
        assert_eq!(t.collect_keys(), keys);
        for &k in &keys {
            assert_eq!(t.get(&h, k), Some(k * 2));
        }
        t.check_invariants().unwrap();
    }

    #[test]
    fn deletes_shrink_back_to_empty() {
        let t = tree(SmrKind::Debra, 1);
        let h = t.smr().register(0);
        let keys: Vec<u64> = (0..300).collect();
        for &k in &keys {
            t.insert(&h, k, k);
        }
        for (i, &k) in keys.iter().enumerate() {
            assert!(t.remove(&h, k), "remove {k}");
            if i % 50 == 0 {
                t.check_invariants().unwrap();
            }
        }
        assert_eq!(t.size(), 0);
        t.check_invariants().unwrap();
        // And it still works afterwards.
        assert!(t.insert(&h, 42, 1));
        assert_eq!(t.get(&h, 42), Some(1));
    }

    #[test]
    fn updates_allocate_one_or_two_fat_nodes() {
        // The paper's §3 claim, as a test: steady-state inserts/deletes
        // allocate 1-2 nodes per op on average.
        let t = tree(SmrKind::Debra, 1);
        let h = t.smr().register(0);
        for k in 0..200 {
            t.insert(&h, k, k);
        }
        let before = t.alloc.snapshot().totals.allocs;
        let mut ops = 0u64;
        for round in 0..200u64 {
            let k = (round * 37) % 200;
            if round % 2 == 0 {
                t.remove(&h, k);
            } else {
                t.insert(&h, k, k);
            }
            ops += 1;
        }
        let allocs = t.alloc.snapshot().totals.allocs - before;
        let per_op = allocs as f64 / ops as f64;
        assert!(
            (0.5..=2.5).contains(&per_op),
            "expected ~1-2 allocs/op, measured {per_op:.2}"
        );
    }
}
