//! # epic-ds — the concurrent ordered maps of the paper's evaluation
//!
//! Three trees over pluggable SMR + allocator, chosen to reproduce the
//! paper's allocation profiles (§3, Fig. 1):
//!
//! * [`AbTree`] — leaf-oriented (a,b)-tree à la Brown: lock-free reads,
//!   copy-on-write leaves/internals. **Allocates 1–2 large (~240 B) nodes
//!   per insert or delete** — the structure whose garbage volume exposes
//!   the remote-batch-free problem.
//! * [`OccTree`] — Bronson-style partially-external BST with lock-free
//!   reads and per-node write locks. **Allocates one small (64 B) node per insert and
//!   nothing per delete** (two-child deletes leave a routing node) — the
//!   structure that keeps scaling in Fig. 1.
//! * [`DgtTree`] — the David–Guerraoui–Trigonakis external BST with
//!   per-node ticket locks (appendix D): insert allocates 2 nodes, delete
//!   unlinks 2.
//!
//! Plus one structure beyond the paper's evaluation, for generality
//! testing:
//!
//! * [`HmList`] — the canonical Harris–Michael lock-free sorted linked
//!   list (the paper cites Harris \[19\] as the origin of batched
//!   reclamation): 1 small node per insert, 1 retire per delete.
//!
//! ## SMR discipline
//!
//! Operations run against a thread-bound [`SmrHandle`] (DESIGN.md §7):
//! each hop is one [`OpGuard::protect_load`] call, which owns the whole
//! publish → re-read/validate → neutralization-poll protocol — the trees
//! never touch the raw tid-indexed scheme surface. Epoch/token schemes
//! compile a hop down to a plain `Acquire` load; slot/era schemes publish
//! through pointers the handle resolved once at registration.
//!
//! Nodes are plain-old-data carved from the pool allocator via
//! [`OpGuard::alloc`] (object pool + birth-era stamp fused); reclamation
//! is exactly "return the block". Trees free all remaining nodes on
//! `Drop`.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod abtree;
#[cfg(test)]
mod conformance;
pub mod dgt;
pub mod hmlist;
pub mod occ;

pub use abtree::AbTree;
pub use dgt::DgtTree;
pub use hmlist::HmList;
pub use occ::OccTree;

use epic_alloc::PoolAllocator;
use epic_smr::{OpGuard, Smr, SmrHandle};
use std::sync::Arc;

/// Largest usable key: the trees reserve `u64::MAX` (and `u64::MAX - 1`)
/// for sentinels.
pub const MAX_KEY: u64 = u64::MAX - 2;

/// Largest usable value: `u64::MAX` is the OCC tree's tombstone.
pub const MAX_VALUE: u64 = u64::MAX - 1;

/// The concurrent ordered-map interface the harness benchmarks.
///
/// All operations take the calling thread's [`SmrHandle`] (obtained once
/// per thread via [`Smr::register`]; same one-thread-per-tid contract as
/// the allocator). `size`, `collect_keys` and `check_invariants` require
/// quiescence — call them only when no other thread is operating.
pub trait ConcurrentMap: Send + Sync {
    /// Inserts `key → value`; returns true if the key was absent.
    fn insert(&self, h: &SmrHandle, key: u64, value: u64) -> bool;

    /// Removes `key`; returns true if it was present.
    fn remove(&self, h: &SmrHandle, key: u64) -> bool;

    /// Looks up `key`.
    fn get(&self, h: &SmrHandle, key: u64) -> Option<u64>;

    /// Membership test.
    fn contains(&self, h: &SmrHandle, key: u64) -> bool {
        self.get(h, key).is_some()
    }

    /// Number of keys (quiescent).
    fn size(&self) -> usize {
        self.collect_keys().len()
    }

    /// All keys in ascending order (quiescent).
    fn collect_keys(&self) -> Vec<u64>;

    /// Structural invariant check (quiescent); `Err` describes the first
    /// violation found.
    fn check_invariants(&self) -> Result<(), String>;

    /// The reclamation scheme in use.
    fn smr(&self) -> &Smr;

    /// Average nodes freed per delete — the paper's §7 guidance for tuning
    /// the amortized-free drain rate (`per_op`).
    fn frees_per_delete_hint(&self) -> usize;
}

/// Which map to build (harness configuration).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TreeKind {
    /// Brown-style (a,b)-tree.
    Ab,
    /// Bronson-style OCC BST.
    Occ,
    /// DGT ticket-lock external BST.
    Dgt,
    /// Harris–Michael lock-free sorted linked list.
    Hm,
}

impl TreeKind {
    /// Every map, in the order reports use.
    pub const ALL: [TreeKind; 4] = [TreeKind::Ab, TreeKind::Occ, TreeKind::Dgt, TreeKind::Hm];

    /// Parses "ab"/"abtree", "occ"/"occtree", "dgt", "hm"/"hmlist"/"list".
    pub fn parse(s: &str) -> Option<TreeKind> {
        match s.trim().to_ascii_lowercase().as_str() {
            "ab" | "abtree" => Some(TreeKind::Ab),
            "occ" | "occtree" => Some(TreeKind::Occ),
            "dgt" | "dgttree" => Some(TreeKind::Dgt),
            "hm" | "hmlist" | "list" => Some(TreeKind::Hm),
            _ => None,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            TreeKind::Ab => "abtree",
            TreeKind::Occ => "occtree",
            TreeKind::Dgt => "dgttree",
            TreeKind::Hm => "hmlist",
        }
    }
}

/// Builds a map of the given kind over `smr` (which carries the
/// allocator). Briefly registers tid 0 to allocate the sentinels, so no
/// tid-0 [`SmrHandle`] may be live at call time.
pub fn build_tree(kind: TreeKind, smr: Smr) -> Arc<dyn ConcurrentMap> {
    match kind {
        TreeKind::Ab => Arc::new(AbTree::new(smr)),
        TreeKind::Occ => Arc::new(OccTree::new(smr)),
        TreeKind::Dgt => Arc::new(DgtTree::new(smr)),
        TreeKind::Hm => Arc::new(HmList::new(smr)),
    }
}

/// Allocates and placement-initializes a node of type `T` through the
/// guard: object pool first (under [`epic_smr::FreeMode::Pooled`]), then
/// the allocator, with the scheme's birth-era stamp and amortized-free
/// tick already applied.
///
/// # Safety
/// `T` must be plain-old-data (no `Drop`), and the caller must eventually
/// either `retire` the node through the guard or return it with
/// [`dealloc_node`].
pub(crate) unsafe fn alloc_node<T>(g: &OpGuard<'_>, value: T) -> *mut T {
    let ptr = g.alloc(std::mem::size_of::<T>());
    let node = ptr.as_ptr() as *mut T;
    // SAFETY: a block of >= size_of::<T>() bytes (fresh, or recycled from
    // the same size class), 16-aligned (block layout), which satisfies the
    // trees' node alignments (<= 16). The header precedes user memory, so
    // the birth-era stamp `g.alloc` already wrote is untouched.
    unsafe { node.write(value) };
    node
}

/// Returns an *unpublished* node straight to the allocator (failed CAS /
/// validation paths — the node was never visible to other threads).
///
/// # Safety
/// `node` must come from [`alloc_node`] under the same handle and must not
/// have been published.
pub(crate) unsafe fn dealloc_node<T>(g: &OpGuard<'_>, node: *mut T) {
    // SAFETY: forwarded to caller; POD nodes need no drop.
    unsafe { g.dealloc_unpublished(std::ptr::NonNull::new_unchecked(node as *mut u8)) };
}

/// Frees a node during quiescent teardown (`Drop` walks), straight through
/// the allocator under tid 0.
///
/// # Safety
/// The caller must have exclusive access (drop/quiescence) and `node` must
/// be a live block of `alloc` freed exactly once.
pub(crate) unsafe fn free_node_quiescent<T>(alloc: &Arc<dyn PoolAllocator>, node: *mut T) {
    // SAFETY: forwarded to caller; POD nodes need no drop.
    unsafe {
        alloc.dealloc(0, std::ptr::NonNull::new_unchecked(node as *mut u8));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_kind_parse() {
        assert_eq!(TreeKind::parse("abtree"), Some(TreeKind::Ab));
        assert_eq!(TreeKind::parse("OCC"), Some(TreeKind::Occ));
        assert_eq!(TreeKind::parse("dgt"), Some(TreeKind::Dgt));
        assert_eq!(TreeKind::parse("xyz"), None);
        for k in TreeKind::ALL {
            assert_eq!(TreeKind::parse(k.name()), Some(k));
        }
    }
}
