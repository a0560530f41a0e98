//! # epic-alloc
//!
//! A real concurrent pool allocator with free-path *models* reproducing the
//! allocator designs the paper studies (§2, §3.2, Appendix B):
//!
//! * one **thread-cache** model behind [`AllocatorKind::Je`],
//!   [`AllocatorKind::JeIncr`] and [`AllocatorKind::Tc`]: bounded
//!   per-thread caches per size class whose overflow flushes ~3/4 of the
//!   bin into a locked backing store, sweeping the whole flush batch per
//!   lock, the structure of `je_tcache_bin_flush_small` whose cost Table 1
//!   of the paper dissects. Its two backings differ only in where a
//!   flushed block goes: jemalloc-style, to its owning **arena** (one of
//!   4×ncpu); tcmalloc-style, to one **global central free list per size
//!   class**, so all threads flushing the same size class serialize on one
//!   lock (worse than jemalloc, matching Table 3);
//! * [`MiModel`] — mimalloc-style: **per-page free lists**; a remote free is
//!   a single CAS push onto the page's cross-thread list, so contention only
//!   occurs when two threads free to the *same page* simultaneously — which
//!   is why mimalloc sidesteps the RBF problem (Table 3);
//! * [`SysModel`] — passthrough to the Rust global allocator (baseline).
//!
//! All models share a [`ChunkStore`] substrate: memory is carved out of
//! large chunks that are only unmapped when the allocator is dropped, and the
//! running total of chunk bytes is the **peak memory** metric of Figures 1,
//! 5 and 10.
//!
//! ## Cost model
//!
//! The paper ran on a 4-socket Xeon where returning an object to a remote
//! socket's arena costs a coherence miss (hundreds of ns). This container has
//! 2 cores and 1 socket, so [`CostModel`] adds a calibrated busy-spin per
//! *remote* object processed while the bin lock is held. Lock contention
//! itself is real: the thread-cache model's depots are ticket spin locks
//! ([`SpinBin`](spinbin::SpinBin)), so waiters burn CPU as they do under
//! jemalloc. See DESIGN.md §2 for the substitution argument.
//!
//! ## Safety
//!
//! Blocks handed out by [`PoolAllocator::alloc`] stay mapped until the
//! allocator is dropped, so a use-after-free caused by a buggy reclamation
//! scheme reads stale memory rather than faulting. Debug builds poison freed
//! blocks with `0xDE` so logical corruption is loud.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod block;
mod cached;
pub mod chunks;
pub mod classes;
pub mod cost;
pub mod mi;
pub mod spinbin;
pub mod stats;
pub mod sync;
pub mod sys;
pub mod tcache;

// The thread-cache model's tests, grouped by backing: `je::tests` runs the
// arenas (`je`, `je_incr`), `tc::tests` the central lists.
#[cfg(test)]
mod je {
    mod tests;
}
#[cfg(test)]
mod tc {
    mod tests;
}

pub use block::BlockHeader;
pub use chunks::ChunkStore;
pub use classes::{class_of, size_of_class, NUM_CLASSES};
pub use cost::{CostModel, MachinePreset};
pub use mi::MiModel;
pub use stats::{AllocSnapshot, ThreadAllocStats};
pub use sys::SysModel;

use cached::CachedModel;
use std::ptr::NonNull;
use std::sync::Arc;

/// Thread identifier: dense indices `0..max_threads` assigned by the caller
/// (the SMR registry hands these out).
pub type Tid = usize;

/// The allocator interface the data structures and SMR schemes program
/// against.
///
/// Implementations are the thread-cache model behind `je`, `je_incr` and
/// `tc` (built by [`build_allocator`]), [`MiModel`] and the passthrough
/// [`SysModel`]. All methods take the caller's [`Tid`]; per-thread
/// fast paths are keyed by it, and **a given tid must only ever be used from
/// one thread at a time**.
pub trait PoolAllocator: Send + Sync {
    /// Allocates `size` bytes, returning a pointer to uninitialized user
    /// memory. `size` must be ≤ the largest size class.
    fn alloc(&self, tid: Tid, size: usize) -> NonNull<u8>;

    /// Returns a block previously obtained from [`alloc`](Self::alloc) on
    /// this allocator.
    ///
    /// The pointer must come from this allocator and must not be freed twice
    /// (checked by poisoning in debug builds).
    fn dealloc(&self, tid: Tid, ptr: NonNull<u8>);

    /// Aggregated statistics across all threads.
    fn snapshot(&self) -> AllocSnapshot;

    /// Statistics for one thread.
    fn thread_stats(&self, tid: Tid) -> ThreadAllocStats;

    /// Total bytes of chunk memory ever obtained from the OS — the paper's
    /// *peak memory* metric (chunks are never returned until drop).
    fn peak_bytes(&self) -> usize;

    /// Human-readable model name ("je", "tc", "mi", "sys").
    fn name(&self) -> &'static str;

    /// Resets per-thread and global counters (not memory) between trials.
    fn reset_stats(&self);
}

/// Which allocator model to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AllocatorKind {
    /// jemalloc-style arenas + thread caches.
    Je,
    /// The incremental-flush jemalloc variant: overflows return a small
    /// quantum of blocks instead of 3/4 of the bin — the allocator-side
    /// fix the paper's footnote 3 proposes as future work
    /// (`ablation_allocator_fix` quantifies it).
    JeIncr,
    /// tcmalloc-style central free lists + thread caches.
    Tc,
    /// mimalloc-style per-page free lists.
    Mi,
    /// Passthrough to the Rust global allocator (baseline).
    Sys,
}

/// Overflow quantum of the [`AllocatorKind::JeIncr`] model: small enough
/// that critical sections stay short, large enough that overflow checks
/// amortize.
pub const JE_INCR_QUANTUM: usize = 16;

impl AllocatorKind {
    /// The models of the paper's Table 3, in order.
    pub const ALL: [AllocatorKind; 3] = [AllocatorKind::Je, AllocatorKind::Tc, AllocatorKind::Mi];

    /// Parses "je" / "je_incr" / "tc" / "mi" / "sys".
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "je" | "jemalloc" => Some(AllocatorKind::Je),
            "je_incr" | "jeincr" | "je-incr" => Some(AllocatorKind::JeIncr),
            "tc" | "tcmalloc" => Some(AllocatorKind::Tc),
            "mi" | "mimalloc" => Some(AllocatorKind::Mi),
            "sys" | "system" => Some(AllocatorKind::Sys),
            _ => None,
        }
    }

    /// The model's short name.
    pub fn name(self) -> &'static str {
        match self {
            AllocatorKind::Je => "je",
            AllocatorKind::JeIncr => "je_incr",
            AllocatorKind::Tc => "tc",
            AllocatorKind::Mi => "mi",
            AllocatorKind::Sys => "sys",
        }
    }
}

/// Builds an allocator of the given kind for up to `max_threads` threads.
pub fn build_allocator(
    kind: AllocatorKind,
    max_threads: usize,
    cost: CostModel,
) -> Arc<dyn PoolAllocator> {
    build_allocator_with(kind, max_threads, cost, None)
}

/// Like [`build_allocator`] but with an explicit thread-cache capacity for
/// `je`, `je_incr` and `tc` (`None` =
/// [`DEFAULT_TCACHE_CAP`](tcache::DEFAULT_TCACHE_CAP)); `mi` and `sys`
/// ignore it. The `ablation_tcache_cap` bench sweeps this.
pub fn build_allocator_with(
    kind: AllocatorKind,
    max_threads: usize,
    cost: CostModel,
    tcache_cap: Option<usize>,
) -> Arc<dyn PoolAllocator> {
    match kind {
        AllocatorKind::Je | AllocatorKind::JeIncr | AllocatorKind::Tc => {
            Arc::new(CachedModel::new(
                kind,
                max_threads,
                cost,
                tcache_cap.unwrap_or(tcache::DEFAULT_TCACHE_CAP),
            ))
        }
        AllocatorKind::Mi => Arc::new(MiModel::new(max_threads)),
        AllocatorKind::Sys => Arc::new(SysModel::new(max_threads)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EVERY_KIND: [AllocatorKind; 5] = [
        AllocatorKind::Je,
        AllocatorKind::JeIncr,
        AllocatorKind::Tc,
        AllocatorKind::Mi,
        AllocatorKind::Sys,
    ];

    #[test]
    fn kind_parse_roundtrip() {
        for kind in EVERY_KIND {
            assert_eq!(AllocatorKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(AllocatorKind::parse("JEMALLOC"), Some(AllocatorKind::Je));
        assert_eq!(AllocatorKind::parse("bogus"), None);
    }

    #[test]
    fn factory_builds_every_kind() {
        for kind in EVERY_KIND {
            let a = build_allocator(kind, 2, CostModel::zero());
            assert_eq!(a.name(), kind.name());
            let p = a.alloc(0, 64);
            a.dealloc(0, p);
        }
    }

    #[test]
    fn table3_field_excludes_variants() {
        // Table 3 compares the three allocators of the paper; the
        // incremental variant belongs to the ablation only.
        assert!(!AllocatorKind::ALL.contains(&AllocatorKind::JeIncr));
        assert_eq!(AllocatorKind::ALL.len(), 3);
    }
}
