//! # epic-smr — safe memory reclamation with batch vs amortized freeing
//!
//! The paper's core contribution, as a library:
//!
//! * **Amortized Free (AF)** (§3.3): every scheme here takes a
//!   [`FreeMode`] — `Batch` frees a safe batch immediately (the traditional
//!   "optimization" the paper shows is an anti-pattern), `Amortized` parks
//!   safe batches in a per-thread freeable list and frees a constant number
//!   of objects at each subsequent operation, letting the allocator's
//!   thread cache absorb and recycle them.
//! * **Token-EBR** (§4): epochs established by a token circulating a ring
//!   of threads, in all four variants of the paper (Naive, Pass-first,
//!   Periodic, and Amortized-free).
//! * The **comparison field** of §5: DEBRA, QSBR, RCU/EBR, hazard pointers,
//!   hazard eras, interval-based reclamation (2GE), NBR and NBR+
//!   (cooperative neutralization — see DESIGN.md for the signal
//!   substitution), a simplified WFE, and a leaky `none` baseline, in
//!   five modules ([`schemes`]), one per [`build_raw_smr`] arm.
//!
//! ## Using a scheme from a data structure
//!
//! The public surface is thread-bound (DESIGN.md §7): [`build_smr`]
//! returns a shared [`Smr`], each worker thread resolves its per-thread
//! state once with [`Smr::register`], and every operation runs under an
//! RAII [`OpGuard`] whose [`protect_load`](OpGuard::protect_load)
//! combinator owns the publish → re-read/validate → neutralization-poll
//! loop that slot-based schemes require:
//!
//! ```
//! use epic_alloc::{build_allocator, AllocatorKind, CostModel};
//! use epic_smr::{build_smr, SmrConfig, SmrKind};
//! use std::sync::atomic::AtomicUsize;
//!
//! let alloc = build_allocator(AllocatorKind::Sys, 1, CostModel::zero());
//! let smr = build_smr(SmrKind::Hp, alloc, SmrConfig::new(1));
//!
//! let handle = smr.register(0); // once per thread
//! {
//!     let guard = handle.begin_op(); // end_op on drop
//!     let node = guard.alloc(64); // pool-alloc + birth-era stamp fused
//!     let link = AtomicUsize::new(node.as_ptr() as usize);
//!     // One protected hop: publish, validate, poll — Err(Restart) means
//!     // drop every pointer and retry from the root.
//!     let next = guard.protect_load(0, &link).expect("not neutralized");
//!     guard.enter_write_phase(&[next]); // NBR write-phase immunity
//!     guard.retire(node); // freed once no thread can hold it
//! }
//! smr.quiesce_and_drain();
//! assert_eq!(smr.stats().freed + smr.stats().garbage, 1);
//! ```
//!
//! The tid-everywhere [`RawSmr`] trait behind the facade remains the
//! scheme-implementor surface (and the harness escape hatch for sweep
//! construction, stats, detach and teardown) — see [`Smr::raw`]. A scheme
//! implements its seven required methods; everything the schemes share is
//! provided over the embedded [`SchemeCommon`], and the per-hop protocol
//! is chosen by the [`SchemeLocal`] the scheme returns, never re-stated.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod common;
pub mod config;
pub mod freebuf;
pub mod handle;
pub mod mutants;
pub mod retired;
pub mod schemes;
pub mod smr_stats;
pub mod sync;

pub use common::SchemeCommon;
pub use config::{FreeMode, SmrConfig};
pub use handle::{OpGuard, Restart, SchemeLocal, Smr, SmrHandle, LINK_TAG_MASK};
pub use retired::RetiredList;
pub use smr_stats::SmrSnapshot;

use epic_alloc::{PoolAllocator, Tid};
use std::ptr::NonNull;
use std::sync::Arc;

/// The raw reclamation-scheme interface the schemes implement.
///
/// Methods take the caller's dense [`Tid`]; a given tid must be used by at
/// most one thread at a time (same contract as [`PoolAllocator`]). Data
/// structures do not call this directly — they go through the thread-bound
/// [`SmrHandle`]/[`OpGuard`] surface, which resolves
/// [`local`](RawSmr::local) once and keeps the per-hop protocol
/// ([`OpGuard::protect_load`]) free of tid re-indexing and dyn dispatch.
///
/// A scheme states only what differs from its siblings: the seven required
/// methods below. Everything every scheme does the same way (statistics,
/// naming, the allocator, the object pool, the amortized-free tick) is
/// provided over [`common`](RawSmr::common), and the per-hop protection
/// protocol is selected by the [`SchemeLocal`] that
/// [`local`](RawSmr::local) returns — there is no second, tid-indexed
/// copy of it on this trait.
pub trait RawSmr: Send + Sync {
    /// The shared state every scheme embeds; the provided methods below
    /// are all written over it.
    fn common(&self) -> &SchemeCommon;

    /// The scheme's kind tag.
    fn kind(&self) -> SmrKind;

    /// Begins a data-structure operation: publishes whatever the scheme
    /// needs (epoch announcement, token check, reservation reset) and
    /// drains the amortized-free list by the configured per-op count.
    fn begin_op(&self, tid: Tid);

    /// Ends the operation (clears reservations, marks quiescence).
    fn end_op(&self, tid: Tid);

    /// Retires an unlinked node: it will be freed once no thread can hold a
    /// reference, via the configured [`FreeMode`].
    fn retire(&self, tid: Tid, ptr: NonNull<u8>);

    /// Announces that `tid` is leaving the workload (worker shutdown).
    /// Grace-period schemes treat detached threads as permanently
    /// quiescent so stragglers cannot block reclamation; Token-EBR removes
    /// the thread from the ring, forwarding any held token. Call outside
    /// any operation; the tid must not run further operations until it
    /// registers again.
    fn detach(&self, tid: Tid);

    /// Teardown: with all worker threads quiescent, frees every object
    /// still held in limbo bags and freeable lists. Callers must guarantee
    /// no concurrent data-structure access.
    fn quiesce_and_drain(&self);

    /// The scheme's per-thread fast path for `tid`, captured by each
    /// [`Smr::register`] before the tid's first operation (Token-EBR
    /// re-admits a detached tid to its ring here); it selects the protocol
    /// [`OpGuard::protect_load`] runs for this scheme. The default —
    /// [`SchemeLocal::passive`] — is right for every scheme whose grace
    /// period covers the whole operation (epoch/token/QSBR/leak).
    /// Slot/era schemes return a pointer-caching variant, which must stay
    /// valid for the scheme's lifetime and reference only state owned by
    /// `tid` (plus global clocks).
    fn local(&self, tid: Tid) -> SchemeLocal {
        let _ = tid;
        SchemeLocal::passive()
    }

    /// Hook invoked right after allocating a node. The default runs the
    /// amortized-free tick; era-based schemes additionally stamp the
    /// block's birth era.
    fn on_alloc(&self, tid: Tid, ptr: NonNull<u8>) {
        let _ = ptr;
        self.common().tick(tid);
    }

    /// Neutralization poll (NBR): returns true if the thread has been asked
    /// to restart its operation. The caller must drop every data-structure
    /// pointer it holds and restart from the root. Schemes without
    /// neutralization keep the default (never).
    fn poll_restart(&self, tid: Tid) -> bool {
        let _ = tid;
        false
    }

    /// Declares the pointers the thread will dereference during its write
    /// phase (NBR): after this call the thread is immune to neutralization
    /// until `end_op`. No-op for other schemes.
    fn enter_write_phase(&self, tid: Tid, ptrs: &[usize]) {
        let _ = (tid, ptrs);
    }

    /// Serves an allocation from the thread's object pool when the scheme
    /// runs in [`FreeMode::Pooled`]. `None` (the answer in every other
    /// mode) means "allocate from the allocator". Callers must still
    /// invoke [`on_alloc`](RawSmr::on_alloc) on the returned block.
    fn try_pool_alloc(&self, tid: Tid, size: usize) -> Option<NonNull<u8>> {
        self.common().pool_alloc(tid, size)
    }

    /// Aggregated scheme statistics.
    fn stats(&self) -> SmrSnapshot {
        self.common().stats.snapshot()
    }

    /// Resets statistics between trials.
    fn reset_stats(&self) {
        self.common().stats.reset();
    }

    /// Scheme name including the free-mode suffix (e.g. `"debra_af"`).
    /// Cached at construction — hot per-trial stats paths may call this
    /// freely.
    fn name(&self) -> &str {
        self.common().name()
    }

    /// Number of participating threads (dense tids `0..max_threads`).
    fn max_threads(&self) -> usize {
        self.common().n_threads()
    }

    /// The allocator this scheme frees through.
    fn allocator(&self) -> &Arc<dyn PoolAllocator> {
        &self.common().alloc
    }
}

/// Identifies a reclamation scheme (the paper's ten plus the token
/// variants and the leaky baseline).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum SmrKind {
    None,
    Qsbr,
    Rcu,
    Debra,
    TokenNaive,
    TokenPassFirst,
    TokenPeriodic,
    Hp,
    He,
    Ibr,
    Nbr,
    NbrPlus,
    Wfe,
}

impl SmrKind {
    /// Every scheme the factory knows, leaky baseline included, in
    /// declaration order. Sweeps and exhaustiveness tests should iterate
    /// this instead of hand-maintaining their own 13-kind lists.
    pub const ALL: [SmrKind; 13] = [
        SmrKind::None,
        SmrKind::Qsbr,
        SmrKind::Rcu,
        SmrKind::Debra,
        SmrKind::TokenNaive,
        SmrKind::TokenPassFirst,
        SmrKind::TokenPeriodic,
        SmrKind::Hp,
        SmrKind::He,
        SmrKind::Ibr,
        SmrKind::Nbr,
        SmrKind::NbrPlus,
        SmrKind::Wfe,
    ];

    /// The ten schemes of the paper's Experiment 2 (Fig. 11b), in its
    /// display order. `TokenPeriodic` is the "token" row (token_af when
    /// amortized).
    pub const EXPERIMENT2: [SmrKind; 10] = [
        SmrKind::Debra,
        SmrKind::He,
        SmrKind::Hp,
        SmrKind::Ibr,
        SmrKind::Nbr,
        SmrKind::NbrPlus,
        SmrKind::Qsbr,
        SmrKind::Rcu,
        SmrKind::TokenPeriodic,
        SmrKind::Wfe,
    ];

    /// Base name without free-mode suffix.
    pub fn base_name(self) -> &'static str {
        match self {
            SmrKind::None => "none",
            SmrKind::Qsbr => "qsbr",
            SmrKind::Rcu => "rcu",
            SmrKind::Debra => "debra",
            SmrKind::TokenNaive => "token_naive",
            SmrKind::TokenPassFirst => "token_passfirst",
            SmrKind::TokenPeriodic => "token",
            SmrKind::Hp => "hp",
            SmrKind::He => "he",
            SmrKind::Ibr => "ibr",
            SmrKind::Nbr => "nbr",
            SmrKind::NbrPlus => "nbr+",
            SmrKind::Wfe => "wfe",
        }
    }

    /// Parses a base name (as printed by [`base_name`](Self::base_name)).
    pub fn parse(s: &str) -> Option<SmrKind> {
        match s.trim().to_ascii_lowercase().as_str() {
            "none" | "leak" => Some(SmrKind::None),
            "qsbr" => Some(SmrKind::Qsbr),
            "rcu" | "ebr" => Some(SmrKind::Rcu),
            "debra" => Some(SmrKind::Debra),
            "token_naive" => Some(SmrKind::TokenNaive),
            "token_passfirst" => Some(SmrKind::TokenPassFirst),
            "token" | "token_periodic" => Some(SmrKind::TokenPeriodic),
            "hp" => Some(SmrKind::Hp),
            "he" => Some(SmrKind::He),
            "ibr" => Some(SmrKind::Ibr),
            "nbr" => Some(SmrKind::Nbr),
            "nbr+" | "nbrplus" => Some(SmrKind::NbrPlus),
            "wfe" => Some(SmrKind::Wfe),
            _ => None,
        }
    }
}

/// Builds a raw scheme over `alloc` with configuration `cfg` (the
/// [`build_smr`] internals, exposed for callers that drive tids
/// themselves).
pub fn build_raw_smr(
    kind: SmrKind,
    alloc: Arc<dyn PoolAllocator>,
    cfg: SmrConfig,
) -> Arc<dyn RawSmr> {
    match kind {
        SmrKind::None => Arc::new(schemes::leak::LeakSmr::new(alloc, cfg)),
        SmrKind::Qsbr | SmrKind::Rcu | SmrKind::Debra => {
            Arc::new(schemes::epoch::EpochSmr::new(alloc, cfg, kind))
        }
        SmrKind::TokenNaive | SmrKind::TokenPassFirst | SmrKind::TokenPeriodic => {
            Arc::new(schemes::token::TokenSmr::new(alloc, cfg, kind))
        }
        SmrKind::He | SmrKind::Wfe | SmrKind::Ibr => {
            Arc::new(schemes::era::EraSmr::new(alloc, cfg, kind))
        }
        SmrKind::Hp | SmrKind::Nbr | SmrKind::NbrPlus => {
            Arc::new(schemes::hazard::HazardSmr::new(alloc, cfg, kind))
        }
    }
}

/// Builds a reclamation scheme over `alloc` with configuration `cfg`.
pub fn build_smr(kind: SmrKind, alloc: Arc<dyn PoolAllocator>, cfg: SmrConfig) -> Smr {
    Smr::from_raw(build_raw_smr(kind, alloc, cfg))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_roundtrip() {
        for kind in SmrKind::ALL {
            assert_eq!(SmrKind::parse(kind.base_name()), Some(kind), "{kind:?}");
        }
        assert_eq!(SmrKind::parse("unknown"), None);
    }

    #[test]
    fn all_is_complete_and_distinct() {
        let set: std::collections::HashSet<_> = SmrKind::ALL.iter().collect();
        assert_eq!(set.len(), SmrKind::ALL.len());
        for kind in SmrKind::EXPERIMENT2 {
            assert!(SmrKind::ALL.contains(&kind), "{kind:?} missing from ALL");
        }
    }

    #[test]
    fn experiment2_has_ten_schemes() {
        assert_eq!(SmrKind::EXPERIMENT2.len(), 10);
        let set: std::collections::HashSet<_> = SmrKind::EXPERIMENT2.iter().collect();
        assert_eq!(set.len(), 10);
    }

    #[test]
    fn factory_agrees_with_kind_tags() {
        use epic_alloc::{build_allocator, AllocatorKind, CostModel};
        for kind in SmrKind::ALL {
            let alloc = build_allocator(AllocatorKind::Sys, 1, CostModel::zero());
            let smr = build_smr(kind, alloc, SmrConfig::new(1));
            assert_eq!(smr.kind(), kind);
            // Batch mode has no suffix: the cached name must be exactly the
            // kind's base name (pins the per-constructor base strings).
            assert_eq!(smr.name(), kind.base_name());
            assert_eq!(smr.raw().max_threads(), 1);
        }
    }
}
