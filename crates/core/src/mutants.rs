//! Seeded mutants: deliberately broken protocol variants the model
//! checker must catch.
//!
//! The checker (`crates/check`) proves its teeth by killing these: each
//! mask bit, when set in the model's context (`epic_check::ctx`),
//! flips one known-load-bearing line of the reclamation protocols into
//! a subtly wrong variant. The model tests in
//! `crates/core/tests/model_check.rs` assert that exploration *fails*
//! with the bit set and *passes* without it.
//!
//! In normal builds (no `--cfg epic_model_check`) both helpers fold to
//! compile-time constants — [`active`] is `false`, [`ord`] is the
//! identity — so the hooks cost nothing and the hot-path code carries
//! no `#[cfg]` noise at the call sites.

use crate::sync::Ordering;

/// hp: publish the hazard slot with `Relaxed` instead of `SeqCst`. The
/// publish can then sit in the store buffer past the re-read
/// validation, so a concurrent scanner misses the hazard and frees a
/// protected block (Michael's classic requirement).
pub const M_HP_PUBLISH_RELAXED: u64 = 1;

/// ibr: bump the reservation upper bound with `Relaxed` instead of
/// `SeqCst`. A concurrent retirer's overlap scan can miss the extended
/// interval and free a block the reader is about to use.
pub const M_IBR_BUMP_RELAXED: u64 = 1 << 1;

/// qsbr: `detach` forgets to set the `QUIESCENT` bit. The departed thread
/// pins the fuzzy barrier forever, the global epoch stops advancing and
/// nothing is ever freed (a liveness failure the free-progress oracle
/// sees as a zero freed-delta).
pub const M_QSBR_DETACH_SKIP: u64 = 1 << 2;

/// RetiredList: `append` (the limbo-bag splice) forgets to reset the
/// source list, leaving both lists owning the same intrusive chain —
/// the double-free the free-count==1 oracle exists to catch.
pub const M_SPLICE_KEEP_SOURCE: u64 = 1 << 3;

/// he / wfe: publish the era slot with `Relaxed` instead of `SeqCst` —
/// he's single store, and wfe's enter and exit stores with the fence
/// between them dropped (`std` has no `Relaxed` fence). The era can then
/// sit in the store buffer past the re-read validation, so a concurrent
/// scan misses the reservation and frees a protected block.
pub const M_ERA_PUBLISH_RELAXED: u64 = 1 << 4;

/// debra / rcu / qsbr: the advance rule also accepts an in-operation
/// announcement of an *older* epoch. The epoch then runs past a reader
/// that is still inside its operation, and the bag holding a block the
/// reader loaded is freed under it.
pub const M_EPOCH_ADVANCE_UNOBSERVED: u64 = 1 << 5;

/// Whether mutant `mask` is active in the current model-check run.
/// Always `false` in normal builds.
#[cfg(epic_model_check)]
#[inline]
pub fn active(mask: u64) -> bool {
    epic_check::ctx() & mask != 0
}

/// Whether mutant `mask` is active in the current model-check run.
/// Always `false` in normal builds.
#[cfg(not(epic_model_check))]
#[inline(always)]
pub fn active(_mask: u64) -> bool {
    false
}

/// The memory ordering a hook site should use: `default` normally,
/// `Relaxed` when mutant `mask` is active. Identity in normal builds.
#[inline(always)]
pub fn ord(mask: u64, default: Ordering) -> Ordering {
    if active(mask) {
        Ordering::Relaxed
    } else {
        default
    }
}
