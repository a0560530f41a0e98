//! Atomics used by the reclamation hot paths, swappable for model
//! checking.
//!
//! Normal builds re-export `std::sync::atomic` — zero cost, identical
//! codegen. Under `RUSTFLAGS="--cfg epic_model_check"` the same names
//! come from `epic_check::atomic`: instrumented shims that yield to
//! epic-check's controlled scheduler at every access and model TSO
//! store buffers, so the scheme protocols (hazard publication, era
//! bumps, limbo-bag splicing, epoch announcements) can be exhaustively
//! interleaved and replayed from a seed. See DESIGN.md §9.

#[cfg(not(epic_model_check))]
pub use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize};

#[cfg(epic_model_check)]
pub use epic_check::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize};

pub use std::sync::atomic::Ordering;
