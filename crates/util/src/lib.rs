//! # epic-util
//!
//! Shared low-level utilities for the *epochs-too-epic* workspace: cache-line
//! padding, exponential backoff, spin locks (ticket and sequence locks), fast
//! non-cryptographic RNGs, system topology discovery, monotonic timing,
//! streaming statistics, and the counting global allocator behind the
//! zero-allocation gate.
//!
//! Everything in this crate is `no_std`-style in spirit (no allocation on hot
//! paths) but uses `std` for threads and time.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod backoff;
pub mod cache_padded;
pub mod counting_alloc;
pub mod json;
pub mod locks;
pub mod rng;
pub mod slotblocks;
pub mod stats;
pub mod tidslots;
pub mod timeutil;
pub mod topology;

pub use backoff::Backoff;
pub use cache_padded::CachePadded;
pub use counting_alloc::CountingAlloc;
pub use json::Json;
pub use locks::{SeqLock, TicketLock};
pub use rng::{SplitMix64, XorShift64, Zipfian};
pub use slotblocks::SlotBlocks;
pub use stats::{LogHistogram, OnlineStats};
pub use tidslots::TidSlots;
pub use timeutil::{busy_spin_ns, now_ns, Clock};
pub use topology::Topology;
