//! The allocator's atomics facade, re-exported so one cfg decides for both crates (DESIGN.md §9).

pub use epic_alloc::sync::*;
