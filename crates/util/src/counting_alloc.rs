//! A `#[global_allocator]` that counts one thread's process-heap
//! allocation calls.
//!
//! The reproduction measures what a reclamation scheme does to the
//! *modelled* allocator, so the retire pipeline and the per-hop protection
//! path must never reach the process heap themselves (DESIGN.md §2.4).
//! A binary that installs [`CountingAlloc`] observes that from below:
//! [`CountingAlloc::count`] returns the exact number of `alloc` calls the
//! calling thread made inside a closure. Other threads (libtest's, a
//! parallel test's) never count, so the number is exact under `cargo test`'s
//! default parallelism.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// `Some(n)` while this thread is inside [`CountingAlloc::count`] and
    /// has made `n` allocation calls there. `const` + no destructor: the
    /// allocator may touch it at any point of a thread's life.
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Pass-through to [`System`] that counts `alloc` calls of tracked threads.
/// `realloc` and `alloc_zeroed` are the trait defaults, which route through
/// `alloc`, so each counts once.
pub struct CountingAlloc;

// SAFETY: pure pass-through to `System` plus a thread-local counter bump
// that neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: a thread past its TLS teardown still allocates.
        let _ = COUNT.try_with(|c| c.set(c.get().map(|n| n + 1)));
        // SAFETY: forwarded contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

impl CountingAlloc {
    /// Runs `f` and returns its result with the number of process-heap
    /// allocation calls this thread made inside it. Always 0 in a binary
    /// whose `#[global_allocator]` is not a [`CountingAlloc`]. A nested
    /// call's allocations count in the enclosing one too.
    pub fn count<R>(f: impl FnOnce() -> R) -> (R, u64) {
        let outer = COUNT.replace(Some(0));
        let r = f();
        let n = COUNT.get().unwrap_or(0);
        COUNT.set(outer.map(|m| m + n));
        (r, n)
    }
}
