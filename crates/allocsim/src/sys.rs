//! Passthrough model: straight to the Rust global allocator.
//!
//! A baseline for the pool models and a sanity harness for the data-structure
//! tests (it has no caches, so every SMR bug surfaces immediately under
//! tools like ASan instead of being masked by pooling). Keeps the same
//! header layout so `dealloc` can recover the layout, and counts live bytes
//! for peak-memory reporting.

use crate::block::{span_bytes, BlockHeader, HEADER_SIZE};
use crate::classes::class_of;
use crate::stats::{AllocSnapshot, PerThread, ThreadAllocStats};
use crate::{PoolAllocator, Tid};

use std::alloc::{alloc, dealloc, Layout};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Global-allocator passthrough. See module docs.
pub struct SysModel {
    counters: PerThread,
    live_bytes: AtomicUsize,
    peak_bytes: AtomicUsize,
}

impl SysModel {
    /// Builds the passthrough model.
    pub fn new(max_threads: usize) -> Self {
        SysModel {
            counters: PerThread::new(max_threads),
            live_bytes: AtomicUsize::new(0),
            peak_bytes: AtomicUsize::new(0),
        }
    }

    fn layout_for(class: usize) -> Layout {
        Layout::from_size_align(span_bytes(class), 16).expect("block layout")
    }
}

impl PoolAllocator for SysModel {
    fn alloc(&self, tid: Tid, size: usize) -> NonNull<u8> {
        let class = class_of(size);
        let counters = self.counters.get(tid);
        let timed = counters.on_alloc();
        let clock = timed.then(epic_util::Clock::start);

        let layout = Self::layout_for(class);
        // SAFETY: non-zero layout.
        let raw = unsafe { alloc(layout) };
        assert!(!raw.is_null(), "system allocation failed");
        // SAFETY: fresh allocation large enough for the header.
        unsafe { BlockHeader::init(raw as *mut BlockHeader, u32::MAX, class as u32) };

        let live = self.live_bytes.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
        self.peak_bytes.fetch_max(live, Ordering::Relaxed);

        if let Some(c) = clock {
            counters.add_sampled_alloc_ns(c.elapsed_ns());
        }
        // SAFETY: raw + HEADER_SIZE is within the allocation and non-null.
        unsafe { NonNull::new_unchecked(raw.add(HEADER_SIZE)) }
    }

    fn dealloc(&self, tid: Tid, ptr: NonNull<u8>) {
        let counters = self.counters.get(tid);
        let timed = counters.on_dealloc();
        let clock = timed.then(epic_util::Clock::start);

        // SAFETY: ptr was produced by this allocator per the contract.
        let hdr = unsafe { BlockHeader::from_user(ptr) };
        let class = hdr.class as usize;
        #[cfg(debug_assertions)]
        // SAFETY: freed user area is dead.
        unsafe {
            std::ptr::write_bytes(
                ptr.as_ptr(),
                crate::block::POISON,
                crate::classes::size_of_class(class),
            );
        }
        let layout = Self::layout_for(class);
        self.live_bytes.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: block was allocated with exactly this layout in `alloc`.
        unsafe { dealloc(ptr.as_ptr().sub(HEADER_SIZE), layout) };
        if let Some(c) = clock {
            counters.add_sampled_free_ns(c.elapsed_ns());
        }
    }

    fn snapshot(&self) -> AllocSnapshot {
        AllocSnapshot {
            totals: self.counters.sum(),
            peak_bytes: self.peak_bytes.load(Ordering::Relaxed),
            chunks: 0,
        }
    }

    fn thread_stats(&self, tid: Tid) -> ThreadAllocStats {
        self.counters.get(tid).snapshot()
    }

    fn peak_bytes(&self) -> usize {
        self.peak_bytes.load(Ordering::Relaxed)
    }

    fn name(&self) -> &'static str {
        "sys"
    }

    fn reset_stats(&self) {
        self.counters.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_peak_tracking() {
        let m = SysModel::new(1);
        let p = m.alloc(0, 64);
        let peak_with_one = m.peak_bytes();
        assert!(peak_with_one >= 64 + HEADER_SIZE);
        m.dealloc(0, p);
        // Peak is sticky.
        assert_eq!(m.peak_bytes(), peak_with_one);
        let s = m.thread_stats(0);
        assert_eq!(s.allocs, 1);
        assert_eq!(s.deallocs, 1);
    }

    #[test]
    fn many_blocks_distinct() {
        let m = SysModel::new(1);
        let ptrs: Vec<_> = (0..100).map(|_| m.alloc(0, 48)).collect();
        let set: std::collections::HashSet<usize> =
            ptrs.iter().map(|p| p.as_ptr() as usize).collect();
        assert_eq!(set.len(), 100);
        for p in ptrs {
            m.dealloc(0, p);
        }
    }
}
