//! The mimalloc-style model.
//!
//! Per Appendix B of the paper: free lists are sharded **per page**, not per
//! thread or per class. Each page has three lists — an allocation list, a
//! local free list (owner thread only, no synchronization) and a
//! *cross-thread* free list (remote frees CAS-push onto it). When the owner
//! runs out, it atomically collects the cross-thread list.
//!
//! A remote free is therefore one CAS on the target page's list head:
//! contention arises only if two threads simultaneously free blocks of the
//! *same page*. This is why "MImalloc sidesteps the problem altogether"
//! (§3.3, Table 3) and why amortized freeing does not help it.

use crate::block::{prefetch_span, span_bytes, BlockHeader, BlockList};
use crate::chunks::ChunkStore;
use crate::classes::{class_of, NUM_CLASSES};
use crate::stats::{AllocSnapshot, PerThread, ThreadAllocStats};
use crate::{PoolAllocator, Tid};

use epic_util::{Backoff, TidSlots};
use std::cell::UnsafeCell;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};

/// Bytes per page region (mimalloc small pages are 64 KiB).
pub const PAGE_BYTES: usize = 64 * 1024;

/// Maximum number of pages the registry can hold (64 KiB × 65536 = 4 GiB of
/// pool memory, far beyond any experiment here).
const MAX_PAGES: usize = 1 << 16;

/// One mimalloc-style page: a 64 KiB region of blocks of a single class.
struct Page {
    /// Owning thread; only this thread touches `local` and `bump`.
    owner_tid: u32,
    /// Local free list — owner-only, unsynchronized.
    local: UnsafeCell<BlockList>,
    /// Cross-thread free list head (Treiber stack of header addrs).
    thread_free: AtomicUsize,
    /// Bump state within the page region — owner-only.
    bump: UnsafeCell<(usize, usize)>, // (cursor, end)
}

// SAFETY: `local` and `bump` are only accessed by `owner_tid`'s thread;
// `thread_free` is atomic. The registry hands out shared references.
unsafe impl Sync for Page {}
unsafe impl Send for Page {}

impl Page {
    /// Remote-frees a block onto this page's cross-thread list (lock-free).
    fn push_remote(&self, hdr: &'static BlockHeader) {
        let backoff = Backoff::new();
        let mut head = self.thread_free.load(Ordering::Relaxed);
        loop {
            hdr.next.store(head, Ordering::Relaxed);
            match self.thread_free.compare_exchange_weak(
                head,
                hdr.addr(),
                Ordering::Release,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(h) => {
                    head = h;
                    backoff.spin();
                }
            }
        }
    }

    /// Owner-only: the header address of the class-`class` block this page
    /// hands out next unless a free to it lands first: the local list's
    /// head, else the next bump carve if it still fits the page region.
    /// Loads nothing from the block.
    ///
    /// # Safety
    /// Must be called by the owning thread only.
    unsafe fn next_handout(&self, class: usize) -> Option<usize> {
        // SAFETY: owner-only access to `local` and `bump`.
        let (local, &(cursor, end)) = unsafe { (&*self.local.get(), &*self.bump.get()) };
        local
            .peek_addr()
            .or_else(|| (end - cursor >= span_bytes(class)).then_some(cursor))
    }
}

/// Per-thread, per-class allocation state: the pages this thread owns for
/// that class, and which one it is currently allocating from.
struct MiBin {
    pages: Vec<u32>,
    current: usize,
}

struct MiThread {
    bins: [MiBin; NUM_CLASSES],
}

/// mimalloc-style pool allocator. See module docs.
pub struct MiModel {
    store: ChunkStore,
    pages: Box<[AtomicPtr<Page>]>,
    page_count: AtomicUsize,
    threads: TidSlots<MiThread>,
    counters: PerThread,
}

impl MiModel {
    /// Builds the model.
    pub fn new(max_threads: usize) -> Self {
        let pages = (0..MAX_PAGES)
            .map(|_| AtomicPtr::new(std::ptr::null_mut()))
            .collect::<Vec<_>>();
        MiModel {
            store: ChunkStore::new(),
            pages: pages.into_boxed_slice(),
            page_count: AtomicUsize::new(0),
            threads: TidSlots::new_with(max_threads, |_| MiThread {
                bins: std::array::from_fn(|_| MiBin {
                    pages: Vec::new(),
                    current: 0,
                }),
            }),
            counters: PerThread::new(max_threads),
        }
    }

    /// Number of pages created so far.
    pub fn page_count(&self) -> usize {
        self.page_count.load(Ordering::Relaxed)
    }

    fn page(&self, id: u32) -> &Page {
        let p = self.pages[id as usize].load(Ordering::Acquire);
        debug_assert!(!p.is_null(), "page id {id} not registered");
        // SAFETY: pages are registered before their id escapes into any
        // block header and are only freed on model drop.
        unsafe { &*p }
    }

    /// Creates a fresh page owned by `tid` and registers it.
    fn new_page(&self, tid: Tid) -> u32 {
        let region = self.store.grab_sized(PAGE_BYTES) as usize;
        let id = self.page_count.fetch_add(1, Ordering::Relaxed);
        assert!(id < MAX_PAGES, "page registry exhausted");
        let page = Box::new(Page {
            owner_tid: tid as u32,
            local: UnsafeCell::new(BlockList::new()),
            thread_free: AtomicUsize::new(0),
            bump: UnsafeCell::new((region, region + PAGE_BYTES)),
        });
        self.pages[id].store(Box::into_raw(page), Ordering::Release);
        id as u32
    }

    /// Owner-only: tries to take one block from page `id`.
    ///
    /// # Safety
    /// Caller must be the page's owner thread.
    unsafe fn try_alloc_from(&self, id: u32, class: usize) -> Option<&'static BlockHeader> {
        let page = self.page(id);
        // SAFETY: owner-only.
        let local = unsafe { &mut *page.local.get() };
        if local.is_empty() {
            // Collect the cross-thread list (`adopt_chain(0)` is a no-op).
            // SAFETY: the swapped chain is exclusively ours now.
            unsafe { local.adopt_chain(page.thread_free.swap(0, Ordering::Acquire)) };
        }
        if let Some(h) = local.pop() {
            return Some(h);
        }
        // Bump within the page region.
        let stride = span_bytes(class);
        // SAFETY: owner-only.
        let bump = unsafe { &mut *page.bump.get() };
        if bump.1 - bump.0 >= stride {
            let raw = bump.0 as *mut u8;
            bump.0 += stride;
            // SAFETY: fresh region bytes, aligned (region is 64-aligned and
            // strides are 16-multiples).
            unsafe { BlockHeader::init(raw as *mut BlockHeader, id, class as u32) };
            // SAFETY: just initialized.
            return Some(unsafe { &*(raw as *const BlockHeader) });
        }
        None
    }
}

impl Drop for MiModel {
    fn drop(&mut self) {
        let n = self.page_count.load(Ordering::Relaxed);
        for slot in self.pages.iter().take(n) {
            let p = slot.swap(std::ptr::null_mut(), Ordering::Relaxed);
            if !p.is_null() {
                // SAFETY: registered via Box::into_raw, dropped exactly once.
                drop(unsafe { Box::from_raw(p) });
            }
        }
    }
}

impl PoolAllocator for MiModel {
    fn alloc(&self, tid: Tid, size: usize) -> NonNull<u8> {
        let class = class_of(size);
        let counters = self.counters.get(tid);
        let timed = counters.on_alloc();
        let clock = timed.then(epic_util::Clock::start);

        // SAFETY: tid-exclusivity per the PoolAllocator contract.
        let thread = unsafe { self.threads.get_mut(tid) };
        let bin = &mut thread.bins[class];

        let hdr = 'found: {
            // Try the current page, then rotate through the rest once.
            let n = bin.pages.len();
            for step in 0..n {
                let idx = (bin.current + step) % n;
                let id = bin.pages[idx];
                // SAFETY: pages in `bin` are owned by tid.
                if let Some(h) = unsafe { self.try_alloc_from(id, class) } {
                    if step == 0 {
                        counters.cache_hit();
                    }
                    bin.current = idx;
                    break 'found h;
                }
            }
            // All owned pages exhausted: make a new one.
            counters.refill();
            let id = self.new_page(tid);
            bin.pages.push(id);
            bin.current = bin.pages.len() - 1;
            // SAFETY: we own the fresh page.
            unsafe { self.try_alloc_from(id, class) }.expect("fresh page must have space")
        };
        // The next alloc of this class tries the current page first; warm
        // the block it will take (DESIGN.md §10). Unlike a thread cache, a
        // free in between seldom changes that block: it goes back to its
        // own page, rarely the one being allocated from. Nothing handed
        // out or counted changes.
        // SAFETY: pages in `bin` are owned by tid.
        if let Some(next) = unsafe { self.page(bin.pages[bin.current]).next_handout(class) } {
            prefetch_span(next, class);
        }

        if let Some(c) = clock {
            counters.add_sampled_alloc_ns(c.elapsed_ns());
        }
        hdr.user_ptr()
    }

    fn dealloc(&self, tid: Tid, ptr: NonNull<u8>) {
        let counters = self.counters.get(tid);
        let timed = counters.on_dealloc();
        let clock = timed.then(epic_util::Clock::start);

        // SAFETY: ptr was produced by this allocator per the contract.
        let hdr = unsafe { BlockHeader::from_user(ptr) };
        #[cfg(debug_assertions)]
        // SAFETY: freed user area is dead.
        unsafe {
            std::ptr::write_bytes(
                ptr.as_ptr(),
                crate::block::POISON,
                crate::classes::size_of_class(hdr.class as usize),
            );
        }

        let page = self.page(hdr.owner);
        if page.owner_tid == tid as u32 {
            // SAFETY: we are the owner; local list is ours.
            unsafe { (*page.local.get()).push_front(hdr) };
        } else {
            // The mimalloc trick: remote free = one CAS, no lock, contention
            // only on simultaneous frees to the *same page*.
            counters.remote(1);
            page.push_remote(hdr);
        }
        if let Some(c) = clock {
            counters.add_sampled_free_ns(c.elapsed_ns());
        }
    }

    fn snapshot(&self) -> AllocSnapshot {
        AllocSnapshot {
            totals: self.counters.sum(),
            peak_bytes: self.store.total_bytes(),
            chunks: self.store.chunk_count(),
        }
    }

    fn thread_stats(&self, tid: Tid) -> ThreadAllocStats {
        self.counters.get(tid).snapshot()
    }

    fn peak_bytes(&self) -> usize {
        self.store.total_bytes()
    }

    fn name(&self) -> &'static str {
        "mi"
    }

    fn reset_stats(&self) {
        self.counters.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::HEADER_SIZE;
    use std::sync::Arc;

    #[test]
    fn roundtrip_and_local_reuse() {
        let m = MiModel::new(1);
        let p = m.alloc(0, 64);
        m.dealloc(0, p);
        let q = m.alloc(0, 64);
        assert_eq!(p, q, "local free list should recycle immediately");
        assert_eq!(m.page_count(), 1);
    }

    #[test]
    fn page_exhaustion_creates_new_page() {
        let m = MiModel::new(1);
        let per_page = PAGE_BYTES / (HEADER_SIZE + 64);
        let live: Vec<_> = (0..per_page + 1).map(|_| m.alloc(0, 64)).collect();
        assert_eq!(m.page_count(), 2, "overflow should open a second page");
        for p in live {
            m.dealloc(0, p);
        }
    }

    #[test]
    fn remote_free_lands_on_cross_thread_list_and_is_collected() {
        let m = Arc::new(MiModel::new(2));
        // tid 0 allocates every block in its first page.
        let per_page = PAGE_BYTES / (HEADER_SIZE + 64);
        let ptrs: Vec<usize> = (0..per_page)
            .map(|_| m.alloc(0, 64).as_ptr() as usize)
            .collect();
        // tid 1 frees them all remotely (lock-free CAS pushes).
        let m2 = Arc::clone(&m);
        std::thread::spawn(move || {
            for p in ptrs {
                m2.dealloc(1, NonNull::new(p as *mut u8).unwrap());
            }
        })
        .join()
        .unwrap();
        assert_eq!(m.thread_stats(1).remote_freed, per_page as u64);
        // tid 0 can now reallocate the whole page without new chunks.
        let peak = m.peak_bytes();
        let live: Vec<_> = (0..per_page).map(|_| m.alloc(0, 64)).collect();
        assert_eq!(m.peak_bytes(), peak, "collection must recycle remote frees");
        assert_eq!(m.page_count(), 1);
        for p in live {
            m.dealloc(0, p);
        }
    }

    #[test]
    fn concurrent_remote_frees_to_same_page_are_safe() {
        let m = Arc::new(MiModel::new(5));
        let per_page = PAGE_BYTES / (HEADER_SIZE + 64);
        let n = per_page.min(400);
        let ptrs: Vec<usize> = (0..n * 4)
            .map(|_| m.alloc(0, 64).as_ptr() as usize)
            .collect();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let m = Arc::clone(&m);
                let chunk: Vec<usize> = ptrs[i * n..(i + 1) * n].to_vec();
                std::thread::spawn(move || {
                    for p in chunk {
                        m.dealloc(i + 1, NonNull::new(p as *mut u8).unwrap());
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // All n*4 blocks must be recoverable by the owner.
        let live: Vec<_> = (0..n * 4).map(|_| m.alloc(0, 64)).collect();
        let unique: std::collections::HashSet<usize> =
            live.iter().map(|p| p.as_ptr() as usize).collect();
        assert_eq!(
            unique.len(),
            n * 4,
            "lost or duplicated blocks in cross-thread list"
        );
        for p in live {
            m.dealloc(0, p);
        }
    }

    /// What tid 0's next class-`class` alloc is predicted to hand out.
    fn predicted(m: &MiModel, class: usize) -> Option<usize> {
        // SAFETY: single-threaded test; tid 0 owns its bins and pages.
        unsafe {
            let bin = &m.threads.get_mut(0).bins[class];
            m.page(bin.pages[bin.current]).next_handout(class)
        }
    }

    fn header_addr(p: NonNull<u8>) -> usize {
        // SAFETY: every pointer here came from `alloc`.
        unsafe { BlockHeader::from_user(p) }.addr()
    }

    #[test]
    fn next_handout_is_the_next_alloc() {
        let m = MiModel::new(2);
        let class = class_of(64);
        let stride = span_bytes(class);
        assert_ne!(PAGE_BYTES % stride, 0, "the page ends in a sliver");

        // Bump: a fresh page carves in address order.
        let first = m.alloc(0, 64);
        let region = header_addr(first)..header_addr(first) + PAGE_BYTES;
        let mut live = vec![first];
        for _ in 0..8 {
            let next = predicted(&m, class);
            live.push(m.alloc(0, 64));
            assert_eq!(next, Some(header_addr(live[live.len() - 1])), "bump");
        }

        // Local list: owner frees come back LIFO.
        for p in live.drain(4..) {
            m.dealloc(0, p);
        }
        for _ in 0..5 {
            let next = predicted(&m, class);
            live.push(m.alloc(0, 64));
            assert_eq!(next, Some(header_addr(live[live.len() - 1])), "local");
        }

        // After collect: the alloc that adopts the remote frees leaves the
        // rest of the chain on the local list, and the prediction follows it.
        for p in live.drain(..) {
            m.dealloc(1, p);
        }
        live.push(m.alloc(0, 64));
        for _ in 0..8 {
            let next = predicted(&m, class);
            live.push(m.alloc(0, 64));
            assert_eq!(next, Some(header_addr(live[live.len() - 1])), "collected");
        }

        // To the end of the page: every prediction is a whole block inside
        // the region, and the sliver after the last carve is not one.
        while m.page_count() == 1 {
            let next = predicted(&m, class);
            if let Some(a) = next {
                assert!(
                    region.start <= a && a + stride <= region.end,
                    "{a:#x} past the page"
                );
            }
            let p = m.alloc(0, 64);
            if m.page_count() == 1 {
                assert_eq!(next, Some(header_addr(p)), "bump to the end");
            } else {
                assert_eq!(next, None, "a full page predicts nothing");
            }
            live.push(p);
        }
        assert_eq!(
            predicted(&m, class),
            Some(header_addr(live[live.len() - 1]) + stride)
        );
        for p in live {
            m.dealloc(0, p);
        }
    }

    #[test]
    fn distinct_classes_use_distinct_pages() {
        let m = MiModel::new(1);
        let a = m.alloc(0, 64);
        let b = m.alloc(0, 256);
        // SAFETY: blocks came from alloc above.
        let (ha, hb) = unsafe { (BlockHeader::from_user(a), BlockHeader::from_user(b)) };
        assert_ne!(ha.owner, hb.owner, "pages are per size class");
        m.dealloc(0, a);
        m.dealloc(0, b);
    }
}
