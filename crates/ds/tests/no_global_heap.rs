//! The (a,b)-tree's allocator behaviour is the experiment, so its update
//! path must allocate from the *modelled* allocator only: a `malloc`/`free`
//! pair through the process heap (a scratch `Vec` in a split, say) is
//! traffic the model never sees. A counting `#[global_allocator]` pins it at
//! zero across steady-state updates that include splits and collapses.

use epic_alloc::{build_allocator, AllocatorKind, CostModel};
use epic_ds::{AbTree, ConcurrentMap};
use epic_smr::{build_smr, FreeMode, SmrConfig, SmrHandle, SmrKind};

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-heap allocation calls made by a thread while it is [`TRACKED`]
/// (the measuring thread, around its window: libtest's threads never count).
static HEAP_ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static TRACKED: Cell<bool> = const { Cell::new(false) };
}

struct CountingAlloc;

// SAFETY: pure pass-through to `System` plus a relaxed counter bump.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if TRACKED.try_with(Cell::get).unwrap_or(false) {
            HEAP_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwarded contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Keys per fill/drain cycle: an ascending fill splits leaves all the way
/// up, the drain that follows empties and collapses every one of them.
const WINDOW: u64 = 2_000;

/// `2 * WINDOW` successful updates.
fn cycle(t: &AbTree, h: &SmrHandle) {
    for k in 0..WINDOW {
        assert!(t.insert(h, k, k));
    }
    for k in 0..WINDOW {
        assert!(t.remove(h, k));
    }
}

#[test]
fn steady_state_updates_never_touch_the_process_heap() {
    for (kind, mode) in [
        (SmrKind::Debra, FreeMode::Batch),
        (SmrKind::Debra, FreeMode::amortized()),
        (SmrKind::Hp, FreeMode::amortized()),
    ] {
        let alloc = build_allocator(AllocatorKind::Je, 1, CostModel::zero());
        let cfg = SmrConfig::new(1).with_bag_cap(256).with_mode(mode);
        let t = AbTree::new(build_smr(kind, alloc.clone(), cfg));
        let h = t.smr().register(0);
        // Warm-up: chunk store, thread cache, limbo bags, freeable list
        // and scan scratch reach their steady footprint.
        for _ in 0..3 {
            cycle(&t, &h);
        }
        let nodes0 = alloc.snapshot().totals.allocs;
        let heap0 = HEAP_ALLOCS.load(Ordering::Relaxed);
        TRACKED.set(true);
        for _ in 0..5 {
            cycle(&t, &h);
        }
        TRACKED.set(false);
        let heap = HEAP_ALLOCS.load(Ordering::Relaxed) - heap0;
        let nodes = alloc.snapshot().totals.allocs - nodes0;
        let updates = 5 * 2 * WINDOW;
        // A plain leaf update allocates one node copy and only a split
        // allocates three, so more nodes than updates = splits ran.
        assert!(
            nodes > updates,
            "{kind:?} {mode:?}: {nodes} nodes, no split"
        );
        assert_eq!(t.size(), 0, "{kind:?} {mode:?}: drained tree collapsed");
        assert_eq!(
            heap, 0,
            "{kind:?} {mode:?}: {heap} process-heap allocations in {updates} updates"
        );
    }
}
