//! Spans recorded from the benchmark's side of each layer boundary.
//!
//! A traced worker installs a [`ThreadTrace`] in a thread-local; the load
//! loop brackets every map call with [`begin_op`] / [`end_op`]
//! (`ds.insert|remove|get`), and [`TimedAlloc`] — the allocator handed to
//! `build_smr` in traced rounds — reports every `alloc` / `dealloc` the
//! layers below make as a child span of the op in flight on that thread.
//! Everything stays in memory until the run ends.

use crate::hist::Hist;
use epic_alloc::{AllocSnapshot, PoolAllocator, ThreadAllocStats, Tid};
use epic_util::now_ns;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ptr::NonNull;
use std::sync::Arc;

/// Full records are kept for one op in this many …
pub const RECORD_ONE_IN: u64 = 4096;
/// … and for this many slowest ops per thread.
pub const SLOWEST_KEPT: usize = 256;
/// Child spans kept per recorded op (a batch free has thousands; the rest
/// are counted in `children_dropped` and still summed in the totals).
const CHILDREN_KEPT: usize = 32;

/// Span names, also the index into [`ThreadTrace::hist`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Span {
    Insert,
    Remove,
    Get,
    Alloc,
    Dealloc,
}

impl Span {
    pub const ALL: [Span; 5] = [
        Span::Insert,
        Span::Remove,
        Span::Get,
        Span::Alloc,
        Span::Dealloc,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Span::Insert => "ds.insert",
            Span::Remove => "ds.remove",
            Span::Get => "ds.get",
            Span::Alloc => "allocsim.alloc",
            Span::Dealloc => "allocsim.dealloc",
        }
    }
}

/// One allocator call made while an op was in flight.
#[derive(Clone, Copy)]
pub struct ChildSpan {
    pub name: Span,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A fully recorded map call: the op span plus the child spans that share
/// its id.
#[derive(Clone)]
pub struct OpRecord {
    pub op_id: u64,
    pub name: Span,
    pub start_ns: u64,
    pub end_ns: u64,
    pub child_ns: u64,
    pub children: Vec<ChildSpan>,
    pub children_dropped: u64,
}

impl OpRecord {
    fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

// Ordered by duration only, for the slowest-ops heap.
impl PartialEq for OpRecord {
    fn eq(&self, other: &Self) -> bool {
        self.dur() == other.dur()
    }
}
impl Eq for OpRecord {}
impl PartialOrd for OpRecord {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OpRecord {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.dur().cmp(&other.dur())
    }
}

/// Everything one traced worker thread records.
#[derive(Default)]
pub struct ThreadTrace {
    /// One histogram per span name, indexed by `Span as usize`.
    pub hist: [Hist; 5],
    /// Allocator time inside op spans, per child name.
    pub alloc_ns: u64,
    pub dealloc_ns: u64,
    /// One-in-[`RECORD_ONE_IN`] ops, in order.
    pub sampled: Vec<OpRecord>,
    slowest: BinaryHeap<Reverse<OpRecord>>,
    // The op in flight.
    op_id: u64,
    in_op: bool,
    child_ns: u64,
    children: Vec<ChildSpan>,
    children_dropped: u64,
}

impl ThreadTrace {
    /// Total time inside op spans.
    pub fn op_ns(&self) -> u64 {
        [Span::Insert, Span::Remove, Span::Get]
            .iter()
            .map(|&s| self.hist[s as usize].sum())
            .sum()
    }

    /// The slowest ops seen, slowest first.
    pub fn slowest(&self) -> Vec<OpRecord> {
        let mut v: Vec<OpRecord> = self.slowest.iter().map(|r| r.0.clone()).collect();
        v.sort_by(|a, b| b.cmp(a));
        v
    }

    /// Folds another thread-round into this one (same thread id, later
    /// round): histograms add, sampled records append, the slowest set is
    /// re-cut to [`SLOWEST_KEPT`].
    pub fn merge(&mut self, other: ThreadTrace) {
        for (a, b) in self.hist.iter_mut().zip(other.hist.iter()) {
            a.merge(b);
        }
        self.alloc_ns += other.alloc_ns;
        self.dealloc_ns += other.dealloc_ns;
        self.sampled.extend(other.sampled);
        for r in other.slowest {
            self.keep_if_slow(r.0);
        }
    }

    fn keep_if_slow(&mut self, rec: OpRecord) {
        if self.slowest.len() < SLOWEST_KEPT {
            self.slowest.push(Reverse(rec));
        } else if self.slowest.peek().is_some_and(|min| rec > min.0) {
            self.slowest.pop();
            self.slowest.push(Reverse(rec));
        }
    }

    fn qualifies(&self, dur: u64) -> bool {
        self.op_id.is_multiple_of(RECORD_ONE_IN)
            || self.slowest.len() < SLOWEST_KEPT
            || self.slowest.peek().is_some_and(|min| dur > min.0.dur())
    }
}

thread_local! {
    static ACTIVE: RefCell<Option<ThreadTrace>> = const { RefCell::new(None) };
}

/// Starts tracing on the calling thread.
pub fn install() {
    ACTIVE.with(|a| *a.borrow_mut() = Some(ThreadTrace::default()));
}

/// Stops tracing on the calling thread and returns what it recorded.
pub fn take() -> Option<ThreadTrace> {
    ACTIVE.with(|a| a.borrow_mut().take())
}

/// Opens the op span `op_id` on this thread; allocator calls until
/// [`end_op`] are its children.
#[inline]
pub fn begin_op(op_id: u64) {
    ACTIVE.with(|a| {
        if let Some(t) = a.borrow_mut().as_mut() {
            t.op_id = op_id;
            t.in_op = true;
            t.child_ns = 0;
            t.children.clear();
            t.children_dropped = 0;
        }
    });
}

/// Closes the op span opened by [`begin_op`].
#[inline]
pub fn end_op(name: Span, start_ns: u64, end_ns: u64) {
    ACTIVE.with(|a| {
        if let Some(t) = a.borrow_mut().as_mut() {
            t.in_op = false;
            let dur = end_ns - start_ns;
            t.hist[name as usize].record(dur);
            if t.qualifies(dur) {
                let rec = OpRecord {
                    op_id: t.op_id,
                    name,
                    start_ns,
                    end_ns,
                    child_ns: t.child_ns,
                    children: t.children.clone(),
                    children_dropped: t.children_dropped,
                };
                if t.op_id.is_multiple_of(RECORD_ONE_IN) {
                    t.sampled.push(rec.clone());
                }
                t.keep_if_slow(rec);
            }
        }
    });
}

/// Reports one allocator call. Calls outside an op span (prefill, teardown,
/// threads that are not traced) are not part of any op and are dropped.
#[inline]
fn child(name: Span, start_ns: u64, end_ns: u64) {
    ACTIVE.with(|a| {
        if let Some(t) = a.borrow_mut().as_mut().filter(|t| t.in_op) {
            let dur = end_ns - start_ns;
            t.hist[name as usize].record(dur);
            t.child_ns += dur;
            match name {
                Span::Alloc => t.alloc_ns += dur,
                _ => t.dealloc_ns += dur,
            }
            if t.children.len() < CHILDREN_KEPT {
                t.children.push(ChildSpan {
                    name,
                    start_ns,
                    end_ns,
                });
            } else {
                t.children_dropped += 1;
            }
        }
    });
}

/// A [`PoolAllocator`] that times every `alloc` / `dealloc` of the
/// allocator it wraps and reports it to the calling thread's trace.
pub struct TimedAlloc(pub Arc<dyn PoolAllocator>);

impl PoolAllocator for TimedAlloc {
    fn alloc(&self, tid: Tid, size: usize) -> NonNull<u8> {
        let t0 = now_ns();
        let p = self.0.alloc(tid, size);
        child(Span::Alloc, t0, now_ns());
        p
    }

    fn dealloc(&self, tid: Tid, ptr: NonNull<u8>) {
        let t0 = now_ns();
        self.0.dealloc(tid, ptr);
        child(Span::Dealloc, t0, now_ns());
    }

    fn snapshot(&self) -> AllocSnapshot {
        self.0.snapshot()
    }

    fn thread_stats(&self, tid: Tid) -> ThreadAllocStats {
        self.0.thread_stats(tid)
    }

    fn peak_bytes(&self) -> usize {
        self.0.peak_bytes()
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn reset_stats(&self) {
        self.0.reset_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epic_alloc::{build_allocator_with, AllocatorKind, CostModel};

    #[test]
    fn child_spans_attach_to_the_op_in_flight() {
        let inner = build_allocator_with(AllocatorKind::Je, 1, CostModel::zero(), Some(200));
        let alloc = TimedAlloc(inner);
        install();
        // Outside any op: dropped.
        let stray = alloc.alloc(0, 64);
        // Op id 0 is a one-in-4096 sample.
        begin_op(0);
        let t0 = now_ns();
        let p = alloc.alloc(0, 64);
        alloc.dealloc(0, p);
        end_op(Span::Insert, t0, now_ns());
        alloc.dealloc(0, stray);
        let t = take().expect("installed above");
        assert_eq!(t.hist[Span::Alloc as usize].count(), 1);
        assert_eq!(t.hist[Span::Dealloc as usize].count(), 1);
        assert_eq!(t.hist[Span::Insert as usize].count(), 1);
        let rec = &t.sampled[0];
        assert_eq!((rec.op_id, rec.children.len()), (0, 2));
        assert_eq!(rec.child_ns, t.alloc_ns + t.dealloc_ns);
        assert!(rec.child_ns <= rec.end_ns - rec.start_ns);
        assert!(take().is_none());
    }

    #[test]
    fn slowest_set_keeps_the_longest_ops() {
        install();
        for i in 0..(SLOWEST_KEPT as u64 + 100) {
            begin_op(i + 1);
            end_op(Span::Get, 1_000, 1_000 + i);
        }
        let t = take().expect("installed above");
        let slow = t.slowest();
        assert_eq!(slow.len(), SLOWEST_KEPT);
        assert_eq!(slow[0].dur(), SLOWEST_KEPT as u64 + 99);
        assert_eq!(slow.last().map(OpRecord::dur), Some(100));
    }
}
