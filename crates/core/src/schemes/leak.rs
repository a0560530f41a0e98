//! The `none` baseline: never reclaim.
//!
//! The paper includes a leaky implementation in Experiment 1 because it is
//! "often (incorrectly) described as an upper bound on the performance of a
//! reclamation algorithm" — and then shows `token_af` and `debra_af`
//! *beating* it (Fig. 11a), since gradually recycled memory has better
//! locality than an ever-growing heap.

use crate::common::SchemeCommon;
use crate::config::SmrConfig;
use crate::{RawSmr, SmrKind};

use epic_alloc::{PoolAllocator, Tid};
use std::ptr::NonNull;
use std::sync::Arc;

/// Leaky no-op reclaimer.
pub struct LeakSmr {
    common: SchemeCommon,
}

impl LeakSmr {
    /// Builds the leaky baseline.
    pub fn new(alloc: Arc<dyn PoolAllocator>, cfg: SmrConfig) -> Self {
        LeakSmr {
            common: SchemeCommon::new("none", alloc, cfg),
        }
    }
}

impl RawSmr for LeakSmr {
    fn common(&self) -> &SchemeCommon {
        &self.common
    }

    fn begin_op(&self, tid: Tid) {
        self.common.relief(tid);
    }

    fn end_op(&self, _tid: Tid) {}

    fn retire(&self, tid: Tid, _ptr: NonNull<u8>) {
        // Count it as garbage forever: this is what "leaking" means for the
        // peak-memory figures.
        self.common.stats.get(tid).on_retire(1);
        self.common.stats.observe_garbage();
    }

    fn detach(&self, _tid: Tid) {}

    fn quiesce_and_drain(&self) {
        // Leaks by definition. Pool memory is reclaimed when the allocator
        // drops.
    }

    fn kind(&self) -> SmrKind {
        SmrKind::None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epic_alloc::{build_allocator, AllocatorKind, CostModel};

    #[test]
    fn retire_never_frees() {
        let alloc = build_allocator(AllocatorKind::Sys, 1, CostModel::zero());
        let smr = LeakSmr::new(Arc::clone(&alloc), SmrConfig::new(1));
        let p = alloc.alloc(0, 64);
        smr.begin_op(0);
        smr.retire(0, p);
        smr.end_op(0);
        smr.quiesce_and_drain();
        let s = smr.stats();
        assert_eq!(s.retired, 1);
        assert_eq!(s.freed, 0);
        assert_eq!(s.garbage, 1);
        assert_eq!(s.peak_garbage, 1);
        assert_eq!(smr.name(), "none");
        // The block is still allocated as far as the allocator knows.
        assert_eq!(alloc.snapshot().totals.deallocs, 0);
    }
}
