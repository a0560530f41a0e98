//! The backlog relief valve (`SchemeCommon::relief`) runs in every
//! reclaiming scheme's `begin_op`.
//!
//! Blocks allocated outside the guard never pass through `on_alloc`, so
//! the alloc-coupled drain never runs for them: the only thing that can
//! shrink the freeable list (amortized free) or the object pool (pooled)
//! is the relief valve. After a burst of retirements, a run of empty
//! operations must bring either back under `af_backlog_cap`.

use epic_alloc::{build_allocator, AllocatorKind, CostModel};
use epic_smr::{build_smr, FreeMode, SmrConfig, SmrKind};

const CAP: usize = 4;

#[test]
fn begin_op_relief_caps_the_backlog_in_every_scheme() {
    // `None` never frees, so it has no backlog to cap.
    for kind in SmrKind::ALL.into_iter().filter(|&k| k != SmrKind::None) {
        for mode in [FreeMode::Amortized { per_op: 1 }, FreeMode::Pooled] {
            let alloc = build_allocator(AllocatorKind::Sys, 1, CostModel::zero());
            let mut cfg = SmrConfig::new(1)
                .with_mode(mode)
                .with_bag_cap(8)
                .with_af_backlog_cap(CAP);
            cfg.era_freq = 1;
            cfg.epoch_check_every = 1;
            cfg.token_check_every = 1;
            let smr = build_smr(kind, alloc.clone(), cfg);
            let h = smr.register(0);
            for _ in 0..256 {
                let p = alloc.alloc(0, 64);
                h.begin_op().retire(p);
            }
            assert!(
                smr.stats().batches > 0,
                "{kind:?} {mode:?}: nothing disposed"
            );
            for _ in 0..32 {
                drop(h.begin_op());
            }
            let common = smr.raw().common();
            let backlog = match mode {
                FreeMode::Pooled => common.pool_len(0),
                _ => common.freebuf_len(0),
            };
            assert!(
                backlog <= CAP,
                "{kind:?} {mode:?}: backlog {backlog} > af_backlog_cap {CAP} after 32 empty ops"
            );
            drop(h);
            smr.quiesce_and_drain();
        }
    }
}
