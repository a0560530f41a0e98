//! The reclamation schemes.
//!
//! | module | scheme(s) | paper role |
//! |---|---|---|
//! | [`leak`] | `none` | the leaky "upper bound" baseline the paper's AF schemes beat |
//! | [`epoch`] | `debra`, `rcu`, `qsbr` | DEBRA (Brown), the state-of-the-art EBR whose batch frees expose the RBF problem (§3); classic per-operation EBR (Fraser / Hart's RCU); quiescent-state-based reclamation (Hart et al.) |
//! | [`token`] | `token_naive`, `token_passfirst`, `token`, (`token_af` via AF mode) | §4's Token-EBR progression |
//! | [`hp`] | `hp` | hazard pointers (Michael) |
//! | [`era`] | `he`, `wfe`, `ibr` | hazard eras (Ramalhete & Correia); wait-free eras (Nikolaev & Ravindran), simplified, as `he`'s double-word shape; 2GE interval-based reclamation (Wen et al.) |
//! | [`nbr`] | `nbr`, `nbr+` | neutralization-based reclamation (Singh et al.), cooperative-signal variant |

pub mod epoch;
pub mod era;
pub mod hp;
pub mod leak;
pub mod nbr;
pub mod token;

use crate::common::SchemeCommon;
use crate::retired::RetiredList;
use crate::sync::{fence, AtomicUsize, Ordering};
use epic_alloc::{Segment, Tid};
use epic_util::SlotBlocks;

/// The address-snapshot reclaim of `hp` (hazard slots) and `nbr`
/// (write-phase reservations): disposes of every object in `bag` whose
/// address no slot announces; announced objects stay. The sorted snapshot
/// lives in `scratch` and the bag is partitioned in place: no heap
/// allocation.
pub(crate) fn reclaim_unannounced(
    common: &SchemeCommon,
    tid: Tid,
    slots: &SlotBlocks<AtomicUsize>,
    bag: &mut RetiredList,
    mut scratch: Segment,
) {
    // The fence pairs with the SeqCst announcement stores: any announcement
    // that precedes this scan in the SeqCst order is observed.
    fence(Ordering::SeqCst);
    scratch.clear();
    scratch.extend(
        slots
            .iter()
            .map(|s| s.load(Ordering::Acquire) as u64)
            .filter(|&p| p != 0),
    );
    scratch.sort_unstable();
    let mut freeable = RetiredList::new();
    bag.partition_into(
        |r| scratch.binary_search(&(r.addr() as u64)).is_ok(),
        &mut freeable,
    );
    common.scratch_done(tid, scratch);
    common.dispose(tid, &mut freeable);
}
