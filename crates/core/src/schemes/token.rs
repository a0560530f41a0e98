//! Token-EBR (§4): epochs established by a token circulating a ring.
//!
//! All threads are arranged in a ring; each thread enters a new epoch when
//! it receives the token. Each thread keeps two limbo bags (*current* and
//! *previous*); receipt of the token proves the previous bag is safe
//! (correctness sketch in §4: during one full circulation every thread has
//! begun — and therefore finished — an operation, so nothing unlinked
//! before the circulation can still be referenced).
//!
//! The three kinds trace the paper's §4 progression:
//!
//! * [`SmrKind::TokenNaive`] (`token_naive`) — free the previous bag,
//!   swap, **then** pass the token. Serializes all reclamation around the
//!   ring (Fig. 6's "continuous curve") and piles up garbage.
//! * [`SmrKind::TokenPassFirst`] (`token_passfirst`) — pass first, then
//!   free. Threads free concurrently, but a long free delays the *next*
//!   token receipt (Fig. 7).
//! * [`SmrKind::TokenPeriodic`] (`token`) — pass first, then free,
//!   re-checking for the token every `token_check_every` frees and
//!   forwarding it immediately (Fig. 8). Forwarding is safe here because
//!   the freeing thread is *between* data-structure operations: it holds
//!   no pointers.
//!
//! `token_af` — the paper's headline algorithm — is `token` with
//! [`crate::FreeMode::Amortized`]: the previous bag moves to the freeable
//! list in O(1) and is drained one object per operation (Fig. 9/10).

use crate::common::SchemeCommon;
use crate::config::{FreeMode, SmrConfig};
use crate::retired::RetiredList;
use crate::sync::{AtomicBool, AtomicU64, Ordering};
use crate::{RawSmr, SchemeLocal, SmrKind};

use epic_alloc::{PoolAllocator, Tid};
use epic_timeline::EventKind;
use epic_util::{now_ns, CachePadded, TidSlots};
use std::ptr::NonNull;
use std::sync::Arc;

struct TokenThread {
    current: RetiredList,
    previous: RetiredList,
    consumed: u64,
    epochs_entered: u64,
}

/// `token_naive`, `token_passfirst` or `token`, chosen by `kind`. See
/// module docs.
pub struct TokenSmr {
    common: SchemeCommon,
    kind: SmrKind,
    /// `tokens[i]` counts tokens delivered to thread `i`; a thread holds
    /// the token while `tokens[tid] > consumed`.
    tokens: Box<[CachePadded<AtomicU64>]>,
    /// Ring membership: detached threads are skipped when passing.
    detached: Box<[CachePadded<AtomicBool>]>,
    /// Tokens passed while no thread was in the ring.
    parked: AtomicU64,
    threads: TidSlots<TokenThread>,
}

impl TokenSmr {
    /// Builds the token scheme `kind`, thread 0 holding the token; panics
    /// unless it is `TokenNaive`, `TokenPassFirst` or `TokenPeriodic`.
    pub fn new(alloc: Arc<dyn PoolAllocator>, cfg: SmrConfig, kind: SmrKind) -> Self {
        assert!(
            kind.base_name().starts_with("token"),
            "{kind:?} is not a token scheme"
        );
        let n = cfg.max_threads;
        let tokens: Box<[CachePadded<AtomicU64>]> = (0..n)
            .map(|i| CachePadded::new(AtomicU64::new(u64::from(i == 0))))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        TokenSmr {
            common: SchemeCommon::new(kind.base_name(), alloc, cfg),
            kind,
            tokens,
            detached: (0..n)
                .map(|_| CachePadded::new(AtomicBool::new(false)))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            parked: AtomicU64::new(0),
            threads: TidSlots::new_with(n, |_| TokenThread {
                current: RetiredList::new(),
                previous: RetiredList::new(),
                consumed: 0,
                epochs_entered: 0,
            }),
        }
    }

    /// Passes the token to the next live thread in the ring, or, if every
    /// thread has detached, parks it for the next to register again.
    ///
    /// A hand-off that wraps (`next <= tid`) closes one lap of the *live*
    /// ring: that is the global "epoch", counted by whichever thread closes
    /// it, so epochs (and the garbage series they sample) keep rising
    /// whichever threads have detached. `epoch` is the passer's receipt
    /// count, the x value of the mark and the garbage sample.
    #[inline]
    fn pass(&self, tid: Tid, epoch: u64) {
        let Some(next) = self.next_member(tid) else {
            self.parked.fetch_add(1, Ordering::SeqCst);
            // A thread that rejoined since the scan found nothing parked.
            if let Some(next) = self.next_member(tid) {
                let parked = self.parked.swap(0, Ordering::SeqCst);
                self.tokens[next].fetch_add(parked, Ordering::Release);
            }
            return;
        };
        // Release: the passing thread's bag swap must be visible before the
        // receiver observes the token.
        self.tokens[next].fetch_add(1, Ordering::Release);
        if next <= tid {
            self.common.record_epoch_advance(tid, epoch);
        }
    }

    /// The first live member after `tid` (itself last); SeqCst: see `local`.
    fn next_member(&self, tid: Tid) -> Option<Tid> {
        let n = self.tokens.len();
        (1..=n)
            .map(|hop| (tid + hop) % n)
            .find(|&t| !self.detached[t].load(Ordering::SeqCst))
    }

    /// True if `tid` currently holds (at least) one token.
    #[inline]
    fn holds_token(&self, tid: Tid, consumed: u64) -> bool {
        self.tokens[tid].load(Ordering::Acquire) > consumed
    }

    /// Processes one token receipt according to the kind.
    fn on_token(&self, tid: Tid, state: &mut TokenThread) {
        state.consumed += 1;
        state.epochs_entered += 1;
        self.common
            .cfg
            .recorder
            .mark(tid, EventKind::TokenReceive, state.epochs_entered);

        match self.kind {
            SmrKind::TokenNaive => {
                // Free previous bag COMPLETELY, swap, then pass: the next
                // thread cannot reclaim until we finish (garbage pile-up).
                self.common.dispose(tid, &mut state.previous);
                std::mem::swap(&mut state.current, &mut state.previous);
                self.pass(tid, state.epochs_entered);
            }
            SmrKind::TokenPassFirst => {
                self.pass(tid, state.epochs_entered);
                self.common.dispose(tid, &mut state.previous);
                std::mem::swap(&mut state.current, &mut state.previous);
            }
            _ => {
                // `token`.
                self.pass(tid, state.epochs_entered);
                match self.common.cfg.mode {
                    FreeMode::Amortized { .. } | FreeMode::Background | FreeMode::Pooled => {
                        // token_af: absorb into the freeable list (O(1));
                        // token_bg: hand to the reclaimer; token_pool:
                        // absorb into the object pool (all O(1)).
                        self.common.dispose(tid, &mut state.previous);
                    }
                    FreeMode::Batch => {
                        self.free_with_token_checks(tid, state);
                    }
                }
                std::mem::swap(&mut state.current, &mut state.previous);
            }
        }
    }

    /// `token`'s batch free: free the previous bag one object at a
    /// time, checking for (and forwarding) the token every
    /// `token_check_every` frees. The forwarded receipts still count as
    /// epochs entered, but bag swapping for them is deferred — we are
    /// mid-free, so the bags cannot be split retroactively (§4 discusses
    /// exactly this: a long `free` call still blocks the check).
    fn free_with_token_checks(&self, tid: Tid, state: &mut TokenThread) {
        if state.previous.is_empty() {
            return;
        }
        let check_every = self.common.cfg.token_check_every.max(1);
        let n = state.previous.len() as u64;
        let t0 = now_ns();
        let counters = self.common.stats.get(tid);
        counters.on_batch();
        let mut freed = 0usize;
        while let Some(p) = state.previous.pop() {
            self.common.dealloc_one(tid, p);
            freed += 1;
            if freed.is_multiple_of(check_every) && self.holds_token(tid, state.consumed) {
                // Forward without swapping: we hold no data-structure
                // pointers (we are between operations), so forwarding is
                // safe and keeps the ring moving.
                state.consumed += 1;
                state.epochs_entered += 1;
                self.pass(tid, state.epochs_entered);
            }
        }
        let t1 = now_ns();
        counters.on_free(n);
        counters.add_free_ns(t1 - t0);
        self.common
            .cfg
            .recorder
            .record(tid, EventKind::BatchFree, t0, t1, n);
    }
}

impl RawSmr for TokenSmr {
    fn common(&self) -> &SchemeCommon {
        &self.common
    }

    fn begin_op(&self, tid: Tid) {
        self.common.relief(tid);
        // SAFETY: tid-exclusivity contract.
        let state = unsafe { self.threads.get_mut(tid) };
        if self.holds_token(tid, state.consumed) {
            self.on_token(tid, state);
        }
    }

    fn end_op(&self, _tid: Tid) {}

    fn retire(&self, tid: Tid, ptr: NonNull<u8>) {
        self.common.stats.get(tid).on_retire(1);
        // SAFETY: tid-exclusivity contract.
        let state = unsafe { self.threads.get_mut(tid) };
        // SAFETY: `ptr` is a live block of this scheme's allocator (retire
        // contract), exclusively ours from unlink to free.
        unsafe { state.current.push(ptr) };
    }

    fn detach(&self, tid: Tid) {
        self.detached[tid].store(true, Ordering::SeqCst);
        // Forward tokens already delivered to us so the ring keeps moving.
        // (A pass racing with this store may still strand a token here
        // until this tid registers again; at shutdown that only loses
        // epochs, and quiesce_and_drain reclaims everything regardless.)
        // SAFETY: detach is called by the owning thread (tid contract).
        let state = unsafe { self.threads.get_mut(tid) };
        while self.holds_token(tid, state.consumed) {
            state.consumed += 1;
            self.pass(tid, state.epochs_entered);
        }
    }

    fn local(&self, tid: Tid) -> SchemeLocal {
        // Registering (again) rejoins the ring before the first operation.
        // SeqCst here and on `next_member`'s load, or this store could sit
        // in the store buffer while we load a node that a passer unlinks,
        // reads us as detached and closes a lap without us.
        self.detached[tid].store(false, Ordering::SeqCst);
        let parked = self.parked.swap(0, Ordering::SeqCst);
        self.tokens[tid].fetch_add(parked, Ordering::Release);
        SchemeLocal::passive()
    }

    fn quiesce_and_drain(&self) {
        for tid in 0..self.common.n_threads() {
            // SAFETY: quiescence is the caller's contract.
            let state = unsafe { self.threads.get_mut(tid) };
            self.common.free_batch_now(tid, &mut state.previous);
            self.common.free_batch_now(tid, &mut state.current);
            self.common.drain_freebuf(tid);
        }
        self.common.sync_background();
    }

    fn kind(&self) -> SmrKind {
        self.kind
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epic_alloc::{build_allocator, AllocatorKind, CostModel};

    fn setup(n: usize, kind: SmrKind, mode: FreeMode) -> (Arc<dyn PoolAllocator>, Arc<TokenSmr>) {
        let alloc = build_allocator(AllocatorKind::Sys, n, CostModel::zero());
        let cfg = SmrConfig::new(n).with_mode(mode);
        let smr = Arc::new(TokenSmr::new(Arc::clone(&alloc), cfg, kind));
        (alloc, smr)
    }

    fn churn(alloc: &Arc<dyn PoolAllocator>, smr: &TokenSmr, tid: usize, ops: usize) {
        for _ in 0..ops {
            smr.begin_op(tid);
            let p = alloc.alloc(tid, 64);
            smr.on_alloc(tid, p);
            smr.retire(tid, p);
            smr.end_op(tid);
        }
    }

    #[test]
    fn names_follow_variant_and_mode() {
        let (_, naive) = setup(1, SmrKind::TokenNaive, FreeMode::Batch);
        assert_eq!(naive.name(), "token_naive");
        let (_, af) = setup(1, SmrKind::TokenPeriodic, FreeMode::amortized());
        assert_eq!(af.name(), "token_af");
        assert_eq!(af.kind(), SmrKind::TokenPeriodic);
    }

    #[test]
    fn single_thread_ring_cycles() {
        let (alloc, smr) = setup(1, SmrKind::TokenNaive, FreeMode::Batch);
        churn(&alloc, &smr, 0, 50);
        let s = smr.stats();
        // Every op receives the token back; previous bag of each epoch is
        // freed two receipts later.
        assert!(s.freed >= 48, "freed {}", s.freed);
        smr.quiesce_and_drain();
        assert_eq!(smr.stats().freed, 50);
        assert_eq!(smr.stats().garbage, 0);
    }

    #[test]
    fn batch_free_records_every_call() {
        let alloc = build_allocator(AllocatorKind::Sys, 1, CostModel::zero());
        let cfg = SmrConfig::new(1)
            .with_mode(FreeMode::Batch)
            .with_free_call_recording(0);
        let smr = TokenSmr::new(Arc::clone(&alloc), cfg, SmrKind::TokenPeriodic);
        churn(&alloc, &smr, 0, 50);
        let freed = smr.stats().freed;
        assert!(freed > 0, "the ring must have freed something");
        assert_eq!(smr.common().stats.free_hist().count(), freed);
    }

    #[test]
    fn token_requires_all_threads_to_participate() {
        let (alloc, smr) = setup(2, SmrKind::TokenPassFirst, FreeMode::Batch);
        // Only thread 0 runs: it consumes its initial token, passes to
        // thread 1, and never sees it again.
        churn(&alloc, &smr, 0, 100);
        let s = smr.stats();
        assert_eq!(s.freed, 0, "no circulation without thread 1");
        assert!(s.garbage >= 100);
        // Thread 1 joins: the ring circulates and reclamation resumes.
        for _ in 0..6 {
            churn(&alloc, &smr, 0, 1);
            churn(&alloc, &smr, 1, 1);
        }
        assert!(smr.stats().freed > 0, "{:?}", smr.stats());
        smr.quiesce_and_drain();
        assert_eq!(smr.stats().garbage, 0);
    }

    #[test]
    fn two_bag_rule_never_frees_current_epoch_retires() {
        // Objects retired in the current epoch must survive until two token
        // receipts later. With a 1-thread ring we can count receipts
        // exactly: retire during op i is freed at op i+2.
        let (alloc, smr) = setup(1, SmrKind::TokenNaive, FreeMode::Batch);
        smr.begin_op(0); // receipt 1
        let p = alloc.alloc(0, 64);
        smr.retire(0, p);
        smr.end_op(0);
        assert_eq!(smr.stats().freed, 0);
        smr.begin_op(0); // receipt 2: p moves to previous
        smr.end_op(0);
        assert_eq!(smr.stats().freed, 0, "p is in previous, not yet safe");
        smr.begin_op(0); // receipt 3: previous freed
        smr.end_op(0);
        assert_eq!(smr.stats().freed, 1);
    }

    #[test]
    fn all_variants_reclaim_under_multithreaded_churn() {
        for kind in [
            SmrKind::TokenNaive,
            SmrKind::TokenPassFirst,
            SmrKind::TokenPeriodic,
        ] {
            for mode in [FreeMode::Batch, FreeMode::amortized()] {
                let (alloc, smr) = setup(4, kind, mode);
                let handles: Vec<_> = (0..4)
                    .map(|tid| {
                        let smr = Arc::clone(&smr);
                        let alloc = Arc::clone(&alloc);
                        // Workers leave the ring as run_trial's do: a
                        // finished worker that never detaches strands the
                        // token, and no lap closes after it.
                        std::thread::spawn(move || {
                            churn(&alloc, &smr, tid, 3_000);
                            smr.detach(tid);
                        })
                    })
                    .collect();
                for h in handles {
                    h.join().unwrap();
                }
                smr.quiesce_and_drain();
                let s = smr.stats();
                assert_eq!(s.retired, 12_000, "{kind:?} {mode:?}");
                assert_eq!(s.freed, 12_000, "{kind:?} {mode:?}");
                assert_eq!(s.garbage, 0, "{kind:?} {mode:?}");
                assert!(s.epochs > 0, "{kind:?} {mode:?}: token should circulate");
            }
        }
    }

    /// Thread 0 detaches early and threads 1 and 2 keep operating: the
    /// live ring still closes laps, so `epochs` keeps rising and
    /// reclamation keeps going.
    fn laps_count_after_tid0_detaches(kind: SmrKind) {
        let (alloc, smr) = setup(3, kind, FreeMode::Batch);
        for tid in [0, 1, 2, 0, 1, 2] {
            churn(&alloc, &smr, tid, 1);
        }
        smr.detach(0);
        let mut last = smr.stats();
        for round in 0..4 {
            for _ in 0..50 {
                churn(&alloc, &smr, 1, 1);
                churn(&alloc, &smr, 2, 1);
            }
            let now = smr.stats();
            assert!(
                now.epochs > last.epochs,
                "{kind:?} round {round}: epochs froze at {}",
                now.epochs
            );
            assert!(now.freed > last.freed, "{kind:?} round {round}: {now:?}");
            last = now;
        }
        smr.quiesce_and_drain();
        assert_eq!(smr.stats().garbage, 0);
    }

    #[test]
    fn naive_laps_count_after_tid0_detaches() {
        laps_count_after_tid0_detaches(SmrKind::TokenNaive);
    }

    #[test]
    fn passfirst_laps_count_after_tid0_detaches() {
        laps_count_after_tid0_detaches(SmrKind::TokenPassFirst);
    }

    #[test]
    fn periodic_laps_count_after_tid0_detaches() {
        laps_count_after_tid0_detaches(SmrKind::TokenPeriodic);
    }

    /// Both tids detach, tid 1 last (its pass finds nobody and parks the
    /// token); tid 0 registers again and reclamation resumes, whoever
    /// held the token.
    #[test]
    fn ring_resumes_when_one_tid_rejoins_after_all_left() {
        for kind in [
            SmrKind::TokenNaive,
            SmrKind::TokenPassFirst,
            SmrKind::TokenPeriodic,
        ] {
            let (alloc, raw) = setup(2, kind, FreeMode::Batch);
            let smr = crate::Smr::from_raw(Arc::clone(&raw) as Arc<dyn RawSmr>);
            let (h0, h1) = (smr.register(0), smr.register(1));
            for _ in 0..4 {
                churn(&alloc, &raw, 0, 1);
                churn(&alloc, &raw, 1, 1);
            }
            h0.detach();
            h1.detach();
            let _h0 = smr.register(0);
            let before = raw.stats().freed;
            churn(&alloc, &raw, 0, 10);
            assert!(raw.stats().freed > before, "{kind:?}: {:?}", raw.stats());
            raw.quiesce_and_drain();
            assert_eq!(raw.stats().garbage, 0, "{kind:?}");
        }
    }

    #[test]
    fn af_variant_keeps_garbage_bounded_under_churn() {
        let (alloc, smr) = setup(2, SmrKind::TokenPeriodic, FreeMode::Amortized { per_op: 2 });
        for round in 0..2_000 {
            for tid in 0..2 {
                churn(&alloc, &smr, tid, 1);
            }
            if round % 500 == 499 {
                let g = smr.stats().garbage;
                // 2 bags per thread x ring latency 2 ops + freebuf backlog;
                // with per_op=2 >= retire rate 1/op the backlog cannot grow
                // unboundedly. Generous bound: 64 objects.
                assert!(g < 64, "garbage unbounded under AF: {g} at round {round}");
            }
        }
        smr.quiesce_and_drain();
        assert_eq!(smr.stats().garbage, 0);
    }
}
