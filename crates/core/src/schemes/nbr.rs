//! Neutralization-based reclamation (Singh, Brown, Mashtizadeh, PPoPP
//! 2021) — `nbr` and `nbr+`, with **cooperative neutralization**.
//!
//! ## The algorithm
//!
//! Operations have two phases. In the *read phase* a thread traverses with
//! **no** per-pointer protection (epoch-cheap reads). Before its first
//! write to shared memory it publishes the handful of pointers it will
//! still dereference ([`crate::RawSmr::enter_write_phase`]) and becomes
//! immune. A thread whose limbo bag fills *neutralizes* all readers: each
//! read-phase thread abandons its operation and restarts from the root,
//! dropping every unprotected pointer. The reclaimer then frees everything
//! in the target bag except objects named in some thread's write-phase
//! reservations.
//!
//! Retirements go through **two bag generations**: the current bag fills
//! to `bag_cap` and is then *sealed*; reclamation always targets the
//! previously sealed bag. By reclaim time the sealed bag's newest object
//! is a whole bag-fill old, which is what gives the `nbr+` skip rule (see
//! below) something to bite on.
//!
//! ## The substitution (DESIGN.md §2)
//!
//! Real NBR delivers neutralization via POSIX signals + `siglongjmp`. Rust
//! has no safe signal-longjmp, so readers instead **poll** a per-thread
//! request counter at every protected hop ([`crate::RawSmr::poll_restart`])
//! and acknowledge before restarting. The reclaimer waits for each thread
//! to (a) acknowledge, (b) be in its write phase (reservations readable),
//! or (c) be outside any operation. Delivery latency changes from "signal"
//! to "one tree hop"; reclamation ordering and bounded garbage are
//! preserved. A bounded wait (~2 ms) keeps liveness if a reader is
//! descheduled mid-read-phase: the reclaimer gives up, keeps its bag, and
//! retries at the next threshold.
//!
//! ## nbr+
//!
//! `nbr+` adds the paper's optimization: skip neutralizing threads whose
//! current operation *began after the newest retirement in the target
//! bag* — such threads cannot have obtained a pointer to anything in it
//! (they started from the root after the unlink). Each `begin_op`
//! publishes a start timestamp to make that check possible; in steady
//! state most threads' ops are newer than the sealed bag, so `nbr+`
//! neutralizes almost no one.

use super::reclaim_unannounced;
use crate::common::SchemeCommon;
use crate::config::SmrConfig;
use crate::retired::RetiredList;
use crate::{RawSmr, SchemeLocal, SmrKind};

use crate::sync::{AtomicU64, AtomicUsize, Ordering};
use epic_alloc::{PoolAllocator, Tid};
use epic_timeline::EventKind;
use epic_util::{now_ns, Backoff, CachePadded, SlotBlocks, TidSlots};
use std::ptr::NonNull;
use std::sync::Arc;

/// Thread status values.
const IDLE: u64 = 0;
const READ_PHASE: u64 = 1;
const WRITE_PHASE: u64 = 2;

/// How long a reclaimer waits for acknowledgments before giving up (ns).
const HANDSHAKE_TIMEOUT_NS: u64 = 2_000_000;

struct NbrShared {
    status: AtomicU64,
    request: AtomicU64,
    ack: AtomicU64,
    /// Operation start timestamp (ns), for the nbr+ skip rule.
    op_start_ns: AtomicU64,
}

struct NbrThread {
    current: RetiredList,
    sealed: RetiredList,
    /// Timestamp of the newest retirement in `sealed`.
    sealed_ns: u64,
    last_seen_request: u64,
    restarts: u64,
}

/// NBR / NBR+. See module docs.
pub struct NbrSmr {
    common: SchemeCommon,
    plus: bool,
    shared: Box<[CachePadded<NbrShared>]>,
    /// Write-phase reservations, `hp_slots` per thread, each thread's
    /// block on its own cache lines.
    reservations: SlotBlocks<AtomicUsize>,
    global_seq: AtomicU64,
    threads: TidSlots<NbrThread>,
}

impl NbrSmr {
    /// Builds the scheme; `plus` selects the nbr+ skip optimization.
    pub fn new(alloc: Arc<dyn PoolAllocator>, cfg: SmrConfig, plus: bool) -> Self {
        let n = cfg.max_threads;
        NbrSmr {
            plus,
            shared: (0..n)
                .map(|_| {
                    CachePadded::new(NbrShared {
                        status: AtomicU64::new(IDLE),
                        request: AtomicU64::new(0),
                        ack: AtomicU64::new(0),
                        op_start_ns: AtomicU64::new(0),
                    })
                })
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            reservations: SlotBlocks::new_with(n, cfg.hp_slots, || AtomicUsize::new(0)),
            global_seq: AtomicU64::new(0),
            threads: TidSlots::new_with(n, |_| NbrThread {
                current: RetiredList::new(),
                sealed: RetiredList::new(),
                sealed_ns: 0,
                last_seen_request: 0,
                restarts: 0,
            }),
            common: SchemeCommon::new(if plus { "nbr+" } else { "nbr" }, alloc, cfg),
        }
    }

    /// Neutralizes readers and reclaims the sealed bag. Returns false if
    /// the handshake timed out (bag kept, retried at the next threshold).
    fn neutralize_and_reclaim(&self, tid: Tid, state: &mut NbrThread) -> bool {
        self.common.stats.get(tid).on_scan();
        let seq = self.global_seq.fetch_add(1, Ordering::SeqCst) + 1;
        let seal_ns = state.sealed_ns;

        // Phase 1: request neutralization (nbr+ skips provably-safe
        // threads). The acknowledgment flags live in recycled scratch —
        // one word per thread — so a reclaim pass allocates nothing.
        let n = self.shared.len();
        let mut scratch = self.common.scratch(tid, n.max(self.reservations.count()));
        scratch.resize(n, 0);
        for (t, sh) in self.shared.iter().enumerate() {
            if t == tid {
                continue;
            }
            if self.plus
                && sh.status.load(Ordering::SeqCst) != IDLE
                && sh.op_start_ns.load(Ordering::SeqCst) > seal_ns
            {
                // Its current op began after every sealed object was
                // unlinked: it cannot reach them. (Any later op is even
                // newer — still safe.)
                continue;
            }
            sh.request.store(seq, Ordering::SeqCst);
            scratch[t] = 1;
        }

        // Phase 2: handshake. A thread passes when it acked, is immune in
        // its write phase, or is idle; in the latter two cases its
        // *published reservations* are honored below.
        let deadline = now_ns() + HANDSHAKE_TIMEOUT_NS;
        for (t, sh) in self.shared.iter().enumerate() {
            if scratch[t] == 0 {
                continue;
            }
            let backoff = Backoff::new();
            loop {
                if sh.ack.load(Ordering::SeqCst) >= seq {
                    break;
                }
                let st = sh.status.load(Ordering::SeqCst);
                if st == WRITE_PHASE || st == IDLE {
                    break;
                }
                if now_ns() > deadline {
                    // Liveness guard: give up, keep the bag.
                    self.common.scratch_done(tid, scratch);
                    return false;
                }
                backoff.snooze();
            }
        }

        // Phase 3: collect write-phase reservations as hazards (reusing
        // the scratch the handshake is done with) and free the rest of the
        // sealed bag (hazarded objects stay sealed).
        reclaim_unannounced(
            &self.common,
            tid,
            &self.reservations,
            &mut state.sealed,
            scratch,
        );
        self.common.record_epoch_advance(tid, seq);
        true
    }
}

impl RawSmr for NbrSmr {
    fn common(&self) -> &SchemeCommon {
        &self.common
    }

    fn begin_op(&self, tid: Tid) {
        self.common.relief(tid);
        let sh = &self.shared[tid];
        if self.plus {
            sh.op_start_ns.store(now_ns(), Ordering::SeqCst);
        }
        sh.status.store(READ_PHASE, Ordering::SeqCst);
        // Starting fresh: any pending neutralization request is satisfied
        // by construction (we hold no pointers yet).
        let req = sh.request.load(Ordering::SeqCst);
        // SAFETY: tid-exclusivity contract.
        let state = unsafe { self.threads.get_mut(tid) };
        if req > state.last_seen_request {
            state.last_seen_request = req;
            sh.ack.store(req, Ordering::SeqCst);
        }
    }

    fn end_op(&self, tid: Tid) {
        let sh = &self.shared[tid];
        sh.status.store(IDLE, Ordering::SeqCst);
        for r in self.reservations.block(tid) {
            r.store(0, Ordering::Release);
        }
    }

    fn poll_restart(&self, tid: Tid) -> bool {
        let sh = &self.shared[tid];
        let req = sh.request.load(Ordering::SeqCst);
        // SAFETY: tid-exclusivity contract.
        let state = unsafe { self.threads.get_mut(tid) };
        if req <= state.last_seen_request {
            return false;
        }
        state.last_seen_request = req;
        if sh.status.load(Ordering::Relaxed) == WRITE_PHASE {
            // Immune: reclaimers honor our reservations; we must not
            // restart mid-write.
            return false;
        }
        // Acknowledge *before* restarting: after this store the reclaimer
        // may free; the caller's contract is to drop every pointer and
        // restart from the root immediately.
        sh.ack.store(req, Ordering::SeqCst);
        state.restarts += 1;
        self.common.stats.get(tid).on_restart();
        self.common
            .cfg
            .recorder
            .mark(tid, EventKind::Neutralize, state.restarts);
        true
    }

    fn enter_write_phase(&self, tid: Tid, ptrs: &[usize]) {
        let block = self.reservations.block(tid);
        debug_assert!(
            ptrs.len() <= block.len(),
            "too many write-phase reservations"
        );
        for (i, &p) in ptrs.iter().enumerate() {
            block[i].store(p, Ordering::SeqCst);
        }
        let sh = &self.shared[tid];
        sh.status.store(WRITE_PHASE, Ordering::SeqCst);
        // Swallow any request that raced with the phase change: the
        // reclaimer observes WRITE_PHASE and reads the reservations we just
        // published.
        let req = sh.request.load(Ordering::SeqCst);
        // SAFETY: tid-exclusivity contract.
        let state = unsafe { self.threads.get_mut(tid) };
        if req > state.last_seen_request {
            state.last_seen_request = req;
        }
    }

    fn retire(&self, tid: Tid, ptr: NonNull<u8>) {
        self.common.stats.get(tid).on_retire(1);
        // SAFETY: tid-exclusivity contract.
        let state = unsafe { self.threads.get_mut(tid) };
        // SAFETY: `ptr` is a live block of this scheme's allocator (retire
        // contract), exclusively ours from unlink to free.
        unsafe { state.current.push_retire(ptr, 0) };
        if state.current.len() >= self.common.cfg.bag_cap {
            if !state.sealed.is_empty() && !self.neutralize_and_reclaim(tid, state) {
                // Handshake timed out; retry at the next retirement.
                return;
            }
            // Seal the current generation (hazard survivors, if any, ride
            // along into the new sealed bag) — an O(1) splice.
            let mut cur = state.current.take();
            state.sealed.append(&mut cur);
            state.sealed_ns = now_ns();
        }
    }

    fn detach(&self, tid: Tid) {
        // Permanently outside any operation: reclaimers skip us.
        self.end_op(tid);
    }

    fn quiesce_and_drain(&self) {
        for r in self.reservations.iter() {
            r.store(0, Ordering::Relaxed);
        }
        for tid in 0..self.common.n_threads() {
            // SAFETY: quiescence is the caller's contract.
            let state = unsafe { self.threads.get_mut(tid) };
            self.common.free_batch_now(tid, &mut state.sealed);
            self.common.free_batch_now(tid, &mut state.current);
            self.common.drain_freebuf(tid);
        }
        self.common.sync_background();
    }

    fn local(&self, tid: Tid) -> SchemeLocal {
        // SAFETY: the shared per-thread cells are owned by self (boxed,
        // stable addresses) and outlive every handle via the Arc.
        unsafe { SchemeLocal::restart_poll(&self.shared[tid].request) }
    }

    fn kind(&self) -> SmrKind {
        if self.plus {
            SmrKind::NbrPlus
        } else {
            SmrKind::Nbr
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epic_alloc::{build_allocator, AllocatorKind, CostModel};

    fn setup(n: usize, bag_cap: usize, plus: bool) -> (Arc<dyn PoolAllocator>, Arc<NbrSmr>) {
        let alloc = build_allocator(AllocatorKind::Sys, n, CostModel::zero());
        let cfg = SmrConfig::new(n).with_bag_cap(bag_cap);
        let smr = Arc::new(NbrSmr::new(Arc::clone(&alloc), cfg, plus));
        (alloc, smr)
    }

    #[test]
    fn reader_gets_neutralized_and_restarts() {
        let (alloc, smr) = setup(2, 4, false);
        // Thread 1 sits in a read phase.
        smr.begin_op(1);
        assert!(!smr.poll_restart(1), "no request yet");
        // Thread 0 fills two bag generations in a separate OS thread (the
        // handshake needs thread 1 to poll, which we do from here). A
        // single pass can legitimately free nothing: the reclaimer's
        // HANDSHAKE_TIMEOUT_NS liveness guard gives up if this thread is
        // not scheduled in time (seen on loaded single-CPU boxes), keeping
        // the bag for the next threshold — so retry the fill cycle until a
        // handshake lands.
        let mut restarted = false;
        for _ in 0..50 {
            let smr2 = Arc::clone(&smr);
            let alloc2 = Arc::clone(&alloc);
            let reclaimer = std::thread::spawn(move || {
                smr2.begin_op(0);
                for _ in 0..9 {
                    let p = alloc2.alloc(0, 64);
                    smr2.retire(0, p);
                }
                smr2.end_op(0);
            });
            // Poll (and thereby ack) until the reclaimer finishes.
            while !reclaimer.is_finished() {
                if smr.poll_restart(1) {
                    restarted = true;
                }
                std::hint::spin_loop();
            }
            reclaimer.join().unwrap();
            if smr.stats().freed > 0 {
                break;
            }
        }
        assert!(restarted, "read-phase thread must be neutralized");
        assert!(smr.stats().restarts >= 1);
        assert!(
            smr.stats().freed > 0,
            "reclaimer must not wait for the reader forever"
        );
        smr.end_op(1);
        smr.quiesce_and_drain();
    }

    #[test]
    fn write_phase_reservations_are_honored() {
        let (alloc, smr) = setup(2, 4, false);
        let victim = alloc.alloc(1, 64);
        // Thread 1 enters write phase holding the victim.
        smr.begin_op(1);
        smr.enter_write_phase(1, &[victim.as_ptr() as usize]);
        // Thread 0 retires the victim plus filler across two generations;
        // the handshake must pass (thread 1 is immune) and the victim must
        // survive the reclaim of its generation.
        smr.begin_op(0);
        smr.retire(0, victim);
        for _ in 0..8 {
            let p = alloc.alloc(0, 64);
            smr.retire(0, p);
        }
        smr.end_op(0);
        let s = smr.stats();
        assert!(s.freed > 0, "filler freed: {s:?}");
        assert!(s.garbage >= 1, "victim survives: {s:?}");
        assert!(!smr.poll_restart(1), "write phase is immune to restarts");
        smr.end_op(1);
        smr.quiesce_and_drain();
        assert_eq!(smr.stats().garbage, 0);
    }

    #[test]
    fn idle_threads_do_not_block_reclaim() {
        let (alloc, smr) = setup(4, 4, false);
        // Threads 1-3 never begin ops (IDLE).
        smr.begin_op(0);
        for _ in 0..16 {
            let p = alloc.alloc(0, 64);
            smr.retire(0, p);
        }
        smr.end_op(0);
        assert!(smr.stats().freed >= 8, "{:?}", smr.stats());
        smr.quiesce_and_drain();
    }

    #[test]
    fn nbr_plus_skips_fresh_ops() {
        let (alloc, smr) = setup(2, 4, true);
        // Generation A: retire 4 objects (fills and seals the bag).
        smr.begin_op(0);
        for _ in 0..4 {
            let p = alloc.alloc(0, 64);
            smr.retire(0, p);
        }
        smr.end_op(0);
        // Thread 1 starts an op AFTER generation A was sealed.
        smr.begin_op(1);
        // Generation B fills: reclaim of A runs; nbr+ must skip thread 1
        // (its op started after A's newest retirement), so no handshake
        // stall and no restart even though thread 1 never polls.
        smr.begin_op(0);
        for _ in 0..4 {
            let p = alloc.alloc(0, 64);
            smr.retire(0, p);
        }
        smr.end_op(0);
        assert!(smr.stats().freed >= 4, "{:?}", smr.stats());
        assert!(
            !smr.poll_restart(1),
            "nbr+ should not have signaled thread 1"
        );
        assert_eq!(smr.stats().restarts, 0);
        smr.end_op(1);
        smr.quiesce_and_drain();
    }

    #[test]
    fn plain_nbr_neutralizes_fresh_ops_too() {
        let (alloc, smr) = setup(2, 4, false);
        smr.begin_op(1); // reader in read phase the whole time
        let smr2 = Arc::clone(&smr);
        let alloc2 = Arc::clone(&alloc);
        let reclaimer = std::thread::spawn(move || {
            smr2.begin_op(0);
            for _ in 0..9 {
                let p = alloc2.alloc(0, 64);
                smr2.retire(0, p);
            }
            smr2.end_op(0);
        });
        let mut restarted = false;
        for _ in 0..10_000_000 {
            if smr.poll_restart(1) {
                restarted = true;
                break;
            }
        }
        reclaimer.join().unwrap();
        assert!(restarted, "plain nbr signals everyone");
        smr.end_op(1);
        smr.quiesce_and_drain();
    }

    #[test]
    fn detached_threads_never_block_handshake() {
        let (alloc, smr) = setup(3, 4, false);
        // Thread 1 begins an op then detaches (end-of-workload pattern).
        smr.begin_op(1);
        smr.detach(1);
        // Thread 2 never participates; thread 0 reclaims through both.
        smr.begin_op(0);
        for _ in 0..12 {
            let p = alloc.alloc(0, 64);
            smr.retire(0, p);
        }
        smr.end_op(0);
        assert!(smr.stats().freed >= 4, "{:?}", smr.stats());
        smr.quiesce_and_drain();
        assert_eq!(smr.stats().garbage, 0);
    }

    #[test]
    fn multithreaded_stress_with_polling() {
        for plus in [false, true] {
            let (alloc, smr) = setup(4, 16, plus);
            let handles: Vec<_> = (0..4)
                .map(|tid| {
                    let smr = Arc::clone(&smr);
                    let alloc = Arc::clone(&alloc);
                    std::thread::spawn(move || {
                        for _ in 0..3_000 {
                            smr.begin_op(tid);
                            // Simulated traversal with polling.
                            for _ in 0..3 {
                                let _ = smr.poll_restart(tid);
                            }
                            let p = alloc.alloc(tid, 64);
                            smr.enter_write_phase(tid, &[p.as_ptr() as usize]);
                            smr.retire(tid, p);
                            smr.end_op(tid);
                        }
                        smr.detach(tid);
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            smr.quiesce_and_drain();
            let s = smr.stats();
            assert_eq!(s.retired, 12_000, "plus={plus}");
            assert_eq!(s.freed, 12_000, "plus={plus}");
            assert_eq!(s.garbage, 0, "plus={plus}");
        }
    }
}
