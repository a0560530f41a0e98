//! The address-reservation schemes — `hp`, `nbr` and `nbr+` — in one
//! implementation.
//!
//! Each thread owns `hp_slots` address slots on its own cache lines
//! ([`SlotBlocks`]), cleared by `end_op`. A reclaim frees every bagged
//! object whose address no slot announces (a sorted snapshot of all slots,
//! binary-searched); announced objects stay bagged. The schemes differ
//! only at the points marked *shape point* below:
//!
//! | scheme | a slot is written | a reclaim runs when | and targets |
//! |---|---|---|---|
//! | `hp`: hazard pointers (Michael) | on every hop ([`SchemeLocal::hazard_slots`]) | the bag holds `max(bag_cap, 2 × slots)` | the bag itself |
//! | `nbr`: neutralization-based reclamation (Singh et al.), cooperative | once, in [`crate::RawSmr::enter_write_phase`] ([`SchemeLocal::restart_poll`]) | the current bag reaches `bag_cap` | the sealed generation, after neutralizing every other thread; then it seals the current one |
//! | `nbr+` | as `nbr` | as `nbr` | as `nbr`, skipping threads whose operation began after the sealed bag's newest retirement |
//!
//! hp's per-hop store and SeqCst fence are why the paper finds it 7–9×
//! slower than token_af on traversal-heavy trees (Fig. 11a); its scans
//! still free in batches, so amortized freeing helps it modestly (§5).
//!
//! ## nbr
//!
//! An nbr operation reads with **no** per-pointer protection until its
//! first shared write, then publishes the few pointers it still needs to
//! its slots and is immune (its *write phase*). A reclaimer *neutralizes*
//! every thread still in its *read phase*: that thread drops its pointers
//! and restarts from the root. Reclamation targets the previously sealed
//! bag, whose newest object is a whole bag-fill old — which is what gives
//! the `nbr+` skip rule something to bite on.
//!
//! Real NBR neutralizes with POSIX signals + `siglongjmp` (DESIGN.md
//! §2.2). Safe Rust has no signal-longjmp, so readers **poll** a
//! per-thread request counter at every protected hop
//! ([`crate::RawSmr::poll_restart`]) and acknowledge before restarting;
//! the reclaimer waits until each thread has acknowledged, is in its write
//! phase or is outside any operation. A reader descheduled mid-read-phase
//! cannot be interrupted, so the wait is bounded (~2 ms): the reclaimer
//! gives up, keeps both bags and retries at its next *retirement*, so a
//! reader that never acknowledges makes every later retirement wait the
//! full 2 ms.
//!
//! `nbr+` skips threads whose current operation *began after the newest
//! retirement in the target bag*: they started from the root after the
//! unlink, so they cannot reach it. Each `begin_op` publishes a start
//! timestamp for this check; in steady state most operations are newer
//! than the sealed bag, so `nbr+` neutralizes almost no one.

use crate::common::SchemeCommon;
use crate::config::SmrConfig;
use crate::retired::RetiredList;
use crate::{RawSmr, SchemeLocal, SmrKind};

use crate::sync::{fence, AtomicU64, AtomicUsize, Ordering};
use epic_alloc::{PoolAllocator, Tid};
use epic_timeline::EventKind;
use epic_util::{now_ns, Backoff, CachePadded, SlotBlocks, TidSlots};
use std::ptr::NonNull;
use std::sync::Arc;

/// nbr thread status values; a thread starts `IDLE`.
const IDLE: u64 = 0;
const READ_PHASE: u64 = 1;
const WRITE_PHASE: u64 = 2;

/// How long an nbr reclaimer waits for acknowledgments (ns).
const HANDSHAKE_TIMEOUT_NS: u64 = 2_000_000;

/// One thread's nbr handshake cells, all zero at start.
#[derive(Default)]
struct Handshake {
    status: AtomicU64,
    request: AtomicU64,
    ack: AtomicU64,
    /// Operation start timestamp (ns), for the nbr+ skip rule.
    op_start_ns: AtomicU64,
}

#[derive(Default)]
struct HazardThread {
    /// hp's only bag; nbr's current generation.
    current: RetiredList,
    /// nbr's sealed generation; always empty under hp.
    sealed: RetiredList,
    /// Timestamp of the newest retirement in `sealed`.
    sealed_ns: u64,
    /// Slot snapshot (and nbr's acknowledgment flags), reused by every
    /// reclaim.
    scan: Vec<u64>,
    last_seen_request: u64,
    restarts: u64,
}

/// `hp`, `nbr` or `nbr+`, chosen by `kind`. See module docs.
pub struct HazardSmr {
    common: SchemeCommon,
    kind: SmrKind,
    /// `hp_slots` address slots per thread, each thread's block on its own
    /// cache lines.
    slots: SlotBlocks<AtomicUsize>,
    /// nbr's per-thread handshake cells; empty under hp.
    shared: Box<[CachePadded<Handshake>]>,
    global_seq: AtomicU64,
    threads: TidSlots<HazardThread>,
}

impl HazardSmr {
    /// Builds the address-reservation scheme `kind`; panics unless it is
    /// `Hp`, `Nbr` or `NbrPlus`.
    pub fn new(alloc: Arc<dyn PoolAllocator>, cfg: SmrConfig, kind: SmrKind) -> Self {
        let n = cfg.max_threads;
        // Shape point 1: only nbr hands threads handshake cells.
        let cells = match kind {
            SmrKind::Hp => 0,
            SmrKind::Nbr | SmrKind::NbrPlus => n,
            other => panic!("{other:?} is not an address-reservation scheme"),
        };
        HazardSmr {
            kind,
            slots: SlotBlocks::new_with(n, cfg.hp_slots, || AtomicUsize::new(0)),
            shared: (0..cells).map(|_| CachePadded::default()).collect(),
            global_seq: AtomicU64::new(0),
            threads: TidSlots::new_with(n, |_| HazardThread::default()),
            common: SchemeCommon::new(kind.base_name(), alloc, cfg),
        }
    }

    /// Raw slot contents (tests).
    #[cfg(test)]
    pub(crate) fn slot_value(&self, tid: Tid, slot: usize) -> usize {
        self.slots.block(tid)[slot].load(Ordering::Relaxed)
    }

    /// The address-snapshot reclaim: disposes of every object in `bag`
    /// whose address no slot announces; announced objects stay. The sorted
    /// snapshot lives in the thread's scan buffer `scan` and the bag is
    /// partitioned in place: no heap allocation.
    fn reclaim(&self, tid: Tid, bag: &mut RetiredList, scan: &mut Vec<u64>) {
        // The fence pairs with the SeqCst announcement stores: any
        // announcement that precedes this scan in the SeqCst order is
        // observed.
        fence(Ordering::SeqCst);
        self.common.clear_scan(tid, scan, self.slots.count());
        scan.extend(
            self.slots
                .iter()
                .map(|s| s.load(Ordering::Acquire) as u64)
                .filter(|&p| p != 0),
        );
        scan.sort_unstable();
        let mut freeable = RetiredList::new();
        bag.partition_into(
            |p| scan.binary_search(&(p.as_ptr() as u64)).is_ok(),
            &mut freeable,
        );
        self.common.dispose(tid, &mut freeable);
    }

    /// nbr: neutralizes readers and reclaims the sealed bag. Returns false
    /// if the handshake timed out (both bags kept, retried at the next
    /// retirement).
    fn neutralize_and_reclaim(&self, tid: Tid, state: &mut HazardThread) -> bool {
        self.common.stats.get(tid).on_scan();
        let seq = self.global_seq.fetch_add(1, Ordering::SeqCst) + 1;
        let seal_ns = state.sealed_ns;

        // Phase 1: request neutralization (shape point 2: nbr+ skips
        // provably-safe threads). The acknowledgment flags live in the
        // scan buffer — one word per thread — so a reclaim pass allocates
        // nothing.
        let n = self.shared.len();
        let acks = &mut state.scan;
        self.common.clear_scan(tid, acks, n.max(self.slots.count()));
        acks.resize(n, 0);
        for (t, sh) in self.shared.iter().enumerate() {
            if t == tid {
                continue;
            }
            if self.kind == SmrKind::NbrPlus
                && sh.status.load(Ordering::SeqCst) != IDLE
                && sh.op_start_ns.load(Ordering::SeqCst) > seal_ns
            {
                // Its current op began after every sealed object was
                // unlinked: it cannot reach them. (Any later op is even
                // newer — still safe.)
                continue;
            }
            sh.request.store(seq, Ordering::SeqCst);
            acks[t] = 1;
        }

        // Phase 2: handshake. A thread passes when it acked, is immune in
        // its write phase, or is idle; in the latter two cases its
        // *published slots* are honored below.
        let deadline = now_ns() + HANDSHAKE_TIMEOUT_NS;
        for (t, sh) in self.shared.iter().enumerate() {
            if acks[t] == 0 {
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
                    // Liveness guard: give up, keep the bags.
                    return false;
                }
                backoff.snooze();
            }
        }

        // Phase 3: free the sealed bag but for the write-phase slots
        // (reusing the scan buffer the handshake is done with); announced
        // objects stay sealed.
        self.reclaim(tid, &mut state.sealed, &mut state.scan);
        self.common.record_epoch_advance(tid, seq);
        true
    }
}

impl RawSmr for HazardSmr {
    fn common(&self) -> &SchemeCommon {
        &self.common
    }

    fn begin_op(&self, tid: Tid) {
        self.common.relief(tid);
        let Some(sh) = self.shared.get(tid) else {
            return;
        };
        // Shape point 2: the start stamp nbr+'s skip rule reads.
        if self.kind == SmrKind::NbrPlus {
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
        if let Some(sh) = self.shared.get(tid) {
            sh.status.store(IDLE, Ordering::SeqCst);
        }
        // Release the operation's slots so reclaimers can free.
        for slot in self.slots.block(tid) {
            slot.store(0, Ordering::Release);
        }
    }

    fn poll_restart(&self, tid: Tid) -> bool {
        let Some(sh) = self.shared.get(tid) else {
            return false;
        };
        let req = sh.request.load(Ordering::SeqCst);
        // SAFETY: tid-exclusivity contract.
        let state = unsafe { self.threads.get_mut(tid) };
        if req <= state.last_seen_request {
            return false;
        }
        state.last_seen_request = req;
        if sh.status.load(Ordering::Relaxed) == WRITE_PHASE {
            // Immune: reclaimers honor our slots; we must not restart
            // mid-write.
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
        // Shape point 3: hp writes its slots on every hop (`local`); nbr
        // writes them here, once.
        let Some(sh) = self.shared.get(tid) else {
            return;
        };
        let block = self.slots.block(tid);
        debug_assert!(
            ptrs.len() <= block.len(),
            "too many write-phase reservations"
        );
        for (i, &p) in ptrs.iter().enumerate() {
            block[i].store(p, Ordering::SeqCst);
        }
        sh.status.store(WRITE_PHASE, Ordering::SeqCst);
        // Swallow any request that raced with the phase change: the
        // reclaimer observes WRITE_PHASE and reads the slots we just
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
        unsafe { state.current.push(ptr) };
        // Shape point 4: when a reclaim runs and which bag it targets.
        let cap = self.common.cfg.bag_cap;
        if self.kind == SmrKind::Hp {
            if state.current.len() >= cap.max(2 * self.slots.count()) {
                self.common.stats.get(tid).on_scan();
                self.reclaim(tid, &mut state.current, &mut state.scan);
            }
        } else if state.current.len() >= cap {
            if !state.sealed.is_empty() && !self.neutralize_and_reclaim(tid, state) {
                // Handshake timed out; retry at the next retirement.
                return;
            }
            // Seal the current generation (announced survivors, if any,
            // ride along into the new sealed bag) — an O(1) splice.
            let mut cur = state.current.take();
            state.sealed.append(&mut cur);
            state.sealed_ns = now_ns();
        }
    }

    fn detach(&self, tid: Tid) {
        // Permanently outside any operation: no slots, and nbr reclaimers
        // skip us.
        self.end_op(tid);
    }

    fn quiesce_and_drain(&self) {
        for s in self.slots.iter() {
            s.store(0, Ordering::Relaxed);
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
        // SAFETY: the slot blocks and handshake cells are owned by self,
        // boxed (stable addresses), and outlive every handle via the
        // facade's Arc.
        unsafe {
            match self.shared.get(tid) {
                Some(sh) => SchemeLocal::restart_poll(&sh.request),
                None => SchemeLocal::hazard_slots(self.slots.block(tid)),
            }
        }
    }

    fn kind(&self) -> SmrKind {
        self.kind
    }
}
