//! The thread-bound protection API: [`Smr`] → [`SmrHandle`] → [`OpGuard`].
//!
//! The raw [`RawSmr`] trait threads a [`Tid`] through every call, which
//! on a per-hop path would mean re-indexing the scheme's per-thread slot
//! arrays at every link. This module resolves that per-thread state
//! **once**, at [`Smr::register`], into a [`SchemeLocal`] — cached
//! pointers to the thread's own hazard/era slots, reservation cell, or
//! restart counter — so the per-hop protocol ([`OpGuard::protect_load`])
//! runs with no `tid` arithmetic and no dyn dispatch. The trait carries no
//! per-hop method of its own: the [`SchemeLocal`] variant a scheme returns
//! is the single declaration of which protocol it needs.
//!
//! The protocol itself (§3 of the paper: publish → re-read/validate →
//! write phase → retire) lives here in exactly one place:
//!
//! ```text
//! let h = smr.register(tid);            // once per thread
//! let guard = h.begin_op();             // RAII begin_op/end_op
//! loop {
//!     let Ok(next) = guard.protect_load(slot, link) else { restart };
//!     ...
//! }
//! guard.enter_write_phase(&[nodes]);
//! guard.retire(unlinked);
//! drop(guard);                          // end_op
//! ```
//!
//! Misuse is ruled out by construction: registering the same tid twice
//! panics, an [`OpGuard`] cannot outlive its handle (borrow), and neither
//! type can cross threads (`!Send`/`!Sync`) — see the `compile_fail`
//! doctests on [`SmrHandle`].

use crate::sync::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use crate::{RawSmr, SmrKind, SmrSnapshot};
use epic_alloc::{PoolAllocator, Tid};
use std::cell::Cell;
use std::marker::PhantomData;
use std::ptr::NonNull;
use std::sync::Arc;

/// Low link-word bits treated as data-structure tag bits (mark flags).
/// [`OpGuard::protect_load`] strips them before publishing a pointer to a
/// hazard slot; nodes are ≥ 16-aligned so the bits never carry address.
pub const LINK_TAG_MASK: usize = 0b11;

/// The operation must be restarted from the root: a neutralization request
/// (NBR) arrived mid-traversal. The caller must drop every data-structure
/// pointer it obtained under the current guard before retrying.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Restart;

/// Out-of-line panic for a slot index past the scheme's `hp_slots`: keeps
/// the bounds check in [`OpGuard::protect_load`] to one predictable
/// compare without dragging panic formatting into the hot loop.
#[cold]
#[inline(never)]
fn slot_out_of_range(slot: usize, k: usize) -> ! {
    panic!("protection slot {slot} out of range (scheme has {k} slots per thread)");
}

/// A scheme's per-thread fast path, captured once at registration.
///
/// Internally this caches raw pointers into state the scheme owns (boxed
/// slot arrays, cache-padded reservation cells). The pointers stay valid
/// for the scheme's lifetime, which the [`SmrHandle`] pins via its `Arc`;
/// the handle's `!Send`/`!Sync` marker keeps the per-thread cells
/// single-writer. The representation is sealed: values can only be built
/// through the constructors below, whose pointer-caching forms are
/// `unsafe` with an explicit stability contract.
pub struct SchemeLocal(Local);

/// The variants, private so safe code cannot forge a pointer-carrying
/// value (see [`SchemeLocal`]).
enum Local {
    /// Nothing to publish and links never need re-validation
    /// (epoch/token/QSBR/leak schemes): the grace period covers the whole
    /// operation.
    Passive,
    /// Hazard pointers: publish the (tag-stripped) pointer to one of the
    /// thread's `k` hazard slots with SeqCst ordering, then re-read the
    /// link until stable (Michael's protocol).
    HazardSlots { slots: *const AtomicUsize, k: usize },
    /// Hazard eras: publish the current global era to the thread's era
    /// slot (skipping the store when unchanged), then validate the link.
    EraSlots {
        era: *const AtomicU64,
        slots: *const AtomicU64,
        k: usize,
    },
    /// Wait-free eras: like [`Local::EraSlots`] but each slot is a
    /// `[enter, exit]` double word published with an intervening fence
    /// (WFE's two-location handshake).
    EraSlots2 {
        era: *const AtomicU64,
        slots: *const AtomicU64,
        k: usize,
    },
    /// Interval-based reclamation: bump the thread's reservation upper
    /// bound to the current era before dereferencing, then validate.
    EraInterval {
        era: *const AtomicU64,
        hi: *const AtomicU64,
    },
    /// NBR: reads are unprotected, but every hop polls the thread's
    /// neutralization-request counter. `seen` mirrors the last counter
    /// value routed through [`RawSmr::poll_restart`], so the common
    /// no-request case is one relaxed-ish load and a compare — no dyn call.
    RestartPoll {
        request: *const AtomicU64,
        seen: Cell<u64>,
    },
}

impl SchemeLocal {
    /// Fast path for schemes with nothing to publish per hop (the
    /// [`RawSmr::local`] default).
    pub fn passive() -> Self {
        SchemeLocal(Local::Passive)
    }

    /// True for the slot/era variants, whose protected targets can be
    /// retired mid-operation so every hop re-reads its link until stable.
    fn validating(&self) -> bool {
        matches!(
            self.0,
            Local::HazardSlots { .. }
                | Local::EraSlots { .. }
                | Local::EraSlots2 { .. }
                | Local::EraInterval { .. }
        )
    }

    /// Fast path over `slots`, the registering thread's own hazard slots.
    ///
    /// # Safety
    /// `slots` must borrow from state owned *by the scheme itself* and
    /// remain valid (unmoved) for the scheme's whole lifetime — the
    /// [`SmrHandle`]'s `Arc` pins the scheme, not a stack temporary.
    pub unsafe fn hazard_slots(slots: &[AtomicUsize]) -> Self {
        SchemeLocal(Local::HazardSlots {
            slots: slots.as_ptr(),
            k: slots.len(),
        })
    }

    /// Fast path over the global `era` clock and the registering thread's
    /// own era slots.
    ///
    /// # Safety
    /// As [`hazard_slots`](Self::hazard_slots), for both `era` and
    /// `slots`.
    pub unsafe fn era_slots(era: &AtomicU64, slots: &[AtomicU64]) -> Self {
        SchemeLocal(Local::EraSlots {
            era,
            slots: slots.as_ptr(),
            k: slots.len(),
        })
    }

    /// Like [`era_slots`](Self::era_slots) for double-word (`[enter,
    /// exit]`) announcements; `slots` holds `2 * k` words.
    ///
    /// # Safety
    /// As [`hazard_slots`](Self::hazard_slots), for both `era` and
    /// `slots`.
    pub unsafe fn era_slots_2wide(era: &AtomicU64, slots: &[AtomicU64]) -> Self {
        debug_assert!(slots.len().is_multiple_of(2));
        SchemeLocal(Local::EraSlots2 {
            era,
            slots: slots.as_ptr(),
            k: slots.len() / 2,
        })
    }

    /// Fast path over the global `era` clock and the registering thread's
    /// reservation upper bound.
    ///
    /// # Safety
    /// As [`hazard_slots`](Self::hazard_slots), for both `era` and `hi`.
    pub unsafe fn era_interval(era: &AtomicU64, hi: &AtomicU64) -> Self {
        SchemeLocal(Local::EraInterval { era, hi })
    }

    /// Fast path over the registering thread's neutralization-request
    /// counter. Requests not yet observed are routed through
    /// [`RawSmr::poll_restart`].
    ///
    /// # Safety
    /// As [`hazard_slots`](Self::hazard_slots), for `request`.
    pub unsafe fn restart_poll(request: &AtomicU64) -> Self {
        SchemeLocal(Local::RestartPoll {
            request,
            seen: Cell::new(request.load(Ordering::SeqCst)),
        })
    }
}

/// A shared reclamation scheme: the cheap-to-clone, `Send + Sync` entry
/// point returned by [`build_smr`](crate::build_smr).
///
/// Cross-thread surface only: trial setup obtains per-thread
/// [`SmrHandle`]s via [`register`](Smr::register); the harness-side
/// lifecycle calls (`stats`, `detach`, `quiesce_and_drain`) delegate to the
/// underlying [`RawSmr`], which remains reachable through
/// [`raw`](Smr::raw) as the escape hatch for scheme-driving code that
/// manages tids itself (sweep construction, tests, custom schemes).
#[derive(Clone)]
pub struct Smr {
    raw: Arc<dyn RawSmr>,
    /// One flag per tid; `register` flips it on, handle drop flips it off.
    registered: Arc<[AtomicBool]>,
}

impl Smr {
    /// Wraps a raw scheme (the normal path is
    /// [`build_smr`](crate::build_smr); use this for custom schemes).
    pub fn from_raw(raw: Arc<dyn RawSmr>) -> Smr {
        let registered = (0..raw.max_threads())
            .map(|_| AtomicBool::new(false))
            .collect::<Vec<_>>()
            .into();
        Smr { raw, registered }
    }

    /// The underlying scheme object — the tid-everywhere escape hatch.
    pub fn raw(&self) -> &Arc<dyn RawSmr> {
        &self.raw
    }

    /// Unwraps into the raw scheme object.
    pub fn into_raw(self) -> Arc<dyn RawSmr> {
        self.raw
    }

    /// Binds the calling thread to `tid`, resolving the scheme's
    /// per-thread hot state once.
    ///
    /// # Panics
    /// If `tid` is out of range or already registered (through *this*
    /// facade or a clone of it) without having been released — the
    /// one-thread-per-tid contract every lower layer relies on.
    pub fn register(&self, tid: Tid) -> SmrHandle {
        assert!(
            tid < self.registered.len(),
            "tid {tid} out of range for {} threads",
            self.registered.len()
        );
        assert!(
            !self.registered[tid].swap(true, Ordering::AcqRel),
            "tid {tid} is already registered; drop (or detach) its SmrHandle first"
        );
        let local = self.raw.local(tid);
        SmrHandle {
            alloc: Arc::clone(self.raw.allocator()),
            validating: local.validating(),
            local,
            raw: Arc::clone(&self.raw),
            registered: Arc::clone(&self.registered),
            tid,
            _not_send_sync: PhantomData,
        }
    }

    /// Scheme name including the free-mode suffix (e.g. `"debra_af"`).
    pub fn name(&self) -> &str {
        self.raw.name()
    }

    /// The scheme's kind tag.
    pub fn kind(&self) -> SmrKind {
        self.raw.kind()
    }

    /// Aggregated scheme statistics.
    pub fn stats(&self) -> SmrSnapshot {
        self.raw.stats()
    }

    /// Resets statistics between trials.
    pub fn reset_stats(&self) {
        self.raw.reset_stats()
    }

    /// Announces that `tid` has left the workload (see
    /// [`RawSmr::detach`]); prefer [`SmrHandle::detach`], which also
    /// releases the registration.
    pub fn detach(&self, tid: Tid) {
        self.raw.detach(tid)
    }

    /// Teardown: frees everything still in limbo (see
    /// [`RawSmr::quiesce_and_drain`]).
    pub fn quiesce_and_drain(&self) {
        self.raw.quiesce_and_drain()
    }

    /// The allocator this scheme frees through.
    pub fn allocator(&self) -> &Arc<dyn PoolAllocator> {
        self.raw.allocator()
    }
}

/// A thread's bound view of a scheme: `tid`, allocator, and the scheme's
/// [`SchemeLocal`] fast path, resolved once by [`Smr::register`].
///
/// Neither the handle nor its guards can cross threads:
///
/// ```compile_fail
/// # use epic_alloc::{build_allocator, AllocatorKind, CostModel};
/// # use epic_smr::{build_smr, SmrConfig, SmrKind};
/// let smr = build_smr(
///     SmrKind::Debra,
///     build_allocator(AllocatorKind::Sys, 1, CostModel::zero()),
///     SmrConfig::new(1),
/// );
/// let h = smr.register(0);
/// std::thread::spawn(move || drop(h)); // ERROR: SmrHandle is !Send
/// ```
///
/// and an [`OpGuard`] cannot outlive the handle it was pinned from:
///
/// ```compile_fail
/// # use epic_alloc::{build_allocator, AllocatorKind, CostModel};
/// # use epic_smr::{build_smr, SmrConfig, SmrKind};
/// let smr = build_smr(
///     SmrKind::Debra,
///     build_allocator(AllocatorKind::Sys, 1, CostModel::zero()),
///     SmrConfig::new(1),
/// );
/// let guard = {
///     let h = smr.register(0);
///     h.begin_op() // ERROR: borrowed value does not live long enough
/// };
/// ```
pub struct SmrHandle {
    raw: Arc<dyn RawSmr>,
    alloc: Arc<dyn PoolAllocator>,
    registered: Arc<[AtomicBool]>,
    tid: Tid,
    local: SchemeLocal,
    validating: bool,
    /// `SchemeLocal::Passive` holds no pointers; this marker makes the
    /// handle `!Send`/`!Sync` for every scheme, not just the caching ones.
    _not_send_sync: PhantomData<*mut ()>,
}

impl SmrHandle {
    /// The bound thread id.
    #[inline]
    pub fn tid(&self) -> Tid {
        self.tid
    }

    /// Begins a data-structure operation (publishes epoch/reservation
    /// state, drains the amortized-free list). The returned guard ends the
    /// operation on drop.
    #[inline]
    pub fn begin_op(&self) -> OpGuard<'_> {
        self.raw.begin_op(self.tid);
        OpGuard {
            h: self,
            stale: Cell::new(false),
        }
    }

    /// Allocates `size` bytes for a node: object pool first
    /// ([`FreeMode::Pooled`](crate::FreeMode::Pooled)), allocator
    /// otherwise, with the scheme's `on_alloc` hook (birth-era stamp +
    /// amortized-free tick) already applied.
    #[inline]
    pub fn alloc(&self, size: usize) -> NonNull<u8> {
        let ptr = self
            .raw
            .try_pool_alloc(self.tid, size)
            .unwrap_or_else(|| self.alloc.alloc(self.tid, size));
        self.raw.on_alloc(self.tid, ptr);
        ptr
    }

    /// Returns an *unpublished* block straight to the allocator (failed
    /// CAS / validation paths — the block was never visible to other
    /// threads, so it must not go through `retire`).
    ///
    /// # Safety
    /// `ptr` must come from [`alloc`](Self::alloc) on this handle and must
    /// not have been published to the data structure.
    #[inline]
    pub unsafe fn dealloc_unpublished(&self, ptr: NonNull<u8>) {
        self.alloc.dealloc(self.tid, ptr);
    }

    /// The allocator this handle allocates from.
    pub fn allocator(&self) -> &Arc<dyn PoolAllocator> {
        &self.alloc
    }

    /// True for slot/era schemes, whose protected targets can be retired
    /// (and their memory recycled) mid-operation. Data structures consult
    /// this for *their own* staleness checks (e.g. a copy-on-write parent's
    /// mark bit) layered on top of [`OpGuard::protect_load`]'s link
    /// validation; under grace-period schemes such checks are unnecessary
    /// and skipped.
    #[inline]
    pub fn validating(&self) -> bool {
        self.validating
    }

    /// Leaves the workload for good: forwards to [`RawSmr::detach`]
    /// (permanent quiescence / ring removal) and releases the tid
    /// registration. A plainly dropped handle releases the tid without
    /// detaching — right for transient registrations (prefill threads)
    /// whose tid keeps operating later.
    pub fn detach(self) {
        self.raw.detach(self.tid);
        // Drop releases the registration flag.
    }
}

impl Drop for SmrHandle {
    fn drop(&mut self) {
        self.registered[self.tid].store(false, Ordering::Release);
    }
}

/// RAII operation scope obtained from [`SmrHandle::begin_op`]; `end_op`
/// runs on drop. Carries the protocol combinators the data structures
/// build on — see [`protect_load`](OpGuard::protect_load).
///
/// Like the handle it borrows, a guard is pinned to its thread:
///
/// ```compile_fail
/// fn assert_send<T: Send>() {}
/// assert_send::<epic_smr::OpGuard<'static>>(); // ERROR: OpGuard is !Send
/// ```
pub struct OpGuard<'h> {
    h: &'h SmrHandle,
    /// Set by [`restart`](Self::restart): protections established before
    /// the restart are void, so a retire before re-protecting (another
    /// [`protect_load`](Self::protect_load) or
    /// [`enter_write_phase`](Self::enter_write_phase)) is a misuse —
    /// [`retire`](Self::retire) panics on it.
    stale: Cell<bool>,
}

impl<'h> OpGuard<'h> {
    /// The guarded thread id.
    #[inline]
    pub fn tid(&self) -> Tid {
        self.h.tid
    }

    /// The handle this guard was pinned from.
    #[inline]
    pub fn handle(&self) -> &'h SmrHandle {
        self.h
    }

    /// See [`SmrHandle::validating`].
    #[inline]
    pub fn validating(&self) -> bool {
        self.h.validating
    }

    /// One protected hop — **the** protocol primitive. Loads `link`,
    /// publishes whatever protection the scheme requires for the loaded
    /// pointer (hazard slot, era slot, reservation bump), and re-reads the
    /// link until it is stable under the published protection; then polls
    /// for neutralization (NBR).
    ///
    /// Returns the stable raw link word — low [`LINK_TAG_MASK`] bits (mark
    /// flags) included; they are stripped only for slot publication. On
    /// `Err(`[`Restart`]`)` the caller must drop every pointer read under
    /// this guard and restart its operation from the root.
    ///
    /// Epoch/token schemes compile this down to the single `Acquire` load.
    #[inline]
    pub fn protect_load(&self, slot: usize, link: &AtomicUsize) -> Result<usize, Restart> {
        let r = self.protect_load_inner(slot, link);
        if r.is_ok() {
            // A successful protection re-arms the guard after a restart.
            self.stale.set(false);
        }
        r
    }

    #[inline]
    fn protect_load_inner(&self, slot: usize, link: &AtomicUsize) -> Result<usize, Restart> {
        let mut raw = link.load(Ordering::Acquire);
        match &self.h.local.0 {
            Local::Passive => Ok(raw),
            Local::HazardSlots { slots, k } => {
                if slot >= *k {
                    slot_out_of_range(slot, *k);
                }
                // SAFETY: `slots` points at this thread's `k` hazard slots
                // (bounds just checked), alive while the handle's Arc pins
                // the scheme.
                let s = unsafe { &*slots.add(slot) };
                loop {
                    // SeqCst: the announcement must be ordered before the
                    // validating re-read (Michael's protocol).
                    s.store(
                        raw & !LINK_TAG_MASK,
                        crate::mutants::ord(crate::mutants::M_HP_PUBLISH_RELAXED, Ordering::SeqCst),
                    );
                    let again = link.load(Ordering::Acquire);
                    if again == raw {
                        return Ok(raw);
                    }
                    raw = again;
                }
            }
            Local::EraSlots { era, slots, k } => {
                if slot >= *k {
                    slot_out_of_range(slot, *k);
                }
                // SAFETY: as above — bounds checked, scheme-owned cells
                // pinned by the Arc.
                let (era, s) = unsafe { (&**era, &*slots.add(slot)) };
                loop {
                    let e = era.load(Ordering::SeqCst);
                    if s.load(Ordering::Relaxed) != e {
                        // SeqCst: publication precedes the validating
                        // re-read.
                        s.store(
                            e,
                            crate::mutants::ord(
                                crate::mutants::M_ERA_PUBLISH_RELAXED,
                                Ordering::SeqCst,
                            ),
                        );
                    }
                    let again = link.load(Ordering::Acquire);
                    if again == raw {
                        return Ok(raw);
                    }
                    raw = again;
                }
            }
            Local::EraSlots2 { era, slots, k } => {
                if slot >= *k {
                    slot_out_of_range(slot, *k);
                }
                // SAFETY: as above.
                let (era, enter, exit) =
                    unsafe { (&**era, &*slots.add(slot * 2), &*slots.add(slot * 2 + 1)) };
                loop {
                    let e = era.load(Ordering::SeqCst);
                    if exit.load(Ordering::Relaxed) != e {
                        // Double-word publication: enter, fence, exit.
                        use crate::mutants::{active, ord, M_ERA_PUBLISH_RELAXED as M};
                        enter.store(e, ord(M, Ordering::SeqCst));
                        if !active(M) {
                            fence(Ordering::SeqCst);
                        }
                        exit.store(e, ord(M, Ordering::SeqCst));
                    }
                    let again = link.load(Ordering::Acquire);
                    if again == raw {
                        return Ok(raw);
                    }
                    raw = again;
                }
            }
            Local::EraInterval { era, hi } => {
                // SAFETY: as above.
                let (era, hi) = unsafe { (&**era, &**hi) };
                loop {
                    let e = era.load(Ordering::SeqCst);
                    if hi.load(Ordering::Relaxed) < e {
                        // SeqCst: the widened interval must be visible
                        // before the validating re-read.
                        hi.store(
                            e,
                            crate::mutants::ord(
                                crate::mutants::M_IBR_BUMP_RELAXED,
                                Ordering::SeqCst,
                            ),
                        );
                    }
                    let again = link.load(Ordering::Acquire);
                    if again == raw {
                        return Ok(raw);
                    }
                    raw = again;
                }
            }
            Local::RestartPoll { request, seen } => {
                // SAFETY: as above.
                let req = unsafe { &**request }.load(Ordering::SeqCst);
                if req != seen.get() {
                    // Route through the scheme: it acknowledges, counts the
                    // restart, and knows about write-phase immunity.
                    seen.set(req);
                    if self.h.raw.poll_restart(self.h.tid) {
                        return Err(Restart);
                    }
                }
                Ok(raw)
            }
        }
    }

    /// Explicit neutralization poll for hops that do not go through
    /// [`protect_load`](Self::protect_load) (see [`RawSmr::poll_restart`]).
    #[inline]
    pub fn poll_restart(&self) -> bool {
        match &self.h.local.0 {
            Local::RestartPoll { request, seen } => {
                // SAFETY: scheme-owned cell pinned by the handle's Arc.
                let req = unsafe { &**request }.load(Ordering::SeqCst);
                if req == seen.get() {
                    return false;
                }
                seen.set(req);
                self.h.raw.poll_restart(self.h.tid)
            }
            _ => false,
        }
    }

    /// Declares the pointers still dereferenced during the write phase;
    /// the thread is immune to neutralization until the guard drops (see
    /// [`RawSmr::enter_write_phase`]).
    #[inline]
    pub fn enter_write_phase(&self, ptrs: &[usize]) {
        self.stale.set(false);
        self.h.raw.enter_write_phase(self.h.tid, ptrs);
    }

    /// Re-enters the read phase after a failed publish (lost CAS, stale
    /// window): re-runs the scheme's `begin_op` under the same guard,
    /// clearing write-phase immunity and re-ticking the amortized drain.
    #[inline]
    pub fn restart(&self) {
        self.stale.set(true);
        self.h.raw.begin_op(self.h.tid);
    }

    /// Retires an unlinked node through the scheme (see [`RawSmr::retire`]).
    ///
    /// # Panics
    /// If called after [`restart`](Self::restart) without re-protecting
    /// first: the restart voided every protection this guard had
    /// established, so the "unlinked" node may never have been safely
    /// reachable.
    #[inline]
    pub fn retire(&self, ptr: NonNull<u8>) {
        assert!(
            !self.stale.get(),
            "OpGuard::retire after restart(): re-protect (protect_load / enter_write_phase) first"
        );
        self.h.raw.retire(self.h.tid, ptr);
    }

    /// Node allocation with the `on_alloc` hook fused — see
    /// [`SmrHandle::alloc`].
    #[inline]
    pub fn alloc(&self, size: usize) -> NonNull<u8> {
        self.h.alloc(size)
    }

    /// Returns an unpublished block — see
    /// [`SmrHandle::dealloc_unpublished`].
    ///
    /// # Safety
    /// As [`SmrHandle::dealloc_unpublished`].
    #[inline]
    pub unsafe fn dealloc_unpublished(&self, ptr: NonNull<u8>) {
        // SAFETY: forwarded to caller.
        unsafe { self.h.dealloc_unpublished(ptr) }
    }
}

impl Drop for OpGuard<'_> {
    fn drop(&mut self) {
        self.h.raw.end_op(self.h.tid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_smr, SmrConfig};
    use epic_alloc::{build_allocator, AllocatorKind, CostModel};

    fn smr(kind: SmrKind, n: usize) -> Smr {
        let alloc = build_allocator(AllocatorKind::Sys, n, CostModel::zero());
        build_smr(kind, alloc, SmrConfig::new(n))
    }

    #[test]
    fn register_release_reregister() {
        let s = smr(SmrKind::Debra, 2);
        let h0 = s.register(0);
        let _h1 = s.register(1);
        assert_eq!(h0.tid(), 0);
        drop(h0);
        let h0 = s.register(0); // released by drop
        drop(h0);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn double_register_panics() {
        let s = smr(SmrKind::Hp, 2);
        let _a = s.register(0);
        let _b = s.register(0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_register_panics() {
        let s = smr(SmrKind::Qsbr, 2);
        let _ = s.register(2);
    }

    #[test]
    #[should_panic(expected = "retire after restart()")]
    fn retire_after_restart_panics() {
        let s = smr(SmrKind::Hp, 1);
        let h = s.register(0);
        let g = h.begin_op();
        let p = g.alloc(64);
        g.enter_write_phase(&[p.as_ptr() as usize]);
        g.restart(); // voids the protections established above
        g.retire(p); // must panic: nothing re-protected since the restart
    }

    #[test]
    fn retire_after_restart_and_reprotect_is_fine() {
        for kind in SmrKind::ALL {
            let s = smr(kind, 1);
            let h = s.register(0);
            {
                let g = h.begin_op();
                let p = g.alloc(64);
                let link = AtomicUsize::new(p.as_ptr() as usize);
                g.restart();
                // The ds crates' lost-CAS loops re-traverse (protect_load)
                // or re-pin (enter_write_phase) before retiring again.
                let read = g.protect_load(0, &link).expect("no neutralization");
                g.enter_write_phase(&[read]);
                g.retire(p);
            }
            s.quiesce_and_drain();
            assert_eq!(s.stats().retired, 1, "{kind:?}");
        }
    }

    #[test]
    fn clone_shares_the_registry() {
        let s = smr(SmrKind::Rcu, 1);
        let s2 = s.clone();
        let h = s.register(0);
        let caught =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| s2.register(0))).is_err();
        assert!(caught, "clone must see the registration");
        drop(h);
        drop(s2.register(0));
    }

    #[test]
    fn detach_releases_the_tid() {
        let s = smr(SmrKind::Qsbr, 1);
        let h = s.register(0);
        h.detach();
        drop(s.register(0));
    }

    #[test]
    fn guard_cycle_retires_and_frees() {
        for kind in SmrKind::ALL {
            let s = smr(kind, 1);
            let h = s.register(0);
            {
                let g = h.begin_op();
                let p = g.alloc(64);
                let link = AtomicUsize::new(p.as_ptr() as usize);
                let read = g.protect_load(0, &link).expect("no neutralization");
                assert_eq!(read, p.as_ptr() as usize, "{kind:?}");
                g.enter_write_phase(&[read]);
                g.retire(p);
            }
            s.quiesce_and_drain();
            let st = s.stats();
            assert_eq!(st.retired, 1, "{kind:?}");
            assert_eq!(st.freed + st.garbage, 1, "{kind:?}");
        }
    }

    #[test]
    fn validating_follows_the_scheme_local() {
        // The slot/era schemes — and only they — re-validate links, which
        // the handle derives from the `SchemeLocal` variant they return.
        for kind in SmrKind::ALL {
            let expected = matches!(
                kind,
                SmrKind::Hp | SmrKind::He | SmrKind::Ibr | SmrKind::Wfe
            );
            let s = smr(kind, 1);
            let h = s.register(0);
            assert_eq!(h.validating(), expected, "{kind:?}");
            assert_eq!(h.begin_op().validating(), expected, "{kind:?}");
        }
    }

    #[test]
    fn protect_load_publishes_and_validates() {
        // hp: the hazard slot must hold the tag-stripped pointer after a
        // protected hop, and a moved link must be re-read to stability.
        let alloc = build_allocator(AllocatorKind::Sys, 1, CostModel::zero());
        let raw = Arc::new(crate::schemes::hazard::HazardSmr::new(
            Arc::clone(&alloc),
            SmrConfig::new(1),
            SmrKind::Hp,
        ));
        let s = Smr::from_raw(Arc::clone(&raw) as Arc<dyn RawSmr>);
        let h = s.register(0);
        let g = h.begin_op();
        let target = alloc.alloc(0, 64).as_ptr() as usize;
        let link = AtomicUsize::new(target | 0b1); // marked link
        let read = g.protect_load(2, &link).unwrap();
        assert_eq!(read, target | 0b1, "raw word returned, mark intact");
        assert_eq!(
            raw.slot_value(0, 2),
            target,
            "published pointer is tag-stripped"
        );
        drop(g);
        assert_eq!(raw.slot_value(0, 2), 0, "end_op clears the slot");
        // SAFETY: block is live and unpublished.
        unsafe { h.dealloc_unpublished(NonNull::new(target as *mut u8).unwrap()) };
    }

    #[test]
    fn restart_poll_surfaces_neutralization() {
        let alloc = build_allocator(AllocatorKind::Sys, 2, CostModel::zero());
        let s = build_smr(
            SmrKind::Nbr,
            Arc::clone(&alloc),
            SmrConfig::new(2).with_bag_cap(4),
        );
        let h = s.register(1);
        let g = h.begin_op();
        let link = AtomicUsize::new(0xdead_0000);
        assert!(g.protect_load(0, &link).is_ok(), "no request yet");
        // Thread 0 fills two bag generations from another OS thread; the
        // handshake completes once thread 1's protect_load observes the
        // request and returns Restart.
        let s2 = s.clone();
        let alloc2 = Arc::clone(&alloc);
        let reclaimer = std::thread::spawn(move || {
            let h0 = s2.register(0);
            let g0 = h0.begin_op();
            for _ in 0..9 {
                let p = alloc2.alloc(0, 64);
                g0.retire(p);
            }
        });
        let mut restarted = false;
        for _ in 0..10_000_000 {
            if g.protect_load(0, &link).is_err() {
                restarted = true;
                break;
            }
        }
        reclaimer.join().unwrap();
        assert!(restarted, "read-phase thread must observe Restart");
        assert!(s.stats().restarts >= 1);
        drop(g);
        drop(h);
        s.quiesce_and_drain();
    }
}
