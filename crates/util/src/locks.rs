//! Spin-lock primitives used by the data structures and allocator models.
//!
//! * [`TicketLock`] — FIFO-fair spin lock; used per-node by the ABtree and
//!   by the DGT external BST (David, Guerraoui, Trigonakis) as in the
//!   paper's appendix D, and by the allocator models' shared bins
//!   (`epic_alloc`'s `SpinBin`).
//! * [`SeqLock`] — a version-word write lock; used per-node by the OCC tree
//!   for its updates. The tree's readers never take or read it.
//!
//! Both are written with the acquire/release discipline from *Rust Atomics
//! and Locks* ch. 4: the lock acquisition is an acquire operation and the
//! release a release operation.

use crate::backoff::Backoff;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// A FIFO ticket spin lock.
///
/// Threads take a ticket with a relaxed fetch-add and spin until the grant
/// counter reaches their ticket. Fairness matters in the allocator models:
/// an unfair lock would let one flushing thread starve others and *hide* the
/// convoy the paper measures.
///
/// ```
/// use epic_util::TicketLock;
/// let lock = TicketLock::new();
/// lock.lock();
/// // ... critical section ...
/// lock.unlock();
/// ```
#[derive(Debug, Default)]
pub struct TicketLock {
    next_ticket: AtomicU32,
    now_serving: AtomicU32,
}

impl TicketLock {
    /// Creates an unlocked ticket lock.
    pub const fn new() -> Self {
        TicketLock {
            next_ticket: AtomicU32::new(0),
            now_serving: AtomicU32::new(0),
        }
    }

    /// Acquires the lock, spinning with backoff until granted.
    pub fn lock(&self) {
        let ticket = self.next_ticket.fetch_add(1, Ordering::Relaxed);
        let backoff = Backoff::new();
        while self.now_serving.load(Ordering::Acquire) != ticket {
            backoff.snooze();
        }
    }

    /// Attempts to acquire the lock without waiting.
    ///
    /// Returns `true` on success. Implemented as a CAS on the ticket counter
    /// conditioned on the lock currently being free, which preserves FIFO
    /// order among successful acquirers.
    pub fn try_lock(&self) -> bool {
        let serving = self.now_serving.load(Ordering::Relaxed);
        self.next_ticket
            .compare_exchange(
                serving,
                serving.wrapping_add(1),
                Ordering::Acquire,
                Ordering::Relaxed,
            )
            .is_ok()
    }

    /// Releases the lock. Must only be called by the current holder.
    pub fn unlock(&self) {
        // The holder is the only writer of `now_serving`, so a plain
        // load/store pair is race-free; release publishes the critical
        // section to the next ticket holder.
        let next = self.now_serving.load(Ordering::Relaxed).wrapping_add(1);
        self.now_serving.store(next, Ordering::Release);
    }

    /// True if some thread currently holds the lock (racy; advisory only).
    pub fn is_locked(&self) -> bool {
        self.next_ticket.load(Ordering::Relaxed) != self.now_serving.load(Ordering::Relaxed)
    }

    /// Runs `f` with the lock held.
    pub fn with<R>(&self, f: impl FnOnce() -> R) -> R {
        self.lock();
        let r = f();
        self.unlock();
        r
    }
}

/// A version-word write lock: an even version means unlocked, odd means a
/// writer holds it.
///
/// Writers bump to odd, mutate, bump to even. This is the per-node lock of
/// the Bronson-style OCC tree, whose readers traverse without touching it:
/// a writer re-checks the node's `marked` flag under the lock instead of
/// readers validating versions, so only the writer half exists.
#[derive(Debug, Default)]
pub struct SeqLock {
    version: AtomicU64,
}

impl SeqLock {
    /// Creates a seqlock at version 0 (unlocked).
    pub const fn new() -> Self {
        SeqLock {
            version: AtomicU64::new(0),
        }
    }

    /// Acquires the write lock, spinning until successful.
    pub fn write_lock(&self) {
        let backoff = Backoff::new();
        loop {
            let v = self.version.load(Ordering::Relaxed);
            if v & 1 == 0
                && self
                    .version
                    .compare_exchange_weak(v, v + 1, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                return;
            }
            backoff.snooze();
        }
    }

    /// Releases the write lock, publishing the writes.
    pub fn write_unlock(&self) {
        let v = self.version.load(Ordering::Relaxed);
        debug_assert_eq!(v & 1, 1, "write_unlock without write_lock");
        self.version.store(v + 1, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64 as StdAtomicU64;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn ticket_lock_mutual_exclusion() {
        let lock = Arc::new(TicketLock::new());
        let counter = Arc::new(StdAtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let lock = Arc::clone(&lock);
            let counter = Arc::clone(&counter);
            handles.push(thread::spawn(move || {
                for _ in 0..10_000 {
                    lock.lock();
                    // Non-atomic-style increment through two atomic ops:
                    // exposes lost updates if mutual exclusion is broken.
                    let v = counter.load(Ordering::Relaxed);
                    counter.store(v + 1, Ordering::Relaxed);
                    lock.unlock();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 40_000);
    }

    #[test]
    fn ticket_try_lock() {
        let lock = TicketLock::new();
        assert!(lock.try_lock());
        assert!(lock.is_locked());
        assert!(!lock.try_lock());
        lock.unlock();
        assert!(!lock.is_locked());
        assert!(lock.try_lock());
        lock.unlock();
    }

    #[test]
    fn ticket_with_helper() {
        let lock = TicketLock::new();
        let out = lock.with(|| 7);
        assert_eq!(out, 7);
        assert!(!lock.is_locked());
    }

    #[test]
    fn seqlock_write_exclusion() {
        let lock = Arc::new(SeqLock::new());
        let counter = Arc::new(StdAtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let lock = Arc::clone(&lock);
            let counter = Arc::clone(&counter);
            handles.push(thread::spawn(move || {
                for _ in 0..10_000 {
                    lock.write_lock();
                    // Lost updates show if two writers ever overlap.
                    let v = counter.load(Ordering::Relaxed);
                    counter.store(v + 1, Ordering::Relaxed);
                    lock.write_unlock();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 40_000);
    }
}
