//! Monotonic timing helpers.
//!
//! All timestamps in the workspace are nanoseconds since an arbitrary
//! process-local origin, represented as `u64`. A single [`Clock`] origin is
//! established lazily so that timelines recorded by different threads share
//! an axis.

use std::sync::OnceLock;
use std::time::Instant;

/// The shared clock origin, established on the first [`now_ns`] call.
static ORIGIN: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds elapsed since the process-wide clock origin.
///
/// Costs one `clock_gettime` via vDSO: ~50 ns on a 2-vCPU KVM Xeon with the
/// `tsc` clocksource (the repo benchmark's `bench.clock_ns` reads 40–57 ns
/// there). Call sites that need cheaper timing should sample (see
/// `epic-alloc`'s sampled timers).
#[inline]
pub fn now_ns() -> u64 {
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A reusable stopwatch over the shared origin.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    start: u64,
}

impl Default for Clock {
    fn default() -> Self {
        Self::start()
    }
}

impl Clock {
    /// Starts a stopwatch now.
    pub fn start() -> Self {
        Clock { start: now_ns() }
    }

    /// Nanoseconds since this stopwatch started.
    pub fn elapsed_ns(&self) -> u64 {
        now_ns().saturating_sub(self.start)
    }

    /// The absolute start timestamp (shared-origin nanoseconds).
    pub fn start_ns(&self) -> u64 {
        self.start
    }
}

/// Busy-spins for approximately `ns` nanoseconds.
///
/// Used by the allocator cost model to emulate remote-socket coherence
/// misses: the thread must *occupy the core and hold any locks it holds*
/// for the duration, which sleeping would not model. Accuracy is bounded by
/// `now_ns` granularity; for the 100–1000 ns range used by the cost model
/// the error is small relative to scheduling noise.
#[inline]
pub fn busy_spin_ns(ns: u64) {
    if ns == 0 {
        return;
    }
    let deadline = now_ns() + ns;
    while now_ns() < deadline {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn now_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }

    #[test]
    fn clock_measures_elapsed() {
        let c = Clock::start();
        busy_spin_ns(100_000);
        assert!(c.elapsed_ns() >= 100_000);
    }

    #[test]
    fn busy_spin_zero_is_free() {
        let c = Clock::start();
        busy_spin_ns(0);
        // Should return essentially immediately (well under 1 ms even on a
        // loaded CI box).
        assert!(c.elapsed_ns() < 1_000_000);
    }

    #[test]
    fn shared_origin_across_threads() {
        let t0 = now_ns();
        let handle = std::thread::spawn(now_ns);
        let t1 = handle.join().unwrap();
        // The spawned thread's timestamp must be on the same axis.
        assert!(t1 >= t0);
        assert!(t1 - t0 < 5_000_000_000, "timestamps wildly divergent");
    }
}
