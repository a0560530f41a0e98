//! The low-overhead per-thread event recorder.

use crate::event::{Event, EventKind};
use epic_util::{now_ns, TidSlots};

/// Default per-thread event capacity — the paper validated "up to 100,000
/// timeline events per thread" with no measurable overhead.
pub const DEFAULT_CAPACITY: usize = 100_000;

struct Buffer {
    events: Vec<Event>,
    dropped: u64,
}

/// Per-thread timeline recorder.
///
/// Recording is wait-free and allocation-free: a bounds check and a `Vec`
/// push into pre-reserved capacity. Disabled recorders cost one branch per
/// call, so instrumentation can stay compiled-in.
///
/// ```
/// use epic_timeline::{Recorder, EventKind};
///
/// let rec = Recorder::new(2, 1024);
/// let t0 = epic_util::now_ns();
/// // ... do the work being measured ...
/// rec.record(0, EventKind::BatchFree, t0, epic_util::now_ns(), 128);
/// assert_eq!(rec.events(0).len(), 1);
/// ```
pub struct Recorder {
    buffers: TidSlots<Buffer>,
    enabled: bool,
}

impl Recorder {
    /// Creates a recorder for `max_threads` threads with `capacity` events
    /// each. All memory is reserved up front.
    pub fn new(max_threads: usize, capacity: usize) -> Self {
        Recorder {
            buffers: TidSlots::new_with(max_threads, |_| Buffer {
                events: Vec::with_capacity(capacity),
                dropped: 0,
            }),
            enabled: true,
        }
    }

    /// A recorder that records nothing (for throughput-only runs).
    pub fn disabled(max_threads: usize) -> Self {
        Recorder {
            enabled: false,
            ..Recorder::new(max_threads, 0)
        }
    }

    /// Number of thread slots.
    pub fn max_threads(&self) -> usize {
        self.buffers.len()
    }

    /// True if recording is on.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records an interval event. Caller supplies both timestamps (from
    /// [`epic_util::now_ns`]) so the measured interval excludes recorder
    /// overhead.
    #[inline]
    pub fn record(&self, tid: usize, kind: EventKind, start_ns: u64, end_ns: u64, value: u64) {
        if !self.is_enabled() {
            return;
        }
        // SAFETY: tid-exclusivity is the workspace-wide contract.
        let buf = unsafe { self.buffers.get_mut(tid) };
        if buf.events.len() < buf.events.capacity() {
            buf.events.push(Event {
                start_ns,
                end_ns,
                kind: kind as u16,
                tid: tid as u16,
                value,
            });
        } else {
            buf.dropped += 1;
        }
    }

    /// Records an instant (start == end == now).
    #[inline]
    pub fn mark(&self, tid: usize, kind: EventKind, value: u64) {
        if !self.is_enabled() {
            return;
        }
        let t = now_ns();
        self.record(tid, kind, t, t, value);
    }

    /// The events recorded by `tid`.
    ///
    /// Callers must ensure the owning thread is quiescent (experiment
    /// teardown) — enforced by convention, as in the paper's harness.
    pub fn events(&self, tid: usize) -> &[Event] {
        // SAFETY: read-at-teardown convention; see docs.
        unsafe { &self.buffers.peek(tid).events }
    }

    /// Events dropped by `tid` due to a full buffer.
    pub fn dropped(&self, tid: usize) -> u64 {
        // SAFETY: read-at-teardown convention.
        unsafe { self.buffers.peek(tid).dropped }
    }

    /// All events from all threads, sorted by start time.
    pub fn all_events(&self) -> Vec<Event> {
        let mut all: Vec<Event> = (0..self.buffers.len())
            .flat_map(|tid| self.events(tid).iter().copied())
            .collect();
        all.sort_by_key(|e| e.start_ns);
        all
    }

    /// Clears all buffers (between trials).
    pub fn clear(&self) {
        for tid in 0..self.buffers.len() {
            // SAFETY: only called between trials when workers are quiescent.
            let buf = unsafe { self.buffers.get_mut(tid) };
            buf.events.clear();
            buf.dropped = 0;
        }
    }

    /// Serializes every event as CSV: `tid,kind,start_ns,end_ns,duration_ns,value`.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("tid,kind,start_ns,end_ns,duration_ns,value\n");
        for e in self.all_events() {
            out.push_str(&format!(
                "{},{},{},{},{},{}\n",
                e.tid,
                e.kind().label(),
                e.start_ns,
                e.end_ns,
                e.duration_ns(),
                e.value
            ));
        }
        out
    }

    /// Writes the CSV to a file path, creating parent directories.
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_csv())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_read_back() {
        let r = Recorder::new(2, 16);
        r.record(0, EventKind::BatchFree, 10, 50, 7);
        r.record(1, EventKind::EpochAdvance, 20, 20, 1);
        assert_eq!(r.events(0).len(), 1);
        let e = r.events(0)[0];
        assert_eq!(e.duration_ns(), 40);
        assert_eq!(e.value, 7);
        assert_eq!(e.tid, 0);
        assert_eq!(r.events(1)[0].kind(), EventKind::EpochAdvance);
    }

    #[test]
    fn capacity_overflow_drops_not_grows() {
        let r = Recorder::new(1, 4);
        for i in 0..10 {
            r.record(0, EventKind::FreeCall, i, i + 1, 0);
        }
        assert_eq!(r.events(0).len(), 4);
        assert_eq!(r.dropped(0), 6);
    }

    #[test]
    fn disabled_recorder_ignores() {
        let r = Recorder::disabled(1);
        r.record(0, EventKind::FreeCall, 0, 1, 0);
        r.mark(0, EventKind::EpochAdvance, 0);
        assert!(r.events(0).is_empty());
        assert_eq!(r.dropped(0), 0);
    }

    #[test]
    fn all_events_sorted_across_threads() {
        let r = Recorder::new(3, 8);
        r.record(2, EventKind::FreeCall, 30, 31, 0);
        r.record(0, EventKind::FreeCall, 10, 11, 0);
        r.record(1, EventKind::FreeCall, 20, 21, 0);
        let starts: Vec<u64> = r.all_events().iter().map(|e| e.start_ns).collect();
        assert_eq!(starts, vec![10, 20, 30]);
    }

    #[test]
    fn csv_shape() {
        let r = Recorder::new(1, 4);
        r.record(0, EventKind::BatchFree, 5, 9, 3);
        let csv = r.to_csv();
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "tid,kind,start_ns,end_ns,duration_ns,value"
        );
        assert_eq!(lines.next().unwrap(), "0,batch_free,5,9,4,3");
    }

    #[test]
    fn clear_resets() {
        let r = Recorder::new(1, 2);
        r.record(0, EventKind::FreeCall, 0, 1, 0);
        r.record(0, EventKind::FreeCall, 0, 1, 0);
        r.record(0, EventKind::FreeCall, 0, 1, 0);
        assert_eq!(r.dropped(0), 1);
        r.clear();
        assert!(r.events(0).is_empty());
        assert_eq!(r.dropped(0), 0);
    }

    #[test]
    fn concurrent_recording_from_owner_threads() {
        use std::sync::Arc;
        let r = Arc::new(Recorder::new(4, 1000));
        let handles: Vec<_> = (0..4)
            .map(|tid| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        r.record(tid, EventKind::FreeCall, i, i + 1, i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for tid in 0..4 {
            assert_eq!(r.events(tid).len(), 1000);
        }
        assert_eq!(r.all_events().len(), 4000);
    }
}
