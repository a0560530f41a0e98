//! System topology discovery and experiment-scale derivation.
//!
//! The paper runs on a 4-socket, 192-hardware-thread Xeon with thread counts
//! {6, 12, 24, 36, 48, 96, 144, 192}. This module maps that *shape* — a sweep
//! from a fraction of the machine to 2× oversubscription — onto whatever
//! machine the reproduction runs on, and honours environment overrides so the
//! benches scale up on larger hardware.

use std::collections::BTreeSet;
use std::env;
use std::sync::{Mutex, OnceLock};

/// Keys we have already warned about — malformed env values warn once per
/// key per process, not once per read (experiments re-read config many
/// times per trial).
fn warned_keys() -> &'static Mutex<BTreeSet<String>> {
    static WARNED: OnceLock<Mutex<BTreeSet<String>>> = OnceLock::new();
    WARNED.get_or_init(|| Mutex::new(BTreeSet::new()))
}

/// Emits a one-time stderr warning that `key`'s value `raw` could not be
/// parsed as `expected`. Returns `true` if this call actually warned
/// (first malformed read of `key`), `false` if the key was already
/// reported — exposed so tests can pin the once-per-key contract.
pub fn warn_malformed_env(key: &str, raw: &str, expected: &str) -> bool {
    let mut seen = warned_keys().lock().unwrap_or_else(|e| e.into_inner());
    if !seen.insert(key.to_string()) {
        return false;
    }
    eprintln!("epic: warning: ignoring malformed {key}={raw:?} (expected {expected})");
    true
}

/// Discovered machine topology plus experiment scaling rules.
#[derive(Debug, Clone)]
pub struct Topology {
    /// Logical CPUs available to this process.
    pub logical_cpus: usize,
}

impl Default for Topology {
    fn default() -> Self {
        Self::detect()
    }
}

impl Topology {
    /// Detects the current machine.
    pub fn detect() -> Self {
        let logical_cpus = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Topology { logical_cpus }
    }

    /// Constructs a fixed topology (tests, presets of the paper's machines).
    pub fn with_cpus(logical_cpus: usize) -> Self {
        Topology { logical_cpus }
    }

    /// The thread-count sweep used by sweep experiments.
    ///
    /// Honors `EPIC_THREADS` (comma-separated list) when set; otherwise
    /// produces powers of two from 1 up to 2× the logical CPU count — the
    /// same saturation→oversubscription shape as the paper's 6..192 sweep
    /// (192 HW threads, with the last points past single-socket capacity).
    pub fn sweep_threads(&self) -> Vec<usize> {
        if let Some(list) = env_usize_list("EPIC_THREADS") {
            return list;
        }
        let max = (self.logical_cpus * 2).max(2);
        let mut counts = Vec::new();
        let mut n = 1;
        while n < max {
            counts.push(n);
            n *= 2;
        }
        counts.push(max);
        counts
    }

    /// The "192 threads" of the paper: the most oversubscribed point of the
    /// sweep, used by the fixed-thread-count tables (Tables 2–4, Fig. 11b).
    pub fn max_threads(&self) -> usize {
        *self.sweep_threads().last().expect("sweep is never empty")
    }

    /// A "moderate" thread count corresponding to the paper's 96-thread
    /// (half-scale) data points.
    pub fn mid_threads(&self) -> usize {
        (self.max_threads() / 2).max(1)
    }
}

fn env_usize_list(key: &str) -> Option<Vec<usize>> {
    let raw = env::var(key).ok()?;
    let mut dropped = false;
    let parsed: Vec<usize> = raw
        .split(',')
        .filter(|s| !s.trim().is_empty())
        // Zero is as malformed as "x": every consumer is a thread or size
        // count, and a 0-thread trial has no tid to register.
        .filter_map(|s| match s.trim().parse().ok() {
            Some(n) if n > 0 => Some(n),
            _ => {
                dropped = true;
                None
            }
        })
        .collect();
    if dropped {
        warn_malformed_env(key, &raw, "comma-separated list of positive usize");
    }
    if parsed.is_empty() {
        None
    } else {
        Some(parsed)
    }
}

/// Reads a `usize` experiment parameter from the environment with a default.
///
/// Malformed values (`EPIC_BAG_CAP=32k`) fall back to the default and warn
/// once per key to stderr — a silent fallback once cost a whole sweep run
/// with the intended cap ignored.
pub fn env_usize(key: &str, default: usize) -> usize {
    match env::var(key) {
        Ok(raw) => raw.trim().parse().unwrap_or_else(|_| {
            warn_malformed_env(key, &raw, "usize");
            default
        }),
        Err(_) => default,
    }
}

/// Reads a `u64` experiment parameter from the environment with a default.
///
/// Same malformed-value contract as [`env_usize`]: fall back, warn once.
pub fn env_u64(key: &str, default: u64) -> u64 {
    match env::var(key) {
        Ok(raw) => raw.trim().parse().unwrap_or_else(|_| {
            warn_malformed_env(key, &raw, "u64");
            default
        }),
        Err(_) => default,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detect_reports_at_least_one_cpu() {
        assert!(Topology::detect().logical_cpus >= 1);
    }

    #[test]
    fn sweep_shape() {
        let t = Topology::with_cpus(4);
        // Ignore env override for a deterministic check by computing directly.
        let sweep = {
            let max = t.logical_cpus * 2;
            let mut v = vec![];
            let mut n = 1;
            while n < max {
                v.push(n);
                n *= 2;
            }
            v.push(max);
            v
        };
        assert_eq!(sweep, vec![1, 2, 4, 8]);
    }

    #[test]
    fn max_is_twice_cpus_without_override() {
        if std::env::var("EPIC_THREADS").is_err() {
            let t = Topology::with_cpus(8);
            assert_eq!(t.max_threads(), 16);
            assert_eq!(t.mid_threads(), 8);
        }
    }

    #[test]
    fn env_usize_default_applies() {
        assert_eq!(env_usize("EPIC_DOES_NOT_EXIST_XYZ", 17), 17);
    }

    // The env tests below each use a key unique to that test: tests run in
    // parallel and the process environment (plus the warn-once registry)
    // is shared.

    #[test]
    fn env_usize_malformed_falls_back_and_warns_once() {
        let key = "EPIC_TEST_MALFORMED_USIZE";
        env::set_var(key, "32k");
        assert_eq!(env_usize(key, 4096), 4096);
        // First malformed read warned; the registry now remembers the key.
        assert!(!warn_malformed_env(key, "32k", "usize"));
        // Repeated reads keep the fallback semantics.
        assert_eq!(env_usize(key, 9), 9);
        env::remove_var(key);
    }

    #[test]
    fn env_u64_malformed_falls_back() {
        let key = "EPIC_TEST_MALFORMED_U64";
        env::set_var(key, "12.5");
        assert_eq!(env_u64(key, 200), 200);
        env::remove_var(key);
        // Well-formed values still parse (with surrounding whitespace).
        env::set_var(key, " 77 ");
        assert_eq!(env_u64(key, 200), 77);
        env::remove_var(key);
    }

    #[test]
    fn env_usize_list_drops_unparsable_entries() {
        let key = "EPIC_TEST_MALFORMED_LIST";
        env::set_var(key, "1,two,4");
        assert_eq!(env_usize_list(key), Some(vec![1, 4]));
        env::remove_var(key);
        // All-malformed lists behave like an unset variable.
        env::set_var(key, "x,y");
        assert_eq!(env_usize_list(key), None);
        env::remove_var(key);
    }

    #[test]
    fn env_usize_list_treats_zero_as_malformed() {
        let key = "EPIC_TEST_ZERO_LIST";
        for (raw, expected) in [("0", None), ("0,4", Some(vec![4])), ("4,x", Some(vec![4]))] {
            env::set_var(key, raw);
            assert_eq!(env_usize_list(key), expected, "{raw:?}");
        }
        env::remove_var(key);
    }

    #[test]
    fn warn_malformed_env_warns_once_per_key() {
        let key = "EPIC_TEST_WARN_ONCE";
        assert!(warn_malformed_env(key, "bogus", "usize"));
        assert!(!warn_malformed_env(key, "bogus", "usize"));
        assert!(!warn_malformed_env(key, "other", "u64"));
    }
}
