//! Cost model: calibrated stand-in for the NUMA effects of the paper's
//! 4-socket testbed.
//!
//! On the paper's machine the expensive part of a remote batch free is (a)
//! genuine lock contention on arena/central-list mutexes and (b) per-object
//! bookkeeping on cache lines homed on other sockets. (a) is real in this
//! build. (b) does not exist on a 1-socket container, so each model calls
//! [`CostModel::remote_object`] once per remote-owned object processed while
//! the bin lock is held; the call busy-spins for a configurable number of
//! nanoseconds in the measured range of cross-socket cache-to-cache
//! transfers. Setting the model to [`CostModel::zero`] turns the simulation
//! off (used by unit tests and the `sys` baseline).

use epic_util::timeutil::busy_spin_ns;

/// Tunable costs applied inside the allocator models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Busy-spin per remote-owned object processed during a flush/remote
    /// free, *while holding the bin lock*. Models a cross-socket coherence
    /// miss (~100–400 ns on 4-socket Xeons).
    pub remote_penalty_ns: u64,
    /// Busy-spin per object moved into a thread cache on the allocation
    /// refill path, charged for every refilled object while the depot lock
    /// is held. Every preset sets it to 0.
    pub refill_penalty_ns: u64,
    /// Arenas per logical CPU for the jemalloc model (jemalloc default: 4).
    pub arenas_per_cpu: usize,
    /// Logical CPUs the model should assume (defaults to detected count;
    /// machine presets override it to mimic the paper's testbeds).
    pub assumed_cpus: usize,
}

impl CostModel {
    /// Calibrated default for this container (see DESIGN.md §2): 600 ns
    /// per remote object reproduces the paper's %free/%flush/%lock shape
    /// at this machine's thread counts.
    pub fn default_for_machine() -> Self {
        let cpus = epic_util::Topology::detect().logical_cpus;
        CostModel {
            remote_penalty_ns: 600,
            refill_penalty_ns: 0,
            arenas_per_cpu: 4,
            assumed_cpus: cpus,
        }
    }

    /// All penalties off; structure (locks, caches, flush batching) still
    /// fully active.
    pub fn zero() -> Self {
        CostModel {
            remote_penalty_ns: 0,
            refill_penalty_ns: 0,
            arenas_per_cpu: 4,
            assumed_cpus: epic_util::Topology::detect().logical_cpus,
        }
    }

    /// Number of arenas the jemalloc model creates.
    pub fn num_arenas(&self) -> usize {
        (self.arenas_per_cpu * self.assumed_cpus).max(1)
    }

    /// Applies the remote-object penalty (no-op when zero).
    #[inline]
    pub fn remote_object(&self) {
        busy_spin_ns(self.remote_penalty_ns);
    }

    /// Applies the refill penalty (no-op when zero).
    #[inline]
    pub fn refill_object(&self) {
        busy_spin_ns(self.refill_penalty_ns);
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::default_for_machine()
    }
}

/// Presets mimicking the machines of the paper's Appendix E, used by the
/// `fig15_16_machine_presets` bench. They change the *shape parameters*
/// (arena count, remote cost) — thread counts still scale to this host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachinePreset {
    /// The main 4-socket 192-HW-thread Intel Xeon 8160 testbed.
    Intel4x192,
    /// Appendix E.1: 4-socket 144-core Intel machine.
    Intel4x144,
    /// Appendix E.2: 2-socket 256-core AMD machine (chiplet design: remote
    /// penalty lower than 4-socket Intel, more arenas).
    Amd2x256,
    /// This container, as detected.
    Host,
}

impl MachinePreset {
    /// The cost model for this preset.
    pub fn cost_model(self) -> CostModel {
        match self {
            MachinePreset::Intel4x192 => CostModel {
                remote_penalty_ns: 300,
                refill_penalty_ns: 0,
                arenas_per_cpu: 4,
                assumed_cpus: 192,
            },
            MachinePreset::Intel4x144 => CostModel {
                remote_penalty_ns: 280,
                refill_penalty_ns: 0,
                arenas_per_cpu: 4,
                assumed_cpus: 144,
            },
            MachinePreset::Amd2x256 => CostModel {
                remote_penalty_ns: 180,
                refill_penalty_ns: 0,
                arenas_per_cpu: 4,
                assumed_cpus: 256,
            },
            MachinePreset::Host => CostModel::default_for_machine(),
        }
    }

    /// Display name used in bench output.
    pub fn name(self) -> &'static str {
        match self {
            MachinePreset::Intel4x192 => "intel-4s-192t",
            MachinePreset::Intel4x144 => "intel-4s-144t",
            MachinePreset::Amd2x256 => "amd-2s-256t",
            MachinePreset::Host => "host",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_model_is_free() {
        let c = CostModel::zero();
        let t = epic_util::Clock::start();
        for _ in 0..1000 {
            c.remote_object();
        }
        assert!(
            t.elapsed_ns() < 10_000_000,
            "zero cost model should be ~free"
        );
    }

    #[test]
    fn penalty_spins() {
        let c = CostModel {
            remote_penalty_ns: 10_000,
            ..CostModel::zero()
        };
        let t = epic_util::Clock::start();
        c.remote_object();
        assert!(t.elapsed_ns() >= 10_000);
    }

    #[test]
    fn arena_count_follows_preset() {
        assert_eq!(MachinePreset::Intel4x192.cost_model().num_arenas(), 768);
        assert_eq!(MachinePreset::Amd2x256.cost_model().num_arenas(), 1024);
        assert!(MachinePreset::Host.cost_model().num_arenas() >= 4);
    }

    #[test]
    fn preset_names_unique() {
        let names = [
            MachinePreset::Intel4x192.name(),
            MachinePreset::Intel4x144.name(),
            MachinePreset::Amd2x256.name(),
            MachinePreset::Host.name(),
        ];
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), names.len());
    }
}
