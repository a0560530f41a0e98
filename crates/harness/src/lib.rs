//! # epic-harness — the paper's evaluation methodology as a library
//!
//! Reproduces the experimental setup of §3/§5:
//!
//! > "For each thread count n, three trials were performed. In each trial,
//! > n threads access the same data structure, and for five seconds,
//! > repeatedly: flip a coin to decide whether to insert or delete a key,
//! > and perform the resulting operation on a uniform random key in a
//! > fixed key range. [...] the measured portion begins once the size of
//! > the data structure stabilizes."
//!
//! Scaled to this machine (see DESIGN.md §2): thread counts sweep to 2×
//! the logical CPUs, durations and key ranges default small, and
//! everything scales up through environment variables:
//!
//! | variable | meaning | default |
//! |---|---|---|
//! | `EPIC_MILLIS` | measured milliseconds per trial | 200 |
//! | `EPIC_TRIALS` | trials per data point | 1 |
//! | `EPIC_KEYRANGE` | key range (steady-state size = half) | 16384 |
//! | `EPIC_THREADS` | comma-separated thread counts for sweeps | powers of 2 up to 2×CPUs |
//! | `EPIC_BAG_CAP` | limbo-bag capacity (paper: 32768) | 4096 |
//! | `EPIC_RESULTS` | artifact output directory | `results/` |
//! | `EPIC_RUNBOOK` | scenario runbook file generating `sc_*` experiments | unset |
//! | `EPIC_JOB_TIMEOUT_SECS` | per-child timeout for `epic-run check -j N` | 600 |
//! | `EPIC_JOB_LOG_KEEP` | run directories kept under `results/jobs/` | 10 |
//!
//! The authoritative reference for *every* `EPIC_*` variable (including
//! the module-specific ones not listed here) is the README's
//! "Environment reference" table, pinned by the `env_reference`
//! integration test.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod config;
pub mod experiments;
pub mod oracle;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod shapes;
pub mod workload;

pub use config::{Arrival, ExperimentScale, KeyDist, WorkloadCfg};
pub use report::{results_dir, ExperimentResult, Table};
pub use scenario::{Cell, Runbook, ThreadSpec};
pub use shapes::{RunnerMeta, ShapeRecord, ShapesDoc};
pub use workload::{run_trial, run_trials, TrialResult, TrialSummary};
