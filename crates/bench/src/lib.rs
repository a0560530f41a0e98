//! # epic-bench
//!
//! The three microbenchmark targets for the building blocks: `microbench`
//! (criterion suite — allocator fast paths, SMR per-operation overheads,
//! tree operations), `microbench_retire` (the zero-allocation retire
//! pipeline, DESIGN.md §2.4) and `microbench_handle` (the per-hop
//! protection protocol, DESIGN.md §7).
//!
//! The paper's tables and figures are not bench targets: every experiment
//! runs through `epic-run <id>` (DESIGN.md §4), which stamps provenance
//! and writes the result JSON.
