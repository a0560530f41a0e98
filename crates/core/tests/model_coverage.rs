//! Pins the model checker's coverage to the source tree, the way
//! `env_reference.rs` pins the `EPIC_*` table. `tests/model_check.rs` only
//! compiles under `--cfg epic_model_check`, so a normal `cargo test` never
//! sees it; this test reads it as text instead. Every seeded mutant in
//! `src/mutants.rs` must be switched on by some model run
//! (`with_ctx(M_...)`), and every scheme outside [`UNMODELLED`] must be
//! built by at least one model.

use epic_alloc::{build_allocator, AllocatorKind, CostModel};
use epic_smr::{build_smr, SmrConfig, SmrKind};

/// The schemes no model builds yet. This list may only shrink: a kind that
/// gains a model must leave it, and a kind on it can never lose one. No
/// scheme whose handle validates links (whose protected blocks can be
/// retired mid-operation) may be on it.
const UNMODELLED: [SmrKind; 6] = [
    SmrKind::None,
    SmrKind::TokenNaive,
    SmrKind::TokenPassFirst,
    SmrKind::TokenPeriodic,
    SmrKind::Nbr,
    SmrKind::NbrPlus,
];

fn read(rel: &str) -> String {
    std::fs::read_to_string(std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(rel))
        .unwrap_or_else(|e| panic!("{rel}: {e}"))
}

/// `text` without `//` comments and without whitespace, so a pattern
/// matches however rustfmt wrapped it and never inside prose.
fn code_only(text: &str) -> String {
    text.lines()
        .map(|l| l.split("//").next().unwrap_or(""))
        .flat_map(|l| l.chars().filter(|c| !c.is_whitespace()))
        .collect()
}

#[test]
fn every_mutant_is_enabled_by_a_model() {
    let models = code_only(&read("tests/model_check.rs"));
    let source = read("src/mutants.rs");
    let mutants: Vec<&str> = source
        .lines()
        .filter_map(|l| l.strip_prefix("pub const "))
        .filter_map(|rest| rest.split(':').next())
        .filter(|name| name.starts_with("M_"))
        .collect();
    assert!(mutants.len() >= 5, "mutant scan is broken: {mutants:?}");
    for m in mutants {
        assert!(
            models.contains(&format!("with_ctx({m})")),
            "{m} is never enabled by a model in tests/model_check.rs"
        );
    }
}

#[test]
fn every_scheme_outside_unmodelled_is_modelled() {
    let models = code_only(&read("tests/model_check.rs"));
    for kind in SmrKind::ALL {
        let token = format!("SmrKind::{kind:?}");
        let modelled = models
            .match_indices(&token)
            .any(|(i, _)| !models[i + token.len()..].starts_with(char::is_alphanumeric));
        if UNMODELLED.contains(&kind) {
            assert!(!modelled, "{token} is modelled now: take it off UNMODELLED");
            let alloc = build_allocator(AllocatorKind::Sys, 1, CostModel::zero());
            let validating = build_smr(kind, alloc, SmrConfig::new(1))
                .register(0)
                .validating();
            assert!(!validating, "{token} validates links: it needs a model");
        } else {
            assert!(
                modelled,
                "{token} is built by no model in tests/model_check.rs"
            );
        }
    }
}
