//! Pins the model checker's coverage to the source tree, the way
//! `env_reference.rs` pins the `EPIC_*` table. `tests/model_check.rs` only
//! compiles under `--cfg epic_model_check`, so a normal `cargo test` never
//! sees it; this test reads it as text instead. Every seeded mutant in
//! `src/mutants.rs` must be switched on by some model run
//! (`with_ctx(M_...)`), and every scheme whose handle validates links (the
//! slot/era schemes, whose protected blocks can be retired mid-operation)
//! must be built by at least one model.

use epic_alloc::{build_allocator, AllocatorKind, CostModel};
use epic_smr::{build_smr, SmrConfig, SmrKind};

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
fn every_validating_scheme_is_modelled() {
    let models = code_only(&read("tests/model_check.rs"));
    let mut validating = Vec::new();
    for kind in SmrKind::ALL {
        let alloc = build_allocator(AllocatorKind::Sys, 1, CostModel::zero());
        if build_smr(kind, alloc, SmrConfig::new(1))
            .register(0)
            .validating()
        {
            validating.push(kind);
        }
    }
    assert!(validating.contains(&SmrKind::Hp), "{validating:?}");
    for kind in validating {
        let token = format!("SmrKind::{kind:?}");
        let modelled = models
            .match_indices(&token)
            .any(|(i, _)| !models[i + token.len()..].starts_with(char::is_alphanumeric));
        assert!(modelled, "{token} validates links but no model builds it");
    }
}
