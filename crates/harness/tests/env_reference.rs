//! Pins the prose references to the source tree. README "Environment
//! reference": every `EPIC_*` variable the workspace reads must have a
//! row, and every row must correspond to a variable that is still read
//! somewhere — adding a knob without documenting it (or documenting a knob
//! that no longer exists) fails. DESIGN.md's experiment map: every registry
//! id must occur in it. The workspace map: DESIGN.md §1's crate table and
//! README's "Workspace map" name exactly the member directories of the
//! root `Cargo.toml`.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root")
}

/// Extracts `EPIC_[A-Z0-9_]+` tokens from `text` (trailing underscores
/// trimmed — they are prefix fragments like `"EPIC_TEST_"`).
fn epic_tokens(text: &str, into: &mut BTreeSet<String>) {
    let bytes = text.as_bytes();
    let mut i = 0;
    while let Some(pos) = text[i..].find("EPIC_") {
        let start = i + pos;
        let mut end = start;
        while end < bytes.len()
            && (bytes[end].is_ascii_uppercase()
                || bytes[end].is_ascii_digit()
                || bytes[end] == b'_')
        {
            end += 1;
        }
        let token = text[start..end].trim_end_matches('_');
        if token.len() > "EPIC".len() {
            into.insert(token.to_string());
        }
        i = end;
    }
}

fn rs_files(dir: &Path, into: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable dir").flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            rs_files(&path, into);
        } else if path.extension().is_some_and(|e| e == "rs") {
            into.push(path);
        }
    }
}

/// Variables that are deliberately undocumented: test-only probes and
/// the prefix fragment the provenance code matches on. Everything else
/// the source reads belongs in the README table.
fn is_internal(name: &str) -> bool {
    name.starts_with("EPIC_TEST")
        || name == "EPIC_CHECK" // prefix fragment in a diagnostic string
        || name == "EPIC_DOES_NOT_EXIST_XYZ" // topology negative-test probe
        || name == "EPIC_PROV_PROBE" // provenance unit-test probe
}

#[test]
fn readme_environment_reference_is_complete_and_current() {
    let root = repo_root();
    let mut files = Vec::new();
    rs_files(&root.join("crates"), &mut files);
    rs_files(&root.join("vendor"), &mut files);
    rs_files(&root.join("tests"), &mut files);
    let mut in_source = BTreeSet::new();
    for f in &files {
        epic_tokens(
            &std::fs::read_to_string(f).expect("readable source"),
            &mut in_source,
        );
    }
    in_source.retain(|n| !is_internal(n));
    assert!(
        in_source.contains("EPIC_MILLIS") && in_source.contains("EPIC_KEYRANGE"),
        "source scan is broken: {in_source:?}"
    );

    let readme = std::fs::read_to_string(root.join("README.md")).expect("README.md");
    let table = section(&readme, "## Environment reference", "\n## ");
    let mut in_table = BTreeSet::new();
    for line in table.lines().filter(|l| l.starts_with("| `EPIC_")) {
        epic_tokens(line, &mut in_table);
        // Rows must link the owning module (a path into the tree).
        assert!(
            line.contains("crates/"),
            "row must name its owning module: {line}"
        );
    }

    let undocumented: Vec<&String> = in_source.difference(&in_table).collect();
    assert!(
        undocumented.is_empty(),
        "EPIC_* variables read in source but missing from the README \
         'Environment reference' table: {undocumented:?}"
    );
    let stale: Vec<&String> = in_table.difference(&in_source).collect();
    assert!(
        stale.is_empty(),
        "README 'Environment reference' rows with no matching read in \
         the source tree: {stale:?}"
    );
}

/// DESIGN.md §4 / §5 map every registry row to its experiment id; an id
/// the registry gains (or renames) without a row there fails here.
#[test]
fn design_md_names_every_builtin_experiment() {
    use epic_harness::experiments::all_experiments;
    let design = std::fs::read_to_string(repo_root().join("DESIGN.md")).expect("DESIGN.md");
    for e in all_experiments() {
        assert!(
            design.contains(&format!("`{}`", e.id)),
            "{} is missing",
            e.id
        );
    }
}

/// The text of `doc` between the first `start` and the next `end`.
fn section<'a>(doc: &'a str, start: &str, end: &str) -> &'a str {
    let (_, rest) = doc
        .split_once(start)
        .unwrap_or_else(|| panic!("{start:?} is missing"));
    rest.split(end).next().unwrap()
}

/// The `crates/*` and `vendor/*` directories written out in `text`.
fn member_dirs(text: &str) -> BTreeSet<String> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || "/_".contains(c)))
        .map(|w| w.trim_end_matches('/'))
        .filter(|w| w.len() > 7 && (w.starts_with("crates/") || w.starts_with("vendor/")))
        .map(String::from)
        .collect()
}

#[test]
fn workspace_map_matches_the_manifest_members() {
    let read = |f: &str| std::fs::read_to_string(repo_root().join(f)).expect(f);
    let members = member_dirs(section(&read("Cargo.toml"), "\nmembers = [", "]"));
    assert!(members.contains("crates/core"), "manifest scan is broken");
    let design = read("DESIGN.md");
    let crate_table = section(&design, "| crate | dir | role |", "\n\n");
    assert_eq!(member_dirs(crate_table), members, "DESIGN.md §1");
    let readme = read("README.md");
    let map = section(&readme, "## Workspace map", "```\n\n");
    assert_eq!(member_dirs(map), members, "README");
}
