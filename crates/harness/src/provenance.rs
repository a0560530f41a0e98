//! Provenance: the 32-hex-digit hash stamped into every result the
//! registry executes, and the frozen FNV-1a it (and every scenario seed)
//! is built from.
//!
//! The hash digests the experiment id, the toolchain, the git revision
//! and the effective `EPIC_*` overrides (DESIGN.md §12). It rides along
//! into `SHAPES.json`, and `epic-run replay <hash>` re-runs the row it
//! names and diffs the row's `det/*` counters.

use std::path::Path;
use std::sync::OnceLock;

/// The standard FNV-1a 64-bit offset basis.
pub(crate) const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over the bytes of `s`, starting from `basis` ([`FNV_BASIS`]
/// everywhere but the second pass of the 128-bit provenance digest). Not
/// a quality hash — a *frozen* one: cell seeds and provenance hashes must
/// never depend on compiler, platform, or std internals.
pub(crate) fn fnv1a(basis: u64, s: &str) -> u64 {
    let mut h = basis;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `EPIC_*` variables excluded from the provenance digest: `EPIC_RESULTS`
/// steers where artifacts land, never what a trial measures. Everything
/// else under `EPIC_` (scale, caps, seeds) is included.
const PROV_ENV_DENYLIST: &[&str] = &["EPIC_RESULTS"];

/// The canonical preimage the provenance hash of experiment `id` digests
/// — one field per line, `EPIC_*` overrides sorted by key (see DESIGN.md
/// §12 for the field list). Exposed so tests and docs can show exactly
/// what is hashed.
pub fn provenance_preimage(id: &str) -> String {
    let mut env: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| {
            k.starts_with("EPIC_")
                && !PROV_ENV_DENYLIST.contains(&k.as_str())
                && !k.starts_with("EPIC_TEST_")
        })
        .collect();
    env.sort();
    let env_line = env
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(";");
    format!(
        "epic-prov-v2\nid={id}\ntoolchain={};pkg={}\ngit={}\nenv={env_line}\n",
        option_env!("RUSTUP_TOOLCHAIN").unwrap_or("-"),
        env!("CARGO_PKG_VERSION"),
        git_rev(),
    )
}

/// The 32-hex-digit provenance hash stamped into every
/// [`ExperimentResult`](crate::ExperimentResult) the registry executes:
/// two decorrelated FNV-1a passes over [`provenance_preimage`]. Equal
/// hashes ⇒ same experiment id, toolchain, git revision and effective
/// `EPIC_*` overrides — which is exactly the replay contract.
pub fn provenance_hash(id: &str) -> String {
    let pre = provenance_preimage(id);
    format!(
        "{:016x}{:016x}",
        fnv1a(FNV_BASIS, &pre),
        fnv1a(FNV_BASIS ^ 0x9E37_79B9_7F4A_7C15, &pre),
    )
}

/// The workspace's git revision, resolved once per process: reads
/// `.git/HEAD` (following one level of `ref:` indirection through loose
/// then packed refs) at the workspace root. `"nogit"` outside a
/// checkout — provenance stays total.
pub fn git_rev() -> &'static str {
    static REV: OnceLock<String> = OnceLock::new();
    REV.get_or_init(|| {
        let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../.git");
        read_git_rev(&git).unwrap_or_else(|| "nogit".to_string())
    })
}

fn read_git_rev(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else {
        // Detached HEAD: the line is the commit hash itself.
        return (head.len() == 40 && head.chars().all(|c| c.is_ascii_hexdigit()))
            .then(|| head.to_string());
    };
    if let Ok(loose) = std::fs::read_to_string(git.join(refname)) {
        return Some(loose.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        line.split_once(' ')
            .filter(|(_, name)| name.trim() == refname)
            .map(|(hash, _)| hash.to_string())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_frozen() {
        // Reference values computed from the FNV-1a definition; if these
        // move, every cell seed and provenance hash moves with them.
        assert_eq!(fnv1a(FNV_BASIS, ""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_BASIS, "a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(
            fnv1a(FNV_BASIS, "fig4_garbage"),
            fnv1a(FNV_BASIS, "fig4_garbagf")
        );
    }

    #[test]
    fn provenance_hash_is_stable_and_discriminating() {
        let _guard = crate::report::env_lock();
        let h0 = provenance_hash("scenario_skew");
        assert_eq!(h0.len(), 32);
        assert!(h0.chars().all(|c| c.is_ascii_hexdigit()));
        assert_eq!(
            h0,
            provenance_hash("scenario_skew"),
            "hash is deterministic"
        );
        assert_ne!(
            h0,
            provenance_hash("scenario_churn"),
            "rows get distinct hashes"
        );
        // The preimage is exactly id, toolchain, git and env: the id and
        // the git rev already pin every seed a row derives.
        let pre = provenance_preimage("scenario_skew");
        assert!(pre.starts_with("epic-prov-v2\nid=scenario_skew\n"), "{pre}");
        assert!(pre.contains("git="));
        for gone in ["kind=", "runbook_fnv=", "seed="] {
            assert!(!pre.contains(gone), "{pre}");
        }
    }

    #[test]
    fn provenance_tracks_epic_env_overrides() {
        let _guard = crate::report::env_lock();
        let id = "scenario_churn";
        std::env::remove_var("EPIC_PROV_PROBE");
        let before = provenance_hash(id);
        std::env::set_var("EPIC_PROV_PROBE", "1");
        let with_knob = provenance_hash(id);
        std::env::remove_var("EPIC_PROV_PROBE");
        assert_ne!(before, with_knob, "EPIC_* overrides must change the hash");
        assert_eq!(before, provenance_hash(id), "and removal restores it");
        // Denylisted keys (artifact paths) do NOT change the hash.
        let had = std::env::var("EPIC_RESULTS").ok();
        std::env::set_var("EPIC_RESULTS", "/tmp/elsewhere-prov-test");
        let moved = provenance_hash(id);
        match had {
            Some(v) => std::env::set_var("EPIC_RESULTS", v),
            None => std::env::remove_var("EPIC_RESULTS"),
        }
        assert_eq!(before, moved, "EPIC_RESULTS is provenance-neutral");
    }

    #[test]
    fn git_rev_resolves_in_this_checkout() {
        let rev = git_rev();
        assert!(!rev.is_empty());
        // In the repo this resolves to a 40-hex commit; elsewhere "nogit".
        assert!(
            rev == "nogit" || (rev.len() == 40 && rev.chars().all(|c| c.is_ascii_hexdigit())),
            "unexpected rev: {rev}"
        );
    }
}
