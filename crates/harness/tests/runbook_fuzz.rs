//! Deterministic fuzzing for the runbook parser (`epic_harness::scenario`),
//! in the `json_fuzz`/`http_fuzz` style: fixed seeds so failures
//! reproduce exactly.
//!
//! Two properties:
//!
//! 1. **Round trip**: every valid corpus runbook (including the
//!    committed `runbooks/smoke.json`) parses, and parsing the same
//!    bytes again yields identical cell ids and per-cell seeds — the
//!    parse is a pure function of the source.
//! 2. **Error, not panic**: seeded mutations of valid runbooks
//!    (truncations, byte flips, splices, token swaps into hostile
//!    values) must return `Err` with a non-empty diagnostic or a valid
//!    runbook — never panic, hang, or overflow.

use epic_harness::Runbook;
use epic_util::XorShift64;

/// Valid corpus: one exercising every axis, one minimal, plus the
/// committed smoke runbook read from the repo.
fn valid_corpus() -> Vec<String> {
    let mut corpus = vec![
        r#"{
          "schema": "epic-runbook-v1",
          "name": "fuzz_wide",
          "seed": 99,
          "scenarios": [
            {
              "name": "a",
              "trees": ["ab", "hm"],
              "smrs": ["debra", "nbr+", "rcu"],
              "modes": ["batch", "af"],
              "allocs": ["je", "sys"],
              "threads": [1, 2, "2x"],
              "key_range": 2048,
              "key_dists": ["uniform", "zipf:0.5"],
              "arrivals": ["steady", "bursty:256:100"],
              "update_ratio": 0.5
            }
          ]
        }"#
        .to_string(),
        r#"{"schema": "epic-runbook-v1", "name": "fuzz_min",
            "scenarios": [{"name": "s", "trees": "ab", "smrs": "rcu", "threads": 1}]}"#
            .to_string(),
    ];
    let committed =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../runbooks/smoke.json");
    corpus.push(std::fs::read_to_string(committed).expect("committed runbooks/smoke.json"));
    corpus
}

#[test]
fn valid_runbooks_round_trip_deterministically() {
    for src in valid_corpus() {
        let a = Runbook::parse(&src).unwrap_or_else(|e| panic!("corpus must parse: {e}"));
        let b = Runbook::parse(&src).expect("second parse");
        assert!(!a.cells.is_empty(), "corpus runbooks generate cells");
        assert_eq!(a.name, b.name);
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.source_fnv, b.source_fnv);
        let ids_a: Vec<(&str, u64)> = a.cells.iter().map(|c| (c.id.as_str(), c.seed)).collect();
        let ids_b: Vec<(&str, u64)> = b.cells.iter().map(|c| (c.id.as_str(), c.seed)).collect();
        assert_eq!(
            ids_a, ids_b,
            "cell ids and seeds are a pure function of the source"
        );
    }
}

/// One seeded mutation of `src`: truncate, flip bytes, splice a random
/// window, or swap a known-good token for a hostile one.
fn mutate(rng: &mut XorShift64, src: &str) -> String {
    let bytes = src.as_bytes();
    match rng.next_bounded(4) {
        // Truncation at an arbitrary byte (possibly mid-UTF-8 — the
        // lossy conversion keeps the input a &str, as the parser takes).
        0 => {
            let cut = rng.next_bounded(bytes.len() as u64 + 1) as usize;
            String::from_utf8_lossy(&bytes[..cut]).into_owned()
        }
        // Flip 1..=4 bytes anywhere.
        1 => {
            let mut out = bytes.to_vec();
            for _ in 0..=rng.next_bounded(3) {
                let i = rng.next_bounded(out.len() as u64) as usize;
                out[i] ^= (1 + rng.next_bounded(255)) as u8;
            }
            String::from_utf8_lossy(&out).into_owned()
        }
        // Splice: delete a window and optionally re-insert punctuation.
        2 => {
            let start = rng.next_bounded(bytes.len() as u64) as usize;
            let len = rng.next_bounded((bytes.len() - start) as u64 + 1) as usize;
            let mut out = bytes.to_vec();
            out.drain(start..start + len);
            let junk = [b'{', b'}', b'[', b']', b'"', b',', b':'];
            if rng.coin() {
                out.insert(
                    rng.next_bounded(out.len() as u64 + 1) as usize,
                    junk[rng.next_bounded(junk.len() as u64) as usize],
                );
            }
            String::from_utf8_lossy(&out).into_owned()
        }
        // Token swap: replace a valid token with a hostile value.
        _ => {
            let swaps = [
                ("\"rcu\"", "\"no_such_smr\""),
                ("\"ab\"", "\"NOT A TREE\""),
                ("\"zipf:0.5\"", "\"zipf:1.0\""),
                ("\"zipf:0.5\"", "\"zipf:-3\""),
                ("\"2x\"", "\"99x\""),
                ("\"threads\": 1", "\"threads\": 0"),
                ("\"threads\": 1", "\"threads\": 100000"),
                ("\"seed\": 99", "\"seed\": -1"),
                ("\"update_ratio\": 0.5", "\"update_ratio\": 7.5"),
                ("epic-runbook-v1", "epic-runbook-v0"),
                ("\"bursty:256:100\"", "\"bursty:0:100\""),
                ("\"bursty:256:100\"", "\"bursty:256:9999999\""),
                ("\"name\": \"a\"", "\"name\": \"UPPER CASE\""),
                ("\"name\": \"a\"", "\"nonsense_key\": \"a\""),
            ];
            let (from, to) = swaps[rng.next_bounded(swaps.len() as u64) as usize];
            src.replace(from, to)
        }
    }
}

#[test]
fn mutated_runbooks_error_not_panic() {
    let corpus = valid_corpus();
    let mut rng = XorShift64::new(0x5EED_F00D_2024_0809);
    for round in 0..4_000u32 {
        let src = &corpus[rng.next_bounded(corpus.len() as u64) as usize];
        let mutated = mutate(&mut rng, src);
        match Runbook::parse(&mutated) {
            // Mutations can cancel out or hit ignorable regions — a
            // still-valid runbook is fine; it must just be well-formed.
            Ok(rb) => {
                for c in &rb.cells {
                    assert!(!c.id.is_empty(), "round {round}: empty cell id");
                }
            }
            Err(e) => assert!(
                !e.is_empty(),
                "round {round}: error without a diagnostic for {mutated:?}"
            ),
        }
    }
}

/// The hostile-value corner cases the mutator can only hit by luck,
/// pinned explicitly: each must be a clean error naming the problem.
#[test]
fn hostile_axis_values_are_clean_errors() {
    let base = |axis: &str| {
        format!(
            r#"{{"schema": "epic-runbook-v1", "name": "h",
                "scenarios": [{{"name": "s", "trees": "ab", "smrs": "rcu", {axis}}}]}}"#
        )
    };
    for axis in [
        r#""threads": 0"#,
        r#""threads": 513"#,
        r#""threads": "0x""#,
        r#""threads": "9x""#,
        r#""threads": 1, "key_dists": "zipf:1.0""#,
        r#""threads": 1, "key_dists": "zipf:abc""#,
        r#""threads": 1, "arrivals": "bursty:1:10""#,
        r#""threads": 1, "arrivals": "bursty:256:200000""#,
        r#""threads": 1, "update_ratio": 1.5"#,
        r#""threads": 1, "key_range": 0"#,
    ] {
        let err = Runbook::parse(&base(axis)).expect_err(axis);
        assert!(!err.is_empty(), "{axis}: diagnostic must not be empty");
    }
    // The free mode ISSUE 16 deleted: an error listing what is accepted.
    for mode in ["adapt", "adaptive"] {
        let axis = format!(r#""threads": 1, "modes": ["{mode}"]"#);
        let err = Runbook::parse(&base(&axis)).expect_err(mode);
        assert!(err.contains(&format!("unknown mode '{mode}'")), "{err}");
        assert!(err.contains("batch, amortized|af, background|bg, pooled|pool"));
    }
}
