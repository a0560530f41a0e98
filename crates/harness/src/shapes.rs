//! The `SHAPES.json` document model: schema `epic-shapes-v2`.
//!
//! One document holds the oracle verdicts (and raw structured results)
//! of a set of experiments. Two producers share it:
//!
//! * `epic-run check` writes one document for everything it ran — in
//!   process, or (`-j N`) combined from its children's documents by the
//!   process runner ([`crate::runner`]);
//! * each such child writes a single-experiment document via
//!   `epic-run --one <id> --result-json`.
//!
//! Each record carries `duration_ms` and `attempts`, and the document a
//! top-level `runner: {jobs}` block (see DESIGN.md §8 for the field
//! table).

use crate::oracle::{AssertionOutcome, OracleReport, Tier};
use crate::report::{json_num, push_json_str, results_dir, ExperimentResult};
use epic_util::json::Json;

/// The schema tag, written and required.
pub const SCHEMA_V2: &str = "epic-shapes-v2";

/// One experiment's entry in a shapes document.
#[derive(Debug, Clone)]
pub struct ShapeRecord {
    /// The oracle outcomes (id, claim, per-assertion results).
    pub report: OracleReport,
    /// Wall-clock of the experiment run (0 when unknown — a crashed child).
    pub duration_ms: f64,
    /// Process-runner attempts that produced this record (1 = first try).
    pub attempts: u32,
    /// The raw [`ExperimentResult`] pre-serialized as a JSON value
    /// (`"null"` when the experiment never completed).
    pub result_json: String,
}

impl ShapeRecord {
    /// Builds a record from a live run.
    pub fn from_run(
        report: OracleReport,
        result: &ExperimentResult,
        duration_ms: f64,
        attempts: u32,
    ) -> Self {
        ShapeRecord {
            report,
            duration_ms,
            attempts,
            result_json: result.to_json(),
        }
    }
}

/// A full shapes document: records plus the producing run's `-j` count.
#[derive(Debug, Clone)]
pub struct ShapesDoc {
    /// Per-experiment records.
    pub records: Vec<ShapeRecord>,
    /// Worker-slot count (`-j`) of the producing run; 1 for serial
    /// `check` and for a `--one` child.
    pub jobs: usize,
}

impl ShapesDoc {
    /// Total failed strict assertions across all records.
    pub fn strict_failures(&self) -> usize {
        self.records
            .iter()
            .map(|r| r.report.strict_failures())
            .sum()
    }

    /// Total failed advisory assertions across all records.
    pub fn advisory_failures(&self) -> usize {
        self.records
            .iter()
            .map(|r| r.report.advisory_failures())
            .sum()
    }

    /// The oracle reports, for verdict-table rendering.
    pub fn reports(&self) -> Vec<OracleReport> {
        self.records.iter().map(|r| r.report.clone()).collect()
    }

    /// Serializes to the v2 schema.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"schema\": ");
        push_json_str(&mut out, SCHEMA_V2);
        out.push_str(&format!(
            ",\n  \"runner\": {{\"jobs\": {}}},\n  \"experiments\": [\n",
            self.jobs
        ));
        for (i, rec) in self.records.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let report = &rec.report;
            out.push_str("    {\n      \"id\": ");
            push_json_str(&mut out, &report.experiment);
            out.push_str(",\n      \"claim\": ");
            push_json_str(&mut out, &report.claim);
            out.push_str(",\n      \"verdict\": ");
            push_json_str(&mut out, report.verdict());
            out.push_str(&format!(
                ",\n      \"strict_failures\": {},\n      \"advisory_failures\": {},\n      \
                 \"duration_ms\": {},\n      \"attempts\": {},\n      \"assertions\": [\n",
                report.strict_failures(),
                report.advisory_failures(),
                json_num(rec.duration_ms),
                rec.attempts
            ));
            for (j, o) in report.outcomes.iter().enumerate() {
                if j > 0 {
                    out.push_str(",\n");
                }
                out.push_str("        {\"label\": ");
                push_json_str(&mut out, &o.label);
                out.push_str(", \"tier\": ");
                push_json_str(&mut out, o.tier.name());
                out.push_str(&format!(", \"passed\": {}, \"detail\": ", o.passed));
                push_json_str(&mut out, &o.detail);
                out.push('}');
            }
            out.push_str("\n      ],\n      \"result\": ");
            out.push_str(&rec.result_json);
            out.push_str("\n    }");
        }
        out.push_str(&format!(
            "\n  ],\n  \"total_strict_failures\": {}\n}}\n",
            self.strict_failures()
        ));
        out
    }

    /// Parses a v2 document; any other schema tag is an error.
    pub fn parse(text: &str) -> Result<ShapesDoc, String> {
        let doc = Json::parse(text)?;
        let schema = doc
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("shapes: missing \"schema\" field")?;
        if schema != SCHEMA_V2 {
            return Err(format!("shapes: unsupported schema '{schema}'"));
        }
        let jobs = doc
            .get("runner")
            .and_then(|r| r.get("jobs"))
            .and_then(Json::as_f64)
            .unwrap_or(1.0) as usize;
        let experiments = doc
            .get("experiments")
            .and_then(Json::as_arr)
            .ok_or("shapes: missing \"experiments\" array")?;
        let mut records = Vec::with_capacity(experiments.len());
        for e in experiments {
            let id = e
                .get("id")
                .and_then(Json::as_str)
                .ok_or("shapes: experiment entry without an \"id\"")?
                .to_string();
            let claim = e
                .get("claim")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string();
            let mut outcomes = Vec::new();
            for a in e
                .get("assertions")
                .and_then(Json::as_arr)
                .unwrap_or_default()
            {
                outcomes.push(AssertionOutcome {
                    label: a
                        .get("label")
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string(),
                    tier: match a.get("tier").and_then(Json::as_str) {
                        Some("strict") | None => Tier::Strict,
                        Some("advisory") => Tier::Advisory,
                        Some(other) => {
                            return Err(format!(
                                "shapes: unknown assertion tier '{other}' in '{id}'"
                            ))
                        }
                    },
                    passed: a.get("passed").and_then(Json::as_bool).unwrap_or(false),
                    detail: a
                        .get("detail")
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string(),
                });
            }
            records.push(ShapeRecord {
                report: OracleReport {
                    experiment: id,
                    claim,
                    outcomes,
                },
                duration_ms: e.get("duration_ms").and_then(Json::as_f64).unwrap_or(0.0),
                attempts: e.get("attempts").and_then(Json::as_f64).unwrap_or(1.0) as u32,
                result_json: e.get("result").map_or("null".to_string(), Json::render),
            });
        }
        Ok(ShapesDoc { records, jobs })
    }

    /// Writes the document to `<results>/SHAPES.json`; returns the path
    /// (a failed write warns on stderr, matching the artifact writers).
    pub fn write_default(&self) -> std::path::PathBuf {
        let path = results_dir().join("SHAPES.json");
        if let Err(e) = std::fs::write(&path, self.to_json()) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{evaluate, ordering, Oracle};

    fn demo_doc(id: &str, strict_pass: bool) -> ShapesDoc {
        let mut result = ExperimentResult::new(id);
        result.metric("a", 1.0);
        result.metric("b", 2.0);
        let (g, l) = if strict_pass { ("b", "a") } else { ("a", "b") };
        let oracle = Oracle {
            experiment: "x".into(),
            claim: "demo claim with \"quotes\"".into(),
            assertions: vec![
                ordering("strict one", g, l),
                ordering("advisory one", "a", "b").advisory(),
            ],
        };
        let mut report = evaluate(&oracle, &result);
        report.experiment = id.to_string();
        ShapesDoc {
            records: vec![ShapeRecord::from_run(report, &result, 123.5, 2)],
            jobs: 4,
        }
    }

    #[test]
    fn v2_round_trips() {
        let doc = demo_doc("fig4_garbage", true);
        let text = doc.to_json();
        assert!(text.contains("\"schema\": \"epic-shapes-v2\""));
        assert!(text.contains("\"duration_ms\": 123.5"));
        assert!(text.contains("\"attempts\": 2"));
        assert!(text.contains("\"runner\": {\"jobs\": 4}"));
        let back = ShapesDoc::parse(&text).expect("parse own output");
        assert_eq!(back.jobs, doc.jobs);
        // Documents that still carry the dropped `runner.shard` key parse.
        let old = text.replace("{\"jobs\": 4}", "{\"shard\": \"2/3\", \"jobs\": 4}");
        assert_eq!(ShapesDoc::parse(&old).expect("old runner block").jobs, 4);
        assert_eq!(back.records.len(), 1);
        let rec = &back.records[0];
        assert_eq!(rec.report.experiment, "fig4_garbage");
        assert_eq!(rec.report.claim, "demo claim with \"quotes\"");
        assert_eq!(rec.duration_ms, 123.5);
        assert_eq!(rec.attempts, 2);
        assert_eq!(rec.report.strict_failures(), 0);
        assert_eq!(rec.report.advisory_failures(), 1);
        assert_eq!(rec.report.outcomes[0].tier, Tier::Strict);
        assert_eq!(rec.report.outcomes[1].tier, Tier::Advisory);
        // The raw result survives as JSON.
        assert!(rec.result_json.contains("\"a\""));
    }

    #[test]
    fn reader_rejects_unknown_schema_and_garbage() {
        assert!(ShapesDoc::parse("{}").is_err());
        for old_or_future in ["epic-shapes-v1", "epic-shapes-v99"] {
            let text = format!("{{\"schema\": \"{old_or_future}\", \"experiments\": []}}");
            assert!(ShapesDoc::parse(&text).is_err(), "{old_or_future} accepted");
        }
        assert!(ShapesDoc::parse("not json").is_err());
    }

    #[test]
    fn shapes_json_is_written_and_nan_safe() {
        let _guard = crate::report::env_lock();
        let dir = std::env::temp_dir().join("epic_shapes_test");
        std::env::set_var("EPIC_RESULTS", &dir);
        let mut result = ExperimentResult::new("test");
        result.metric("a", f64::NAN);
        result.metric("b", 2.0);
        let oracle = Oracle {
            experiment: "test".into(),
            claim: "quote \" and backslash \\".into(),
            assertions: vec![ordering("b over a", "b", "a")],
        };
        let report = evaluate(&oracle, &result);
        let doc = ShapesDoc {
            records: vec![ShapeRecord::from_run(report, &result, 1.0, 1)],
            jobs: 1,
        };
        let path = doc.write_default();
        let text = std::fs::read_to_string(&path).expect("SHAPES.json written");
        std::env::remove_var("EPIC_RESULTS");
        assert!(text.contains("\"schema\": \"epic-shapes-v2\""));
        assert!(text.contains("\"total_strict_failures\": 1"));
        // NaN metric values serialize as null; detail strings may contain
        // the word NaN but no bare token may leak.
        assert!(text.contains("\"a\": null"), "NaN value leaked: {text}");
        assert!(!text.contains(": NaN"), "bare NaN token leaked: {text}");
        assert!(text.contains("\\\""), "quotes must be escaped");
        // And the full file round-trips through the reader.
        ShapesDoc::parse(&text).expect("written file parses");
    }
}
