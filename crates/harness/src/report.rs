//! Table + artifact output, and the structured [`ExperimentResult`] every
//! experiment returns.
//!
//! Every experiment prints an aligned table (the rows/series of the
//! corresponding paper table/figure), writes CSV/SVG artifacts under
//! [`results_dir`], **and** records named scalar metrics + named series
//! into an [`ExperimentResult`] — the machine-readable shape the oracle
//! layer (`crate::oracle`) asserts against.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// The artifact output directory: `EPIC_RESULTS` if set, else `results/`
/// at the workspace root. Anchoring at the workspace (not the CWD)
/// matters because cargo runs test targets with the *package* directory
/// as CWD — a relative default would scatter artifacts into
/// `crates/harness/results/` while `epic-run` writes to the root.
pub fn results_dir() -> PathBuf {
    let path = match std::env::var("EPIC_RESULTS") {
        Ok(dir) => PathBuf::from(dir),
        Err(_) => Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join("results"),
    };
    let _ = std::fs::create_dir_all(&path);
    path
}

/// The structured outcome of one experiment: named scalar metrics and
/// named series, recorded alongside (not instead of) the human-readable
/// prints. Metric names are stable slash-separated keys
/// (`"mops/je/af"`, `"garbage/batch/peaks"`); series hold y values in
/// presentation order (thread sweeps, epoch time, ...).
#[derive(Debug, Clone, Default)]
pub struct ExperimentResult {
    /// The experiment id (matches the registry).
    pub id: String,
    /// Provenance hash (32 hex chars) identifying exactly what produced
    /// this result: experiment id, toolchain, git revision, and the
    /// effective `EPIC_*` overrides. Stamped by
    /// [`Experiment::execute`](crate::experiments::Experiment::execute)
    /// for every registry run, so any row in a
    /// `SHAPES.json` can be replayed from its hash alone
    /// (`epic-run replay <hash>`). `None` only for results constructed
    /// outside the registry (unit tests, ad-hoc drivers).
    pub provenance: Option<String>,
    metrics: BTreeMap<String, f64>,
    series: BTreeMap<String, Vec<f64>>,
}

impl ExperimentResult {
    /// An empty result for `id`.
    pub fn new(id: &str) -> Self {
        ExperimentResult {
            id: id.to_string(),
            ..Default::default()
        }
    }

    /// Records (or overwrites) a named scalar metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// Appends one value to a named series (created on first push).
    pub fn push(&mut self, series: impl Into<String>, value: f64) {
        self.series.entry(series.into()).or_default().push(value);
    }

    /// Replaces a named series wholesale.
    pub fn set_series(&mut self, name: impl Into<String>, values: Vec<f64>) {
        self.series.insert(name.into(), values);
    }

    /// Looks up a scalar metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// Looks up a series.
    pub fn get_series(&self, name: &str) -> Option<&[f64]> {
        self.series.get(name).map(Vec::as_slice)
    }

    /// All metrics, sorted by name.
    pub fn metrics(&self) -> &BTreeMap<String, f64> {
        &self.metrics
    }

    /// All series, sorted by name.
    pub fn series(&self) -> &BTreeMap<String, Vec<f64>> {
        &self.series
    }

    /// The result as a JSON object (`NaN`/infinite values become `null`,
    /// keeping the output strictly parseable).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n      \"id\": ");
        push_json_str(&mut out, &self.id);
        if let Some(p) = &self.provenance {
            out.push_str(",\n      \"provenance\": ");
            push_json_str(&mut out, p);
        }
        out.push_str(",\n      \"metrics\": {");
        for (i, (k, v)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n        ");
            push_json_str(&mut out, k);
            out.push_str(": ");
            out.push_str(&json_num(*v));
        }
        out.push_str("\n      },\n      \"series\": {");
        for (i, (k, vs)) in self.series.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n        ");
            push_json_str(&mut out, k);
            out.push_str(": [");
            for (j, v) in vs.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&json_num(*v));
            }
            out.push(']');
        }
        out.push_str("\n      }\n    }");
        out
    }
}

/// Formats an `f64` as a JSON number (`null` for NaN/±inf). Delegates
/// to [`epic_util::json::render_num`] so every writer in the workspace
/// shares one number convention (and the parser's round trip holds).
pub fn json_num(v: f64) -> String {
    epic_util::json::render_num(v)
}

/// Appends a JSON string literal (quotes + escapes). Delegates to
/// [`epic_util::json::push_str_literal`] — one escape rule everywhere.
pub fn push_json_str(out: &mut String, s: &str) {
    epic_util::json::push_str_literal(out, s);
}

/// A simple aligned table with CSV export.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table/figure identifier (e.g. `table1_je_overhead`).
    pub id: String,
    /// Human title.
    pub title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given headers.
    pub fn new(id: &str, title: &str, headers: &[&str]) -> Self {
        Table {
            id: id.to_string(),
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width mismatch in {}",
            self.id
        );
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} — {}", self.id, self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// [`emit`](Self::emit), plus records the table's shape into a
    /// structured result: `rows/<table id>` (row count) and
    /// `cols/<table id>` (column count). Oracles use these as noise-free
    /// completeness checks — "the experiment produced its full grid".
    pub fn emit_into(&self, result: &mut ExperimentResult) {
        self.emit();
        result.metric(format!("rows/{}", self.id), self.rows.len() as f64);
        result.metric(format!("cols/{}", self.id), self.headers.len() as f64);
    }

    /// Prints to stdout and writes `<results>/<id>.csv`.
    pub fn emit(&self) {
        println!("{}", self.render());
        let mut csv = self.headers.join(",");
        csv.push('\n');
        for row in &self.rows {
            csv.push_str(&row.join(","));
            csv.push('\n');
        }
        let path = results_dir().join(format!("{}.csv", self.id));
        if let Err(e) = std::fs::write(&path, csv) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }
}

/// Formats ops/s as the paper does (e.g. `43.4M`).
pub fn fmt_mops(ops_per_sec: f64) -> String {
    if ops_per_sec >= 1e6 {
        format!("{:.1}M", ops_per_sec / 1e6)
    } else if ops_per_sec >= 1e3 {
        format!("{:.1}K", ops_per_sec / 1e3)
    } else {
        format!("{ops_per_sec:.0}")
    }
}

/// Formats a count (`114M`, `32K`, ...).
pub fn fmt_count(n: u64) -> String {
    if n >= 1_000_000 {
        format!("{:.0}M", n as f64 / 1e6)
    } else if n >= 1_000 {
        format!("{:.0}K", n as f64 / 1e3)
    } else {
        n.to_string()
    }
}

/// Serializes tests that mutate the `EPIC_RESULTS` process environment
/// (report + oracle artifact tests share one process).
#[cfg(test)]
pub(crate) fn env_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_render_and_alignment() {
        let mut t = Table::new("t", "demo", &["a", "header"]);
        t.row(vec!["1".into(), "x".into()]);
        t.row(vec!["1000".into(), "y".into()]);
        let s = t.render();
        assert!(s.contains("demo"));
        let lines: Vec<&str> = s.lines().collect();
        // All data lines equal length (alignment).
        assert_eq!(lines[3].len(), lines[4].len());
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("t", "demo", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_mops(43_400_000.0), "43.4M");
        assert_eq!(fmt_mops(12_300.0), "12.3K");
        assert_eq!(fmt_mops(99.0), "99");
        assert_eq!(fmt_count(114_000_000), "114M");
        assert_eq!(fmt_count(32_768), "33K");
        assert_eq!(fmt_count(7), "7");
    }

    /// Golden snapshot of [`Table::render`]: pins the exact alignment,
    /// separator width, and header layout so oracle-driven refactors
    /// can't silently change the human-readable reports.
    #[test]
    fn table_render_golden() {
        let mut t = Table::new("tg", "golden", &["name", "Mops/s"]);
        t.row(vec!["debra".into(), "43.4M".into()]);
        t.row(vec!["token_af".into(), "111.3M".into()]);
        let expected = "== tg — golden\n\
                        \x20   name  Mops/s\n\
                        ----------------\n\
                        \x20  debra   43.4M\n\
                        token_af  111.3M\n";
        assert_eq!(t.render(), expected);
    }

    /// Pins `fmt_mops`/`fmt_count` edge cases: zero, sub-1.0, the ≥1e9
    /// band (stays in `M`, no `G` unit), and NaN (formats as literal
    /// `NaN` — never panics, never produces a unit suffix).
    #[test]
    fn formatting_edge_cases() {
        assert_eq!(fmt_mops(0.0), "0");
        assert_eq!(fmt_mops(0.4), "0");
        assert_eq!(fmt_mops(999.4), "999");
        assert_eq!(fmt_mops(1_000.0), "1.0K");
        assert_eq!(fmt_mops(2.5e9), "2500.0M");
        assert_eq!(fmt_mops(f64::NAN), "NaN");
        assert_eq!(fmt_count(0), "0");
        assert_eq!(fmt_count(999), "999");
        assert_eq!(fmt_count(1_000), "1K");
        assert_eq!(fmt_count(1_500_000_000), "1500M");
    }

    #[test]
    fn experiment_result_metrics_and_series() {
        let mut r = ExperimentResult::new("demo");
        r.metric("mops/af", 4.25);
        r.push("ratios", 1.5);
        r.push("ratios", 2.5);
        assert_eq!(r.get("mops/af"), Some(4.25));
        assert_eq!(r.get("missing"), None);
        assert_eq!(r.get_series("ratios"), Some(&[1.5, 2.5][..]));
        assert_eq!(r.get_series("missing"), None);
        r.set_series("ratios", vec![9.0]);
        assert_eq!(r.get_series("ratios"), Some(&[9.0][..]));
        // Overwrite semantics for metrics.
        r.metric("mops/af", 5.0);
        assert_eq!(r.get("mops/af"), Some(5.0));
    }

    #[test]
    fn experiment_result_json_handles_nan_and_escapes() {
        let mut r = ExperimentResult::new("j\"id");
        r.metric("ok", 2.0);
        r.metric("bad", f64::NAN);
        r.push("s", 1.0);
        r.push("s", f64::INFINITY);
        let json = r.to_json();
        assert!(json.contains("\"j\\\"id\""), "id must be escaped: {json}");
        assert!(json.contains("\"ok\": 2.0"));
        assert!(json.contains("\"bad\": null"));
        assert!(json.contains("[1.0, null]"));
        assert!(!json.contains("NaN"));
        assert!(!json.contains("inf"));
        // No provenance stamped => no provenance key at all.
        assert!(!json.contains("provenance"));
    }

    #[test]
    fn experiment_result_json_carries_provenance_when_stamped() {
        let mut r = ExperimentResult::new("p");
        r.provenance = Some("deadbeef".repeat(4));
        let json = r.to_json();
        assert!(
            json.contains(&format!("\"provenance\": \"{}\"", "deadbeef".repeat(4))),
            "{json}"
        );
    }

    #[test]
    fn emit_into_records_grid_shape() {
        let _guard = super::env_lock();
        let dir = std::env::temp_dir().join("epic_report_test");
        std::env::set_var("EPIC_RESULTS", &dir);
        let mut t = Table::new("grid_test", "demo", &["a", "b", "c"]);
        t.row(vec!["1".into(), "2".into(), "3".into()]);
        t.row(vec!["4".into(), "5".into(), "6".into()]);
        let mut r = ExperimentResult::new("grid_test");
        t.emit_into(&mut r);
        std::env::remove_var("EPIC_RESULTS");
        assert_eq!(r.get("rows/grid_test"), Some(2.0));
        assert_eq!(r.get("cols/grid_test"), Some(3.0));
        let csv = std::fs::read_to_string(dir.join("grid_test.csv")).expect("csv written");
        assert_eq!(csv, "a,b,c\n1,2,3\n4,5,6\n");
    }
}
